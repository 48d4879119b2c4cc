//! Model-based property tests: the dense placement index must behave
//! exactly like the `BTreeMap<ChunkKey, NodeId>` it replaced, under
//! arbitrary interleavings of placements, rebalances, evictions and
//! scale-outs — with and without dense registration, including
//! coordinates that spill past the registered extents. Evictions free
//! record-slab slots that later placements reuse, and each node's chunks,
//! read off the index, must be the model's, in key order.

use array_model::{ArrayId, ChunkCoords, ChunkDescriptor, ChunkKey};
use cluster_sim::{relative_std_dev, Cluster, CostModel, NodeId, RebalancePlan};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// One scripted operation against both implementations.
#[derive(Debug, Clone)]
enum Op {
    /// Place chunk (array, coords, bytes) on node (index modulo roster).
    Place(u32, [i64; 3], u64, u32),
    /// Move the i-th resident chunk (modulo count) to node (modulo roster).
    Move(usize, u32),
    /// Evict the i-th resident chunk (modulo count).
    Evict(usize),
    /// Add one node.
    Grow,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u32..3, (0i64..40, 0i64..8, 0i64..8), 1u64..1_000_000, 0u32..16)
            .prop_map(|(array, (t, x, y), bytes, node)| Op::Place(array, [t, x, y], bytes, node)),
        (0usize..512, 0u32..16).prop_map(|(i, node)| Op::Move(i, node)),
        (0usize..512).prop_map(Op::Evict),
        Just(Op::Grow),
    ]
}

/// Reference model: the old implementation's data structure.
#[derive(Default)]
struct Model {
    placement: BTreeMap<ChunkKey, NodeId>,
    loads: BTreeMap<NodeId, u64>,
    sizes: BTreeMap<ChunkKey, u64>,
}

fn run_script(ops: &[Op], register: bool) {
    let mut cluster = Cluster::new(2, u64::MAX, CostModel::default()).unwrap();
    if register {
        // Deliberately smaller than the op domain on the time axis, so
        // placements regularly spill past the dense extents.
        for a in 0..3 {
            cluster.register_array(ArrayId(a), &[16, 8, 8]);
        }
    }
    let mut model = Model::default();
    for id in cluster.node_ids() {
        model.loads.insert(id, 0);
    }

    for op in ops {
        match *op {
            Op::Place(array, coords, bytes, node) => {
                let key = ChunkKey::new(ArrayId(array), ChunkCoords::new(coords));
                let node = NodeId(node % cluster.node_count() as u32);
                if model.placement.contains_key(&key) {
                    // Duplicate: the cluster must reject it identically.
                    assert!(cluster.place(ChunkDescriptor::new(key, bytes, 1), node).is_err());
                    continue;
                }
                cluster.place(ChunkDescriptor::new(key, bytes, 1), node).unwrap();
                model.placement.insert(key, node);
                model.sizes.insert(key, bytes);
                *model.loads.entry(node).or_insert(0) += bytes;
            }
            Op::Move(i, to) => {
                if model.placement.is_empty() {
                    continue;
                }
                let (key, from) = model
                    .placement
                    .iter()
                    .nth(i % model.placement.len())
                    .map(|(k, n)| (*k, *n))
                    .unwrap();
                let to = NodeId(to % cluster.node_count() as u32);
                if to == from {
                    continue;
                }
                let bytes = model.sizes[&key];
                let mut plan = RebalancePlan::empty();
                plan.push(key, from, to, bytes);
                cluster.apply_rebalance(&plan).unwrap();
                model.placement.insert(key, to);
                *model.loads.get_mut(&from).unwrap() -= bytes;
                *model.loads.entry(to).or_insert(0) += bytes;
            }
            Op::Evict(i) => {
                let Some((&key, &from)) =
                    model.placement.iter().nth(i % model.placement.len().max(1))
                else {
                    continue;
                };
                let evicted = cluster.evict_chunk(&key).unwrap();
                assert_eq!((evicted.node, evicted.bytes), (from, model.sizes[&key]));
                model.placement.remove(&key);
                *model.loads.get_mut(&from).unwrap() -= model.sizes.remove(&key).unwrap();
            }
            Op::Grow => {
                if cluster.node_count() < 16 {
                    for id in cluster.add_nodes(1, u64::MAX) {
                        model.loads.insert(id, 0);
                    }
                }
            }
        }

        // Invariants after every step.
        assert_eq!(cluster.total_chunks(), model.placement.len());
        let model_loads: Vec<u64> = model.loads.values().copied().collect();
        assert_eq!(cluster.loads(), model_loads, "load ledgers diverged");
        let expected_rsd = relative_std_dev(&model_loads);
        assert!(
            (cluster.balance_rsd() - expected_rsd).abs() < 1e-12,
            "incremental census diverged: {} vs {}",
            cluster.balance_rsd(),
            expected_rsd
        );
    }

    // Terminal state: every lookup and the full sorted iteration agree.
    for (key, node) in &model.placement {
        assert_eq!(cluster.locate(key), Some(*node), "locate diverged at {key}");
    }
    let snapshot: Vec<(ChunkKey, NodeId)> = cluster.placements().collect();
    let reference: Vec<(ChunkKey, NodeId)> =
        model.placement.iter().map(|(k, n)| (*k, *n)).collect();
    assert_eq!(snapshot, reference, "placements() order or content diverged");
    for node in cluster.node_ids() {
        let ours: Vec<(ChunkKey, u64)> = cluster
            .residents_on(node)
            .map(|r| (r.descriptor().key, r.descriptor().bytes))
            .collect();
        let theirs: Vec<(ChunkKey, u64)> = model
            .placement
            .iter()
            .filter(|(_, n)| **n == node)
            .map(|(k, _)| (*k, model.sizes[k]))
            .collect();
        assert_eq!(ours, theirs, "{node}'s chunks diverged");
        assert_eq!(cluster.node(node).unwrap().chunk_count(), theirs.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Dense-registered index ≡ BTreeMap reference model.
    #[test]
    fn dense_index_matches_btreemap_model(ops in proptest::collection::vec(arb_op(), 1..120)) {
        run_script(&ops, true);
    }

    /// Unregistered (hash fallback) index ≡ BTreeMap reference model.
    #[test]
    fn sparse_index_matches_btreemap_model(ops in proptest::collection::vec(arb_op(), 1..120)) {
        run_script(&ops, false);
    }
}
