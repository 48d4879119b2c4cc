//! Model-based property tests: the dense placement index must behave
//! exactly like the `BTreeMap<ChunkKey, NodeId>` it replaced, under
//! arbitrary interleavings of placements, batches, rebalances, evictions
//! and scale-outs — with and without dense registration, including
//! coordinates that spill past the registered extents. Evictions free
//! record-slab slots that later placements reuse, a refused batch rolls
//! back whole, and each node's chunks, read off the index, must be the
//! model's, in key order; so must a band walk over each array.

use array_model::{ArrayId, ChunkCoords, ChunkDescriptor, ChunkKey};
use cluster_sim::{
    relative_std_dev, Cluster, ClusterError, CostModel, NodeId, RebalancePlan, Slot,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::ControlFlow;

/// The op domain's chunk positions: `t` in `0..40`, `x` and `y` in `0..8`.
const DOMAIN: [i64; 3] = [40, 8, 8];

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
    /// Place a batch through `Cluster::place_all`, each chunk on its node
    /// (modulo roster).
    Batch(Vec<(BatchKey, u32)>),
}

/// One chunk of an [`Op::Batch`].
#[derive(Debug, Clone)]
enum BatchKey {
    /// A chunk (array, coords, bytes), as [`Op::Place`] names one.
    Fresh(u32, [i64; 3], u64),
    /// The i-th placed chunk (modulo count) again: the batch is refused.
    Placed(usize),
    /// The i-th earlier chunk of this batch (modulo count) again: the
    /// batch is refused.
    Repeat(usize),
}

fn arb_chunk() -> impl Strategy<Value = (u32, [i64; 3], u64)> {
    (0u32..3, (0..DOMAIN[0], 0..DOMAIN[1], 0..DOMAIN[2]), 1u64..1_000_000)
        .prop_map(|(array, (t, x, y), bytes)| (array, [t, x, y], bytes))
}

fn arb_op() -> impl Strategy<Value = Op> {
    // One chunk in ten names a placed key, one in ten repeats one.
    let batch_key = (0u32..10, arb_chunk(), 0usize..512).prop_map(|(pick, chunk, i)| match pick {
        0 => BatchKey::Placed(i),
        1 => BatchKey::Repeat(i),
        _ => BatchKey::Fresh(chunk.0, chunk.1, chunk.2),
    });
    prop_oneof![
        (arb_chunk(), 0u32..16)
            .prop_map(|((array, coords, bytes), node)| Op::Place(array, coords, bytes, node)),
        (0usize..512, 0u32..16).prop_map(|(i, node)| Op::Move(i, node)),
        (0usize..512).prop_map(Op::Evict),
        Just(Op::Grow),
        proptest::collection::vec((batch_key, 0u32..16), 2..7).prop_map(Op::Batch),
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
            Op::Batch(ref chunks) => {
                let mut batch: Vec<ChunkDescriptor> = Vec::new();
                let mut routes = Vec::new();
                for (chunk, node) in chunks {
                    let desc = match *chunk {
                        BatchKey::Fresh(array, coords, bytes) => {
                            let key = ChunkKey::new(ArrayId(array), ChunkCoords::new(coords));
                            ChunkDescriptor::new(key, bytes, 1)
                        }
                        BatchKey::Placed(i) => {
                            let placed =
                                model.placement.keys().nth(i % model.placement.len().max(1));
                            let Some(&key) = placed else { continue };
                            ChunkDescriptor::new(key, model.sizes[&key], 1)
                        }
                        BatchKey::Repeat(i) if !batch.is_empty() => batch[i % batch.len()],
                        BatchKey::Repeat(_) => continue,
                    };
                    batch.push(desc);
                    routes.push(NodeId(node % cluster.node_count() as u32));
                }
                // The model refuses at the first key already placed or
                // listed earlier in the batch, and then changes nothing.
                let mut seen = BTreeSet::new();
                let refused = batch
                    .iter()
                    .find(|d| model.placement.contains_key(&d.key) || !seen.insert(d.key));
                let placed = cluster.place_all(&batch, &routes);
                if let Some(d) = refused {
                    assert_eq!(placed, Err(ClusterError::DuplicateChunk(d.key)), "{batch:?}");
                    continue;
                }
                placed.unwrap();
                for (d, &node) in batch.iter().zip(&routes) {
                    model.placement.insert(d.key, node);
                    model.sizes.insert(d.key, d.bytes);
                    *model.loads.entry(node).or_insert(0) += d.bytes;
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
    // A band over a box that covers the whole domain, and so each
    // array's grid, and runs past it on every side.
    let (first, last) = (ChunkCoords::new([-1; 3]), ChunkCoords::new(DOMAIN));
    for array in (0..3).map(ArrayId) {
        let mut walked = Vec::new();
        let flow = cluster.band(array, &first, &last, |coords, slot| {
            let Slot::Placed { home, .. } = slot else { panic!("nothing crashed: {slot:?}") };
            walked.push((ChunkKey::new(array, *coords), *home));
            ControlFlow::<()>::Continue(())
        });
        assert!(flow.is_continue());
        let want: Vec<(ChunkKey, NodeId)> =
            reference.iter().filter(|(k, _)| k.array == array).copied().collect();
        assert_eq!(walked, want, "band over {array:?} diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Dense-registered index ≡ BTreeMap reference model.
    #[test]
    fn dense_index_matches_btreemap_model(ops in proptest::collection::vec(arb_op(), 1..120)) {
        run_script(&ops, true);
    }

    /// Unregistered (spill map only) index ≡ BTreeMap reference model.
    #[test]
    fn sparse_index_matches_btreemap_model(ops in proptest::collection::vec(arb_op(), 1..120)) {
        run_script(&ops, false);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    /// Both models at release scale: `cargo test --release -p cluster-sim
    /// --test placement_model -- --ignored placement_model_smoke`.
    #[test]
    #[ignore = "heavy: run in release via the smoke CI matrix"]
    fn placement_model_smoke(ops in proptest::collection::vec(arb_op(), 1..240)) {
        run_script(&ops, true);
        run_script(&ops, false);
    }
}
