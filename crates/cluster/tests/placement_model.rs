//! Model-based property tests: the dense placement index must behave
//! exactly like the `BTreeMap<ChunkKey, NodeId>` it replaced, under
//! arbitrary interleavings of placements, batches, rebalances, evictions,
//! scale-outs and `k = 1` crashes — with and without dense registration,
//! including coordinates that spill past the registered extents and keys
//! of another arity than the array's grid. Evictions free record-slab
//! slots that later placements reuse, a refused batch rolls back whole,
//! and a crash leaves each of its chunks lost, still naming its wreck.
//! Every list the index hands out — every placement, every record, each
//! node's records, a band walk over each array — must be the model's, in
//! key order.

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
    Place(u32, ChunkCoords, u64, u32),
    /// Move the i-th placed chunk (modulo count) to node (modulo roster).
    Move(usize, u32),
    /// Evict the i-th placed chunk (modulo count).
    Evict(usize),
    /// Add one node.
    Grow,
    /// Crash node (modulo roster): at `k = 1` each chunk it holds is lost.
    Crash(u32),
    /// Place a batch through `Cluster::place_all`, each chunk on its node
    /// (modulo roster).
    Batch(Vec<(BatchKey, u32)>),
}

/// One chunk of an [`Op::Batch`].
#[derive(Debug, Clone)]
enum BatchKey {
    /// A chunk (array, coords, bytes), as [`Op::Place`] names one.
    Fresh(u32, ChunkCoords, u64),
    /// The i-th placed chunk (modulo count) again: the batch is refused.
    Placed(usize),
    /// The i-th earlier chunk of this batch (modulo count) again: the
    /// batch is refused.
    Repeat(usize),
}

/// A chunk in the domain: three coordinates, or (one chunk in five) the
/// first one or two of them — a key of another arity than the grid's,
/// which lives in the spill map.
fn arb_chunk() -> impl Strategy<Value = (u32, ChunkCoords, u64)> {
    let coords = (0usize..10, 0..DOMAIN[0], 0..DOMAIN[1], 0..DOMAIN[2]);
    (0u32..3, coords, 1u64..1_000_000).prop_map(|(array, (arity, t, x, y), bytes)| {
        let arity = if arity < 2 { 1 + arity } else { 3 };
        (array, ChunkCoords::new(&[t, x, y][..arity]), bytes)
    })
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
        // Two in three of these grow the roster, one crashes a node.
        (0u32..3, 0u32..16).prop_map(|(pick, node)| match pick {
            0 => Op::Crash(node),
            _ => Op::Grow,
        }),
        proptest::collection::vec((batch_key, 0u32..16), 2..7).prop_map(Op::Batch),
    ]
}

/// Reference model: the old implementation's data structure.
#[derive(Default)]
struct Model {
    /// Every placed key and the node it names: its home, or its wreck.
    placement: BTreeMap<ChunkKey, NodeId>,
    /// The keys a crash lost.
    lost: BTreeSet<ChunkKey>,
    /// The crashed nodes.
    crashed: BTreeSet<NodeId>,
    loads: BTreeMap<NodeId, u64>,
    sizes: BTreeMap<ChunkKey, u64>,
}

impl Model {
    /// The i-th placed key (modulo count), lost ones included.
    fn nth(&self, i: usize) -> Option<(ChunkKey, NodeId)> {
        self.placement.iter().nth(i % self.placement.len().max(1)).map(|(k, n)| (*k, *n))
    }

    /// Why placing `key` is refused, if it is placed.
    fn taken(&self, key: ChunkKey) -> Option<ClusterError> {
        self.placement.contains_key(&key).then(|| match self.lost.contains(&key) {
            true => ClusterError::ChunkLost(key),
            false => ClusterError::DuplicateChunk(key),
        })
    }

    /// Why `node` takes no data, if it does not.
    fn unavailable(&self, node: NodeId) -> Option<ClusterError> {
        let state = cluster_sim::NodeState::Crashed;
        self.crashed
            .contains(&node)
            .then_some(ClusterError::NodeUnavailable { node: node.0, state })
    }

    /// The placed, not lost, chunks — on `node` only, when given — as
    /// (key, bytes), in key order.
    fn records(&self, node: Option<NodeId>) -> Vec<(ChunkKey, u64)> {
        let on = |n: &NodeId| node.is_none_or(|node| *n == node);
        let placed = self.placement.iter().filter(|(k, n)| on(n) && !self.lost.contains(k));
        placed.map(|(k, _)| (*k, self.sizes[k])).collect()
    }
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
                let key = ChunkKey::new(ArrayId(array), coords);
                let node = NodeId(node % cluster.node_count() as u32);
                let placed = cluster.place(ChunkDescriptor::new(key, bytes, 1), node);
                // The node's state is checked before the key.
                if let Some(refused) = model.unavailable(node).or_else(|| model.taken(key)) {
                    assert_eq!(placed, Err(refused));
                    continue;
                }
                placed.unwrap();
                model.placement.insert(key, node);
                model.sizes.insert(key, bytes);
                *model.loads.entry(node).or_insert(0) += bytes;
            }
            Op::Move(i, to) => {
                let Some((key, from)) = model.nth(i) else { continue };
                let to = NodeId(to % cluster.node_count() as u32);
                if to == from {
                    continue;
                }
                let bytes = model.sizes[&key];
                let mut plan = RebalancePlan::empty();
                plan.push(key, from, to, bytes);
                let moved = cluster.apply_rebalance(&plan).map(|_| ());
                // A lost chunk is refused before the destination.
                let refused = match model.lost.contains(&key) {
                    true => Some(ClusterError::ChunkLost(key)),
                    false => model.unavailable(to),
                };
                if let Some(refused) = refused {
                    assert_eq!(moved, Err(refused));
                    continue;
                }
                moved.unwrap();
                model.placement.insert(key, to);
                *model.loads.get_mut(&from).unwrap() -= bytes;
                *model.loads.entry(to).or_insert(0) += bytes;
            }
            Op::Evict(i) => {
                let Some((key, from)) = model.nth(i) else { continue };
                let evicted = cluster.evict_chunk(&key);
                if model.lost.contains(&key) {
                    assert_eq!(evicted, Err(ClusterError::ChunkLost(key)));
                    continue;
                }
                let evicted = evicted.unwrap();
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
            Op::Crash(node) => {
                let node = NodeId(node % cluster.node_count() as u32);
                let crashed = cluster.crash_node(node);
                let serving = model.loads.keys().filter(|n| !model.crashed.contains(n));
                if model.crashed.contains(&node) {
                    assert!(matches!(crashed, Err(ClusterError::NodeUnavailable { .. })));
                    continue;
                }
                if serving.count() == 1 {
                    assert_eq!(crashed.map(|_| ()), Err(ClusterError::NoHealthyNodes));
                    continue;
                }
                // Every chunk on it is lost, and keeps naming it.
                let held: Vec<ChunkKey> = model.records(Some(node)).iter().map(|r| r.0).collect();
                assert_eq!(crashed.unwrap().lost, held, "{node}'s lost chunks");
                model.lost.extend(held);
                model.crashed.insert(node);
                model.loads.insert(node, 0);
            }
            Op::Batch(ref chunks) => {
                let mut batch: Vec<ChunkDescriptor> = Vec::new();
                let mut routes = Vec::new();
                for (chunk, node) in chunks {
                    let desc = match *chunk {
                        BatchKey::Fresh(array, coords, bytes) => {
                            let key = ChunkKey::new(ArrayId(array), coords);
                            ChunkDescriptor::new(key, bytes, 1)
                        }
                        BatchKey::Placed(i) => {
                            let Some((key, _)) = model.nth(i) else { continue };
                            ChunkDescriptor::new(
                                key,
                                model.sizes.get(&key).copied().unwrap_or(1),
                                1,
                            )
                        }
                        BatchKey::Repeat(i) if !batch.is_empty() => batch[i % batch.len()],
                        BatchKey::Repeat(_) => continue,
                    };
                    batch.push(desc);
                    routes.push(NodeId(node % cluster.node_count() as u32));
                }
                // The model refuses at the first route to a node that
                // takes no data, else at the first key already placed or
                // listed earlier in the batch, and then changes nothing.
                let mut seen = BTreeSet::new();
                let refused = routes.iter().find_map(|&n| model.unavailable(n)).or_else(|| {
                    batch.iter().find_map(|d| match model.taken(d.key) {
                        Some(taken) => Some(taken),
                        None => {
                            (!seen.insert(d.key)).then_some(ClusterError::DuplicateChunk(d.key))
                        }
                    })
                });
                let placed = cluster.place_all(&batch, &routes);
                if let Some(refused) = refused {
                    assert_eq!(placed, Err(refused), "{batch:?}");
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
        assert_eq!(cluster.placements().count(), model.placement.len());
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

    // Terminal state: every lookup and every ordered list agree.
    for (key, node) in &model.placement {
        assert_eq!(cluster.locate(key), Some(*node), "locate diverged at {key}");
        let lost = matches!(cluster.home(key), Some(Slot::Lost { wreck }) if wreck == node);
        assert_eq!(lost, model.lost.contains(key), "{key} lost or not");
    }
    // Every placement, lost keys naming their wrecks.
    let snapshot: Vec<(ChunkKey, NodeId)> = cluster.placements().collect();
    let reference: Vec<(ChunkKey, NodeId)> =
        model.placement.iter().map(|(k, n)| (*k, *n)).collect();
    assert_eq!(snapshot, reference, "placements() order or content diverged");
    // Every record: the placed chunks that are not lost.
    let record = |r: &cluster_sim::Resident| (r.descriptor().key, r.descriptor().bytes);
    let ours: Vec<(ChunkKey, u64)> = cluster.residents().map(record).collect();
    assert_eq!(ours, model.records(None), "residents() diverged");
    for node in cluster.node_ids() {
        let ours: Vec<(ChunkKey, u64)> = cluster.residents_on(node).map(record).collect();
        let theirs = model.records(Some(node));
        assert_eq!(ours, theirs, "{node}'s chunks diverged");
        assert_eq!(cluster.node(node).unwrap().chunk_count(), theirs.len());
    }
    // A band over a box that covers the whole domain, and so each
    // array's grid, and runs past it on every side: the array's keys of
    // the box's arity.
    let (first, last) = (ChunkCoords::new([-1; 3]), ChunkCoords::new(DOMAIN));
    for array in (0..3).map(ArrayId) {
        let mut walked = Vec::new();
        let flow = cluster.band(array, &first, &last, |coords, slot| {
            let node = match slot {
                Slot::Placed { home, .. } => *home,
                Slot::Lost { wreck } => *wreck,
            };
            walked.push((ChunkKey::new(array, *coords), node));
            ControlFlow::<()>::Continue(())
        });
        assert!(flow.is_continue());
        let want: Vec<(ChunkKey, NodeId)> = reference
            .iter()
            .filter(|(k, _)| k.array == array && k.coords.ndims() == 3)
            .copied()
            .collect();
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
