//! The replica census: how many placed chunks are at, below, or without
//! their target number of serving copies.
//!
//! The census is a value the cluster **keeps**, not one it recomputes: a
//! [`CopyTally`] — placed chunks counted by how many serving copies each
//! has. A chunk enters it with its one primary copy (`place` /
//! `place_all`) and leaves it in `evict_chunk`. In between, its count
//! moves only with its holders, in the two writers of the replica books:
//! `Cluster::add_holder` (placement, rebalance and retirement top-up, a
//! completed repair job) and `Cluster::drop_holder` (a replica superseded
//! by an arriving primary, eviction, retirement, and a crash's strike and
//! promotion), each moving the index, the holder's ledger and the tally
//! together. The one count that moves without a holder is a chunk a
//! crash loses, whose only copy went with the node.
//! [`Cluster::replica_census`] folds those few counters against the
//! effective copy target, so a cycle's report pays for what the cycle
//! changed, never for what the cluster holds. The definition — walk every
//! placement, count its serving copies — survives as
//! `Cluster::walked_copies`: it rebuilds the tally on restore (the
//! tally is derived state, no checkpoint byte carries it), audits it in
//! debug builds inside [`Cluster::verify_replica_books`], and is the
//! model the property suite below holds every mutator to.

use crate::cluster::Cluster;
use array_model::ChunkKey;

/// Placed chunks by number of serving copies: `by_copies[c]` chunks have
/// exactly `c`. Grown on demand and kept without a trailing zero bucket,
/// so two tallies of the same books compare equal whatever their history.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct CopyTally {
    by_copies: Vec<usize>,
}

impl CopyTally {
    /// `chunks` newly placed chunks, each with `copies` serving copies.
    pub(crate) fn add(&mut self, copies: usize, chunks: usize) {
        if chunks == 0 {
            return;
        }
        if self.by_copies.len() <= copies {
            self.by_copies.resize(copies + 1, 0);
        }
        self.by_copies[copies] += chunks;
    }

    /// One chunk that had `copies` serving copies left the placement.
    pub(crate) fn remove(&mut self, copies: usize) {
        debug_assert!(
            self.by_copies.get(copies).is_some_and(|&n| n > 0),
            "no placed chunk was tallied at {copies} serving copies"
        );
        if let Some(n) = self.by_copies.get_mut(copies) {
            *n = n.saturating_sub(1);
        }
        while self.by_copies.last() == Some(&0) {
            self.by_copies.pop();
        }
    }

    /// One placed chunk went from `from` serving copies to `to`.
    pub(crate) fn shift(&mut self, from: usize, to: usize) {
        if from != to {
            self.add(to, 1);
            self.remove(from);
        }
    }

    /// Fold the buckets against the copy `target`.
    fn census(&self, target: usize) -> ReplicaCensus {
        let mut census = ReplicaCensus { target, full: 0, under: 0, lost: 0 };
        for (copies, &chunks) in self.by_copies.iter().enumerate() {
            if copies == 0 {
                census.lost += chunks;
            } else if copies < target {
                census.under += chunks;
            } else {
                census.full += chunks;
            }
        }
        census
    }
}

/// Replica-strength census over every placed chunk
/// ([`Cluster::replica_census`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaCensus {
    /// Effective per-chunk copy target: `min(k, nodes able to host data)`.
    pub target: usize,
    /// Chunks at or above the target number of serving copies.
    pub full: usize,
    /// Chunks below target but with at least one serving copy.
    pub under: usize,
    /// Chunks with no serving copy at all: their cells are lost, and a
    /// query that reaches one is refused (`NodeLost`), never answered.
    pub lost: usize,
}

impl ReplicaCensus {
    /// Every placed chunk is at full replica strength.
    pub fn is_full_strength(&self) -> bool {
        self.under == 0 && self.lost == 0
    }

    /// Chunks below the effective copy target (degraded + lost).
    pub fn under_replicated(&self) -> usize {
        self.under + self.lost
    }
}

impl Cluster {
    /// Census of replica strength over every placed chunk: how many
    /// serving copies (primary + replicas) each chunk has versus the
    /// effective target `min(k, nodes able to host data)`.
    ///
    /// O(k + nodes) and allocation-free, whatever the cluster holds: the
    /// per-copy-count tally is maintained by the writers (module docs),
    /// and only the target is computed here, from the roster.
    pub fn replica_census(&self) -> ReplicaCensus {
        self.copies.census(self.effective_target())
    }

    /// The tally by definition: every placement, counted through
    /// [`Cluster::serving_copies`]. O(placed chunks · log) — restore and
    /// audits only.
    pub(crate) fn walked_copies(&self) -> CopyTally {
        let mut tally = CopyTally::default();
        for (key, _) in self.placements() {
            tally.add(self.serving_copies(&key), 1);
        }
        tally
    }

    /// Move `key` between tally buckets after a change that took it from
    /// `before` serving copies to however many it has now.
    pub(crate) fn retally(&mut self, key: &ChunkKey, before: usize) {
        let after = self.serving_copies(key);
        self.copies.shift(before, after);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::node::NodeId;
    use crate::rebalance::RebalancePlan;
    use crate::recovery::{BackoffPolicy, Flakiness, MidCrash};
    use crate::Slot;
    use array_model::{ArrayId, ArraySchema, Chunk, ChunkCoords, ChunkDescriptor, ScalarValue};
    use durability::{ByteReader, ByteWriter};
    use proptest::prelude::*;
    use std::sync::Arc;

    /// One scripted step. Node and chunk picks are reduced modulo what
    /// exists when the step runs, so every script is runnable; many
    /// steps are *meant* to be refused (a crashed node crashed again, a
    /// duplicate placed) — a refusal must leave the census alone.
    #[derive(Debug, Clone)]
    enum Op {
        Place {
            chunk: i64,
            bytes: u64,
            node: u32,
        },
        /// A routed batch; with `dup`, its last entry repeats its first
        /// key and the whole batch rolls back.
        PlaceBatch {
            chunks: Vec<(i64, u64, u32)>,
            dup: bool,
        },
        Evict(usize),
        /// Place a chunk whose descriptor comes from a real one-column
        /// payload of `rows` cells, attach it, then install a rebuild
        /// keeping `keep` of them: every holder's ledger follows.
        Resize {
            chunk: i64,
            node: u32,
            rows: u8,
            keep: u8,
        },
        /// Move the picked chunks, each onto one of its replica holders
        /// when it has any (the arriving primary supersedes that copy),
        /// else onto the picked node.
        Rebalance(Vec<(usize, u32)>),
        AddNodes(usize),
        Crash(u32),
        Revive(u32),
        MarkRecovered(u32),
        StartDraining(u32),
        Decommission(u32),
        Recover {
            flaky: Option<(u8, u64)>,
            mid_crash: Option<(usize, u32)>,
        },
        SnapshotRestore,
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        let placed = || (0i64..48, 1u64..10_000, 0u32..16);
        prop_oneof![
            placed().prop_map(|(chunk, bytes, node)| Op::Place { chunk, bytes, node }),
            placed().prop_map(|(chunk, bytes, node)| Op::Place { chunk, bytes, node }),
            (proptest::collection::vec(placed(), 1..12), 0u32..4)
                .prop_map(|(chunks, dup)| Op::PlaceBatch { chunks, dup: dup == 0 }),
            (0usize..64).prop_map(Op::Evict),
            (0i64..48, 0u32..16, 2u8..12, 0u8..64).prop_map(|(chunk, node, rows, keep)| {
                Op::Resize { chunk, node, rows, keep: 1 + keep % (rows - 1) }
            }),
            proptest::collection::vec((0usize..64, 0u32..16), 1..8).prop_map(Op::Rebalance),
            (1usize..3).prop_map(Op::AddNodes),
            (0u32..16).prop_map(Op::Crash),
            (0u32..16).prop_map(Op::Revive),
            (0u32..16).prop_map(Op::MarkRecovered),
            (0u32..16).prop_map(Op::StartDraining),
            (0u32..16).prop_map(Op::Decommission),
            (0u32..3, 0u8..90, any::<u64>(), 0usize..6, 0u32..16).prop_map(
                |(mode, p, seed, after, node)| Op::Recover {
                    flaky: (mode == 1).then_some((p, seed)),
                    mid_crash: (mode == 2).then_some((after, node)),
                }
            ),
            Just(Op::SnapshotRestore),
        ]
    }

    fn desc(chunk: i64, bytes: u64) -> ChunkDescriptor {
        // Two arrays, two dimensions: some keys in a registered dense
        // grid, some spilling past it, some in an unregistered array.
        let key =
            ChunkKey::new(ArrayId((chunk % 2) as u32), ChunkCoords::new([chunk / 8, chunk % 8]));
        ChunkDescriptor::new(key, bytes, 1)
    }

    /// The census as it used to be computed: walk every placement and
    /// classify its serving copies against the target.
    fn walked_census(c: &Cluster) -> ReplicaCensus {
        let target = c.effective_target();
        let mut census = ReplicaCensus { target, full: 0, under: 0, lost: 0 };
        for (key, _) in c.placements() {
            match c.serving_copies(&key) {
                0 => census.lost += 1,
                n if n < target => census.under += 1,
                _ => census.full += 1,
            }
        }
        census
    }

    /// A one-column payload of `rows` cells for `key`'s chunk.
    fn payload(key: &ChunkKey, rows: u8) -> Chunk {
        let schema = ArraySchema::parse("R<v:double>[x=0:*,8, y=0:*,8]").unwrap();
        let mut chunk = Chunk::new(&schema, key.coords);
        for r in 0..i64::from(rows) {
            let cell = vec![key.coords[0] * 8 + r % 8, key.coords[1] * 8 + r / 8];
            chunk.push_cell(&schema, cell, vec![ScalarValue::Double(r as f64)]).unwrap();
        }
        chunk
    }

    fn nth_key(c: &Cluster, i: usize) -> Option<ChunkKey> {
        let n = c.total_chunks();
        (n > 0).then(|| c.placements().nth(i % n).expect("i % n is in range").0)
    }

    /// Run one step; `true` when the cluster accepted it.
    fn step(c: &mut Cluster, op: &Op) -> bool {
        let node = |n: u32| NodeId(n % c.node_count() as u32);
        match op {
            Op::Place { chunk, bytes, node: n } => c.place(desc(*chunk, *bytes), node(*n)).is_ok(),
            Op::PlaceBatch { chunks, dup } => {
                let mut batch: Vec<ChunkDescriptor> =
                    chunks.iter().map(|&(chunk, bytes, _)| desc(chunk, bytes)).collect();
                let mut routes: Vec<NodeId> = chunks.iter().map(|&(_, _, n)| node(n)).collect();
                if *dup {
                    batch.push(batch[0]);
                    routes.push(routes[0]);
                }
                c.place_all(&batch, &routes).is_ok()
            }
            Op::Evict(i) => nth_key(c, *i).is_some_and(|key| c.evict_chunk(&key).is_ok()),
            Op::Resize { chunk, node: n, rows, keep } => {
                let key = desc(*chunk, 0).key;
                let full = payload(&key, *rows);
                let d = ChunkDescriptor::new(key, full.byte_size(), full.cell_count());
                if c.place(d, node(*n)).is_err() {
                    return false;
                }
                c.attach_payload(key, full).expect("the descriptor is the payload's");
                let rebuilt = Arc::new(payload(&key, *keep));
                c.install_payload(&key, rebuilt).expect("an attached payload resizes");
                true
            }
            Op::Rebalance(picks) => {
                let mut plan = RebalancePlan::empty();
                for &(i, to) in picks {
                    let Some(key) = nth_key(c, i) else { continue };
                    if plan.moves.iter().any(|m| m.key == key) {
                        continue;
                    }
                    let from = c.locate(&key).expect("a placed key");
                    let to = c.replica_holders(&key).first().copied().unwrap_or(node(to));
                    plan.push(key, from, to, 1);
                }
                c.apply_rebalance(&plan).is_ok()
            }
            Op::AddNodes(n) => {
                c.add_nodes(*n, u64::MAX);
                true
            }
            Op::Crash(n) => c.crash_node(node(*n)).is_ok(),
            Op::Revive(n) => c.revive_node(node(*n)).is_ok(),
            Op::MarkRecovered(n) => c.mark_recovered(node(*n)).is_ok(),
            Op::StartDraining(n) => c.start_draining(node(*n)).is_ok(),
            Op::Decommission(n) => c.decommission_node(node(*n)).is_ok(),
            Op::Recover { flaky, mid_crash } => {
                let plan = c.plan_recovery();
                let flaky = flaky.map(|(p, seed)| Flakiness { p: f64::from(p) / 100.0, seed });
                let mid = mid_crash.map(|(after_jobs, n)| MidCrash { after_jobs, node: node(n) });
                let policy = BackoffPolicy { base_secs: 0.1, factor: 2.0, max_retries: 3 };
                c.execute_recovery_with(&plan, &policy, flaky, mid);
                c.verify_replica_books().expect("repair keeps the replica books");
                true
            }
            Op::SnapshotRestore => {
                let mut w = ByteWriter::new();
                c.snapshot_into(&mut w);
                let bytes = w.into_bytes();
                let cells = |key: &ChunkKey| c.primary_payload(key).ok().cloned();
                let restored =
                    Cluster::restore_from(&mut ByteReader::new(&bytes), c.cost.clone(), &cells)
                        .expect("a snapshot restores");
                assert_eq!(restored.copies, c.copies, "restore recounts the same census");
                *c = restored;
                true
            }
        }
    }

    /// A placed slot's home serves reads; a lost slot has no serving
    /// copy and no replica holder; the census's `lost` counts the lost
    /// slots.
    fn assert_lost_is_a_state(c: &Cluster, tag: &str) {
        let mut lost = 0;
        for (key, _) in c.placements() {
            match c.home(&key).expect("a placed key has a slot") {
                Slot::Placed { home, .. } => {
                    let state = c.nodes[home.slot()].state();
                    assert!(state.serves_reads(), "{tag}: {key} is placed on a {state} node");
                }
                Slot::Lost { .. } => {
                    lost += 1;
                    assert_eq!(c.serving_copies(&key), 0, "{tag}: lost {key} serves a copy");
                    assert!(c.replica_holders(&key).is_empty(), "{tag}: lost {key} has holders");
                }
            }
        }
        assert_eq!(c.replica_census().lost, lost, "{tag}: the census miscounts the lost");
    }

    fn run_script(k: usize, ops: &[Op]) {
        let mut c = Cluster::with_replication(3, u64::MAX, CostModel::default(), k).unwrap();
        c.register_array(ArrayId(0), &[4, 8]);
        for (i, op) in ops.iter().enumerate() {
            let before = c.copies.clone();
            let accepted = step(&mut c, op);
            // In debug builds this also sums every node's held records
            // against its replica ledger: a holder-ledger update dropped
            // anywhere (top-up, repair, evict, ...) fails here.
            c.verify_replica_books().unwrap_or_else(|e| panic!("k={k} step {i} {op:?}: {e}"));
            assert_eq!(c.copies, c.walked_copies(), "k={k} step {i} {op:?}: tally drifted");
            assert_eq!(c.replica_census(), walked_census(&c), "k={k} step {i} {op:?}");
            assert_lost_is_a_state(&c, &format!("k={k} step {i} {op:?}"));
            if !accepted {
                assert_eq!(c.copies, before, "k={k} step {i} {op:?}: a refusal moved the census");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Model-based: under any interleaving of every mutator that can
        /// change a chunk's serving copies — and of the lifecycle steps
        /// that must not — the kept tally equals the walked one after
        /// every step, at k = 1, 2 and 3.
        #[test]
        fn kept_census_equals_the_walked_census_after_every_step(
            ops in proptest::collection::vec(arb_op(), 1..60),
        ) {
            for k in 1..=3 {
                run_script(k, &ops);
            }
        }
    }

    #[test]
    fn tally_keeps_no_trailing_zero_bucket() {
        let mut t = CopyTally::default();
        t.add(3, 2);
        t.add(1, 1);
        t.shift(3, 2);
        t.remove(3);
        t.remove(2);
        let mut same = CopyTally::default();
        same.add(1, 1);
        assert_eq!(t, same);
        t.remove(1);
        assert_eq!(t, CopyTally::default());
        assert_eq!(t.census(2), ReplicaCensus { target: 2, full: 0, under: 0, lost: 0 });
    }

    #[test]
    fn census_classifies_buckets_against_the_target() {
        let mut t = CopyTally::default();
        t.add(0, 4);
        t.add(1, 3);
        t.add(2, 2);
        t.add(3, 1);
        assert_eq!(t.census(1), ReplicaCensus { target: 1, full: 6, under: 0, lost: 4 });
        assert_eq!(t.census(2), ReplicaCensus { target: 2, full: 3, under: 3, lost: 4 });
        assert_eq!(t.census(3), ReplicaCensus { target: 3, full: 1, under: 5, lost: 4 });
    }
}
