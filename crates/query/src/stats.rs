//! Query cost accounting.
//!
//! Every operator tracks the work it induces per node plus the data it
//! ships, and folds both into a simulated elapsed time: the busiest node
//! bounds the parallel phase (storage skew directly throttles
//! parallelism), shuffles go through the cluster's flow solver, and
//! cross-node fetches (halo exchange, kNN hops) pay per-request latency.

use cluster_sim::{CostModel, FlowSet, NodeId};

/// What one query cost.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryStats {
    /// Simulated elapsed seconds.
    pub elapsed_secs: f64,
    /// Bytes read from local storage across all nodes.
    pub bytes_scanned: u64,
    /// Bytes that crossed the network.
    pub bytes_shuffled: u64,
    /// Chunks touched.
    pub chunks_visited: u64,
    /// Chunks whose zone map refuted the query's region or predicate, so
    /// they were skipped before any payload byte was read — plus the
    /// fetches such a chunk would have made or served. Disjoint from
    /// `chunks_visited`: every touch counts in exactly one of the two.
    pub chunks_pruned: u64,
    /// Individual cross-node requests (halo fetches, kNN hops).
    pub remote_fetches: u64,
}

/// Scale a chunk's (or column slice's) byte size by a fractional
/// selectivity, **rounding up** with a one-byte floor for non-empty
/// inputs. The naive `(bytes as f64 * fraction) as u64` truncates — a
/// small chunk or a tiny attribute fraction rounds to 0 bytes and the
/// scanned chunk is modeled as free, which understates every per-node
/// busy total built from many small chunks. Touching a chunk always
/// costs at least one byte of modeled I/O.
pub fn scaled_bytes(bytes: u64, fraction: f64) -> u64 {
    if bytes == 0 {
        return 0;
    }
    ((bytes as f64 * fraction).ceil() as u64).max(1)
}

/// Accumulates one operator's work; converted into [`QueryStats`] at the
/// end.
#[derive(Debug)]
pub struct WorkTracker<'a> {
    cost: &'a CostModel,
    /// Per-node busy seconds during the parallel phase, indexed by node
    /// id (ids are dense join-order indices) and grown on demand; a node
    /// never charged reads as idle.
    busy: Vec<f64>,
    /// Bulk data movement (shuffles), solved with endpoint contention.
    shuffle: FlowSet,
    /// Serial coordinator work after the parallel phase (merges, sorts).
    coordinator_secs: f64,
    stats: QueryStats,
}

impl<'a> WorkTracker<'a> {
    /// Start tracking under a cost model.
    pub fn new(cost: &'a CostModel) -> Self {
        WorkTracker {
            cost,
            busy: Vec::new(),
            shuffle: FlowSet::new(),
            coordinator_secs: 0.0,
            stats: QueryStats::default(),
        }
    }

    /// `node`'s busy seconds, to add to.
    #[inline]
    fn busy_mut(&mut self, node: NodeId) -> &mut f64 {
        let i = node.0 as usize;
        if i >= self.busy.len() {
            self.busy.resize(i + 1, 0.0);
        }
        &mut self.busy[i]
    }

    /// Node `node` scans `bytes` of one chunk from local storage.
    pub fn scan_chunk(&mut self, node: NodeId, bytes: u64) {
        *self.busy_mut(node) += self.cost.scan_secs(bytes);
        self.stats.bytes_scanned += bytes;
        self.stats.chunks_visited += 1;
    }

    /// Pure CPU work on a node (e.g. k-means iterations over cached data).
    pub fn compute(&mut self, node: NodeId, secs: f64) {
        *self.busy_mut(node) += secs;
    }

    /// Record `n` chunks skipped by zone-map pruning. Pruned chunks cost
    /// nothing — no scan seconds, no bytes — they are only counted, so
    /// the stats expose how much work the zone maps saved.
    pub fn prune_chunks(&mut self, n: u64) {
        self.stats.chunks_pruned += n;
    }

    /// Bulk-move `bytes` from `src` to `dst` (join partner shipping,
    /// partial-aggregate exchange). Timed by the contention solver.
    pub fn shuffle(&mut self, src: NodeId, dst: NodeId, bytes: u64) {
        if src != dst {
            self.shuffle.push(src, dst, bytes);
            self.stats.bytes_shuffled += bytes;
        }
    }

    /// A small synchronous cross-node request: `requester` pulls `bytes`
    /// from `holder` (halo slab, candidate cells). Pays latency plus
    /// transfer, charged to the requester's busy time.
    pub fn remote_fetch(&mut self, requester: NodeId, holder: NodeId, bytes: u64) {
        if requester == holder {
            // Local read: just the scan.
            self.scan_chunk(requester, bytes);
            return;
        }
        *self.busy_mut(requester) += self.cost.remote_fetch_secs(bytes);
        self.stats.bytes_shuffled += bytes;
        self.stats.remote_fetches += 1;
        self.stats.chunks_visited += 1;
    }

    /// A pull between two chunks of one scan (halo slab, hand-off
    /// manifest): a [`WorkTracker::remote_fetch`] when both ends are
    /// visited (`live`); a pull pruning removed is only counted, so every
    /// chunk touch of the unpruned plan is either visited or pruned.
    pub(crate) fn pull(&mut self, live: bool, requester: NodeId, holder: NodeId, bytes: u64) {
        if live {
            self.remote_fetch(requester, holder, bytes);
        } else {
            self.prune_chunks(1);
        }
    }

    /// Serial work at the coordinator after the parallel phase (final
    /// merge/sort of partials).
    pub fn coordinator(&mut self, secs: f64) {
        self.coordinator_secs += secs;
    }

    /// Fold everything into elapsed time:
    /// `max(per-node busy) + shuffle + coordinator`.
    pub fn finish(self) -> QueryStats {
        let parallel = self.busy.iter().fold(0.0f64, |acc, &s| acc.max(s));
        let shuffle_secs = self.shuffle.elapsed_secs(self.cost);
        let mut stats = self.stats;
        stats.elapsed_secs = parallel + shuffle_secs + self.coordinator_secs;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost() -> CostModel {
        CostModel {
            disk_secs_per_gb: 8.0,
            net_secs_per_gb: 12.0,
            fabric_secs_per_gb: 4.8,
            per_chunk_overhead_secs: 0.0,
            cpu_secs_per_gb: 2.0,
            net_latency_secs: 0.5,
        }
    }

    const GB: u64 = 1_000_000_000;

    #[test]
    fn busiest_node_bounds_parallel_phase() {
        let c = cost();
        let mut w = WorkTracker::new(&c);
        w.scan_chunk(NodeId(0), GB);
        w.scan_chunk(NodeId(1), 3 * GB);
        let stats = w.finish();
        // scan = (8 + 2) s/GB; busiest node scanned 3 GB.
        assert!((stats.elapsed_secs - 30.0).abs() < 1e-9);
        assert_eq!(stats.bytes_scanned, 4 * GB);
        assert_eq!(stats.chunks_visited, 2);
    }

    #[test]
    fn skewed_placement_is_slower_than_balanced() {
        let c = cost();
        let balanced = {
            let mut w = WorkTracker::new(&c);
            for n in 0..4 {
                w.scan_chunk(NodeId(n), GB);
            }
            w.finish().elapsed_secs
        };
        let skewed = {
            let mut w = WorkTracker::new(&c);
            for _ in 0..4 {
                w.scan_chunk(NodeId(0), GB);
            }
            w.finish().elapsed_secs
        };
        assert!(skewed > 3.0 * balanced);
    }

    #[test]
    fn remote_fetch_pays_latency() {
        let c = cost();
        let mut w = WorkTracker::new(&c);
        w.remote_fetch(NodeId(0), NodeId(1), 0);
        let stats = w.finish();
        assert!((stats.elapsed_secs - 0.5).abs() < 1e-9);
        assert_eq!(stats.remote_fetches, 1);
        // Local fetch degenerates to a scan: no latency.
        let mut w2 = WorkTracker::new(&c);
        w2.remote_fetch(NodeId(0), NodeId(0), 0);
        assert!(w2.finish().elapsed_secs < 1e-9);
    }

    #[test]
    fn shuffle_uses_contention_solver() {
        let c = cost();
        let mut w = WorkTracker::new(&c);
        w.shuffle(NodeId(0), NodeId(1), GB);
        let stats = w.finish();
        assert!((stats.elapsed_secs - 12.0).abs() < 1e-9);
        assert_eq!(stats.bytes_shuffled, GB);
        // Self-shuffles are dropped.
        let mut w2 = WorkTracker::new(&c);
        w2.shuffle(NodeId(0), NodeId(0), GB);
        assert_eq!(w2.finish().bytes_shuffled, 0);
    }

    #[test]
    fn scaled_bytes_never_truncates_a_touched_chunk_to_free() {
        // The bug this pins: `(1000 as f64 * 0.0004) as u64` == 0, so a
        // scanned chunk was modeled as costing nothing.
        assert_eq!(scaled_bytes(1_000, 0.0004), 1);
        assert_eq!(scaled_bytes(10, 0.15), 2, "rounds up, not to nearest");
        assert_eq!(scaled_bytes(1_000_000, 1.0), 1_000_000, "exact at unity");
        assert_eq!(scaled_bytes(1_000, 0.5), 500);
        assert_eq!(scaled_bytes(0, 0.5), 0, "empty inputs stay free");
        assert_eq!(scaled_bytes(7, 0.0), 1, "touching a chunk is never free");
    }
}
