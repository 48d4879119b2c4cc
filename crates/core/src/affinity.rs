//! Workload-aware chunk affinity (the paper's future work, §8):
//! "more tightly integrate workloads with data placement … and the
//! individual chunks that stand to benefit most directly from residing on
//! the same server."
//!
//! The analyzer consumes *co-access observations* — every time a query
//! needs two chunks together (a halo exchange, a join pair, a rolling
//! window's predecessor fetch), the executor reports the pair and the
//! bytes involved. Pairs that repeatedly straddle two nodes are candidates
//! for co-location: [`AffinityAnalyzer::propose_moves`] greedily relocates
//! the cheaper side of the hottest cross-node pairs, subject to a node
//! over-load cap, and [`AffinityAnalyzer::estimated_savings`] prices the
//! network time the workload would stop paying every cycle.

use array_model::ChunkKey;
use cluster_sim::{gb, Cluster, CostModel, NodeId, RebalancePlan, Resident};
use std::collections::BTreeMap;

/// Accumulated statistics for one (unordered) chunk pair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairStats {
    /// How many times the pair was co-accessed.
    pub count: u64,
    /// Total bytes shipped between the pair's hosts for those accesses.
    pub bytes: u64,
}

/// A co-access candidate, ranked by what co-location would save.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AffinityEdge {
    /// First chunk (the smaller key; pairs are unordered).
    pub a: ChunkKey,
    /// Second chunk.
    pub b: ChunkKey,
    /// Accumulated statistics.
    pub stats: PairStats,
}

/// Collects co-access observations and turns them into placement advice.
#[derive(Debug, Clone, Default)]
pub struct AffinityAnalyzer {
    edges: BTreeMap<(ChunkKey, ChunkKey), PairStats>,
}

impl AffinityAnalyzer {
    /// An empty analyzer.
    pub fn new() -> Self {
        AffinityAnalyzer::default()
    }

    /// Record one co-access of `a` and `b` that shipped `bytes` between
    /// their hosts. Order does not matter; self-pairs are ignored.
    /// Allocation-free apart from map growth: keys are `Copy`.
    pub fn observe(&mut self, a: &ChunkKey, b: &ChunkKey, bytes: u64) {
        if a == b {
            return;
        }
        let key = if a <= b { (*a, *b) } else { (*b, *a) };
        let entry = self.edges.entry(key).or_default();
        entry.count += 1;
        entry.bytes += bytes;
    }

    /// Number of distinct pairs observed.
    pub fn pair_count(&self) -> usize {
        self.edges.len()
    }

    /// The `limit` hottest pairs by shipped bytes (ties by count).
    pub fn hottest_pairs(&self, limit: usize) -> Vec<AffinityEdge> {
        let mut edges: Vec<AffinityEdge> = self
            .edges
            .iter()
            .map(|(&(a, b), stats)| AffinityEdge { a, b, stats: *stats })
            .collect();
        edges.sort_by(|x, y| {
            y.stats
                .bytes
                .cmp(&x.stats.bytes)
                .then(y.stats.count.cmp(&x.stats.count))
                .then(x.a.cmp(&y.a))
        });
        edges.truncate(limit);
        edges
    }

    /// Greedy co-location: walk the hottest cross-node pairs and move the
    /// smaller chunk next to its partner, as long as the destination stays
    /// under `max_load_factor × (cluster mean load)`. Returns at most
    /// `max_moves` moves. The plan is advice — callers apply it with
    /// [`Cluster::apply_rebalance`] like any other plan.
    pub fn propose_moves(
        &self,
        cluster: &Cluster,
        max_load_factor: f64,
        max_moves: usize,
    ) -> RebalancePlan {
        assert!(max_load_factor >= 1.0, "cap below the mean forbids every move");
        let mean_load = cluster.total_used() as f64 / cluster.node_count().max(1) as f64;
        let cap = (mean_load * max_load_factor) as u64;

        // Working copies so successive moves see each other's effects.
        let mut loads: BTreeMap<NodeId, u64> =
            cluster.nodes().map(|n| (n.id, n.used_bytes())).collect();
        let mut location: BTreeMap<&ChunkKey, NodeId> = BTreeMap::new();
        let mut sizes: BTreeMap<&ChunkKey, u64> = BTreeMap::new();
        for desc in cluster.residents().map(Resident::descriptor) {
            if let Some(node) = cluster.locate(&desc.key) {
                location.insert(&desc.key, node);
                sizes.insert(&desc.key, desc.bytes);
            }
        }

        let mut plan = RebalancePlan::empty();
        let mut moved: BTreeMap<ChunkKey, NodeId> = BTreeMap::new();
        for edge in self.hottest_pairs(usize::MAX) {
            if plan.len() >= max_moves {
                break;
            }
            let loc = |k: &ChunkKey| moved.get(k).copied().or_else(|| location.get(k).copied());
            let (Some(na), Some(nb)) = (loc(&edge.a), loc(&edge.b)) else {
                continue; // pair references chunks not (yet) resident
            };
            if na == nb {
                continue; // already co-located
            }
            // Move the smaller chunk toward the bigger one's host.
            let (sa, sb) = (
                sizes.get(&edge.a).copied().unwrap_or(0),
                sizes.get(&edge.b).copied().unwrap_or(0),
            );
            let (key, from, to, bytes) =
                if sa <= sb { (edge.a, na, nb, sa) } else { (edge.b, nb, na, sb) };
            if moved.contains_key(&key) {
                continue; // each chunk moves at most once per proposal
            }
            let dst_load = loads.get(&to).copied().unwrap_or(0);
            if dst_load + bytes > cap {
                continue; // would overload the destination
            }
            *loads.entry(from).or_default() -= bytes;
            *loads.entry(to).or_default() += bytes;
            moved.insert(key, to);
            plan.push(key, from, to, bytes);
        }
        plan
    }

    /// Network seconds per workload cycle the plan saves: for every pair
    /// that becomes co-located, its observed shipped bytes (and per-access
    /// latency) stop crossing the wire.
    pub fn estimated_savings(
        &self,
        cluster: &Cluster,
        plan: &RebalancePlan,
        cost: &CostModel,
    ) -> f64 {
        // Final locations after the plan.
        let mut location: BTreeMap<ChunkKey, NodeId> = cluster.placements().collect();
        for m in &plan.moves {
            location.insert(m.key, m.to);
        }
        let mut saved = 0.0;
        for ((a, b), stats) in &self.edges {
            let (Some(na), Some(nb)) = (location.get(a), location.get(b)) else {
                continue;
            };
            let was_split = cluster.locate(a) != cluster.locate(b);
            if was_split && na == nb {
                saved += gb(stats.bytes) * cost.net_secs_per_gb
                    + stats.count as f64 * cost.net_latency_secs;
            }
        }
        saved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use array_model::{ArrayId, ChunkCoords, ChunkDescriptor};
    use cluster_sim::CostModel;

    fn key(i: i64) -> ChunkKey {
        ChunkKey::new(ArrayId(0), ChunkCoords::new([i]))
    }

    fn cluster_with(pairs: &[(i64, u64, u32)]) -> Cluster {
        let mut cluster = Cluster::new(4, u64::MAX, CostModel::default()).unwrap();
        for &(i, bytes, node) in pairs {
            cluster.place(ChunkDescriptor::new(key(i), bytes, 1), NodeId(node)).unwrap();
        }
        cluster
    }

    #[test]
    fn observations_accumulate_unordered() {
        let mut az = AffinityAnalyzer::new();
        az.observe(&key(1), &key(2), 100);
        az.observe(&key(2), &key(1), 50);
        az.observe(&key(1), &key(1), 999); // self-pair ignored
        assert_eq!(az.pair_count(), 1);
        let top = az.hottest_pairs(10);
        assert_eq!(top[0].stats.count, 2);
        assert_eq!(top[0].stats.bytes, 150);
    }

    #[test]
    fn hottest_pairs_rank_by_bytes() {
        let mut az = AffinityAnalyzer::new();
        az.observe(&key(1), &key(2), 10);
        az.observe(&key(3), &key(4), 1000);
        az.observe(&key(5), &key(6), 100);
        let top = az.hottest_pairs(2);
        assert_eq!(top[0].a, key(3));
        assert_eq!(top[1].a, key(5));
    }

    #[test]
    fn proposal_colocates_the_hot_pair() {
        // Chunks 1 (node 0) and 2 (node 1) are co-accessed constantly;
        // chunk 2 is smaller, so it should move to node 0.
        let cluster = cluster_with(&[(1, 1000, 0), (2, 10, 1), (3, 500, 2)]);
        let mut az = AffinityAnalyzer::new();
        for _ in 0..5 {
            az.observe(&key(1), &key(2), 200);
        }
        let plan = az.propose_moves(&cluster, 10.0, 8);
        assert_eq!(plan.len(), 1);
        assert_eq!(plan.moves[0].key, key(2));
        assert_eq!(plan.moves[0].from, NodeId(1));
        assert_eq!(plan.moves[0].to, NodeId(0));
    }

    #[test]
    fn load_cap_blocks_overloading_moves() {
        // Destination already holds nearly everything: the cap forbids
        // piling more onto it.
        let cluster = cluster_with(&[(1, 10_000, 0), (2, 5_000, 1)]);
        let mut az = AffinityAnalyzer::new();
        az.observe(&key(1), &key(2), 1_000);
        // mean load = 3750; cap 1.2x = 4500 < 10_000 + 5_000.
        let plan = az.propose_moves(&cluster, 1.2, 8);
        assert!(plan.is_empty(), "cap must hold: {plan:?}");
        // A looser cap admits the move.
        let plan = az.propose_moves(&cluster, 8.0, 8);
        assert_eq!(plan.len(), 1);
    }

    #[test]
    fn each_chunk_moves_at_most_once() {
        // Chunk 2 is hot with partners on two different nodes; it must not
        // be planned twice.
        let cluster = cluster_with(&[(1, 1000, 0), (2, 10, 1), (3, 1000, 2)]);
        let mut az = AffinityAnalyzer::new();
        az.observe(&key(1), &key(2), 500);
        az.observe(&key(3), &key(2), 400);
        let plan = az.propose_moves(&cluster, 10.0, 8);
        let moves_of_2 = plan.moves.iter().filter(|m| m.key == key(2)).count();
        assert_eq!(moves_of_2, 1);
    }

    #[test]
    fn savings_price_the_healed_pairs() {
        let cluster = cluster_with(&[(1, 1000, 0), (2, 10, 1)]);
        let mut az = AffinityAnalyzer::new();
        az.observe(&key(1), &key(2), 1_000_000_000); // 1 GB shipped
        let plan = az.propose_moves(&cluster, 10.0, 8);
        let cost = CostModel::default();
        let saved = az.estimated_savings(&cluster, &plan, &cost);
        // 1 GB * 12 s/GB + 1 access * latency.
        assert!((saved - (12.0 + cost.net_latency_secs)).abs() < 1e-9, "saved {saved}");
        // No plan, no savings.
        assert_eq!(az.estimated_savings(&cluster, &RebalancePlan::empty(), &cost), 0.0);
    }

    #[test]
    fn max_moves_bounds_the_plan() {
        let cluster = cluster_with(&[
            (1, 100, 0),
            (2, 10, 1),
            (3, 100, 2),
            (4, 10, 3),
            (5, 100, 0),
            (6, 10, 1),
        ]);
        let mut az = AffinityAnalyzer::new();
        az.observe(&key(1), &key(2), 300);
        az.observe(&key(3), &key(4), 200);
        az.observe(&key(5), &key(6), 100);
        let plan = az.propose_moves(&cluster, 10.0, 2);
        assert_eq!(plan.len(), 2);
    }
}
