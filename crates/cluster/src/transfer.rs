//! Byte-flow contention solver.
//!
//! Inserts, rebalances, and query shuffles all reduce to a set of
//! point-to-point byte flows. [`FlowSet::elapsed_secs`] converts the set
//! into simulated wall-clock time under three constraints:
//!
//! 1. each endpoint is half-duplex: it is busy for its egress time plus
//!    its ingress time;
//! 2. ingress must also be written to disk (the slower of net/disk wins);
//! 3. the switch fabric carries a bounded aggregate rate, so total moved
//!    bytes impose a floor.
//!
//! The elapsed time is the largest of the per-endpoint busy times and the
//! fabric floor, plus a small per-chunk scheduling overhead amortized over
//! the destinations working in parallel.

use crate::cost::{gb, CostModel};
use crate::node::NodeId;

/// One directed transfer of `bytes` from `src` to `dst`.
///
/// `src == dst` models a purely local write (e.g. the coordinator keeping
/// its own share of an insert): it costs disk time only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flow {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Payload size in bytes.
    pub bytes: u64,
}

/// A batch of flows that execute concurrently.
#[derive(Debug, Clone, Default)]
pub struct FlowSet {
    flows: Vec<Flow>,
    chunk_count: u64,
}

impl FlowSet {
    /// An empty flow set.
    pub fn new() -> Self {
        FlowSet::default()
    }

    /// Add one chunk-sized flow.
    pub fn push(&mut self, src: NodeId, dst: NodeId, bytes: u64) {
        self.flows.push(Flow { src, dst, bytes });
        self.chunk_count = self.chunk_count.saturating_add(1);
    }

    /// Number of chunk transfers recorded.
    pub fn chunk_count(&self) -> u64 {
        self.chunk_count
    }

    /// Fold every flow of `other` into this set — drain moves and the
    /// replica repairs that follow them cost out as one concurrent batch.
    pub fn merge(&mut self, other: &FlowSet) {
        self.flows.extend_from_slice(&other.flows);
        self.chunk_count = self.chunk_count.saturating_add(other.chunk_count);
    }

    /// Total payload bytes (local and remote). Saturating: a pathological
    /// fault schedule that piles up near-`u64::MAX` flows must clamp at
    /// the ceiling, not wrap into a bogus short repair time.
    pub fn total_bytes(&self) -> u64 {
        self.flows.iter().fold(0u64, |acc, f| acc.saturating_add(f.bytes))
    }

    /// Bytes that actually cross the network (saturating, see
    /// [`FlowSet::total_bytes`]).
    pub fn network_bytes(&self) -> u64 {
        self.flows
            .iter()
            .filter(|f| f.src != f.dst)
            .fold(0u64, |acc, f| acc.saturating_add(f.bytes))
    }

    /// True when nothing moves.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// Naive serial estimate: every byte moves one after another at the
    /// network rate (local bytes at the disk rate). This is what a model
    /// *without* endpoint parallelism would predict; the ablation bench
    /// compares it against the contention solver to show why Round
    /// Robin's wide reshuffles still finish in bounded time (the paper's
    /// remark that its "circular addressing parallelizes the transfer").
    pub fn elapsed_secs_serial(&self, cost: &CostModel) -> f64 {
        let mut secs = 0.0;
        for f in &self.flows {
            secs += if f.src == f.dst {
                cost.local_write_secs(f.bytes)
            } else {
                cost.egress_secs(f.bytes)
            };
        }
        secs + cost.per_chunk_overhead_secs * self.chunk_count as f64
    }

    /// Simulated elapsed seconds for the whole batch.
    ///
    /// The per-endpoint tallies live in one vector indexed by roster slot
    /// (node ids are dense join-order indices, so it is as long as the
    /// roster): one pass over the flows fills them, one pass over the
    /// slots, ascending, folds the endpoints' busy times.
    pub fn elapsed_secs(&self, cost: &CostModel) -> f64 {
        let Some(last) = self.flows.iter().map(|f| f.src.slot().max(f.dst.slot())).max() else {
            return 0.0;
        };
        let mut tallies = vec![Endpoint::default(); last + 1];
        let mut destinations = 0usize;
        for f in &self.flows {
            let dst = &mut tallies[f.dst.slot()];
            destinations += usize::from(!dst.destination);
            dst.destination = true;
            dst.endpoint = true;
            if f.src == f.dst {
                dst.local = dst.local.saturating_add(f.bytes);
            } else {
                dst.ingress = dst.ingress.saturating_add(f.bytes);
                let src = &mut tallies[f.src.slot()];
                src.endpoint = true;
                src.egress = src.egress.saturating_add(f.bytes);
            }
        }

        let mut busiest: f64 = 0.0;
        for t in tallies.iter().filter(|t| t.endpoint) {
            let busy = cost.egress_secs(t.egress)
                + cost.remote_ingest_secs(t.ingress)
                + cost.local_write_secs(t.local);
            busiest = busiest.max(busy);
        }

        let fabric = gb(self.network_bytes()) * cost.fabric_secs_per_gb;
        let overhead =
            cost.per_chunk_overhead_secs * self.chunk_count as f64 / destinations.max(1) as f64;
        busiest.max(fabric) + overhead
    }
}

/// One node's share of a [`FlowSet`]: byte tallies (saturating, see
/// [`FlowSet::total_bytes`]) and what it is to the batch.
#[derive(Debug, Clone, Copy, Default)]
struct Endpoint {
    /// Bytes it sends to other nodes.
    egress: u64,
    /// Bytes other nodes send it.
    ingress: u64,
    /// Bytes it writes to itself.
    local: u64,
    /// Whether any flow starts or ends here.
    endpoint: bool,
    /// Whether any flow ends here.
    destination: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CostModel {
        CostModel {
            disk_secs_per_gb: 8.0,
            net_secs_per_gb: 12.0,
            fabric_secs_per_gb: 12.0 / 2.5,
            per_chunk_overhead_secs: 0.0,
            cpu_secs_per_gb: 0.0,
            net_latency_secs: 0.0,
        }
    }

    const GB: u64 = 1_000_000_000;

    #[test]
    fn empty_set_costs_nothing() {
        assert_eq!(FlowSet::new().elapsed_secs(&model()), 0.0);
    }

    #[test]
    fn local_write_is_disk_only() {
        let mut fs = FlowSet::new();
        fs.push(NodeId(0), NodeId(0), GB);
        assert!((fs.elapsed_secs(&model()) - 8.0).abs() < 1e-9);
        assert_eq!(fs.network_bytes(), 0);
    }

    #[test]
    fn single_remote_flow_pays_network_rate() {
        let mut fs = FlowSet::new();
        fs.push(NodeId(0), NodeId(1), GB);
        // src busy 12s; dst busy max(12,8)=12s; fabric 4.8s -> 12s.
        assert!((fs.elapsed_secs(&model()) - 12.0).abs() < 1e-9);
    }

    #[test]
    fn half_duplex_sums_in_and_out() {
        // Node 1 both sheds and receives 1 GB: its busy time is 12 + 12.
        let mut fs = FlowSet::new();
        fs.push(NodeId(1), NodeId(2), GB);
        fs.push(NodeId(0), NodeId(1), GB);
        assert!((fs.elapsed_secs(&model()) - 24.0).abs() < 1e-9);
    }

    #[test]
    fn fabric_floor_binds_wide_reshuffles() {
        // 8 disjoint pairs moving 1 GB each: every endpoint is busy only
        // 12 s, but 8 GB cross the fabric at 4.8 s/GB = 38.4 s.
        let mut fs = FlowSet::new();
        for i in 0..8u32 {
            fs.push(NodeId(i), NodeId(100 + i), GB);
        }
        assert!((fs.elapsed_secs(&model()) - 38.4).abs() < 1e-9);
    }

    #[test]
    fn parallel_fanout_beats_serial_fanin() {
        // One source feeding two sinks is bounded by source egress;
        // two sources feeding one sink is bounded by sink ingest.
        let m = model();
        let mut fanout = FlowSet::new();
        fanout.push(NodeId(0), NodeId(1), GB);
        fanout.push(NodeId(0), NodeId(2), GB);
        let mut fanin = FlowSet::new();
        fanin.push(NodeId(1), NodeId(0), GB);
        fanin.push(NodeId(2), NodeId(0), GB);
        assert!((fanout.elapsed_secs(&m) - 24.0).abs() < 1e-9);
        assert!((fanin.elapsed_secs(&m) - 24.0).abs() < 1e-9);
        // but splitting across distinct pairs is genuinely parallel
        let mut pairs = FlowSet::new();
        pairs.push(NodeId(0), NodeId(1), GB);
        pairs.push(NodeId(2), NodeId(3), GB);
        assert!(pairs.elapsed_secs(&m) < 24.0);
    }

    #[test]
    fn serial_estimate_upper_bounds_the_solver() {
        let m = model();
        let mut fs = FlowSet::new();
        for i in 0..6u32 {
            fs.push(NodeId(i), NodeId(10 + i), GB);
        }
        assert!(fs.elapsed_secs_serial(&m) > fs.elapsed_secs(&m));
        // Serial = 6 GB * 12 s/GB.
        assert!((fs.elapsed_secs_serial(&m) - 72.0).abs() < 1e-9);
    }

    #[test]
    fn empty_set_reports_empty_everywhere() {
        let fs = FlowSet::new();
        assert!(fs.is_empty());
        assert_eq!(fs.chunk_count(), 0);
        assert_eq!(fs.total_bytes(), 0);
        assert_eq!(fs.network_bytes(), 0);
        assert_eq!(fs.elapsed_secs(&model()), 0.0);
        // The serial estimate agrees: nothing moves, nothing costs.
        assert_eq!(fs.elapsed_secs_serial(&model()), 0.0);
    }

    #[test]
    fn all_local_flows_are_disk_parallel_across_nodes() {
        // Four nodes each writing 1 GB locally: disks spin in parallel, so
        // the batch takes one node's disk time (8 s), not four (32 s) —
        // and nothing touches the network or the fabric floor.
        let m = model();
        let mut fs = FlowSet::new();
        for i in 0..4u32 {
            fs.push(NodeId(i), NodeId(i), GB);
        }
        assert_eq!(fs.network_bytes(), 0);
        assert!((fs.elapsed_secs(&m) - 8.0).abs() < 1e-9);
        // Same node writing all four: the disk serializes them.
        let mut stacked = FlowSet::new();
        for _ in 0..4 {
            stacked.push(NodeId(0), NodeId(0), GB);
        }
        assert!((stacked.elapsed_secs(&m) - 32.0).abs() < 1e-9);
    }

    #[test]
    fn saturated_endpoint_beats_fabric_floor_until_width_flips_it() {
        let m = model();
        // One source fanning 4 GB out to four sinks: egress binds at
        // 4 x 12 = 48 s, far above the fabric floor of 4 x 4.8 = 19.2 s.
        let mut fanout = FlowSet::new();
        for i in 1..=4u32 {
            fanout.push(NodeId(0), NodeId(i), GB);
        }
        assert!((fanout.elapsed_secs(&m) - 48.0).abs() < 1e-9);
        // The same 4 GB split across disjoint pairs: every endpoint is
        // busy only 12 s, so the fabric floor (19.2 s) takes over as the
        // binding constraint of the three-way max.
        let mut wide = FlowSet::new();
        for i in 0..4u32 {
            wide.push(NodeId(i), NodeId(10 + i), GB);
        }
        assert!((wide.elapsed_secs(&m) - 19.2).abs() < 1e-9);
    }

    #[test]
    fn byte_tallies_saturate_instead_of_wrapping() {
        // Two flows whose byte sum exceeds u64::MAX: every accumulation
        // path (totals, per-endpoint tallies) must clamp at the ceiling.
        // A wrapping sum would report a tiny byte count and therefore a
        // bogus *short* elapsed time; saturation keeps the estimate a
        // monotone upper envelope.
        let m = model();
        let mut fs = FlowSet::new();
        fs.push(NodeId(0), NodeId(1), u64::MAX - 5);
        fs.push(NodeId(0), NodeId(1), 100);
        assert_eq!(fs.total_bytes(), u64::MAX);
        assert_eq!(fs.network_bytes(), u64::MAX);
        let one = {
            let mut one = FlowSet::new();
            one.push(NodeId(0), NodeId(1), u64::MAX - 5);
            one.elapsed_secs(&m)
        };
        // The saturated pair can never finish sooner than its larger flow
        // alone — the signature a wrap-around would violate.
        assert!(fs.elapsed_secs(&m) >= one);

        // Local-write and ingress tallies saturate too.
        let mut loc = FlowSet::new();
        loc.push(NodeId(3), NodeId(3), u64::MAX - 1);
        loc.push(NodeId(3), NodeId(3), 64);
        assert_eq!(loc.total_bytes(), u64::MAX);
        assert_eq!(loc.network_bytes(), 0);
        let solo = {
            let mut solo = FlowSet::new();
            solo.push(NodeId(3), NodeId(3), u64::MAX - 1);
            solo.elapsed_secs(&m)
        };
        assert!(loc.elapsed_secs(&m) >= solo);
    }

    #[test]
    fn chunk_count_saturates_at_u64_max() {
        let mut fs = FlowSet::new();
        fs.chunk_count = u64::MAX - 1;
        fs.push(NodeId(0), NodeId(1), 1);
        fs.push(NodeId(0), NodeId(1), 1);
        assert_eq!(fs.chunk_count(), u64::MAX);
    }

    #[test]
    fn overhead_amortizes_over_destinations() {
        let mut m = model();
        m.per_chunk_overhead_secs = 1.0;
        let mut fs = FlowSet::new();
        fs.push(NodeId(0), NodeId(1), 0);
        fs.push(NodeId(0), NodeId(2), 0);
        fs.push(NodeId(0), NodeId(2), 0);
        fs.push(NodeId(0), NodeId(1), 0);
        // 4 chunks over 2 destinations -> 2 s of overhead.
        assert!((fs.elapsed_secs(&m) - 2.0).abs() < 1e-9);
    }

    /// The solver as it was: four ordered maps of per-endpoint tallies,
    /// the endpoints walked ascending.
    fn elapsed_by_maps(fs: &FlowSet, cost: &CostModel) -> f64 {
        use std::collections::BTreeMap;
        if fs.flows.is_empty() {
            return 0.0;
        }
        let mut egress: BTreeMap<NodeId, u64> = BTreeMap::new();
        let mut ingress: BTreeMap<NodeId, u64> = BTreeMap::new();
        let mut local: BTreeMap<NodeId, u64> = BTreeMap::new();
        let mut destinations: BTreeMap<NodeId, ()> = BTreeMap::new();
        for f in &fs.flows {
            destinations.insert(f.dst, ());
            let add = |map: &mut BTreeMap<NodeId, u64>, node| {
                let e = map.entry(node).or_default();
                *e = e.saturating_add(f.bytes);
            };
            if f.src == f.dst {
                add(&mut local, f.src);
            } else {
                add(&mut egress, f.src);
                add(&mut ingress, f.dst);
            }
        }
        let mut endpoints: Vec<NodeId> =
            egress.keys().chain(ingress.keys()).chain(local.keys()).copied().collect();
        endpoints.sort_unstable();
        endpoints.dedup();
        let mut busiest: f64 = 0.0;
        for ep in endpoints {
            let get = |map: &BTreeMap<NodeId, u64>| map.get(&ep).copied().unwrap_or(0);
            let busy = cost.egress_secs(get(&egress))
                + cost.remote_ingest_secs(get(&ingress))
                + cost.local_write_secs(get(&local));
            busiest = busiest.max(busy);
        }
        let fabric = gb(fs.network_bytes()) * cost.fabric_secs_per_gb;
        let overhead =
            cost.per_chunk_overhead_secs * fs.chunk_count as f64 / destinations.len().max(1) as f64;
        busiest.max(fabric) + overhead
    }

    /// One draw: flows among sparse node ids, self-flows, zero and
    /// saturating byte counts, under cost models that weigh the network,
    /// the disk, the fabric and the per-chunk overhead differently — the
    /// vector tallies give the maps' answer, to the bit.
    fn check_tallies(seed: u64) {
        let mut state = seed;
        let mut next = |below: u64| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % below
        };
        let nodes = [0, 1, 2, 3, 9, 63, 200].map(NodeId);
        let bytes = [0, 1, 4_096, GB, 3 * GB + 7, u64::MAX / 3, u64::MAX];
        let mut fs = FlowSet::new();
        for _ in 0..next(40) {
            let src = nodes[next(7) as usize];
            // One flow in four is a local write.
            let dst = if next(4) == 0 { src } else { nodes[next(7) as usize] };
            fs.push(src, dst, bytes[next(7) as usize]);
        }
        let mut cost = model();
        cost.per_chunk_overhead_secs = [0.0, 0.25, 3.0][next(3) as usize];
        cost.net_secs_per_gb = [12.0, 2.0, 0.1][next(3) as usize];
        cost.disk_secs_per_gb = [8.0, 30.0][next(2) as usize];
        let (got, want) = (fs.elapsed_secs(&cost), elapsed_by_maps(&fs, &cost));
        assert_eq!(got.to_bits(), want.to_bits(), "{got} vs {want}: {:?}", fs.flows);
    }

    #[test]
    fn vector_tallies_solve_like_the_maps() {
        (0..5_000).for_each(check_tallies);
    }

    #[test]
    #[ignore = "release-scale leg: cargo test --release -p cluster-sim --lib -- --ignored bookkeeping_smoke"]
    fn flow_tallies_bookkeeping_smoke() {
        (0..1_000_000).for_each(check_tallies);
    }
}
