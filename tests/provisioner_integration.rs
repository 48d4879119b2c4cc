//! Integration tests for the leading-staircase provisioner driving a live
//! simulated cluster, plus cross-checks of the tuning machinery against
//! hand-computed scenarios. The demand trough is `testkit::GrowRetract`
//! under its own `GrowRetract::staircase` config.

use elastic_array_db::elastic::provision::{
    estimate_cost, tune_plan_ahead, ClusterSnapshot, CostModelParams,
};
use elastic_array_db::elastic::{prediction_error, tune_samples};
use elastic_array_db::prelude::*;
use testkit::{assert_books, GrowRetract};

/// A synthetic workload with an exactly linear demand ramp.
struct LinearWorkload {
    cycles: usize,
    gb_per_cycle: f64,
}

impl Workload for LinearWorkload {
    fn name(&self) -> &'static str {
        "linear"
    }
    fn cycles(&self) -> usize {
        self.cycles
    }
    fn register_arrays(&self, catalog: &mut Catalog) {
        let schema = ArraySchema::parse("L<v:double>[t=0:*,1, x=0:31,1]").unwrap();
        catalog.register(StoredArray::from_descriptors(ArrayId(0), schema, []));
    }
    fn insert_batch(&self, cycle: usize) -> Vec<ChunkDescriptor> {
        let per_chunk = (self.gb_per_cycle * 1e9 / 32.0) as u64;
        (0..32)
            .map(|x| {
                ChunkDescriptor::new(
                    ChunkKey::new(ArrayId(0), ChunkCoords::new([cycle as i64, x])),
                    per_chunk,
                    per_chunk / 64,
                )
            })
            .collect()
    }
    fn derived_batch(&self, _cycle: usize) -> Vec<ChunkDescriptor> {
        Vec::new()
    }
    fn grid_hint(&self) -> GridHint {
        GridHint::new(vec![self.cycles as i64, 32]).with_split_priority(vec![1])
    }
    fn quad_plane(&self) -> (usize, usize) {
        (0, 1)
    }
    fn run_suites(&self, _ctx: &ExecutionContext<'_>, _cycle: usize) -> SuiteReport {
        SuiteReport::default()
    }
}

fn staircase_config(p: usize) -> RunnerConfig {
    RunnerConfig {
        initial_nodes: 1,
        scaling: ScalingPolicy::Staircase(StaircaseConfig {
            node_capacity_gb: 10.0,
            samples: 2,
            plan_ahead: p,
            trigger: 1.0,
            shrink_margin: 0.0,
        }),
        ..testkit::config(PartitionerKind::ConsistentHash, 10_000_000_000)
    }
}

#[test]
fn staircase_always_covers_demand() {
    let workload = LinearWorkload { cycles: 12, gb_per_cycle: 4.0 };
    for p in [1usize, 3, 6] {
        let report = WorkloadRunner::new(&workload, staircase_config(p)).run_all().unwrap();
        for c in &report.cycles {
            assert!(
                c.demand_gb <= c.nodes as f64 * 10.0 + 1e-9,
                "p={p} cycle {}: demand {:.1} over capacity ({} nodes)",
                c.cycle,
                c.demand_gb,
                c.nodes
            );
        }
    }
}

#[test]
fn eager_horizons_step_larger_and_less_often() {
    let workload = LinearWorkload { cycles: 12, gb_per_cycle: 4.0 };
    let run = |p: usize| {
        let report = WorkloadRunner::new(&workload, staircase_config(p)).run_all().unwrap();
        let events = report.cycles.iter().filter(|c| c.added_nodes > 0).count();
        let max_step = report.cycles.iter().map(|c| c.added_nodes).max().unwrap();
        (events, max_step)
    };
    let (lazy_events, lazy_step) = run(1);
    let (eager_events, eager_step) = run(6);
    assert!(lazy_events > eager_events, "lazy {lazy_events} vs eager {eager_events}");
    assert!(eager_step > lazy_step, "eager steps {eager_step} vs lazy {lazy_step}");
}

#[test]
fn linear_demand_makes_every_window_exact() {
    // On a perfect ramp, Eq. 3's derivative is exact for every s, so the
    // staircase under any window provisions identically.
    let history: Vec<f64> = (1..=20).map(|i| 4.0 * i as f64).collect();
    for s in 1..=4 {
        assert!(prediction_error(&history, s).unwrap() < 1e-9);
    }
    let report = tune_samples(&history, 4);
    assert!(report.errors.iter().all(|e| *e < 1e-9));
}

#[test]
fn cost_model_penalizes_gross_overprovisioning() {
    let snap =
        ClusterSnapshot { nodes: 2, load_gb: 19.0, insert_rate_gb: 4.0, last_query_secs: 60.0 };
    let params =
        CostModelParams { node_capacity_gb: 10.0, cost: CostModel::default(), horizon: 10 };
    let report = tune_plan_ahead(&[1, 20], &snap, &params);
    let lazy = &report.estimates[0];
    let absurd = &report.estimates[1];
    assert!(
        absurd.node_hours > lazy.node_hours,
        "p=20 ({:.1} nh) must cost more than p=1 ({:.1} nh)",
        absurd.node_hours,
        lazy.node_hours
    );
    assert_eq!(report.best, 1);
}

#[test]
fn estimates_scale_with_the_horizon() {
    let snap =
        ClusterSnapshot { nodes: 2, load_gb: 19.0, insert_rate_gb: 4.0, last_query_secs: 60.0 };
    let mk = |m: usize| CostModelParams {
        node_capacity_gb: 10.0,
        cost: CostModel::default(),
        horizon: m,
    };
    let short = estimate_cost(2, &snap, &mk(4)).node_hours;
    let long = estimate_cost(2, &snap, &mk(12)).node_hours;
    assert!(long > short * 2.0, "horizon must accumulate cost: {short} vs {long}");
}

/// Acceptance pin for two-sided elasticity: a demand-trough run ends
/// with strictly fewer nodes than its peak, keeps demand covered every
/// cycle of the descent, and the drain-out rebalances well enough that
/// the end-state `balance_rsd()` stays inside the balance band the
/// fault-free run itself maintained while growing.
#[test]
fn demand_trough_releases_nodes_and_stays_balanced() {
    // Every grown cycle but cycle 0 is retracted, so the shrunken cluster
    // still holds (and balances) data.
    let w = GrowRetract {
        array: ArrayId(7),
        cycles: 5,
        grow: 3,
        cells: 2048,
        first_doomed: 1,
        value: |x| x as f64,
    };
    for kind in [PartitionerKind::ConsistentHash, PartitionerKind::RoundRobin] {
        let mut runner = WorkloadRunner::new(&w, GrowRetract::staircase(kind));
        let report = runner.run_all().unwrap();

        // Strictly fewer nodes than the peak, via real scale-IN steps.
        let peak = report.cycles.iter().map(|c| c.nodes).max().unwrap();
        let end = report.cycles.last().unwrap().nodes;
        let removed: usize = report.cycles.iter().map(|c| c.removed_nodes).sum();
        assert!(peak > 2, "{kind}: the cluster never grew (peak {peak})");
        assert!(end < peak, "{kind}: must end below the {peak}-node peak, got {end}");
        assert_eq!(removed, peak - end, "{kind}: releases must account for the descent");
        assert_eq!(runner.cluster().active_node_count(), end, "{kind}: roster census");

        // Demand stays covered on the way down, shrink steps included.
        for c in &report.cycles {
            assert!(
                c.demand_gb <= c.nodes as f64 * 16_384.0 / 1e9 + 1e-12,
                "{kind} cycle {}: demand {} uncovered by {} nodes",
                c.cycle,
                c.demand_gb,
                c.nodes
            );
        }

        // The survivors were drained onto the remaining roster no worse
        // than the growth phase ever balanced its own inserts.
        let band = report.cycles.iter().map(|c| c.rsd_after_insert).fold(0.0f64, f64::max);
        let rsd = runner.cluster().balance_rsd();
        assert!(
            rsd <= band + 1e-12,
            "{kind}: post-shrink balance {rsd} outside the fault-free band {band}"
        );
        // And the surviving cells are all still there.
        assert!(runner.cluster().total_chunks() > 0, "{kind}: survivors evicted");
        let live = assert_books(&runner, w.array);
        assert_eq!(live, w.cells as u64, "{kind}: cycle-0 survivors lost in the descent");
    }
}

/// A trough that retracts every cell it inserted drains the cluster down
/// to the one-node floor, with every drained byte priced as
/// reorganization.
#[test]
fn demand_trough_shrinks_the_cluster() {
    let w = GrowRetract {
        array: ArrayId(3),
        cycles: 6,
        grow: 3,
        cells: 2048,
        first_doomed: 0,
        value: |x| x as f64,
    };
    let mut runner = WorkloadRunner::new(&w, GrowRetract::staircase(PartitionerKind::RoundRobin));
    let report = runner.run_all().expect("trough run completes");
    let peak = report.cycles.iter().map(|c| c.nodes).max().unwrap();
    let last = report.cycles.last().unwrap();
    assert!(peak > 2, "cluster must grow first (peak {peak})");
    assert!(last.nodes < peak, "must end below the {peak}-node peak, got {}", last.nodes);
    assert_eq!(last.nodes, 1, "an emptied store releases down to the one-node floor");
    let removed: usize = report.cycles.iter().map(|c| c.removed_nodes).sum();
    assert_eq!(removed, peak - 1, "every step above the floor was released");
    let retracted: u64 = report.cycles.iter().map(|c| c.retracted_cells).sum();
    assert_eq!(retracted, 3 * 2048, "every inserted cell was retracted");
    let evicted: usize = report.cycles.iter().map(|c| c.evicted_chunks).sum();
    assert_eq!(evicted, 96, "3 retracted cycles x 32 chunks each (64-cell chunks)");
    // The books drain to zero and stay balanced: retired slots keep
    // zero load, the placement holds no chunks, and the census is
    // empty rather than under-replicated.
    let cluster = runner.cluster();
    assert_eq!(cluster.total_used(), 0);
    assert_eq!(cluster.total_chunks(), 0);
    assert_eq!(cluster.active_node_count(), 1);
    assert_eq!(cluster.node_count() - cluster.active_node_count(), removed);
    assert_eq!(cluster.balance_rsd(), 0.0);
    // Drained bytes are accounted as reorg movement and time.
    assert!(report.cycles.iter().any(|c| c.removed_nodes > 0 && c.moved_bytes > 0));
    assert!(report.phase_totals().reorg_secs > 0.0);
}

#[test]
fn provisioner_history_feeds_tuning_mid_run() {
    // Run half the workload, tune s from the controller's own history,
    // then confirm the tuner returns a usable window.
    let workload = LinearWorkload { cycles: 12, gb_per_cycle: 4.0 };
    let mut runner = WorkloadRunner::new(&workload, staircase_config(2));
    for c in 0..6 {
        runner.run_cycle(c).unwrap();
    }
    let history = runner.provisioner().unwrap().history().to_vec();
    assert_eq!(history.len(), 6);
    let report = tune_samples(&history, 4);
    assert!(report.best >= 1 && report.best <= 4);
}
