//! The MODIS remote-sensing pipeline end to end (paper §3.1, §6.3):
//! fourteen daily cycles of satellite imagery ingested into an elastic
//! cluster governed by the leading-staircase provisioner, with the full
//! benchmark suites running every cycle. Then the same feed with its
//! cells — 20 000 pixels a day, each day expiring after three — and two
//! incremental views kept over it: a vegetation-index join of the two
//! bands and band 1's daily mean radiance. Each cycle prints the views'
//! counted upkeep: the work follows the day's delta, while the recompute
//! estimate follows the state.
//!
//! ```text
//! cargo run --release --example modis_pipeline
//! ```

use elastic_array_db::prelude::*;
use elastic_array_db::query::view::{
    AggKind, EmitFn, GroupKeyFn, JoinKeyFn, KeyScalar, PredFn, RowOp, ValueFn, ViewDef, ViewWork,
};
use elastic_array_db::workloads::modis::{BAND1, BAND2};
use std::sync::Arc;

fn main() {
    let workload = ModisWorkload::default();
    let mut config = RunnerConfig::paper_section62(PartitionerKind::ConsistentHash);
    config.initial_nodes = 1;
    config.scaling = ScalingPolicy::Staircase(StaircaseConfig {
        node_capacity_gb: 100.0,
        samples: 4,
        plan_ahead: 3,
        trigger: 1.0,
        shrink_margin: 0.0,
    });

    println!(
        "MODIS pipeline: {} daily cycles, staircase provisioner (s=4, p=3)\n",
        workload.cycles()
    );
    println!(
        "{:>5} {:>7} {:>9} {:>10} {:>9} {:>9} {:>9} {:>7}",
        "cycle", "nodes", "demand", "insert", "reorg", "queries", "balance", "moved"
    );
    println!(
        "{:>5} {:>7} {:>9} {:>10} {:>9} {:>9} {:>9} {:>7}",
        "", "", "(GB)", "(min)", "(min)", "(min)", "(RSD)", "(GB)"
    );

    let mut runner = WorkloadRunner::new(&workload, config);
    let mut total_node_hours = 0.0;
    for cycle in 0..workload.cycles() {
        let report = runner.run_cycle(cycle).expect("MODIS batches are collision-free");
        total_node_hours += report.nodes as f64 * report.phases.total_secs() / 3600.0;
        println!(
            "{:>5} {:>5}{} {:>9.0} {:>10.1} {:>9.1} {:>9.1} {:>8.0}% {:>7.0}",
            cycle + 1,
            report.nodes,
            if report.added_nodes > 0 { "+" } else { " " },
            report.demand_gb,
            report.phases.insert_secs / 60.0,
            report.phases.reorg_secs / 60.0,
            report.phases.query_secs / 60.0,
            report.rsd_after_insert * 100.0,
            report.moved_bytes as f64 / 1e9,
        );
    }

    println!("\ntotal provisioning cost (Eq. 1): {total_node_hours:.1} node-hours");
    let history = runner.provisioner().expect("staircase is active").history();
    println!(
        "controller demand history: {} observations, final {:.0} GB",
        history.len(),
        history.last().copied().unwrap_or(0.0)
    );

    view_upkeep();
}

/// The vegetation-index join of the two bands over the equatorial belt
/// and band 1's daily mean radiance.
fn views() -> Vec<ViewDef> {
    let num = |v: &ScalarValue| v.as_f64().unwrap_or(0.0);
    let belt: PredFn = Arc::new(|c, _| c[2].abs() <= 10);
    let belt = || vec![RowOp::Filter(belt.clone())];
    let key: JoinKeyFn = Arc::new(|c, _| c.iter().map(|&x| KeyScalar::Int(x)).collect());
    let emit: EmitFn = Arc::new(move |l, r| {
        let (b1, b2) = (num(&l.1[1]), num(&r.1[1]));
        (l.0.clone(), vec![ScalarValue::Double((b2 - b1) / (b2 + b1 + 1e-9))])
    });
    let day: GroupKeyFn = Arc::new(|c, _| vec![c[0].div_euclid(1440)]);
    let radiance: ValueFn = Arc::new(move |_, v| num(&v[1]));
    vec![
        ViewDef::join("ndvi", BAND1, BAND2, belt(), belt(), key.clone(), key, emit),
        ViewDef::aggregate("daily-radiance", BAND1, Vec::new(), day, radiance, AggKind::Avg),
    ]
}

/// Every view's counted work so far, summed.
fn total_work(runner: &WorkloadRunner) -> ViewWork {
    let mut total = ViewWork::default();
    for view in runner.views().views() {
        let work = view.work();
        total.rows_staged += work.rows_staged;
        total.rows_written += work.rows_written;
        total.rows_dropped += work.rows_dropped;
        total.values_sorted += work.values_sorted;
        total.groups_refolded += work.groups_refolded;
    }
    total
}

/// Run the feed with cells and print each cycle's view upkeep.
fn view_upkeep() {
    let workload =
        ModisWorkload { cells_per_cycle: 20_000, ttl_days: 3, ..ModisWorkload::default() };
    let config = RunnerConfig {
        partitioner: PartitionerKind::ConsistentHash,
        node_capacity: 100 * 20_000 * 14 * 2,
        initial_nodes: 4,
        scaling: ScalingPolicy::Fixed,
        run_queries: false,
        replication: 2,
        ..RunnerConfig::default()
    };
    let mut runner = WorkloadRunner::new(&workload, config);
    views().into_iter().for_each(|def| runner.register_view(def));

    println!("\nView upkeep with cells: 20 000 pixels a day, three days kept, two views");
    println!(
        "{:>5} {:>9} {:>8} {:>8} {:>8} {:>8} {:>6} {:>10}",
        "cycle", "Δ rows", "staged", "written", "dropped", "sorted", "groups", "recompute"
    );
    for cycle in 0..workload.cycles() {
        let before = total_work(&runner);
        let report = runner.run_cycle(cycle).expect("MODIS batches are collision-free");
        let after = total_work(&runner);
        // The estimate is the state's, after this cycle: not a sum.
        let recompute: u64 = runner.views().views().iter().map(|v| v.work().recompute_rows).sum();
        println!(
            "{:>5} {:>9} {:>8} {:>8} {:>8} {:>8} {:>6} {:>10}",
            cycle + 1,
            report.view_delta_rows,
            after.rows_staged - before.rows_staged,
            after.rows_written - before.rows_written,
            after.rows_dropped - before.rows_dropped,
            after.values_sorted - before.values_sorted,
            after.groups_refolded - before.groups_refolded,
            recompute,
        );
    }
}
