//! Tuning the leading staircase to a workload (paper §5.2): the what-if
//! analysis for the sampling window `s` (Algorithm 1) and the analytical
//! node-hour cost model for the planning horizon `p` (Equations 5–9).
//!
//! ```text
//! cargo run --release --example provisioner_tuning
//! ```

use elastic_array_db::elastic::provision::{tune_plan_ahead, ClusterSnapshot, CostModelParams};
use elastic_array_db::elastic::tune_samples;
use elastic_array_db::prelude::*;

fn main() {
    // --- Algorithm 1: fit s to each workload's demand history. ---
    let ais = AisWorkload::default();
    let modis = ModisWorkload::default();
    let ais_history = ais.monthly_demand_history();
    let modis_history = modis.daily_demand_history();

    println!("what-if tuning of the sampling window s (Algorithm 1):\n");
    for (name, history) in [("AIS (monthly)", &ais_history), ("MODIS (daily)", &modis_history)] {
        let report = tune_samples(history, 4);
        let errors: Vec<String> = report
            .errors
            .iter()
            .enumerate()
            .map(|(i, e)| format!("s={}: {:.2} GB", i + 1, e))
            .collect();
        println!("  {name:<16} {}  ->  best s = {}", errors.join("  "), report.best);
    }
    println!("\n  AIS demand trends (slope random walk), so the freshest sample wins;");
    println!("  MODIS demand oscillates around a steady rate, so averaging wins.\n");

    // --- Equations 5-9: pick the planning horizon p. ---
    // Snapshot a mid-run MODIS cluster: 3 nodes, 229 GB, growing 45 GB/cycle.
    let snapshot =
        ClusterSnapshot { nodes: 3, load_gb: 229.0, insert_rate_gb: 45.6, last_query_secs: 420.0 };
    let params =
        CostModelParams { node_capacity_gb: 100.0, cost: CostModel::default(), horizon: 10 };
    let report = tune_plan_ahead(&[1, 2, 3, 4, 6, 8], &snapshot, &params);
    println!("analytical cost model for the planning horizon p (Eqs. 5-9):\n");
    println!("  {:>3} {:>12} {:>8} {:>11}", "p", "node-hours", "reorgs", "peak nodes");
    for est in &report.estimates {
        println!(
            "  {:>3} {:>12.1} {:>8} {:>11}",
            est.plan_ahead,
            est.node_hours,
            est.reorg_count,
            est.cycles.iter().map(|c| c.nodes).max().unwrap_or(0)
        );
    }
    println!("\n  tuner pick: p = {}", report.best);
    println!("  (lazy horizons reorganize constantly; eager ones over-provision)");
}
