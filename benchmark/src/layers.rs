//! Per-layer metrics out of a trace. One rule for every timing: the
//! median, over the operations in which the span occurs, of the time the
//! span's calls took within one operation — so `core.route_ms` is "what
//! routing cost a cycle", whether the cycle routed one batch or two.

use crate::common::{Notes, Opts, Samples};
use crate::replay::LogCounters;
use crate::trace::Trace;
use crate::util::median_or_zero;
use cluster_sim::NodeHoursLedger;
use std::collections::BTreeMap;
use workloads::CycleReport;

pub type Metrics = BTreeMap<String, f64>;

/// (metric, enclosing span, span): median per enclosing span of the
/// summed `span` time, over the enclosing spans where it occurs.
const PER_OP: &[(&str, &str, &str)] = &[
    ("array.insert_batch_ms", "ledger.cycle", "array.insert_batch"),
    ("array.delete_cells_ms", "ledger.cycle", "array.delete_cells"),
    ("array.delta_extract_ms", "ledger.cycle", "array.delta_extract"),
    ("core.route_ms", "ledger.cycle", "core.route"),
    ("core.commit_ms", "ledger.cycle", "core.commit"),
    ("core.scale_out_ms", "ledger.cycle", "core.scale_out"),
    ("cluster.place_batch_ms", "ledger.cycle", "cluster.place_batch"),
    ("cluster.flow_solve_ms", "ledger.cycle", "cluster.flow_solve"),
    ("cluster.apply_rebalance_ms", "ledger.cycle", "cluster.apply_rebalance"),
    ("cluster.attach_payload_ms", "ledger.cycle", "cluster.attach_payload"),
    ("cluster.retract_cells_ms", "ledger.cycle", "cluster.retract_cells"),
    ("cluster.crash_repair_ms", "ledger.cycle", "cluster.crash_repair"),
    ("query.view_apply_ms", "ledger.cycle", "query.view_apply"),
    ("durability.append_ms", "workloads.run_cycle", "durability.append"),
    ("durability.checkpoint_write_ms", "workloads.run_cycle", "durability.checkpoint_write"),
    ("durability.read_log_ms", "workloads.recover", "durability.read_log"),
    ("durability.read_checkpoint_ms", "workloads.recover", "durability.read_checkpoint"),
    ("query.suites_ms", "workloads.run_cycle", "query.run_suites"),
];

/// (metric, span): median duration of a span that stands alone.
const STANDALONE: &[(&str, &str)] = &[
    ("array.encode_ms", "array.encode"),
    ("array.decode_ms", "array.decode"),
    ("cluster.snapshot_ms", "cluster.snapshot"),
    ("cluster.restore_ms", "cluster.restore"),
    ("query.view_export_ms", "query.view_export"),
    ("query.view_import_ms", "query.view_import"),
    ("durability.frame_ms", "durability.frame"),
    ("durability.scan_ms", "durability.scan"),
    ("workloads.build_cell_array_ms", "workloads.build_cell_array"),
    ("workloads.build_cell_array_t2_ms", "workloads.build_cell_array_t2"),
    ("workloads.wal_encode_ms", "workloads.wal_encode"),
    ("workloads.generate_ms", "workloads.generate"),
    ("workloads.recover_ms_p50", "workloads.recover"),
];

/// (metric, count).
const COUNTS: &[(&str, &str)] = &[
    ("array.encoded_bytes", "array.encoded_bytes"),
    ("core.route_chunks", "core.route_chunks"),
    ("core.moved_bytes", "core.moved_bytes"),
    ("cluster.rebalance_moved_chunks", "cluster.rebalance_moved_chunks"),
    ("cluster.repair_bytes", "cluster.repair_bytes"),
    ("query.view_delta_rows", "query.view_delta_rows"),
    ("query.view_rows_changed", "query.view_rows_changed"),
];

pub fn from_trace(trace: &Trace) -> Metrics {
    let mut m = Metrics::new();
    for &(metric, parent, child) in PER_OP {
        let sums: Vec<f64> =
            trace.child_ms_per_parent(parent, child).into_iter().filter(|&ms| ms > 0.0).collect();
        m.insert(metric.to_string(), median_or_zero(&sums));
    }
    for &(metric, span) in STANDALONE {
        m.insert(metric.to_string(), median_or_zero(&trace.durations_ms(span)));
    }
    for &(metric, count) in COUNTS {
        m.insert(metric.to_string(), trace.count(count) as f64);
    }
    // The maintain-vs-recompute pair: all views rebuilt from scratch,
    // beside `query.view_apply_ms` for one cycle's deltas.
    m.insert(
        "query.view_recompute_ms".to_string(),
        trace.durations_ms("query.view_recompute").iter().fold(0.0, |a, b| a + b),
    );
    let (rows, chunks) = (trace.count("array.rows") as f64, trace.count("array.chunks") as f64);
    m.insert("array.rows_per_chunk".to_string(), if chunks > 0.0 { rows / chunks } else { 0.0 });
    m.insert(
        "array.bytes_per_row".to_string(),
        if rows > 0.0 { trace.count("array.bytes") as f64 / rows } else { 0.0 },
    );
    m.insert(
        "workloads.run_cycle_self_ms".to_string(),
        median_or_zero(&trace.self_ms("workloads.run_cycle")),
    );
    m.insert(
        "workloads.recover_self_ms".to_string(),
        median_or_zero(&trace.self_ms("workloads.recover")),
    );
    m
}

/// What went through the log in one repeat (exact).
pub fn log_counters(m: &mut Metrics, c: &LogCounters, user_bytes: u64) {
    m.insert("durability.records".to_string(), c.records as f64);
    m.insert("durability.log_bytes".to_string(), c.log_bytes as f64);
    m.insert("durability.checkpoints".to_string(), c.checkpoints as f64);
    m.insert("durability.checkpoint_bytes".to_string(), c.checkpoint_bytes as f64);
    m.insert("durability.write_amp".to_string(), c.write_amp(user_bytes));
}

/// The simulated clock (cost-model minutes, Equation 1 node-hours, mean
/// RSD): exact, so a change here is a model change, never a speed-up.
pub fn simulated(m: &mut Metrics, reports: &[CycleReport]) {
    let mut hours = NodeHoursLedger::new();
    let (mut insert, mut reorg, mut query, mut rsd) = (0.0, 0.0, 0.0, 0.0);
    for r in reports {
        hours.record(r.nodes, r.phases);
        insert += r.phases.insert_secs;
        reorg += r.phases.reorg_secs;
        query += r.phases.query_secs;
        rsd += r.rsd_after_insert;
    }
    let add = |m: &mut Metrics, name: &str, v: f64| *m.entry(name.to_string()).or_insert(0.0) += v;
    add(m, "cluster.sim_insert_min", insert / 60.0);
    add(m, "cluster.sim_reorg_min", reorg / 60.0);
    add(m, "query.sim_query_min", query / 60.0);
    add(m, "core.sim_node_hours", hours.node_hours());
    add(m, "cluster.mean_rsd", rsd / reports.len().max(1) as f64);
}

/// The end of every traced run: record the tracing overhead
/// (traced-minus-untraced median latency of the same operation, as a
/// share of the untraced one) and write the trace out.
pub fn finish_traced(
    opts: &Opts,
    workload: &str,
    recorded: &Trace,
    metrics: &mut Metrics,
    untraced: &Samples,
    traced: &Samples,
) -> Notes {
    let (off, on) = (untraced.p50(), traced.p50());
    metrics.insert("workloads.trace_overhead_pct".to_string(), (on - off) / off * 100.0);
    let path = opts.out_dir.join(format!("trace-{workload}.json"));
    if let Err(e) = std::fs::create_dir_all(&opts.out_dir)
        .and_then(|()| std::fs::write(&path, recorded.to_json().pretty()))
    {
        eprintln!("could not write {}: {e}", path.display());
    }
    vec![
        ("spans", recorded.span_count().to_string()),
        ("op_ms_p50 untraced/traced", format!("{off:.3}/{on:.3}")),
    ]
}
