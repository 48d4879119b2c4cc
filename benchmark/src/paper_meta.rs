//! `paper_meta` — the paper's own traffic: the §6.2 schedule
//! (`RunnerConfig::paper_section62`, queries on) for all 8 partitioners ×
//! {AIS, MODIS}, metadata only — what `fig4`/`fig5` run. One sweep is 16
//! runs; each cycle of each run is one operation and one latency sample.
//!
//! Why: `core` route/commit/scale-out, the `cluster` placement grid,
//! census and flow solver, and the cost-model query path dominate with no
//! cell payload anywhere, so work on the materialized path must not move
//! it. Its simulated minutes, moved bytes and RSD are the paper-fidelity
//! counters.

use crate::common::{
    check_same_digest, digest_report, end_to_end, median_setup, placement_digest, repeat_until,
    Ops, Opts, Outcome, Samples, AIS_SEED, MODIS_SEED,
};
use crate::layers;
use crate::ledger;
use crate::replay::{Inputs, ReplayWorkload};
use crate::trace;
use crate::util::Fnv;
use elastic_core::PartitionerKind;
use std::time::Instant;
use workloads::{AisWorkload, CycleReport, ModisWorkload, RunnerConfig, Workload, WorkloadRunner};

/// More cycles than any §6.2 run has: the stride of a run's kinds.
const MAX_CYCLES: usize = 64;

/// One §6.2 run: what it reported and where it left every chunk.
struct Run {
    kind: PartitionerKind,
    reports: Vec<CycleReport>,
    placements: Vec<u64>,
    /// Σ node bytes over Σ placed descriptor bytes.
    space_amp: f64,
}

fn run_once<W: Workload + Clone>(
    kind: PartitionerKind,
    gen: &W,
    inputs: &Inputs,
    ops: &mut Ops,
    cycle_ms: &mut Samples,
    // The run's place in the sweep; with the cycle, the operation's kind.
    nth: usize,
) -> Option<Run> {
    let replay = ReplayWorkload::new(gen.clone(), inputs);
    let mut runner = WorkloadRunner::new(&replay, RunnerConfig::paper_section62(kind));
    let cycles = gen.cycles();
    let mut reports = Vec::with_capacity(cycles);
    let mut placements = Vec::with_capacity(cycles);
    for c in 0..cycles {
        trace::set_op(c as u64);
        ops.attempted += 1;
        let t = Instant::now();
        let result = trace::timed("workloads.run_cycle", || runner.run_cycle(c));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match result {
            Ok(report) => {
                cycle_ms.push(nth * MAX_CYCLES + c, ms);
                reports.push(report)
            }
            Err(e) => {
                ops.fail(format!("{kind} on {} cycle {c}: {e}", gen.name()));
                return None;
            }
        }
        // Outside the timed region: the ledger's per-cycle reference.
        placements.push(placement_digest(runner.cluster()));
    }
    let placed: u64 = inputs.inserts.iter().chain(&inputs.derived).flatten().map(|d| d.bytes).sum();
    let stored: u64 = runner.cluster().nodes().map(|n| n.used_bytes() + n.replica_bytes()).sum();
    Some(Run { kind, reports, placements, space_amp: stored as f64 / placed.max(1) as f64 })
}

struct Sweep {
    ais: Vec<Run>,
    modis: Vec<Run>,
    digest: u64,
}

struct Generated {
    ais: (AisWorkload, Inputs),
    modis: (ModisWorkload, Inputs),
}

fn sweep(g: &Generated, ops: &mut Ops, cycle_ms: &mut Samples) -> Option<Sweep> {
    let mut out = Sweep { ais: Vec::new(), modis: Vec::new(), digest: 0 };
    let mut h = Fnv::default();
    for (i, kind) in PartitionerKind::ALL.into_iter().enumerate() {
        out.ais.push(run_once(kind, &g.ais.0, &g.ais.1, ops, cycle_ms, 2 * i)?);
        out.modis.push(run_once(kind, &g.modis.0, &g.modis.1, ops, cycle_ms, 2 * i + 1)?);
    }
    for run in out.ais.iter().chain(&out.modis) {
        run.reports.iter().for_each(|r| digest_report(&mut h, r));
        h.u64(run.placements.last().copied().unwrap_or(0));
    }
    out.digest = h.0;
    Some(out)
}

fn sweeps_for(
    seconds: f64,
    g: &Generated,
    opts: &Opts,
    ops: &mut Ops,
    cycle_ms: &mut Samples,
) -> Vec<Sweep> {
    let mut sweeps = Vec::new();
    repeat_until(opts, seconds, |n| {
        sweeps.extend(sweep(g, ops, cycle_ms));
        sweeps.len() > n
    });
    sweeps
}

/// Append keeps every chunk where it first landed: its reorganization
/// must stay at (about) zero simulated minutes, as in the paper's Figure 4.
fn check_append(ops: &mut Ops, sweep: &Sweep) {
    for run in sweep.ais.iter().chain(&sweep.modis).filter(|r| r.kind == PartitionerKind::Append) {
        let reorg_min: f64 = run.reports.iter().map(|r| r.phases.reorg_secs).sum::<f64>() / 60.0;
        ops.check(reorg_min < 1.0, || format!("Append reorganized for {reorg_min:.2} minutes"));
    }
}

pub fn run(opts: &Opts) -> Outcome {
    let mut ops = Ops::default();

    // Set-up: sample every cycle's descriptors, then one warm-up sweep.
    trace::set_recording(opts.trace);
    let (g, setup_s) = median_setup(opts, || {
        let g = trace::timed("workloads.generate", || {
            let ais = AisWorkload::with_seed(AIS_SEED ^ opts.seed);
            let modis = ModisWorkload::with_seed(MODIS_SEED ^ opts.seed);
            let (ais_inputs, modis_inputs) = (Inputs::generate(&ais), Inputs::generate(&modis));
            Generated { ais: (ais, ais_inputs), modis: (modis, modis_inputs) }
        });
        trace::set_recording(false);
        sweep(&g, &mut Ops::default(), &mut Samples::default());
        g
    });

    if !opts.trace {
        let mut cycle_ms = Samples::default();
        let sweeps = sweeps_for(opts.seconds, &g, opts, &mut ops, &mut cycle_ms);
        let digests: Vec<u64> = sweeps.iter().map(|s| s.digest).collect();
        check_same_digest(&mut ops, "paper_meta", &digests);
        let Some(first) = sweeps.first() else {
            return Outcome::broken(ops);
        };
        check_append(&mut ops, first);
        let chunks_per_sweep: usize = [&g.ais.1, &g.modis.1]
            .iter()
            .map(|i| i.inserts.iter().chain(&i.derived).map(Vec::len).sum::<usize>())
            .sum::<usize>()
            * PartitionerKind::ALL.len();
        let runs: Vec<&Run> = first.ais.iter().chain(&first.modis).collect();
        let space_amp = runs.iter().map(|r| r.space_amp).sum::<f64>() / runs.len() as f64;
        return Outcome {
            ops,
            metrics: end_to_end(setup_s, chunks_per_sweep as u64, &cycle_ms, space_amp),
            digest: Fnv(first.digest),
            notes: vec![
                ("work unit", "chunks placed (work_per_s = chunks/s)".to_string()),
                ("operation", "one metadata-only run_cycle of a §6.2 run".to_string()),
                ("sweeps", sweeps.len().to_string()),
                (
                    "ms per quiet sweep of 16 runs",
                    format!("{:.3}", cycle_ms.quiet().iter().sum::<f64>()),
                ),
                ("op_ms", cycle_ms.note()),
            ],
        };
    }

    let mut untraced_ms = Samples::default();
    sweeps_for(opts.seconds / 2.0, &g, opts, &mut ops, &mut untraced_ms);
    let mut traced_ms = Samples::default();
    trace::set_recording(true);
    let sweeps = sweeps_for(opts.seconds / 2.0, &g, opts, &mut ops, &mut traced_ms);
    let Some(last) = sweeps.last() else {
        trace::take();
        return Outcome::broken(ops);
    };
    // The ledger replays all 16 runs; simulated counters sum over them.
    let mut simulated = layers::Metrics::new();
    for run in &last.ais {
        ledger_run(&mut ops, run, &g.ais.0, &g.ais.1);
        layers::simulated(&mut simulated, &run.reports);
    }
    for run in &last.modis {
        ledger_run(&mut ops, run, &g.modis.0, &g.modis.1);
        layers::simulated(&mut simulated, &run.reports);
    }
    let recorded = trace::take();

    let mut metrics = layers::from_trace(&recorded);
    // Mean RSD is a mean over the 16 runs, not a sum.
    if let Some(rsd) = simulated.get_mut("cluster.mean_rsd") {
        *rsd /= (last.ais.len() + last.modis.len()) as f64;
    }
    metrics.extend(simulated);
    let notes = layers::finish_traced(
        opts,
        "paper_meta",
        &recorded,
        &mut metrics,
        &untraced_ms,
        &traced_ms,
    );
    Outcome { ops, metrics, digest: Fnv(last.digest), notes }
}

fn ledger_run(ops: &mut Ops, run: &Run, gen: &dyn Workload, inputs: &Inputs) {
    let config = RunnerConfig::paper_section62(run.kind);
    ops.check_result(
        ledger::replay(gen, &config, Vec::new(), inputs, &run.reports, &run.placements)
            .map(drop)
            .map_err(|e| format!("{} on {}: {e}", run.kind, gen.name())),
    );
}
