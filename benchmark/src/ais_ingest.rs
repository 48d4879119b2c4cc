//! `ais_ingest` — AIS materialized, append-only: 10 cycles × 200k rows on
//! the Hilbert Curve partitioner, 2 nodes growing to 12 in steps of 2.
//!
//! Why: chunk build and scatter (`array`), cycle orchestration
//! (`workloads`) and place/attach/rebalance (`cluster`, `core`) do nearly
//! all the work; `query` and `durability` do none, so a scan or WAL
//! change must show no movement here.

use crate::common::{
    check_same_digest, digest_report, drive_cycles, end_to_end, median_setup, repeat_until,
    space_amp, Ops, Opts, Outcome, Samples, AIS_SEED,
};
use crate::layers;
use crate::ledger;
use crate::replay::{Inputs, ReplayWorkload};
use crate::trace;
use crate::util::Fnv;
use elastic_core::PartitionerKind;
use workloads::{AisWorkload, CycleReport, RunnerConfig, ScalingPolicy, WorkloadRunner};

pub fn generator(opts: &Opts) -> AisWorkload {
    AisWorkload {
        cells_per_cycle: opts.ais_rows(),
        seed: AIS_SEED ^ opts.seed,
        ..AisWorkload::default()
    }
}

pub fn config(opts: &Opts) -> RunnerConfig {
    RunnerConfig {
        partitioner: PartitionerKind::HilbertCurve,
        // ≈90 B per broadcast row: a node fills in about a cycle, so the
        // roster climbs 2 → 12 across the run.
        node_capacity: 90 * opts.ais_rows(),
        initial_nodes: 2,
        scaling: ScalingPolicy::FixedStep { add: 2, trigger: 0.8 },
        run_queries: false,
        ingest_threads: 1,
        ..RunnerConfig::default()
    }
}

/// One fresh runner driven through every cycle.
struct Repeat {
    reports: Vec<CycleReport>,
    placements: Vec<u64>,
    digest: u64,
    space_amp: f64,
}

fn repeat(
    gen: &AisWorkload,
    inputs: &Inputs,
    opts: &Opts,
    ops: &mut Ops,
    cycle_ms: &mut Samples,
) -> Repeat {
    let replay = ReplayWorkload::new(gen.clone(), inputs);
    let mut runner = WorkloadRunner::new(&replay, config(opts));
    let (reports, placements) = drive_cycles(&mut runner, 0..inputs.cells.len(), ops, cycle_ms);
    let mut h = Fnv::default();
    reports.iter().for_each(|r| digest_report(&mut h, r));
    h.u64(placements.last().copied().unwrap_or(0));
    let live: u64 = inputs.user_bytes.iter().sum();
    Repeat { reports, placements, digest: h.0, space_amp: space_amp(runner.cluster(), live) }
}

/// Repeat until `seconds` have passed (at least once).
fn repeat_for(
    seconds: f64,
    gen: &AisWorkload,
    inputs: &Inputs,
    opts: &Opts,
    ops: &mut Ops,
    cycle_ms: &mut Samples,
) -> Vec<Repeat> {
    let mut repeats = Vec::new();
    repeat_until(opts, seconds, |_| {
        repeats.push(repeat(gen, inputs, opts, ops, cycle_ms));
        true
    });
    repeats
}

pub fn run(opts: &Opts) -> Outcome {
    let gen = generator(opts);
    let mut ops = Ops::default();

    // Set-up: generate every cycle's batch, then one warm-up run so the
    // allocator and page tables are in their steady state.
    trace::set_recording(opts.trace);
    let (inputs, setup_s) = median_setup(opts, || {
        let inputs = trace::timed("workloads.generate", || Inputs::generate(&gen));
        trace::set_recording(false);
        repeat(&gen, &inputs, opts, &mut Ops::default(), &mut Samples::default());
        inputs
    });

    if !opts.trace {
        let mut cycle_ms = Samples::default();
        let repeats = repeat_for(opts.seconds, &gen, &inputs, opts, &mut ops, &mut cycle_ms);
        let digests: Vec<u64> = repeats.iter().map(|r| r.digest).collect();
        check_same_digest(&mut ops, "ais_ingest", &digests);
        let rows_per_repeat: u64 = (0..inputs.cells.len()).map(|c| inputs.cycle_rows(c).0).sum();
        return Outcome {
            ops,
            metrics: end_to_end(setup_s, rows_per_repeat, &cycle_ms, repeats[0].space_amp),
            digest: Fnv(digests[0]),
            notes: vec![
                ("work unit", "rows inserted (work_per_s = rows/s)".to_string()),
                ("operation", format!("run_cycle of {} rows", gen.cells_per_cycle)),
                ("repeats", repeats.len().to_string()),
                ("op_ms", cycle_ms.note()),
            ],
        };
    }

    // Traced run: half the time untraced, half traced (their difference
    // is the tracing overhead), then the layer ledger.
    let mut untraced_ms = Samples::default();
    repeat_for(opts.seconds / 2.0, &gen, &inputs, opts, &mut ops, &mut untraced_ms);
    let mut traced_ms = Samples::default();
    trace::set_recording(true);
    let repeats = repeat_for(opts.seconds / 2.0, &gen, &inputs, opts, &mut ops, &mut traced_ms);
    let last = repeats.last().expect("at least one repeat");
    let config = config(opts);
    ops.check_result(
        ledger::replay(&gen, &config, Vec::new(), &inputs, &last.reports, &last.placements)
            .map(drop),
    );
    let mid = &inputs.cells[inputs.cells.len() / 2];
    ops.check_result(ledger::build_and_encode(&gen, &config, mid.as_deref().unwrap_or(&[])));
    let recorded = trace::take();

    let mut metrics = layers::from_trace(&recorded);
    layers::simulated(&mut metrics, &last.reports);
    let notes = layers::finish_traced(
        opts,
        "ais_ingest",
        &recorded,
        &mut metrics,
        &untraced_ms,
        &traced_ms,
    );
    Outcome { ops, metrics, digest: Fnv(last.digest), notes }
}
