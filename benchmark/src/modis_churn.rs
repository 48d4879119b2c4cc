//! `modis_churn` — MODIS materialized with writes beside deletes: 14 days
//! × 30k pixels under a 3-day TTL, consistent hashing over 4 nodes with
//! k = 2, a crash at day 5 and a revival at day 7, two incremental views,
//! a write-ahead log on real files (never fsynced, see [`FSYNC`];
//! checkpointed, with a sync, every 4 cycles), then a cold-start recovery.
//!
//! Why: `durability`, retraction and compaction in `array`/`cluster`,
//! view maintenance in `query` and the repair flows do most of the work —
//! the same `array` and `query` crates the other workloads use, used
//! differently (delete/compact and O(|Δ|) apply instead of build and
//! scan), so a gain for one use that costs the other shows. Checkpoint
//! cycles are the background-work stalls only a high percentile reveals.

use crate::common::{
    check_same_digest, digest_report, drive_cycles, end_to_end, median_setup, placement_digest,
    repeat_until, space_amp, Ops, Opts, Outcome, Samples, MODIS_SEED,
};
use crate::layers;
use crate::ledger;
use crate::replay::{Inputs, LogCounters, ReplayWorkload, TimedLog};
use crate::trace;
use crate::util::{median, Fnv};
use array_model::ScalarValue;
use durability::{shared, FileLog, FsyncPolicy, LogStore, RecordReader};
use elastic_core::PartitionerKind;
use query_engine::view::{
    AggKind, EmitFn, GroupKeyFn, JoinKeyFn, KeyScalar, PredFn, RowOp, ValueFn, ViewDef,
    ViewSnapshot,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use workloads::modis::{BAND1, BAND2};
use workloads::{
    CycleReport, DurabilityConfig, FaultKind, FaultPlan, ModisWorkload, RunnerConfig,
    ScalingPolicy, WorkloadRunner,
};

const TTL_DAYS: usize = 3;
const CHECKPOINT_EVERY: usize = 4;
/// The log is written through the real `FileLog` but not fsynced cycle by
/// cycle: the checkout's disk is shared, and with `PerCycle` a neighbour's
/// writes moved the median cycle by 40 % and the checkpoint cycles by 50 %
/// (with `Never`: 5–15 % and 8–25 %). What is left of the device in a
/// timed region is the checkpoint's own `sync_data`, three times a repeat.
const FSYNC: FsyncPolicy = FsyncPolicy::Never;

pub fn generator(opts: &Opts) -> ModisWorkload {
    ModisWorkload {
        cells_per_cycle: opts.churn_pixels(),
        ttl_days: TTL_DAYS,
        seed: MODIS_SEED ^ opts.seed,
        ..ModisWorkload::default()
    }
}

fn numeric(v: &ScalarValue) -> f64 {
    v.as_f64().unwrap_or(0.0)
}

/// The vegetation-index join of the two bands over the equatorial belt
/// (|latitude| ≤ 10°, about a ninth of the pixels) and the daily mean
/// radiance of band 1 over every pixel. The join is restricted because
/// its per-row state costs more than everything else in a cycle put
/// together: unrestricted, view maintenance would be the whole workload.
pub fn views() -> Vec<ViewDef> {
    let belt: PredFn = Arc::new(|c, _| c[2].abs() <= 10);
    let belt = || vec![RowOp::Filter(belt.clone())];
    let key: JoinKeyFn = Arc::new(|c, _| c.iter().map(|&x| KeyScalar::Int(x)).collect());
    let emit: EmitFn = Arc::new(|l, r| {
        let (b1, b2) = (numeric(&l.1[1]), numeric(&r.1[1]));
        (l.0.clone(), vec![ScalarValue::Double((b2 - b1) / (b2 + b1 + 1e-9))])
    });
    let ndvi = ViewDef::join("ndvi", BAND1, BAND2, belt(), belt(), key.clone(), key, emit);
    let day: GroupKeyFn = Arc::new(|c, _| vec![c[0].div_euclid(1440)]);
    let radiance: ValueFn = Arc::new(|_, v| numeric(&v[1]));
    let daily =
        ViewDef::aggregate("daily-radiance", BAND1, Vec::new(), day, radiance, AggKind::Avg);
    vec![ndvi, daily]
}

/// The runner configuration without its log (the ledger's view of it).
pub fn config(opts: &Opts) -> RunnerConfig {
    RunnerConfig {
        partitioner: PartitionerKind::ConsistentHash,
        // Never the constraint: the roster is fixed at 4.
        node_capacity: 100 * opts.churn_pixels() * 14 * 2,
        initial_nodes: 4,
        scaling: ScalingPolicy::Fixed,
        run_queries: false,
        ingest_threads: 1,
        replication: 2,
        fault_plan: Some(FaultPlan::new(7).at(5, FaultKind::Crash(1)).at(7, FaultKind::Revive(1))),
        ..RunnerConfig::default()
    }
}

/// A WAL directory inside the checkout, removed on drop — on failure and
/// unwinding too.
struct WalDir(PathBuf);

impl WalDir {
    fn create(root: &Path, n: usize) -> std::io::Result<WalDir> {
        let dir = root.join(format!("wal-{}-{n}", std::process::id()));
        // A killed earlier run with the same pid may have left one behind.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(WalDir(dir))
    }
}

impl Drop for WalDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn durable_config(
    opts: &Opts,
    dir: &WalDir,
) -> Result<(RunnerConfig, Arc<std::sync::Mutex<LogCounters>>), String> {
    let file_log = FileLog::open(&dir.0).map_err(|e| e.to_string())?;
    let (log, counters) = TimedLog::new(file_log);
    let durability = DurabilityConfig {
        log: shared(log),
        checkpoint_every: CHECKPOINT_EVERY,
        fsync_policy: FSYNC,
    };
    Ok((RunnerConfig { durability: Some(durability), ..config(opts) }, counters))
}

/// One durable run of all 14 days, then (where asked for) a cold-start
/// recovery.
struct Repeat {
    reports: Vec<CycleReport>,
    placements: Vec<u64>,
    digest: u64,
    space_amp: f64,
    log: LogCounters,
    /// The final log image (traced run only), for the record-scan span.
    log_image: Vec<u8>,
}

fn view_snapshots(runner: &WorkloadRunner<'_>) -> Vec<ViewSnapshot> {
    runner.views().views().iter().map(|v| v.snapshot()).collect()
}

fn repeat(
    gen: &ModisWorkload,
    inputs: &Inputs,
    opts: &Opts,
    n: usize,
    ops: &mut Ops,
    cycle_ms: &mut Samples,
    recover_ms: &mut Vec<f64>,
) -> Result<Repeat, String> {
    let days = inputs.cells.len();
    let dir = WalDir::create(&opts.tmp_dir, n).map_err(|e| format!("WAL directory: {e}"))?;
    // The untraced run recovers once, after its first repeat: every
    // repeat must leave the same digest behind, so one recovery checks
    // them all, and the time goes to cycle samples. The traced run, which
    // reports the recovery time, recovers after every repeat.
    let recover = opts.trace || n == 0;
    let replay = ReplayWorkload::new(gen.clone(), inputs);
    if recover {
        // Recovery re-executes the days after the newest checkpoint.
        replay.refill(inputs, days / CHECKPOINT_EVERY * CHECKPOINT_EVERY);
    }

    let (config, counters) = durable_config(opts, &dir)?;
    let mut runner = WorkloadRunner::new(&replay, config);
    views().into_iter().for_each(|def| runner.register_view(def));
    let (reports, placements) = drive_cycles(&mut runner, 0..days, ops, cycle_ms);
    if reports.len() < days {
        return Err("a cycle failed; recovery not attempted".to_string());
    }
    let mut h = Fnv::default();
    reports.iter().for_each(|r| digest_report(&mut h, r));
    h.u64(placements[days - 1]);
    let log = *counters.lock().expect("no panic while counting");
    for v in [log.records, log.log_bytes, log.flushes, log.checkpoints, log.checkpoint_bytes] {
        h.u64(v);
    }
    // Live user bytes: the days the TTL has not yet retracted.
    let live: u64 = inputs.user_bytes[days - TTL_DAYS..].iter().sum();
    let space_amp = space_amp(runner.cluster(), live);
    let before = view_snapshots(&runner);
    drop(runner);
    if !recover {
        return Ok(Repeat {
            reports,
            placements,
            digest: h.0,
            space_amp,
            log,
            log_image: Vec::new(),
        });
    }

    // Cold start: a new handle on the same files, as a restarted process
    // would open (the page cache stays warm — this is the sandbox's time,
    // not a device's).
    let (config, _) = durable_config(opts, &dir)?;
    trace::set_op(days as u64);
    ops.attempted += 1;
    let t = Instant::now();
    let recovered =
        trace::timed("workloads.recover", || WorkloadRunner::recover(&replay, config, views()));
    let ms = t.elapsed().as_secs_f64() * 1e3;
    match recovered {
        Err(e) => ops.fail(format!("recover: {e}")),
        Ok(recovered) => {
            recover_ms.push(ms);
            ops.check(recovered.start_cycle() == days, || {
                format!("recovered runner resumes at {} of {days}", recovered.start_cycle())
            });
            ops.check(placement_digest(recovered.cluster()) == placements[days - 1], || {
                "recovered placement differs from the pre-crash runner's".to_string()
            });
            ops.check(view_snapshots(&recovered) == before, || {
                "recovered view states differ from the pre-crash runner's".to_string()
            });
        }
    }
    // Only the traced run scans the image; an untraced repeat must not
    // hold 160 MB of log across the repeats that follow.
    let log_image = if opts.trace {
        FileLog::open(&dir.0)
            .and_then(|mut log| log.read_log())
            .map_err(|e| format!("read back wal.log: {e}"))?
    } else {
        Vec::new()
    };
    Ok(Repeat { reports, placements, digest: h.0, space_amp, log, log_image })
}

struct Measured {
    repeats: Vec<Repeat>,
    cycle_ms: Samples,
    recover_ms: Vec<f64>,
}

/// Repeat until `seconds` have passed (at least once).
fn repeat_for(
    seconds: f64,
    gen: &ModisWorkload,
    inputs: &Inputs,
    opts: &Opts,
    ops: &mut Ops,
) -> Measured {
    let mut m =
        Measured { repeats: Vec::new(), cycle_ms: Samples::default(), recover_ms: Vec::new() };
    repeat_until(opts, seconds, |n| {
        match repeat(gen, inputs, opts, n, ops, &mut m.cycle_ms, &mut m.recover_ms) {
            Ok(r) => m.repeats.push(r),
            Err(e) => ops.fail(e),
        }
        m.repeats.len() > n
    });
    m
}

pub fn run(opts: &Opts) -> Outcome {
    let gen = generator(opts);
    let mut ops = Ops::default();

    trace::set_recording(opts.trace);
    let (inputs, setup_s) =
        median_setup(opts, || trace::timed("workloads.generate", || Inputs::generate(&gen)));
    trace::set_recording(false);
    let inserted_user_bytes: u64 = inputs.user_bytes.iter().sum();
    let flush_note = (
        "flush policy",
        format!("{FSYNC:?} on FileLog, checkpoint every {CHECKPOINT_EVERY} cycles"),
    );

    if !opts.trace {
        let m = repeat_for(opts.seconds, &gen, &inputs, opts, &mut ops);
        let digests: Vec<u64> = m.repeats.iter().map(|r| r.digest).collect();
        check_same_digest(&mut ops, "modis_churn", &digests);
        let Some(first) = m.repeats.first() else {
            return Outcome::broken(ops);
        };
        let rows_per_repeat: u64 =
            (0..inputs.cells.len()).map(|c| inputs.cycle_rows(c)).map(|(ins, ret)| ins + ret).sum();
        return Outcome {
            ops,
            metrics: end_to_end(setup_s, rows_per_repeat, &m.cycle_ms, first.space_amp),
            digest: Fnv(first.digest),
            notes: vec![
                ("work unit", "rows inserted + retracted (work_per_s = rows/s)".to_string()),
                ("operation", format!("durable run_cycle of {} pixels", gen.cells_per_cycle)),
                flush_note,
                ("repeats", m.repeats.len().to_string()),
                ("op_ms", m.cycle_ms.note()),
                (
                    "recover_ms_p50",
                    format!("{:.3} ({} recoveries)", median(&m.recover_ms), m.recover_ms.len()),
                ),
                ("write_amp", format!("{:.6}", first.log.write_amp(inserted_user_bytes))),
            ],
        };
    }

    // Traced run: untraced repeats, then traced ones, then the ledger.
    let untraced = repeat_for(opts.seconds / 2.0, &gen, &inputs, opts, &mut ops);
    trace::set_recording(true);
    let traced = repeat_for(opts.seconds / 2.0, &gen, &inputs, opts, &mut ops);
    let Some(last) = traced.repeats.last() else {
        trace::take();
        return Outcome::broken(ops);
    };
    let config = config(opts);
    match ledger::replay(&gen, &config, views(), &inputs, &last.reports, &last.placements) {
        Err(e) => ops.check_result(Err(e)),
        Ok(world) => {
            ops.check_result(world.recompute_views());
            ops.check_result(world.codecs());
        }
    }
    let mid = &inputs.cells[inputs.cells.len() / 2];
    ops.check_result(ledger::build_and_encode(&gen, &config, mid.as_deref().unwrap_or(&[])));
    let records = trace::timed("durability.scan", || {
        let mut reader = RecordReader::new(&last.log_image);
        let mut n = 0u64;
        while let Ok(Some(_)) = reader.next_record() {
            n += 1;
        }
        n
    });
    ops.check(records == last.log.records, || {
        format!("log scan found {records} records, {} were appended", last.log.records)
    });
    let recorded = trace::take();

    let mut metrics = layers::from_trace(&recorded);
    layers::log_counters(&mut metrics, &last.log, inserted_user_bytes);
    layers::simulated(&mut metrics, &last.reports);
    let mut notes = layers::finish_traced(
        opts,
        "modis_churn",
        &recorded,
        &mut metrics,
        &untraced.cycle_ms,
        &traced.cycle_ms,
    );
    notes.push(flush_note);
    Outcome { ops, metrics, digest: Fnv(last.digest), notes }
}
