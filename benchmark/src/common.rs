//! What the four workloads share: options, the outcome they hand back,
//! the timed cycle loop, and the digests of deterministic state.

use crate::trace;
use crate::util::{median, peak_rss_mb, percentile, Fnv};
use cluster_sim::Cluster;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use workloads::{CycleReport, WorkloadRunner};

/// The seeds the paper-reproduction binaries use; the benchmark's
/// generators run on `paper seed ^ --seed`.
pub const AIS_SEED: u64 = 0x5eed_000f;
pub const MODIS_SEED: u64 = 0x5eed_0001;

#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    /// How long the measured loop runs.
    pub seconds: f64,
    pub trace: bool,
    /// 20k-row inputs, one set-up, one repeat: checks only.
    pub smoke: bool,
    /// Scratch space for WAL directories (inside the checkout).
    pub tmp_dir: PathBuf,
    /// Where `trace-<workload>.json` goes.
    pub out_dir: PathBuf,
}

impl Opts {
    pub fn ais_rows(&self) -> u64 {
        if self.smoke {
            20_000
        } else {
            200_000
        }
    }

    pub fn modis_pixels(&self) -> u64 {
        if self.smoke {
            10_000
        } else {
            100_000
        }
    }

    /// `modis_churn`'s pixels per day: a third of what `query_mix` loads,
    /// so that a run holds enough 14-day repeats (a dozen or more) for every
    /// cycle's first decile to shed the host's bursts.
    pub fn churn_pixels(&self) -> u64 {
        if self.smoke {
            10_000
        } else {
            30_000
        }
    }
}

/// Run `setup` several times, keeping the last result; returns it with
/// the median duration in seconds. Once in a traced or smoke run;
/// otherwise three times, and then up to nine while the set-ups so far
/// took under three seconds in all — a 0.2 s set-up timed three times
/// spreads twice as wide as a 2 s one. Earlier results are dropped before
/// the next one is built, so peak memory is that of one set-up.
pub fn median_setup<T>(opts: &Opts, mut setup: impl FnMut() -> T) -> (T, f64) {
    let (least, most) = if opts.trace || opts.smoke { (1, 1) } else { (3, 9) };
    let mut secs = Vec::with_capacity(most);
    let mut last = None;
    while secs.len() < least || (secs.len() < most && secs.iter().sum::<f64>() < 3.0) {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        secs.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up ran"), median(&secs))
}

/// Operations attempted and failed, with what went wrong. An operation
/// is a cycle, a recovery or a query; an output check that
/// fails is a failed operation too.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Ops {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        eprintln!("FAILED: {what}");
        self.problems.push(what);
    }

    /// Record an output check: counted as an attempted operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.check_result(if ok { Ok(()) } else { Err(what()) });
    }

    pub fn check_result(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(what) = result {
            self.fail(what);
        }
    }
}

/// Call `body(n)` for n = 0, 1, … until `seconds` have passed: at least
/// once, exactly once in smoke mode, and no more once it returns false.
pub fn repeat_until(opts: &Opts, seconds: f64, mut body: impl FnMut(usize) -> bool) {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut n = 0;
    while body(n) && !opts.smoke && Instant::now() < deadline {
        n += 1;
    }
}

/// What one workload run hands back to `main`.
pub struct Outcome {
    pub ops: Ops,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced
    /// run), by the names `BENCHMARK.json` lists.
    pub metrics: BTreeMap<String, f64>,
    /// Digest of every deterministic counter of one repeat.
    pub digest: Fnv,
    /// Sample counts, flush policy and the like, for the human reader.
    pub notes: Notes,
}

pub type Notes = Vec<(&'static str, String)>;

/// The six end-to-end metrics, from what every workload measures: its
/// set-up time, the work units one repeat completes, the latency of each
/// operation, and its space amplification. Throughput is the work of one
/// repeat over the time of the typical repeat (see [`Samples`]).
pub fn end_to_end(
    setup_s: f64,
    work_units_per_repeat: u64,
    op_ms: &Samples,
    space_amp: f64,
) -> BTreeMap<String, f64> {
    let quiet = op_ms.quiet();
    [
        ("setup_s", setup_s),
        ("work_per_s", work_units_per_repeat as f64 / (quiet.iter().sum::<f64>() / 1e3)),
        ("op_ms_p50", percentile(&quiet, 50.0)),
        ("op_ms_p90", percentile(&quiet, 90.0)),
        ("space_amp", space_amp),
        ("peak_rss_mb", peak_rss_mb()),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

impl Outcome {
    /// A run that broke before anything could be measured.
    pub fn broken(ops: Ops) -> Outcome {
        Outcome { ops, metrics: BTreeMap::new(), digest: Fnv::default(), notes: Vec::new() }
    }
}

/// Latency samples of a repeated sequence of operations, kept apart by
/// the operation's place in the sequence (its *kind*: cycle 3, query 7,
/// cycle 5 of the Hilbert Curve run on MODIS). A repeat's operations
/// differ from one another by design, and from their own other executions
/// only by what the host did meanwhile — on a shared host, bursts and
/// minutes-long episodes that slow everything by a third. The reported
/// numbers therefore describe the *quiet repeat*: each kind at the first
/// decile of its executions (of a dozen, between the second and the third
/// fastest). Percentiles over the quiet repeat keep what belongs to the
/// work (checkpoint cycles, scale-out cycles, the slow queries) and shed
/// most of what belongs to the neighbours; over the same ten runs they
/// spread half as wide as with the per-kind median, and no wider than
/// with the per-kind minimum, which one lucky execution moves.
#[derive(Default)]
pub struct Samples {
    by_kind: Vec<Vec<f64>>,
}

impl Samples {
    pub fn push(&mut self, kind: usize, ms: f64) {
        if self.by_kind.len() <= kind {
            self.by_kind.resize_with(kind + 1, Vec::new);
        }
        self.by_kind[kind].push(ms);
    }

    fn kinds(&self) -> impl Iterator<Item = &Vec<f64>> {
        self.by_kind.iter().filter(|k| !k.is_empty())
    }

    /// The quiet repeat: every kind that completed at least once, at the
    /// first decile of its latencies.
    pub fn quiet(&self) -> Vec<f64> {
        self.kinds().map(|k| percentile(k, 10.0)).collect()
    }

    pub fn p50(&self) -> f64 {
        median(&self.quiet())
    }

    pub fn len(&self) -> usize {
        self.kinds().map(Vec::len).sum()
    }

    /// Sample counts, and the pooled percentiles for comparison.
    pub fn note(&self) -> String {
        let pooled: Vec<f64> = self.kinds().flatten().copied().collect();
        format!(
            "{} samples of {} kinds of operation, {} or more each; p50 and p90 are over the \
             kinds' first deciles (pooled over all samples: p50 {:.3}, p90 {:.3})",
            pooled.len(),
            self.kinds().count(),
            self.kinds().map(Vec::len).min().unwrap_or(0),
            median(&pooled),
            percentile(&pooled, 90.0),
        )
    }
}

/// Drive `cycles` through the runner, one latency sample each, stopping
/// at the first failure (later cycles would run against a broken world).
/// A cycle's kind is its number.
/// After every cycle — outside its timed region, in both passes — the
/// placement digest is taken for the layer ledger to check against.
pub fn drive_cycles(
    runner: &mut WorkloadRunner<'_>,
    cycles: std::ops::Range<usize>,
    ops: &mut Ops,
    cycle_ms: &mut Samples,
) -> (Vec<CycleReport>, Vec<u64>) {
    let mut reports = Vec::with_capacity(cycles.len());
    let mut placements = Vec::with_capacity(cycles.len());
    for c in cycles {
        trace::set_op(c as u64);
        ops.attempted += 1;
        let t = Instant::now();
        let result = trace::timed("workloads.run_cycle", || runner.run_cycle(c));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match result {
            Ok(report) => {
                cycle_ms.push(c, ms);
                reports.push(report);
                placements.push(placement_digest(runner.cluster()));
            }
            Err(e) => {
                ops.fail(format!("cycle {c}: {e}"));
                break;
            }
        }
    }
    (reports, placements)
}

/// Where every chunk lives, what every node carries and who holds the
/// replicas: equal digests mean equal placements.
pub fn placement_digest(cluster: &Cluster) -> u64 {
    let mut h = Fnv::default();
    for (key, node) in cluster.placements() {
        h.u64(u64::from(key.array.0));
        for &c in key.coords.as_slice() {
            h.i64(c);
        }
        h.u64(u64::from(node.0));
        for holder in cluster.replica_holders(&key) {
            h.u64(u64::from(holder.0));
        }
    }
    for node in cluster.nodes() {
        h.u64(node.used_bytes());
        h.u64(node.replica_bytes());
        h.u64(node.chunk_count() as u64);
    }
    h.0
}

/// Fold one cycle's deterministic counters (simulated seconds included:
/// they are a cost-model output, not a host time) into `h`.
pub fn digest_report(h: &mut Fnv, r: &CycleReport) {
    for v in [
        r.cycle as u64,
        r.nodes as u64,
        r.added_nodes as u64,
        r.removed_nodes as u64,
        r.moved_bytes,
        r.insert_bytes,
        r.retracted_cells,
        r.evicted_chunks as u64,
        r.evicted_bytes,
        r.crashed_nodes as u64,
        r.under_replicated as u64,
        r.repair_bytes,
        r.repair_retries,
        r.degraded_reads,
        r.gc_compacted_chunks as u64,
        r.view_delta_rows,
        r.view_rows_changed,
    ] {
        h.u64(v);
    }
    h.i64(r.gc_reclaimed_bytes);
    for v in [
        r.demand_gb,
        r.rsd_after_insert,
        r.phases.insert_secs,
        r.phases.reorg_secs,
        r.phases.query_secs,
        r.phases.repair_secs,
    ] {
        h.f64(v);
    }
    for q in r.suites.iter().flat_map(|s| &s.queries) {
        h.str(&q.name);
        digest_query_stats(h, &q.stats);
    }
}

pub fn digest_query_stats(h: &mut Fnv, s: &query_engine::QueryStats) {
    h.f64(s.elapsed_secs);
    for v in
        [s.bytes_scanned, s.bytes_shuffled, s.chunks_visited, s.chunks_pruned, s.remote_fetches]
    {
        h.u64(v);
    }
}

/// Bytes the nodes hold (primary and replica copies) per live user byte.
pub fn space_amp(cluster: &Cluster, live_user_bytes: u64) -> f64 {
    let stored: u64 = cluster.nodes().map(|n| n.used_bytes() + n.replica_bytes()).sum();
    stored as f64 / live_user_bytes.max(1) as f64
}

/// Every repeat of a workload must do exactly the same work.
pub fn check_same_digest(ops: &mut Ops, what: &str, digests: &[u64]) {
    let same = digests.windows(2).all(|w| w[0] == w[1]);
    ops.check(same, || format!("{what}: repeats disagree on their deterministic counters"));
}
