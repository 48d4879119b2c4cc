//! Crash-consistent durability for the cycle driver: the write-ahead
//! log's event vocabulary, the config fingerprint that pins a log to the
//! run that wrote it, the recovery-time log scan, and [`Wal`] — the one
//! handle through which the runner touches its log.
//!
//! # Record vocabulary
//!
//! The runner appends one [`WalEvent::Genesis`] when it first touches an
//! empty log, then per cycle, in order: `CycleStart`, `Faults`, exactly
//! one of `InsertCells` (materialized path, the whole cell payload) or
//! `InsertMeta` (metadata path, the sampled descriptors), `Scale`,
//! `Derived`, `CycleEnd`. Every record is framed (magic + length +
//! CRC-32) in place, in the one buffer it was encoded into
//! ([`durability::begin_record`] / [`durability::seal_record`]), and
//! **`CycleEnd` is the commit point**: recovery discards any records
//! after the last `CycleEnd` — a crash mid-cycle rolls the whole cycle
//! back, never replays half of one.
//!
//! # Append-then-apply, recompute-and-cross-check
//!
//! Records are appended *before* the state transition they describe.
//! Because the whole driver is deterministic in `(workload, config)`,
//! replay re-executes each cycle from the generators and recomputes
//! every logged value; the log's role at replay is to **cross-check**
//! bit-for-bit (payload bytes compared verbatim) that the rebuilt run is
//! the run that was logged. Any drift — a different workload seed, an
//! edited config, a tampered record that still passes CRC — surfaces as
//! a typed [`DurabilityError::Mismatch`], never as a silently divergent
//! answer.
//!
//! # The `Wal` and its modes
//!
//! A runner holds `Option<Wal>`: `None` is durability off (a would-be
//! record costs one branch). A `Wal` is **live** — [`Wal::record`]
//! appends (genesis first, lazily); [`Wal::commit`] appends `CycleEnd`,
//! flushes per the fsync policy and checkpoints when one is due — or,
//! during recovery, **replaying** the logged cycles it has queued: the
//! same two calls byte-compare against their records and write nothing.
//!
//! # Checkpoints, and which of them recovery may use
//!
//! Every [`DurabilityConfig::checkpoint_every`] committed cycles the
//! runner stores its whole state (`World::encode_into` behind a
//! `fingerprint, next_cycle` header) as one framed record under
//! `seq = next_cycle`. Recovery ([`Wal::newest_checkpoint`]) resumes
//! from the newest **eligible** checkpoint and replays the committed
//! log suffix after it — from genesis if none is eligible; the log is
//! never compacted. A checkpoint is eligible when it
//!
//! 1. reads back as exactly one valid frame and decodes — a lost, torn
//!    or bit-flipped blob falls back to an older one;
//! 2. is what its name says: the header carries this run's fingerprint
//!    and `next_cycle == seq`. The key is a file name; checkpoint 2's
//!    bytes stored as checkpoint 4 (a restored backup) pass (1) yet
//!    describe another state — trusting the name resumed a six-cycle
//!    run at cycle 5 with 6 chunks placed instead of 10, and no error;
//! 3. is not ahead of the log: `seq` ≤ the cycles the scanned log
//!    commits. Checkpoint writes are synced, appends under
//!    [`FsyncPolicy::Never`] are not, so a crash can leave checkpoint 4
//!    over a log ending at cycle 1. Resuming there appends cycle 4
//!    after cycle 1, and once that checkpoint is lost the log is
//!    unrecoverable (`log says cycle 2, rebuilt cycle 4`). Skipping it
//!    keeps every recovered state a prefix of the durable log, which is
//!    what makes the fall-back in (1) sound.

use crate::cycle::{CycleError, RunnerConfig, ScalingPolicy};
use crate::faults::{FaultKind, FaultPlan};
use crate::spec::{CellBatch, Workload};
use array_model::{ChunkDescriptor, StringEncoding};
use durability::{
    begin_record, seal_record, ByteReader, ByteWriter, CodecError, DurabilityError, FsyncPolicy,
    LogStore, RecordReader, SharedLog, MAX_RECORD_LEN, RECORD_HEADER_LEN,
};
use elastic_core::hashing::splitmix64;
use elastic_core::PartitionerKind;
use std::collections::VecDeque;
use std::fmt;

/// Durability wiring for a [`WorkloadRunner`](crate::WorkloadRunner):
/// where the log lives, how often to checkpoint, and when appends reach
/// stable storage.
#[derive(Clone)]
pub struct DurabilityConfig {
    /// The shared log/checkpoint backend the runner appends through.
    pub log: SharedLog,
    /// Committed cycles between checkpoints. `0` disables checkpoints
    /// (recovery replays the whole log from genesis).
    pub checkpoint_every: usize,
    /// When appended records are forced to stable storage.
    pub fsync_policy: FsyncPolicy,
}

impl fmt::Debug for DurabilityConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DurabilityConfig")
            .field("log", &"<shared log>")
            .field("checkpoint_every", &self.checkpoint_every)
            .field("fsync_policy", &self.fsync_policy)
            .finish()
    }
}

const TAG_GENESIS: u8 = 0;
const TAG_CYCLE_START: u8 = 1;
const TAG_FAULTS: u8 = 2;
const TAG_INSERT_CELLS: u8 = 3;
const TAG_INSERT_META: u8 = 4;
const TAG_SCALE: u8 = 5;
const TAG_DERIVED: u8 = 6;
const TAG_CYCLE_END: u8 = 7;

/// One logical event in the write-ahead log. The runner's hot path
/// encodes straight from borrowed data (see the `write_*` helpers);
/// this owned form exists for decoding, inspection, and the codec
/// property tests.
#[derive(Debug, Clone, PartialEq)]
pub enum WalEvent {
    /// Written once, first, on an empty log: pins the log to one
    /// `(workload, config)` via `config_fingerprint`.
    Genesis {
        /// The writing run's config fingerprint.
        fingerprint: u64,
    },
    /// A cycle began.
    CycleStart {
        /// The 0-based cycle index.
        cycle: u64,
    },
    /// Digest of the fault schedule injected this cycle, cross-checked
    /// against the recovering config's recomputed schedule.
    Faults {
        /// The cycle the faults belong to.
        cycle: u64,
        /// `fault_digest` over the cycle's events.
        digest: u64,
    },
    /// The cycle's materialized insert payload, verbatim.
    InsertCells {
        /// Every array's cell batch for the cycle.
        batches: Vec<CellBatch>,
    },
    /// The cycle's metadata-only insert batch.
    InsertMeta {
        /// The sampled descriptors the driver placed.
        descs: Vec<ChunkDescriptor>,
    },
    /// The cycle's provisioning verdict.
    Scale {
        /// Nodes added.
        add: u64,
        /// Nodes the policy asked to release.
        remove: u64,
        /// Whether the per-cycle cap saturated.
        saturated: bool,
    },
    /// The derived (query-product) chunks stored at cycle end.
    Derived {
        /// Their descriptors.
        descs: Vec<ChunkDescriptor>,
    },
    /// The commit point: the cycle's records are final.
    CycleEnd {
        /// The cycle that committed.
        cycle: u64,
    },
}

// One writer per record kind: the tag byte, then the body, straight into
// whatever buffer the caller is assembling — the `Wal`'s kept frame on
// the runner's path, a fresh one under `WalEvent::encode`.

pub(crate) fn write_genesis(w: &mut ByteWriter, fingerprint: u64) {
    w.put_u8(TAG_GENESIS);
    w.put_u64(fingerprint);
}

pub(crate) fn write_cycle_start(w: &mut ByteWriter, cycle: u64) {
    w.put_u8(TAG_CYCLE_START);
    w.put_u64(cycle);
}

pub(crate) fn write_faults(w: &mut ByteWriter, cycle: u64, digest: u64) {
    w.put_u8(TAG_FAULTS);
    w.put_u64(cycle);
    w.put_u64(digest);
}

pub(crate) fn write_insert_cells(w: &mut ByteWriter, batches: &[CellBatch]) {
    w.put_u8(TAG_INSERT_CELLS);
    w.put_list(batches, |w, b| b.encode_into(w));
}

fn write_descs(w: &mut ByteWriter, tag: u8, descs: &[ChunkDescriptor]) {
    w.put_u8(tag);
    w.put_list(descs, |w, d| d.encode_into(w));
}

pub(crate) fn write_insert_meta(w: &mut ByteWriter, descs: &[ChunkDescriptor]) {
    write_descs(w, TAG_INSERT_META, descs)
}

pub(crate) fn write_derived(w: &mut ByteWriter, descs: &[ChunkDescriptor]) {
    write_descs(w, TAG_DERIVED, descs)
}

pub(crate) fn write_scale(w: &mut ByteWriter, add: u64, remove: u64, saturated: bool) {
    w.put_u8(TAG_SCALE);
    w.put_u64(add);
    w.put_u64(remove);
    w.put_bool(saturated);
}

pub(crate) fn write_cycle_end(w: &mut ByteWriter, cycle: u64) {
    w.put_u8(TAG_CYCLE_END);
    w.put_u64(cycle);
}

impl WalEvent {
    /// Encode the event as a record payload (unframed).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        match self {
            WalEvent::Genesis { fingerprint } => write_genesis(&mut w, *fingerprint),
            WalEvent::CycleStart { cycle } => write_cycle_start(&mut w, *cycle),
            WalEvent::Faults { cycle, digest } => write_faults(&mut w, *cycle, *digest),
            WalEvent::InsertCells { batches } => write_insert_cells(&mut w, batches),
            WalEvent::InsertMeta { descs } => write_insert_meta(&mut w, descs),
            WalEvent::Scale { add, remove, saturated } => {
                write_scale(&mut w, *add, *remove, *saturated)
            }
            WalEvent::Derived { descs } => write_derived(&mut w, descs),
            WalEvent::CycleEnd { cycle } => write_cycle_end(&mut w, *cycle),
        }
        w.into_bytes()
    }

    /// Decode a record payload. Total: every malformed input yields a
    /// typed [`CodecError`], never a panic.
    pub fn decode(payload: &[u8]) -> Result<WalEvent, CodecError> {
        let mut r = ByteReader::new(payload);
        let tag = r.u8("wal event tag")?;
        let event = match tag {
            TAG_GENESIS => WalEvent::Genesis { fingerprint: r.u64("genesis fingerprint")? },
            TAG_CYCLE_START => WalEvent::CycleStart { cycle: r.u64("cycle start index")? },
            TAG_FAULTS => WalEvent::Faults {
                cycle: r.u64("faults cycle index")?,
                digest: r.u64("faults digest")?,
            },
            TAG_INSERT_CELLS => {
                let batches = r.list("insert batch count", 1, CellBatch::decode_from)?;
                WalEvent::InsertCells { batches }
            }
            TAG_INSERT_META | TAG_DERIVED => {
                let descs = r.list(
                    "descriptor count",
                    ChunkDescriptor::MIN_ENCODED_LEN,
                    ChunkDescriptor::decode_from,
                )?;
                if tag == TAG_INSERT_META {
                    WalEvent::InsertMeta { descs }
                } else {
                    WalEvent::Derived { descs }
                }
            }
            TAG_SCALE => WalEvent::Scale {
                add: r.u64("scale add")?,
                remove: r.u64("scale remove")?,
                saturated: r.bool("scale saturated")?,
            },
            TAG_CYCLE_END => WalEvent::CycleEnd { cycle: r.u64("cycle end index")? },
            other => {
                return Err(CodecError::invalid("wal event tag", format!("unknown tag {other}")))
            }
        };
        r.finish("wal event")?;
        Ok(event)
    }
}

/// Human-readable name of a record's tag byte, for mismatch messages.
pub(crate) fn tag_name(payload: &[u8]) -> &'static str {
    match payload.first() {
        Some(&TAG_GENESIS) => "Genesis",
        Some(&TAG_CYCLE_START) => "CycleStart",
        Some(&TAG_FAULTS) => "Faults",
        Some(&TAG_INSERT_CELLS) => "InsertCells",
        Some(&TAG_INSERT_META) => "InsertMeta",
        Some(&TAG_SCALE) => "Scale",
        Some(&TAG_DERIVED) => "Derived",
        Some(&TAG_CYCLE_END) => "CycleEnd",
        _ => "empty record",
    }
}

fn fold(h: u64, v: u64) -> u64 {
    splitmix64(h ^ v)
}

fn fold_f64(h: u64, v: f64) -> u64 {
    fold(h, v.to_bits())
}

/// Fingerprint of everything that shapes a run's *state* evolution:
/// workload identity, roster/capacity, partitioner and its tunables,
/// scaling policy, encoding, replication, fault schedule, and GC
/// thresholds. Deliberately excludes `ingest_threads` (ignored: ingest
/// runs on one thread), `run_queries` (queries are read-only),
/// `cost` (costing shapes reports, not placement), and the durability
/// wiring itself. A recovering config whose fingerprint
/// disagrees with the log's genesis record is a different run, and
/// recovery refuses it.
///
/// The seed is the **format version** of everything the fingerprint
/// guards — log records and the checkpoint layout (`World::encode_into`).
/// `02`: a checkpoint carries its cells in a section of their own, read
/// out of the node stores (`01` wrote them inside the catalog section, as
/// a whole-array copy). Bumping it makes every older log and checkpoint a
/// typed fingerprint mismatch instead of bytes decoded under the wrong
/// layout.
pub(crate) fn config_fingerprint(
    config: &RunnerConfig,
    workload_name: &str,
    workload_cycles: usize,
) -> u64 {
    let mut h = fold(0x57414c5f46503032, 1); // "WAL_FP02", format version
    for b in workload_name.bytes() {
        h = fold(h, u64::from(b));
    }
    h = fold(h, workload_cycles as u64);
    h = fold(h, config.node_capacity);
    h = fold(h, config.initial_nodes as u64);
    let kind = PartitionerKind::ALL
        .iter()
        .position(|k| *k == config.partitioner)
        .expect("ALL lists every partitioner kind");
    h = fold(h, kind as u64);
    h = fold(h, u64::from(config.partitioner_config.virtual_nodes));
    h = fold(h, u64::from(config.partitioner_config.uniform_height));
    match config.partitioner_config.quad_plane {
        Some((a, b)) => {
            h = fold(h, 1);
            h = fold(h, a as u64);
            h = fold(h, b as u64);
        }
        None => h = fold(h, 0),
    }
    h = fold_f64(h, config.partitioner_config.append_fill);
    match &config.scaling {
        ScalingPolicy::Fixed => h = fold(h, 1),
        ScalingPolicy::FixedStep { add, trigger } => {
            h = fold(h, 2);
            h = fold(h, *add as u64);
            h = fold_f64(h, *trigger);
        }
        ScalingPolicy::Staircase(cfg) => {
            h = fold(h, 3);
            h = fold_f64(h, cfg.node_capacity_gb);
            h = fold(h, cfg.samples as u64);
            h = fold(h, cfg.plan_ahead as u64);
            h = fold_f64(h, cfg.trigger);
            h = fold_f64(h, cfg.shrink_margin);
        }
    }
    match config.string_encoding {
        StringEncoding::Plain => h = fold(h, 1),
        StringEncoding::Dict { cap } => {
            h = fold(h, 2);
            h = fold(h, u64::from(cap));
        }
    }
    h = fold(h, config.replication as u64);
    match &config.fault_plan {
        None => h = fold(h, 0),
        Some(plan) => {
            h = fold(h, 1);
            h = fold(h, plan.seed);
            h = fold_f64(h, plan.backoff.base_secs);
            h = fold_f64(h, plan.backoff.factor);
            h = fold(h, u64::from(plan.backoff.max_retries));
            h = fold(h, plan.events.len() as u64);
            for e in &plan.events {
                h = fold(h, e.cycle as u64);
                h = fold_kind(h, e.kind);
            }
        }
    }
    h = fold_f64(h, config.gc_tombstone_ratio);
    h
}

fn fold_kind(h: u64, kind: FaultKind) -> u64 {
    match kind {
        FaultKind::Crash(n) => fold(fold(h, 1), u64::from(n)),
        FaultKind::CrashDuringRebalance(n) => fold(fold(h, 2), u64::from(n)),
        FaultKind::CrashDuringRecovery { node, after_jobs } => {
            fold(fold(fold(h, 3), u64::from(node)), after_jobs as u64)
        }
        FaultKind::FlakyFlows { p } => fold_f64(fold(h, 4), p),
        FaultKind::Drain(n) => fold(fold(h, 5), u64::from(n)),
        FaultKind::Revive(n) => fold(fold(h, 6), u64::from(n)),
    }
}

/// Digest of the fault schedule one cycle injects, folding the per-cycle
/// flaky-flow sub-seed so replay also cross-checks the plan seed.
pub(crate) fn fault_digest(plan: Option<&FaultPlan>, cycle: usize) -> u64 {
    let mut h = fold(0xFA_17, cycle as u64);
    let Some(plan) = plan else { return h };
    h = fold(h, plan.cycle_seed(cycle));
    for kind in plan.events_at(cycle) {
        h = fold_kind(h, kind);
    }
    h
}

/// The committed content of a scanned log image.
pub(crate) struct LogScan {
    /// The genesis fingerprint; `None` when the log is empty (a fresh
    /// run that never wrote genesis).
    pub fingerprint: Option<u64>,
    /// Every **complete** cycle's record payloads (`CycleStart` through
    /// `CycleEnd` inclusive). The log is never compacted, so the grammar
    /// demands cycle indices `0, 1, 2, …`: position is index.
    pub cycles: Vec<VecDeque<Vec<u8>>>,
    /// Byte offset after the last commit point — everything beyond it
    /// (a partial cycle, or a torn append) is discardable.
    pub committed_len: u64,
}

/// Scan a log image into committed cycles. A torn tail is tolerated and
/// truncated at the last commit point; corruption — bad magic, bad CRC,
/// a record outside the genesis/cycle grammar — is a typed error, never
/// a guess.
pub(crate) fn scan_log(image: &[u8]) -> Result<LogScan, DurabilityError> {
    let mut reader = RecordReader::new(image);
    let mut scan = LogScan { fingerprint: None, cycles: Vec::new(), committed_len: 0 };
    // In-flight cycle: payloads accumulated since its CycleStart.
    let mut pending: Option<VecDeque<Vec<u8>>> = None;
    loop {
        let offset = reader.offset();
        let payload = match reader.next_record() {
            Ok(Some(p)) => p,
            // Clean end, or a torn append: the committed prefix stands.
            Ok(None) | Err(DurabilityError::Torn { .. }) => return Ok(scan),
            Err(e) => return Err(e),
        };
        let corrupt = |detail: String| DurabilityError::Corruption { offset, detail };
        let mut r = ByteReader::new(payload);
        let tag = r.u8("wal record tag").map_err(|e| corrupt(e.to_string()))?;
        match tag {
            TAG_GENESIS => {
                if scan.fingerprint.is_some() {
                    return Err(corrupt("second genesis record".to_string()));
                }
                let fp = r.u64("genesis fingerprint").map_err(|e| corrupt(e.to_string()))?;
                scan.fingerprint = Some(fp);
                scan.committed_len = reader.offset();
            }
            _ if scan.fingerprint.is_none() => {
                return Err(corrupt(format!("first record is {}, not Genesis", tag_name(payload))));
            }
            TAG_CYCLE_START => {
                if pending.is_some() {
                    return Err(corrupt("CycleStart inside an open cycle".to_string()));
                }
                let cycle = r.u64("cycle start index").map_err(|e| corrupt(e.to_string()))?;
                if cycle != scan.cycles.len() as u64 {
                    let next = scan.cycles.len();
                    return Err(corrupt(format!("CycleStart for {cycle}, expected cycle {next}")));
                }
                pending = Some(VecDeque::from([payload.to_vec()]));
            }
            TAG_CYCLE_END => {
                let Some(mut records) = pending.take() else {
                    return Err(corrupt("CycleEnd outside an open cycle".to_string()));
                };
                let end = r.u64("cycle end index").map_err(|e| corrupt(e.to_string()))?;
                if end != scan.cycles.len() as u64 {
                    let cycle = scan.cycles.len();
                    return Err(corrupt(format!("CycleEnd for {end} closes cycle {cycle}")));
                }
                records.push_back(payload.to_vec());
                scan.cycles.push(records);
                scan.committed_len = reader.offset();
            }
            _ => {
                let Some(records) = pending.as_mut() else {
                    let name = tag_name(payload);
                    return Err(corrupt(format!("{name} record outside an open cycle")));
                };
                records.push_back(payload.to_vec());
            }
        }
    }
}

/// A [`DurabilityError::Mismatch`]: on `what`, the log (or the
/// recovering config) promised `want`, recovery found `got`.
pub(crate) fn mismatch(
    what: impl Into<String>,
    want: impl Into<String>,
    got: impl Into<String>,
) -> DurabilityError {
    DurabilityError::Mismatch { what: what.into(), expected: want.into(), actual: got.into() }
}

fn durability_err(cycle: usize) -> impl FnOnce(DurabilityError) -> CycleError {
    move |source| CycleError::Durability { cycle, source }
}

/// A durable runner's log: its wiring (where it lives, when it syncs
/// and checkpoints), the run it belongs to, and its mode.
pub(crate) struct Wal {
    wiring: DurabilityConfig,
    /// [`config_fingerprint`] of this run: the genesis record's payload
    /// and every checkpoint's first field, cross-checked on recovery.
    fingerprint: u64,
    /// Whether the log opens with a genesis record yet. A fresh runner
    /// appends it ahead of its first record, not at construction, which
    /// stays infallible.
    genesis_written: bool,
    /// The committed cycles recovery has still to re-execute, oldest
    /// first, each as its logged payloads. While any are left the log is
    /// in replay mode: records are compared against the front cycle's
    /// (front first) instead of appended.
    replay: VecDeque<VecDeque<Vec<u8>>>,
    /// The one buffer every record and checkpoint is encoded into, sealed
    /// in and written from ([`durability::begin_record`]): kept, so after
    /// the first checkpoint nothing on the log path allocates or copies a
    /// payload.
    frame: Vec<u8>,
    /// Longest payload a frame may carry: [`MAX_RECORD_LEN`], lowered
    /// only by the test of the refusal.
    record_cap: u32,
}

impl Wal {
    /// The log `config` asks for, live and unopened; `None` when the run
    /// is not durable.
    pub(crate) fn for_run(config: &RunnerConfig, workload: &dyn Workload) -> Option<Wal> {
        let wiring = config.durability.clone()?;
        let fingerprint = config_fingerprint(config, workload.name(), workload.cycles());
        Some(Wal {
            wiring,
            fingerprint,
            genesis_written: false,
            replay: VecDeque::new(),
            frame: Vec::new(),
            record_cap: MAX_RECORD_LEN,
        })
    }

    /// Every [`LogStore`] call: lock, call, and map failure — a mutex
    /// poisoned by a panicked writer included — to a typed error.
    fn with_log<T>(
        &self,
        cycle: usize,
        op: impl FnOnce(&mut dyn LogStore) -> Result<T, DurabilityError>,
    ) -> Result<T, CycleError> {
        match self.wiring.log.lock() {
            Ok(mut log) => op(&mut *log),
            Err(_) => Err(DurabilityError::Io {
                context: "lock the log".to_string(),
                source: std::io::Error::other("mutex poisoned: a writer panicked mid-operation"),
            }),
        }
        .map_err(durability_err(cycle))
    }

    /// Encode one payload into the kept frame, behind a header
    /// placeholder.
    fn encode(&mut self, body: impl FnOnce(&mut ByteWriter)) {
        let mut w = begin_record(std::mem::take(&mut self.frame));
        body(&mut w);
        self.frame = w.into_bytes();
    }

    /// Seal the frame [`Wal::encode`] filled — length checked first, a
    /// payload no frame can carry is a typed error and nothing is written
    /// — and hand it to `write`.
    fn write_frame(
        &mut self,
        cycle: usize,
        write: impl FnOnce(&mut dyn LogStore, &[u8]) -> Result<(), DurabilityError>,
    ) -> Result<(), CycleError> {
        seal_record(&mut self.frame, self.record_cap).map_err(durability_err(cycle))?;
        self.with_log(cycle, |log| write(log, &self.frame))
    }

    /// Append one record; [`FsyncPolicy::Always`] flushes it.
    fn append(
        &mut self,
        cycle: usize,
        body: impl FnOnce(&mut ByteWriter),
    ) -> Result<(), CycleError> {
        self.encode(body);
        let flush = self.wiring.fsync_policy == FsyncPolicy::Always;
        self.write_frame(cycle, |log, record| {
            log.append(record)?;
            if flush {
                log.flush()?;
            }
            Ok(())
        })
    }

    /// The write-ahead choke point: every record a cycle produces comes
    /// here *before* the transition it describes is applied. Live mode
    /// appends it (behind the genesis record, on a new log); replay mode
    /// byte-compares its payload with the logged one — divergence is a
    /// typed [`DurabilityError::Mismatch`].
    pub(crate) fn record(
        &mut self,
        cycle: usize,
        body: impl FnOnce(&mut ByteWriter),
    ) -> Result<(), CycleError> {
        if self.replay.is_empty() {
            if !self.genesis_written {
                let fingerprint = self.fingerprint;
                self.append(cycle, |w| write_genesis(w, fingerprint))?;
                self.genesis_written = true;
            }
            return self.append(cycle, body);
        }
        self.encode(body);
        let recomputed = &self.frame[RECORD_HEADER_LEN..];
        let logged = self.replay.front_mut().and_then(VecDeque::pop_front);
        if logged.as_deref() == Some(recomputed) {
            return Ok(());
        }
        let sized = |p: &[u8], how| format!("{} bytes {how} ({})", p.len(), tag_name(p));
        Err(durability_err(cycle)(mismatch(
            format!("cycle {cycle} record stream"),
            logged.map_or("no further record: log exhausted mid-cycle".into(), |l| {
                sized(&l, "logged")
            }),
            sized(recomputed, "recomputed"),
        )))
    }

    /// Commit the cycle. Live: append `CycleEnd`, flush under
    /// [`FsyncPolicy::PerCycle`], and if a checkpoint is due store what
    /// `encode_state` writes. Replay: check `CycleEnd`, then move on to
    /// the next logged cycle (after the last, the log is live again).
    pub(crate) fn commit(
        &mut self,
        cycle: usize,
        encode_state: impl FnOnce(&mut ByteWriter),
    ) -> Result<(), CycleError> {
        self.record(cycle, |w| write_cycle_end(w, cycle as u64))?;
        if let Some(queue) = self.replay.pop_front() {
            // Nothing can be left over: the scan ends a logged cycle at
            // its `CycleEnd`, which the record above just matched.
            debug_assert!(queue.is_empty());
            return Ok(());
        }
        if self.wiring.fsync_policy == FsyncPolicy::PerCycle {
            self.with_log(cycle, |log| log.flush())?;
        }
        let next_cycle = cycle as u64 + 1;
        let every = self.wiring.checkpoint_every as u64;
        if every > 0 && next_cycle.is_multiple_of(every) {
            let fingerprint = self.fingerprint;
            self.encode(|w| {
                w.put_u64(fingerprint);
                w.put_u64(next_cycle);
                encode_state(w);
            });
            self.write_frame(cycle, |log, blob| log.write_checkpoint(next_cycle, blob))?;
        }
        Ok(())
    }

    /// True while logged cycles are being re-executed.
    pub(crate) fn replaying(&self) -> bool {
        !self.replay.is_empty()
    }

    /// Recovery, step one: read the log, cross-check its genesis
    /// fingerprint, and cut whatever follows the last commit point (a
    /// torn append, a half-written cycle or genesis) so that appends
    /// extend a valid log. The committed cycles — their number is
    /// returned — are now queued for replay.
    pub(crate) fn open(&mut self) -> Result<usize, CycleError> {
        let image = self.with_log(0, |log| log.read_log())?;
        let scan = scan_log(&image).map_err(durability_err(0))?;
        if let Some(logged) = scan.fingerprint {
            if logged != self.fingerprint {
                return Err(durability_err(0)(mismatch(
                    "genesis fingerprint",
                    format!("{:#018x} (this workload + config)", self.fingerprint),
                    format!("{logged:#018x} (logged)"),
                )));
            }
            self.genesis_written = true;
        }
        if scan.committed_len < image.len() as u64 {
            self.with_log(0, |log| log.truncate_log(scan.committed_len))?;
        }
        self.replay = scan.cycles.into();
        Ok(self.replay.len())
    }

    /// Recovery, step two: the newest *eligible* checkpoint (module
    /// docs: valid, honestly named, not ahead of the queued cycles) as
    /// `(next_cycle, state)`, the cycles it covers dropped from the
    /// replay queue; `None`: replay from genesis.
    pub(crate) fn newest_checkpoint<T>(
        &mut self,
        decode: impl Fn(&[u8]) -> Result<T, DurabilityError>,
    ) -> Result<Option<(usize, T)>, CycleError> {
        let seqs = self.with_log(0, |log| log.checkpoint_seqs())?;
        for &seq in seqs.iter().rev().filter(|&&seq| seq <= self.replay.len() as u64) {
            let Ok(blob) = self.with_log(0, |log| log.read_checkpoint(seq)) else { continue };
            if let Ok(state) = self.checkpoint_state(&blob, seq).and_then(&decode) {
                self.replay.drain(..seq as usize);
                return Ok(Some((seq as usize, state)));
            }
        }
        Ok(None)
    }

    /// Unframe a checkpoint and check its header; the rest is the state.
    fn checkpoint_state<'b>(&self, blob: &'b [u8], seq: u64) -> Result<&'b [u8], DurabilityError> {
        let mut frames = RecordReader::new(blob);
        let (Some(payload), None) = (frames.next_record()?, frames.next_record()?) else {
            let detail = "checkpoint blob is not exactly one record".to_string();
            return Err(DurabilityError::Corruption { offset: frames.offset(), detail });
        };
        let mut r = ByteReader::new(payload);
        let header = (r.u64("checkpoint fingerprint")?, r.u64("checkpoint next cycle")?);
        if header != (self.fingerprint, seq) {
            let (want, got) = (format!("{:x?}", (self.fingerprint, seq)), format!("{header:x?}"));
            return Err(mismatch("checkpoint header (fingerprint, next cycle), in hex", want, got));
        }
        Ok(&payload[payload.len() - r.remaining()..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SyntheticWorkload;
    use durability::MemLog;
    use std::sync::{Arc, Mutex};

    /// What `WAL_FP01` — the format in which a checkpoint's cells sat in
    /// its catalog section — fingerprinted the default config over the
    /// default synthetic workload as; computed at the last commit that
    /// wrote that format.
    const FP01_OF_THE_DEFAULT_RUN: u64 = 0x1bda_e535_e72c_44d0;

    /// A log or a checkpoint written before the cells section existed is
    /// refused by its fingerprint — typed, before a byte of its state is
    /// decoded under the new layout.
    #[test]
    fn a_checkpoint_or_log_of_the_previous_format_is_refused_typed() {
        let workload = SyntheticWorkload::default();
        let log = Arc::new(Mutex::new(MemLog::new()));
        let config = RunnerConfig {
            durability: Some(DurabilityConfig {
                log: log.clone(),
                checkpoint_every: 1,
                fsync_policy: FsyncPolicy::PerCycle,
            }),
            ..RunnerConfig::default()
        };
        let mut wal = Wal::for_run(&config, &workload).expect("durable");
        assert_ne!(wal.fingerprint, FP01_OF_THE_DEFAULT_RUN, "the format version was bumped");

        // A checkpoint under the old fingerprint, well framed and honestly
        // named: its state (here: bytes no decoder would accept) is never
        // looked at.
        let old_checkpoint = |seq: u64| {
            let mut w = begin_record(Vec::new());
            w.put_u64(FP01_OF_THE_DEFAULT_RUN);
            w.put_u64(seq);
            w.put_bytes(b"a catalog section with the cells inside");
            let mut blob = w.into_bytes();
            seal_record(&mut blob, MAX_RECORD_LEN).unwrap();
            blob
        };
        let refused = wal.checkpoint_state(&old_checkpoint(1), 1).unwrap_err();
        assert!(
            matches!(&refused, DurabilityError::Mismatch { what, .. } if what.contains("fingerprint")),
            "{refused}"
        );
        // Recovery skips it without calling the decoder, and replays from
        // genesis instead.
        wal.record(0, |w| write_cycle_start(w, 0)).unwrap();
        wal.commit(0, |w| w.put_u8(1)).unwrap();
        log.lock().unwrap().write_checkpoint(1, &old_checkpoint(1)).unwrap();
        let mut recovering = Wal::for_run(&config, &workload).expect("durable");
        assert_eq!(recovering.open(), Ok(1));
        let decoded = recovering.newest_checkpoint(|_| -> Result<(), DurabilityError> {
            panic!("an old-format checkpoint reached the decoder")
        });
        assert_eq!(decoded, Ok(None));

        // A whole log of the old format: refused at its genesis record.
        let old_log = Arc::new(Mutex::new(MemLog::new()));
        let mut genesis = begin_record(Vec::new());
        write_genesis(&mut genesis, FP01_OF_THE_DEFAULT_RUN);
        let mut genesis = genesis.into_bytes();
        seal_record(&mut genesis, MAX_RECORD_LEN).unwrap();
        old_log.lock().unwrap().append(&genesis).unwrap();
        let mut config = config;
        config.durability.as_mut().unwrap().log = old_log;
        let refused = Wal::for_run(&config, &workload).expect("durable").open().unwrap_err();
        assert!(
            matches!(
                &refused,
                CycleError::Durability { source: DurabilityError::Mismatch { what, .. }, .. }
                    if what == "genesis fingerprint"
            ),
            "{refused}"
        );
    }

    /// A payload no frame may carry — a checkpoint of a large enough
    /// world is one, `Wal::commit` hands over the whole encoded `World` —
    /// fails the cycle with a typed error and writes nothing, where
    /// `frame_record`'s assertion used to abort the process at the commit
    /// point. Driven with the cap lowered (the real one is 256 MiB).
    #[test]
    fn an_oversized_record_or_checkpoint_is_a_typed_error_and_is_not_written() {
        let log = Arc::new(Mutex::new(MemLog::new()));
        let config = RunnerConfig {
            durability: Some(DurabilityConfig {
                log: log.clone(),
                checkpoint_every: 1,
                fsync_policy: FsyncPolicy::PerCycle,
            }),
            ..RunnerConfig::default()
        };
        let mut wal = Wal::for_run(&config, &SyntheticWorkload::default()).expect("durable");
        wal.record_cap = 64;
        let too_large = |len| CycleError::Durability {
            cycle: 0,
            source: DurabilityError::RecordTooLarge { len, cap: 64 },
        };

        wal.record(0, |w| write_cycle_start(w, 0)).expect("nine bytes fit");
        let before = log.lock().unwrap().bytes().to_vec();
        let refused = wal.record(0, |w| w.put_bytes(&[7; 100])).unwrap_err();
        assert_eq!(refused, too_large(104));
        assert_eq!(log.lock().unwrap().bytes(), before, "a refused record is not appended");

        // The commit marker fits; the state behind it does not.
        let refused = wal.commit(0, |w| w.put_bytes(&[7; 100])).unwrap_err();
        assert_eq!(refused, too_large(8 + 8 + 104));
        assert_eq!(log.lock().unwrap().checkpoint_seqs(), Ok(vec![]));

        // The log is still one recovery accepts, and the frames after the
        // refused ones are unaffected by them.
        wal.record(1, |w| write_cycle_start(w, 1)).unwrap();
        wal.commit(1, |w| w.put_u8(1)).expect("a small checkpoint fits");
        let mut store = log.lock().unwrap();
        assert_eq!(store.checkpoint_seqs(), Ok(vec![2]));
        let scan = scan_log(store.bytes()).expect("every appended frame is valid");
        assert_eq!(scan.fingerprint, Some(wal.fingerprint));
        assert_eq!(scan.cycles.len(), 2);
        assert_eq!(scan.committed_len, store.len());
    }
}
