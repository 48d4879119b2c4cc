//! Crash-consistent recovery differentials: a workload run is crashed
//! at **every record boundary** its write-ahead log ever reached, and
//! recovery must rebuild the exact oracle state — catalog, cluster
//! books, every copy's cells, partitioner table, provisioner history,
//! view states, all byte-compared through their codecs — then finish
//! the run to the same end state. Torn and corrupted images must land on a
//! valid prefix state or a typed error; never a divergent answer.
//!
//! The reference is a run without durability, observed after every cycle
//! as a `testkit::State` (every surface's codec bytes); the materialized
//! workload is `testkit::CellChurn`. One leg folds the log's own records into
//! a `testkit::Oracle` and holds it to the workload-fed one.

use array_model::{ArrayId, ArraySchema, ChunkCoords, ChunkDescriptor, ChunkKey, StringEncoding};
use durability::{shared, DurabilityError, FsyncPolicy, LogStore, MemLog};
use elastic_core::{GridHint, PartitionerKind};
use query_engine::view::{AggKind, GroupKeyFn, ValueFn, ViewDef};
use query_engine::{Catalog, ExecutionContext, StoredArray};
use std::sync::{Arc, Mutex};
use testkit::{CellChurn, Oracle, State, CHURN};
use workloads::{
    CycleError, DurabilityConfig, FaultKind, FaultPlan, RunnerConfig, SuiteReport, Workload,
    WorkloadRunner,
};

// ---------------------------------------------------------------------
// Harness: a log that snapshots itself at every record boundary.
// ---------------------------------------------------------------------

/// Wraps a [`MemLog`], cloning the whole store after every append and
/// checkpoint write. Each clone is the *time-consistent* durable image
/// at that boundary — log bytes and checkpoint set as they jointly
/// stood — which is exactly what a crash at that instant would leave.
/// (Truncating the final image instead would pair an early log with
/// late checkpoints: a physically unrealizable state.)
struct SnapshottingLog {
    inner: MemLog,
    snaps: Arc<Mutex<Vec<MemLog>>>,
}

impl SnapshottingLog {
    fn new(snaps: Arc<Mutex<Vec<MemLog>>>) -> Self {
        SnapshottingLog { inner: MemLog::new(), snaps }
    }

    fn snap(&self) {
        self.snaps.lock().expect("snaps mutex").push(self.inner.clone());
    }
}

impl LogStore for SnapshottingLog {
    fn append(&mut self, bytes: &[u8]) -> Result<(), DurabilityError> {
        self.inner.append(bytes)?;
        self.snap();
        Ok(())
    }
    fn flush(&mut self) -> Result<(), DurabilityError> {
        self.inner.flush()
    }
    fn read_log(&mut self) -> Result<Vec<u8>, DurabilityError> {
        self.inner.read_log()
    }
    fn truncate_log(&mut self, len: u64) -> Result<(), DurabilityError> {
        self.inner.truncate_log(len)
    }
    fn write_checkpoint(&mut self, seq: u64, bytes: &[u8]) -> Result<(), DurabilityError> {
        self.inner.write_checkpoint(seq, bytes)?;
        self.snap();
        Ok(())
    }
    fn checkpoint_seqs(&mut self) -> Result<Vec<u64>, DurabilityError> {
        self.inner.checkpoint_seqs()
    }
    fn read_checkpoint(&mut self, seq: u64) -> Result<Vec<u8>, DurabilityError> {
        self.inner.read_checkpoint(seq)
    }
}

// ---------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------

/// The churn the crash matrices run: `cycles` of `cells` cells, 64-cell
/// chunks along `x`, 37 distinct strings, and derived chunks of 4 KB and
/// up. At 8 KB nodes it forces scale-outs.
fn churn(cycles: usize, cells: usize) -> CellChurn {
    CellChurn { cycles, cells, chunk: 64, tags: 37, grid: 32, derived: [4096, 17, 10] }
}

const ARR: ArrayId = ArrayId(0);

/// Tiny metadata-only workload — a log small enough to truncate at
/// every single byte offset. With `collide`, cycle 1 re-emits cycle 0's
/// chunk keys: a typed ingest failure in the middle of a run.
struct MetaWorkload {
    cycles: usize,
    collide: bool,
}

impl Workload for MetaWorkload {
    fn name(&self) -> &'static str {
        "meta"
    }
    fn cycles(&self) -> usize {
        self.cycles
    }
    fn register_arrays(&self, catalog: &mut Catalog) {
        let schema = ArraySchema::parse("M<v:double>[x=0:*,1]").unwrap();
        catalog.register(StoredArray::from_descriptors(ARR, schema, []));
    }
    fn insert_batch(&self, cycle: usize) -> Vec<ChunkDescriptor> {
        let cycle = if self.collide && cycle == 1 { 0 } else { cycle };
        (0..2u64)
            .map(|i| {
                ChunkDescriptor::new(
                    ChunkKey::new(ARR, ChunkCoords::new([(cycle as i64) * 2 + i as i64])),
                    1000 + cycle as u64 * 100 + i,
                    5,
                )
            })
            .collect()
    }
    fn derived_batch(&self, _cycle: usize) -> Vec<ChunkDescriptor> {
        Vec::new()
    }
    fn grid_hint(&self) -> GridHint {
        GridHint::new(vec![16])
    }
    fn run_suites(&self, _ctx: &ExecutionContext<'_>, _cycle: usize) -> SuiteReport {
        SuiteReport::default()
    }
}

// ---------------------------------------------------------------------
// Config + oracle plumbing.
// ---------------------------------------------------------------------

fn view_defs() -> Vec<ViewDef> {
    let group: GroupKeyFn = Arc::new(|c, _| vec![c[0].div_euclid(64)]);
    let value: ValueFn = Arc::new(|_, v| testkit::num(&v[0]));
    vec![ViewDef::aggregate("sum-by-chunk", CHURN, Vec::new(), group, value, AggKind::Sum)]
}

fn base_config(kind: PartitionerKind, encoding: StringEncoding, k: usize) -> RunnerConfig {
    // Fault coverage at k > 1: a crash with failover, then a revival —
    // both logged as the cycle's fault digest and replayed on recovery.
    let fault_plan =
        (k > 1).then(|| FaultPlan::new(7).at(1, FaultKind::Crash(1)).at(2, FaultKind::Revive(1)));
    RunnerConfig {
        initial_nodes: if k > 1 { 3 } else { 2 },
        string_encoding: encoding,
        replication: k,
        fault_plan,
        ..testkit::config(kind, 8 * 1024)
    }
}

fn meta_config() -> RunnerConfig {
    let mut cfg = base_config(PartitionerKind::ConsistentHash, StringEncoding::default(), 1);
    cfg.node_capacity = 100_000; // metadata bytes are sampled, keep roster stable
    cfg
}

fn durable(cfg: &RunnerConfig, log: durability::SharedLog) -> RunnerConfig {
    durable_with(cfg, log, FsyncPolicy::Always)
}

fn durable_with(
    cfg: &RunnerConfig,
    log: durability::SharedLog,
    policy: FsyncPolicy,
) -> RunnerConfig {
    let mut out = cfg.clone();
    out.durability = Some(DurabilityConfig { log, checkpoint_every: 2, fsync_policy: policy });
    out
}

/// Run `w` durably to its end, `defs` registered, and return the image
/// its log store holds.
fn durable_image(w: &dyn Workload, cfg: &RunnerConfig, defs: &[ViewDef]) -> MemLog {
    let log = mem_log();
    let mut live = WorkloadRunner::new(w, durable(cfg, log.clone()));
    defs.iter().for_each(|def| live.register_view(def.clone()));
    live.run_all().expect("durable run completes");
    let image = log.lock().expect("mem log").clone();
    image
}

/// Run the workload WITHOUT durability, capturing the serialized world
/// after every cycle. `states[c]` is the state with `c` complete
/// cycles — what a recovery landing at `start_cycle() == c` must equal.
fn oracle_states(w: &dyn Workload, cfg: &RunnerConfig, defs: &[ViewDef]) -> Vec<State> {
    let mut runner = WorkloadRunner::new(w, RunnerConfig { durability: None, ..cfg.clone() });
    defs.iter().for_each(|def| runner.register_view(def.clone()));
    let mut states = vec![State::of(&runner)];
    for c in 0..w.cycles() {
        runner.run_cycle(c).expect("oracle cycle");
        states.push(State::of(&runner));
    }
    states
}

/// The headline differential: run durably, then crash at every record
/// boundary the log ever reached and demand recovery lands on the
/// oracle state for its cycle count — then finishes the workload to
/// the oracle's end state.
fn crash_at_every_boundary(kind: PartitionerKind, encoding: StringEncoding, k: usize) {
    let w = churn(4, 512);
    let cfg = base_config(kind, encoding, k);
    let defs = view_defs();
    let states = oracle_states(&w, &cfg, &defs);

    let snaps: Arc<Mutex<Vec<MemLog>>> = Arc::new(Mutex::new(Vec::new()));
    let mut live =
        WorkloadRunner::new(&w, durable(&cfg, shared(SnapshottingLog::new(Arc::clone(&snaps)))));
    defs.iter().for_each(|def| live.register_view(def.clone()));
    live.run_all().expect("durable run completes");
    let ctx = format!("{kind} {encoding:?} k={k}");
    State::of(&live).assert_same(states.last().unwrap(), &format!("{ctx}: live end"));

    let snaps = snaps.lock().expect("snaps mutex");
    assert!(snaps.len() > w.cycles() * 6, "one snapshot per record: got {}", snaps.len());
    for (i, snap) in snaps.iter().enumerate() {
        let rec = WorkloadRunner::recover(&w, durable(&cfg, shared(snap.clone())), defs.clone())
            .unwrap_or_else(|e| panic!("{ctx}: boundary {i}: recovery failed: {e}"));
        let c = rec.start_cycle();
        assert!(c <= w.cycles(), "{ctx}: boundary {i}: start cycle {c} out of range");
        State::of(&rec).assert_same(&states[c], &format!("{ctx}: boundary {i} cycle {c}"));
        let mut rec = rec;
        rec.run_all().unwrap_or_else(|e| panic!("{ctx}: boundary {i}: continuation failed: {e}"));
        State::of(&rec)
            .assert_same(states.last().unwrap(), &format!("{ctx}: boundary {i} continuation"));
    }
}

// ---------------------------------------------------------------------
// Tests.
// ---------------------------------------------------------------------

/// The always-on slice of the matrix: the default partitioner,
/// dictionary strings, replicas, and a fault schedule.
#[test]
fn crash_at_every_record_boundary_recovers_bit_identically() {
    crash_at_every_boundary(PartitionerKind::ConsistentHash, StringEncoding::default(), 2);
}

/// The full matrix — every partitioner × dict/plain × k ∈ {1, 2}.
/// Release-mode CI runs this (`durability-smoke`); too slow for the
/// default debug test pass.
#[test]
#[ignore = "full matrix: run in release via cargo test --release -- --ignored"]
fn full_crash_matrix_all_partitioners() {
    for kind in PartitionerKind::ALL {
        for encoding in [StringEncoding::default(), StringEncoding::Plain] {
            for k in [1usize, 2] {
                crash_at_every_boundary(kind, encoding, k);
            }
        }
    }
}

/// A staircase run carries provisioner history through checkpoint and
/// replay; the state pins it bit-for-bit.
#[test]
fn staircase_provisioner_history_survives_recovery() {
    use workloads::ScalingPolicy;
    let w = churn(3, 256);
    let mut cfg = base_config(PartitionerKind::RoundRobin, StringEncoding::default(), 1);
    cfg.scaling = ScalingPolicy::Staircase(elastic_core::StaircaseConfig {
        node_capacity_gb: 8.0 * 1024.0 / 1e9,
        ..elastic_core::StaircaseConfig::paper_defaults()
    });
    let defs = view_defs();
    let states = oracle_states(&w, &cfg, &defs);

    let last = durable_image(&w, &cfg, &defs);
    let rec = WorkloadRunner::recover(&w, durable(&cfg, shared(last)), defs.clone())
        .expect("staircase recovery");
    assert_eq!(rec.start_cycle(), w.cycles());
    assert!(rec.provisioner().expect("staircase provisioner").history().len() == w.cycles());
    State::of(&rec).assert_same(states.last().unwrap(), "staircase");
}

/// Torn-tail fuzz: the final log image truncated at EVERY byte offset.
/// Recovery must land on the valid committed prefix (state-equal to the
/// oracle at that cycle count) or a typed error — and never panic.
#[test]
fn torn_tail_at_every_byte_offset_lands_on_valid_prefix() {
    let w = MetaWorkload { cycles: 3, collide: false };
    let cfg = meta_config();
    let states = oracle_states(&w, &cfg, &[]);

    let full = durable_image(&w, &cfg, &[]);

    for cut in 0..=full.len() {
        let mut torn = full.clone();
        torn.crash_truncate(cut);
        match WorkloadRunner::recover(&w, durable(&cfg, shared(torn)), Vec::new()) {
            Ok(rec) => {
                let c = rec.start_cycle();
                assert!(c <= w.cycles(), "cut {cut}: start cycle {c} out of range");
                State::of(&rec).assert_same(&states[c], &format!("cut {cut} cycle {c}"));
            }
            Err(e) => panic!("cut {cut}: pure truncation must always recover, got: {e}"),
        }
    }
}

/// Bit-flip fuzz: corrupting any committed byte must yield either a
/// typed durability error or a recovery onto a valid prefix state
/// (when the flip turns the record into a torn tail) — never a
/// divergent answer, never a panic.
#[test]
fn corrupted_bytes_yield_typed_errors_or_valid_prefixes() {
    let w = MetaWorkload { cycles: 3, collide: false };
    let cfg = meta_config();
    let states = oracle_states(&w, &cfg, &[]);

    let full = durable_image(&w, &cfg, &[]);

    let mut typed_errors = 0usize;
    for offset in (0..full.len()).step_by(3) {
        for mask in [0x01u8, 0x80] {
            let mut bad = full.clone();
            bad.corrupt_byte(offset, mask);
            match WorkloadRunner::recover(&w, durable(&cfg, shared(bad)), Vec::new()) {
                Ok(rec) => {
                    let c = rec.start_cycle();
                    State::of(&rec)
                        .assert_same(&states[c], &format!("corrupt {offset}^{mask:#x} cycle {c}"));
                }
                Err(e) => {
                    assert!(
                        matches!(e, CycleError::Durability { .. }),
                        "corrupt {offset}^{mask:#x}: wrong error type: {e}"
                    );
                    typed_errors += 1;
                }
            }
        }
    }
    assert!(typed_errors > 0, "some corruption must surface as typed errors");
}

/// Checkpoint faults: a lost newest checkpoint falls back to an older
/// one, a corrupted one is skipped, and with none usable the log
/// replays from genesis — all landing on the exact end state.
#[test]
fn damaged_checkpoints_fall_back_without_divergence() {
    let w = MetaWorkload { cycles: 4, collide: false };
    let cfg = meta_config();
    let states = oracle_states(&w, &cfg, &[]);

    let full = durable_image(&w, &cfg, &[]);

    // checkpoint_every = 2 over 4 cycles → checkpoints at seq 2 and 4.
    let final_state = states.last().unwrap();
    let recover_from = |log: MemLog, ctx: &str| {
        let rec = WorkloadRunner::recover(&w, durable(&cfg, shared(log)), Vec::new())
            .unwrap_or_else(|e| panic!("{ctx}: recovery failed: {e}"));
        assert_eq!(rec.start_cycle(), w.cycles(), "{ctx}");
        State::of(&rec).assert_same(final_state, ctx);
    };

    let mut lost_newest = full.clone();
    lost_newest.drop_checkpoint(4);
    recover_from(lost_newest, "newest checkpoint lost");

    let mut corrupt_newest = full.clone();
    corrupt_newest.corrupt_checkpoint(4, 20, 0xff);
    recover_from(corrupt_newest, "newest checkpoint corrupted");

    let mut all_gone = full.clone();
    all_gone.drop_checkpoint(4);
    all_gone.corrupt_checkpoint(2, 9, 0x10);
    recover_from(all_gone, "every checkpoint unusable: replay from genesis");
}

/// The real `std::fs` backend end to end: run durably into a log
/// directory, drop every handle (the process "restarts"), reopen the
/// same directory, and recover to the exact oracle end state — WAL
/// bytes and the atomically-renamed checkpoints both read back through
/// actual files.
#[test]
fn file_backend_survives_a_process_restart() {
    let dir = std::env::temp_dir().join(format!("wal-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let w = MetaWorkload { cycles: 4, collide: false };
    let cfg = meta_config();
    let states = oracle_states(&w, &cfg, &[]);

    {
        let log = durability::FileLog::open(&dir).expect("open file log");
        let mut live = WorkloadRunner::new(&w, durable(&cfg, shared(log)));
        live.run_all().expect("file-backed run");
    }

    let log = durability::FileLog::open(&dir).expect("reopen file log");
    assert_eq!(
        {
            let mut l = durability::FileLog::open(&dir).expect("probe handle");
            l.checkpoint_seqs().expect("file checkpoint seqs")
        },
        vec![2, 4],
        "checkpoints renamed into place"
    );
    let rec = WorkloadRunner::recover(&w, durable(&cfg, shared(log)), Vec::new())
        .expect("file-backed recovery");
    assert_eq!(rec.start_cycle(), w.cycles());
    State::of(&rec).assert_same(states.last().unwrap(), "file backend");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Recovering with a *different* configuration than the one that wrote
/// the log is refused with a typed fingerprint mismatch — a recovered
/// run can never silently diverge from its log.
#[test]
fn mismatched_config_is_refused() {
    let w = MetaWorkload { cycles: 2, collide: false };
    let cfg = base_config(PartitionerKind::ConsistentHash, StringEncoding::default(), 1);

    let full = durable_image(&w, &cfg, &[]);

    let mut other = base_config(PartitionerKind::RoundRobin, StringEncoding::default(), 1);
    other.durability = durable(&cfg, shared(full)).durability;
    let err = WorkloadRunner::recover(&w, other, Vec::new())
        .err()
        .expect("mismatched config must be refused");
    assert!(
        matches!(
            &err,
            CycleError::Durability { source: DurabilityError::Mismatch { what, .. }, .. }
                if what.contains("fingerprint")
        ),
        "wrong error: {err}"
    );

    // And recovery without a durability config is a typed error too.
    let mut none = cfg.clone();
    none.durability = None;
    assert!(matches!(
        WorkloadRunner::recover(&w, none, Vec::new()),
        Err(CycleError::Durability { .. })
    ));
}

// ---------------------------------------------------------------------
// Checkpoint eligibility, fsync policies, and what a crash really loses.
// ---------------------------------------------------------------------

/// A [`MemLog`] the test keeps a typed handle to (to crash it, misfile
/// its checkpoints, read its bytes) while runners append through the
/// same store.
type Mem = Arc<Mutex<MemLog>>;

fn mem_log() -> Mem {
    Arc::new(Mutex::new(MemLog::new()))
}

/// What `mem` would hold after a crash: everything past its last flush
/// is gone; checkpoints (atomic, synced writes) stay.
fn crashed(mem: &Mem) -> MemLog {
    let mut image = mem.lock().expect("mem log").clone();
    image.crash();
    image
}

/// A checkpoint is identified by what it *says* it is, not by the name
/// it is stored under: checkpoint 2's bytes filed as checkpoint 4 (a
/// restored backup, a bad copy) validate end to end — CRC, fingerprint,
/// every codec — but describe the state after two cycles, not four.
/// Recovery must skip it exactly as it skips a bit flip.
#[test]
fn misfiled_checkpoint_is_skipped_not_trusted_by_name() {
    let w = MetaWorkload { cycles: 6, collide: false };
    let cfg = meta_config();
    let states = oracle_states(&w, &cfg, &[]);

    let mem = mem_log();
    let mut live = WorkloadRunner::new(&w, durable(&cfg, mem.clone()));
    for c in 0..5 {
        live.run_cycle(c).expect("durable cycle");
    }
    let mut image = mem.lock().expect("mem log").clone();
    let two = image.read_checkpoint(2).expect("checkpoint 2");
    image.write_checkpoint(4, &two).expect("misfile checkpoint 2 as 4");

    let mut rec = WorkloadRunner::recover(&w, durable(&cfg, shared(image)), Vec::new())
        .expect("recovery falls back to the honest checkpoint");
    assert_eq!(rec.start_cycle(), 5);
    assert_eq!(rec.cluster().total_chunks(), 10, "five cycles x two chunks");
    State::of(&rec).assert_same(&states[5], "misfiled checkpoint");
    rec.run_all().expect("continuation");
    State::of(&rec).assert_same(states.last().unwrap(), "misfiled checkpoint continuation");
}

/// A checkpoint write is synced; under `FsyncPolicy::Never` the log
/// under it is not. After a crash the checkpoint store can therefore be
/// *ahead* of the durable log. Resuming from such a checkpoint would
/// append cycle 4 after cycle 1 — a log that recovers only as long as
/// that checkpoint survives. A recovered state must be a prefix of the
/// durable log.
#[test]
fn checkpoint_ahead_of_the_durable_log_is_skipped() {
    let w = MetaWorkload { cycles: 6, collide: false };
    let cfg = meta_config();
    let states = oracle_states(&w, &cfg, &[]);

    let mem = mem_log();
    let mut synced =
        WorkloadRunner::new(&w, durable_with(&cfg, mem.clone(), FsyncPolicy::PerCycle));
    synced.run_cycle(0).expect("cycle 0");
    synced.run_cycle(1).expect("cycle 1");
    drop(synced);
    let lazy_cfg = durable_with(&cfg, mem.clone(), FsyncPolicy::Never);
    let mut lazy = WorkloadRunner::recover(&w, lazy_cfg, Vec::new()).expect("clean reopen");
    assert_eq!(lazy.start_cycle(), 2);
    lazy.run_cycle(2).expect("cycle 2");
    lazy.run_cycle(3).expect("cycle 3");
    drop(lazy);
    assert_eq!(mem.lock().expect("mem log").checkpoint_seqs().expect("seqs"), vec![2, 4]);

    // The crash keeps checkpoint 4 and a log that ends after cycle 1.
    let survivor: Mem = Arc::new(Mutex::new(crashed(&mem)));
    let mut rec = WorkloadRunner::recover(&w, durable(&cfg, survivor.clone()), Vec::new())
        .expect("recovery from the durable prefix");
    assert_eq!(
        rec.start_cycle(),
        2,
        "the durable log commits two cycles, whatever checkpoint 4 says"
    );
    State::of(&rec).assert_same(&states[2], "checkpoint ahead of log");
    rec.run_all().expect("continuation");
    State::of(&rec).assert_same(states.last().unwrap(), "checkpoint ahead of log, finished");
    drop(rec);

    // The log the recovered runner extended stands on its own: with
    // every checkpoint lost it still replays from genesis.
    let mut bare = survivor.lock().expect("mem log").clone();
    for seq in bare.checkpoint_seqs().expect("seqs") {
        bare.drop_checkpoint(seq);
    }
    let rec = WorkloadRunner::recover(&w, durable(&cfg, shared(bare)), Vec::new())
        .expect("genesis replay of the extended log");
    assert_eq!(rec.start_cycle(), w.cycles());
    State::of(&rec).assert_same(states.last().unwrap(), "genesis replay");
}

/// A failed cycle's partial effects were never logged, so a durable
/// run cannot press on past it and stay replayable: it stops at the
/// first failing cycle, and the log it leaves behind recovers to the
/// last committed cycle.
#[test]
fn durable_run_stops_at_its_first_failing_cycle() {
    let cfg = meta_config();
    let w = MetaWorkload { cycles: 3, collide: true };
    let mut oracle = WorkloadRunner::new(&w, cfg.clone());
    oracle.run_cycle(0).expect("cycle 0 is clean");

    let mem = mem_log();
    let mut live = WorkloadRunner::new(&w, durable(&cfg, mem.clone()));
    let err = live.run_all().expect_err("a durable run does not continue past a failed cycle");
    assert!(matches!(err, CycleError::Ingest { cycle: 1, .. }), "got {err}");
    drop(live);

    let rec = WorkloadRunner::recover(&w, durable(&cfg, mem), Vec::new())
        .expect("the failed cycle never committed; recovery rolls it back");
    assert_eq!(rec.start_cycle(), 1);
    State::of(&rec).assert_same(&State::of(&oracle), "rolled back to one cycle");
}

/// Recover `image`, check the recovered state against the oracle at
/// its cycle count, then finish the run to the oracle's end state.
/// Returns the cycle recovery resumed at.
fn recover_and_finish(
    w: &dyn Workload,
    cfg: RunnerConfig,
    defs: &[ViewDef],
    states: &[State],
    ctx: &str,
) -> usize {
    let mut rec = WorkloadRunner::recover(w, cfg, defs.to_vec())
        .unwrap_or_else(|e| panic!("{ctx}: recovery failed: {e}"));
    let c = rec.start_cycle();
    State::of(&rec).assert_same(&states[c], &format!("{ctx}: recovered at {c}"));
    rec.run_all().unwrap_or_else(|e| panic!("{ctx}: continuation failed: {e}"));
    State::of(&rec).assert_same(states.last().unwrap(), &format!("{ctx}: finished"));
    c
}

/// For each fsync policy: run `c` cycles for every `c`, crash (the
/// unflushed tail is lost, synced checkpoints are not), recover, finish.
/// `Always` and `PerCycle` lose nothing that committed; `Never` loses
/// the whole log and keeps checkpoints the log no longer covers. Then
/// the newest surviving checkpoint is lost as well, and recovery must
/// still succeed from what is left.
fn crash_under_every_fsync_policy(kind: PartitionerKind, encoding: StringEncoding, k: usize) {
    let w = churn(4, 512);
    let cfg = base_config(kind, encoding, k);
    let defs = view_defs();
    let states = oracle_states(&w, &cfg, &defs);
    for policy in [FsyncPolicy::Always, FsyncPolicy::PerCycle, FsyncPolicy::Never] {
        for c in 0..=w.cycles() {
            let ctx = format!("{kind} {encoding:?} k={k} {policy:?} crash after {c}");
            let mem = mem_log();
            let mut live = WorkloadRunner::new(&w, durable_with(&cfg, mem.clone(), policy));
            defs.iter().for_each(|def| live.register_view(def.clone()));
            for cycle in 0..c {
                live.run_cycle(cycle).unwrap_or_else(|e| panic!("{ctx}: cycle {cycle}: {e}"));
            }
            drop(live);
            let mut image = crashed(&mem);
            let durable_cycles = if policy == FsyncPolicy::Never { 0 } else { c };
            let resumed = recover_and_finish(
                &w,
                durable_with(&cfg, shared(image.clone()), policy),
                &defs,
                &states,
                &ctx,
            );
            assert_eq!(resumed, durable_cycles, "{ctx}: committed cycles that survive the crash");
            if let Some(newest) = image.checkpoint_seqs().expect("seqs").pop() {
                image.drop_checkpoint(newest);
                let ctx = format!("{ctx}, checkpoint {newest} lost");
                let cfg = durable_with(&cfg, shared(image), policy);
                assert_eq!(recover_and_finish(&w, cfg, &defs, &states, &ctx), durable_cycles);
            }
        }
    }
}

/// The always-on slice: the default partitioner, replicas, a fault plan.
#[test]
fn crash_under_every_fsync_policy_recovers_a_durable_prefix() {
    crash_under_every_fsync_policy(PartitionerKind::ConsistentHash, StringEncoding::default(), 2);
}

/// Every partitioner × dict/plain strings, k = 2 with the fault plan.
#[test]
#[ignore = "full matrix: run in release via cargo test --release -- --ignored"]
fn fsync_policy_matrix() {
    for kind in PartitionerKind::ALL {
        for encoding in [StringEncoding::default(), StringEncoding::Plain] {
            crash_under_every_fsync_policy(kind, encoding, 2);
        }
    }
}

/// Decoding a checkpoint and encoding the decoded state is the identity
/// on bytes: a runner stopped mid-run, recovered (checkpoint 2 decoded,
/// cycle 2 replayed) and driven to the end leaves the same WAL image
/// and the same checkpoint blobs as the run that was never interrupted.
#[test]
fn recovered_run_writes_the_same_log_and_checkpoints() {
    let w = churn(4, 256);
    let cfg = base_config(PartitionerKind::ConsistentHash, StringEncoding::default(), 2);
    let defs = view_defs();

    let mut a = durable_image(&w, &cfg, &defs);

    let resumed = mem_log();
    let mut first = WorkloadRunner::new(&w, durable(&cfg, resumed.clone()));
    defs.iter().for_each(|def| first.register_view(def.clone()));
    for c in 0..3 {
        first.run_cycle(c).expect("first leg");
    }
    drop(first);
    let mut second = WorkloadRunner::recover(&w, durable(&cfg, resumed.clone()), defs.clone())
        .expect("mid-run recovery");
    assert_eq!(second.start_cycle(), 3);
    second.run_all().expect("second leg");

    let mut b = resumed.lock().expect("mem log").clone();
    assert!(a.bytes() == b.bytes(), "WAL images differ");
    assert_eq!(a.checkpoint_seqs().expect("seqs"), vec![2, 4]);
    assert_eq!(b.checkpoint_seqs().expect("seqs"), vec![2, 4]);
    for seq in [2, 4] {
        assert!(
            a.read_checkpoint(seq).expect("blob") == b.read_checkpoint(seq).expect("blob"),
            "checkpoint {seq} blobs differ"
        );
    }
}

/// The oracle, fed from the log: a durable run's records decoded one by
/// one (`RecordReader`, `WalEvent::decode`) and each committed cycle's
/// cell batches folded make the same `testkit::Oracle` as the workload's
/// own batches, and the runner recovered from that log holds exactly the
/// oracle's cells.
#[test]
fn the_log_folds_into_the_oracle_the_workload_feeds() {
    let w = churn(4, 512);
    let cfg = base_config(PartitionerKind::ConsistentHash, StringEncoding::default(), 2);
    let image = durable_image(&w, &cfg, &[]);
    let from_log = Oracle::from_log(&w, image.bytes());
    assert!(from_log == Oracle::after(&w, w.cycles), "the log's cells differ from the workload's");

    let rec =
        WorkloadRunner::recover(&w, durable(&cfg, shared(image)), Vec::new()).expect("recovery");
    assert_eq!(rec.start_cycle(), w.cycles);
    from_log.assert_stored(&rec, CHURN, "recovered from the log");
}

/// At k = 1 a crash loses chunks and the run goes on: a retraction that
/// reaches a lost chunk skips it, so every cycle after the crash is
/// logged. The fault suite's `Crash(0)` run (node 0 revived at cycle 2),
/// logged to a `MemLog` under every scheme, recovers to the live run's
/// state — from its final image, whose checkpoint lists the lost chunks'
/// entries with no record, and from its log alone, which replays the
/// crash.
#[test]
fn a_k1_run_that_loses_chunks_recovers_to_its_live_state() {
    let w = churn(6, 512);
    let defs = view_defs();
    let mut lost = 0;
    for kind in PartitionerKind::ALL {
        let faults = FaultPlan::new(7).at(1, FaultKind::Crash(0)).at(2, FaultKind::Revive(0));
        let cfg = RunnerConfig {
            initial_nodes: 4,
            fault_plan: Some(faults),
            ..testkit::config(kind, 8 * 1024)
        };
        let mem = mem_log();
        let mut live = WorkloadRunner::new(&w, durable(&cfg, mem.clone()));
        defs.iter().for_each(|def| live.register_view(def.clone()));
        live.run_all().unwrap_or_else(|e| panic!("{kind}: live run: {e}"));
        lost += live.cluster().replica_census().lost;
        let want = State::of(&live);
        let mut image = mem.lock().expect("mem log").clone();
        for from in ["its final image", "its log alone"] {
            let cfg = durable(&cfg, shared(image.clone()));
            let rec = WorkloadRunner::recover(&w, cfg, defs.clone())
                .unwrap_or_else(|e| panic!("{kind}: recovery from {from}: {e}"));
            assert_eq!(rec.start_cycle(), w.cycles, "{kind}: recovery from {from}");
            State::of(&rec).assert_same(&want, &format!("{kind}: recovered from {from}"));
            for seq in image.checkpoint_seqs().expect("seqs") {
                image.drop_checkpoint(seq);
            }
        }
    }
    assert!(lost > 0, "no scheme lost a chunk to the crash");
}
