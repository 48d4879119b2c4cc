//! The benchmark's own `Workload` and `LogStore`: the program under test
//! receives only inputs generated during set-up, and every call the
//! runner makes back into the benchmark is a span boundary.

use crate::trace;
use array_model::{AttributeType, ChunkDescriptor};
use durability::{DurabilityError, FileLog, LogStore};
use elastic_core::GridHint;
use query_engine::{Catalog, ExecutionContext};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use workloads::{CellBatch, SuiteReport, Workload};

/// One workload's inputs, generated once by the real generator.
pub struct Inputs {
    /// Per cycle: the materialized batches (`None` for a metadata run).
    pub cells: Vec<Option<Vec<CellBatch>>>,
    /// Per cycle: the sampled descriptors of the metadata path.
    pub inserts: Vec<Vec<ChunkDescriptor>>,
    /// Per cycle: the derived-result descriptors.
    pub derived: Vec<Vec<ChunkDescriptor>>,
    /// Per cycle: the bytes a user handed over ([`user_bytes`]).
    pub user_bytes: Vec<u64>,
}

impl Inputs {
    /// Run the generators of `w` for every cycle.
    pub fn generate(w: &dyn Workload) -> Inputs {
        let cycles = 0..w.cycles();
        let cells: Vec<_> = cycles.clone().map(|c| w.cell_batch(c)).collect();
        // A materialized run never asks for the sampled descriptors.
        let inserts = cycles
            .clone()
            .map(|c| if cells[c].is_some() { Vec::new() } else { w.insert_batch(c) })
            .collect();
        let derived = cycles.map(|c| w.derived_batch(c)).collect();
        let user_bytes = cells.iter().map(|c| c.iter().flatten().map(user_bytes).sum()).collect();
        Inputs { cells, inserts, derived, user_bytes }
    }

    /// Rows a cycle inserts and retracts, summed over its arrays.
    pub fn cycle_rows(&self, cycle: usize) -> (u64, u64) {
        self.cells[cycle]
            .iter()
            .flatten()
            .fold((0, 0), |(ins, ret), b| (ins + b.len() as u64, ret + b.retraction_count() as u64))
    }
}

/// Bytes a user handed over in `batch`: 8 B per coordinate, each
/// attribute at its declared width, strings at their length. The
/// denominator of both amplification ratios, so it must not depend on
/// how the store encodes anything.
fn user_bytes(batch: &CellBatch) -> u64 {
    let rows = batch.rows();
    let n = rows.len() as u64;
    let mut bytes = n * rows.ndims() as u64 * 8;
    for col in rows.columns() {
        bytes += match col.column_type() {
            AttributeType::Str => {
                (0..rows.len()).map(|i| col.get_str(i).map_or(0, str::len) as u64).sum()
            }
            ty => n * ty.fixed_width() as u64,
        };
    }
    bytes
}

/// Replays [`Inputs`] to the runner: batches are *moved* out, so no timed
/// region holds generator or clone time. Everything that is not an input
/// (schemas, grid hint, the query suites) is the real workload's.
pub struct ReplayWorkload<W> {
    inner: W,
    /// Per cycle, the copies still to hand out. `recover` re-executes
    /// the cycles after the newest checkpoint, so those need a second
    /// copy ([`ReplayWorkload::refill`]).
    cells: RefCell<Vec<VecDeque<Vec<CellBatch>>>>,
    materialized: bool,
    inserts: Vec<Vec<ChunkDescriptor>>,
    derived: Vec<Vec<ChunkDescriptor>>,
}

impl<W: Workload> ReplayWorkload<W> {
    /// A replay of `inputs` (copied here, in the caller's untimed
    /// region) behind the schemas and suites of `inner`.
    pub fn new(inner: W, inputs: &Inputs) -> Self {
        let replay = ReplayWorkload {
            inner,
            cells: RefCell::new(vec![VecDeque::new(); inputs.cells.len()]),
            materialized: inputs.cells.iter().any(Option::is_some),
            inserts: inputs.inserts.clone(),
            derived: inputs.derived.clone(),
        };
        replay.refill(inputs, 0);
        replay
    }

    /// Add one more copy of every cycle from `from_cycle` on.
    pub fn refill(&self, inputs: &Inputs, from_cycle: usize) {
        let mut pool = self.cells.borrow_mut();
        for (c, batches) in inputs.cells.iter().enumerate().skip(from_cycle) {
            if let Some(batches) = batches {
                pool[c].push_back(batches.clone());
            }
        }
    }
}

impl<W: Workload> Workload for ReplayWorkload<W> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn cycles(&self) -> usize {
        self.inner.cycles()
    }

    fn register_arrays(&self, catalog: &mut Catalog) {
        self.inner.register_arrays(catalog)
    }

    fn insert_batch(&self, cycle: usize) -> Vec<ChunkDescriptor> {
        let _span = trace::span("bench.hand_out");
        self.inserts[cycle].clone()
    }

    fn cell_batch(&self, cycle: usize) -> Option<Vec<CellBatch>> {
        if !self.materialized {
            return None;
        }
        let _span = trace::span("bench.hand_out");
        let batches = self.cells.borrow_mut()[cycle].pop_front();
        Some(batches.expect("set-up pooled a copy for every run of every cycle"))
    }

    fn derived_batch(&self, cycle: usize) -> Vec<ChunkDescriptor> {
        let _span = trace::span("bench.hand_out");
        self.derived[cycle].clone()
    }

    fn grid_hint(&self) -> GridHint {
        self.inner.grid_hint()
    }

    fn quad_plane(&self) -> (usize, usize) {
        self.inner.quad_plane()
    }

    fn run_suites(&self, ctx: &ExecutionContext<'_>, cycle: usize) -> SuiteReport {
        let _span = trace::span("query.run_suites");
        self.inner.run_suites(ctx, cycle)
    }
}

/// What went through the log, counted in both passes (exact, so part of
/// the digest and the numerator of `write_amp`).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LogCounters {
    pub records: u64,
    pub log_bytes: u64,
    pub flushes: u64,
    pub checkpoints: u64,
    pub checkpoint_bytes: u64,
}

impl LogCounters {
    /// Log plus checkpoint bytes written per user byte inserted.
    pub fn write_amp(&self, user_bytes: u64) -> f64 {
        (self.log_bytes + self.checkpoint_bytes) as f64 / user_bytes.max(1) as f64
    }
}

/// The real [`FileLog`] with a span around every call. Forwards
/// unchanged — same files, same flush policy — and sits in the untraced
/// pass too (spans off), so both passes execute the same code.
pub struct TimedLog {
    inner: FileLog,
    counters: Arc<Mutex<LogCounters>>,
}

impl TimedLog {
    pub fn new(inner: FileLog) -> (TimedLog, Arc<Mutex<LogCounters>>) {
        let counters = Arc::new(Mutex::new(LogCounters::default()));
        (TimedLog { inner, counters: Arc::clone(&counters) }, counters)
    }

    fn counters(&self) -> std::sync::MutexGuard<'_, LogCounters> {
        self.counters.lock().expect("no panic while counting")
    }
}

impl LogStore for TimedLog {
    fn append(&mut self, bytes: &[u8]) -> Result<(), DurabilityError> {
        {
            let mut c = self.counters();
            c.records += 1;
            c.log_bytes += bytes.len() as u64;
        }
        trace::timed("durability.append", || self.inner.append(bytes))
    }

    fn flush(&mut self) -> Result<(), DurabilityError> {
        self.counters().flushes += 1;
        trace::timed("durability.flush", || self.inner.flush())
    }

    fn read_log(&mut self) -> Result<Vec<u8>, DurabilityError> {
        trace::timed("durability.read_log", || self.inner.read_log())
    }

    fn truncate_log(&mut self, len: u64) -> Result<(), DurabilityError> {
        self.inner.truncate_log(len)
    }

    fn write_checkpoint(&mut self, seq: u64, bytes: &[u8]) -> Result<(), DurabilityError> {
        {
            let mut c = self.counters();
            c.checkpoints += 1;
            c.checkpoint_bytes += bytes.len() as u64;
        }
        trace::timed("durability.checkpoint_write", || self.inner.write_checkpoint(seq, bytes))
    }

    fn checkpoint_seqs(&mut self) -> Result<Vec<u64>, DurabilityError> {
        self.inner.checkpoint_seqs()
    }

    fn read_checkpoint(&mut self, seq: u64) -> Result<Vec<u8>, DurabilityError> {
        trace::timed("durability.read_checkpoint", || self.inner.read_checkpoint(seq))
    }
}
