//! The differential suites' test kit: one way to observe a store, one
//! reference to hold it against, and the workloads both run on.
//!
//! - [`Probe`] asks a store the operator families over one array, and
//!   [`Answers`] is what came back, in bit-comparable form; [`State`] is
//!   a runner's every recoverable surface as codec bytes.
//! - [`Oracle`] is the from-scratch reference: each array's surviving
//!   cells in one flat map, folded from cell batches — a workload's or a
//!   write-ahead log's — without a runner, a cluster or a catalog.
//! - The workloads: [`SurvivorsOnly`] (the never-inserted twin of a
//!   retracting run), [`GrowRetract`] (a demand trough) and [`CellChurn`]
//!   (inserts, retractions and a derived chunk every cycle), beside the
//!   one runner [`config`] and the [`scripted_faults`] of the fault twins.
//!
//! A differential runs the system and a reference — a twin run or the
//! oracle — on the same input and compares what the probe sees.

#![forbid(unsafe_code)]

mod fixtures;
mod oracle;
mod probe;

pub use fixtures::{CellChurn, GrowRetract, SurvivorsOnly, CHURN};
pub use oracle::{window_oracle, Oracle};
pub use probe::{scan, Answers, Probe, State};

use array_model::{ArrayId, ChunkCoords, ChunkKey, ScalarValue, MAX_DIMS};
use cluster_sim::Slot;
use elastic_core::PartitionerKind;
use std::ops::ControlFlow;
use workloads::ais::AisWorkload;
use workloads::{FaultKind, FaultPlan, RunnerConfig, WorkloadRunner};

/// A cell as a scan and the oracle return it: coordinates, then values.
pub type Row = (Vec<i64>, Vec<ScalarValue>);

/// The runner config every suite starts from: `kind` over the default
/// two-node roster of `node_capacity`-byte nodes, growing by two at 80 %
/// demand, with the query suites off. Suites set the rest by struct
/// update (`RunnerConfig { replication: 2, ..config(kind, cap) }`).
pub fn config(kind: PartitionerKind, node_capacity: u64) -> RunnerConfig {
    RunnerConfig { node_capacity, partitioner: kind, run_queries: false, ..RunnerConfig::default() }
}

/// The suites' AIS run: `cycles` of `cells_per_cycle` broadcasts at 5 %
/// of the paper's scale from seed 21, with no vessel going dark.
pub fn ais(cycles: usize, cells_per_cycle: u64) -> AisWorkload {
    AisWorkload { cycles, scale: 0.05, seed: 21, cells_per_cycle, ..AisWorkload::default() }
}

/// The scripted schedule of the fault twins: a crash with flaky repair
/// flows, a crash landing right after the rebalance phase, and a revival
/// of the first casualty. Seeded by `k`.
pub fn scripted_faults(k: usize) -> FaultPlan {
    FaultPlan::new(0xE1A5 + k as u64)
        .at(1, FaultKind::Crash(1))
        .at(1, FaultKind::FlakyFlows { p: 0.1 })
        .at(2, FaultKind::CrashDuringRebalance(2))
        .at(3, FaultKind::Revive(1))
}

/// A numeric attribute as `f64`; panics on a string or a char.
pub fn num(v: &ScalarValue) -> f64 {
    v.as_f64().expect("numeric attribute")
}

/// Panics unless `array` holds chunks and every one carries a payload
/// whose bytes and cells equal its record's descriptor: the books
/// placement, the census and the cost model read. Reads each record off
/// the placement index ([`Cluster::band`] over the array's whole box); a
/// lost chunk has no payload. Returns the live cells they count.
///
/// [`Cluster::band`]: cluster_sim::Cluster::band
pub fn assert_books(runner: &WorkloadRunner<'_>, array: ArrayId) -> u64 {
    let n = runner.catalog().array(array).expect("a registered array").schema.ndims();
    let first = ChunkCoords::new(&[i64::MIN; MAX_DIMS][..n]);
    let last = ChunkCoords::new(&[i64::MAX; MAX_DIMS][..n]);
    let (mut chunks, mut cells) = (0usize, 0u64);
    let walk = runner.cluster().band(array, &first, &last, |coords, slot| {
        let key = ChunkKey::new(array, *coords);
        let Slot::Placed { record, .. } = slot else { panic!("{key}: lost") };
        let (desc, payload) = (record.descriptor(), record.payload());
        let payload = payload.unwrap_or_else(|| panic!("{key}: no payload"));
        assert_eq!(payload.byte_size(), desc.bytes, "{key}: descriptor bytes drifted");
        assert_eq!(payload.cell_count(), desc.cells, "{key}: descriptor cells drifted");
        chunks += 1;
        cells += desc.cells;
        ControlFlow::<()>::Continue(())
    });
    assert!(walk.is_continue());
    assert!(chunks > 0, "nothing ingested for {array}");
    cells
}
