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

mod fixtures;
mod oracle;
mod probe;

pub use fixtures::{CellChurn, GrowRetract, SurvivorsOnly, CHURN};
pub use oracle::{window_oracle, Oracle};
pub use probe::{scan, Answers, Probe, State};

use array_model::{ArrayId, ScalarValue};
use cluster_sim::Slot;
use elastic_core::PartitionerKind;
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
/// whose bytes and cells equal its descriptor: the books placement, the
/// census and the cost model read. Returns the live cells they count.
pub fn assert_books(runner: &WorkloadRunner<'_>, array: ArrayId) -> u64 {
    let stored = runner.catalog().array(array).expect("a registered array");
    assert!(!stored.descriptors.is_empty(), "nothing ingested for {array}");
    for desc in stored.descriptors.values() {
        let key = desc.key;
        let payload = runner.cluster().payload(&key).unwrap_or_else(|| panic!("{key}: no payload"));
        assert_eq!(payload.byte_size(), desc.bytes, "{key}: descriptor bytes drifted");
        assert_eq!(payload.cell_count(), desc.cells, "{key}: descriptor cells drifted");
    }
    stored.descriptors.values().map(|d| d.cells).sum()
}

/// Panics unless every partitioned array's catalog descriptors are the
/// chunks the cluster's placement index holds for it: key for key, in
/// key order, with their records' bytes and cells ([`Cluster::band`]
/// over the whole array). A lost chunk has no record, so only its key is
/// compared: the catalog's copy is the one book of its size. No query
/// reads the catalog's copy of a partitioned array, so a drift between
/// the two would surface only after a checkpoint restores that copy.
///
/// [`Cluster::band`]: cluster_sim::Cluster::band
pub fn assert_catalog_is_the_index(runner: &WorkloadRunner<'_>, tag: &str) {
    use std::ops::ControlFlow;
    for stored in runner.catalog().arrays().filter(|a| !a.replicated) {
        let n = stored.schema.ndims();
        let first = array_model::ChunkCoords::new(&[i64::MIN; array_model::MAX_DIMS][..n]);
        let last = array_model::ChunkCoords::new(&[i64::MAX; array_model::MAX_DIMS][..n]);
        let mut indexed = Vec::new();
        let walk = runner.cluster().band(stored.id, &first, &last, |coords, slot| {
            let desc = match slot {
                Slot::Placed { record, .. } => Some(record.descriptor()),
                Slot::Lost { .. } => stored.descriptors.get(coords),
            };
            indexed.push((stored.key_for(coords), desc.map(|d| (d.bytes, d.cells))));
            ControlFlow::<()>::Continue(())
        });
        assert!(walk.is_continue());
        let catalog: Vec<_> =
            stored.descriptors.values().map(|d| (d.key, Some((d.bytes, d.cells)))).collect();
        assert_eq!(
            catalog, indexed,
            "{tag}: {}'s catalog copy left the placement index",
            stored.id
        );
    }
}
