//! What only the benchmark harness still calls, kept for it until it stops
//! naming these items. Every item here is deprecated, so a new caller in
//! the workspace fails `clippy -D warnings`.

use crate::partition::{route_all, Partitioner, RouteEpoch};
use array_model::ChunkDescriptor;
use cluster_sim::NodeId;

/// [`route_all`] under its old name; `threads` is ignored.
#[deprecated(note = "benchmark only; deleted by Benchmark PR A")]
pub fn route_batch(
    p: &dyn Partitioner,
    batch: &[ChunkDescriptor],
    epoch: &RouteEpoch<'_>,
    _threads: usize,
) -> Vec<NodeId> {
    route_all(p, batch, epoch)
}
