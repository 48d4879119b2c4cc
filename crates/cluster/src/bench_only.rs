//! What only the benchmark harness still calls, kept for it until it stops
//! naming these items: the old retraction walk over placed payloads and
//! the threaded form of [`Cluster::place_all`]. Every method here is
//! deprecated, so a new caller in the workspace fails `clippy -D warnings`.

use super::Cluster;
use crate::error::{ClusterError, Result};
use crate::node::NodeId;
use array_model::{Chunk, ChunkDescriptor, ChunkKey};
use std::sync::Arc;

/// What a cell retraction did to one placed chunk
/// ([`Cluster::retract_cells`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChunkRetraction {
    /// Cells tombstoned (each counted once, however many copies hold it).
    pub retracted: u64,
    /// Requested cells with no live match — already retracted or never
    /// inserted. Retraction is idempotent, not an error.
    pub missing: u64,
    /// Bytes freed on the primary copy (each replica ledger shrinks by
    /// the same amount).
    pub freed_bytes: u64,
    /// Live cells the chunk still holds afterwards.
    pub remaining_cells: u64,
}

/// What compacting a placed chunk reclaimed ([`Cluster::compact_chunk`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkCompaction {
    /// Byte-size delta (positive = bytes reclaimed; a spill reversal can
    /// make the rebuilt column marginally larger).
    pub reclaimed_bytes: i64,
    /// The chunk's byte size after the rebuild.
    pub bytes: u64,
    /// Live cells — unchanged by compaction.
    pub cells: u64,
}

impl Cluster {
    /// [`Cluster::place_all`] under its old name; `threads` is ignored.
    #[deprecated(note = "benchmark only; deleted by Benchmark PR A")]
    pub fn place_batch(
        &mut self,
        batch: &[ChunkDescriptor],
        routes: &[NodeId],
        _threads: usize,
    ) -> Result<()> {
        self.place_all(batch, routes)
    }

    /// Retract materialized cells from a placed chunk: the script is
    /// matched against the chunk's payload by the array model's batch
    /// kernel (`Chunk::match_retractions`), the matched rows are
    /// tombstoned on one copy of it, and that handle is installed
    /// ([`Cluster::install_payload`]) — the shrunken descriptor replaces
    /// the record's (byte ledgers, every holder's replica ledger and the
    /// O(1) census moments follow the delta exactly), so the attach-time
    /// invariant (`desc.bytes == chunk.byte_size()`) keeps holding.
    ///
    /// `cells_flat` is row-major flattened cell coordinates at the chunk
    /// key's arity; a ragged slice is [`ClusterError::RaggedCells`].
    /// Cells with no live match count as `missing` — retraction is
    /// idempotent, not an error. Requires the payload to be attached
    /// ([`ClusterError::NoPayload`] otherwise) and the chunk not to be
    /// lost ([`ClusterError::ChunkLost`]).
    #[deprecated(note = "benchmark only; deleted by Benchmark PR A")]
    pub fn retract_cells(&mut self, key: &ChunkKey, cells_flat: &[i64]) -> Result<ChunkRetraction> {
        let arity = key.coords.ndims().max(1);
        if !cells_flat.len().is_multiple_of(arity) {
            return Err(ClusterError::RaggedCells { key: *key, len: cells_flat.len() });
        }
        let handle = self.primary_payload_mut(key)?;
        let mut matched = Vec::with_capacity(cells_flat.len() / arity);
        handle.match_retractions(cells_flat.chunks_exact(arity), &mut matched);
        let rows = matched.iter().flatten().copied();
        let retracted = rows.clone().count() as u64;
        let mut freed_bytes = 0;
        if retracted > 0 {
            // Copy-on-write: a handle a caller still shares is copied
            // once here, and the copy is installed below.
            freed_bytes = Arc::make_mut(handle).tombstone_rows(rows);
        }
        let fresh = Arc::clone(handle);
        let remaining_cells = fresh.cell_count();
        if retracted > 0 {
            self.install_payload(key, fresh)?;
        }
        let missing = matched.len() as u64 - retracted;
        Ok(ChunkRetraction { retracted, missing, freed_bytes, remaining_cells })
    }

    /// Compact a placed chunk's payload: rebuild it from its surviving
    /// rows (see `Chunk::compact`), dropping tombstones and dangling
    /// dictionary entries, and install the rebuilt handle — the same
    /// invariant discipline as [`Cluster::retract_cells`].
    #[deprecated(note = "benchmark only; deleted by Benchmark PR A")]
    pub fn compact_chunk(&mut self, key: &ChunkKey) -> Result<ChunkCompaction> {
        let handle = self.primary_payload_mut(key)?;
        let mut reclaimed_bytes = 0;
        if handle.tombstone_count() > 0 {
            reclaimed_bytes = Arc::make_mut(handle).compact();
        }
        let fresh = Arc::clone(handle);
        let (bytes, cells) = (fresh.byte_size(), fresh.cell_count());
        self.install_payload(key, fresh)?;
        Ok(ChunkCompaction { reclaimed_bytes, bytes, cells })
    }

    /// [`Cluster::primary_payload`], to write through.
    fn primary_payload_mut(&mut self, key: &ChunkKey) -> Result<&mut Arc<Chunk>> {
        let (_, slot, _) = self.payload_holder(key)?;
        // `payload_holder` has just read the cells out of this slot.
        Ok(self.record_mut(slot).payload_slot().as_mut().expect("payload_holder found it"))
    }
}
