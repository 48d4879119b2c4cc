//! What only the benchmark harness still calls, kept for it until it stops
//! naming these items: the whole-array retraction walk, the chunk
//! handles it re-aliases, and the type of the string-encoding settings it
//! passes along. Every item here is deprecated, so a new caller in the
//! workspace fails `clippy -D warnings`.

use super::*;

/// Ignored: every string column is dictionary-encoded. Only the type of
/// `RunnerConfig::string_encoding` and of `build_cell_array_encoded`'s
/// `encoding` argument, which the benchmark harness passes along.
#[deprecated(note = "benchmark only; deleted by Benchmark PR A")]
#[derive(Debug, Clone, Copy, Default)]
pub struct StringEncoding;

impl Array {
    /// [`Array::delete_cells`], additionally handing each retracted
    /// row's coordinates and attribute values to `captured`, **in script
    /// order** — the negative half of a cycle's logical delta, read
    /// before storage is reclaimed. Missing cells produce no capture.
    #[deprecated(note = "benchmark only; deleted by Benchmark PR A")]
    pub fn delete_cells_capturing(
        &mut self,
        flat: &[i64],
        captured: impl FnMut(&[i64], Vec<ScalarValue>),
    ) -> Result<RetractOutcome> {
        self.retract(flat, captured)
    }

    /// Drop every empty chunk (all cells retracted), returning the
    /// positions removed in row-major order.
    #[deprecated(note = "benchmark only; deleted by Benchmark PR A")]
    pub fn prune_empty(&mut self) -> Vec<ChunkCoords> {
        let empty: Vec<ChunkCoords> =
            self.chunks.iter().filter(|(_, c)| c.is_empty()).map(|(c, _)| *c).collect();
        for c in &empty {
            self.chunks.remove(c);
        }
        empty
    }

    /// Compact one chunk (see [`Chunk::compact`]), returning the byte
    /// delta, or `None` when the position is vacant or tombstone-free.
    /// The whole-array counterpart of the cluster's per-chunk
    /// `compact_chunk`, for a caller that keeps a reference copy in step
    /// with the node stores.
    #[deprecated(note = "benchmark only; deleted by Benchmark PR A")]
    pub fn compact_chunk(&mut self, coords: &ChunkCoords) -> Option<i64> {
        let chunk = self.chunks.get_mut(coords)?;
        (chunk.tombstone_count() > 0).then(|| Arc::make_mut(chunk).compact())
    }

    /// The shared handle of the chunk at `coords`, if one exists. O(log
    /// chunks).
    #[deprecated(note = "benchmark only; deleted by Benchmark PR A")]
    pub fn shared_chunk(&self, coords: &ChunkCoords) -> Option<&Arc<Chunk>> {
        self.chunks.get(coords)
    }

    /// Move every chunk of `other` into this array. The schemas must be
    /// identical — checked once up front, which is all the validation a
    /// wholesale move needs: cells only ever enter an `Array` through
    /// `insert_cell`'s per-cell checks or the batch inserts' whole-batch
    /// validation against this same schema (or, inductively, through
    /// this method), so `other`'s chunks are already schema-valid and
    /// only occupancy can conflict. All-or-nothing: every position is
    /// checked before any chunk moves, so an occupied position leaves
    /// `self` untouched instead of half-merged.
    #[deprecated(note = "benchmark only; deleted by Benchmark PR A")]
    pub fn absorb(&mut self, other: Array) -> Result<()> {
        if other.schema != self.schema {
            return Err(crate::ArrayError::InvalidSchema(format!(
                "cannot absorb `{}` into `{}`: schemas differ",
                other.schema.name, self.schema.name
            )));
        }
        if let Some(dup) = other.chunks.keys().find(|c| self.chunks.contains_key(c)) {
            return Err(crate::ArrayError::ChunkOccupied(dup.to_string()));
        }
        self.chunks.extend(other.chunks);
        Ok(())
    }
}
