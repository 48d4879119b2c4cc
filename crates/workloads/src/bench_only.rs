//! What only the benchmark harness still calls, kept for it until it stops
//! naming these items. Every item here is deprecated, so a new caller in
//! the workspace fails `clippy -D warnings`. Two fenced fields cannot live
//! here, because a field is declared in its struct:
//! `RunnerConfig::ingest_threads` and `CycleReport::degraded_reads`.

use array_model::{Array, ArrayError, ArrayId, ArraySchema, CellBuffer};

/// Build one flat cell batch into an [`Array`] of real chunks
/// ([`Array::insert_batch_owned`]). `threads` and `encoding` are ignored.
#[deprecated(note = "benchmark only; deleted by Benchmark PR A")]
#[allow(deprecated)]
pub fn build_cell_array_encoded(
    id: ArrayId,
    schema: ArraySchema,
    rows: CellBuffer,
    _threads: usize,
    _encoding: array_model::StringEncoding,
) -> Result<Array, ArrayError> {
    let mut fresh = Array::new(id, schema);
    fresh.insert_batch_owned(rows)?;
    Ok(fresh)
}
