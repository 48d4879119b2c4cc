//! The workload abstraction: what the cycle driver and the reproduction
//! harness need from a use case (§3 of the paper).

use array_model::{ArrayId, ArraySchema, CellBuffer, CellCoords, ChunkDescriptor, ScalarValue};
use elastic_core::GridHint;
use query_engine::{Catalog, ExecutionContext, QueryStats};
use serde::{Deserialize, Serialize};

/// One benchmark query's name and cost.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryRecord {
    /// Query name (e.g. `"spj/selection"`).
    pub name: String,
    /// Its simulated cost.
    pub stats: QueryStats,
}

/// The per-cycle benchmark outcome: the SPJ suite and the Science suite
/// of §3.3, measured separately as in Figure 5.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SuiteReport {
    /// Every query, in execution order.
    pub queries: Vec<QueryRecord>,
}

impl SuiteReport {
    /// Record one query.
    pub fn push(&mut self, name: impl Into<String>, stats: QueryStats) {
        self.queries.push(QueryRecord { name: name.into(), stats });
    }

    /// Total seconds of queries whose name starts with `prefix`.
    pub fn secs_with_prefix(&self, prefix: &str) -> f64 {
        self.queries
            .iter()
            .filter(|q| q.name.starts_with(prefix))
            .map(|q| q.stats.elapsed_secs)
            .sum()
    }

    /// Seconds spent in the SPJ suite.
    pub fn spj_secs(&self) -> f64 {
        self.secs_with_prefix("spj/")
    }

    /// Seconds spent in the Science suite.
    pub fn science_secs(&self) -> f64 {
        self.secs_with_prefix("science/")
    }

    /// Total benchmark seconds.
    pub fn total_secs(&self) -> f64 {
        self.queries.iter().map(|q| q.stats.elapsed_secs).sum()
    }

    /// The stats of a single named query, if it ran.
    pub fn query(&self, name: &str) -> Option<&QueryStats> {
        self.queries.iter().find(|q| q.name == name).map(|q| &q.stats)
    }

    /// Total chunks skipped by zone-map pruning across the suite — the
    /// probes' visibility into how much scan work the vectorized layer
    /// refuted before touching payloads.
    pub fn chunks_pruned(&self) -> u64 {
        self.queries.iter().map(|q| q.stats.chunks_pruned).sum()
    }

    /// Total chunks actually visited across the suite.
    pub fn chunks_visited(&self) -> u64 {
        self.queries.iter().map(|q| q.stats.chunks_visited).sum()
    }
}

/// One cycle's worth of materialized cells for one array: the payload the
/// cell-level ingest path streams into the chunk builder. Descriptors are
/// then derived from the built chunks' actual `byte_size()`/`cell_count()`
/// instead of sampled size distributions.
///
/// Rows live in a flat [`CellBuffer`] — one contiguous coordinate buffer
/// plus per-attribute columnar value buffers — which the generators emit
/// into directly, so a batch of `n` rows costs O(1) amortized
/// allocations per row instead of two `Vec`s per cell. String values
/// intern through the buffer's per-column transport dictionary on the
/// way in: the batch stores each distinct string once plus a `u32` code
/// per row, and the chunk builder remaps the codes chunk by chunk.
#[derive(Debug, Clone, PartialEq)]
pub struct CellBatch {
    /// The array the cells belong to.
    pub array: ArrayId,
    rows: CellBuffer,
}

impl CellBatch {
    /// An empty batch for `array`, shaped by its schema.
    pub fn new(array: ArrayId, schema: &ArraySchema) -> Self {
        CellBatch { array, rows: CellBuffer::new(schema) }
    }

    /// Record one cell, draining `values` into the columnar buffers (the
    /// caller's scratch `Vec` keeps its capacity across rows). Panics on
    /// a row that does not fit the schema the batch was created with —
    /// workload generators are deterministic, so a misshapen row is a
    /// generator bug, not an input condition.
    pub fn push(&mut self, cell: &[i64], values: &mut Vec<ScalarValue>) {
        self.rows.push_row(cell, values).expect("generator emits schema-shaped rows");
    }

    /// Record one retraction: the coordinates of a previously inserted
    /// cell this cycle deletes (AIS vessels going dark, MODIS tiles
    /// aging out). Retractions ride the same batch as the cycle's
    /// inserts but target *earlier* cycles' chunks; the driver applies
    /// them to the chunks in the node stores before building this
    /// cycle's fresh ones. Panics on a coordinate of
    /// the wrong arity — a generator bug, not an input condition.
    pub fn push_retraction(&mut self, cell: &[i64]) {
        self.rows.push_retraction(cell).expect("generator emits schema-shaped retractions");
    }

    /// Number of retraction rows carried by this batch.
    pub fn retraction_count(&self) -> usize {
        self.rows.retraction_count()
    }

    /// The flat retraction coordinate buffer (stride = the schema's
    /// dimensionality).
    pub fn retractions_flat(&self) -> &[i64] {
        self.rows.retractions_flat()
    }

    /// Number of buffered rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows are buffered.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The flat row buffer — what the chunk-building pipeline consumes.
    pub fn rows(&self) -> &CellBuffer {
        &self.rows
    }

    /// Take the flat row buffer, consuming the batch — the single-
    /// threaded chunk build moves values straight out of it.
    pub fn into_rows(self) -> CellBuffer {
        self.rows
    }

    /// Materialize the rows as `(coords, values)` pairs — the shape the
    /// differential oracles consume. Not for hot paths.
    pub fn cells(&self) -> Vec<(CellCoords, Vec<ScalarValue>)> {
        self.rows.rows()
    }

    /// Serialize the batch for the write-ahead log: the target array plus
    /// the flat row buffer verbatim ([`CellBuffer::encode_into`] carries
    /// transport dictionaries and retractions). A decoded batch replays
    /// bit-identically to the original through the same insert path.
    pub fn encode_into(&self, w: &mut durability::ByteWriter) {
        self.array.encode_into(w);
        self.rows.encode_into(w);
    }

    /// Decode a batch written by [`CellBatch::encode_into`].
    pub fn decode_from(r: &mut durability::ByteReader<'_>) -> Result<Self, durability::CodecError> {
        let array = ArrayId::decode_from(r)?;
        let rows = CellBuffer::decode_from(r)?;
        Ok(CellBatch { array, rows })
    }
}

/// A reproducible, cyclic workload (§3.4): per-cycle insert batches,
/// derived-result storage, and the benchmark suites.
pub trait Workload {
    /// Display name ("MODIS", "AIS").
    fn name(&self) -> &'static str;

    /// Number of workload cycles.
    fn cycles(&self) -> usize;

    /// Register the workload's arrays (schemas + empty chunk sets) with a
    /// catalog. Called once before cycle 0.
    fn register_arrays(&self, catalog: &mut Catalog);

    /// The chunks inserted by cycle `cycle` (0-based). Deterministic.
    fn insert_batch(&self, cycle: usize) -> Vec<ChunkDescriptor>;

    /// Cell-level payload for cycle `cycle`, when the workload runs in
    /// materialized mode. `None` (the default) keeps the metadata-only
    /// path: the driver places the sampled descriptors of
    /// [`Workload::insert_batch`]. `Some` makes the driver build real
    /// chunks from these cells, derive descriptors from the actual
    /// payloads, and hand each chunk to the nodes that own it — the node
    /// stores are then the cells' only home. Deterministic.
    fn cell_batch(&self, _cycle: usize) -> Option<Vec<CellBatch>> {
        None
    }

    /// The derived-result chunks the query phase stores at the end of
    /// `cycle` ("they may store their findings for future reference",
    /// §3.4). May be empty.
    fn derived_batch(&self, cycle: usize) -> Vec<ChunkDescriptor>;

    /// Chunk-grid shape for the range partitioners.
    fn grid_hint(&self) -> GridHint;

    /// The two dimensions the quadtree quarters (lon/lat).
    fn quad_plane(&self) -> (usize, usize) {
        (1, 2)
    }

    /// Run both §3.3 benchmark suites for `cycle` against the current
    /// placement and return per-query costs.
    fn run_suites(&self, ctx: &ExecutionContext<'_>, cycle: usize) -> SuiteReport;
}
