//! Flat, columnar batches of raw cells — the wire format of materialized
//! ingest.
//!
//! A [`CellBuffer`] holds one batch of `(coordinates, values)` rows in
//! structure-of-arrays form: a single contiguous `i64` coordinate buffer
//! (stride = the schema's dimensionality) plus one typed
//! [`AttributeColumn`] per attribute. Workload generators emit rows
//! directly into this shape, so the whole row → chunk pipeline moves
//! columns, not per-cell `Vec`s: routing reads coordinate slices in
//! place, and chunk building copies column segments with the type
//! dispatch hoisted out of the row loop (see [`Chunk::push_cells`]).
//! String values intern into a per-column transport dictionary as they
//! are emitted, so a buffered string is a `u32` code and the scatter
//! into dictionary-encoded chunks is a code remap, not a string move.
//!
//! [`Chunk::push_cells`]: crate::chunk::Chunk::push_cells

use crate::chunk::Chunk;
use crate::coords::{chunk_of, ChunkCoords};
use crate::error::{ArrayError, Result};
use crate::schema::ArraySchema;
use crate::value::{AttributeColumn, ScalarValue, StringEncoding};

/// A batch of raw cells in flat columnar form, shaped by one schema.
///
/// Rows keep their emission order; `CellBuffer` never reorders or
/// deduplicates. The buffer's columns are typed at construction, so
/// consumers validate a whole batch against a schema with one
/// column-type comparison ([`CellBuffer::matches`]) instead of one check
/// per cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellBuffer {
    ndims: usize,
    /// Cell coordinates, flattened row-major with stride `ndims`.
    coords: Vec<i64>,
    /// One typed column per schema attribute.
    columns: Vec<AttributeColumn>,
    /// Coordinates of cells this batch **retracts**, flattened row-major
    /// with stride `ndims`. Retractions carry no values — a delete is
    /// addressed purely by position — and are applied after the batch's
    /// inserts, in listed order.
    retractions: Vec<i64>,
}

impl CellBuffer {
    /// An empty buffer shaped by `schema`'s dimensions and attributes.
    ///
    /// String columns use the **transport** encoding
    /// ([`StringEncoding::transport`]): generators intern each emitted
    /// string into an uncapped per-column dictionary, so a buffered row's
    /// string values are `u32` codes and the whole batch carries each
    /// distinct string once. The storage-side cardinality cap is applied
    /// per *chunk* column when the rows are scattered.
    pub fn new(schema: &ArraySchema) -> Self {
        Self::with_encoding(schema, StringEncoding::transport())
    }

    /// An empty buffer whose string columns use `encoding` —
    /// [`StringEncoding::Plain`] reproduces the pre-dictionary pipeline
    /// (one heap `String` per buffered value, moved into the chunks by
    /// the consuming insert).
    pub fn with_encoding(schema: &ArraySchema, encoding: StringEncoding) -> Self {
        CellBuffer {
            ndims: schema.ndims(),
            coords: Vec::new(),
            columns: schema
                .attributes
                .iter()
                .map(|a| AttributeColumn::with_encoding(a.ty, encoding))
                .collect(),
            retractions: Vec::new(),
        }
    }

    /// Coordinate stride (the schema's dimensionality).
    pub fn ndims(&self) -> usize {
        self.ndims
    }

    /// Number of buffered rows.
    pub fn len(&self) -> usize {
        if self.ndims == 0 {
            return 0;
        }
        self.coords.len() / self.ndims
    }

    /// True when no rows are buffered.
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// Append one row, draining `values` into the typed columns (the
    /// caller's scratch `Vec` keeps its capacity, so a generator loop
    /// allocates no per-row containers). Validates arity and types
    /// before mutating anything, so a failed push leaves both the buffer
    /// and `values` untouched.
    pub fn push_row(&mut self, cell: &[i64], values: &mut Vec<ScalarValue>) -> Result<()> {
        if cell.len() != self.ndims {
            return Err(ArrayError::Arity { expected: self.ndims, got: cell.len() });
        }
        if values.len() != self.columns.len() {
            return Err(ArrayError::Arity { expected: self.columns.len(), got: values.len() });
        }
        for (i, (col, value)) in self.columns.iter().zip(values.iter()).enumerate() {
            if col.column_type() != value.value_type() {
                // The buffer has no attribute names — report the ordinal.
                return Err(ArrayError::TypeMismatch {
                    attribute: format!("#{i}"),
                    expected: col.column_type().name(),
                    got: value.value_type().name(),
                });
            }
        }
        for (col, value) in self.columns.iter_mut().zip(values.drain(..)) {
            col.push(value).expect("types were validated above");
        }
        self.coords.extend_from_slice(cell);
        Ok(())
    }

    /// The coordinates of row `row` as a slice into the flat buffer.
    pub fn cell(&self, row: usize) -> &[i64] {
        &self.coords[row * self.ndims..(row + 1) * self.ndims]
    }

    /// Record the retraction of the cell at `cell`. Validates arity
    /// only — whether a live cell exists there is resolved at apply
    /// time, against whatever state the target array has then.
    pub fn push_retraction(&mut self, cell: &[i64]) -> Result<()> {
        if cell.len() != self.ndims {
            return Err(ArrayError::Arity { expected: self.ndims, got: cell.len() });
        }
        self.retractions.extend_from_slice(cell);
        Ok(())
    }

    /// Number of retraction rows carried by this batch.
    pub fn retraction_count(&self) -> usize {
        if self.ndims == 0 {
            return 0;
        }
        self.retractions.len() / self.ndims
    }

    /// The flat retraction coordinate buffer (stride
    /// [`CellBuffer::ndims`]).
    pub fn retractions_flat(&self) -> &[i64] {
        &self.retractions
    }

    /// The whole flat coordinate buffer (stride [`CellBuffer::ndims`]).
    pub fn coords_flat(&self) -> &[i64] {
        &self.coords
    }

    /// Split borrow for the consuming scatter: the coordinate buffer
    /// (read) alongside mutable columns (values are *moved* out).
    pub(crate) fn parts_mut(&mut self) -> (&[i64], &mut [AttributeColumn]) {
        (&self.coords, &mut self.columns)
    }

    /// The typed attribute columns, in schema order.
    pub fn columns(&self) -> &[AttributeColumn] {
        &self.columns
    }

    /// Validate the buffer's shape against `schema` — dimensionality and
    /// every column type — once for the whole batch. This is the only
    /// schema check batched ingest pays; per-row work is pure copying.
    pub fn matches(&self, schema: &ArraySchema) -> Result<()> {
        if self.ndims != schema.ndims() {
            return Err(ArrayError::Arity { expected: schema.ndims(), got: self.ndims });
        }
        if self.columns.len() != schema.attributes.len() {
            return Err(ArrayError::Arity {
                expected: schema.attributes.len(),
                got: self.columns.len(),
            });
        }
        for (attr, col) in schema.attributes.iter().zip(&self.columns) {
            if attr.ty != col.column_type() {
                return Err(ArrayError::TypeMismatch {
                    attribute: attr.name.clone(),
                    expected: attr.ty.name(),
                    got: col.column_type().name(),
                });
            }
        }
        Ok(())
    }

    /// Map every row to its owning chunk (pure in the cell, see
    /// [`chunk_of`]), validating bounds for the whole batch before any
    /// consumer mutates state. Errors at the first out-of-bounds row.
    pub fn route(&self, schema: &ArraySchema) -> Result<Vec<ChunkCoords>> {
        if self.ndims != schema.ndims() {
            return Err(ArrayError::Arity { expected: schema.ndims(), got: self.ndims });
        }
        route_cells(schema, &self.coords)
    }

    /// Serialize the batch verbatim — stride, flat coordinates, typed
    /// columns (transport dictionaries included), and retractions — for
    /// the write-ahead log. Replaying a decoded batch through the same
    /// insert path is bit-identical to replaying the original.
    pub fn encode_into(&self, w: &mut durability::ByteWriter) {
        w.put_usize(self.ndims);
        w.put_usize(self.coords.len());
        for &c in &self.coords {
            w.put_i64(c);
        }
        w.put_usize(self.columns.len());
        for col in &self.columns {
            col.encode_into(w);
        }
        w.put_usize(self.retractions.len());
        for &c in &self.retractions {
            w.put_i64(c);
        }
    }

    /// Decode a batch written by [`CellBuffer::encode_into`].
    pub fn decode_from(
        r: &mut durability::ByteReader<'_>,
    ) -> std::result::Result<Self, durability::CodecError> {
        use durability::CodecError;
        let ndims = r.usize("batch ndims")?;
        if ndims > crate::coords::MAX_DIMS {
            return Err(CodecError::Invalid {
                context: "batch ndims",
                detail: format!("{ndims} exceeds MAX_DIMS {}", crate::coords::MAX_DIMS),
            });
        }
        let n_coords = r.usize("batch coord count")?;
        let mut coords = Vec::with_capacity(n_coords.min(1 << 20));
        for _ in 0..n_coords {
            coords.push(r.i64("batch coord")?);
        }
        if ndims > 0 && coords.len() % ndims != 0 {
            return Err(CodecError::Invalid {
                context: "batch coord count",
                detail: format!("{} not a multiple of ndims {ndims}", coords.len()),
            });
        }
        let ncols = r.usize("batch column count")?;
        let mut columns = Vec::with_capacity(ncols.min(256));
        for _ in 0..ncols {
            columns.push(AttributeColumn::decode_from(r)?);
        }
        let rows = coords.len().checked_div(ndims).unwrap_or(0);
        if let Some(bad) = columns.iter().find(|c| c.len() != rows) {
            return Err(CodecError::Invalid {
                context: "batch column",
                detail: format!("column holds {} values, batch has {rows} rows", bad.len()),
            });
        }
        let n_retr = r.usize("batch retraction count")?;
        let mut retractions = Vec::with_capacity(n_retr.min(1 << 20));
        for _ in 0..n_retr {
            retractions.push(r.i64("batch retraction coord")?);
        }
        if ndims > 0 && retractions.len() % ndims != 0 {
            return Err(CodecError::Invalid {
                context: "batch retraction count",
                detail: format!("{} not a multiple of ndims {ndims}", retractions.len()),
            });
        }
        Ok(CellBuffer { ndims, coords, columns, retractions })
    }

    /// Materialize the rows back into `(coords, values)` form — the shape
    /// differential oracles and tests consume. O(rows × attrs) with one
    /// allocation per row per side; not for hot paths.
    pub fn rows(&self) -> Vec<(Vec<i64>, Vec<ScalarValue>)> {
        (0..self.len())
            .map(|r| {
                let values = self
                    .columns
                    .iter()
                    .map(|c| c.get(r).expect("columns cover every row"))
                    .collect();
                (self.cell(r).to_vec(), values)
            })
            .collect()
    }
}

/// Map every cell of a flat coordinate buffer (stride = the schema's
/// dimensionality, which the caller has checked) to its owning chunk.
/// Errors at the first out-of-bounds cell.
fn route_cells(schema: &ArraySchema, flat: &[i64]) -> Result<Vec<ChunkCoords>> {
    let nd = schema.ndims().max(1);
    // Per-dimension parameters hoisted out of the row loop. The body
    // must agree with [`chunk_of`] — after the bounds check the
    // numerator is non-negative, so `chunk_index`'s `div_euclid`
    // reduces to the plain unsigned division used here (pinned by
    // the debug assertion and the batch-vs-per-cell property tests).
    let mut dims = [(0i64, 1i64, None::<i64>); crate::coords::MAX_DIMS];
    for (slot, d) in dims.iter_mut().zip(&schema.dimensions) {
        *slot = (d.start, d.chunk_interval, d.end);
    }
    // Sized up front: collecting an iterator of `Result`s would drop
    // the size hint and regrow the 72-byte-per-row buffer log(n)
    // times.
    let mut out = Vec::with_capacity(flat.len() / nd);
    for cell in flat.chunks_exact(nd) {
        let mut cc = ChunkCoords::zeros(nd);
        let slots = cc.as_mut_slice();
        for (d, (&coord, &(start, interval, end))) in cell.iter().zip(&dims).enumerate() {
            if coord < start || end.is_some_and(|e| coord > e) {
                return Err(ArrayError::OutOfBounds {
                    dimension: schema.dimensions[d].name.clone(),
                    coordinate: coord,
                });
            }
            slots[d] = ((coord - start) as u64 / interval as u64) as i64;
        }
        debug_assert_eq!(cc, chunk_of(schema, cell).expect("bounds were checked"));
        out.push(cc);
    }
    Ok(out)
}

/// A flat retraction script regrouped by owning chunk: each chunk's
/// cells contiguous and in script order, the chunks ascending
/// (row-major), plus the way back — which group and which regrouped
/// position each script cell went to — so per-chunk results can be read
/// out again **in script order** ([`ScriptMatch::hits_in_script_order`]).
/// Built once per script with the ingest path's row grouping; the
/// array's and the runner's retraction both walk it chunk by chunk.
pub struct ScriptGroups {
    nd: usize,
    /// Chunk position of each group, ascending.
    coords: Vec<ChunkCoords>,
    /// `ends[g]`: one past group `g`'s last regrouped cell.
    ends: Vec<usize>,
    /// The script's cells, regrouped (flat, stride `nd`).
    cells: Vec<i64>,
    /// Script cell → its group.
    group_of: Vec<u32>,
    /// Script cell → its regrouped position.
    regrouped: Vec<usize>,
}

/// One chunk's share of a [`ScriptGroups`].
pub struct ScriptGroup<'a> {
    /// The chunk the cells route to.
    pub coords: ChunkCoords,
    /// The regrouped positions this group occupies — the slice of a
    /// whole-script match buffer that belongs to it.
    pub range: std::ops::Range<usize>,
    cells: &'a [i64],
    nd: usize,
}

impl<'a> ScriptGroup<'a> {
    /// The group's cells, in script order.
    pub fn cells(&self) -> std::slice::ChunksExact<'a, i64> {
        self.cells.chunks_exact(self.nd)
    }
}

impl ScriptGroups {
    /// Regroup `flat` (row-major cell coordinates, stride = `schema`'s
    /// dimensionality). All-or-nothing: a ragged buffer is
    /// [`ArrayError::Arity`], a cell outside the declared dimension
    /// ranges [`ArrayError::OutOfBounds`], before anything is matched.
    pub fn of(schema: &ArraySchema, flat: &[i64]) -> Result<Self> {
        let nd = schema.ndims().max(1);
        if !flat.len().is_multiple_of(nd) {
            return Err(ArrayError::Arity { expected: nd, got: flat.len() % nd });
        }
        let routed = route_cells(schema, flat)?;
        // The grouping indexes rows by `u32`, as every batch does.
        let n = u32::try_from(routed.len()).map_err(|_| ArrayError::TooManyRows(routed.len()))?;
        let groups = group_rows_by_chunk(&routed, 0..n);
        // Group ids come out in first-seen order; rank them row-major so
        // the walk is deterministic in the chunk, not in the script.
        let mut by_coords: Vec<usize> = (0..groups.coords.len()).collect();
        by_coords.sort_unstable_by_key(|&g| groups.coords[g]);
        let mut rank = vec![0u32; by_coords.len()];
        let mut next = Vec::with_capacity(by_coords.len());
        let mut ends = Vec::with_capacity(by_coords.len());
        let mut end = 0usize;
        for (r, &g) in by_coords.iter().enumerate() {
            rank[g] = r as u32; // r < groups ≤ n, which fits (checked above)
            next.push(end);
            end += groups.counts[g] as usize;
            ends.push(end);
        }
        let mut cells = vec![0i64; flat.len()];
        let mut regrouped = Vec::with_capacity(routed.len());
        let mut group_of = groups.group_of;
        for (cell, g) in flat.chunks_exact(nd).zip(&mut group_of) {
            *g = rank[*g as usize];
            let at = &mut next[*g as usize];
            cells[*at * nd..][..nd].copy_from_slice(cell);
            regrouped.push(*at);
            *at += 1;
        }
        let coords = by_coords.iter().map(|&g| groups.coords[g]).collect();
        Ok(ScriptGroups { nd, coords, ends, cells, group_of, regrouped })
    }

    /// Cells in the script.
    pub fn len(&self) -> usize {
        self.regrouped.len()
    }

    /// True for an empty script.
    pub fn is_empty(&self) -> bool {
        self.regrouped.is_empty()
    }

    /// The groups, ascending by chunk position.
    pub fn groups(&self) -> impl Iterator<Item = ScriptGroup<'_>> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        self.coords.iter().zip(starts.zip(&self.ends)).map(|(&coords, (start, &end))| ScriptGroup {
            coords,
            range: start..end,
            cells: &self.cells[start * self.nd..end * self.nd],
            nd: self.nd,
        })
    }

    /// Match every group against the chunk `chunk_at` finds at its
    /// position ([`Chunk::match_retractions`]), read-only. A group whose
    /// chunk is absent misses throughout.
    pub fn match_chunks<'c>(
        &self,
        mut chunk_at: impl FnMut(&ChunkCoords) -> Option<&'c Chunk>,
    ) -> ScriptMatch<'_, 'c> {
        let mut rows = Vec::with_capacity(self.len());
        let mut sources = Vec::with_capacity(self.coords.len());
        for group in self.groups() {
            let chunk = chunk_at(&group.coords);
            match chunk {
                Some(chunk) => chunk.match_retractions(group.cells(), &mut rows),
                None => rows.resize(group.range.end, None),
            }
            sources.push(chunk);
        }
        ScriptMatch { script: self, sources, rows }
    }
}

/// What a grouped script matched ([`ScriptGroups::match_chunks`]): per
/// regrouped cell the physical row it retracts, or `None` for a miss,
/// and the chunks the rows live in.
pub struct ScriptMatch<'s, 'c> {
    script: &'s ScriptGroups,
    sources: Vec<Option<&'c Chunk>>,
    rows: Vec<Option<u32>>,
}

impl<'c> ScriptMatch<'_, 'c> {
    /// Every hit **in script order** — the order the script listed the
    /// cells, whatever chunks they fell in — as `(chunk, physical row)`.
    pub fn hits_in_script_order(&self) -> impl Iterator<Item = (&'c Chunk, usize)> + '_ {
        self.script.group_of.iter().zip(&self.script.regrouped).filter_map(|(&g, &at)| {
            let chunk = self.sources[g as usize]?;
            Some((chunk, self.rows[at]? as usize))
        })
    }

    /// The matched rows alone, one entry per regrouped cell: group `g`'s
    /// are at its [`ScriptGroup::range`]. Releases the chunk borrows.
    pub fn into_rows(self) -> Vec<Option<u32>> {
        self.rows
    }
}

/// Largest chunk-coordinate bounding-box volume the dense row-grouping
/// index will allocate for (u32 slots, so 4 MB at the cap). A batch
/// whose chunks span more positions than this falls back to tree-based
/// grouping.
const DENSE_GROUP_MAX_VOLUME: usize = 1 << 20;

/// The row → chunk partition of one batch: which distinct chunks the
/// listed rows touch, and each listed row's group, positionally aligned
/// with the caller's row list. Group ids are assigned in first-seen
/// order; group *ordering* is unspecified (each chunk is built
/// independently), within-group row order is what determinism rides on.
pub(crate) struct RowGroups {
    /// Chunk position of each group.
    pub coords: Vec<ChunkCoords>,
    /// Rows per group.
    pub counts: Vec<u32>,
    /// `group_of[i]` is the group of the i-th *listed* row.
    pub group_of: Vec<u32>,
}

/// A re-iterable selection of batch rows. The whole-batch case is the
/// plain range `0..n` — no index vector, no per-access indirection; the
/// sharded build workers pass their bucketed index lists.
pub(crate) trait RowSel: Iterator<Item = u32> + Clone {}
impl<I: Iterator<Item = u32> + Clone> RowSel for I {}

/// Partition the selected rows by their routed chunk.
///
/// The common case runs dense: one pass computes the per-dimension
/// bounding box of the routed coordinates, and — when its volume is
/// modest, which holds for every workload batch (a cycle touches a few
/// thousand chunk positions) — each row's group is found by indexing a
/// flat slot table with the linearized coordinate, O(1) with no hashing
/// or tree probes. Batches spanning a huge coordinate box fall back to a
/// `BTreeMap`.
pub(crate) fn group_rows_by_chunk(routed: &[ChunkCoords], rows: impl RowSel) -> RowGroups {
    let mut out = RowGroups { coords: Vec::new(), counts: Vec::new(), group_of: Vec::new() };
    let Some(first) = rows.clone().next() else { return out };
    out.group_of.reserve(rows.size_hint().0);
    let nd = routed[first as usize].ndims();
    // Bounding box of the routed chunk coordinates over the listed rows.
    let mut lo = routed[first as usize];
    let mut hi = lo;
    for r in rows.clone() {
        let c = &routed[r as usize];
        for d in 0..nd {
            lo[d] = lo[d].min(c.index(d));
            hi[d] = hi[d].max(c.index(d));
        }
    }
    let mut volume = 1usize;
    let mut dense = true;
    for d in 0..nd {
        match (hi[d] - lo[d] + 1).try_into().ok().and_then(|s: usize| volume.checked_mul(s)) {
            Some(v) if v <= DENSE_GROUP_MAX_VOLUME => volume = v,
            _ => {
                dense = false;
                break;
            }
        }
    }
    if dense {
        let mut slots = vec![u32::MAX; volume];
        for r in rows {
            let c = &routed[r as usize];
            let mut lin = 0usize;
            for d in 0..nd {
                lin = lin * (hi[d] - lo[d] + 1) as usize + (c.index(d) - lo[d]) as usize;
            }
            let slot = &mut slots[lin];
            if *slot == u32::MAX {
                *slot = out.coords.len() as u32;
                out.coords.push(*c);
                out.counts.push(0);
            }
            out.counts[*slot as usize] += 1;
            out.group_of.push(*slot);
        }
    } else {
        // Degenerate coordinate span: assign group ids through a tree.
        let mut ids: std::collections::BTreeMap<ChunkCoords, u32> =
            std::collections::BTreeMap::new();
        for r in rows {
            let c = routed[r as usize];
            let next = out.coords.len() as u32;
            let id = *ids.entry(c).or_insert_with(|| {
                out.coords.push(c);
                out.counts.push(0);
                next
            });
            out.counts[id as usize] += 1;
            out.group_of.push(id);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> ArraySchema {
        ArraySchema::parse("A<i:int32, s:string>[x=0:7,2, y=0:7,2]").unwrap()
    }

    #[test]
    fn push_row_drains_the_scratch_and_reads_back() {
        let s = schema();
        let mut buf = CellBuffer::new(&s);
        let mut vals = Vec::new();
        vals.extend([ScalarValue::Int32(7), ScalarValue::Str("ab".into())]);
        buf.push_row(&[1, 2], &mut vals).unwrap();
        assert!(vals.is_empty(), "scratch drained into the columns");
        vals.extend([ScalarValue::Int32(9), ScalarValue::Str("c".into())]);
        buf.push_row(&[3, 4], &mut vals).unwrap();
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.cell(1), &[3, 4]);
        let rows = buf.rows();
        assert_eq!(
            rows[0],
            (vec![1, 2], vec![ScalarValue::Int32(7), ScalarValue::Str("ab".into())])
        );
        assert_eq!(rows[1].1[1], ScalarValue::Str("c".into()));
    }

    #[test]
    fn bad_rows_are_rejected_without_mutation() {
        let s = schema();
        let mut buf = CellBuffer::new(&s);
        let mut vals = vec![ScalarValue::Int32(1), ScalarValue::Str("x".into())];
        assert!(matches!(buf.push_row(&[1], &mut vals), Err(ArrayError::Arity { .. })));
        assert_eq!(vals.len(), 2, "failed push must not consume the scratch");
        let mut wrong = vec![ScalarValue::Str("x".into()), ScalarValue::Str("y".into())];
        assert!(matches!(buf.push_row(&[1, 2], &mut wrong), Err(ArrayError::TypeMismatch { .. })));
        assert!(buf.is_empty());
        let mut short = vec![ScalarValue::Int32(1)];
        assert!(matches!(buf.push_row(&[1, 2], &mut short), Err(ArrayError::Arity { .. })));
    }

    #[test]
    fn matches_and_route_validate_once_per_batch() {
        let s = schema();
        let mut buf = CellBuffer::new(&s);
        let mut vals = vec![ScalarValue::Int32(1), ScalarValue::Str("x".into())];
        buf.push_row(&[1, 1], &mut vals).unwrap();
        assert!(buf.matches(&s).is_ok());
        let other = ArraySchema::parse("B<i:int32>[x=0:7,2, y=0:7,2]").unwrap();
        assert!(matches!(buf.matches(&other), Err(ArrayError::Arity { .. })));
        let routed = buf.route(&s).unwrap();
        assert_eq!(routed, vec![ChunkCoords::new([0, 0])]);
        // An out-of-bounds row fails the whole batch before any mutation.
        vals.extend([ScalarValue::Int32(2), ScalarValue::Str("y".into())]);
        buf.push_row(&[7, 7], &mut vals).unwrap();
        assert_eq!(buf.route(&s).unwrap().len(), 2);
        let tight = ArraySchema::parse("A<i:int32, s:string>[x=0:3,2, y=0:3,2]").unwrap();
        assert!(matches!(buf.route(&tight), Err(ArrayError::OutOfBounds { .. })));
    }
}
