//! Flat, columnar batches of raw cells — the wire format of materialized
//! ingest.
//!
//! A [`CellBuffer`] holds one batch of `(coordinates, values)` rows in
//! structure-of-arrays form: a single contiguous `i64` coordinate buffer
//! (stride = the schema's dimensionality) plus one typed
//! [`AttributeColumn`] per attribute. Workload generators emit rows
//! directly into this shape, so the whole row → chunk pipeline moves
//! columns, not per-cell `Vec`s: [`RowGroups`] reads coordinate slices
//! in place and sorts the batch's row *indices* by owning chunk, and
//! chunk building gathers each column through that one row order (see
//! [`Chunk::push_cells`]). A string column is a dictionary column here
//! as in a chunk: values intern into the batch's per-column dictionary
//! as they are emitted, so a buffered string is a `u32` code and
//! building a chunk's string column is a code remap, not a string move.
//!
//! [`Chunk::push_cells`]: crate::chunk::Chunk::push_cells

use crate::chunk::Chunk;
use crate::coords::{chunk_of, ChunkCoords, MAX_DIMS};
use crate::error::{ArrayError, Result};
use crate::schema::{chunks_from_start, ArraySchema};
use crate::value::{AttributeColumn, ScalarValue};
use durability::{ByteReader, CodecError};

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
    /// Generators intern each emitted string into its column's
    /// dictionary, so the whole batch carries each distinct string once.
    pub fn new(schema: &ArraySchema) -> Self {
        CellBuffer {
            ndims: schema.ndims(),
            coords: Vec::new(),
            columns: schema.attributes.iter().map(|a| AttributeColumn::new(a.ty)).collect(),
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

    /// The typed attribute columns, in schema order.
    pub fn columns(&self) -> &[AttributeColumn] {
        &self.columns
    }

    /// Validate the buffer's shape against `schema` — dimensionality and
    /// every column type — once for the whole batch. This is the only
    /// schema check batched ingest pays; per-row work is pure copying.
    pub fn matches(&self, schema: &ArraySchema) -> Result<()> {
        matches_schema(schema, self.ndims, &self.columns)
    }

    /// Serialize the batch verbatim — stride, flat coordinates, typed
    /// columns (dictionaries included), and retractions — for
    /// the write-ahead log. Replaying a decoded batch through the same
    /// insert path is bit-identical to replaying the original.
    pub fn encode_into(&self, w: &mut durability::ByteWriter) {
        w.put_usize(self.ndims);
        w.put_words(&self.coords, i64::to_le_bytes);
        w.put_list(&self.columns, |w, col| col.encode_into(w));
        w.put_words(&self.retractions, i64::to_le_bytes);
    }

    /// Decode a batch written by [`CellBuffer::encode_into`].
    pub fn decode_from(r: &mut ByteReader<'_>) -> std::result::Result<Self, CodecError> {
        let ndims = r.usize("batch ndims")?;
        if !(1..=MAX_DIMS).contains(&ndims) {
            let detail = format!("{ndims} outside 1..={MAX_DIMS}");
            return Err(CodecError::invalid("batch ndims", detail));
        }
        let (coords, columns) = read_rows(r, ndims)?;
        let retractions = read_coords(r, "batch retraction coords", ndims)?;
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

/// The one shape check of cells against `schema` — a batch's
/// ([`CellBuffer::matches`]) or a stored chunk's ([`Chunk::matches`]):
/// the coordinate stride and every column's type.
pub(crate) fn matches_schema(
    schema: &ArraySchema,
    ndims: usize,
    columns: &[AttributeColumn],
) -> Result<()> {
    if ndims != schema.ndims() {
        return Err(ArrayError::Arity { expected: schema.ndims(), got: ndims });
    }
    if columns.len() != schema.attributes.len() {
        return Err(ArrayError::Arity { expected: schema.attributes.len(), got: columns.len() });
    }
    for (attr, col) in schema.attributes.iter().zip(columns) {
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

/// Read the rows a batch ([`CellBuffer::encode_into`]) or a chunk
/// ([`Chunk::encode_into`]) writes: flat `ndims`-wide coordinates, then
/// the typed columns, each one value per row.
pub(crate) fn read_rows(
    r: &mut ByteReader<'_>,
    ndims: usize,
) -> std::result::Result<(Vec<i64>, Vec<AttributeColumn>), CodecError> {
    let coords = read_coords(r, "cell coords", ndims)?;
    let columns = r.list("column count", 1, AttributeColumn::decode_from)?;
    let rows = coords.len() / ndims;
    match columns.iter().find(|c| c.len() != rows) {
        Some(bad) => {
            Err(CodecError::invalid("column", format!("{} values, {rows} rows", bad.len())))
        }
        None => Ok((coords, columns)),
    }
}

/// Read a counted list of `i64`s that holds whole `ndims`-wide cells.
fn read_coords(
    r: &mut ByteReader<'_>,
    context: &'static str,
    ndims: usize,
) -> std::result::Result<Vec<i64>, CodecError> {
    let coords = r.words(context, i64::from_le_bytes)?;
    if coords.len() % ndims != 0 {
        let detail = format!("{} not a multiple of ndims {ndims}", coords.len());
        return Err(CodecError::invalid(context, detail));
    }
    Ok(coords)
}

/// Largest chunk-index bounding-box volume the dense grouping table will
/// allocate for (u32 slots, so 4 MB at the cap). A batch whose chunks
/// span more positions than this groups through a tree.
const DENSE_GROUP_MAX_VOLUME: usize = 1 << 20;

/// The row → chunk partition of one flat coordinate buffer: which
/// distinct chunks the rows touch and, per chunk, which rows — the one
/// grouping batch insert and retraction scripts both start from.
///
/// Groups ascend by chunk position (row-major). `order` lists every row
/// **group-major**: group `g` owns `order[starts[g]..starts[g + 1]]`,
/// and inside that stretch rows keep batch order — which is what per-cell
/// insertion order means, so a chunk gathered through its stretch is the
/// chunk sequential inserts would have built.
///
/// # Cost
///
/// Two passes over the coordinates and one counting sort; per row a
/// 4-byte group id and a 4-byte `order` entry, never a routed
/// [`ChunkCoords`] (72 B — more than the row itself becomes in a chunk).
///
/// 1. **Check.** Every coordinate is compared against its dimension's
///    range (all-or-nothing: the first offending row and dimension is the
///    error, exactly as a per-cell [`chunk_of`] loop would report it) and
///    folded into the batch's *coordinate* bounding box. No division: the
///    chunk index is monotone in the coordinate, so the chunk-index box
///    is the chunk index of the coordinate box's corners.
/// 2. **Group.** Each row's chunk index is linearised against that box
///    straight into a dense slot table that hands out group ids in
///    first-seen order; a [`ChunkCoords`] is materialised once per
///    *group*. A box wider than `DENSE_GROUP_MAX_VOLUME` positions (or
///    one whose span overflows) keys a tree on a stack [`ChunkCoords`]
///    per row instead.
/// 3. **Sort.** The groups (a few hundred) are ranked by position, their
///    sizes prefix-summed into `starts`, and one counting-sort sweep
///    drops each row index into its group's stretch of `order`.
///
/// [`chunk_of`]: crate::coords::chunk_of
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowGroups {
    coords: Vec<ChunkCoords>,
    starts: Vec<u32>,
    order: Vec<u32>,
}

impl RowGroups {
    /// Group the rows of `flat` (row-major cell coordinates, stride =
    /// `schema`'s dimensionality). All-or-nothing: a ragged buffer is
    /// [`ArrayError::Arity`], more rows than a `u32` indexes
    /// [`ArrayError::TooManyRows`], a cell outside the declared ranges
    /// (or whose chunk index leaves `i64`) [`ArrayError::OutOfBounds`]
    /// naming the first such row's first such dimension.
    pub fn of(schema: &ArraySchema, flat: &[i64]) -> Result<Self> {
        let nd = schema.ndims().max(1);
        if !flat.len().is_multiple_of(nd) {
            return Err(ArrayError::Arity { expected: nd, got: flat.len() % nd });
        }
        let n = flat.len() / nd;
        // Rows are indexed by `u32` from here on.
        u32::try_from(n).map_err(|_| ArrayError::TooManyRows(n))?;
        if n == 0 {
            return Ok(RowGroups { coords: Vec::new(), starts: vec![0], order: Vec::new() });
        }
        // Per-dimension parameters, hoisted out of the row loops.
        let mut dims = [(0i64, 1i64, i64::MAX); MAX_DIMS];
        for (slot, d) in dims.iter_mut().zip(&schema.dimensions) {
            *slot = (d.start, d.chunk_interval, d.last_indexable());
        }
        let dims = &dims[..nd];

        // Pass 1: bounds, and the coordinate bounding box.
        let mut lo = [i64::MAX; MAX_DIMS];
        let mut hi = [i64::MIN; MAX_DIMS];
        for cell in flat.chunks_exact(nd) {
            for (d, (&coord, &(start, _, last))) in cell.iter().zip(dims).enumerate() {
                if coord < start || coord > last {
                    return Err(ArrayError::OutOfBounds {
                        dimension: schema.dimensions[d].name.clone(),
                        coordinate: coord,
                    });
                }
                lo[d] = lo[d].min(coord);
                hi[d] = hi[d].max(coord);
            }
        }
        // `DimensionDef::try_chunk_index` with the parameters hoisted: at
        // or below `last_indexable`, so the quotient fits `i64`.
        let index = |d: usize, coord: i64| {
            let (start, interval, _) = dims[d];
            chunks_from_start(start, interval, coord) as i64
        };
        // The chunk-index box and its volume; `None` when a span or the
        // product overflows or passes the dense cap.
        let mut base = [0i64; MAX_DIMS];
        let mut span = [1usize; MAX_DIMS];
        let mut volume = Some(1usize);
        for d in 0..nd {
            base[d] = index(d, lo[d]);
            let width = index(d, hi[d])
                .checked_sub(base[d])
                .and_then(|w| w.checked_add(1))
                .and_then(|w| usize::try_from(w).ok());
            span[d] = width.unwrap_or(0);
            volume = volume
                .zip(width)
                .and_then(|(v, w)| v.checked_mul(w))
                .filter(|&v| v <= DENSE_GROUP_MAX_VOLUME);
        }

        // Pass 2: a first-seen group id per row, a `ChunkCoords` per group.
        let mut coords: Vec<ChunkCoords> = Vec::new();
        let mut counts: Vec<u32> = Vec::new();
        let mut group_of: Vec<u32> = Vec::with_capacity(n);
        let chunk_at = |cell: &[i64]| {
            let mut cc = ChunkCoords::zeros(nd);
            for (d, (slot, &coord)) in cc.as_mut_slice().iter_mut().zip(cell).enumerate() {
                *slot = index(d, coord);
            }
            debug_assert_eq!(Ok(cc), chunk_of(schema, cell));
            cc
        };
        if let Some(volume) = volume {
            let mut slots = vec![u32::MAX; volume];
            for cell in flat.chunks_exact(nd) {
                let mut lin = 0usize;
                for (d, &coord) in cell.iter().enumerate() {
                    lin = lin * span[d] + (index(d, coord) - base[d]) as usize;
                }
                let slot = &mut slots[lin];
                if *slot == u32::MAX {
                    // Groups never outnumber rows, which fit `u32`.
                    *slot = coords.len() as u32;
                    coords.push(chunk_at(cell));
                    counts.push(0);
                }
                counts[*slot as usize] += 1;
                group_of.push(*slot);
            }
        } else {
            let mut ids = std::collections::BTreeMap::new();
            for cell in flat.chunks_exact(nd) {
                let cc = chunk_at(cell);
                let id = *ids.entry(cc).or_insert_with(|| {
                    coords.push(cc);
                    counts.push(0);
                    coords.len() as u32 - 1
                });
                counts[id as usize] += 1;
                group_of.push(id);
            }
        }

        // Rank the groups by position, lay their stretches out in that
        // order, and counting-sort the rows into them.
        let mut by_position: Vec<u32> = (0..coords.len() as u32).collect();
        by_position.sort_unstable_by_key(|&g| coords[g as usize]);
        let mut starts = Vec::with_capacity(coords.len() + 1);
        let mut next = vec![0u32; coords.len()];
        let mut at = 0u32;
        for &g in &by_position {
            starts.push(at);
            next[g as usize] = at;
            at += counts[g as usize];
        }
        starts.push(at);
        let mut order = vec![0u32; n];
        for (row, &g) in (0u32..).zip(&group_of) {
            let at = &mut next[g as usize];
            order[*at as usize] = row;
            *at += 1;
        }
        let coords = by_position.iter().map(|&g| coords[g as usize]).collect();
        Ok(RowGroups { coords, starts, order })
    }

    /// Number of groups (distinct chunks touched).
    pub fn len(&self) -> usize {
        self.coords.len()
    }

    /// True when no row was grouped.
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// Number of rows grouped.
    pub fn rows(&self) -> usize {
        self.order.len()
    }

    /// Chunk position of each group, ascending (row-major).
    pub fn coords(&self) -> &[ChunkCoords] {
        &self.coords
    }

    /// Group `g` owns `order()[starts()[g]..starts()[g + 1]]`; one entry
    /// more than there are groups.
    pub fn starts(&self) -> &[u32] {
        &self.starts
    }

    /// Every row, group-major; batch order within a group.
    pub fn order(&self) -> &[u32] {
        &self.order
    }

    /// Every group, ascending by chunk position: its chunk position and
    /// its rows in batch order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (ChunkCoords, &[u32])> + '_ {
        let rows = self.starts.windows(2).map(|w| &self.order[w[0] as usize..w[1] as usize]);
        self.coords.iter().copied().zip(rows)
    }
}

/// A flat retraction script regrouped by owning chunk: each chunk's
/// cells contiguous and in script order, the chunks ascending
/// (row-major), plus the way back — which group and which regrouped
/// position each script cell went to — so per-chunk results can be read
/// out again **in script order** ([`ScriptMatch::hits_in_script_order`]).
/// Built once per script from the ingest path's [`RowGroups`]; the
/// array's and the runner's retraction both walk it chunk by chunk.
pub struct ScriptGroups {
    nd: usize,
    /// The script's rows by chunk; regrouped position `p` holds script
    /// cell `groups.order()[p]`.
    groups: RowGroups,
    /// The script's cells, regrouped (flat, stride `nd`).
    cells: Vec<i64>,
    /// Script cell → its group.
    group_of: Vec<u32>,
    /// Script cell → its regrouped position.
    regrouped: Vec<u32>,
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

    /// The group's cells as one flat buffer (stride = the schema's
    /// dimensionality), in script order — the layout of
    /// [`Chunk::coords_flat`].
    pub fn cells_flat(&self) -> &'a [i64] {
        self.cells
    }
}

impl ScriptGroups {
    /// Regroup `flat` (row-major cell coordinates, stride = `schema`'s
    /// dimensionality) through [`RowGroups::of`], whose all-or-nothing
    /// errors these are: nothing is matched before the whole script is
    /// well-formed and in bounds.
    pub fn of(schema: &ArraySchema, flat: &[i64]) -> Result<Self> {
        let nd = schema.ndims().max(1);
        let groups = RowGroups::of(schema, flat)?;
        let mut cells = Vec::with_capacity(flat.len());
        let mut group_of = vec![0u32; groups.rows()];
        let mut regrouped = vec![0u32; groups.rows()];
        for (g, (_, members)) in (0u32..).zip(groups.iter()) {
            for &cell in members {
                let cell = cell as usize;
                group_of[cell] = g;
                // A position in `order`, which `RowGroups::of` bounded.
                regrouped[cell] = (cells.len() / nd) as u32;
                cells.extend_from_slice(&flat[cell * nd..][..nd]);
            }
        }
        Ok(ScriptGroups { nd, groups, cells, group_of, regrouped })
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
        self.groups.coords().iter().zip(self.groups.starts().windows(2)).map(|(&coords, w)| {
            let range = w[0] as usize..w[1] as usize;
            ScriptGroup {
                coords,
                cells: &self.cells[range.start * self.nd..range.end * self.nd],
                range,
                nd: self.nd,
            }
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
        let mut sources = Vec::with_capacity(self.groups.len());
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
            Some((chunk, self.rows[at as usize]? as usize))
        })
    }

    /// The matched rows alone, one entry per regrouped cell: group `g`'s
    /// are at its [`ScriptGroup::range`]. Releases the chunk borrows.
    pub fn into_rows(self) -> Vec<Option<u32>> {
        self.rows
    }
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
        let routed = RowGroups::of(&s, buf.coords_flat()).unwrap();
        assert_eq!(routed.coords(), [ChunkCoords::new([0, 0])]);
        // An out-of-bounds row fails the whole batch before any mutation.
        vals.extend([ScalarValue::Int32(2), ScalarValue::Str("y".into())]);
        buf.push_row(&[7, 7], &mut vals).unwrap();
        assert_eq!(RowGroups::of(&s, buf.coords_flat()).unwrap().len(), 2);
        let tight = ArraySchema::parse("A<i:int32, s:string>[x=0:3,2, y=0:3,2]").unwrap();
        assert!(matches!(
            RowGroups::of(&tight, buf.coords_flat()),
            Err(ArrayError::OutOfBounds { .. })
        ));
    }
}
