//! Chunks: the unit of storage, I/O, and placement.
//!
//! A [`Chunk`] holds the non-empty cells of one n-dimensional subarray,
//! vertically partitioned into one [`AttributeColumn`] per attribute.
//! A [`ChunkDescriptor`] is the metadata view — coordinates, byte size,
//! cell count — that partitioners and the cluster simulator reason about.
//! At paper scale (hundreds of GB) only descriptors are materialized;
//! tests and examples materialize full chunks.
//!
//! Chunks are built a batch at a time by one kernel,
//! `Chunk::gather_cells`: the batch's rows are grouped by owning chunk
//! once ([`RowGroups`](crate::RowGroups)) and every chunk buffer —
//! coordinates, then each attribute column — is gathered through that
//! one group-major row order into its final, exactly sized allocation.
//! [`Array::insert_batch_owned`](crate::Array::insert_batch_owned) and
//! [`Chunk::push_cells`] (one group) both run it; per-cell
//! [`Chunk::push_cell`] is the reference it is held equal to.

use crate::cells::CellBuffer;
use crate::coords::{ChunkCoords, MAX_DIMS};
use crate::error::{ArrayError, Result};
use crate::schema::ArraySchema;
use crate::value::{AttributeColumn, DictColumn, ScalarValue, StringDict};
use crate::zone::{DimZone, ZoneMap};

/// Identifier for an array within a catalog/cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArrayId(pub u32);

impl std::fmt::Display for ArrayId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "array#{}", self.0)
    }
}

/// Globally unique chunk key: which array, which chunk position.
///
/// `Copy` since the coordinate vector is stored inline: keys move through
/// the placement hot path by value, with no heap traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChunkKey {
    /// Owning array.
    pub array: ArrayId,
    /// Chunk position within the array.
    pub coords: ChunkCoords,
}

impl ChunkKey {
    /// Construct a key.
    pub fn new(array: ArrayId, coords: ChunkCoords) -> Self {
        ChunkKey { array, coords }
    }
}

impl std::fmt::Display for ChunkKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}@{}", self.array, self.coords)
    }
}

/// Metadata describing one stored chunk — everything data placement needs.
///
/// Physical chunk size is variable: it reflects the number of non-empty
/// cells actually stored, not the declared chunk volume (§2). Skew shows
/// up as high variance in `bytes` across descriptors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkDescriptor {
    /// Chunk identity.
    pub key: ChunkKey,
    /// Total stored bytes across all attribute columns.
    pub bytes: u64,
    /// Number of non-empty cells.
    pub cells: u64,
}

impl ChunkDescriptor {
    /// Construct a descriptor.
    pub fn new(key: ChunkKey, bytes: u64, cells: u64) -> Self {
        ChunkDescriptor { key, bytes, cells }
    }
}

/// A materialized chunk: sparse cells stored as a **flat** coordinate
/// buffer (structure-of-arrays, stride = the array's dimensionality) plus
/// one column per attribute, all in insertion order.
///
/// `bytes` and `cells` are running counters maintained on every append,
/// so [`Chunk::byte_size`], [`Chunk::cell_count`], and
/// [`Chunk::descriptor`] are O(1) — the materialized ingest path derives
/// a descriptor from every freshly built chunk, and used to pay a full
/// rescan of the coordinate list per derivation.
///
/// Retractions are **tombstones**: [`Chunk::retract_cell`] marks the
/// row dead in a bitmap and decrements `bytes`/`cells` by the row's
/// exact cost, without moving any storage. Every reader skips
/// tombstoned rows — [`Chunk::iter_cells`] row by row, the query
/// engine's scan masks through [`Chunk::tombstone_words`] — so deleted
/// cells vanish from answers immediately. A dictionary entry whose last referencing row was
/// tombstoned keeps its bytes until [`Chunk::compact`] rebuilds the
/// columns from the surviving rows (deferred compaction).
#[derive(Debug, Clone, PartialEq)]
pub struct Chunk {
    /// Chunk position within its array.
    pub coords: ChunkCoords,
    /// Coordinate stride: the owning schema's dimensionality.
    ndims: u8,
    /// Cell coordinates, flattened row-major: cell `i` occupies
    /// `cell_coords[i*ndims .. (i+1)*ndims]`.
    cell_coords: Vec<i64>,
    /// One column per schema attribute.
    columns: Vec<AttributeColumn>,
    /// Running stored-byte total (coordinates + columns) of **live**
    /// rows, plus any not-yet-compacted dictionary entries.
    bytes: u64,
    /// Running **live** cell count (physical rows minus tombstones).
    cells: u64,
    /// Tombstone bitmap over physical rows: bit `i` set means row `i`
    /// was retracted. May be shorter than the row count — absent bits
    /// are live. Empty on every freshly built or compacted chunk.
    tombstones: Vec<u64>,
    /// Pruning metadata: live-cell bounding box + per-attribute stats.
    /// Maintained on every mutation (see [`crate::zone`] for the
    /// conservatism/path-independence invariants); participates in the
    /// derived `PartialEq`, so the structural-equality differentials
    /// also pin zone-map maintenance.
    zone: ZoneMap,
}

impl Chunk {
    /// An empty chunk at `coords` shaped by `schema`'s attributes.
    pub fn new(schema: &ArraySchema, coords: ChunkCoords) -> Self {
        let columns: Vec<AttributeColumn> =
            schema.attributes.iter().map(|a| AttributeColumn::new(a.ty)).collect();
        let zone = ZoneMap::empty_for(schema.ndims(), &columns);
        Chunk {
            coords,
            ndims: schema.ndims() as u8,
            cell_coords: Vec::new(),
            columns,
            bytes: 0,
            cells: 0,
            tombstones: Vec::new(),
            zone,
        }
    }

    /// Append one cell. The caller is responsible for having routed the
    /// cell to the right chunk (see [`crate::coords::chunk_of`]).
    pub fn push_cell(
        &mut self,
        schema: &ArraySchema,
        cell: Vec<i64>,
        values: Vec<ScalarValue>,
    ) -> Result<()> {
        if cell.len() != schema.ndims() {
            return Err(ArrayError::Arity { expected: schema.ndims(), got: cell.len() });
        }
        if values.len() != schema.attributes.len() {
            return Err(ArrayError::Arity { expected: schema.attributes.len(), got: values.len() });
        }
        // Validate types before mutating any column, so a failed push
        // leaves the chunk consistent.
        for (attr, value) in schema.attributes.iter().zip(&values) {
            if attr.ty != value.value_type() {
                return Err(ArrayError::TypeMismatch {
                    attribute: attr.name.clone(),
                    expected: attr.ty.name(),
                    got: value.value_type().name(),
                });
            }
        }
        self.zone.observe_cell(&cell, &values);
        for (col, value) in self.columns.iter_mut().zip(values) {
            // The delta accounts dictionary bytes once per distinct
            // string plus 4 B per code.
            // Invariant: every value's type was checked against its column above.
            self.bytes += col.push(value).expect("types were validated above");
        }
        self.bytes += (cell.len() * 8) as u64;
        self.cell_coords.extend_from_slice(&cell);
        self.cells += 1;
        // After the values land: the push may have grown a dictionary,
        // whose size the zone's string summaries track.
        self.zone.sync_strings(&self.columns);
        Ok(())
    }

    /// Bulk-append every cell of `src`, in buffer order, consuming it.
    ///
    /// This is the batched counterpart of [`Chunk::push_cell`]: schema
    /// arity and attribute types are validated **once per call** (the
    /// buffer's columns are typed, so one column-type comparison covers
    /// every row), and the copies run column-at-a-time with the type
    /// dispatch hoisted out of the row loop. On any validation error
    /// nothing is appended. The caller is responsible for having routed
    /// every row to this chunk.
    ///
    /// Convenience API: it gathers the rows into a temporary chunk — the
    /// batch kernel (`Chunk::gather_cells`) over one group — and
    /// appends it, paying one extra copy so the copy/byte-accounting code
    /// lives only in the kernel. The hot path
    /// ([`crate::Array::insert_batch_owned`]) gathers straight into its
    /// destination chunks.
    pub fn push_cells(&mut self, schema: &ArraySchema, src: CellBuffer) -> Result<()> {
        src.matches(schema)?;
        if src.is_empty() {
            return Ok(());
        }
        let rows: Vec<u32> = (0..src.len() as u32).collect();
        let group = [(self.coords, &rows[..])];
        // One group, so one chunk.
        for built in Chunk::gather_cells(schema, src.columns(), src.coords_flat(), &group) {
            self.append(built);
        }
        Ok(())
    }

    /// The chunk-build kernel: one chunk per `(position, rows)` group,
    /// each **gathered** from the batch — for the coordinate buffer and
    /// then for every attribute, column by column, group `g`'s buffer is
    /// one exact-size `extend` over `src[rows_g[0]], src[rows_g[1]], …`.
    ///
    /// # Cost contract
    ///
    /// The caller has paid one division pass and one counting sort
    /// ([`RowGroups`](crate::RowGroups): the groups are stretches of its
    /// one group-major row order). From there every value costs one
    /// sequential write into its final, exactly sized buffer and one
    /// random read inside the single source column being walked (0.8 MB
    /// of `int32`, 1.6 MB of `int64` for a 200 k-row batch — cache-sized,
    /// where the whole batch is not). Nothing is kept per value besides:
    /// no destination `Vec` header is chased, no capacity is checked, no
    /// length is stored until the group is done.
    ///
    /// The kernel this replaced *scattered*: one sweep per column in
    /// batch order, `dsts[group_of[i]].push(src[i])`. Sequential reads,
    /// but every value paid a pointer chase to its group's `Vec` header,
    /// a capacity check and a length store across a few hundred append
    /// tails (≈ 3.5 ns a value), and its grouping wrote a 72-byte routed
    /// [`ChunkCoords`] per row and read them back twice. Measured on two
    /// CPUs, 200 k AIS rows into 333–338 chunks of 10 attributes, ms per
    /// build at steady state, scatter → gather: grouping 7.2 → 2.4, chunk
    /// allocation 0.55 → 0.15, coordinates 1.6 → 1.25, an `int32` column
    /// 0.70 → 0.27, `int64` 0.90 → 0.42, `char` 0.52 → 0.17, the
    /// 128-string `receiver_id` 4.8 → 2.1, the one-string `provenance`
    /// 1.45 → 0.37; 24–25 → 11.4 in all.
    ///
    /// # Zone maps
    ///
    /// A chunk's zone map is folded **where its values are written**: the
    /// bounding box over the coordinate buffer as soon as it is collected,
    /// each attribute's zone right after that (chunk, column) gather,
    /// while the few-KB buffer is still in L1 — through the typed,
    /// branch-free folds of [`crate::zone`] (`DimZone::of_cells`,
    /// `AttrZone::of_column`). It used to be a post-pass over all the
    /// built chunks: 2.6 M values a batch through one enum arm each,
    /// re-reading 14 MB the cache had long dropped (1.9 of 11.2 ms).
    /// [`ZoneMap::compute`] is the definition the folds are held equal
    /// to, bit for bit.
    ///
    /// # Strings
    ///
    /// A string column is a code column, so it is gathered like a
    /// fixed-width one, with one remap on the way: the source column
    /// walks **one group at a time** with one reusable `source code →
    /// chunk code` table for the whole column. A code the group has not
    /// seen takes the next chunk code and joins the group's seen-list;
    /// after the group the table is reset through that list. The group's
    /// dictionary is cut out of the batch's through the seen-list
    /// (`StringDict::from_distinct`): the entries' text appended to one
    /// arena, their end offsets to one list, both sized once — two
    /// allocations a dictionary, where a `String` per entry and a hash
    /// table per chunk were 26–43 k allocations a 336-chunk batch — and
    /// nothing hashed: a dictionary builds its probe table when it is
    /// first probed ([`StringDict`]). No per-row string traffic, no
    /// `groups × dictionary` table.
    ///
    /// `src` is the batch's columns; the caller has validated the batch
    /// against `schema` ([`crate::CellBuffer::matches`]) and every row
    /// index against the batch. Row order within a chunk is the listed
    /// order, identical to per-cell insertion.
    pub(crate) fn gather_cells(
        schema: &ArraySchema,
        src: &[AttributeColumn],
        flat: &[i64],
        groups: &[Group<'_>],
    ) -> Vec<Chunk> {
        let nd = schema.ndims();
        // Specialize on the (tiny) dimensionality: a cell is then a
        // fixed-size array, a group's coordinates one exact collect, and
        // their bounding box `ND` min/max lanes over the cells just
        // written.
        fn coords_of<const ND: usize>(flat: &[i64], rows: &[u32], zone: &mut ZoneMap) -> Vec<i64> {
            let (cells, _) = flat.as_chunks::<ND>();
            let cells: Vec<[i64; ND]> = rows.iter().map(|&r| cells[r as usize]).collect();
            zone.set_dims(&DimZone::of_cells(&cells));
            cells.into_flattened()
        }
        let mut out: Vec<Chunk> = groups
            .iter()
            .map(|&(coords, rows)| {
                let mut chunk = Chunk::new(schema, coords);
                chunk.cell_coords = match nd {
                    1 => coords_of::<1>(flat, rows, &mut chunk.zone),
                    2 => coords_of::<2>(flat, rows, &mut chunk.zone),
                    3 => coords_of::<3>(flat, rows, &mut chunk.zone),
                    4 => coords_of::<4>(flat, rows, &mut chunk.zone),
                    _ => {
                        let mut cells = Vec::with_capacity(rows.len() * nd);
                        let mut dims = [DimZone::empty(); MAX_DIMS];
                        for &r in rows {
                            let cell = &flat[r as usize * nd..][..nd];
                            dims.iter_mut().zip(cell).for_each(|(zone, &c)| zone.observe(c));
                            cells.extend_from_slice(cell);
                        }
                        chunk.zone.set_dims(&dims[..nd]);
                        cells
                    }
                };
                // Cell count and coordinate bytes are known up front; the
                // column gathers below add each column's bytes.
                chunk.cells = rows.len() as u64;
                chunk.bytes = (rows.len() * nd * 8) as u64;
                chunk
            })
            .collect();
        for (a, src_col) in src.iter().enumerate() {
            gather_column(&mut out, a, src_col, groups);
        }
        // Freshly gathered chunks are tombstone-free, so the folds above
        // (each buffer's, right after it was written) are the canonical,
        // tight zone map.
        out
    }

    /// Move every cell of `other` onto the end of this chunk, preserving
    /// `other`'s insertion order. Both chunks must have been built
    /// against the same schema (the callers guarantee it; column arity
    /// and types are debug-asserted). Byte accounting folds the
    /// per-column deltas rather than `other.bytes`: merging two
    /// dictionary columns counts shared dictionary entries once, so the
    /// merged size can be smaller than the parts' sum.
    pub(crate) fn append(&mut self, other: Chunk) {
        debug_assert_eq!(self.ndims, other.ndims);
        debug_assert_eq!(self.columns.len(), other.columns.len());
        // Freshly built chunks never carry tombstones; a tombstoned
        // destination is fine (its bitmap covers a prefix of the rows,
        // and the appended rows default to live).
        debug_assert!(
            other.tombstones.iter().all(|w| *w == 0),
            "append source must be tombstone-free"
        );
        self.cell_coords.extend_from_slice(&other.cell_coords);
        self.bytes += other.cell_coords.len() as u64 * 8;
        for (dst, src) in self.columns.iter_mut().zip(other.columns) {
            self.bytes += dst.append(src);
        }
        self.cells += other.cells;
        // Merging canonical zone maps equals the canonical map of the
        // union, so grown chunks stay `==` to batch-built ones. String
        // summaries re-read the merged dictionaries' sizes.
        self.zone.merge(&other.zone);
        self.zone.sync_strings(&self.columns);
    }

    /// Number of stored (non-empty) cells. O(1).
    pub fn cell_count(&self) -> u64 {
        self.cells
    }

    /// True when the chunk stores no cells.
    pub fn is_empty(&self) -> bool {
        self.cells == 0
    }

    /// Stored bytes across all columns plus the coordinate list. O(1) —
    /// maintained incrementally on every append.
    pub fn byte_size(&self) -> u64 {
        self.bytes
    }

    /// The coordinates of cell `idx`.
    pub fn cell(&self, idx: usize) -> Option<&[i64]> {
        let nd = self.ndims as usize;
        self.cell_coords.get(idx * nd..(idx + 1) * nd)
    }

    /// The column for attribute index `attr`.
    pub fn column(&self, attr: usize) -> Option<&AttributeColumn> {
        self.columns.get(attr)
    }

    /// Every attribute column, in schema order.
    pub fn columns(&self) -> &[AttributeColumn] {
        &self.columns
    }

    /// The live physical rows, ascending.
    pub fn live_rows(&self) -> impl Iterator<Item = u32> + Clone + '_ {
        // Invariant: a chunk's rows are `u32`-indexed, like a batch's (`RowGroups::of`).
        let rows = u32::try_from(self.physical_cell_count()).expect("a chunk's rows fit u32");
        (0..rows).filter(|&row| !self.is_tombstoned(row as usize))
    }

    /// Iterate `(cell_coords, row_index)` pairs over the **live** rows;
    /// tombstoned rows are skipped.
    pub fn iter_cells(&self) -> impl Iterator<Item = (&[i64], usize)> {
        self.cell_coords
            .chunks_exact((self.ndims as usize).max(1))
            .enumerate()
            .filter(|(i, _)| !self.is_tombstoned(*i))
            .map(|(i, c)| (c, i))
    }

    /// Number of physical rows, tombstoned or not. Row indices returned
    /// by [`Chunk::iter_cells`] and accepted by [`Chunk::cell`] /
    /// [`AttributeColumn::get`] are physical.
    pub fn physical_cell_count(&self) -> usize {
        if self.ndims == 0 {
            return 0;
        }
        self.cell_coords.len() / self.ndims as usize
    }

    /// Number of tombstoned (retracted, not yet compacted) rows.
    pub fn tombstone_count(&self) -> u64 {
        self.physical_cell_count() as u64 - self.cells
    }

    /// True when physical row `row` has been retracted.
    pub fn is_tombstoned(&self, row: usize) -> bool {
        self.tombstones.get(row / 64).is_some_and(|w| w & (1u64 << (row % 64)) != 0)
    }

    /// Validate the chunk's shape against `schema`: coordinate stride and
    /// every column's type — what a chunk decoded on its own cannot know
    /// it owes the array it is filed under.
    pub fn matches(&self, schema: &ArraySchema) -> Result<()> {
        crate::cells::matches_schema(schema, self.ndims(), &self.columns)
    }

    /// Retract the most recently inserted **live** cell at `cell`.
    ///
    /// The row is tombstoned in place: `cell_count` drops by one and
    /// `byte_size` by the row's exact cost (coordinates plus each
    /// column's per-row bytes — see [`AttributeColumn::row_byte_cost`]).
    /// Returns the bytes freed, or `None` when no live cell matches
    /// (already retracted, or never inserted). Storage is reclaimed by
    /// [`Chunk::compact`].
    pub fn retract_cell(&mut self, cell: &[i64]) -> Option<u64> {
        self.retract_cell_indexed(cell).map(|(_, freed)| freed)
    }

    /// [`Chunk::retract_cell`], additionally reporting **which** physical
    /// row was tombstoned: the newest live row at `cell`, found by a
    /// reverse scan. This is the one-cell reference semantics; a script
    /// of many cells goes through [`Chunk::match_retractions`], which
    /// names the same rows without rescanning the chunk per cell (the
    /// property suite holds the two equal).
    pub fn retract_cell_indexed(&mut self, cell: &[i64]) -> Option<(usize, u64)> {
        let nd = (self.ndims as usize).max(1);
        if cell.len() != nd {
            return None;
        }
        let row = self
            .cell_coords
            .chunks_exact(nd)
            .enumerate()
            .rev()
            .find(|(i, c)| *c == cell && !self.is_tombstoned(*i))?
            .0;
        let freed = self.tombstone_row(row);
        Some((row, freed))
    }

    /// Match a whole retraction script against this chunk **without
    /// mutating it**, appending one entry per script cell to `out`: the
    /// physical row [`Chunk::retract_cell_indexed`] would tombstone if
    /// the script were applied cell by cell in order — the most recently
    /// inserted live duplicate first, a repeated script cell taking the
    /// next one down — or `None` for a miss (no live cell left there, or
    /// a cell of the wrong arity).
    ///
    /// This is the batch retraction kernel: the live rows are sorted by
    /// coordinate once and each script cell binary-searches its run, so a
    /// script costs O((rows + script) · log rows) where the one-cell
    /// reference's reverse scan costs O(rows × script). Feed the matched
    /// rows to [`Chunk::rows_byte_cost`] (what they would free) or
    /// [`Chunk::tombstone_rows`] (retract them).
    pub fn match_retractions<'a>(
        &self,
        script: impl IntoIterator<Item = &'a [i64]>,
        out: &mut Vec<Option<u32>>,
    ) {
        let nd = (self.ndims as usize).max(1);
        let coords_of = |row: u32| &self.cell_coords[row as usize * nd..][..nd];
        // Live rows by coordinate; within a run of duplicates the most
        // recent insertion (highest row) comes first.
        let mut live: Vec<u32> = self.live_rows().collect();
        live.sort_unstable_by(|&a, &b| coords_of(a).cmp(coords_of(b)).then(b.cmp(&a)));
        // taken[i]: duplicates already consumed from the run that starts
        // at sorted position `i`.
        let mut taken = vec![0usize; live.len()];
        out.extend(script.into_iter().map(|cell| {
            if cell.len() != nd {
                return None;
            }
            let run = live.partition_point(|&r| coords_of(r) < cell);
            let row = *live.get(run + *taken.get(run)?)?;
            (coords_of(row) == cell).then(|| {
                taken[run] += 1;
                row
            })
        }));
    }

    /// The exact bytes tombstoning `rows` would free: per row, its
    /// coordinates plus each column's per-row cost (see
    /// [`AttributeColumn::row_byte_cost`]). Dictionary entries are not
    /// rows' to free, so a chunk whose every row is listed can still owe
    /// `byte_size()` minus this — the residual an emptied chunk reports.
    ///
    /// # Panics
    ///
    /// If a row is past the physical row count.
    pub fn rows_byte_cost(&self, rows: impl IntoIterator<Item = u32>) -> u64 {
        rows.into_iter().map(|row| self.row_byte_cost(row as usize)).sum()
    }

    /// What the chunk still weighs once every live row is retracted:
    /// [`Chunk::byte_size`] minus [`Chunk::rows_byte_cost`] of its live
    /// rows, computed a column at a time
    /// ([`AttributeColumn::retained_bytes`]) — O(columns), not O(rows). A
    /// tombstoned row's cost is off [`Chunk::byte_size`] already, so the
    /// two agree on any chunk.
    pub fn retained_bytes(&self) -> u64 {
        self.columns.iter().map(AttributeColumn::retained_bytes).sum()
    }

    /// Tombstone the listed physical rows (the matches of
    /// [`Chunk::match_retractions`] against this same chunk), returning
    /// the bytes freed.
    ///
    /// # Panics
    ///
    /// If a row is past the physical row count or already tombstoned —
    /// the list did not come from matching this chunk.
    pub fn tombstone_rows(&mut self, rows: impl IntoIterator<Item = u32>) -> u64 {
        rows.into_iter().map(|row| self.tombstone_row(row as usize)).sum()
    }

    /// Every attribute value of physical row `row`, tombstoned or not —
    /// values survive until [`Chunk::compact`] reclaims storage. `None`
    /// when `row` is past the physical row count.
    pub fn row_values(&self, row: usize) -> Option<Vec<ScalarValue>> {
        (row < self.physical_cell_count()).then(|| {
            // Invariant: every column holds one value per physical row.
            self.columns.iter().map(|c| c.get(row).expect("columns cover every row")).collect()
        })
    }

    /// What physical row `row` costs: coordinates plus per-column bytes.
    fn row_byte_cost(&self, row: usize) -> u64 {
        // Invariant: every column holds one value per physical row.
        let cost = |col: &AttributeColumn| col.row_byte_cost(row).expect("columns cover the row");
        let cols: u64 = self.columns.iter().map(cost).sum();
        (self.ndims as usize * 8) as u64 + cols
    }

    /// Tombstone physical row `row`, decrementing the running counters
    /// by the row's exact byte cost. Returns the bytes freed.
    fn tombstone_row(&mut self, row: usize) -> u64 {
        assert!(!self.is_tombstoned(row), "row {row} is already tombstoned");
        let freed = self.row_byte_cost(row);
        let word = row / 64;
        if self.tombstones.len() <= word {
            self.tombstones.resize(word + 1, 0);
        }
        self.tombstones[word] |= 1u64 << (row % 64);
        // Invariant: the counters include this live row, and `freed` is its cost.
        self.bytes = self.bytes.checked_sub(freed).expect("byte counter underflow on retraction");
        // Invariant: the row was live, so it is among the counted cells.
        self.cells = self.cells.checked_sub(1).expect("cell counter underflow on retraction");
        freed
    }

    /// Reclaim tombstoned rows: rebuild the coordinate buffer and every
    /// column from the surviving rows, so dictionary entries with no
    /// remaining references are dropped. The result is structurally
    /// identical to a chunk built from only the surviving cells in their
    /// original order.
    ///
    /// Returns the bytes reclaimed, never negative: the rebuilt
    /// dictionaries hold a subset of the old entries. No-op on a
    /// tombstone-free chunk.
    pub fn compact(&mut self) -> i64 {
        if self.tombstones.iter().all(|w| *w == 0) {
            self.tombstones.clear();
            return 0;
        }
        let nd = (self.ndims as usize).max(1);
        let before = self.bytes;
        let mut coords = Vec::with_capacity(self.cells as usize * nd);
        let mut columns: Vec<AttributeColumn> =
            self.columns.iter().map(|c| AttributeColumn::new(c.column_type())).collect();
        let mut bytes = 0u64;
        for (cell, row) in self.iter_cells() {
            coords.extend_from_slice(cell);
            bytes += (nd * 8) as u64;
            for (dst, src) in columns.iter_mut().zip(&self.columns) {
                // Invariant: every column holds one value per physical row.
                let value = src.get(row).expect("live rows have values");
                // Invariant: each rebuilt column was made from its source's type.
                bytes += dst.push(value).expect("rebuilt columns share the source types");
            }
        }
        self.cell_coords = coords;
        self.columns = columns;
        self.tombstones.clear();
        self.bytes = bytes;
        // Retractions left the zone map stale-but-conservative; the
        // rebuild has exactly the surviving rows, so recompute a tight one.
        self.zone = ZoneMap::compute(self.ndims as usize, &self.cell_coords, &self.columns);
        before as i64 - bytes as i64
    }

    /// Metadata descriptor for this chunk. O(1) — no rescan.
    pub fn descriptor(&self, array: ArrayId) -> ChunkDescriptor {
        ChunkDescriptor {
            key: ChunkKey::new(array, self.coords),
            bytes: self.bytes,
            cells: self.cells,
        }
    }

    /// The chunk's pruning metadata (see [`crate::zone`]).
    pub fn zone(&self) -> &ZoneMap {
        &self.zone
    }

    /// Coordinate stride: the owning schema's dimensionality.
    pub fn ndims(&self) -> usize {
        self.ndims as usize
    }

    /// The flat row-major coordinate buffer (stride = [`Chunk::ndims`]),
    /// including tombstoned rows — the vectorized scan kernels read
    /// coordinates column-at-a-time through this and mask out dead rows
    /// via [`Chunk::tombstone_words`].
    pub fn coords_flat(&self) -> &[i64] {
        &self.cell_coords
    }

    /// The raw tombstone bitmap words (bit `i` of word `i/64` set = row
    /// retracted). May cover fewer rows than exist — absent bits are
    /// live.
    pub fn tombstone_words(&self) -> &[u64] {
        &self.tombstones
    }
}

// ---------------------------------------------------------------------
// Durable codecs: a chunk round-trips field-for-field (including the
// tombstone bitmap's trailing zero words and the running byte/cell
// counters), so a decoded chunk is `==` to the one that was encoded —
// not merely logically equivalent.
// ---------------------------------------------------------------------

use durability::{ByteReader, ByteWriter, CodecError};

impl ArrayId {
    /// Serialize the raw id.
    pub fn encode_into(&self, w: &mut ByteWriter) {
        w.put_u32(self.0);
    }

    /// Decode an id written by [`ArrayId::encode_into`].
    pub fn decode_from(r: &mut ByteReader<'_>) -> std::result::Result<Self, CodecError> {
        Ok(ArrayId(r.u32("array id")?))
    }
}

impl ChunkKey {
    /// The fewest bytes [`ChunkKey::encode_into`] writes: an array id and
    /// the coordinate arity, with no index behind it.
    pub const MIN_ENCODED_LEN: usize = 4 + 1;

    /// Serialize array id + chunk coordinates.
    pub fn encode_into(&self, w: &mut ByteWriter) {
        self.array.encode_into(w);
        self.coords.encode_into(w);
    }

    /// Decode a key written by [`ChunkKey::encode_into`].
    pub fn decode_from(r: &mut ByteReader<'_>) -> std::result::Result<Self, CodecError> {
        Ok(ChunkKey { array: ArrayId::decode_from(r)?, coords: ChunkCoords::decode_from(r)? })
    }
}

impl ChunkDescriptor {
    /// The fewest bytes [`ChunkDescriptor::encode_into`] writes.
    pub const MIN_ENCODED_LEN: usize = ChunkKey::MIN_ENCODED_LEN + 8 + 8;

    /// Serialize key + byte/cell totals.
    pub fn encode_into(&self, w: &mut ByteWriter) {
        self.key.encode_into(w);
        w.put_u64(self.bytes);
        w.put_u64(self.cells);
    }

    /// Decode a descriptor written by [`ChunkDescriptor::encode_into`].
    pub fn decode_from(r: &mut ByteReader<'_>) -> std::result::Result<Self, CodecError> {
        Ok(ChunkDescriptor {
            key: ChunkKey::decode_from(r)?,
            bytes: r.u64("descriptor bytes")?,
            cells: r.u64("descriptor cells")?,
        })
    }
}

impl Chunk {
    /// Serialize every field verbatim: coordinates, the flat SoA cell
    /// coordinate buffer, each attribute column, the running counters,
    /// the tombstone bitmap, and the zone map.
    pub fn encode_into(&self, w: &mut ByteWriter) {
        self.coords.encode_into(w);
        w.put_u8(self.ndims);
        w.put_words(&self.cell_coords, i64::to_le_bytes);
        w.put_list(&self.columns, |w, col| col.encode_into(w));
        w.put_u64(self.bytes);
        w.put_u64(self.cells);
        w.put_words(&self.tombstones, u64::to_le_bytes);
        self.zone.encode_into(w);
    }

    /// Decode a chunk written by [`Chunk::encode_into`]. Its stride, row
    /// counts, tombstones (within the rows, matching the live counter) and
    /// zone map (covering the rows) are re-validated, so damaged bytes are
    /// an error, not a chunk that panics or prunes a live cell later.
    pub fn decode_from(r: &mut ByteReader<'_>) -> std::result::Result<Self, CodecError> {
        let coords = ChunkCoords::decode_from(r)?;
        let ndims = r.u8("chunk ndims")?;
        if ndims == 0 || usize::from(ndims) != coords.ndims() {
            let detail = format!("stride {ndims} for the chunk at {coords}");
            return Err(CodecError::invalid("chunk ndims", detail));
        }
        let (cell_coords, columns) = crate::cells::read_rows(r, ndims.into())?;
        let rows = cell_coords.len() / usize::from(ndims);
        let bytes = r.u64("chunk bytes")?;
        let cells = r.u64("chunk cells")?;
        let tombstones = r.words("tombstone word count", u64::from_le_bytes)?;
        // A retraction marks a row that exists, and the bitmap grows only
        // to the word that row is in.
        let past_the_rows = |(i, &word): (usize, &u64)| match rows.checked_sub(i * 64) {
            None | Some(0) => true,
            Some(left) => left < 64 && word >> left != 0,
        };
        if tombstones.iter().enumerate().any(past_the_rows) {
            let detail = format!("a tombstone past the last of {rows} physical rows");
            return Err(CodecError::invalid("tombstone bitmap", detail));
        }
        let dead: u64 = tombstones.iter().map(|w| u64::from(w.count_ones())).sum();
        let live = rows as u64 - dead;
        if live != cells {
            let detail = format!("counter says {cells} live cells, bitmap leaves {live}");
            return Err(CodecError::invalid("chunk cells", detail));
        }
        let zone = ZoneMap::decode_from(r)?;
        zone.check_covers(&ZoneMap::compute(ndims as usize, &cell_coords, &columns))
            .map_err(|detail| CodecError::invalid("chunk zone map", detail))?;
        Ok(Chunk { coords, ndims, cell_coords, columns, bytes, cells, tombstones, zone })
    }
}

/// One `(chunk position, rows in batch order)` group of a build.
pub(crate) type Group<'a> = (ChunkCoords, &'a [u32]);

/// One column of [`Chunk::gather_cells`]: each group's chunk column is
/// gathered from `src` at the group's rows. The type dispatch happens
/// once per column; the inner loops are exact-size typed gathers.
fn gather_column(chunks: &mut [Chunk], attr: usize, src: &AttributeColumn, groups: &[Group<'_>]) {
    macro_rules! gather_fixed {
        ($variant:ident, $width:expr, $src:expr) => {{
            for (chunk, &(_, rows)) in chunks.iter_mut().zip(groups) {
                let AttributeColumn::$variant(dst) = &mut chunk.columns[attr] else {
                    unreachable!("batch was validated against the schema")
                };
                dst.extend(rows.iter().map(|&r| $src[r as usize]));
                chunk.bytes += rows.len() as u64 * $width;
                chunk.zone.set_attr(attr, &chunk.columns[attr]);
            }
        }};
    }
    match src {
        AttributeColumn::Int32(s) => gather_fixed!(Int32, 4, s),
        AttributeColumn::Int64(s) => gather_fixed!(Int64, 8, s),
        AttributeColumn::Float(s) => gather_fixed!(Float, 4, s),
        AttributeColumn::Double(s) => gather_fixed!(Double, 8, s),
        AttributeColumn::Char(s) => gather_fixed!(Char, 1, s),
        AttributeColumn::Dict(s) => gather_dict_column(chunks, attr, s, groups),
    }
}

/// A string column: the walk [`Chunk::gather_cells`] documents under
/// *Strings*.
fn gather_dict_column(chunks: &mut [Chunk], attr: usize, src: &DictColumn, groups: &[Group<'_>]) {
    let (codes, dict) = (src.codes(), src.dict());
    // Source code → this group's chunk code, `u32::MAX` while unseen; and
    // the source codes the group has seen, in first-seen order. A group
    // has fewer rows than `u32::MAX`, so fewer distinct codes.
    let mut remap = vec![u32::MAX; dict.len()];
    let mut seen: Vec<u32> = Vec::new();
    for (chunk, &(_, rows)) in chunks.iter_mut().zip(groups) {
        let mut chunk_codes = Vec::new();
        chunk_codes.extend(rows.iter().map(|&r| {
            let code = codes[r as usize];
            let slot = &mut remap[code as usize];
            if *slot == u32::MAX {
                *slot = seen.len() as u32;
                seen.push(code);
            }
            *slot
        }));
        let dict = StringDict::from_distinct(seen.iter().map(|&code| dict.entry(code)));
        let column = AttributeColumn::Dict(DictColumn::from_parts(chunk_codes, dict));
        chunk.bytes += column.byte_size();
        chunk.zone.set_attr(attr, &column);
        chunk.columns[attr] = column;
        for code in seen.drain(..) {
            remap[code as usize] = u32::MAX;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{AttributeDef, DimensionDef};
    use crate::value::AttributeType;

    fn schema() -> ArraySchema {
        ArraySchema::new(
            "A",
            vec![
                AttributeDef::new("i", AttributeType::Int32),
                AttributeDef::new("j", AttributeType::Float),
            ],
            vec![DimensionDef::bounded("x", 1, 4, 2), DimensionDef::bounded("y", 1, 4, 2)],
        )
        .unwrap()
    }

    #[test]
    fn push_and_read_cells() {
        let s = schema();
        let mut c = Chunk::new(&s, ChunkCoords::new([0, 0]));
        c.push_cell(&s, vec![1, 1], vec![ScalarValue::Int32(1), ScalarValue::Float(1.3)]).unwrap();
        c.push_cell(&s, vec![2, 2], vec![ScalarValue::Int32(9), ScalarValue::Float(2.7)]).unwrap();
        assert_eq!(c.cell_count(), 2);
        assert_eq!(c.cell(0), Some(&[1i64, 1][..]));
        assert_eq!(c.column(0).unwrap().get(1), Some(ScalarValue::Int32(9)));
        assert!(!c.is_empty());
    }

    #[test]
    fn byte_size_reflects_payload() {
        let s = schema();
        let mut c = Chunk::new(&s, ChunkCoords::new([0, 0]));
        assert_eq!(c.byte_size(), 0);
        c.push_cell(&s, vec![1, 1], vec![ScalarValue::Int32(1), ScalarValue::Float(1.0)]).unwrap();
        // 2 coords * 8 bytes + 4 (int32) + 4 (float)
        assert_eq!(c.byte_size(), 16 + 8);
    }

    #[test]
    fn type_mismatch_leaves_chunk_unchanged() {
        let s = schema();
        let mut c = Chunk::new(&s, ChunkCoords::new([0, 0]));
        let err = c
            .push_cell(&s, vec![1, 1], vec![ScalarValue::Float(1.0), ScalarValue::Float(1.0)])
            .unwrap_err();
        assert!(matches!(err, ArrayError::TypeMismatch { .. }));
        assert_eq!(c.cell_count(), 0);
        assert!(c.column(0).unwrap().is_empty());
        assert!(c.column(1).unwrap().is_empty());
    }

    #[test]
    fn arity_checks() {
        let s = schema();
        let mut c = Chunk::new(&s, ChunkCoords::new([0, 0]));
        assert!(c
            .push_cell(&s, vec![1], vec![ScalarValue::Int32(1), ScalarValue::Float(1.0)])
            .is_err());
        assert!(c.push_cell(&s, vec![1, 1], vec![ScalarValue::Int32(1)]).is_err());
    }

    #[test]
    fn push_cells_equals_per_cell_pushes() {
        use crate::cells::CellBuffer;
        let s = schema();
        let rows: [(i64, i64, i32, f32); 4] =
            [(1, 1, 1, 1.3), (2, 2, 9, 2.7), (1, 2, 3, 4.2), (2, 1, 6, 2.5)];
        // Two halves (appends compose), plus an empty buffer, a no-op.
        let mut halves = [CellBuffer::new(&s), CellBuffer::new(&s)];
        let mut scratch = Vec::new();
        let mut per_cell = Chunk::new(&s, ChunkCoords::new([0, 0]));
        for (r, (x, y, i, j)) in rows.into_iter().enumerate() {
            per_cell
                .push_cell(&s, vec![x, y], vec![ScalarValue::Int32(i), ScalarValue::Float(j)])
                .unwrap();
            scratch.extend([ScalarValue::Int32(i), ScalarValue::Float(j)]);
            halves[r / 2].push_row(&[x, y], &mut scratch).unwrap();
        }
        let mut bulk = Chunk::new(&s, ChunkCoords::new([0, 0]));
        let [first, second] = halves;
        bulk.push_cells(&s, first.clone()).unwrap();
        bulk.push_cells(&s, second).unwrap();
        bulk.push_cells(&s, CellBuffer::new(&s)).unwrap();
        assert_eq!(bulk, per_cell);
        assert_eq!(bulk.byte_size(), per_cell.byte_size());
        assert_eq!(bulk.descriptor(ArrayId(1)), per_cell.descriptor(ArrayId(1)));
        // A shape-mismatched buffer is rejected once, before mutation.
        let other = ArraySchema::parse("Z<i:int32>[x=1:4,2, y=1:4,2]").unwrap();
        let err = bulk.push_cells(&other, first).unwrap_err();
        assert!(matches!(err, ArrayError::Arity { .. }));
        assert_eq!(bulk.cell_count(), 4);
    }

    #[test]
    fn retract_decrements_counters_exactly() {
        let s = schema();
        let mut c = Chunk::new(&s, ChunkCoords::new([0, 0]));
        c.push_cell(&s, vec![1, 1], vec![ScalarValue::Int32(1), ScalarValue::Float(1.3)]).unwrap();
        c.push_cell(&s, vec![2, 2], vec![ScalarValue::Int32(9), ScalarValue::Float(2.7)]).unwrap();
        let before = c.byte_size();
        // 2 coords * 8 + 4 (int32) + 4 (float)
        assert_eq!(c.retract_cell(&[1, 1]), Some(16 + 8));
        assert_eq!(c.cell_count(), 1);
        assert_eq!(c.byte_size(), before - 24);
        assert_eq!(c.tombstone_count(), 1);
        assert_eq!(c.physical_cell_count(), 2);
        // The tombstoned row is invisible to iteration but physically present.
        let live: Vec<usize> = c.iter_cells().map(|(_, i)| i).collect();
        assert_eq!(live, vec![1]);
        assert!(c.is_tombstoned(0));
        assert_eq!(c.cell(0), Some(&[1i64, 1][..]));
        // A second retraction of the same cell finds nothing.
        assert_eq!(c.retract_cell(&[1, 1]), None);
        assert_eq!(c.retract_cell(&[3, 3]), None);
        // Retracting everything leaves an empty chunk.
        assert_eq!(c.retract_cell(&[2, 2]), Some(24));
        assert!(c.is_empty());
        assert_eq!(c.byte_size(), 0);
    }

    #[test]
    fn retract_takes_the_most_recent_duplicate() {
        let s = schema();
        let mut c = Chunk::new(&s, ChunkCoords::new([0, 0]));
        for v in [1, 2] {
            c.push_cell(&s, vec![1, 1], vec![ScalarValue::Int32(v), ScalarValue::Float(0.0)])
                .unwrap();
        }
        assert!(c.retract_cell(&[1, 1]).is_some());
        assert!(c.is_tombstoned(1), "the most recent insertion dies first");
        assert!(!c.is_tombstoned(0));
        assert!(c.retract_cell(&[1, 1]).is_some());
        assert!(c.is_tombstoned(0));
    }

    #[test]
    fn compact_equals_building_only_survivors() {
        let s = ArraySchema::parse("A<i:int32, s:string>[x=1:8,8, y=1:8,8]").unwrap();
        let mut c = Chunk::new(&s, ChunkCoords::new([0, 0]));
        let vals = ["a", "b", "c", "d", "a", "b"];
        for (k, v) in vals.iter().enumerate() {
            let x = k as i64 + 1;
            c.push_cell(
                &s,
                vec![x, x],
                vec![ScalarValue::Int32(k as i32), ScalarValue::Str((*v).to_string())],
            )
            .unwrap();
        }
        // Kill the rows carrying "c" and "d": their entries outlive them
        // until the compaction drops them.
        assert!(c.retract_cell(&[3, 3]).is_some());
        assert!(c.retract_cell(&[4, 4]).is_some());
        let live_bytes = c.byte_size();
        assert_eq!(c.compact(), (1 + 4) * 2);
        let mut survivors = Chunk::new(&s, ChunkCoords::new([0, 0]));
        for (k, v) in [(0usize, "a"), (1, "b"), (4, "a"), (5, "b")] {
            let x = k as i64 + 1;
            survivors
                .push_cell(
                    &s,
                    vec![x, x],
                    vec![ScalarValue::Int32(k as i32), ScalarValue::Str(v.to_string())],
                )
                .unwrap();
        }
        assert_eq!(c, survivors);
        assert_eq!(c.byte_size(), survivors.byte_size());
        assert_eq!(live_bytes, survivors.byte_size() + (1 + 4) * 2);
        assert_eq!(c.cell_count(), 4);
    }

    #[test]
    fn compact_noop_without_tombstones() {
        let s = schema();
        let mut c = Chunk::new(&s, ChunkCoords::new([0, 0]));
        c.push_cell(&s, vec![1, 1], vec![ScalarValue::Int32(1), ScalarValue::Float(1.3)]).unwrap();
        let before = c.clone();
        assert_eq!(c.compact(), 0);
        assert_eq!(c, before);
    }

    #[test]
    fn descriptor_matches_contents() {
        let s = schema();
        let mut c = Chunk::new(&s, ChunkCoords::new([1, 0]));
        c.push_cell(&s, vec![3, 1], vec![ScalarValue::Int32(4), ScalarValue::Float(4.2)]).unwrap();
        let d = c.descriptor(ArrayId(7));
        assert_eq!(d.key.array, ArrayId(7));
        assert_eq!(d.key.coords, ChunkCoords::new([1, 0]));
        assert_eq!(d.cells, 1);
        assert_eq!(d.bytes, c.byte_size());
    }
}
