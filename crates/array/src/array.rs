//! Arrays: a schema plus the (sparse) set of chunks that hold its cells.

use crate::cells::{CellBuffer, RowGroups, ScriptGroups};
use crate::chunk::{ArrayId, Chunk, ChunkDescriptor, ChunkKey};
use crate::coords::{chunk_of, ChunkCoords};
use crate::error::Result;
use crate::schema::ArraySchema;
use crate::value::{ScalarValue, StringEncoding};
use std::collections::BTreeMap;
use std::sync::Arc;

// A child of this module, so the fenced methods keep their private access.
#[path = "bench_only.rs"]
mod bench_only;

/// What a batch retraction ([`Array::delete_cells`]) did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RetractOutcome {
    /// Cells actually tombstoned.
    pub retracted: u64,
    /// Listed cells with no live match (never inserted, or already
    /// retracted).
    pub missing: u64,
    /// Exact bytes the touched chunks shrank by.
    pub freed_bytes: u64,
    /// Positions of the chunks that lost cells, in row-major order.
    pub touched: Vec<ChunkCoords>,
}

/// A materialized array: schema plus chunk storage.
///
/// Only non-empty chunks exist; the on-disk footprint is a function of the
/// cells actually stored (§2). Chunks are kept in a `BTreeMap` so iteration
/// is deterministic (row-major over chunk coordinates).
///
/// Chunks are reference-counted (`Arc`): the materialized ingest path
/// hands each freshly built chunk to the payload store of every node
/// that holds a copy of it, so attaching a payload is a refcount bump,
/// never a deep copy. Mutation goes through
/// [`Arc::make_mut`], which is free while a chunk is unshared (the entire
/// build phase) and degrades to copy-on-write if a shared chunk is ever
/// written — aliased stores can never observe each other's edits.
#[derive(Debug, Clone)]
pub struct Array {
    /// Identifier within the catalog.
    pub id: ArrayId,
    /// The array's schema.
    pub schema: ArraySchema,
    chunks: BTreeMap<ChunkCoords, Arc<Chunk>>,
    /// Physical representation of string columns in chunks this array
    /// builds (per-cell inserts and the batch kernel alike).
    encoding: StringEncoding,
}

impl Array {
    /// An empty array under the default string encoding (dictionary,
    /// [`crate::DEFAULT_DICT_CAP`]).
    pub fn new(id: ArrayId, schema: ArraySchema) -> Self {
        Self::with_encoding(id, schema, StringEncoding::default())
    }

    /// An empty array whose chunks store string columns under `encoding`.
    pub fn with_encoding(id: ArrayId, schema: ArraySchema, encoding: StringEncoding) -> Self {
        Array { id, schema, chunks: BTreeMap::new(), encoding }
    }

    /// The string encoding this array builds chunks with.
    pub fn string_encoding(&self) -> StringEncoding {
        self.encoding
    }

    /// Insert one cell, routing it to (and creating, if needed) its chunk.
    pub fn insert_cell(&mut self, cell: Vec<i64>, values: Vec<ScalarValue>) -> Result<ChunkCoords> {
        let coords = chunk_of(&self.schema, &cell)?;
        let chunk = self
            .chunks
            .entry(coords)
            .or_insert_with(|| Arc::new(Chunk::with_encoding(&self.schema, coords, self.encoding)));
        Arc::make_mut(chunk).push_cell(&self.schema, cell, values)?;
        Ok(coords)
    }

    /// Insert a whole flat batch of cells, consuming it, and route each
    /// row to (and create, if needed) its chunk.
    ///
    /// Bit-identical to calling [`Array::insert_cell`] once per row in
    /// buffer order, but validated **once per batch** (shape via
    /// [`CellBuffer::matches`], bounds via [`RowGroups::of`]) and built
    /// column-at-a-time per chunk ([`Chunk`]'s gather kernel).
    /// Fixed-width values copy, while strings are **moved** into their
    /// chunks — each one keeps the allocation the generator gave it, so
    /// the whole batch adds zero per-value allocations. All-or-nothing:
    /// any invalid row fails the whole batch before the array is touched.
    /// This is the ingest hot path.
    pub fn insert_batch_owned(&mut self, mut src: CellBuffer) -> Result<()> {
        src.matches(&self.schema)?;
        let groups = RowGroups::of(&self.schema, src.coords_flat())?;
        let (flat, cols) = src.parts_mut();
        // One chunk per group; a vacant position takes it wholesale, a
        // revisited one appends — identical to per-cell insertion order.
        let groups: Vec<_> = groups.iter().collect();
        for chunk in Chunk::gather_cells(&self.schema, cols, flat, &groups, self.encoding) {
            match self.chunks.entry(chunk.coords) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(Arc::new(chunk));
                }
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    Arc::make_mut(e.get_mut()).append(chunk);
                }
            }
        }
        Ok(())
    }

    /// Apply a flat list of retraction coordinates (stride = the
    /// schema's dimensionality): the script is grouped by owning chunk
    /// and each chunk retracts its share through the batch kernel
    /// ([`Chunk::match_retractions`]) — per cell, the most recently
    /// inserted live cell there is tombstoned. A cell with no live match
    /// counts as `missing` rather than failing the batch — a replayed
    /// delete script may find its chunk already gone. A ragged or
    /// out-of-bounds script fails before anything is retracted. Emptied
    /// chunks are left in place.
    pub fn delete_cells(&mut self, flat: &[i64]) -> Result<RetractOutcome> {
        self.retract(flat, |_, _| {})
    }

    /// [`Array::delete_cells`], handing each retracted row's coordinates
    /// and attribute values to `captured`, **in script order**, before
    /// storage is touched. Missing cells produce no capture.
    fn retract(
        &mut self,
        flat: &[i64],
        mut captured: impl FnMut(&[i64], Vec<ScalarValue>),
    ) -> Result<RetractOutcome> {
        let script = ScriptGroups::of(&self.schema, flat)?;
        let matched = script.match_chunks(|coords| self.chunk(coords));
        // Tombstoning keeps a row's values, so capturing first reads
        // what the script is about to retract, in the order it lists it.
        for (chunk, row) in matched.hits_in_script_order() {
            let values = chunk.row_values(row).expect("a matched row is a physical row");
            captured(chunk.cell(row).expect("a matched row is a physical row"), values);
        }
        let matched = matched.into_rows();
        let mut out = RetractOutcome::default();
        for group in script.groups() {
            let rows = matched[group.range].iter().flatten().copied();
            let retracted = rows.clone().count() as u64;
            if retracted > 0 {
                let chunk = self.chunks.get_mut(&group.coords).expect("rows matched in it");
                out.retracted += retracted;
                out.freed_bytes += Arc::make_mut(chunk).tombstone_rows(rows);
                out.touched.push(group.coords);
            }
        }
        out.missing = script.len() as u64 - out.retracted;
        Ok(out)
    }

    /// Take the chunk at `coords` out of the array, whatever it holds.
    pub fn remove_chunk(&mut self, coords: &ChunkCoords) -> Option<Arc<Chunk>> {
        self.chunks.remove(coords)
    }

    /// Put `chunk` at its own position, returning the handle it
    /// replaced. The door for a caller that rebuilt one chunk elsewhere
    /// (retraction, compaction) and wants every store to hold that one
    /// handle. It trusts the chunk to have been built against this
    /// array's schema.
    pub fn install_chunk(&mut self, chunk: Arc<Chunk>) -> Option<Arc<Chunk>> {
        self.chunks.insert(chunk.coords, chunk)
    }

    /// Consume the array, yielding its chunks in row-major order. Shared
    /// chunks come out as their `Arc` handle — callers that need owned
    /// `Chunk`s use `Arc::unwrap_or_clone`, which is a move whenever the
    /// chunk is unshared.
    pub fn into_chunks(self) -> impl Iterator<Item = (ChunkCoords, Arc<Chunk>)> {
        self.chunks.into_iter()
    }

    /// Number of non-empty chunks.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Total stored cells. O(chunks) — each chunk's count is a counter.
    pub fn cell_count(&self) -> u64 {
        self.chunks.values().map(|c| c.cell_count()).sum()
    }

    /// Total stored bytes. O(chunks) — each chunk's size is a counter.
    pub fn byte_size(&self) -> u64 {
        self.chunks.values().map(|c| c.byte_size()).sum()
    }

    /// Fetch a chunk by position.
    pub fn chunk(&self, coords: &ChunkCoords) -> Option<&Chunk> {
        self.chunks.get(coords).map(Arc::as_ref)
    }

    /// Iterate chunks in row-major chunk-coordinate order.
    pub fn chunks(&self) -> impl Iterator<Item = (&ChunkCoords, &Chunk)> {
        self.chunks.iter().map(|(c, a)| (c, a.as_ref()))
    }

    /// Iterate chunks as their shared (`Arc`) handles, in row-major
    /// order. The materialized ingest path clones these handles into the
    /// node payload stores — a refcount bump per chunk, no cell copies.
    pub fn shared_chunks(&self) -> impl Iterator<Item = (&ChunkCoords, &Arc<Chunk>)> {
        self.chunks.iter()
    }

    /// Metadata descriptors for every chunk, in deterministic order.
    pub fn descriptors(&self) -> Vec<ChunkDescriptor> {
        self.chunks.values().map(|c| c.descriptor(self.id)).collect()
    }

    /// The key a chunk at `coords` would have.
    pub fn key_for(&self, coords: &ChunkCoords) -> ChunkKey {
        ChunkKey::new(self.id, *coords)
    }

    /// Serialize the whole array — id, schema, build encoding, and every
    /// chunk verbatim — for checkpoints.
    pub fn encode_into(&self, w: &mut durability::ByteWriter) {
        self.id.encode_into(w);
        self.schema.encode_into(w);
        self.encoding.encode_into(w);
        w.put_list(self.chunks.values(), |w, chunk| chunk.encode_into(w));
    }

    /// Decode an array written by [`Array::encode_into`]. Chunks reattach
    /// at their own coordinates, which the encoder wrote in order; a chunk
    /// out of that order or shaped unlike the schema is rejected.
    pub fn decode_from(
        r: &mut durability::ByteReader<'_>,
    ) -> std::result::Result<Self, durability::CodecError> {
        use durability::CodecError;
        let id = ArrayId::decode_from(r)?;
        let schema = ArraySchema::decode_from(r)?;
        let encoding = StringEncoding::decode_from(r)?;
        let mut chunks = BTreeMap::new();
        for _ in 0..r.count("array chunk count", 1)? {
            let chunk = Chunk::decode_from(r)?;
            durability::ascending("array chunk coords", chunks.keys().next_back(), &chunk.coords)?;
            chunk.matches(&schema).map_err(|e| {
                CodecError::invalid("array chunk", format!("chunk at {}: {e}", chunk.coords))
            })?;
            chunks.insert(chunk.coords, Arc::new(chunk));
        }
        Ok(Array { id, schema, chunks, encoding })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ArrayError;
    use crate::schema::{AttributeDef, DimensionDef};
    use crate::value::AttributeType;

    fn figure1_array() -> Array {
        // The example array of Figure 1: 4x4, 2x2 chunks, 6 non-empty cells.
        let schema = ArraySchema::parse("A<i:int32, j:float>[x=1:4,2, y=1:4,2]").unwrap();
        let mut a = Array::new(ArrayId(0), schema);
        let cells: [(i64, i64, i32, f32); 6] = [
            (1, 1, 1, 1.3),
            (2, 3, 9, 2.7),
            (3, 2, 3, 4.2),
            (3, 3, 6, 2.5),
            (2, 4, 4, 3.5),
            (3, 4, 7, 7.2),
        ];
        for (x, y, i, j) in cells {
            a.insert_cell(vec![x, y], vec![ScalarValue::Int32(i), ScalarValue::Float(j)]).unwrap();
        }
        a
    }

    #[test]
    fn figure1_example_stores_six_cells() {
        let a = figure1_array();
        assert_eq!(a.cell_count(), 6);
        // Cells cluster in the center: chunks (0,0),(0,1),(1,0),(1,1) exist
        // per the figure's occupancy.
        assert!(a.chunk_count() >= 3);
        assert!(a.byte_size() > 0);
    }

    #[test]
    fn insert_routes_to_correct_chunk() {
        let mut a = figure1_array();
        let coords = a
            .insert_cell(vec![4, 4], vec![ScalarValue::Int32(5), ScalarValue::Float(0.5)])
            .unwrap();
        assert_eq!(coords, ChunkCoords::new([1, 1]));
        assert!(a.chunk(&coords).unwrap().cell_count() >= 1);
    }

    #[test]
    fn descriptors_cover_all_chunks() {
        let a = figure1_array();
        let descs = a.descriptors();
        assert_eq!(descs.len(), a.chunk_count());
        let total: u64 = descs.iter().map(|d| d.bytes).sum();
        assert_eq!(total, a.byte_size());
        for d in &descs {
            assert_eq!(d.key.array, a.id);
        }
    }

    #[test]
    #[allow(deprecated)]
    fn absorb_moves_arrays_wholesale() {
        let src = figure1_array();
        let mut dst = Array::new(src.id, src.schema.clone());
        dst.absorb(src.clone()).unwrap();
        assert_eq!(dst.cell_count(), src.cell_count());
        assert_eq!(dst.byte_size(), src.byte_size());
        // Absorbing the same chunks again collides on the first position.
        assert!(matches!(dst.absorb(src.clone()), Err(ArrayError::ChunkOccupied(_))));
        // A different schema is rejected outright.
        let other = ArraySchema::parse("Z<i:int32>[x=1:4,2]").unwrap();
        let foreign = Array::new(ArrayId(1), other);
        assert!(matches!(dst.absorb(foreign), Err(ArrayError::InvalidSchema(_))));

        // All-or-nothing: a collision at a *later* position must leave the
        // destination untouched — no chunks from before the collision
        // point may have moved in.
        let mut tail = Array::new(src.id, src.schema.clone());
        tail.insert_cell(vec![4, 4], vec![ScalarValue::Int32(5), ScalarValue::Float(0.5)]).unwrap(); // chunk (1,1): occupied in dst, sorts after (0,0)
        let mut incoming = Array::new(src.id, src.schema.clone());
        incoming
            .insert_cell(vec![1, 1], vec![ScalarValue::Int32(2), ScalarValue::Float(0.1)])
            .unwrap(); // chunk (0,0): free in tail
        incoming
            .insert_cell(vec![3, 3], vec![ScalarValue::Int32(3), ScalarValue::Float(0.2)])
            .unwrap(); // chunk (1,1): collides
        let before = tail.cell_count();
        assert!(matches!(tail.absorb(incoming), Err(ArrayError::ChunkOccupied(_))));
        assert_eq!(tail.cell_count(), before, "failed absorb must not half-merge");
        assert!(tail.chunk(&ChunkCoords::new([0, 0])).is_none());
    }

    #[test]
    #[allow(deprecated)]
    fn delete_cells_tombstones_and_prunes() {
        let mut a = figure1_array();
        let before_bytes = a.byte_size();
        // (1,1) lives alone in chunk (0,0); (2,3)/(2,4) share chunk (0,1).
        let out = a.delete_cells(&[1, 1, 2, 3, 4, 4]).unwrap();
        assert_eq!(out.retracted, 2);
        assert_eq!(out.missing, 1, "(4,4) was never inserted");
        assert_eq!(a.cell_count(), 4);
        assert_eq!(a.byte_size(), before_bytes - out.freed_bytes);
        assert_eq!(out.touched, vec![ChunkCoords::new([0, 0]), ChunkCoords::new([0, 1])]);
        // Chunk (0,0) is now empty but still present until pruned.
        assert!(a.chunk(&ChunkCoords::new([0, 0])).unwrap().is_empty());
        assert_eq!(a.prune_empty(), vec![ChunkCoords::new([0, 0])]);
        assert!(a.chunk(&ChunkCoords::new([0, 0])).is_none());
        // Deleting the same cells again is a no-op, not an error.
        let again = a.delete_cells(&[1, 1, 2, 3]).unwrap();
        assert_eq!(again.retracted, 0);
        assert_eq!(again.missing, 2);
        // Compaction reclaims the tombstoned rows; counters are unchanged.
        let (cells, bytes) = (a.cell_count(), a.byte_size());
        for coords in &out.touched {
            a.compact_chunk(coords);
        }
        assert_eq!((a.cell_count(), a.byte_size()), (cells, bytes));
        assert!(a.chunks().all(|(_, c)| c.tombstone_count() == 0));
    }

    /// The same cells through `insert_cell` one by one and through one
    /// `insert_batch_owned`: equal chunk for chunk, or the same error.
    fn per_cell_and_batch_agree(schema: &str, cells: &[i64]) -> Result<Array> {
        let schema = ArraySchema::parse(schema).unwrap();
        let mut buffer = CellBuffer::new(&schema);
        let mut per_cell = Array::new(ArrayId(0), schema.clone());
        let mut first_error = None;
        for (&x, v) in cells.iter().zip(0i32..) {
            buffer.push_row(&[x], &mut vec![ScalarValue::Int32(v)]).unwrap();
            if let Err(e) = per_cell.insert_cell(vec![x], vec![ScalarValue::Int32(v)]) {
                first_error.get_or_insert(e);
            }
        }
        let mut batched = Array::new(ArrayId(0), schema);
        match (batched.insert_batch_owned(buffer.clone()), first_error) {
            (Ok(()), None) => {
                let chunks =
                    |a: &Array| a.chunks().map(|(c, k)| (*c, k.clone())).collect::<Vec<_>>();
                assert_eq!(chunks(&batched), chunks(&per_cell));
                Ok(batched)
            }
            (Err(batch), Some(cell)) => {
                assert_eq!(batch, cell);
                assert_eq!(batched.chunk_count(), 0, "a failed batch leaves the array untouched");
                Err(batch)
            }
            (batch, cell) => panic!("insert_batch said {batch:?}, insert_cell said {cell:?}"),
        }
    }

    /// ROADMAP 5a (i): a batch whose chunk-index box is as wide as `i64`
    /// used to overflow `hi - lo + 1` while sizing the dense slot table.
    #[test]
    fn a_batch_spanning_the_whole_axis_groups_through_the_tree() {
        let a = per_cell_and_batch_agree("A<v:int32>[x=0:*,1]", &[0, i64::MAX, 0]).unwrap();
        assert_eq!(a.chunk_count(), 2);
        assert_eq!(a.chunk(&ChunkCoords::new([0])).unwrap().cell_count(), 2);
        assert_eq!(a.chunk(&ChunkCoords::new([i64::MAX])).unwrap().cell_count(), 1);
    }

    /// ROADMAP 5a (ii): `coord - start` overflowed for a negative start —
    /// a panic in the test profile; in release the cell was filed under
    /// chunk −2305843009213693950.
    #[test]
    fn insert_cell_files_the_far_end_of_a_negative_start_axis_correctly() {
        let schema = ArraySchema::parse("A<v:int32>[x=-10:*,4]").unwrap();
        let mut a = Array::new(ArrayId(0), schema.clone());
        let at = a.insert_cell(vec![i64::MAX], vec![ScalarValue::Int32(1)]).unwrap();
        // (2^63 - 1 + 10) / 4
        assert_eq!(at, ChunkCoords::new([2_305_843_009_213_693_954]));
        assert_eq!(chunk_of(&schema, &[i64::MAX]), Ok(at));
        assert_eq!(schema.dimensions[0].chunk_index(i64::MAX), at.index(0));
        let (lo, hi) = schema.dimensions[0].chunk_range(0);
        assert_eq!((lo, hi), (-10, -7));
    }

    /// ROADMAP 5a (iii): the same cell through `insert_batch` panicked in
    /// the test profile and in release disagreed with `insert_cell`.
    #[test]
    fn insert_batch_agrees_with_insert_cell_at_the_far_end_of_the_axis() {
        let a = per_cell_and_batch_agree("A<v:int32>[x=-10:*,4]", &[i64::MAX, -10, 5]).unwrap();
        assert_eq!(
            a.chunks().map(|(c, _)| c.index(0)).collect::<Vec<_>>(),
            [0, 3, 2_305_843_009_213_693_954]
        );
        // A chunk index that does not fit `i64` is out of bounds, typed,
        // on both paths: `x=-10:*,1` would file `i64::MAX` under 2^63 + 9.
        let err = per_cell_and_batch_agree("A<v:int32>[x=-10:*,1]", &[0, i64::MAX]).unwrap_err();
        assert_eq!(err, ArrayError::OutOfBounds { dimension: "x".into(), coordinate: i64::MAX });
        per_cell_and_batch_agree("A<v:int32>[x=-10:*,1]", &[i64::MAX - 10]).unwrap();
    }

    #[test]
    fn out_of_bounds_insert_rejected() {
        let mut a = figure1_array();
        assert!(a
            .insert_cell(vec![9, 1], vec![ScalarValue::Int32(0), ScalarValue::Float(0.0)])
            .is_err());
        let schema = ArraySchema::new(
            "T",
            vec![AttributeDef::new("v", AttributeType::Int32)],
            vec![DimensionDef::unbounded("t", 0, 10)],
        )
        .unwrap();
        let mut ts = Array::new(ArrayId(1), schema);
        // unbounded dimension accepts arbitrarily large coordinates
        ts.insert_cell(vec![1_000_000], vec![ScalarValue::Int32(1)]).unwrap();
        assert_eq!(ts.chunk_count(), 1);
    }
}
