//! Logical change sets: the Δ a cycle applies to one array.
//!
//! A [`DeltaSet`] is a Z-set over logical rows — each [`RowDelta`] is a
//! cell's coordinates and attribute values with a signed multiplicity
//! (`+1` insert, `-1` retraction). Inserts are the rows of the freshly
//! built per-cycle arrays; retractions are the rows a retraction script
//! matched, taken before storage is reclaimed. Downstream consumers (the
//! query crate's incremental views) fold each delta into their own
//! state, never rescanning the base array — so the transport here is
//! deliberately *logical*: rebalances, failovers, and chunk compactions
//! move bytes around without producing any delta at all.
//!
//! # Layout and order
//!
//! A row reaches a set in one of two ways, and neither allocates per
//! row:
//!
//! * **Lent.** A chunk's rows are named, not copied
//!   ([`DeltaSet::lend_rows`], [`DeltaSet::lend_live_rows`],
//!   [`DeltaSet::lend_live_cells`]): the set keeps the chunk's shared
//!   handle (`Arc<Chunk>`, a refcount bump), the weight, and either
//!   "every physical row" — a plain row range, for a chunk with no
//!   tombstone, which every fresh array's chunk is and every chunk a TTL
//!   script drops whole — or a range of one kept list of row numbers.
//!   Chunks are immutable once shared, so a lent row reads what it held
//!   when it was lent, even after the store evicts or rebuilds the chunk.
//!   This is how the cycle runner extracts, inserts and retractions
//!   alike: O(chunks), plus four bytes per listed row.
//! * **Copied.** [`DeltaSet::push`], [`DeltaSet::extend_from_chunk`] and
//!   [`DeltaSet::extend_live_cells`] (so [`DeltaSet::from_live_cells`])
//!   write rows into three flat buffers: every row's coordinates end to
//!   end, every row's values end to end, and per row the two end offsets
//!   plus the weight. A set that copies owns its rows and keeps no chunk
//!   alive.
//!
//! Values leave a chunk through one kernel, a **block** of 64 rows at a
//! time: the block's row numbers are gathered, then each column fills
//! its strided slots of the block's row-major values in one typed loop —
//! the column's type matched once per block, the writes inside 14 KiB
//! that stay in L1. Copying runs it straight into the value buffer;
//! [`DeltaSet::visit`], the consumers' walk, runs it for lent rows into
//! one block of scratch rows that the whole walk reuses, and hands copied
//! rows out as slices of the buffers. [`DeltaSet::rows`] lends every row
//! as slices; a set that holds lent rows copies them out once, on the
//! first call. [`DeltaSet::clear`] forgets every row keeping every
//! buffer's capacity, so a caller that extracts a delta every cycle
//! allocates nothing once warm.
//!
//! The order of the rows is **deterministic** — a function of the stored
//! arrays and the script, never of hashing or addresses — so a run and
//! its replay extract the same sequence: copied rows first, in capture
//! order, then lent rows in the order they were lent; a chunk's live
//! rows in physical row order, in row-major chunk order for a whole
//! array, and listed rows in the order the script listed them. Consumers
//! **must not depend on it**: a delta means its multiset of `(coords,
//! values, weight)`, and the incremental views fold one to the same bits
//! whatever order its rows arrive in (`view/mod.rs`, "Determinism").

use crate::array::Array;
use crate::chunk::Chunk;
use crate::value::ScalarValue;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// One logical row change, borrowed from its [`DeltaSet`]: cell
/// coordinates, attribute values, and a signed multiplicity (Z-set
/// weight).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RowDelta<'a> {
    /// The cell's dimension coordinates.
    pub coords: &'a [i64],
    /// The cell's attribute values, in schema order.
    pub values: &'a [ScalarValue],
    /// Signed multiplicity: `+1` per insert, `-1` per retraction.
    pub weight: i64,
}

/// Where one copied row ends in the two flat buffers, and its weight.
#[derive(Debug, Clone, Copy, PartialEq)]
struct RowEnd {
    coords: usize,
    values: usize,
    weight: i64,
}

/// Rows one shared chunk lends, at one weight.
#[derive(Debug, Clone)]
struct Lent {
    chunk: Arc<Chunk>,
    /// Every physical row (the chunk has no tombstone), or the rows
    /// listed in this range of [`DeltaSet::listed`].
    rows: Option<Range<usize>>,
    weight: i64,
}

/// An ordered collection of row changes for one array — the logical
/// change one cycle step produced (see the module docs for the layout
/// and the order). Two sets are equal when they carry the same rows in
/// the same order, however each row got there.
#[derive(Clone, Default)]
pub struct DeltaSet {
    coords: Vec<i64>,
    values: Vec<ScalarValue>,
    ends: Vec<RowEnd>,
    lent: Vec<Lent>,
    listed: Vec<u32>,
    lent_rows: usize,
    /// Every row copied out, built by the first [`DeltaSet::rows`] of a
    /// set that holds lent rows; any change forgets it.
    copied: OnceLock<Box<DeltaSet>>,
}

impl DeltaSet {
    /// An empty delta.
    pub fn new() -> Self {
        DeltaSet::default()
    }

    /// Append one row change.
    pub fn push(&mut self, coords: Vec<i64>, values: Vec<ScalarValue>, weight: i64) {
        self.copied.take();
        self.coords.extend(coords);
        self.values.extend(values);
        self.end_row(weight);
    }

    /// Copy in the physical rows `rows` of `chunk` (tombstoned or not —
    /// values survive until compaction), each at `weight`, a block of
    /// rows at a time (module docs).
    ///
    /// # Panics
    ///
    /// If a row is past the chunk's physical rows.
    pub fn extend_from_chunk(
        &mut self,
        chunk: &Chunk,
        rows: impl Iterator<Item = u32>,
        weight: i64,
    ) {
        self.copy_rows(chunk, rows.map(|row| row as usize), weight);
    }

    /// The one copying kernel: `rows` of `chunk` in blocks, each block's
    /// coordinates, then its values boxed in place ([`box_rows`]).
    fn copy_rows(&mut self, chunk: &Chunk, rows: impl Iterator<Item = usize>, weight: i64) {
        self.copied.take();
        let (nd, width, flat) = (chunk.ndims(), chunk.columns().len(), chunk.coords_flat());
        in_blocks(rows, |block| {
            for &row in block {
                self.coords.extend_from_slice(&flat[row * nd..][..nd]);
            }
            let base = self.values.len();
            // A fixed-width placeholder: nothing to drop when it is overwritten.
            self.values.resize_with(base + block.len() * width, || ScalarValue::Char(0));
            box_rows(chunk, block, &mut self.values[base..]);
            let (mut coords, mut values) = (self.coords.len() - block.len() * nd, base);
            self.ends.extend(block.iter().map(|_| {
                coords += nd;
                values += width;
                RowEnd { coords, values, weight }
            }));
        });
    }

    /// Lend the physical rows `rows` of the shared `chunk` (tombstoned or
    /// not), each at `weight`: the handle and the row numbers are kept,
    /// nothing is copied (module docs).
    ///
    /// # Panics
    ///
    /// If a row is past the chunk's physical rows.
    pub fn lend_rows(&mut self, chunk: &Arc<Chunk>, rows: impl Iterator<Item = u32>, weight: i64) {
        let start = self.listed.len();
        self.listed.extend(rows);
        let physical = chunk.physical_cell_count();
        assert!(
            self.listed[start..].iter().all(|&row| (row as usize) < physical),
            "a lent row is past the chunk's {physical} physical rows"
        );
        let n = self.listed.len() - start;
        self.lend(chunk, Some(start..start + n), n, weight);
    }

    /// Lend every live row of the shared `chunk` at `weight`: a chunk
    /// with no tombstone as "every physical row", with no list at all.
    pub fn lend_live_rows(&mut self, chunk: &Arc<Chunk>, weight: i64) {
        if chunk.tombstone_count() == 0 {
            self.lend(chunk, None, chunk.physical_cell_count(), weight);
        } else {
            self.lend_rows(chunk, chunk.live_rows(), weight);
        }
    }

    fn lend(&mut self, chunk: &Arc<Chunk>, rows: Option<Range<usize>>, n: usize, weight: i64) {
        if n > 0 {
            self.copied.take();
            self.lent.push(Lent { chunk: Arc::clone(chunk), rows, weight });
            self.lent_rows += n;
        }
    }

    /// Forget every row — and every lent handle — keeping the buffers'
    /// capacity.
    pub fn clear(&mut self) {
        self.coords.clear();
        self.values.clear();
        self.ends.clear();
        self.lent.clear();
        self.listed.clear();
        self.lent_rows = 0;
        self.copied.take();
    }

    fn end_row(&mut self, weight: i64) {
        self.ends.push(RowEnd { coords: self.coords.len(), values: self.values.len(), weight });
    }

    /// The copied rows, in capture order.
    fn copied_rows(&self) -> impl ExactSizeIterator<Item = RowDelta<'_>> {
        let mut start = RowEnd { coords: 0, values: 0, weight: 0 };
        self.ends.iter().map(move |&end| {
            let row = RowDelta {
                coords: &self.coords[start.coords..end.coords],
                values: &self.values[start.values..end.values],
                weight: end.weight,
            };
            start = end;
            row
        })
    }

    /// The row changes, in order (module docs), as slices. A set that
    /// holds lent rows copies every row out on the first call and keeps
    /// the copy until it changes; [`DeltaSet::visit`] never copies.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = RowDelta<'_>> {
        let all = match self.lent.is_empty() {
            true => self,
            false => self.copied.get_or_init(|| {
                let mut all = Box::new(DeltaSet::new());
                self.visit(|row| {
                    all.coords.extend_from_slice(row.coords);
                    all.values.extend_from_slice(row.values);
                    all.end_row(row.weight);
                });
                all
            }),
        };
        all.copied_rows()
    }

    /// Hand every row change to `visit`, in the order of
    /// [`DeltaSet::rows`]: a copied row as slices of the set's buffers, a
    /// lent row with its coordinates read in place and its values boxed,
    /// 64 rows at a time, into one block of scratch rows that the whole
    /// walk reuses (module docs).
    pub fn visit(&self, mut visit: impl FnMut(RowDelta<'_>)) {
        self.copied_rows().for_each(&mut visit);
        let mut scratch: Vec<ScalarValue> = Vec::new();
        for lent in &self.lent {
            let (chunk, weight) = (&lent.chunk, lent.weight);
            let (nd, width, flat) = (chunk.ndims(), chunk.columns().len(), chunk.coords_flat());
            // A fixed-width placeholder: nothing to drop when it is overwritten.
            scratch.resize_with(BLOCK * width, || ScalarValue::Char(0));
            let emit = |block: &[usize]| {
                let values = &mut scratch[..block.len() * width];
                box_rows(chunk, block, values);
                for (i, &row) in block.iter().enumerate() {
                    let (coords, values) = (&flat[row * nd..][..nd], &values[i * width..][..width]);
                    visit(RowDelta { coords, values, weight });
                }
            };
            match &lent.rows {
                None => in_blocks(0..chunk.physical_cell_count(), emit),
                Some(listed) => {
                    in_blocks(self.listed[listed.clone()].iter().map(|&r| r as usize), emit)
                }
            }
        }
    }

    /// Number of row changes carried (counting multiplicities as 1 each).
    pub fn len(&self) -> usize {
        self.ends.len() + self.lent_rows
    }

    /// True when no changes are carried.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Net weight: inserts minus retractions.
    pub fn net_weight(&self) -> i64 {
        let copied: i64 = self.ends.iter().map(|r| r.weight).sum();
        let lent = self.lent.iter().map(|lent| {
            let rows = lent.rows.as_ref().map_or(lent.chunk.physical_cell_count(), Range::len);
            lent.weight * rows as i64
        });
        copied + lent.sum::<i64>()
    }

    /// Every live cell of `array` as a `+1` delta, copied
    /// ([`DeltaSet::extend_live_cells`]), in row-major chunk order and
    /// physical row order within each chunk: a set that owns its rows
    /// and keeps no chunk alive. Two uses: turning a freshly built insert
    /// array into its Δ, and feeding a from-scratch recompute of a view
    /// from a whole-array reference copy. The cycle runner, which folds
    /// the Δ before it lets the chunks go, lends them instead
    /// ([`DeltaSet::lend_live_cells`]).
    pub fn from_live_cells(array: &Array) -> Self {
        let mut delta = DeltaSet::new();
        delta.extend_live_cells(array);
        delta
    }

    /// Lend every live cell of `array` at weight `+1` — the rows of
    /// [`DeltaSet::from_live_cells`], in its order, lent into a set that
    /// is being refilled.
    pub fn lend_live_cells(&mut self, array: &Array) {
        for (_, chunk) in array.shared_chunks() {
            self.lend_live_rows(chunk, 1);
        }
    }

    /// Copy in every live cell of `array` at weight `+1`
    /// ([`DeltaSet::from_live_cells`] into a set that is being refilled).
    pub fn extend_live_cells(&mut self, array: &Array) {
        // Sized exactly: three doubling buffers would otherwise peak at
        // three times what the rows need.
        let rows = usize::try_from(array.cell_count()).expect("live cells are resident rows");
        self.coords.reserve(rows * array.schema.ndims());
        self.values.reserve(rows * array.schema.attributes.len());
        self.ends.reserve(rows);
        for (_, chunk) in array.shared_chunks() {
            if chunk.tombstone_count() == 0 {
                self.copy_rows(chunk, 0..chunk.physical_cell_count(), 1);
            } else {
                self.extend_from_chunk(chunk, chunk.live_rows(), 1);
            }
        }
    }
}

/// Rows one block of the boxing kernel holds: 64 rows of seven 32-byte
/// values are 14 KiB, so a block's strided column writes stay in L1.
const BLOCK: usize = 64;

/// Hand `rows` to `f` in blocks of at most [`BLOCK`].
fn in_blocks(rows: impl Iterator<Item = usize>, mut f: impl FnMut(&[usize])) {
    let (mut block, mut n) = ([0; BLOCK], 0);
    for row in rows {
        block[n] = row;
        n += 1;
        if n == BLOCK {
            f(&block);
            n = 0;
        }
    }
    if n > 0 {
        f(&block[..n]);
    }
}

/// Box the values of `rows` of `chunk` into `out`, row-major — row `i`'s
/// values are `out[i * width..][..width]` — a column at a time: each
/// column's type is matched once per block, then one typed loop writes
/// its strided slots.
fn box_rows(chunk: &Chunk, rows: &[usize], out: &mut [ScalarValue]) {
    let width = chunk.columns().len();
    for (attr, column) in chunk.columns().iter().enumerate() {
        column.fill_rows(rows.iter().copied(), out[attr..].iter_mut().step_by(width));
    }
}

impl PartialEq for DeltaSet {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.rows().eq(other.rows())
    }
}

impl std::fmt::Debug for DeltaSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.rows()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::ArrayId;
    use crate::schema::ArraySchema;
    use std::sync::Arc;

    fn sample() -> Array {
        let schema = ArraySchema::parse("D<v:double, s:string>[x=0:*,4]").unwrap();
        let mut a = Array::new(ArrayId(7), schema);
        for i in 0..10i64 {
            a.insert_cell(
                vec![i],
                vec![ScalarValue::Double(i as f64 * 1.5), ScalarValue::Str(format!("s{}", i % 3))],
            )
            .unwrap();
        }
        a
    }

    #[test]
    fn live_cell_extraction_is_exhaustive_and_ordered() {
        let a = sample();
        let d = DeltaSet::from_live_cells(&a);
        assert_eq!(d.len(), 10);
        assert_eq!(d.net_weight(), 10);
        let xs: Vec<i64> = d.rows().map(|r| r.coords[0]).collect();
        assert_eq!(xs, (0..10).collect::<Vec<_>>());
        assert_eq!(d.rows().nth(3).unwrap().values[0], ScalarValue::Double(4.5));
        assert_eq!(d.rows().nth(4).unwrap().values[1], ScalarValue::Str("s1".into()));
    }

    #[test]
    #[allow(deprecated)]
    fn capturing_delete_reports_the_retracted_values() {
        let mut a = sample();
        let mut captured = DeltaSet::new();
        let out = a
            .delete_cells_capturing(&[3, 7, 99], |cell, values| {
                captured.push(cell.to_vec(), values, -1)
            })
            .unwrap();
        assert_eq!(out.retracted, 2);
        assert_eq!(out.missing, 1);
        assert_eq!(captured.len(), 2);
        assert_eq!(captured.net_weight(), -2);
        assert_eq!(captured.rows().next().unwrap().coords, vec![3]);
        assert_eq!(captured.rows().next().unwrap().values[0], ScalarValue::Double(4.5));
        assert_eq!(captured.rows().nth(1).unwrap().values[1], ScalarValue::Str("s1".into()));
        // Tombstoned cells don't reappear in a later extraction.
        assert_eq!(DeltaSet::from_live_cells(&a).len(), 8);
    }

    /// The flat buffers carry exactly the rows the per-row form carried:
    /// `from_live_cells` and the capturing delete are compared, row for
    /// row, with deltas assembled the old way — one `push` of a fresh
    /// `Vec` pair per live cell, and one per cell the one-cell reference
    /// (`retract_cell_indexed`) tombstones as it walks the script.
    #[test]
    #[allow(deprecated)]
    fn flat_buffers_carry_the_rows_per_row_pushes_did() {
        let mut a = sample();
        a.delete_cells(&[4]).unwrap(); // an earlier tombstone to skip
        a.insert_cell(vec![5], vec![ScalarValue::Double(-1.0), ScalarValue::Str("dup".into())])
            .unwrap();
        let mut per_row = DeltaSet::new();
        for (_, chunk) in a.chunks() {
            for (cell, row) in chunk.iter_cells() {
                per_row.push(cell.to_vec(), chunk.row_values(row).unwrap(), 1);
            }
        }
        let flat = DeltaSet::from_live_cells(&a);
        assert_eq!(flat, per_row);
        assert!(flat.rows().eq(per_row.rows()));
        assert_eq!(flat.rows().len(), 10);

        // A script that hops between chunks, repeats a duplicated cell
        // (most recent first, then the older one, then a miss) and names
        // a cell that was never there.
        let script = [9i64, 5, 0, 5, 77, 5, 8];
        let mut reference = a.clone();
        let mut per_cell = DeltaSet::new();
        for cell in script.chunks_exact(1) {
            let coords = crate::coords::chunk_of(&reference.schema, cell).unwrap();
            let Some(mut chunk) = reference.remove_chunk(&coords) else { continue };
            if let Some((row, _)) = Arc::make_mut(&mut chunk).retract_cell_indexed(cell) {
                per_cell.push(cell.to_vec(), chunk.row_values(row).unwrap(), -1);
            }
            reference.install_chunk(chunk);
        }
        let mut captured = DeltaSet::new();
        let out = a
            .delete_cells_capturing(&script, |cell, values| {
                captured.push(cell.to_vec(), values, -1)
            })
            .unwrap();
        assert_eq!((out.retracted, out.missing), (5, 2));
        assert_eq!(captured, per_cell, "capture order is script order");
        assert_eq!(captured.rows().nth(1).unwrap().values[1], ScalarValue::Str("dup".into()));
        assert_eq!(captured.rows().nth(3).unwrap().values[0], ScalarValue::Double(7.5));
        for (coords, chunk) in reference.chunks() {
            assert_eq!(a.chunk(coords), Some(chunk), "stores agree at {coords}");
        }
    }

    /// The column-at-a-time fill against the per-row form it replaced —
    /// one `push` of `cell` + `row_values` per listed row — for every
    /// column type, strings as dictionary codes; tombstoned and repeated
    /// rows in the list; an empty list; and a set that is cleared and
    /// refilled.
    #[test]
    fn chunk_fill_equals_per_row_pushes_for_every_column_type() {
        let schema = ArraySchema::parse(
            "T<a:int32, b:int64, c:float, d:double, e:char, s:string, t:string>[x=0:*,64, y=0:9,10]",
        )
        .unwrap();
        let mut a = Array::new(ArrayId(1), schema);
        for i in 0..40i64 {
            let values = vec![
                ScalarValue::Int32(i as i32 - 7),
                ScalarValue::Int64(i << 40),
                ScalarValue::Float(if i == 3 { f32::NAN } else { i as f32 / 3.0 }),
                ScalarValue::Double(-(i as f64)),
                ScalarValue::Char(b'a' + (i % 26) as u8),
                ScalarValue::Str(format!("s{}", i % 5)),
                ScalarValue::Str(if i % 2 == 0 { String::new() } else { "odd".into() }),
            ];
            a.insert_cell(vec![i, i % 10], values).unwrap();
        }
        a.delete_cells(&[5, 5, 11, 1]).unwrap();
        let chunk = a.chunks().next().unwrap().1;
        assert_eq!(chunk.column(5).unwrap().as_dict().map(|d| d.dict().len()), Some(5));
        let per_row = |lists: &[(&[u32], i64)]| {
            let mut delta = DeltaSet::new();
            for &(rows, weight) in lists {
                for &row in rows {
                    let row = row as usize;
                    let values = chunk.row_values(row).unwrap();
                    delta.push(chunk.cell(row).unwrap().to_vec(), values, weight);
                }
            }
            delta
        };
        // NaN != NaN: compare what the rows say, not the values.
        let same = |a: &DeltaSet, b: &DeltaSet| format!("{a:?}") == format!("{b:?}");

        let listed: &[u32] = &[39, 5, 0, 11, 11, 3, 20];
        let mut filled = DeltaSet::new();
        filled.extend_from_chunk(chunk, listed.iter().copied(), -1);
        filled.extend_from_chunk(chunk, [].into_iter(), -1);
        filled.extend_from_chunk(chunk, chunk.live_rows(), 1);
        let live: Vec<u32> = chunk.iter_cells().map(|(_, row)| row as u32).collect();
        assert_eq!(live.len(), 38);
        assert!(same(&filled, &per_row(&[(listed, -1), (&live, 1)])));
        assert_eq!((filled.len(), filled.net_weight()), (7 + 38, 38 - 7));
        assert!(same(&DeltaSet::from_live_cells(&a), &per_row(&[(&live, 1)])));

        // Refill: nothing of the first fill survives `clear`, and the
        // buffers are not given back.
        let held = (filled.coords.capacity(), filled.values.capacity(), filled.ends.capacity());
        filled.clear();
        assert!(filled.is_empty() && filled.rows().next().is_none());
        filled.extend_from_chunk(chunk, [11, 2].into_iter(), 1);
        assert!(same(&filled, &per_row(&[(&[11, 2], 1)])));
        assert_eq!(
            (filled.coords.capacity(), filled.values.capacity(), filled.ends.capacity()),
            held
        );
    }

    #[test]
    #[allow(deprecated)]
    fn per_chunk_compaction_is_threshold_ready() {
        let mut a = sample();
        a.delete_cells(&[0, 1, 2]).unwrap(); // chunk [0]: 3 of 4 rows dead
        let coords = crate::coords::chunk_of(&a.schema, &[0]).unwrap();
        let chunk = a.chunk(&coords).unwrap();
        assert_eq!(chunk.tombstone_count(), 3);
        let reclaimed = a.compact_chunk(&coords).expect("tombstones present");
        assert!(reclaimed > 0);
        let chunk = a.chunk(&coords).unwrap();
        assert_eq!(chunk.tombstone_count(), 0);
        assert_eq!(chunk.cell_count(), 1);
        // Vacant or clean positions decline.
        assert_eq!(a.compact_chunk(&coords), None);
    }
}
