//! Logical change sets: the Δ a cycle applies to one array.
//!
//! A [`DeltaSet`] is a Z-set over logical rows — each [`RowDelta`] is a
//! cell's coordinates and attribute values with a signed multiplicity
//! (`+1` insert, `-1` retraction). Inserts are extracted from the
//! freshly built per-cycle arrays ([`DeltaSet::from_live_cells`]);
//! retractions are captured from the rows a retraction script matched
//! ([`DeltaSet::extend_from_chunk`]) before storage is reclaimed. Downstream consumers (the query crate's
//! incremental views) fold each delta into their own state, never
//! rescanning the base array — so the transport here is deliberately *logical*: rebalances,
//! failovers, and chunk compactions move bytes around without producing
//! any delta at all.
//!
//! # Layout and order
//!
//! Three flat buffers, no allocation per row: every row's coordinates
//! end to end, every row's values end to end, and per row the two end
//! offsets plus the weight. [`DeltaSet::rows`] lends each row out as
//! slices of the first two, and [`DeltaSet::clear`] empties all three
//! keeping their capacity, so a caller that extracts a delta every cycle
//! refills one set instead of allocating three buffers a cycle.
//!
//! Rows leave a chunk **a column at a time**
//! ([`DeltaSet::extend_from_chunk`]): the listed rows' coordinates as one
//! strided copy, then each attribute column as one typed loop into its
//! slot of the row-major value buffer — the column's type is matched once
//! per chunk, not once per value.
//!
//! The order of the rows is **deterministic** — a function of the stored
//! arrays and the script, never of hashing or addresses — so a run and
//! its replay extract the same sequence: chunk order (row-major) then
//! physical row order for [`DeltaSet::from_live_cells`], and **chunk-major**
//! for the retractions the cycle runner captures (each touched chunk's
//! rows in the order the script listed them). Consumers **must not depend on it**: a delta means its multiset of
//! `(coords, values, weight)`, and the incremental views fold one to the
//! same bits whatever order its rows arrive in (`view/mod.rs`,
//! "Determinism").

use crate::array::Array;
use crate::chunk::Chunk;
use crate::value::ScalarValue;

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

/// Where one row ends in the two flat buffers, and its weight.
#[derive(Debug, Clone, Copy, PartialEq)]
struct RowEnd {
    coords: usize,
    values: usize,
    weight: i64,
}

/// An ordered collection of row changes for one array — the logical
/// change one cycle step produced (see the module docs for the layout
/// and the order).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeltaSet {
    coords: Vec<i64>,
    values: Vec<ScalarValue>,
    ends: Vec<RowEnd>,
}

impl DeltaSet {
    /// An empty delta.
    pub fn new() -> Self {
        DeltaSet::default()
    }

    /// Append one row change.
    pub fn push(&mut self, coords: Vec<i64>, values: Vec<ScalarValue>, weight: i64) {
        self.coords.extend(coords);
        self.values.extend(values);
        self.end_row(weight);
    }

    /// Append the physical rows `rows` of `chunk` (tombstoned or not —
    /// values survive until compaction), each at `weight`, a column at a
    /// time (module docs): `rows` is walked once for the coordinates and
    /// once per attribute.
    ///
    /// # Panics
    ///
    /// If a row is past the chunk's physical rows.
    pub fn extend_from_chunk(
        &mut self,
        chunk: &Chunk,
        rows: impl Iterator<Item = u32> + Clone,
        weight: i64,
    ) {
        let (nd, columns) = (chunk.ndims(), chunk.columns());
        let flat = chunk.coords_flat();
        let mut n = 0;
        for row in rows.clone() {
            self.coords.extend_from_slice(&flat[row as usize * nd..][..nd]);
            n += 1;
        }
        if n == 0 {
            return;
        }
        // Row-major slots first (a fixed-width placeholder: nothing to
        // drop when it is overwritten), then one typed sweep per column.
        let (width, base) = (columns.len(), self.values.len());
        self.values.resize_with(base + n * width, || ScalarValue::Char(0));
        for (attr, column) in columns.iter().enumerate() {
            column.fill_rows(rows.clone(), self.values[base + attr..].iter_mut().step_by(width));
        }
        let (mut coords, mut values) = (self.coords.len() - n * nd, base);
        self.ends.extend((0..n).map(|_| {
            coords += nd;
            values += width;
            RowEnd { coords, values, weight }
        }));
    }

    /// Forget every row, keeping the buffers' capacity.
    pub fn clear(&mut self) {
        self.coords.clear();
        self.values.clear();
        self.ends.clear();
    }

    fn end_row(&mut self, weight: i64) {
        self.ends.push(RowEnd { coords: self.coords.len(), values: self.values.len(), weight });
    }

    /// The row changes, in capture order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = RowDelta<'_>> {
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

    /// Number of row changes carried (counting multiplicities as 1 each).
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when no changes are carried.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Net weight: inserts minus retractions.
    pub fn net_weight(&self) -> i64 {
        self.ends.iter().map(|r| r.weight).sum()
    }

    /// Every live cell of `array` as a `+1` delta, in row-major chunk
    /// order and physical row order within each chunk. Two uses: turning a
    /// cycle's freshly built insert arrays into their Δ, and feeding a
    /// from-scratch recompute of a view from a whole-array reference copy.
    pub fn from_live_cells(array: &Array) -> Self {
        let mut delta = DeltaSet::new();
        delta.extend_live_cells(array);
        delta
    }

    /// Append every live cell of `array` at weight `+1`
    /// ([`DeltaSet::from_live_cells`] into a set that is being refilled).
    pub fn extend_live_cells(&mut self, array: &Array) {
        // Sized exactly: three doubling buffers would otherwise peak at
        // three times what the rows need.
        let rows = usize::try_from(array.cell_count()).expect("live cells are resident rows");
        self.coords.reserve(rows * array.schema.ndims());
        self.values.reserve(rows * array.schema.attributes.len());
        self.ends.reserve(rows);
        for (_, chunk) in array.shared_chunks() {
            self.extend_from_chunk(chunk, chunk.live_rows(), 1);
        }
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
    /// column type, strings as dictionary codes, as a dictionary spilled
    /// to plain and as plain; tombstoned and repeated rows in the list;
    /// an empty list; and a set that is cleared and refilled.
    #[test]
    fn chunk_fill_equals_per_row_pushes_for_every_column_type() {
        use crate::value::StringEncoding;
        let schema = ArraySchema::parse(
            "T<a:int32, b:int64, c:float, d:double, e:char, s:string, t:string>[x=0:*,64, y=0:9,10]",
        )
        .unwrap();
        for encoding in
            [StringEncoding::default(), StringEncoding::Dict { cap: 2 }, StringEncoding::Plain]
        {
            let mut a = Array::with_encoding(ArrayId(1), schema.clone(), encoding);
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
            assert_eq!(
                chunk.column(5).unwrap().as_dict().is_some(),
                encoding == StringEncoding::default(),
                "five strings spill a cap of two"
            );
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
