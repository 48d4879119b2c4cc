//! Logical change sets: the Δ a cycle applies to one array.
//!
//! A [`DeltaSet`] is a Z-set over logical rows — each [`RowDelta`] is a
//! cell's coordinates and attribute values with a signed multiplicity
//! (`+1` insert, `-1` retraction). Inserts are extracted from the
//! freshly built per-cycle arrays ([`DeltaSet::from_live_cells`]);
//! retractions are captured from the rows a retraction script matched
//! ([`DeltaSet::push_chunk_row`], [`Array::delete_cells_capturing`])
//! before storage is reclaimed. Downstream consumers (the query crate's
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
//! slices of the first two. Rows keep **capture order**: chunk order then
//! insertion order for [`DeltaSet::from_live_cells`], and *script* order
//! — the order the delete script listed the cells, whatever chunks they
//! fell in — for captured retractions. Incremental consumers rely on
//! that order being deterministic for bit-identical float folds.
//!
//! [`Array::delete_cells_capturing`]: crate::Array::delete_cells_capturing

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

    /// Append physical row `row` of `chunk` (tombstoned or not — values
    /// survive until compaction) straight from its columns. Returns
    /// false, appending nothing, when `row` is past the chunk's rows.
    pub fn push_chunk_row(&mut self, chunk: &Chunk, row: usize, weight: i64) -> bool {
        let Some(cell) = chunk.cell(row) else { return false };
        self.coords.extend_from_slice(cell);
        chunk.extend_row_values(row, &mut self.values);
        self.end_row(weight);
        true
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
    /// order and insertion order within each chunk. Two uses: turning a
    /// cycle's freshly built insert arrays into their Δ, and feeding a
    /// from-scratch recompute of a view from the catalog's oracle copy —
    /// both walk cells in the same deterministic order, which is what
    /// makes incremental-vs-recompute comparisons bit-exact.
    pub fn from_live_cells(array: &Array) -> Self {
        // Sized exactly: three doubling buffers would otherwise peak at
        // three times what the rows need.
        let rows = usize::try_from(array.cell_count()).expect("live cells are resident rows");
        let mut delta = DeltaSet {
            coords: Vec::with_capacity(rows * array.schema.ndims()),
            values: Vec::with_capacity(rows * array.schema.attributes.len()),
            ends: Vec::with_capacity(rows),
        };
        for (_, chunk) in array.shared_chunks() {
            for (_, row) in chunk.iter_cells() {
                delta.push_chunk_row(chunk, row, 1);
            }
        }
        delta
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

    #[test]
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
