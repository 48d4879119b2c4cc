//! Selection operators: subarray extraction and attribute filters.
//!
//! These are the paper's "highly parallelizable" SPJ selections (§3.3.1):
//! every node scans its share of the relevant chunks independently, so
//! elapsed time is bounded by the most loaded node — storage skew shows up
//! here directly (the AIS Houston-region selection).
//!
//! Both operators plan through [`ExecutionContext::plan_scan`]: chunks
//! whose zone map refutes the region or the pushed-down predicate are
//! skipped before any payload byte is read, and the survivors' rows
//! arrive already filtered, one selection mask per chunk.

use super::scan::SelectionMask;
use crate::error::{QueryError, Result};
use crate::exec::ExecutionContext;
use crate::predicate::Predicate;
use crate::stats::{QueryStats, WorkTracker};
use array_model::{ArrayId, AttributeColumn, Chunk, Region, ScalarValue};

/// Cells returned by a selection, with their coordinates.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CellSet {
    /// The returned rows, in scan order: iterate `&set.cells` (or
    /// [`CellRows::iter`]) for borrowed `(cell coordinates, attribute
    /// values)` pairs. Empty unless the scan's plan is exact: it is not
    /// when a chunk it reaches is metadata only (cost simulation at
    /// paper scale).
    pub cells: CellRows,
}

impl CellSet {
    /// Number of returned cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when no cells were returned.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

/// A selection's rows as one flat buffer pair: every row's coordinates end
/// to end, every row's attribute values end to end. The strides come from
/// the schema (dimensions) and the projected attribute list, so a row is
/// two sub-slices, lent out by [`CellRows::iter`] — no heap cell per row.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CellRows {
    /// Coordinates per row.
    ndims: usize,
    /// Attribute values per row.
    nattrs: usize,
    /// Row count, kept beside the buffers because either stride may be
    /// zero (an empty default set; a projection of no attributes).
    rows: usize,
    coords: Vec<i64>,
    values: Vec<ScalarValue>,
}

impl CellRows {
    fn with_strides(ndims: usize, nattrs: usize) -> Self {
        CellRows { ndims, nattrs, ..CellRows::default() }
    }

    /// Append the rows of `chunk` that `mask` selects, projecting the
    /// attributes `attr_idx`, in the mask's (physical) order. Room for
    /// all of them is reserved first, so a chunk's rows land without a
    /// reallocation per push.
    fn push_chunk(
        &mut self,
        chunk: &Chunk,
        mask: &SelectionMask,
        attr_idx: &[usize],
    ) -> Result<()> {
        // Checked, not trusted: the value stride is as long as the
        // caller's projection list, so the product is the caller's to
        // overflow.
        let too_large = || QueryError::InvalidArgument("selection too large to return".into());
        let more = usize::try_from(mask.count()).map_err(|_| too_large())?;
        let more_coords = more.checked_mul(self.ndims).ok_or_else(too_large)?;
        let more_values = more.checked_mul(self.nattrs).ok_or_else(too_large)?;
        self.coords.reserve(more_coords);
        self.values.reserve(more_values);
        // A stored chunk carries one column per schema attribute, each
        // covering every physical row — the only rows a mask names.
        let columns: Vec<&AttributeColumn> =
            attr_idx.iter().map(|&i| chunk.column(i).expect("schema-shaped chunk")).collect();
        mask.for_each_cell(chunk, |row, cell| {
            self.coords.extend_from_slice(cell);
            self.values.extend(columns.iter().map(|c| c.get(row).expect("row exists")));
        });
        self.rows += more;
        Ok(())
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The rows in scan order, each lent as `(cell coordinates, attribute
    /// values)`.
    pub fn iter(&self) -> CellRowsIter<'_> {
        CellRowsIter { rows: self, next: 0 }
    }

    /// The rows as owned pairs, for callers that sort, keep or compare
    /// them (two heap allocations per row — what iteration avoids).
    pub fn to_rows(&self) -> Vec<(Vec<i64>, Vec<ScalarValue>)> {
        self.iter().map(|(cell, values)| (cell.to_vec(), values.to_vec())).collect()
    }
}

/// Borrowing iterator over a [`CellRows`].
#[derive(Debug, Clone)]
pub struct CellRowsIter<'a> {
    rows: &'a CellRows,
    next: usize,
}

impl<'a> Iterator for CellRowsIter<'a> {
    type Item = (&'a [i64], &'a [ScalarValue]);

    fn next(&mut self) -> Option<Self::Item> {
        let (i, set) = (self.next, self.rows);
        if i >= set.rows {
            return None;
        }
        self.next += 1;
        // `push_chunk` appends one stride to each buffer per row, so the
        // buffers are `rows * stride` long: row `i < rows` lies inside
        // both, and neither product can overflow.
        Some((
            &set.coords[i * set.ndims..(i + 1) * set.ndims],
            &set.values[i * set.nattrs..(i + 1) * set.nattrs],
        ))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.rows.rows - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for CellRowsIter<'_> {}

impl<'a> IntoIterator for &'a CellRows {
    type Item = (&'a [i64], &'a [ScalarValue]);
    type IntoIter = CellRowsIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Extract the cells of `array` inside `region`, reading the named
/// attributes (all attributes when `attrs` is empty).
pub fn subarray(
    ctx: &ExecutionContext<'_>,
    array_id: ArrayId,
    region: &Region,
    attrs: &[&str],
) -> Result<(CellSet, QueryStats)> {
    let array = ctx.catalog.array(array_id)?;
    let fraction = if attrs.is_empty() { 1.0 } else { ctx.attr_fraction(array, attrs)? };
    let mut tracker = WorkTracker::new(ctx.cost());

    let plan = ctx.plan_scan(array_id, Some(region), None)?;
    plan.charge(&mut tracker, fraction, |_, _, _, _| {});

    let attr_idx: Vec<usize> = if attrs.is_empty() {
        (0..array.schema.attributes.len()).collect()
    } else {
        attrs.iter().map(|a| array.attribute_index(a)).collect::<Result<Vec<_>>>()?
    };
    let mut out = CellRows::with_strides(array.schema.ndims(), attr_idx.len());
    let mut pushed = Ok(());
    plan.for_each_chunk(|chunk, mask| {
        if pushed.is_ok() {
            pushed = out.push_chunk(chunk, &mask, &attr_idx);
        }
    })?;
    pushed?;
    Ok((CellSet { cells: out }, tracker.finish()))
}

/// Count the cells of `array` in `region` whose attribute `attr` satisfies
/// `predicate`. Costing matches [`subarray`] restricted to one column.
///
/// The predicate is *data* (see [`Predicate`]), so it is type-checked
/// against the attribute up front — a numeric comparison over a string
/// column is a typed [`crate::QueryError::AttributeType`], never a
/// silently skipped row — and pushed down into the scan plan, where zone
/// maps and dictionary probes refute whole chunks and dictionary columns
/// are filtered as `u32` codes without decoding.
pub fn filter_count(
    ctx: &ExecutionContext<'_>,
    array_id: ArrayId,
    region: &Region,
    attr: &str,
    predicate: &Predicate,
) -> Result<(u64, QueryStats)> {
    let array = ctx.catalog.array(array_id)?;
    let fraction = ctx.attr_fraction(array, &[attr])?;
    let attr_idx = array.attribute_index(attr)?;
    predicate.check_type(attr, array.schema.attributes[attr_idx].ty)?;
    let mut tracker = WorkTracker::new(ctx.cost());

    let plan = ctx.plan_scan(array_id, Some(region), Some((attr_idx, predicate)))?;
    plan.charge(&mut tracker, fraction, |_, _, _, _| {});

    let mut count = 0u64;
    plan.for_each_chunk(|_, mask| count += mask.count())?;
    Ok((count, tracker.finish()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Catalog, StoredArray};
    use array_model::{Array, ArraySchema};
    use cluster_sim::{Cluster, CostModel, NodeId};

    fn setup(spread: bool) -> (Cluster, Catalog) {
        let mut cluster = Cluster::new(4, u64::MAX, CostModel::default()).unwrap();
        let schema = ArraySchema::parse("A<v:int32>[x=0:7,2, y=0:7,2]").unwrap();
        let mut a = Array::new(ArrayId(0), schema);
        for x in 0..8 {
            for y in 0..8 {
                a.insert_cell(vec![x, y], vec![ScalarValue::Int32((x * 8 + y) as i32)]).unwrap();
            }
        }
        let mut cat = Catalog::new();
        let node = |i: usize| if spread { NodeId((i % 4) as u32) } else { NodeId(0) };
        cat.place_array(&mut cluster, &a, |_, i, _| node(i)).unwrap();
        (cluster, cat)
    }

    #[test]
    fn subarray_returns_exactly_the_region() {
        let (cluster, cat) = setup(true);
        let ctx = ExecutionContext::new(&cluster, &cat);
        let region = Region::new(vec![0, 0], vec![2, 2]);
        let (cells, stats) = subarray(&ctx, ArrayId(0), &region, &[]).unwrap();
        assert_eq!(cells.len(), 9);
        // Region spans chunks (0,0),(0,1),(1,0),(1,1): 4 chunks scanned
        // (the array is dense, so no zone map can refute them).
        assert_eq!(stats.chunks_visited, 4);
        assert_eq!(stats.chunks_pruned, 0);
        assert!(stats.elapsed_secs > 0.0);
        // Every returned cell is inside the region.
        for (cell, _) in &cells.cells {
            assert!(region.contains_cell(cell));
        }
    }

    #[test]
    fn balanced_placement_is_faster() {
        let region = Region::new(vec![0, 0], vec![7, 7]);
        let (c_spread, cat_spread) = setup(true);
        let (c_skew, cat_skew) = setup(false);
        let t_spread =
            subarray(&ExecutionContext::new(&c_spread, &cat_spread), ArrayId(0), &region, &[])
                .unwrap()
                .1
                .elapsed_secs;
        let t_skew = subarray(&ExecutionContext::new(&c_skew, &cat_skew), ArrayId(0), &region, &[])
            .unwrap()
            .1
            .elapsed_secs;
        assert!(t_skew > 3.0 * t_spread, "skewed {t_skew} spread {t_spread}");
    }

    #[test]
    fn filter_count_matches_naive() {
        let (cluster, cat) = setup(true);
        let ctx = ExecutionContext::new(&cluster, &cat);
        let region = Region::new(vec![0, 0], vec![7, 7]);
        let (count, _) =
            filter_count(&ctx, ArrayId(0), &region, "v", &Predicate::ge(32.0)).unwrap();
        assert_eq!(count, 32);
    }

    #[test]
    fn selective_predicate_prunes_chunks_without_changing_the_answer() {
        let (cluster, cat) = setup(true);
        let region = Region::new(vec![0, 0], vec![7, 7]);
        // v = x*8+y, so only the bottom row band (x >= 6) holds v >= 48:
        // the zone maps of the other chunk rows refute the predicate.
        let pruned_ctx = ExecutionContext::new(&cluster, &cat);
        let (count, stats) =
            filter_count(&pruned_ctx, ArrayId(0), &region, "v", &Predicate::ge(48.0)).unwrap();
        let unpruned_ctx = ExecutionContext::new(&cluster, &cat).with_pruning(false);
        let (base, base_stats) =
            filter_count(&unpruned_ctx, ArrayId(0), &region, "v", &Predicate::ge(48.0)).unwrap();
        assert_eq!(count, base, "pruning changed the answer");
        assert_eq!(count, 16);
        assert_eq!(base_stats.chunks_visited, 16);
        assert_eq!(base_stats.chunks_pruned, 0);
        assert_eq!(stats.chunks_visited, 4, "only the x>=6 chunk row survives");
        assert_eq!(stats.chunks_pruned, 12);
        assert!(stats.elapsed_secs < base_stats.elapsed_secs);
    }

    #[test]
    fn numeric_predicate_over_string_column_is_a_typed_error() {
        let mut cluster = Cluster::new(1, u64::MAX, CostModel::default()).unwrap();
        let schema = ArraySchema::parse("S<name:string>[x=0:3,4]").unwrap();
        let mut a = Array::new(ArrayId(2), schema);
        a.insert_cell(vec![0], vec![ScalarValue::Str("a".into())]).unwrap();
        let mut cat = Catalog::new();
        cat.place_array(&mut cluster, &a, |_, _, _| NodeId(0)).unwrap();
        let ctx = ExecutionContext::new(&cluster, &cat);
        let region = Region::new(vec![0], vec![3]);
        let err = filter_count(&ctx, ArrayId(2), &region, "name", &Predicate::ge(1.0)).unwrap_err();
        assert!(matches!(err, crate::QueryError::AttributeType { .. }), "{err}");
        // And the matching string predicate works, counting for real.
        let (n, _) =
            filter_count(&ctx, ArrayId(2), &region, "name", &Predicate::str_eq("a")).unwrap();
        assert_eq!(n, 1);
    }

    #[test]
    fn unknown_attribute_is_rejected() {
        let (cluster, cat) = setup(true);
        let ctx = ExecutionContext::new(&cluster, &cat);
        let region = Region::new(vec![0, 0], vec![7, 7]);
        assert!(subarray(&ctx, ArrayId(0), &region, &["zzz"]).is_err());
    }

    // -- the flat `CellRows` against the row-at-a-time result it replaced --

    /// `subarray`'s answer the way it used to be built: one owned
    /// `(coordinates, values)` pair pushed per selected row.
    fn pushed_per_row(
        ctx: &ExecutionContext<'_>,
        id: ArrayId,
        region: &Region,
        attr_idx: &[usize],
    ) -> Vec<(Vec<i64>, Vec<ScalarValue>)> {
        let mut rows = Vec::new();
        let plan = ctx.plan_scan(id, Some(region), None).unwrap();
        plan.for_each_chunk(|chunk, mask| {
            mask.for_each_cell(chunk, |row, cell| {
                let values =
                    attr_idx.iter().map(|&i| chunk.column(i).unwrap().get(row).unwrap()).collect();
                rows.push((cell.to_vec(), values));
            });
        })
        .unwrap();
        rows
    }

    /// Mixed fixed-width and string attributes over several chunks, with
    /// a few rows retracted so masks carry tombstones.
    fn mixed(id: u32) -> (Cluster, Catalog) {
        let mut cluster = Cluster::new(2, u64::MAX, CostModel::default()).unwrap();
        let schema =
            ArraySchema::parse("M<v:int32, name:string, w:double>[x=0:11,3, y=0:5,3]").unwrap();
        let mut a = Array::new(ArrayId(id), schema);
        for x in 0..12i64 {
            for y in 0..6i64 {
                let name = format!("n{}", (x * 7 + y) % 5);
                let values = vec![
                    ScalarValue::Int32((x * 6 + y) as i32),
                    ScalarValue::Str(name),
                    ScalarValue::Double(x as f64 / 3.0 - y as f64),
                ];
                a.insert_cell(vec![x, y], values).unwrap();
            }
        }
        a.delete_cells(&[0, 0, 4, 4, 11, 5]).unwrap();
        let mut cat = Catalog::new();
        cat.place_array(&mut cluster, &a, |_, i, _| NodeId((i % 2) as u32)).unwrap();
        (cluster, cat)
    }

    #[test]
    fn borrowed_rows_equal_owned_rows_equal_the_per_row_pushes() {
        let (cluster, cat) = mixed(6);
        let ctx = ExecutionContext::new(&cluster, &cat);
        let regions = [
            Region::new(vec![0, 0], vec![11, 5]),
            Region::new(vec![2, 1], vec![7, 4]),
            Region::new(vec![4, 4], vec![4, 4]), // the retracted cell: zero rows
        ];
        let projections: [(&[&str], &[usize]); 4] = [
            (&[], &[0, 1, 2]),
            (&["name"], &[1]),
            (&["w", "v"], &[2, 0]),
            (&["name", "name"], &[1, 1]),
        ];
        for region in &regions {
            for (attrs, attr_idx) in projections {
                let (set, _) = subarray(&ctx, ArrayId(6), region, attrs).unwrap();
                let want = pushed_per_row(&ctx, ArrayId(6), region, attr_idx);
                assert_eq!(set.cells.to_rows(), want, "{region:?} {attrs:?}");
                let lent: Vec<(Vec<i64>, Vec<ScalarValue>)> =
                    set.cells.iter().map(|(c, v)| (c.to_vec(), v.to_vec())).collect();
                assert_eq!(lent, want, "{region:?} {attrs:?}");
                assert_eq!(set.len(), want.len());
                assert_eq!(set.cells.iter().len(), want.len());
                assert_eq!(set.is_empty(), want.is_empty());
            }
        }
        let (all, _) = subarray(&ctx, ArrayId(6), &regions[0], &[]).unwrap();
        assert_eq!(all.len(), 12 * 6 - 3);
        let (none, _) = subarray(&ctx, ArrayId(6), &regions[2], &[]).unwrap();
        assert!(none.is_empty() && none.cells.iter().next().is_none());
    }

    #[test]
    fn metadata_only_arrays_return_no_rows() {
        let (mut cluster, mut cat) = setup(true);
        let schema = ArraySchema::parse("D<v:int32>[x=0:7,2]").unwrap();
        let key = array_model::ChunkKey::new(ArrayId(8), array_model::ChunkCoords::new([1]));
        let desc = array_model::ChunkDescriptor::new(key, 4_096, 2);
        cluster.place(desc, NodeId(0)).unwrap();
        cat.register(StoredArray::from_descriptors(ArrayId(8), schema, [desc]));
        let ctx = ExecutionContext::new(&cluster, &cat);
        let (set, stats) = subarray(&ctx, ArrayId(8), &Region::new(vec![0], vec![7]), &[]).unwrap();
        assert_eq!(stats.chunks_visited, 1, "still costed");
        assert!(set.is_empty());
        assert_eq!(set.cells.to_rows(), vec![]);
        assert_eq!((&set.cells).into_iter().count(), 0);
        assert_eq!(CellSet::default().cells.iter().count(), 0);
    }

    /// `benchmark/src/query_mix.rs::cells_digest`, loop and all: the
    /// benchmark sources are frozen while a change is being measured, so
    /// the shape they rely on — `set.len()`, `for (cell, values) in
    /// &set.cells`, `cell.iter()`, `values.iter()` — must keep compiling
    /// and must hash the bytes the owned rows hash.
    #[test]
    fn the_benchmark_digest_loop_compiles_and_hashes_the_same_bytes() {
        #[derive(Default)]
        struct Fnv(u64);
        impl Fnv {
            fn u64(&mut self, v: u64) {
                self.0 = (self.0 ^ v).wrapping_mul(0x0000_0100_0000_01b3);
            }
            fn i64(&mut self, v: i64) {
                self.u64(v as u64);
            }
            fn f64(&mut self, v: f64) {
                self.u64(v.to_bits());
            }
        }
        fn cells_digest(set: &CellSet) -> u64 {
            let mut h = Fnv::default();
            let h = &mut h;
            h.u64(set.len() as u64);
            for (cell, values) in &set.cells {
                cell.iter().for_each(|&c| h.i64(c));
                values.iter().for_each(|v| h.f64(v.as_f64().unwrap_or(0.0)));
            }
            h.0
        }
        let (cluster, cat) = mixed(7);
        let ctx = ExecutionContext::new(&cluster, &cat);
        let region = Region::new(vec![1, 0], vec![9, 5]);
        let (set, _) = subarray(&ctx, ArrayId(7), &region, &["w", "name"]).unwrap();
        let mut owned = Fnv::default();
        let rows = pushed_per_row(&ctx, ArrayId(7), &region, &[2, 1]);
        owned.u64(rows.len() as u64);
        for (cell, values) in &rows {
            cell.iter().for_each(|&c| owned.i64(c));
            values.iter().for_each(|v| owned.f64(v.as_f64().unwrap_or(0.0)));
        }
        assert!(!rows.is_empty());
        assert_eq!(cells_digest(&set), owned.0);
    }
}
