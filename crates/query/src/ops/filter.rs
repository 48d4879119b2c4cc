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

use crate::error::Result;
use crate::exec::ExecutionContext;
use crate::predicate::Predicate;
use crate::stats::{QueryStats, WorkTracker};
use array_model::{ArrayId, Region, ScalarValue};

/// Cells returned by a selection, with their coordinates.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CellSet {
    /// `(cell coordinates, attribute values)` pairs. Empty when the array
    /// is metadata-only (cost simulation at paper scale).
    pub cells: Vec<(Vec<i64>, Vec<ScalarValue>)>,
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
    let mut out = CellSet::default();
    plan.for_each_chunk(|chunk, mask| {
        mask.for_each_cell(chunk, |row, cell| {
            let values = attr_idx
                .iter()
                .map(|&i| {
                    chunk.column(i).expect("schema-shaped chunk").get(row).expect("row exists")
                })
                .collect();
            out.cells.push((cell.to_vec(), values));
        });
    })?;
    Ok((out, tracker.finish()))
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
        let stored = StoredArray::from_array(a);
        for (i, d) in stored.descriptors.values().enumerate() {
            let node = if spread { NodeId((i % 4) as u32) } else { NodeId(0) };
            cluster.place(*d, node).unwrap();
        }
        let mut cat = Catalog::new();
        cat.register(stored);
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
        let stored = StoredArray::from_array(a);
        for d in stored.descriptors.values() {
            cluster.place(*d, NodeId(0)).unwrap();
        }
        let mut cat = Catalog::new();
        cat.register(stored);
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
}
