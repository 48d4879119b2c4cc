//! Group-by aggregation over dimension space (paper §3.3.2 "Statistics").
//!
//! The MODIS rolling average and the AIS track-count map both group cells
//! by a projection of the dimensions (e.g. collapse time, coarsen
//! lat/lon). Each node aggregates its chunks locally, then partial states
//! are exchanged so each group is finalized on one node. When contiguous
//! chunks are co-located (n-dimensional clustering), most groups have a
//! single contributor and the exchange disappears — the clustered
//! partitioners' advantage on the Science benchmarks.
//!
//! The materialized answer is one pass over the rows in scan order: a
//! row's group is the key of its coarsened coordinates (`ops/keys.rs` —
//! one `u64` ordinal inside the coarsened box of the chunks visited, or
//! padded coordinates when that box is too large to number), a flat table
//! hands each distinct key a slot where its rows fold, and the groups
//! come out in key order, which is the order of their coordinates.

use super::keys::{BoxEncoding, CellBox, Encoding, KeySlots};
use super::scan::{numeric_attr, NumericSlice};
use crate::error::{QueryError, Result};
use crate::exec::{ExecutionContext, ScanPlan};
use crate::stats::{scaled_bytes, QueryStats, WorkTracker};
use array_model::{ArrayId, ChunkDescriptor, Region, MAX_DIMS};
use cluster_sim::NodeId;
use serde::{Deserialize, Serialize};

/// Which aggregate to compute per group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AggFn {
    /// Count non-empty cells.
    Count,
    /// Sum the attribute.
    Sum,
    /// Average the attribute.
    Avg,
    /// Maximum of the attribute.
    Max,
}

/// How to map cells to groups: keep `dims`, dividing each kept dimension's
/// cell coordinate by the matching `coarsen` factor. The fields are public,
/// so the operators validate a spec when they run it (a typed
/// [`QueryError::InvalidArgument`]), not when it is built.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GroupSpec {
    /// Dimension indices retained in the group key.
    pub dims: Vec<usize>,
    /// Per-retained-dimension coarsening divisor (≥ 1).
    pub coarsen: Vec<i64>,
}

impl GroupSpec {
    /// Keep `dims` at full resolution.
    pub fn by_dims(dims: Vec<usize>) -> Self {
        let coarsen = vec![1; dims.len()];
        GroupSpec { dims, coarsen }
    }

    /// Keep `dims`, coarsened by the paired factors.
    pub fn coarsened(dims: Vec<usize>, coarsen: Vec<i64>) -> Self {
        GroupSpec { dims, coarsen }
    }
}

/// One output group.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupRow {
    /// The (possibly coarsened) retained-dimension coordinates.
    pub key: Vec<i64>,
    /// Aggregate value (`count` as f64 for `AggFn::Count`).
    pub value: f64,
    /// Cells that contributed.
    pub cells: u64,
}

/// Group-by aggregate of `attr` over `region` under `spec`.
///
/// Plain aggregation; see [`rolling_aggregate`] for window-over-a-dimension
/// semantics (the MODIS rolling average).
pub fn grid_aggregate(
    ctx: &ExecutionContext<'_>,
    array_id: ArrayId,
    region: Option<&Region>,
    attr: &str,
    spec: &GroupSpec,
    agg: AggFn,
) -> Result<(Vec<GroupRow>, QueryStats)> {
    grid_aggregate_impl(ctx, array_id, region, attr, spec, agg, None)
}

/// Group-by aggregate whose value at each position is a *rolling* window
/// along `rolling_dim` (e.g. "average of the last several days"): every
/// chunk needs its predecessor along that dimension, so placements that
/// co-locate the dimension's columns (the n-dimensionally clustered
/// schemes with the rolling dimension outside their split plane) answer
/// locally, while scattered placements pay a latency-bearing fetch per
/// chunk.
pub fn rolling_aggregate(
    ctx: &ExecutionContext<'_>,
    array_id: ArrayId,
    region: Option<&Region>,
    attr: &str,
    spec: &GroupSpec,
    agg: AggFn,
    rolling_dim: usize,
) -> Result<(Vec<GroupRow>, QueryStats)> {
    grid_aggregate_impl(ctx, array_id, region, attr, spec, agg, Some(rolling_dim))
}

/// One group's running fold, in scan order.
#[derive(Clone, Copy)]
struct GroupState {
    sum: f64,
    count: u64,
    /// Seeded with −∞, the identity of `max` over every `f64` including
    /// −∞ itself (a finite seed such as `f64::MIN` would answer
    /// −1.797e308 for a group of `-inf` rows). `f64::max` returns the
    /// other operand when one is NaN, so NaN rows never win: a group
    /// holding a number reports its largest number, and an all-NaN group
    /// reports −∞.
    max: f64,
}

impl Default for GroupState {
    fn default() -> Self {
        GroupState { sum: 0.0, count: 0, max: f64::NEG_INFINITY }
    }
}

impl GroupState {
    #[inline]
    fn fold(&mut self, v: f64) {
        self.sum += v;
        self.count += 1;
        self.max = self.max.max(v);
    }
}

#[allow(clippy::too_many_arguments)]
fn grid_aggregate_impl(
    ctx: &ExecutionContext<'_>,
    array_id: ArrayId,
    region: Option<&Region>,
    attr: &str,
    spec: &GroupSpec,
    agg: AggFn,
    rolling_dim: Option<usize>,
) -> Result<(Vec<GroupRow>, QueryStats)> {
    let array = ctx.catalog.array(array_id)?;
    let invalid = |what: String| Err(QueryError::InvalidArgument(what));
    // Unvalidated, a length mismatch silently truncated the key (`zip`), a
    // zero divisor panicked in `div_euclid` and a negative one mis-grouped.
    if spec.dims.len() != spec.coarsen.len() {
        return invalid(format!(
            "{} group dimensions but {} coarsening factors",
            spec.dims.len(),
            spec.coarsen.len()
        ));
    }
    if spec.dims.len() > MAX_DIMS {
        return invalid(format!("group key wider than {MAX_DIMS} dimensions"));
    }
    for (&d, &c) in spec.dims.iter().zip(&spec.coarsen) {
        if d >= array.schema.ndims() {
            return invalid(format!("group dimension {d} out of range"));
        }
        // The cost model coarsens in chunk units, `c * chunk_interval`.
        if c < 1 || c.checked_mul(array.schema.dimensions[d].chunk_interval.max(1)).is_none() {
            return invalid(format!("coarsening factor {c} of group dimension {d} out of range"));
        }
    }
    // The rolling dimension indexes the fixed-size chunk coordinate repr,
    // which is in-bounds for any dim < MAX_DIMS — an unvalidated value
    // used to silently corrupt the predecessor lookup (and with it the
    // cost model) instead of erroring like `spec.dims` above.
    if let Some(rd) = rolling_dim {
        if rd >= array.schema.ndims() {
            return Err(QueryError::InvalidArgument(format!(
                "rolling dimension {rd} out of range"
            )));
        }
    }
    let fraction = ctx.attr_fraction(array, &[attr])?;
    let attr_idx = numeric_attr(array, attr)?;
    let mut tracker = WorkTracker::new(ctx.cost());

    // --- cost: local partial aggregation, then exchange per group ---
    // Bin chunks by their *chunk-level* group key (the group key of the
    // chunk's low corner, coarsened in chunk units) to find how many nodes
    // contribute to each group region.
    let mut contributions = Contributions::new();
    let plan = ctx.plan_scan(array_id, region, None)?;
    let homes = plan.homes();
    // Rolling windows pull the predecessor chunk along the rolling
    // dimension; co-located columns answer from local disk.
    let pull_prev = |tracker: &mut WorkTracker<'_>, desc: &ChunkDescriptor, node, live| {
        let Some(rd) = rolling_dim else { return };
        if let Some((pdesc, pnode, plive)) = homes.neighbour(&desc.key.coords, rd, -1) {
            tracker.pull(live && plive, node, pnode, scaled_bytes(pdesc.bytes, fraction));
        }
    };
    plan.charge(&mut tracker, fraction, |tracker, desc, node, scan_bytes| {
        pull_prev(tracker, desc, node, true);
        let mut group = [0; MAX_DIMS];
        for ((g, &d), &c) in group.iter_mut().zip(&spec.dims).zip(&spec.coarsen) {
            let dimension = &array.schema.dimensions[d];
            let (cell_lo, _) = dimension.chunk_range(desc.key.coords.index(d));
            *g = cell_lo.div_euclid(c * dimension.chunk_interval.max(1));
        }
        contributions.add(group, node, scan_bytes);
    });
    for (desc, node) in &plan.dead {
        pull_prev(&mut tracker, desc, *node, false);
    }
    contributions.exchange(|src, dst, bytes| tracker.shuffle(src, dst, bytes));

    // --- materialized answer ---
    // Nothing is computed for it unless the cells are there.
    let mut rows = Vec::new();
    if plan.exact {
        // The box the coarsened keys live in: the scan's cell box, each
        // grouped dimension coarsened (`div_euclid` by a positive factor
        // is monotone, so corners coarsen to corners).
        let cells = plan.cell_box(array.schema.ndims());
        if !cells.is_empty() {
            let (low, high) = cells.corners();
            let corner = |of: &[i64]| {
                let mut key = [0; MAX_DIMS];
                for ((k, &d), &c) in key.iter_mut().zip(&spec.dims).zip(&spec.coarsen) {
                    *k = of[d].div_euclid(c);
                }
                key
            };
            let n = spec.dims.len();
            let mut keys = CellBox::empty(n);
            keys.include(&corner(low)[..n], &corner(high)[..n]);
            rows = match keys.encoding() {
                BoxEncoding::Packed(e) => fold_groups(&e, &plan, attr_idx, spec, agg)?,
                BoxEncoding::Padded(e) => fold_groups(&e, &plan, attr_idx, spec, agg)?,
            };
        }
    }
    Ok((rows, tracker.finish()))
}

/// The exchange's books: the bytes each node scanned for each chunk-level
/// group, filed flat. A group key (zero-padded to `MAX_DIMS`) gets a dense
/// slot in one table, a `(group slot, node)` pair a slot in another, and
/// the pair's slot indexes its tally — two probes a chunk, no tree, and
/// only the distinct pairs are ever sorted.
struct Contributions {
    groups: KeySlots<[i64; MAX_DIMS]>,
    pairs: KeySlots<u64>,
    /// By pair slot: the group's slot, the node, its bytes.
    tallies: Vec<(usize, NodeId, u64)>,
}

impl Contributions {
    fn new() -> Self {
        Contributions {
            groups: KeySlots::with_room_for(0),
            pairs: KeySlots::with_room_for(0),
            tallies: Vec::new(),
        }
    }

    /// `node` scanned `bytes` of a chunk in `group`.
    fn add(&mut self, group: [i64; MAX_DIMS], node: NodeId, bytes: u64) {
        let slot = self.groups.slot_of(group);
        // A group slot is below 2^32 — there are no more groups than the
        // chunks the plan holds in memory — so the pair is exact. `usize`
        // to `u64` is lossless on every supported target.
        let pair = self.pairs.slot_of((slot as u64) << 32 | u64::from(node.0));
        if pair == self.tallies.len() {
            self.tallies.push((slot, node, 0));
        }
        self.tallies[pair].2 += bytes;
    }

    /// Exchange: in every group with two or more contributing nodes, each
    /// non-owner ships its partial state (aggregation compresses the
    /// scanned bytes heavily) to the owner — the contributor with the most
    /// bytes, the lowest node id among equals. Groups go in key order and,
    /// inside one, contributors in node order: the tallies sorted by the
    /// group's rank and the node, then one pass over the groups.
    fn exchange(self, mut ship: impl FnMut(NodeId, NodeId, u64)) {
        const STATE_FRACTION: f64 = 0.25;
        let by_key = self.groups.into_sorted();
        let mut rank = vec![0; by_key.len()];
        for (r, &(_, slot)) in by_key.iter().enumerate() {
            rank[slot] = r;
        }
        let mut tallies = self.tallies;
        tallies.sort_unstable_by_key(|&(slot, node, _)| (rank[slot], node));
        for contributors in tallies.chunk_by(|a, b| a.0 == b.0).filter(|group| group.len() > 1) {
            let owner = contributors
                .iter()
                .max_by(|a, b| a.2.cmp(&b.2).then(b.1.cmp(&a.1)))
                .expect("two or more contributors")
                .1;
            for &(_, node, bytes) in contributors.iter().filter(|c| c.1 != owner) {
                ship(node, owner, scaled_bytes(bytes, STATE_FRACTION));
            }
        }
    }
}

/// The groups of `plan`'s rows under `spec`, keys ascending.
///
/// Each group accumulates its rows in scan order (the order of the f64
/// additions is part of the answer), so this is one pass over the rows.
/// A row's group is the key of its coarsened coordinates under `encoding`
/// — one integer when the coarsened box packs — and [`KeySlots`] only
/// hands each new key a slot in `states`, where the folding happens; a
/// row that lands in the same group as the row before it skips the table.
///
/// A chunk whose zone-map box falls inside one group on every grouped
/// dimension — the cost model's "chunk-level group key" case, e.g. 4-cell
/// AIS chunks under an 8-cell coarsening — skips the rows' keys
/// altogether: its slot is resolved once and its rows fold into it in the
/// same scan order, so the same additions happen in the same order. The
/// box is a superset of the live rows even when stale (retractions never
/// shrink it), so "the box is in one group" implies "every selected row
/// is". The slot is only created once the mask is known to select a row:
/// a group exists because a row is in it.
fn fold_groups<E: Encoding>(
    encoding: &E,
    plan: &ScanPlan<'_>,
    attr_idx: usize,
    spec: &GroupSpec,
    agg: AggFn,
) -> Result<Vec<GroupRow>> {
    let n = spec.dims.len();
    let mut slots = KeySlots::with_room_for(0);
    let mut states: Vec<GroupState> = Vec::new();
    let mut slot_of = |states: &mut Vec<GroupState>, key: &[i64; MAX_DIMS]| {
        // A selected row is live and inside the region, so inside the box
        // the encoding was made for.
        let key = encoding.pack(&key[..n]).expect("a selected row is inside the scan's box");
        let slot = slots.slot_of(key);
        if slot == states.len() {
            states.push(GroupState::default());
        }
        slot
    };
    let mut key = [0; MAX_DIMS];
    let mut previous = None;
    plan.for_each_chunk(|chunk, mask| {
        let col = NumericSlice::of(chunk, attr_idx);
        let zone = chunk.zone().dims();
        let mut grouped = key.iter_mut().zip(&spec.dims).zip(&spec.coarsen);
        // Fills `key` as it checks; the per-row path below overwrites it.
        let one_group = grouped.all(|((k, &d), &c)| {
            // `d` was validated against the schema, whose arity the zone has.
            let z = zone[d];
            *k = z.min.div_euclid(c);
            !z.is_empty() && *k == z.max.div_euclid(c)
        });
        if one_group {
            if mask.count() > 0 {
                let slot = slot_of(&mut states, &key);
                let state = &mut states[slot];
                mask.for_each(|row| state.fold(col.get(row)));
            }
            return;
        }
        mask.for_each_cell(chunk, |row, cell| {
            for ((k, &d), &c) in key.iter_mut().zip(&spec.dims).zip(&spec.coarsen) {
                *k = cell[d].div_euclid(c);
            }
            let slot = match previous {
                Some((same, slot)) if same == key => slot,
                _ => {
                    let slot = slot_of(&mut states, &key);
                    previous = Some((key, slot));
                    slot
                }
            };
            states[slot].fold(col.get(row));
        });
    })?;
    let rows = slots.into_sorted().into_iter().map(|(key, slot)| {
        let GroupState { sum, count, max } = states[slot];
        // `count as f64` is exact below 2^53 rows a group.
        let value = match agg {
            AggFn::Count => count as f64,
            AggFn::Sum => sum,
            AggFn::Avg => sum / count as f64,
            AggFn::Max => max,
        };
        let mut cell = vec![0; n];
        encoding.unpack(key, &mut cell);
        GroupRow { key: cell, value, cells: count }
    });
    Ok(rows.collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use array_model::{Array, ArraySchema, ScalarValue};
    use cluster_sim::{Cluster, CostModel};
    use std::collections::BTreeMap;

    /// 3-D (t, x, y) array, 2 time steps; placement controlled by caller.
    fn setup(place: impl Fn(usize) -> NodeId) -> (Cluster, Catalog) {
        let mut cluster = Cluster::new(4, u64::MAX, CostModel::default()).unwrap();
        let schema = ArraySchema::parse("S<v:double>[t=0:1,1, x=0:3,2, y=0:3,2]").unwrap();
        let mut a = Array::new(ArrayId(0), schema);
        for t in 0..2 {
            for x in 0..4 {
                for y in 0..4 {
                    a.insert_cell(
                        vec![t, x, y],
                        vec![ScalarValue::Double((t * 100 + x * 10 + y) as f64)],
                    )
                    .unwrap();
                }
            }
        }
        let mut cat = Catalog::new();
        cat.place_array(&mut cluster, &a, |_, i, _| place(i)).unwrap();
        (cluster, cat)
    }

    #[test]
    fn rolling_average_over_time_matches_naive() {
        let (cluster, cat) = setup(|i| NodeId((i % 4) as u32));
        let ctx = ExecutionContext::new(&cluster, &cat);
        // Group by (x, y), averaging across time: value = avg(t*100) + x*10 + y = 50 + ...
        let spec = GroupSpec::by_dims(vec![1, 2]);
        let (rows, _) = grid_aggregate(&ctx, ArrayId(0), None, "v", &spec, AggFn::Avg).unwrap();
        assert_eq!(rows.len(), 16);
        for row in &rows {
            let expect = 50.0 + (row.key[0] * 10 + row.key[1]) as f64;
            assert!((row.value - expect).abs() < 1e-9, "{row:?}");
            assert_eq!(row.cells, 2);
        }
    }

    #[test]
    fn coarsened_count_map() {
        let (cluster, cat) = setup(|i| NodeId((i % 4) as u32));
        let ctx = ExecutionContext::new(&cluster, &cat);
        // Coarse 2x2 map over (x, y): 4 groups of 2*4=8 cells.
        let spec = GroupSpec::coarsened(vec![1, 2], vec![2, 2]);
        let (rows, _) = grid_aggregate(&ctx, ArrayId(0), None, "v", &spec, AggFn::Count).unwrap();
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert_eq!(row.cells, 8);
            assert_eq!(row.value, 8.0);
        }
    }

    #[test]
    fn clustering_avoids_the_exchange() {
        // Time-colocated placement: both time chunks of each (x,y) block on
        // one node -> grouping by (x,y) needs no shuffle. Chunk order is
        // (t,x,y) row-major: 8 chunks, (0,a,b) at i and (1,a,b) at i+4.
        let clustered = setup(|i| NodeId((i % 4) as u32)); // i and i+4 -> same node
        let scattered = setup(|i| NodeId((i % 2 + 2 * (i / 4)) as u32)); // t splits nodes
        let spec = GroupSpec::by_dims(vec![1, 2]);
        let (_, s1) = grid_aggregate(
            &ExecutionContext::new(&clustered.0, &clustered.1),
            ArrayId(0),
            None,
            "v",
            &spec,
            AggFn::Avg,
        )
        .unwrap();
        let (_, s2) = grid_aggregate(
            &ExecutionContext::new(&scattered.0, &scattered.1),
            ArrayId(0),
            None,
            "v",
            &spec,
            AggFn::Avg,
        )
        .unwrap();
        assert_eq!(s1.bytes_shuffled, 0, "clustered grouping is exchange-free");
        assert!(s2.bytes_shuffled > 0, "scattered grouping must exchange partials");
    }

    #[test]
    fn sum_and_max_aggregate_functions() {
        let (cluster, cat) = setup(|i| NodeId((i % 4) as u32));
        let ctx = ExecutionContext::new(&cluster, &cat);
        let spec = GroupSpec::by_dims(vec![0]); // group by time
        let (sums, _) = grid_aggregate(&ctx, ArrayId(0), None, "v", &spec, AggFn::Sum).unwrap();
        // t=0: sum over x,y of (10x + y), 4x4 grid = 16 cells
        let t0: f64 = (0..4).flat_map(|x| (0..4).map(move |y| (x * 10 + y) as f64)).sum();
        assert!((sums[0].value - t0).abs() < 1e-9);
        let (maxs, _) = grid_aggregate(&ctx, ArrayId(0), None, "v", &spec, AggFn::Max).unwrap();
        assert_eq!(maxs[1].value, 133.0);
    }

    #[test]
    fn a_spec_keeping_no_dimension_is_one_group() {
        let (cluster, cat) = setup(|i| NodeId((i % 4) as u32));
        let ctx = ExecutionContext::new(&cluster, &cat);
        let spec = GroupSpec::by_dims(vec![]);
        let (rows, _) = grid_aggregate(&ctx, ArrayId(0), None, "v", &spec, AggFn::Max).unwrap();
        assert_eq!(rows, vec![GroupRow { key: vec![], value: 133.0, cells: 32 }]);
    }

    #[test]
    fn bad_group_dimension_is_rejected() {
        let (cluster, cat) = setup(|i| NodeId((i % 4) as u32));
        let ctx = ExecutionContext::new(&cluster, &cat);
        let spec = GroupSpec::by_dims(vec![9]);
        assert!(matches!(
            grid_aggregate(&ctx, ArrayId(0), None, "v", &spec, AggFn::Avg),
            Err(QueryError::InvalidArgument(_))
        ));
    }

    fn assert_spec_rejected(spec: GroupSpec) {
        let (cluster, cat) = setup(|i| NodeId((i % 4) as u32));
        let ctx = ExecutionContext::new(&cluster, &cat);
        for answer in [
            grid_aggregate(&ctx, ArrayId(0), None, "v", &spec, AggFn::Sum),
            rolling_aggregate(&ctx, ArrayId(0), None, "v", &spec, AggFn::Sum, 0),
        ] {
            assert!(matches!(answer, Err(QueryError::InvalidArgument(_))), "{spec:?}: {answer:?}");
        }
    }

    #[test]
    fn zero_coarsening_factor_is_rejected() {
        // Used to reach `div_euclid(0)` and panic inside the scan.
        assert_spec_rejected(GroupSpec { dims: vec![0], coarsen: vec![0] });
        assert_spec_rejected(GroupSpec::coarsened(vec![1, 2], vec![2, 0]));
    }

    #[test]
    fn negative_coarsening_factor_is_rejected() {
        // Used to answer with mirrored, mis-sized groups.
        assert_spec_rejected(GroupSpec { dims: vec![1, 2], coarsen: vec![2, -2] });
    }

    #[test]
    fn mismatched_spec_lengths_are_rejected() {
        // Used to be silently truncated to the shorter list by `zip`.
        assert_spec_rejected(GroupSpec { dims: vec![1, 2], coarsen: vec![2] });
        assert_spec_rejected(GroupSpec { dims: vec![1], coarsen: vec![2, 2] });
    }

    #[test]
    fn coarsening_factor_overflowing_chunk_units_is_rejected() {
        // `c * chunk_interval` (x chunks are 2 cells wide) used to
        // overflow in the cost model.
        assert_spec_rejected(GroupSpec { dims: vec![1], coarsen: vec![i64::MAX] });
        assert_spec_rejected(GroupSpec {
            dims: vec![0; MAX_DIMS + 1],
            coarsen: vec![1; MAX_DIMS + 1],
        });
    }

    #[test]
    fn bad_rolling_dimension_is_rejected() {
        // Used to index the fixed-size coord repr in-bounds and silently
        // skew the cost model; now it errors like a bad group dimension.
        let (cluster, cat) = setup(|i| NodeId((i % 4) as u32));
        let ctx = ExecutionContext::new(&cluster, &cat);
        let spec = GroupSpec::by_dims(vec![1, 2]);
        assert!(matches!(
            rolling_aggregate(&ctx, ArrayId(0), None, "v", &spec, AggFn::Avg, 7),
            Err(QueryError::InvalidArgument(_))
        ));
    }

    #[test]
    fn aggregating_a_string_attribute_is_a_typed_error() {
        // Used to fold `unwrap_or(0.0)` and answer 0 for every group.
        let mut cluster = Cluster::new(1, u64::MAX, CostModel::default()).unwrap();
        let schema = ArraySchema::parse("T<name:string>[x=0:3,2]").unwrap();
        let mut a = Array::new(ArrayId(3), schema);
        a.insert_cell(vec![0], vec![ScalarValue::Str("a".into())]).unwrap();
        let mut cat = Catalog::new();
        cat.place_array(&mut cluster, &a, |_, _, _| NodeId(0)).unwrap();
        let ctx = ExecutionContext::new(&cluster, &cat);
        let spec = GroupSpec::by_dims(vec![0]);
        let err = grid_aggregate(&ctx, ArrayId(3), None, "name", &spec, AggFn::Sum).unwrap_err();
        assert!(matches!(err, QueryError::AttributeType { .. }), "{err}");
    }

    // -- the chunk-in-one-group shortcut against the per-row definition --

    /// Every group by the definition: an ordered map keyed by each row's
    /// coarsened coordinates, folded in the order given (scan order).
    fn groups_of(
        rows: &[([i64; 2], f64)],
        spec: &GroupSpec,
        agg: AggFn,
    ) -> Vec<(Vec<i64>, u64, u64)> {
        let mut groups: BTreeMap<Vec<i64>, (f64, u64, f64)> = BTreeMap::new();
        for (cell, v) in rows {
            let key = spec.dims.iter().zip(&spec.coarsen).map(|(&d, &c)| cell[d].div_euclid(c));
            let state = groups.entry(key.collect()).or_insert((0.0, 0, f64::NEG_INFINITY));
            *state = (state.0 + v, state.1 + 1, state.2.max(*v));
        }
        let value = |(sum, count, max): (f64, u64, f64)| match agg {
            AggFn::Count => count as f64,
            AggFn::Sum => sum,
            AggFn::Avg => sum / count as f64,
            AggFn::Max => max,
        };
        groups.into_iter().map(|(k, s)| (k, value(s).to_bits(), s.1)).collect()
    }

    /// A 16 x 16 plane around the origin in 4 x 4 chunks, `rows` inserted
    /// in order and `retract` retracted; returns the placed world and the
    /// live rows in scan order (row-major chunks, insertion order inside).
    fn plane(rows: &[[i64; 2]], retract: &[[i64; 2]]) -> (Cluster, Catalog, Vec<([i64; 2], f64)>) {
        let mut cluster = Cluster::new(2, u64::MAX, CostModel::default()).unwrap();
        let schema = ArraySchema::parse("G<v:double>[x=-8:7,4, y=-8:7,4]").unwrap();
        let mut a = Array::new(ArrayId(0), schema);
        let value = |i: usize| (i as f64 * 0.37).sin() * 1e3 + 1.0 / (i + 3) as f64;
        for (i, cell) in rows.iter().enumerate() {
            a.insert_cell(cell.to_vec(), vec![ScalarValue::Double(value(i))]).unwrap();
        }
        a.delete_cells(&retract.concat()).unwrap();
        let mut live: Vec<([i64; 2], f64)> = rows
            .iter()
            .enumerate()
            .filter(|(_, cell)| !retract.contains(cell))
            .map(|(i, &cell)| (cell, value(i)))
            .collect();
        live.sort_by_key(|(cell, _)| [cell[0].div_euclid(4), cell[1].div_euclid(4)]);
        let mut cat = Catalog::new();
        cat.place_array(&mut cluster, &a, |_, i, _| NodeId((i % 2) as u32)).unwrap();
        (cluster, cat, live)
    }

    fn assert_groups(
        world: &(Cluster, Catalog, Vec<([i64; 2], f64)>),
        region: Option<&Region>,
        spec: &GroupSpec,
    ) -> Vec<Vec<i64>> {
        let (cluster, cat, live) = world;
        let selected: Vec<([i64; 2], f64)> = live
            .iter()
            .filter(|(cell, _)| region.is_none_or(|r| r.contains_cell(cell)))
            .copied()
            .collect();
        let mut keys = Vec::new();
        // Pruning off too: a chunk the zone map would have refuted is then
        // visited with a mask that selects nothing.
        for pruning in [true, false] {
            let ctx = ExecutionContext::new(cluster, cat).with_pruning(pruning);
            for agg in [AggFn::Count, AggFn::Sum, AggFn::Avg, AggFn::Max] {
                let (got, _) = grid_aggregate(&ctx, ArrayId(0), region, "v", spec, agg).unwrap();
                let got: Vec<_> =
                    got.into_iter().map(|r| (r.key, r.value.to_bits(), r.cells)).collect();
                assert_eq!(got, groups_of(&selected, spec, agg), "{agg:?} pruning {pruning}");
                keys = got.into_iter().map(|(k, _, _)| k).collect();
            }
        }
        keys
    }

    /// Every cell of the plane, in an order that revisits chunks.
    fn every_cell() -> Vec<[i64; 2]> {
        let mut cells: Vec<[i64; 2]> = (-8..8).flat_map(|x| (-8..8).map(move |y| [x, y])).collect();
        cells.sort_by_key(|c| (c[0] * 5 + c[1] * 3).rem_euclid(7));
        cells
    }

    #[test]
    fn chunks_inside_one_group_fold_like_their_rows() {
        let world = plane(&every_cell(), &[[-8, -8], [3, 3], [0, -1]]);
        // 4-cell chunks under an 8-cell coarsening: every chunk in one
        // group, four chunks to a group, negative keys under `div_euclid`.
        let coarse = GroupSpec::coarsened(vec![0, 1], vec![8, 8]);
        let keys = assert_groups(&world, None, &coarse);
        assert_eq!(keys, [[-1, -1], [-1, 0], [0, -1], [0, 0]].map(Vec::from).to_vec());
        // The chunk is the group; and one dimension only, reversed order.
        assert_groups(&world, None, &GroupSpec::coarsened(vec![0, 1], vec![4, 4]));
        assert_groups(&world, None, &GroupSpec::coarsened(vec![1], vec![16]));
        assert_groups(&world, None, &GroupSpec::coarsened(vec![1, 0], vec![8, 4]));
    }

    #[test]
    fn chunks_straddling_groups_still_key_every_row() {
        let world = plane(&every_cell(), &[[1, 1]]);
        // 3 divides no 4-cell chunk: every chunk straddles two groups.
        assert_groups(&world, None, &GroupSpec::coarsened(vec![0, 1], vec![3, 5]));
        // Under 5 the chunks -4..=-1 and 0..=3 sit in one group and the
        // outer two straddle: both paths within one scan.
        assert_groups(&world, None, &GroupSpec::coarsened(vec![0, 1], vec![5, 5]));
        // One dimension inside a group, the other straddling.
        assert_groups(&world, None, &GroupSpec::coarsened(vec![0, 1], vec![8, 3]));
        assert_groups(&world, None, &GroupSpec::by_dims(vec![0, 1]));
    }

    #[test]
    fn a_chunk_whose_mask_selects_nothing_creates_no_group() {
        // Chunk (0, 0) holds only its two far corners, so its zone box
        // spans the chunk — inside one 8-cell group — while the region
        // reaches into the box and selects neither row.
        let world = plane(&[[0, 0], [3, 3], [-4, -4], [-1, -2]], &[]);
        let coarse = GroupSpec::coarsened(vec![0, 1], vec![8, 8]);
        let region = Region::new(vec![-8, -8], vec![2, 2]);
        let keys = assert_groups(&world, Some(&region), &coarse);
        assert_eq!(keys, vec![vec![-1, -1], vec![0, 0]], "(0,0) selected, (3,3) not");
        let hollow = Region::new(vec![-8, -8], vec![-1, 2]);
        let keys = assert_groups(&world, Some(&hollow), &coarse);
        assert_eq!(keys, vec![vec![-1, -1]], "chunk (0,0) is visited and contributes no group");
        // A chunk emptied by retraction, visited with pruning off.
        let emptied = plane(&[[0, 0], [3, 3], [-4, -4]], &[[0, 0], [3, 3]]);
        assert_eq!(assert_groups(&emptied, None, &coarse), vec![vec![-1, -1]]);
    }

    #[test]
    fn a_stale_zone_box_is_still_a_sound_group_bound() {
        // Chunk (0, 0) under a 2-cell coarsening: rows in groups (0, 0)
        // and (1, 1). Retracting the far one leaves a box that still
        // spans both groups (retractions never shrink it), so the chunk
        // takes the per-row path and reports only the live group...
        let spec = GroupSpec::coarsened(vec![0, 1], vec![2, 2]);
        let world = plane(&[[0, 0], [1, 1], [3, 3]], &[[3, 3]]);
        assert_eq!(assert_groups(&world, None, &spec), vec![vec![0, 0]]);
        // ...and under a coarsening the stale box does fit, the shortcut
        // folds exactly the live rows.
        let coarse = GroupSpec::coarsened(vec![0, 1], vec![8, 8]);
        assert_eq!(assert_groups(&world, None, &coarse), vec![vec![0, 0]]);
    }

    #[test]
    fn max_of_infinities_and_nans_is_not_a_finite_sentinel() {
        // The fold used to start at `f64::MIN`: a group of `-inf` rows (or
        // of NaNs, which `f64::max` skips) answered -1.797e308.
        let mut cluster = Cluster::new(1, u64::MAX, CostModel::default()).unwrap();
        let schema = ArraySchema::parse("X<v:double>[x=0:7,4]").unwrap();
        let mut a = Array::new(ArrayId(0), schema);
        let rows = [(0, f64::NEG_INFINITY), (1, f64::NEG_INFINITY), (4, f64::NAN), (5, f64::NAN)];
        for (x, v) in rows {
            a.insert_cell(vec![x], vec![ScalarValue::Double(v)]).unwrap();
        }
        let mut cat = Catalog::new();
        cat.place_array(&mut cluster, &a, |_, _, _| NodeId(0)).unwrap();
        let ctx = ExecutionContext::new(&cluster, &cat);
        // By chunk (the shortcut) and by cell pair (the per-row path).
        for coarsen in [4, 2] {
            let spec = GroupSpec::coarsened(vec![0], vec![coarsen]);
            let (rows, _) = grid_aggregate(&ctx, ArrayId(0), None, "v", &spec, AggFn::Max).unwrap();
            let values: Vec<f64> = rows.iter().map(|r| r.value).collect();
            assert_eq!(values, vec![f64::NEG_INFINITY; 2], "coarsen {coarsen}");
            assert_eq!(rows.iter().map(|r| r.cells).collect::<Vec<_>>(), vec![2, 2]);
        }
    }

    #[test]
    fn the_predecessor_of_the_first_chunk_index_is_not_planned() {
        // A descriptor at rolling-dimension index `i64::MIN` (a catalog
        // built from descriptors can hold one): its predecessor was
        // `prev[rd] -= 1` — an overflow panic in debug builds, a wrap in
        // release. There is no such position, so the cost is that of the
        // same chunks where nothing lies before them.
        let run = |first: i64| {
            let schema = ArraySchema::parse("R<v:double>[t=0:*,1, y=0:3,2]").unwrap();
            let coords = [[first, 0], [first + 1, 0], [first, 1]];
            let descs: Vec<_> = coords
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    let key =
                        array_model::ChunkKey::new(ArrayId(4), array_model::ChunkCoords::new(c));
                    ChunkDescriptor::new(key, 1_000 * (i as u64 + 1), 10)
                })
                .collect();
            let mut cluster = Cluster::new(2, u64::MAX, CostModel::default()).unwrap();
            for (i, d) in descs.iter().enumerate() {
                cluster.place(*d, NodeId((i % 2) as u32)).unwrap();
            }
            let mut cat = Catalog::new();
            cat.register(crate::catalog::StoredArray::from_descriptors(ArrayId(4), schema, descs));
            let ctx = ExecutionContext::new(&cluster, &cat);
            let spec = GroupSpec::by_dims(vec![1]);
            rolling_aggregate(&ctx, ArrayId(4), None, "v", &spec, AggFn::Avg, 0).unwrap().1
        };
        let (edge, inner) = (run(i64::MIN), run(5));
        assert_eq!(edge, inner);
        assert_eq!(edge.remote_fetches, 1, "the one predecessor inside the array");
    }

    // -- the exchange's flat books against the nested maps they replaced --

    /// The exchange as it was: bytes per node per group in ordered maps,
    /// groups in key order, contributors in node order, the owner the
    /// contributor with the most bytes (the lowest id among equals).
    fn shuffles_by_maps(bins: &[(Vec<i64>, NodeId, u64)]) -> Vec<(NodeId, NodeId, u64)> {
        let mut group_nodes: BTreeMap<Vec<i64>, BTreeMap<NodeId, u64>> = BTreeMap::new();
        for (group, node, bytes) in bins {
            *group_nodes.entry(group.clone()).or_default().entry(*node).or_default() += bytes;
        }
        let mut shuffles = Vec::new();
        for contributors in group_nodes.values().filter(|c| c.len() > 1) {
            let owner = *contributors
                .iter()
                .max_by(|a, b| a.1.cmp(b.1).then(b.0 .0.cmp(&a.0 .0)))
                .expect("two or more")
                .0;
            for (&node, &bytes) in contributors.iter().filter(|(&node, _)| node != owner) {
                shuffles.push((node, owner, scaled_bytes(bytes, 0.25)));
            }
        }
        shuffles
    }

    /// One draw: bins over a handful of groups of `n` dimensions (keys at
    /// both ends of `i64` too), sparse node ids, and byte counts that tie
    /// often (so the owner is decided by the node order) — the same
    /// shuffles in the same order, whatever order the bins arrive in.
    fn check_exchange(seed: u64) {
        let mut state = seed;
        let mut next = |below: u64| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % below
        };
        let n = next(MAX_DIMS as u64 + 1) as usize;
        let values = [i64::MIN, -1, 0, 1, 2, i64::MAX];
        let nodes = [0, 1, 2, 7, 31, 1_000].map(NodeId);
        let bytes = [0, 1, 4, 4, 100, 100, 100, 7_919];
        let groups: Vec<Vec<i64>> =
            (0..1 + next(6)).map(|_| (0..n).map(|_| values[next(6) as usize]).collect()).collect();
        let bins: Vec<(Vec<i64>, NodeId, u64)> = (0..next(80))
            .map(|_| {
                let group = groups[next(groups.len() as u64) as usize].clone();
                (group, nodes[next(6) as usize], bytes[next(8) as usize])
            })
            .collect();
        let mut contributions = Contributions::new();
        for (group, node, bytes) in &bins {
            let mut key = [0; MAX_DIMS];
            key[..n].copy_from_slice(group);
            contributions.add(key, *node, *bytes);
        }
        let mut shuffles = Vec::new();
        contributions.exchange(|src, dst, bytes| shuffles.push((src, dst, bytes)));
        assert_eq!(shuffles, shuffles_by_maps(&bins), "{bins:?}");
    }

    #[test]
    fn the_exchange_ships_what_the_nested_maps_shipped() {
        (0..2_000).for_each(check_exchange);
        // Ties decided by the node order, and contributors shipped in it.
        let bins = [(vec![3], NodeId(7), 5), (vec![3], NodeId(2), 5), (vec![3], NodeId(4), 1)];
        let want = vec![(NodeId(4), NodeId(2), 1), (NodeId(7), NodeId(2), 2)];
        assert_eq!(shuffles_by_maps(&bins), want);
        let mut contributions = Contributions::new();
        bins.iter()
            .for_each(|(g, node, b)| contributions.add([g[0], 0, 0, 0, 0, 0, 0, 0], *node, *b));
        let mut shuffles = Vec::new();
        contributions.exchange(|src, dst, bytes| shuffles.push((src, dst, bytes)));
        assert_eq!(shuffles, want);
    }

    #[test]
    #[ignore = "release-scale leg: cargo test --release -p query-engine --lib -- --ignored bookkeeping_smoke"]
    fn group_exchange_bookkeeping_smoke() {
        (0..500_000).for_each(check_exchange);
    }
}
