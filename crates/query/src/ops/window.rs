//! Windowed aggregation with halo exchange (paper §3.3.2 "Complex
//! Projection": the MODIS image-smoothing window).
//!
//! Every output pixel averages a window of surrounding cells, so chunks
//! need a *halo* of cells from their face-adjacent neighbours. Neighbour
//! pairs that live on the same node exchange nothing; pairs split across
//! nodes pay a latency-bearing remote fetch of the boundary slab. This is
//! the purest expression of why n-dimensional clustering wins spatial
//! queries.
//!
//! The materialized answer is a sort-then-sweep: the halo-grown region is
//! drained into one flat coordinate buffer, each cell becomes one key
//! (`ops/keys.rs`: its row-major ordinal in the box the windows probe, a
//! `u64`, or its padded coordinates when that box is too large to
//! number), the `(key, scan index)` pairs are sorted once, and every
//! window is read as a handful of contiguous runs of the sorted keys (see
//! `sweep_windows`) — sequential reads over array-ordered data instead of
//! `(2r+1)^ndims` point lookups per cell. One kernel, `sweep`, runs on
//! both encodings; the data's bounds pick which.
//!
//! **The summation order is part of the answer.** `mean` is a sum of
//! per-window means, each a sum of `f64`s, and float addition does not
//! associate: the differential suites (pruned vs unpruned, dictionary vs
//! plain, faulted vs fault-free, recovered vs live) and the benchmark's
//! digests compare `mean` by its bits. So the sweep adds in exactly the
//! order the brute-force definition does — centres ascending
//! lexicographically; within a window, neighbours ascending
//! lexicographically (an odometer over the offsets, last dimension
//! fastest) — and the brute force survives as this module's test oracle.

use super::keys::{BoxEncoding, CellBox, CellKey, Encoding, FlatKeys};
use super::scan::{numeric_attr, NumericSlice};
use crate::error::{QueryError, Result};
use crate::exec::ExecutionContext;
use crate::stats::{scaled_bytes, QueryStats, WorkTracker};
use array_model::{ArrayId, ChunkDescriptor, Region, MAX_DIMS};

/// Result of a windowed aggregate.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WindowResult {
    /// Mean of the windowed values (`None` when metadata-only).
    pub mean: Option<f64>,
    /// Number of output cells computed.
    pub outputs: u64,
}

/// Windowed average of `attr` over `region` with L∞ window radius
/// `radius` (in cells).
pub fn window_aggregate(
    ctx: &ExecutionContext<'_>,
    array_id: ArrayId,
    region: &Region,
    attr: &str,
    radius: i64,
) -> Result<(WindowResult, QueryStats)> {
    let array = ctx.catalog.array(array_id)?;
    // A negative radius would silently shrink the halo region inside out
    // (grown.low > grown.high) and flip the cost model's slab fraction
    // negative — reject it like any other malformed argument.
    if radius < 0 {
        return Err(QueryError::InvalidArgument(format!("window radius {radius} is negative")));
    }
    // So would a radius whose window or halo overflows `i64`: unchecked,
    // it wraps to a negative compute charge and an inside-out halo (a
    // silently empty answer) in release builds, and panics in debug ones.
    let too_wide =
        || QueryError::InvalidArgument(format!("window radius {radius} overflows the region"));
    let side = radius.checked_mul(2).and_then(|d| d.checked_add(1));
    // A cost multiplier: rounding the cell count to the nearest `f64` is fine.
    let window_cells = side.and_then(|s| s.checked_mul(s)).ok_or_else(too_wide)? as f64;
    let grow = |corner: &[i64], by: i64| -> Option<Vec<i64>> {
        corner.iter().map(|v| v.checked_add(by)).collect()
    };
    let grown = match (grow(&region.low, -radius), grow(&region.high, radius)) {
        (Some(low), Some(high)) => Region::new(low, high),
        _ => return Err(too_wide()),
    };
    let fraction = ctx.attr_fraction(array, &[attr])?;
    let attr_idx = numeric_attr(array, attr)?;
    let mut tracker = WorkTracker::new(ctx.cost());

    let plan = ctx.plan_scan(array_id, Some(region), None)?;
    // Index participating chunks for neighbour lookups.
    let homes = plan.homes();
    // Halo: pull the boundary slab from every face-adjacent neighbour
    // that participates in the query.
    let pull_halo = |tracker: &mut WorkTracker<'_>, desc: &ChunkDescriptor, node, live| {
        for (dim, dimension) in array.schema.dimensions.iter().enumerate() {
            // Faces plus their edge/corner contributions (~1.5x a face);
            // a cost estimate, so the casts may round.
            let slab_fraction =
                (1.5 * radius as f64 / dimension.chunk_interval.max(1) as f64).min(1.0) * fraction;
            for step in [-1, 1] {
                if let Some((ndesc, nnode, nlive)) = homes.neighbour(&desc.key.coords, dim, step) {
                    let slab = scaled_bytes(ndesc.bytes, slab_fraction);
                    tracker.pull(live && nlive, node, nnode, slab);
                }
            }
        }
    };
    plan.charge(&mut tracker, fraction, |tracker, desc, node, bytes| {
        // Overlapping windows: each cell participates in (2r+1)^2 windows
        // on the spatial plane, so the compute pass re-touches the data
        // that many times (vectorized, so a damped multiplier).
        tracker.compute(node, ctx.cost().cpu_secs(bytes) * window_cells * 0.15);
        pull_halo(tracker, desc, node, true);
    });
    for (desc, node) in &plan.dead {
        pull_halo(&mut tracker, desc, *node, false);
    }

    // Materialized answer: the sorted sweep over the cells of the region
    // grown by the halo (a second plan: the halo read reaches chunks, and
    // rows, the costed region does not). It answers only when that plan
    // is exact too: a window never averages over some of its halo.
    let mut result = WindowResult::default();
    if plan.exact {
        let halo = ctx.plan_scan(array_id, Some(&grown), None)?;
        if halo.exact {
            let mut cells = FlatKeys::new(array.schema.ndims());
            let mut values: Vec<f64> = Vec::new();
            halo.for_each_chunk(|chunk, mask| {
                let col = NumericSlice::of(chunk, attr_idx);
                mask.for_each_cell(chunk, |row, cell| {
                    cells.push(cell);
                    values.push(col.get(row));
                });
            })?;
            result = window_means(cells, values, region, radius)?;
        }
    }
    Ok((result, tracker.finish()))
}

/// The windowed mean over scanned `(cell, value)` pairs, which arrive in
/// scan order and may repeat a cell (the last value stands, as in a map).
fn window_means(
    cells: FlatKeys,
    values: Vec<f64>,
    region: &Region,
    radius: i64,
) -> Result<WindowResult> {
    let bounds = cells.bounds();
    if bounds.is_empty() {
        return Ok(WindowResult::default());
    }
    // No stored centre has a stored neighbour further away than the data
    // spans, so clamp each dimension's reach to that span: the cursor
    // count is then bounded by the data, not by the caller, and so is the
    // box every probed position `centre + offset` lies in — the data's
    // bounds grown by the reach, which is what decides the encoding.
    let nd = region.ndims();
    let mut reach = [0; MAX_DIMS];
    let (mut low, mut high) = ([0; MAX_DIMS], [0; MAX_DIMS]);
    let (data_low, data_high) = bounds.corners();
    for d in 0..nd {
        reach[d] = radius.min(bounds.span(d));
        // Saturating: a centre is inside the region, and `window_aggregate`
        // checked that the region grown by the radius fits `i64`, so no
        // probed position lies beyond the ends of the type.
        (low[d], high[d]) =
            (data_low[d].saturating_sub(reach[d]), data_high[d].saturating_add(reach[d]));
    }
    let mut probed = CellBox::empty(nd);
    probed.include(&low[..nd], &high[..nd]);
    let (total, outputs) = match probed.encoding() {
        BoxEncoding::Packed(e) => sweep_windows(&e, cells, values, region, &reach[..nd])?,
        BoxEncoding::Padded(e) => sweep_windows(&e, cells, values, region, &reach[..nd])?,
    };
    // `outputs as f64` is exact below 2^53 windows.
    let mean = (outputs > 0).then(|| total / outputs as f64);
    Ok(WindowResult { mean, outputs })
}

/// Sum of window means, and how many windows, for every centre inside
/// `region`: sort the scanned cells by key, keep the last value of each,
/// and [`sweep`] the distinct points with one cursor per prefix offset.
///
/// A window is the box `centre ± reach`. Split it by its *prefix* — the
/// offsets over every dimension but the last: for one prefix offset the
/// window's cells are those sharing the prefix `centre + offset` with a
/// last coordinate within the reach of the centre's, which in key order
/// (lexicographic order, under either encoding) is one contiguous run:
/// from the first point `≥ centre + (offset, -reach)` to the last point
/// `≤ centre + (offset, +reach)`. Shifting a key is linear, so each run's
/// first key is the centre's plus a delta computed once per offset.
fn sweep_windows<E: Encoding>(
    encoding: &E,
    cells: FlatKeys,
    values: Vec<f64>,
    region: &Region,
    reach: &[i64],
) -> Result<(f64, u64)> {
    let last = reach.len() - 1;
    let offsets = reach[..last]
        .iter()
        .try_fold(1usize, |count, &r| count.checked_mul(usize::try_from(2 * r + 1).ok()?))
        .ok_or_else(|| {
            QueryError::InvalidArgument("the window has too many offsets".to_string())
        })?;
    // The run starts, in odometer order (last prefix dimension fastest):
    // visiting them in this order, and each run front to back, adds the
    // stored neighbours in ascending lexicographic order.
    let mut offset: Vec<i64> = reach.iter().map(|r| -r).collect();
    let mut firsts = Vec::with_capacity(offsets);
    for _ in 0..offsets {
        firsts.push(encoding.delta(&offset));
        for d in (0..last).rev() {
            if offset[d] < reach[d] {
                offset[d] += 1;
                break;
            }
            offset[d] = -reach[d];
        }
    }
    offset.fill(0);
    offset[last] = 2 * reach[last];
    let run_length = encoding.delta(&offset);

    // Sort into fresh buffers and drop the scan-order copy before the
    // sweep, so only one copy of the points is live while it runs.
    let mut points = Vec::new();
    let mut sorted = Vec::new();
    let mut centres = Vec::new();
    cells.for_each_run(encoding, |run| {
        let (key, kept) = run[run.len() - 1];
        points.push(key);
        sorted.push(values[kept]);
        centres.push(region.contains_cell(cells.get(kept)));
    });
    drop((cells, values));
    Ok(sweep(&points, &sorted, &centres, &firsts, run_length))
}

/// [`sweep_windows`] over `points` (distinct, ascending) holding `values`:
/// the window of every point flagged in `centres` is the runs from
/// `centre + first` to `centre + first + run_length`, one per `firsts`.
///
/// Centres are visited ascending, so for a fixed offset a run's start
/// only ever moves forward: one monotone cursor per offset finds every
/// run with O(points) total stepping, and the runs are read sequentially.
/// The additions happen in the brute-force probe order, hence
/// bit-identical sums (the module doc says why that is a contract).
///
/// A cursor moves about one point per centre — none, one or a few,
/// unpredictably — so it steps without branching on a comparison: the
/// points are sorted, so how many of the next four lie before the run is
/// how far to move (four again if all do).
fn sweep<K: CellKey>(
    points: &[K],
    values: &[f64],
    centres: &[bool],
    firsts: &[K],
    run_length: K,
) -> (f64, u64) {
    let n = points.len();
    debug_assert_eq!(values.len(), n);
    let mut cursors = vec![0usize; firsts.len()];
    let (mut total, mut outputs) = (0.0, 0u64);
    for (&centre, _) in points.iter().zip(centres).filter(|(_, &inside)| inside) {
        // Average the window around this cell (sparse: only stored cells
        // contribute, and the centre is one of them).
        let (mut sum, mut count) = (0.0, 0u64);
        for (cursor, &delta) in cursors.iter_mut().zip(firsts) {
            // Both are positions inside the box the encoding was made
            // for: the data's bounds grown by the reach.
            let first = centre.offset_by(delta);
            let end = first.offset_by(run_length);
            let mut at = *cursor;
            while let Some(next) = points.get(at..at + 4) {
                let before = next.iter().map(|point| usize::from(*point < first)).sum::<usize>();
                at += before;
                if before < 4 {
                    break;
                }
            }
            // The last three points, which no block of four reaches.
            while at < n && points[at] < first {
                at += 1;
            }
            *cursor = at;
            while at < n && points[at] <= end {
                sum += values[at];
                count += 1;
                at += 1;
            }
        }
        // `count ≥ 1` (the centre's own run holds it); exact below 2^53.
        total += sum / count as f64;
        outputs += 1;
    }
    (total, outputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use array_model::{Array, ArraySchema, ScalarValue};
    use cluster_sim::{Cluster, CostModel, NodeId};
    use std::collections::BTreeMap;

    /// The definition the sweep must reproduce bit for bit: a point map
    /// probed once per window offset by a recursive odometer.
    fn brute_force(cells: &[(Vec<i64>, f64)], region: &Region, radius: i64) -> WindowResult {
        fn accumulate(
            points: &BTreeMap<Vec<i64>, f64>,
            center: &[i64],
            radius: i64,
            dim: usize,
            probe: &mut Vec<i64>,
            sum: &mut f64,
            n: &mut u64,
        ) {
            if dim == center.len() {
                if let Some(v) = points.get(probe) {
                    *sum += v;
                    *n += 1;
                }
                return;
            }
            for d in -radius..=radius {
                probe[dim] = center[dim] + d;
                accumulate(points, center, radius, dim + 1, probe, sum, n);
            }
            probe[dim] = center[dim];
        }
        let points: BTreeMap<Vec<i64>, f64> = cells.iter().cloned().collect();
        let (mut total, mut outputs) = (0.0, 0u64);
        for cell in points.keys().filter(|c| region.contains_cell(c)) {
            let (mut sum, mut n) = (0.0, 0u64);
            accumulate(&points, cell, radius, 0, &mut cell.clone(), &mut sum, &mut n);
            if n > 0 {
                total += sum / n as f64;
                outputs += 1;
            }
        }
        WindowResult { mean: (outputs > 0).then(|| total / outputs as f64), outputs }
    }

    #[test]
    fn sweep_matches_the_brute_force_bit_for_bit() {
        // A deterministic scatter with repeated cells (the last value must
        // stand) and irrational-ish values, so any reordering of the float
        // additions shows up in the low bits.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |n: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        // (dimensions, coordinate span, region high corner, radii). 12
        // reaches past the data's span: the clamped-reach path, on the
        // last dimension too. Four and five dimensions are tighter, so
        // the odometer oracle stays affordable.
        let wide: (u64, i64, &[i64]) = (9, 4, &[0, 1, 2, 3, 12]);
        let tight: (u64, i64, &[i64]) = (4, 1, &[0, 1, 2]);
        // Each shape on both sides of the packing boundary: as drawn (a
        // box of a few thousand cells, numbered), and with two far cells
        // outside the region — one at each end of dimension 0, or of the
        // last — so the probed box holds more than 2^64 cells whenever
        // there is a second dimension, and the same windows are swept
        // over padded keys. Alone, a dimension that long still packs: the
        // packed sweep at the top of its range.
        let far = [i64::MIN + 20, i64::MAX - 20];
        let shapes = [(1, wide), (2, wide), (3, wide), (4, tight), (5, tight)];
        for ((nd, (span, high, radii)), stretch) in shapes
            .into_iter()
            .flat_map(|shape| [None, Some(0), Some(shape.0 - 1)].map(|s| (shape, s)))
        {
            let mut cells: Vec<(Vec<i64>, f64)> = (0..400)
                .map(|i| {
                    let cell = (0..nd).map(|_| next(span) as i64 - 2).collect();
                    (cell, (i as f64 * 0.37).sin() * 1e3 + 1.0 / (i + 3) as f64)
                })
                .collect();
            for (i, end) in far.into_iter().enumerate().filter(|_| stretch.is_some()) {
                let mut cell = cells[i].0.clone();
                cell[stretch.unwrap_or(0)] = end;
                cells.push((cell, 0.5 + i as f64));
            }
            let region = Region::new(vec![-1; nd], vec![high; nd]);
            for &radius in radii {
                let mut keys = FlatKeys::new(nd);
                for (cell, _) in &cells {
                    keys.push(cell);
                }
                let packs = matches!(keys.bounds().encoding(), BoxEncoding::Packed(_));
                assert_eq!(packs, stretch.is_none() || nd == 1, "nd {nd} stretched {stretch:?}");
                let values = cells.iter().map(|(_, v)| *v).collect();
                let got = window_means(keys, values, &region, radius).unwrap();
                let want = brute_force(&cells, &region, radius);
                assert!(want.outputs > 0);
                assert_eq!(got.outputs, want.outputs, "nd {nd} r {radius}");
                assert_eq!(
                    got.mean.map(f64::to_bits),
                    want.mean.map(f64::to_bits),
                    "nd {nd} r {radius}"
                );
            }
        }
    }

    fn setup(place: impl Fn(usize) -> NodeId) -> (Cluster, Catalog) {
        let mut cluster = Cluster::new(4, u64::MAX, CostModel::default()).unwrap();
        let schema = ArraySchema::parse("I<v:double>[x=0:7,2, y=0:7,2]").unwrap();
        let mut a = Array::new(ArrayId(0), schema);
        for x in 0..8 {
            for y in 0..8 {
                a.insert_cell(vec![x, y], vec![ScalarValue::Double(1.0)]).unwrap();
            }
        }
        let mut cat = Catalog::new();
        cat.place_array(&mut cluster, &a, |_, i, _| place(i)).unwrap();
        (cluster, cat)
    }

    #[test]
    fn constant_field_windows_to_constant() {
        let (cluster, cat) = setup(|i| NodeId((i % 4) as u32));
        let ctx = ExecutionContext::new(&cluster, &cat);
        let region = Region::new(vec![2, 2], vec![5, 5]);
        let (result, _) = window_aggregate(&ctx, ArrayId(0), &region, "v", 1).unwrap();
        assert_eq!(result.outputs, 16);
        assert!((result.mean.unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn clustering_reduces_remote_halo_fetches() {
        let region = Region::new(vec![0, 0], vec![7, 7]);
        // Row-major chunk order on a 4x4 chunk grid: i = cx*4 + cy.
        // Clustered: left half (cx<2) on nodes 0/1 by row pairs -> most
        // neighbours share a node. Scattered: round-robin everything.
        let clustered = setup(|i| NodeId((i / 8) as u32 * 2 + ((i % 8) / 4) as u32 / 2));
        let scattered = setup(|i| NodeId((i % 4) as u32));
        let (_, s_clu) = window_aggregate(
            &ExecutionContext::new(&clustered.0, &clustered.1),
            ArrayId(0),
            &region,
            "v",
            1,
        )
        .unwrap();
        let (_, s_sca) = window_aggregate(
            &ExecutionContext::new(&scattered.0, &scattered.1),
            ArrayId(0),
            &region,
            "v",
            1,
        )
        .unwrap();
        assert!(
            s_clu.remote_fetches < s_sca.remote_fetches,
            "clustered {} vs scattered {}",
            s_clu.remote_fetches,
            s_sca.remote_fetches
        );
        assert!(s_clu.elapsed_secs < s_sca.elapsed_secs);
    }

    #[test]
    fn negative_radius_is_rejected() {
        let (cluster, cat) = setup(|i| NodeId((i % 4) as u32));
        let ctx = ExecutionContext::new(&cluster, &cat);
        let region = Region::new(vec![2, 2], vec![5, 5]);
        let err = window_aggregate(&ctx, ArrayId(0), &region, "v", -1).unwrap_err();
        assert!(matches!(err, crate::QueryError::InvalidArgument(_)), "{err}");
    }

    #[test]
    fn overflowing_radius_is_rejected() {
        // Used to panic in debug builds and, in release, wrap to a
        // negative compute charge and an inside-out halo (empty answer).
        let (cluster, cat) = setup(|i| NodeId((i % 4) as u32));
        let ctx = ExecutionContext::new(&cluster, &cat);
        let region = Region::new(vec![2, 2], vec![5, 5]);
        for radius in [i64::MAX, i64::MAX / 2, i64::MAX / 2 - 1, 3_037_000_500, i64::MAX - 5] {
            let err = window_aggregate(&ctx, ArrayId(0), &region, "v", radius).unwrap_err();
            assert!(matches!(err, crate::QueryError::InvalidArgument(_)), "{radius}: {err}");
        }
        // A radius far beyond the array is fine: it just means "everything".
        let (result, stats) = window_aggregate(&ctx, ArrayId(0), &region, "v", 1 << 30).unwrap();
        assert_eq!(result.outputs, 16);
        assert_eq!(result.mean, Some(1.0));
        assert!(stats.elapsed_secs > 0.0);
    }

    #[test]
    fn window_mean_matches_naive_on_varying_field() {
        let mut cluster = Cluster::new(1, u64::MAX, CostModel::default()).unwrap();
        let schema = ArraySchema::parse("I<v:double>[x=0:3,2, y=0:3,2]").unwrap();
        let mut a = Array::new(ArrayId(0), schema);
        for x in 0..4 {
            for y in 0..4 {
                a.insert_cell(vec![x, y], vec![ScalarValue::Double((x + y) as f64)]).unwrap();
            }
        }
        let mut cat = Catalog::new();
        cat.place_array(&mut cluster, &a, |_, _, _| NodeId(0)).unwrap();
        let ctx = ExecutionContext::new(&cluster, &cat);
        // Window around (1,1) with r=1 covers the 3x3 block x,y in 0..=2:
        // mean of (x+y) = 2.0. Single-cell region isolates it.
        let region = Region::new(vec![1, 1], vec![1, 1]);
        let (result, _) = window_aggregate(&ctx, ArrayId(0), &region, "v", 1).unwrap();
        assert_eq!(result.outputs, 1);
        assert!((result.mean.unwrap() - 2.0).abs() < 1e-9);
    }

    /// `A<v, c>[x=-1:*,1, y=0:3,2]` with cells at `x = at, at - 1` on two
    /// y chunks, chunks alternating over two nodes.
    fn column_at(at: i64) -> (Cluster, Catalog) {
        let schema = ArraySchema::parse("A<v:double, c:double>[x=-1:*,1, y=0:3,2]").unwrap();
        let mut a = Array::new(ArrayId(0), schema);
        for (x, y) in [(at, 1), (at - 1, 1), (at, 2)] {
            let values = vec![ScalarValue::Double(x as f64 / 8.0), ScalarValue::Double(90.0)];
            a.insert_cell(vec![x, y], values).unwrap();
        }
        let mut cluster = Cluster::new(2, u64::MAX, CostModel::default()).unwrap();
        let mut cat = Catalog::new();
        cat.place_array(&mut cluster, &a, |_, i, _| NodeId((i % 2) as u32)).unwrap();
        (cluster, cat)
    }

    #[test]
    fn the_halo_stops_at_the_last_chunk_index() {
        // Cells at `x = i64::MAX - 1` sit in chunk `i64::MAX`: its halo
        // neighbour past the end used to be `ncoords[dim] += 1` — an
        // overflow panic in debug builds, a wrap in release. Now there is
        // no such position, so the answer and the cost are those of the
        // same column where nothing lies past it.
        let top = i64::MAX - 1;
        let run = |at: i64| {
            let (cluster, cat) = column_at(at);
            let ctx = ExecutionContext::new(&cluster, &cat);
            let region = Region::new(vec![at - 1, 0], vec![at, 3]);
            window_aggregate(&ctx, ArrayId(0), &region, "v", 1).unwrap()
        };
        let ((edge, edge_stats), (inner, inner_stats)) = (run(top), run(9));
        assert_eq!(edge.outputs, inner.outputs);
        assert_eq!(edge_stats, inner_stats);
        assert!(edge_stats.remote_fetches > 0, "the halo inside the array still crosses nodes");
    }
}
