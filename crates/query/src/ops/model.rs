//! Modeling operators (paper §3.3.2): k-means clustering, k-nearest
//! neighbours, and trajectory projection (collision prediction).
//!
//! These are the queries most sensitive to spatial arrangement:
//!
//! * k-means sweeps the whole region every iteration — balance wins;
//! * kNN explores chunks around each query point — every candidate chunk
//!   on a different node costs a latency-bearing remote hop, so clustered
//!   placements halve the latency (the paper's Figure 7);
//! * trajectory projection hands ships off across chunk boundaries, a
//!   halo-like exchange.

use super::keys::{BoxEncoding, FlatKeys, KeySlots};
use super::scan::{numeric_attr, NumericSlice};
use crate::error::{QueryError, Result};
use crate::exec::{ExecutionContext, ScanPlan};
use crate::stats::{scaled_bytes, QueryStats, WorkTracker};
use array_model::{chunk_of, ArrayId, Chunk, ChunkCoords, ChunkDescriptor, Region, MAX_DIMS};
use cluster_sim::{gb, NodeId};

/// k-means output.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KMeansResult {
    /// Final centroids in feature space `(dims..., attr)`, scaled to cell
    /// coordinates. Empty when metadata-only.
    pub centroids: Vec<Vec<f64>>,
    /// Sum of squared distances to assigned centroids.
    pub inertia: f64,
    /// Cells clustered.
    pub points: u64,
}

/// Lloyd's k-means over the cells of `region`, using the cell coordinates
/// plus `attr` as the feature vector.
pub fn kmeans(
    ctx: &ExecutionContext<'_>,
    array_id: ArrayId,
    region: &Region,
    attr: &str,
    k: usize,
    iterations: usize,
) -> Result<(KMeansResult, QueryStats)> {
    if k == 0 {
        return Err(QueryError::InvalidArgument("k must be positive".into()));
    }
    let array = ctx.catalog.array(array_id)?;
    let fraction = ctx.attr_fraction(array, &[attr])?;
    let attr_idx = numeric_attr(array, attr)?;
    let mut tracker = WorkTracker::new(ctx.cost());

    // Cost: the first iteration reads the region from disk; the working
    // set then stays buffer-pool resident, so further iterations are pure
    // CPU. Every round ends with a small centroid exchange.
    let plan = ctx.plan_scan(array_id, Some(region), None)?;
    let coordinator = ctx.cluster.coordinator();
    plan.charge(&mut tracker, fraction, |_, _, _, _| {});
    // `k` centroids of `ndims + 1` doubles. `usize` to `u64` is lossless on
    // every supported target; `k` is the caller's, so the product saturates
    // (it used to overflow `usize`: a debug abort, a wrapped charge in
    // release).
    let centroid_bytes = (k as u64).saturating_mul(8 * (array.schema.ndims() as u64 + 1));
    for iter in 0..iterations.max(1) {
        for (desc, node, _) in &plan.visit {
            if iter > 0 {
                tracker.compute(*node, ctx.cost().cpu_secs(scaled_bytes(desc.bytes, fraction)));
            }
            tracker.shuffle(*node, coordinator, centroid_bytes);
        }
    }

    // Materialized answer: standard Lloyd iterations.
    let mut result = KMeansResult::default();
    let mut points: Vec<Vec<f64>> = Vec::new();
    plan.for_each_chunk(|chunk, mask| {
        let col = NumericSlice::of(chunk, attr_idx);
        mask.for_each_cell(chunk, |row, cell| {
            // A coordinate as a feature: rounding to the nearest `f64` is
            // the metric.
            let mut p: Vec<f64> = cell.iter().map(|&c| c as f64).collect();
            p.push(col.get(row));
            points.push(p);
        });
    })?;
    // Lossless, as above.
    result.points = points.len() as u64;
    if !points.is_empty() {
        let dims = points[0].len();
        let k = k.min(points.len());
        // Deterministic init: evenly strided points.
        let mut centroids: Vec<Vec<f64>> =
            (0..k).map(|i| points[i * points.len() / k].clone()).collect();
        let mut assign = vec![0usize; points.len()];
        for _ in 0..iterations.max(1) {
            for (pi, p) in points.iter().enumerate() {
                let mut best = (f64::MAX, 0usize);
                for (ci, c) in centroids.iter().enumerate() {
                    let d: f64 = p.iter().zip(c).map(|(a, b)| (a - b) * (a - b)).sum();
                    if d < best.0 {
                        best = (d, ci);
                    }
                }
                assign[pi] = best.1;
            }
            let mut sums = vec![vec![0.0; dims]; k];
            let mut counts = vec![0u64; k];
            for (pi, p) in points.iter().enumerate() {
                counts[assign[pi]] += 1;
                for (d, v) in p.iter().enumerate() {
                    sums[assign[pi]][d] += v;
                }
            }
            for ci in 0..k {
                if counts[ci] > 0 {
                    for d in 0..dims {
                        // Exact below 2^53 points a cluster.
                        centroids[ci][d] = sums[ci][d] / counts[ci] as f64;
                    }
                }
            }
        }
        result.inertia = points
            .iter()
            .zip(&assign)
            .map(|(p, &ci)| {
                p.iter().zip(&centroids[ci]).map(|(a, b)| (a - b) * (a - b)).sum::<f64>()
            })
            .sum();
        result.centroids = centroids;
    }
    Ok((result, tracker.finish()))
}

/// One kNN answer.
#[derive(Debug, Clone, PartialEq)]
pub struct KnnAnswer {
    /// The query point.
    pub query: Vec<i64>,
    /// Squared Euclidean distances of the k nearest stored cells
    /// (ascending). Empty when metadata-only.
    pub neighbor_dist2: Vec<f64>,
}

/// k-nearest-neighbour search for each query point, by expanding-ring
/// exploration of the chunk grid.
///
/// The rings oversample — a query point sees thousands of candidate cells
/// to keep `k` — so the answer is a selection, not a sort, and the
/// candidates are never all held: see `Nearest`.
pub fn knn(
    ctx: &ExecutionContext<'_>,
    array_id: ArrayId,
    queries: &[Vec<i64>],
    k: usize,
) -> Result<(Vec<KnnAnswer>, QueryStats)> {
    if k == 0 {
        return Err(QueryError::InvalidArgument("k must be positive".into()));
    }
    let array = ctx.catalog.array(array_id)?;
    // Positions only: vertical partitioning means kNN reads no measure columns.
    let fraction = ctx.attr_fraction(array, &[])?;
    let mut tracker = WorkTracker::new(ctx.cost());
    let mut answers = Vec::with_capacity(queries.len());

    const MAX_RING: i64 = 3;
    const OVERSAMPLE: u64 = 3;
    let nd = array.schema.ndims();
    // Every ring position reached, filed under its padded coordinates:
    // its slot in `reached` says what is there, looked up once per call
    // however many query points' rings cover it.
    let mut positions = KeySlots::with_room_for(0);
    let mut reached: Vec<Option<Reached<'_>>> = Vec::new();
    // Buffer-pool semantics: once a node has read (or fetched) a chunk, a
    // later query running on the same node probes it from memory. Port-
    // concentrated query batches hit the same chunks over and over, which
    // is exactly where clustered placements save their latency. A warm
    // pair is one `u64`: the position's slot above the node id. (Exact
    // below 2^32 positions — a table that holds that many does not fit in
    // memory.)
    let mut warm = KeySlots::with_room_for(0);
    // The slots of the chunks one query's rings reach, and the chunks it
    // reads, in kept buffers.
    let mut staged = Vec::new();
    let mut visited = Vec::new();
    for q in queries {
        if q.len() != nd {
            return Err(QueryError::RegionArity { expected: nd, got: q.len() });
        }
        let home = chunk_of(&array.schema, q)
            .map_err(|e| QueryError::InvalidArgument(format!("query point out of bounds: {e}")))?;
        // The query executes on the node holding the home chunk (or the
        // coordinator if that position is empty).
        let home_node =
            ctx.cluster.locate(&array.key_for(&home)).unwrap_or_else(|| ctx.cluster.coordinator());

        // The chunks this query reaches: ring exploration is not a region
        // scan, so the operator assembles its own plan. Whether it is
        // exact — every chunk reached holds cells — is known only once
        // the rings stop, so the chunks are staged first and charged
        // after, in the order they were reached.
        let mut cells_found = 0u64;
        let mut exact = true;
        staged.clear();
        for r in 0..=MAX_RING {
            for_each_in_ring(&home, r, |position| {
                let slot = positions.slot_of(position);
                if slot == reached.len() {
                    let coords = ChunkCoords::new(&position[..nd]);
                    reached.push(ctx.chunk_at(array, &coords)?.map(|(desc, holder, payload)| {
                        Reached {
                            desc,
                            holder,
                            payload,
                            refuted: payload.is_some_and(|chunk| ctx.refuted(chunk, None, None)),
                        }
                    }));
                }
                if let Some(chunk) = reached[slot] {
                    cells_found += chunk.desc.cells;
                    exact &= chunk.payload.is_some();
                    staged.push(slot);
                }
                Ok(())
            })?;
            // Stop once we have enough candidates and looked at least one
            // ring beyond the first hit (so the true neighbours cannot
            // hide in an unvisited adjacent chunk). `usize` to `u64` is
            // lossless on every supported target.
            if cells_found >= (k as u64).saturating_mul(OVERSAMPLE) && r >= 1 {
                break;
            }
        }
        for &slot in &staged {
            let Some(chunk) = reached[slot] else { continue };
            // `usize` to `u64` is lossless on every supported target.
            let first_touch = warm.insert((slot as u64) << 32 | u64::from(home_node.0));
            if exact && chunk.refuted {
                // An emptied chunk is never fetched; like a fetch, the
                // skip is counted once per node that would have made it.
                if first_touch {
                    tracker.prune_chunks(1);
                }
                continue;
            }
            let holder = chunk.holder.unwrap_or(home_node);
            let bytes = scaled_bytes(chunk.desc.bytes, fraction);
            if first_touch {
                tracker.remote_fetch(home_node, holder, bytes);
            } else {
                // In-memory spatial-index probe of an already-warm
                // chunk: touches a small fraction of its pages.
                tracker.compute(home_node, ctx.cost().cpu_secs(bytes / 50) + 0.001);
            }
            visited.push((chunk.desc, holder, chunk.payload));
        }

        // Materialized answer: distances within the visited chunks.
        let mut nearest = Nearest::new(k);
        let plan = ScanPlan::over(std::mem::take(&mut visited));
        plan.for_each_chunk(|chunk, mask| {
            mask.for_each_cell(chunk, |_, cell| {
                // Two coordinates can be further apart than `i64::MAX`;
                // the square forgets the sign, so such a gap is taken as
                // `abs_diff`. (Not always: an `i64` converts to `f64` in
                // one instruction, a `u64` does not — 2.4 ms of a 12 ms
                // batch.) Rounding the gap to the nearest `f64` is the
                // metric.
                let gap2 = |(a, b): (&i64, &i64)| {
                    let gap = a.checked_sub(*b).map_or_else(|| a.abs_diff(*b) as f64, |d| d as f64);
                    gap * gap
                };
                nearest.offer(cell.iter().zip(q).map(gap2).sum());
            });
        })?;
        answers.push(KnnAnswer { query: q.clone(), neighbor_dist2: nearest.into_ascending() });
        visited = plan.visit;
        visited.clear();
    }
    Ok((answers, tracker.finish()))
}

/// A chunk at a ring position: what reaching it costs.
#[derive(Clone, Copy)]
struct Reached<'a> {
    desc: &'a ChunkDescriptor,
    /// The node holding its primary (`None`: a replicated array, read
    /// where the query runs).
    holder: Option<NodeId>,
    /// Its cells, when it holds them; a query whose rings reach one
    /// chunk without cells answers from the cost model alone.
    payload: Option<&'a Chunk>,
    /// Pruning refutes it (no live cells): a query whose plan is exact
    /// never fetches it.
    refuted: bool,
}

/// The `k` smallest of the distances offered, under [`f64::total_cmp`],
/// in a buffer of at most `2k`: whenever it fills it is cut back to the
/// `k` smallest by selection, and from then on a candidate greater than
/// the largest survivor is not even stored. Distances that tie under the
/// total order are the same bits, so which of them survives is
/// unobservable: the result equals sorting every candidate and truncating.
struct Nearest {
    k: usize,
    kept: Vec<f64>,
    /// The `k`-th smallest distance as of the last cut; +∞ before it.
    bound: f64,
}

impl Nearest {
    fn new(k: usize) -> Self {
        debug_assert!(k > 0);
        Nearest { k, kept: Vec::new(), bound: f64::INFINITY }
    }

    #[inline]
    fn offer(&mut self, dist: f64) {
        // `>` is false when either side is a NaN, and where it is true the
        // total order agrees: only a candidate that cannot rank is dropped.
        if dist > self.bound {
            return;
        }
        self.kept.push(dist);
        // A `k` past `usize::MAX / 2` means "every candidate": no buffer
        // gets that long.
        if self.kept.len() >= self.k.saturating_mul(2) {
            self.cut();
        }
    }

    /// Keep the `k` smallest (callers ensure more than `k` are held).
    fn cut(&mut self) {
        let (_, kth, _) = self.kept.select_nth_unstable_by(self.k - 1, f64::total_cmp);
        self.bound = *kth;
        self.kept.truncate(self.k);
    }

    fn into_ascending(mut self) -> Vec<f64> {
        if self.kept.len() > self.k {
            self.cut();
        }
        self.kept.sort_unstable_by(f64::total_cmp);
        self.kept
    }
}

/// `f` over the chunk positions at exactly Chebyshev distance `r` from
/// `home`, first dimension fastest, as padded coordinates; the first
/// error stops the walk. Clipped to non-negative indices, and to
/// chunk-index space: a home within `r` of `i64::MAX` has fewer
/// neighbours, not wrapped ones.
fn for_each_in_ring(
    home: &ChunkCoords,
    r: i64,
    mut f: impl FnMut([i64; MAX_DIMS]) -> Result<()>,
) -> Result<()> {
    let n = home.ndims();
    let mut position = [0; MAX_DIMS];
    if r == 0 {
        position[..n].copy_from_slice(home.as_slice());
        return f(position);
    }
    let mut offsets = [-r; MAX_DIMS];
    loop {
        if offsets[..n].iter().any(|&o| o.abs() == r) {
            let inside = (0..n).all(|d| {
                position[d] = home[d].checked_add(offsets[d]).unwrap_or(-1);
                position[d] >= 0
            });
            if inside {
                f(position)?;
            }
        }
        // The odometer: bump the first dimension, carrying upwards.
        let mut d = 0;
        loop {
            if d == n {
                return Ok(());
            }
            offsets[d] += 1;
            if offsets[d] <= r {
                break;
            }
            offsets[d] = -r;
            d += 1;
        }
    }
}

/// Trajectory projection output.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrajectoryResult {
    /// Ships projected.
    pub projected: u64,
    /// Pairs of ships whose projected positions land in the same cell —
    /// collision candidates. Zero when metadata-only.
    pub collision_candidates: u64,
}

/// Project each cell's object forward: its new position shifts by
/// `(speed * horizon)` along the heading derived from `course_attr`
/// (degrees, 2-D plane = the last two dimensions). Cost: scan plus a
/// cross-node handoff for every chunk-boundary crossing.
pub fn trajectory(
    ctx: &ExecutionContext<'_>,
    array_id: ArrayId,
    region: &Region,
    speed_attr: &str,
    course_attr: &str,
    horizon: f64,
) -> Result<(TrajectoryResult, QueryStats)> {
    let array = ctx.catalog.array(array_id)?;
    let ndims = array.schema.ndims();
    if ndims < 2 {
        return Err(QueryError::InvalidArgument("trajectory needs a 2-D plane".into()));
    }
    let (dx, dy) = (ndims - 2, ndims - 1);
    let fraction = ctx.attr_fraction(array, &[speed_attr, course_attr])?;
    let sp_idx = numeric_attr(array, speed_attr)?;
    let co_idx = numeric_attr(array, course_attr)?;
    let mut tracker = WorkTracker::new(ctx.cost());

    let plan = ctx.plan_scan(array_id, Some(region), None)?;
    let homes = plan.homes();
    // Handoff: projected objects that exit the chunk go to the planar
    // face neighbours; remote neighbours cost a latency-bearing push of
    // a small manifest.
    let hand_off = |tracker: &mut WorkTracker<'_>, desc: &ChunkDescriptor, node, live| {
        for dim in [dx, dy] {
            for step in [-1, 1] {
                if let Some((_, nnode, nlive)) = homes.neighbour(&desc.key.coords, dim, step) {
                    if nnode != node {
                        tracker.pull(live && nlive, node, nnode, desc.bytes / 50);
                    }
                }
            }
        }
    };
    plan.charge(&mut tracker, fraction, |tracker, desc, node, _| {
        hand_off(tracker, desc, node, true);
    });
    for (desc, node) in &plan.dead {
        hand_off(&mut tracker, desc, *node, false);
    }
    // Collision matching is a cheap local pass over projected manifests.
    tracker.coordinator(
        gb(plan.visit.iter().map(|(d, _, _)| d.bytes / 50).sum::<u64>())
            * ctx.cost().cpu_secs_per_gb,
    );

    // Materialized answer: project every ship, then count the ships per
    // landing cell as runs of the sorted landing positions.
    let mut result = TrajectoryResult::default();
    let mut landing = FlatKeys::new(ndims);
    plan.for_each_chunk(|chunk, mask| {
        let speeds = NumericSlice::of(chunk, sp_idx);
        let courses = NumericSlice::of(chunk, co_idx);
        mask.for_each_cell(chunk, |row, cell| {
            let speed = speeds.get(row);
            let course = courses.get(row).to_radians();
            // The float-to-int casts saturate (a huge or infinite product
            // lands on `i64::MAX`), so the shift must saturate too: a
            // hostile attribute value parks the ship at the edge of the
            // coordinate space instead of overflowing the scan.
            let dest = landing.push(cell);
            dest[dx] = dest[dx].saturating_add((speed * horizon * course.cos()).round() as i64);
            dest[dy] = dest[dy].saturating_add((speed * horizon * course.sin()).round() as i64);
        });
    })?;
    // `usize` to `u64` is lossless on every supported target, here and
    // for a cell's ship count.
    result.projected = landing.len() as u64;
    let mut pairs_of = |ships: usize| {
        let c = ships as u64;
        result.collision_candidates += c * (c - 1) / 2;
    };
    // A metadata-only plan yields no rows: nothing landed, nothing to key.
    if plan.exact {
        match landing.bounds().encoding() {
            BoxEncoding::Packed(e) => landing.for_each_run(&e, |ships| pairs_of(ships.len())),
            BoxEncoding::Padded(e) => landing.for_each_run(&e, |ships| pairs_of(ships.len())),
        }
    }
    Ok((result, tracker.finish()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use array_model::{Array, ArraySchema, ScalarValue};
    use cluster_sim::{Cluster, CostModel, NodeId};

    fn two_cluster_array() -> Array {
        // Two tight blobs of cells: one near (2,2), one near (13,13).
        // Chunk interval 2 so each blob spans a 2x2 block of chunks and
        // kNN ring searches cross chunk (and potentially node) boundaries.
        let schema = ArraySchema::parse("P<v:double>[x=0:15,2, y=0:15,2]").unwrap();
        let mut a = Array::new(ArrayId(0), schema);
        for (cx, cy) in [(2i64, 2i64), (13, 13)] {
            for dx in -1..=1 {
                for dy in -1..=1 {
                    a.insert_cell(vec![cx + dx, cy + dy], vec![ScalarValue::Double(0.0)]).unwrap();
                }
            }
        }
        a
    }

    fn setup(array: Array, place: impl Fn(usize) -> NodeId) -> (Cluster, Catalog) {
        let mut cluster = Cluster::new(4, u64::MAX, CostModel::default()).unwrap();
        let mut cat = Catalog::new();
        cat.place_array(&mut cluster, &array, |_, i, _| place(i)).unwrap();
        (cluster, cat)
    }

    #[test]
    fn kmeans_finds_the_two_blobs() {
        let (cluster, cat) = setup(two_cluster_array(), |i| NodeId((i % 4) as u32));
        let ctx = ExecutionContext::new(&cluster, &cat);
        let region = Region::new(vec![0, 0], vec![15, 15]);
        let (result, stats) = kmeans(&ctx, ArrayId(0), &region, "v", 2, 10).unwrap();
        assert_eq!(result.points, 18);
        assert_eq!(result.centroids.len(), 2);
        let mut xs: Vec<f64> = result.centroids.iter().map(|c| c[0]).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((xs[0] - 2.0).abs() < 0.75, "blob 1 centroid x={}", xs[0]);
        assert!((xs[1] - 13.0).abs() < 0.75, "blob 2 centroid x={}", xs[1]);
        assert!(result.inertia < 40.0);
        assert!(stats.elapsed_secs > 0.0);
    }

    #[test]
    fn kmeans_rejects_k_zero() {
        let (cluster, cat) = setup(two_cluster_array(), |_| NodeId(0));
        let ctx = ExecutionContext::new(&cluster, &cat);
        let region = Region::new(vec![0, 0], vec![15, 15]);
        assert!(kmeans(&ctx, ArrayId(0), &region, "v", 0, 5).is_err());
    }

    #[test]
    fn kmeans_with_a_huge_k_means_one_centroid_a_point() {
        // The centroid exchange was charged `k * (ndims + 1) * 8` in
        // `usize`, which `k` near `usize::MAX` overflowed.
        let (cluster, cat) = setup(two_cluster_array(), |_| NodeId(0));
        let ctx = ExecutionContext::new(&cluster, &cat);
        let region = Region::new(vec![0, 0], vec![15, 15]);
        let (result, stats) = kmeans(&ctx, ArrayId(0), &region, "v", usize::MAX, 2).unwrap();
        assert_eq!((result.centroids.len(), result.points), (18, 18));
        assert_eq!(result.inertia, 0.0);
        assert!(stats.elapsed_secs.is_finite());
    }

    #[test]
    fn knn_returns_true_nearest_distances() {
        let (cluster, cat) = setup(two_cluster_array(), |i| NodeId((i % 4) as u32));
        let ctx = ExecutionContext::new(&cluster, &cat);
        let (answers, _) = knn(&ctx, ArrayId(0), &[vec![2, 2]], 3).unwrap();
        assert_eq!(answers.len(), 1);
        // Nearest to (2,2): itself (0), then 4 side neighbours (1,1,...)
        assert_eq!(answers[0].neighbor_dist2.len(), 3);
        assert_eq!(answers[0].neighbor_dist2[0], 0.0);
        assert_eq!(answers[0].neighbor_dist2[1], 1.0);
        assert_eq!(answers[0].neighbor_dist2[2], 1.0);
    }

    #[test]
    fn knn_clustered_placement_avoids_remote_hops() {
        // All chunks on one node vs scattered: the scattered run must pay
        // remote fetches.
        let local = setup(two_cluster_array(), |_| NodeId(0));
        let scattered = setup(two_cluster_array(), |i| NodeId((i % 4) as u32));
        let queries = vec![vec![2i64, 2], vec![13, 13]];
        let (_, s_local) =
            knn(&ExecutionContext::new(&local.0, &local.1), ArrayId(0), &queries, 3).unwrap();
        let (_, s_scat) =
            knn(&ExecutionContext::new(&scattered.0, &scattered.1), ArrayId(0), &queries, 3)
                .unwrap();
        assert_eq!(s_local.remote_fetches, 0);
        assert!(s_scat.remote_fetches > 0);
        assert!(s_scat.elapsed_secs > s_local.elapsed_secs);
    }

    #[test]
    fn trajectory_detects_head_on_collision() {
        // Two ships one cell apart heading toward the same spot.
        let schema =
            ArraySchema::parse("B<speed:double, course:double>[x=0:15,4, y=0:15,4]").unwrap();
        let mut a = Array::new(ArrayId(0), schema);
        // Ship A at (4,4) heading east (0 deg) at speed 2.
        a.insert_cell(vec![4, 4], vec![ScalarValue::Double(2.0), ScalarValue::Double(0.0)])
            .unwrap();
        // Ship B at (8,4) heading west (180 deg) at speed 2.
        a.insert_cell(vec![8, 4], vec![ScalarValue::Double(2.0), ScalarValue::Double(180.0)])
            .unwrap();
        let (cluster, cat) = setup(a, |_| NodeId(0));
        let ctx = ExecutionContext::new(&cluster, &cat);
        let region = Region::new(vec![0, 0], vec![15, 15]);
        let (result, _) = trajectory(&ctx, ArrayId(0), &region, "speed", "course", 1.0).unwrap();
        // Both project to (6,4): one collision pair.
        assert_eq!(result.projected, 2);
        assert_eq!(result.collision_candidates, 1);
    }

    #[test]
    fn knn_with_a_huge_k_means_every_candidate() {
        // `k * OVERSAMPLE` used to overflow (a debug panic) for k near
        // `usize::MAX`; now the rings are simply never "enough" and the
        // answer is every candidate they reach, ascending.
        let (cluster, cat) = setup(two_cluster_array(), |i| NodeId((i % 4) as u32));
        let ctx = ExecutionContext::new(&cluster, &cat);
        let (answers, _) = knn(&ctx, ArrayId(0), &[vec![2, 2]], usize::MAX).unwrap();
        let dists = &answers[0].neighbor_dist2;
        assert_eq!(dists.len(), 9, "the whole near blob, none of the far one");
        assert_eq!(dists[..5], [0.0, 1.0, 1.0, 1.0, 1.0]);
        assert!(dists.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn knn_distances_across_most_of_i64_do_not_overflow() {
        // `(a - b) as f64` in `i64`: a debug abort, and in release a
        // wrapped gap — the far cell answered 1.9958e35 instead of 3.24e38.
        const END: i64 = 9_000_000_000_000_000_000;
        let schema =
            ArraySchema::parse(&format!("P<v:double>[x=-{END}:{END},9223372036854775807]"))
                .unwrap();
        let mut a = Array::new(ArrayId(0), schema);
        for x in [-END, END] {
            a.insert_cell(vec![x], vec![ScalarValue::Double(0.0)]).unwrap();
        }
        let (cluster, cat) = setup(a, |_| NodeId(0));
        let ctx = ExecutionContext::new(&cluster, &cat);
        let (answers, _) = knn(&ctx, ArrayId(0), &[vec![-END]], 2).unwrap();
        let gap = 2.0 * END as f64;
        assert_eq!(answers[0].neighbor_dist2, vec![0.0, gap * gap]);
        assert_eq!(gap * gap, 3.24e38);
    }

    #[test]
    fn the_bounded_buffer_keeps_what_a_full_sort_would() {
        // Ties (most values repeat), both zeros, +∞ several times over and
        // NaNs of both signs, in an order that keeps refilling the buffer
        // with survivors; k around the candidate count and at the extremes.
        let pool = [3.0, 0.0, f64::INFINITY, 1.5, -0.0, 7.0, f64::NAN, 1.5, -f64::NAN, 0.25];
        let offered: Vec<f64> =
            (0..57usize).map(|i| pool[(i * 7 + i / 5) % pool.len()] * (1 + i % 3) as f64).collect();
        let n = offered.len();
        for k in [1, 2, 9, 10, 11, n / 2, n - 1, n, n + 1, 2 * n, usize::MAX] {
            for take in [n, 3, 0] {
                let mut nearest = Nearest::new(k);
                offered[..take].iter().for_each(|&d| nearest.offer(d));
                let mut want = offered[..take].to_vec();
                want.sort_by(f64::total_cmp);
                want.truncate(k);
                let got = nearest.into_ascending();
                let bits = |v: &[f64]| v.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "k {k} of {take}");
            }
        }
    }

    #[test]
    fn trajectory_saturates_on_hostile_speeds() {
        // A huge or infinite speed casts to `i64::MAX`; adding that to a
        // positive coordinate used to overflow the scan. Both ships now
        // land on the same saturated cell: one collision pair.
        let schema =
            ArraySchema::parse("B<speed:double, course:double>[x=0:15,4, y=0:15,4]").unwrap();
        let mut a = Array::new(ArrayId(0), schema);
        for (cell, speed) in [(vec![4, 4], f64::INFINITY), (vec![9, 4], 1e300)] {
            a.insert_cell(cell, vec![ScalarValue::Double(speed), ScalarValue::Double(0.0)])
                .unwrap();
        }
        a.insert_cell(vec![12, 12], vec![ScalarValue::Double(f64::NAN), ScalarValue::Double(0.0)])
            .unwrap();
        let (cluster, cat) = setup(a, |_| NodeId(0));
        let ctx = ExecutionContext::new(&cluster, &cat);
        let region = Region::new(vec![0, 0], vec![15, 15]);
        let (result, _) = trajectory(&ctx, ArrayId(0), &region, "speed", "course", 1.0).unwrap();
        assert_eq!(result.projected, 3);
        assert_eq!(result.collision_candidates, 1);
    }

    fn string_and_double_array() -> Array {
        let schema = ArraySchema::parse("S<name:string, v:double>[x=0:7,4, y=0:7,4]").unwrap();
        let mut a = Array::new(ArrayId(0), schema);
        a.insert_cell(vec![1, 1], vec![ScalarValue::Str("a".into()), ScalarValue::Double(1.0)])
            .unwrap();
        a
    }

    #[test]
    fn kmeans_over_a_string_attribute_is_a_typed_error() {
        // Used to fold `get_f64().unwrap_or(0.0)` and cluster a
        // constant-zero feature.
        let (cluster, cat) = setup(string_and_double_array(), |_| NodeId(0));
        let ctx = ExecutionContext::new(&cluster, &cat);
        let region = Region::new(vec![0, 0], vec![7, 7]);
        let err = kmeans(&ctx, ArrayId(0), &region, "name", 1, 2).unwrap_err();
        assert!(matches!(err, QueryError::AttributeType { .. }), "{err}");
    }

    #[test]
    fn trajectory_over_a_string_attribute_is_a_typed_error() {
        // Used to read speed/course 0.0 and "project" every ship in place.
        let (cluster, cat) = setup(string_and_double_array(), |_| NodeId(0));
        let ctx = ExecutionContext::new(&cluster, &cat);
        let region = Region::new(vec![0, 0], vec![7, 7]);
        for (speed, course) in [("name", "v"), ("v", "name")] {
            let err = trajectory(&ctx, ArrayId(0), &region, speed, course, 1.0).unwrap_err();
            assert!(matches!(err, QueryError::AttributeType { .. }), "{err}");
        }
    }

    /// The ring walk `for_each_in_ring` replaced — a `Vec` per ring and
    /// per candidate — with its sum widened so it cannot overflow: the
    /// order and the clipping `for_each_in_ring` must reproduce.
    fn ring_by_vecs(home: &ChunkCoords, r: i64) -> Vec<Vec<i64>> {
        if r == 0 {
            return vec![home.as_slice().to_vec()];
        }
        let n = home.ndims();
        let mut out = Vec::new();
        let mut offsets = vec![-r; n];
        'outer: loop {
            if offsets.iter().any(|&o| o.abs() == r) {
                let cand: Vec<i128> =
                    (0..n).map(|d| i128::from(home[d]) + i128::from(offsets[d])).collect();
                if cand.iter().all(|&i| (0..=i128::from(i64::MAX)).contains(&i)) {
                    out.push(cand.into_iter().map(|i| i as i64).collect());
                }
            }
            let mut d = 0;
            loop {
                if d == n {
                    break 'outer;
                }
                offsets[d] += 1;
                if offsets[d] <= r {
                    break;
                }
                offsets[d] = -r;
                d += 1;
            }
        }
        out
    }

    #[test]
    fn ring_enumeration_counts_match() {
        let ring_of = |home: &ChunkCoords, r| {
            let mut ring = Vec::new();
            let walk = for_each_in_ring(home, r, |p| {
                ring.push(p[..home.ndims()].to_vec());
                Ok(())
            });
            walk.map(|()| ring).unwrap()
        };
        let counts = |home: [i64; 2]| -> Vec<usize> {
            (0..3).map(|r| ring_of(&ChunkCoords::new(home), r).len()).collect()
        };
        assert_eq!(counts([5, 5]), [1, 8, 16]);
        // Clipping at the array origin, and at the end of index space
        // (where the sum used to overflow).
        assert_eq!(counts([0, 0]), [1, 3, 5]);
        assert_eq!(counts([i64::MAX, 0]), [1, 3, 5]);
        let top = i64::MAX;
        for home in [[5, 5, 5], [0, 3, top], [top, top - 1, 0], [top - 2, 1, top]] {
            let home = ChunkCoords::new(home);
            for r in 0..=3 {
                assert_eq!(ring_of(&home, r), ring_by_vecs(&home, r), "{home:?} ring {r}");
            }
        }
    }

    /// `A<v, c>[x=-1:*,1, y=0:3,2]`: ships at `x = at, at - 1` on two y
    /// chunks, chunks alternating over two nodes.
    fn column_at(at: i64) -> (Cluster, Catalog) {
        let schema = ArraySchema::parse("A<v:double, c:double>[x=-1:*,1, y=0:3,2]").unwrap();
        let mut a = Array::new(ArrayId(0), schema);
        for (x, y) in [(at, 1), (at - 1, 1), (at, 2)] {
            let values = vec![ScalarValue::Double(1.0), ScalarValue::Double(90.0)];
            a.insert_cell(vec![x, y], values).unwrap();
        }
        setup(a, |i| NodeId((i % 2) as u32))
    }

    #[test]
    fn the_hand_off_stops_at_the_last_chunk_index() {
        // Chunk `i64::MAX` (cells at `x = i64::MAX - 1`): the hand-off
        // neighbour past it was `ncoords[dim] += 1` — an overflow panic in
        // debug builds, a wrap in release. There is no such position, so
        // the cost is that of the same column where nothing lies past it.
        let project = |at: i64| {
            let (cluster, cat) = column_at(at);
            let region = Region::new(vec![at - 1, 0], vec![at, 3]);
            let ctx = ExecutionContext::new(&cluster, &cat);
            trajectory(&ctx, ArrayId(0), &region, "v", "c", 1.0).unwrap()
        };
        let (edge, inner) = (project(i64::MAX - 1), project(9));
        assert_eq!(edge, inner);
        assert_eq!(edge.0.projected, 3);
    }

    #[test]
    fn knn_rings_stop_at_the_last_chunk_index() {
        // The ring positions past chunk `i64::MAX` were `home[d] +
        // offsets[d]`, which overflowed the same way; they are not there.
        let near = |at: i64| {
            let (cluster, cat) = column_at(at);
            knn(&ExecutionContext::new(&cluster, &cat), ArrayId(0), &[vec![at, 1]], 2).unwrap()
        };
        let (edge, inner) = (near(i64::MAX - 1), near(9));
        assert_eq!(edge.1, inner.1);
        assert_eq!(edge.0[0].neighbor_dist2, inner.0[0].neighbor_dist2);
        assert_eq!(edge.0[0].neighbor_dist2, [0.0, 1.0]);
    }
}
