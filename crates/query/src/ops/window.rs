//! Windowed aggregation with halo exchange (paper §3.3.2 "Complex
//! Projection": the MODIS image-smoothing window).
//!
//! Every output pixel averages a window of surrounding cells, so chunks
//! need a *halo* of cells from their face-adjacent neighbours. Neighbour
//! pairs that live on the same node exchange nothing; pairs split across
//! nodes pay a latency-bearing remote fetch of the boundary slab. This is
//! the purest expression of why n-dimensional clustering wins spatial
//! queries.

use super::scan::{numeric_attr, NumericSlice};
use crate::error::{QueryError, Result};
use crate::exec::ExecutionContext;
use crate::stats::{scaled_bytes, QueryStats, WorkTracker};
use array_model::{ArrayId, ChunkDescriptor, Region};
use std::collections::BTreeMap;

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
            // Faces plus their edge/corner contributions (~1.5x a face).
            let slab_fraction =
                (1.5 * radius as f64 / dimension.chunk_interval.max(1) as f64).min(1.0) * fraction;
            for delta in [-1i64, 1] {
                let mut ncoords = desc.key.coords;
                ncoords[dim] += delta;
                if let Some(&(ndesc, nnode, nlive)) = homes.get(&ncoords) {
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
        let window_cells = ((2 * radius + 1) * (2 * radius + 1)) as f64;
        tracker.compute(node, ctx.cost().cpu_secs(bytes) * window_cells * 0.15);
        pull_halo(tracker, desc, node, true);
    });
    for (desc, node) in &plan.dead {
        pull_halo(&mut tracker, desc, *node, false);
    }

    // Materialized answer: brute-force window average per cell, over a
    // point map of the region grown by the halo (a second plan: the halo
    // read reaches chunks, and rows, the costed region does not).
    let mut result = WindowResult::default();
    if plan.exact {
        let mut points: BTreeMap<Vec<i64>, f64> = BTreeMap::new();
        let grown = Region::new(
            region.low.iter().map(|v| v - radius).collect(),
            region.high.iter().map(|v| v + radius).collect(),
        );
        ctx.plan_scan(array_id, Some(&grown), None)?.for_each_chunk(|chunk, mask| {
            let col = NumericSlice::of(chunk, attr_idx);
            mask.for_each_cell(chunk, |row, cell| {
                points.insert(cell.to_vec(), col.get(row));
            });
        })?;
        let mut total = 0.0;
        let mut outputs = 0u64;
        for (cell, _) in points.iter() {
            if !region.contains_cell(cell) {
                continue;
            }
            // Average the window around this cell (sparse: only stored
            // cells contribute).
            let mut sum = 0.0;
            let mut n = 0u64;
            let mut probe = cell.clone();
            accumulate_window(&points, cell, radius, 0, &mut probe, &mut sum, &mut n);
            if n > 0 {
                total += sum / n as f64;
                outputs += 1;
            }
        }
        result.outputs = outputs;
        if outputs > 0 {
            result.mean = Some(total / outputs as f64);
        }
    }
    Ok((result, tracker.finish()))
}

/// Recursive odometer over the window box, accumulating stored values.
fn accumulate_window(
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
        accumulate_window(points, center, radius, dim + 1, probe, sum, n);
    }
    probe[dim] = center[dim];
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Catalog, StoredArray};
    use array_model::{Array, ArraySchema, ScalarValue};
    use cluster_sim::{Cluster, CostModel, NodeId};

    fn setup(place: impl Fn(usize) -> NodeId) -> (Cluster, Catalog) {
        let mut cluster = Cluster::new(4, u64::MAX, CostModel::default()).unwrap();
        let schema = ArraySchema::parse("I<v:double>[x=0:7,2, y=0:7,2]").unwrap();
        let mut a = Array::new(ArrayId(0), schema);
        for x in 0..8 {
            for y in 0..8 {
                a.insert_cell(vec![x, y], vec![ScalarValue::Double(1.0)]).unwrap();
            }
        }
        let stored = StoredArray::from_array(a);
        for (i, d) in stored.descriptors.values().enumerate() {
            cluster.place(*d, place(i)).unwrap();
        }
        let mut cat = Catalog::new();
        cat.register(stored);
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
    fn window_mean_matches_naive_on_varying_field() {
        let mut cluster = Cluster::new(1, u64::MAX, CostModel::default()).unwrap();
        let schema = ArraySchema::parse("I<v:double>[x=0:3,2, y=0:3,2]").unwrap();
        let mut a = Array::new(ArrayId(0), schema);
        for x in 0..4 {
            for y in 0..4 {
                a.insert_cell(vec![x, y], vec![ScalarValue::Double((x + y) as f64)]).unwrap();
            }
        }
        let stored = StoredArray::from_array(a);
        for d in stored.descriptors.values() {
            cluster.place(*d, NodeId(0)).unwrap();
        }
        let mut cat = Catalog::new();
        cat.register(stored);
        let ctx = ExecutionContext::new(&cluster, &cat);
        // Window around (1,1) with r=1 covers the 3x3 block x,y in 0..=2:
        // mean of (x+y) = 2.0. Single-cell region isolates it.
        let region = Region::new(vec![1, 1], vec![1, 1]);
        let (result, _) = window_aggregate(&ctx, ArrayId(0), &region, "v", 1).unwrap();
        assert_eq!(result.outputs, 1);
        assert!((result.mean.unwrap() - 2.0).abs() < 1e-9);
    }
}
