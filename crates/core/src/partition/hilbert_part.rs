//! Hilbert Curve partitioner (paper §4.2).
//!
//! Chunks are serialized along a Hilbert space-filling curve over chunk
//! space, and each node owns one contiguous range of curve positions.
//! When the cluster scales out, the most heavily loaded node splits its
//! range at the **byte-weighted median** of its resident chunks — a
//! chunk-granularity, skew-aware split that keeps curve (and therefore
//! spatial) neighbours together.

use super::{GridHint, Partitioner, PartitionerKind, RouteEpoch};
use array_model::{ChunkDescriptor, ChunkKey, HilbertOrder};
use cluster_sim::{Cluster, NodeId, RebalancePlan};
use durability::CodecError;
use std::collections::BTreeSet;

/// Hilbert-range partitioner state.
#[derive(Debug, Clone)]
pub struct HilbertCurve {
    order: HilbertOrder,
    /// Which chunk dimensions feed the curve (see [`GridHint::curve_dims`]).
    curve_dims: Vec<usize>,
    /// Ascending interior split points; range `i` is
    /// `[boundaries[i-1], boundaries[i])` over the curve index space.
    boundaries: Vec<u128>,
    /// Owner of each range; `owners.len() == boundaries.len() + 1`.
    owners: Vec<NodeId>,
}

impl HilbertCurve {
    /// Build for the initial nodes, splitting the curve index space into
    /// equal ranges (data-independent — no data has arrived yet).
    pub fn new(nodes: &[NodeId], grid: &GridHint) -> Self {
        assert!(!nodes.is_empty(), "need at least one node");
        let extents: Vec<u64> =
            grid.curve_dims.iter().map(|&d| grid.chunk_counts[d] as u64).collect();
        let order = HilbertOrder::from_extents(&extents);
        let space = order.index_space();
        let n = nodes.len() as u128;
        let boundaries: Vec<u128> = (1..nodes.len() as u128).map(|i| i * (space / n)).collect();
        HilbertCurve {
            order,
            curve_dims: grid.curve_dims.clone(),
            boundaries,
            owners: nodes.to_vec(),
        }
    }

    fn range_of(&self, index: u128) -> usize {
        self.boundaries.partition_point(|&b| b <= index)
    }

    fn owner_of_index(&self, index: u128) -> NodeId {
        self.owners[self.range_of(index)]
    }

    /// The curve index of a chunk key: its curve-dimension coordinates
    /// serialized along the Hilbert curve. Chunks at the same curve
    /// position (e.g. one lon/lat cell across time) share an index, so
    /// they stay co-located. Allocation-free: the projection is built
    /// inline.
    fn index_of(&self, key: &ChunkKey) -> u128 {
        let mut projected = array_model::ChunkCoords::zeros(self.curve_dims.len());
        for (slot, &d) in projected.as_mut_slice().iter_mut().zip(&self.curve_dims) {
            *slot = key.coords.index(d);
        }
        self.order.index_of(&projected)
    }

    /// Range bounds `[lo, hi)` of the range at position `pos`.
    fn range_bounds(&self, pos: usize) -> (u128, u128) {
        let lo = if pos == 0 { 0 } else { self.boundaries[pos - 1] };
        let hi = if pos == self.boundaries.len() {
            self.order.index_space()
        } else {
            self.boundaries[pos]
        };
        (lo, hi)
    }

    /// Number of ranges (== node count). Exposed for tests.
    pub fn range_count(&self) -> usize {
        self.owners.len()
    }
}

impl Partitioner for HilbertCurve {
    fn kind(&self) -> PartitionerKind {
        PartitionerKind::HilbertCurve
    }

    fn table_snapshot(&self) -> Vec<u8> {
        // Order and curve dims are config-derived; the range table
        // (boundaries + owners) mutates at every split.
        let mut w = durability::ByteWriter::new();
        w.put_list(&self.boundaries, |w, &b| w.put_u128(b));
        w.put_list(&self.owners, |w, n| w.put_u32(n.0));
        w.into_bytes()
    }

    fn table_restore(&mut self, bytes: &[u8], roster: &[NodeId]) -> Result<(), CodecError> {
        let mut r = durability::ByteReader::new(bytes);
        let boundaries = r.list("hilbert boundary count", 16, |r| r.u128("hilbert boundary"))?;
        let owners =
            r.list("hilbert owners", 4, |r| super::read_node(r, roster, "hilbert owner"))?;
        if owners.len() != boundaries.len() + 1 {
            let detail = format!("{} owners for {} boundaries", owners.len(), boundaries.len());
            return Err(CodecError::invalid("hilbert owners", detail));
        }
        // Ranges are consecutive stretches of the curve, one per owner.
        if !boundaries.is_sorted() || boundaries.last() > Some(&self.order.index_space()) {
            let detail = "boundaries do not ascend within the curve's index space";
            return Err(CodecError::invalid("hilbert boundary", detail));
        }
        if owners.iter().collect::<BTreeSet<_>>().len() != owners.len() {
            return Err(CodecError::invalid("hilbert owners", "a node owns two ranges"));
        }
        r.finish("hilbert snapshot tail")?;
        (self.boundaries, self.owners) = (boundaries, owners);
        Ok(())
    }

    fn route(&self, desc: &ChunkDescriptor, _ordinal: usize, _epoch: &RouteEpoch<'_>) -> NodeId {
        self.owner_of_index(self.index_of(&desc.key))
    }

    fn locate(&self, key: &ChunkKey) -> Option<NodeId> {
        Some(self.owner_of_index(self.index_of(key)))
    }

    fn scale_out(&mut self, cluster: &Cluster, new_nodes: &[NodeId]) -> RebalancePlan {
        super::split_heaviest(cluster, new_nodes, |victim, fresh, residents| {
            // A node owns at most one range; one that owns none (a split
            // skipped for want of room) cannot be split.
            let Some(pos) = self.owners.iter().position(|&o| o == victim) else {
                return Vec::new();
            };
            let (lo, hi) = self.range_bounds(pos);
            // The victim's chunks inside its range, along the curve. (Only
            // a fault's diverted route puts a chunk outside it.)
            let mut along: Vec<_> = residents
                .into_iter()
                .map(|d| (self.index_of(&d.key), d.bytes, d))
                .filter(|(index, ..)| (lo..hi).contains(index))
                .collect();
            along.sort_unstable_by(|a, b| (a.0, a.1, &a.2.key).cmp(&(b.0, b.1, &b.2.key)));
            // Without a median (too little data), split the range at its
            // midpoint; a range too narrow for that stays whole.
            let split = match super::weighted_median(along.iter().map(|&(i, b, _)| (i, b))) {
                Some(split) => split,
                None if hi - lo >= 2 => lo + (hi - lo) / 2,
                None => return Vec::new(),
            };
            debug_assert!(split > lo && split < hi);
            // The victim keeps [lo, split), the fresh node takes [split, hi).
            self.boundaries.insert(pos, split);
            self.owners.insert(pos + 1, fresh);
            along.into_iter().filter(|&(index, ..)| index >= split).map(|(.., d)| d).collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use array_model::{ArrayId, ChunkCoords};
    use cluster_sim::CostModel;

    fn grid() -> GridHint {
        GridHint::new(vec![16, 16])
    }

    fn desc(x: i64, y: i64, bytes: u64) -> ChunkDescriptor {
        ChunkDescriptor::new(ChunkKey::new(ArrayId(0), ChunkCoords::new([x, y])), bytes, 1)
    }

    fn insert_grid(p: &mut HilbertCurve, cluster: &mut Cluster, weight: impl Fn(i64, i64) -> u64) {
        for x in 0..16 {
            for y in 0..16 {
                let d = desc(x, y, weight(x, y));
                let n = p.place(&d, cluster);
                cluster.place(d, n).unwrap();
            }
        }
    }

    #[test]
    fn initial_ranges_cover_space() {
        let cluster = Cluster::new(3, u64::MAX, CostModel::default()).unwrap();
        let p = HilbertCurve::new(&cluster.node_ids(), &grid());
        assert_eq!(p.range_count(), 3);
        // Every corner of the grid must resolve to some node.
        for (x, y) in [(0i64, 0i64), (15, 0), (0, 15), (15, 15)] {
            let key = ChunkKey::new(ArrayId(0), ChunkCoords::new([x, y]));
            assert!(p.locate(&key).is_some());
        }
    }

    #[test]
    fn point_skew_split_moves_half_the_bytes() {
        // All the weight sits in one corner (point skew, like AIS ports).
        let mut cluster = Cluster::new(2, u64::MAX, CostModel::default()).unwrap();
        let mut p = HilbertCurve::new(&cluster.node_ids(), &grid());
        insert_grid(&mut p, &mut cluster, |x, y| if x < 4 && y < 4 { 1000 } else { 1 });
        let before = cluster.loads();
        let heavy = if before[0] >= before[1] { 0usize } else { 1 };
        let new = cluster.add_nodes(1, u64::MAX);
        let plan = p.scale_out(&cluster, &new);
        assert!(plan.is_incremental(&new));
        cluster.apply_rebalance(&plan).unwrap();
        let after = cluster.loads();
        // The heavy node shed a substantial share of its bytes.
        let shed = before[heavy] - after[heavy];
        let frac = shed as f64 / before[heavy] as f64;
        assert!(frac > 0.25 && frac < 0.75, "shed fraction {frac}");
        for (key, node) in cluster.placements() {
            assert_eq!(p.locate(&key), Some(node));
        }
    }

    #[test]
    fn ranges_preserve_curve_contiguity() {
        // Chunks on the same node must form a contiguous run of curve
        // indices — the property that makes the scheme spatially clustered.
        let mut cluster = Cluster::new(2, u64::MAX, CostModel::default()).unwrap();
        let mut p = HilbertCurve::new(&cluster.node_ids(), &grid());
        insert_grid(&mut p, &mut cluster, |_, _| 10);
        let new = cluster.add_nodes(2, u64::MAX);
        let plan = p.scale_out(&cluster, &new);
        cluster.apply_rebalance(&plan).unwrap();

        let mut assignments: Vec<(u128, NodeId)> =
            cluster.placements().map(|(k, n)| (p.index_of(&k), n)).collect();
        assignments.sort();
        let mut seen = Vec::new();
        for (_, n) in assignments {
            if seen.last() != Some(&n) {
                assert!(!seen.contains(&n), "node {n} owns non-contiguous curve ranges");
                seen.push(n);
            }
        }
    }

    #[test]
    fn empty_victim_splits_at_midpoint_without_moves() {
        let mut cluster = Cluster::new(2, u64::MAX, CostModel::default()).unwrap();
        let mut p = HilbertCurve::new(&cluster.node_ids(), &grid());
        let new = cluster.add_nodes(1, u64::MAX);
        let plan = p.scale_out(&cluster, &new);
        assert!(plan.is_empty());
        assert_eq!(p.range_count(), 3);
    }

    #[test]
    fn two_bands_colocate_join_partners() {
        // Two arrays with identical chunk coords land on the same node —
        // the property the MODIS vegetation-index join relies on.
        let cluster = Cluster::new(4, u64::MAX, CostModel::default()).unwrap();
        let p = HilbertCurve::new(&cluster.node_ids(), &grid());
        for x in 0..16 {
            for y in 0..16 {
                let a = ChunkKey::new(ArrayId(0), ChunkCoords::new([x, y]));
                let b = ChunkKey::new(ArrayId(1), ChunkCoords::new([x, y]));
                assert_eq!(p.locate(&a), p.locate(&b));
            }
        }
    }
}
