//! Uniform Range partitioner (paper §4.2).
//!
//! A tall, *static* balanced binary tree of height `h` subdivides the
//! chunk grid into `l = 2^h` leaf regions, cycling dimensions and halving
//! ranges at each level. Leaves, sorted by traversal order, are assigned
//! to nodes in contiguous blocks of `l / n` — preserving n-dimensional
//! clustering with good (data-independent) balance. Scaling out
//! recomputes every leaf's block, a **global** reorganization that may
//! ship chunks between preexisting nodes.
//!
//! Because the tree never looks at the data, the scheme is brittle under
//! skew: a hot leaf cannot be subdivided further (the paper's AIS results
//! show exactly this failure mode).

use super::{GridHint, Partitioner, PartitionerKind, RouteEpoch};
use array_model::{ChunkDescriptor, ChunkKey};
use cluster_sim::{Cluster, NodeId, RebalancePlan};
use durability::CodecError;

/// Uniform Range partitioner state.
#[derive(Debug, Clone)]
pub struct UniformRange {
    grid: GridHint,
    height: u32,
    nodes: Vec<NodeId>,
}

impl UniformRange {
    /// Build with `l = 2^height` leaves over `grid` for the initial nodes.
    pub fn new(nodes: &[NodeId], grid: &GridHint, height: u32) -> Self {
        assert!(!nodes.is_empty(), "need at least one node");
        assert!((1..32).contains(&height), "height must be in [1, 32)");
        UniformRange { grid: grid.clone(), height, nodes: nodes.to_vec() }
    }

    /// Number of leaves `l`.
    pub fn leaf_count(&self) -> u64 {
        1u64 << self.height
    }

    /// Leaf index of a chunk coordinate: descend the implicit balanced
    /// tree, halving the active range on the cycling dimension at each
    /// level. Leaf indices accumulate the descent bits, so consecutive
    /// leaf indices are traversal-order neighbours in array space.
    fn leaf_of(&self, coords: &[i64]) -> u64 {
        // Stack scratch: the active range per dimension. Allocation-free —
        // this runs once per placed chunk.
        let ndims = self.grid.ndims();
        debug_assert!(ndims <= array_model::MAX_DIMS);
        let mut lo = [0i64; array_model::MAX_DIMS];
        let mut hi = [0i64; array_model::MAX_DIMS];
        hi[..ndims].copy_from_slice(&self.grid.chunk_counts);
        let mut leaf: u64 = 0;
        for depth in 0..self.height {
            let dim = self.grid.split_dim(depth as usize);
            let mid = lo[dim] + (hi[dim] - lo[dim]) / 2;
            // Clamp out-of-hint coordinates into the rightmost leaf.
            let c = coords[dim].clamp(lo[dim], hi[dim].max(lo[dim] + 1) - 1);
            // Degenerate (width-1) ranges always descend left, keeping the
            // leaf numbering stable.
            if hi[dim] - lo[dim] >= 2 && c >= mid {
                leaf = (leaf << 1) | 1;
                lo[dim] = mid;
            } else {
                leaf <<= 1;
                hi[dim] = mid.max(lo[dim] + 1);
            }
        }
        leaf
    }

    /// The node owning leaf `leaf` under the current roster: contiguous
    /// blocks of `l / n` leaves per node.
    fn node_of_leaf(&self, leaf: u64) -> NodeId {
        let l = self.leaf_count();
        let n = self.nodes.len() as u64;
        // floor(leaf * n / l) yields n contiguous blocks of near-equal size.
        let idx = (u128::from(leaf) * u128::from(n) / u128::from(l)) as usize;
        self.nodes[idx.min(self.nodes.len() - 1)]
    }

    fn home(&self, key: &ChunkKey) -> NodeId {
        self.node_of_leaf(self.leaf_of(key.coords.as_slice()))
    }
}

impl Partitioner for UniformRange {
    fn kind(&self) -> PartitionerKind {
        PartitionerKind::UniformRange
    }

    fn table_snapshot(&self) -> Vec<u8> {
        // Grid and height come from config; only the roster (which grows
        // at every scale-out) is data-dependent.
        let mut w = durability::ByteWriter::new();
        w.put_list(&self.nodes, |w, n| w.put_u32(n.0));
        w.into_bytes()
    }

    fn table_restore(&mut self, bytes: &[u8], roster: &[NodeId]) -> Result<(), CodecError> {
        let mut r = durability::ByteReader::new(bytes);
        let nodes = super::read_roster(&mut r, roster, "uniform range nodes")?;
        r.finish("uniform range snapshot tail")?;
        self.nodes = nodes;
        Ok(())
    }

    fn route(&self, desc: &ChunkDescriptor, _ordinal: usize, _epoch: &RouteEpoch<'_>) -> NodeId {
        self.home(&desc.key)
    }

    fn locate(&self, key: &ChunkKey) -> Option<NodeId> {
        Some(self.home(key))
    }

    fn scale_out(&mut self, cluster: &Cluster, new_nodes: &[NodeId]) -> RebalancePlan {
        self.nodes.extend_from_slice(new_nodes);
        super::reshuffle(cluster, |key| self.home(key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use array_model::{ArrayId, ChunkCoords};
    use cluster_sim::{relative_std_dev, CostModel};

    fn grid() -> GridHint {
        GridHint::new(vec![16, 16])
    }

    fn desc(x: i64, y: i64, bytes: u64) -> ChunkDescriptor {
        ChunkDescriptor::new(ChunkKey::new(ArrayId(0), ChunkCoords::new([x, y])), bytes, 1)
    }

    fn insert_grid(p: &mut UniformRange, cluster: &mut Cluster, weight: impl Fn(i64, i64) -> u64) {
        for x in 0..16 {
            for y in 0..16 {
                let d = desc(x, y, weight(x, y));
                let n = p.place(&d, cluster);
                cluster.place(d, n).unwrap();
            }
        }
    }

    #[test]
    fn uniform_data_balances_well() {
        let mut cluster = Cluster::new(4, u64::MAX, CostModel::default()).unwrap();
        let mut p = UniformRange::new(&cluster.node_ids(), &grid(), 8);
        insert_grid(&mut p, &mut cluster, |_, _| 10);
        let rsd = relative_std_dev(&cluster.loads());
        assert!(rsd < 0.05, "uniform range should balance uniform data: {rsd}");
    }

    #[test]
    fn skewed_data_breaks_it() {
        // The paper's AIS finding: a hot corner overloads one block.
        let mut cluster = Cluster::new(4, u64::MAX, CostModel::default()).unwrap();
        let mut p = UniformRange::new(&cluster.node_ids(), &grid(), 8);
        insert_grid(&mut p, &mut cluster, |x, y| if x < 4 && y < 4 { 1000 } else { 1 });
        let rsd = relative_std_dev(&cluster.loads());
        assert!(rsd > 0.5, "skew should show up as imbalance: {rsd}");
    }

    #[test]
    fn scale_out_is_global_and_rebalances() {
        let mut cluster = Cluster::new(2, u64::MAX, CostModel::default()).unwrap();
        let mut p = UniformRange::new(&cluster.node_ids(), &grid(), 8);
        insert_grid(&mut p, &mut cluster, |_, _| 10);
        let new = cluster.add_nodes(2, u64::MAX);
        let plan = p.scale_out(&cluster, &new);
        assert!(!plan.is_incremental(&new), "uniform range reshuffles globally");
        cluster.apply_rebalance(&plan).unwrap();
        let rsd = relative_std_dev(&cluster.loads());
        assert!(rsd < 0.05, "rebalance restores uniform balance: {rsd}");
        for (key, node) in cluster.placements() {
            assert_eq!(p.locate(&key), Some(node));
        }
    }

    #[test]
    fn leaves_cluster_dimension_space() {
        // Chunks in the same small spatial box should mostly share a node
        // when blocks are large (few nodes).
        let cluster = Cluster::new(2, u64::MAX, CostModel::default()).unwrap();
        let p = UniformRange::new(&cluster.node_ids(), &grid(), 8);
        let owner = |x: i64, y: i64| p.locate(&desc(x, y, 0).key).unwrap();
        // The left half of x-space is one node, the right half the other
        // (first split cycles dim 0).
        assert_eq!(owner(0, 0), owner(3, 9));
        assert_ne!(owner(0, 0), owner(15, 0));
    }

    #[test]
    fn higher_trees_balance_more_finely() {
        // 3 nodes on a 2^h tree: rounding imbalance shrinks as h grows.
        let imbalance = |h: u32| {
            let mut cluster = Cluster::new(3, u64::MAX, CostModel::default()).unwrap();
            let mut p = UniformRange::new(&cluster.node_ids(), &grid(), h);
            insert_grid(&mut p, &mut cluster, |_, _| 10);
            relative_std_dev(&cluster.loads())
        };
        assert!(imbalance(8) <= imbalance(2) + 1e-9);
    }

    #[test]
    fn out_of_hint_coordinates_clamp() {
        let cluster = Cluster::new(2, u64::MAX, CostModel::default()).unwrap();
        let p = UniformRange::new(&cluster.node_ids(), &grid(), 8);
        // Far beyond the 16-chunk hint: must still resolve deterministically.
        let far = ChunkKey::new(ArrayId(0), ChunkCoords::new([1000, 1000]));
        assert!(p.locate(&far).is_some());
    }
}
