//! K-d Tree partitioner (paper §4.2, citing Bentley [9]).
//!
//! The partitioning table is a binary tree over chunk-index space: leaves
//! are hosts, internal nodes are split planes. When a machine joins, the
//! most heavily loaded host splits at the **byte-weighted median** of its
//! chunks along the next dimension in the cycle, handing the upper half to
//! the newcomer. Lookup is a logarithmic tree descent (Figure 2).

use super::{GridHint, Partitioner, PartitionerKind, RouteEpoch};
use array_model::{ChunkCoords, ChunkDescriptor, ChunkKey};
use cluster_sim::{Cluster, NodeId, RebalancePlan};
use durability::CodecError;
use std::collections::BTreeSet;

#[derive(Debug, Clone)]
enum Tree {
    Leaf {
        host: NodeId,
        depth: u32,
        lo: Vec<i64>,
        hi: Vec<i64>, // exclusive, in chunk-index space
    },
    Internal {
        dim: usize,
        split: i64, // coords[dim] < split -> left
        left: Box<Tree>,
        right: Box<Tree>,
    },
}

/// K-d tree partitioner state.
#[derive(Debug, Clone)]
pub struct KdTree {
    root: Tree,
    /// Dimension-cycling order for splits (see [`GridHint::split_priority`]).
    priority: Vec<usize>,
    /// The hinted grid: the root's box is `0..extent`.
    extent: Vec<i64>,
}

impl KdTree {
    /// Build for the initial nodes by midpoint splits (no data yet),
    /// cycling dimensions exactly as later skew-aware splits will.
    pub fn new(nodes: &[NodeId], grid: &GridHint) -> Self {
        assert!(!nodes.is_empty(), "need at least one node");
        let extent = grid.chunk_counts.clone();
        let (lo, hi) = (vec![0i64; extent.len()], extent.clone());
        let mut tree = KdTree {
            root: Tree::Leaf { host: nodes[0], depth: 0, lo, hi },
            priority: grid.split_priority.clone(),
            extent,
        };
        for &fresh in &nodes[1..] {
            // Before data arrives, split the shallowest (largest) leaf at
            // its midpoint.
            let victim = tree.shallowest_leaf_host();
            tree.split_leaf_midpoint(victim, fresh);
        }
        tree
    }

    fn descend(&self, coords: &[i64]) -> NodeId {
        let mut cur = &self.root;
        loop {
            match cur {
                Tree::Leaf { host, .. } => return *host,
                Tree::Internal { dim, split, left, right } => {
                    cur = if coords[*dim] < *split { left } else { right };
                }
            }
        }
    }

    fn shallowest_leaf_host(&self) -> NodeId {
        fn walk(t: &Tree, best: &mut Option<(u32, NodeId)>) {
            match t {
                Tree::Leaf { host, depth, .. } => {
                    if best.is_none() || depth < &best.unwrap().0 {
                        *best = Some((*depth, *host));
                    }
                }
                Tree::Internal { left, right, .. } => {
                    walk(left, best);
                    walk(right, best);
                }
            }
        }
        let mut best = None;
        walk(&self.root, &mut best);
        best.expect("tree has leaves").1
    }

    /// Find the (unique) leaf owned by `host` and split it at the midpoint
    /// of the cycling dimension. Used during bootstrap and as the fallback
    /// when a victim holds no data.
    fn split_leaf_midpoint(&mut self, host: NodeId, fresh: NodeId) -> bool {
        fn walk(t: &mut Tree, host: NodeId, fresh: NodeId, priority: &[usize]) -> bool {
            match t {
                Tree::Leaf { host: h, depth, lo, hi } if *h == host => {
                    // Pick the first cycling dimension with room to split.
                    for probe in 0..priority.len() {
                        let dim = priority[(*depth as usize + probe) % priority.len()];
                        if hi[dim] - lo[dim] >= 2 {
                            let split = lo[dim] + (hi[dim] - lo[dim]) / 2;
                            replace_with_split(t, dim, split, fresh);
                            return true;
                        }
                    }
                    false
                }
                Tree::Leaf { .. } => false,
                Tree::Internal { left, right, .. } => {
                    walk(left, host, fresh, priority) || walk(right, host, fresh, priority)
                }
            }
        }
        let priority = self.priority.clone();
        walk(&mut self.root, host, fresh, &priority)
    }

    /// Split `host`'s leaf at `split` along `dim` (data-driven path).
    fn split_leaf_at(&mut self, host: NodeId, dim: usize, split: i64, fresh: NodeId) -> bool {
        fn walk(t: &mut Tree, host: NodeId, dim: usize, split: i64, fresh: NodeId) -> bool {
            match t {
                Tree::Leaf { host: h, lo, hi, .. } if *h == host => {
                    if split <= lo[dim] || split >= hi[dim] {
                        return false;
                    }
                    replace_with_split(t, dim, split, fresh);
                    true
                }
                Tree::Leaf { .. } => false,
                Tree::Internal { left, right, .. } => {
                    walk(left, host, dim, split, fresh) || walk(right, host, dim, split, fresh)
                }
            }
        }
        walk(&mut self.root, host, dim, split, fresh)
    }

    fn leaf_info(&self, host: NodeId) -> Option<(u32, Vec<i64>, Vec<i64>)> {
        fn walk(t: &Tree, host: NodeId) -> Option<(u32, Vec<i64>, Vec<i64>)> {
            match t {
                Tree::Leaf { host: h, depth, lo, hi } if *h == host => {
                    Some((*depth, lo.clone(), hi.clone()))
                }
                Tree::Leaf { .. } => None,
                Tree::Internal { left, right, .. } => {
                    walk(left, host).or_else(|| walk(right, host))
                }
            }
        }
        walk(&self.root, host)
    }

    /// Tree depth of the deepest leaf — lookups are O(depth).
    pub fn depth(&self) -> u32 {
        fn walk(t: &Tree) -> u32 {
            match t {
                Tree::Leaf { depth, .. } => *depth,
                Tree::Internal { left, right, .. } => walk(left).max(walk(right)),
            }
        }
        walk(&self.root)
    }
}

fn put_tree(w: &mut durability::ByteWriter, t: &Tree) {
    match t {
        Tree::Leaf { host, depth, lo, hi } => {
            w.put_u8(0);
            w.put_u32(host.0);
            w.put_u32(*depth);
            w.put_list(lo, |w, &v| w.put_i64(v));
            w.put_list(hi, |w, &v| w.put_i64(v));
        }
        Tree::Internal { dim, split, left, right } => {
            w.put_u8(1);
            w.put_usize(*dim);
            w.put_i64(*split);
            put_tree(w, left);
            put_tree(w, right);
        }
    }
}

/// Read the subtree at `depth` whose box is `lo..hi`, as [`put_tree`]
/// wrote it: split planes inside their box, leaves stating the depth and
/// box above them, hosts on the roster (collected into `hosts`).
///
/// A tree of distinct hosts has at most `roster.len()` leaves, so no node
/// is that deep: refusing deeper bytes bounds the recursion (and the
/// drop) by the roster, not by the input.
fn read_tree(
    r: &mut durability::ByteReader<'_>,
    roster: &[NodeId],
    depth: u32,
    (lo, hi): (Vec<i64>, Vec<i64>),
    hosts: &mut Vec<NodeId>,
) -> Result<Tree, CodecError> {
    if depth as usize >= roster.len() {
        let detail = format!("deeper than {} hosts can make it", roster.len());
        return Err(CodecError::invalid("kd tree depth", detail));
    }
    match r.u8("kd tree node tag")? {
        0 => {
            let host = super::read_node(r, roster, "kd leaf host")?;
            let stated = (
                r.u32("kd leaf depth")?,
                r.list("kd leaf lo", 8, |r| r.i64("kd leaf lo"))?,
                r.list("kd leaf hi", 8, |r| r.i64("kd leaf hi"))?,
            );
            if stated != (depth, lo.clone(), hi.clone()) {
                let detail = format!("{stated:?} is not the leaf's depth and box");
                return Err(CodecError::invalid("kd leaf", detail));
            }
            hosts.push(host);
            Ok(Tree::Leaf { host, depth, lo, hi })
        }
        1 => {
            let dim = r.usize("kd split dim")?;
            let split = r.i64("kd split plane")?;
            if dim >= lo.len() || split <= lo[dim] || split >= hi[dim] {
                let detail = format!("plane {split} on dim {dim} is not inside {lo:?}..{hi:?}");
                return Err(CodecError::invalid("kd split", detail));
            }
            let (mut left_hi, mut right_lo) = (hi.clone(), lo.clone());
            left_hi[dim] = split;
            right_lo[dim] = split;
            let left = read_tree(r, roster, depth + 1, (lo, left_hi), hosts)?;
            let right = read_tree(r, roster, depth + 1, (right_lo, hi), hosts)?;
            Ok(Tree::Internal { dim, split, left: Box::new(left), right: Box::new(right) })
        }
        tag => Err(CodecError::invalid("kd tree node tag", format!("unknown tag {tag}"))),
    }
}

fn replace_with_split(t: &mut Tree, dim: usize, split: i64, fresh: NodeId) {
    if let Tree::Leaf { host, depth, lo, hi } = t {
        let mut left_hi = hi.clone();
        left_hi[dim] = split;
        let mut right_lo = lo.clone();
        right_lo[dim] = split;
        let left = Tree::Leaf { host: *host, depth: *depth + 1, lo: lo.clone(), hi: left_hi };
        let right = Tree::Leaf { host: fresh, depth: *depth + 1, lo: right_lo, hi: hi.clone() };
        *t = Tree::Internal { dim, split, left: Box::new(left), right: Box::new(right) };
    } else {
        unreachable!("only leaves are replaced");
    }
}

impl Partitioner for KdTree {
    fn kind(&self) -> PartitionerKind {
        PartitionerKind::KdTree
    }

    fn table_snapshot(&self) -> Vec<u8> {
        // The split priority is config-derived; the tree itself (every
        // split plane chosen from data medians) is written recursively.
        let mut w = durability::ByteWriter::new();
        put_tree(&mut w, &self.root);
        w.into_bytes()
    }

    fn table_restore(&mut self, bytes: &[u8], roster: &[NodeId]) -> Result<(), CodecError> {
        let mut r = durability::ByteReader::new(bytes);
        let root_box = (vec![0; self.extent.len()], self.extent.clone());
        let mut hosts = Vec::new();
        let root = read_tree(&mut r, roster, 0, root_box, &mut hosts)?;
        if hosts.iter().collect::<BTreeSet<_>>().len() != hosts.len() {
            return Err(CodecError::invalid("kd leaf host", "a host owns two leaves"));
        }
        r.finish("kd tree snapshot tail")?;
        self.root = root;
        Ok(())
    }

    fn route(&self, desc: &ChunkDescriptor, _ordinal: usize, _epoch: &RouteEpoch<'_>) -> NodeId {
        // Indices beyond the grid hint still route deterministically: the
        // tree's rightmost leaves have open upper bounds in effect because
        // descent only compares against split planes.
        self.descend(desc.key.coords.as_slice())
    }

    fn locate(&self, key: &ChunkKey) -> Option<NodeId> {
        Some(self.descend(key.coords.as_slice()))
    }

    fn scale_out(&mut self, cluster: &Cluster, new_nodes: &[NodeId]) -> RebalancePlan {
        super::split_heaviest(cluster, new_nodes, |victim, fresh, residents| {
            let Some((depth, lo, hi)) = self.leaf_info(victim) else {
                return Vec::new();
            };
            // Cycle dimensions from the leaf's depth until one admits a
            // byte-weighted median split interior to the leaf's box on that
            // dimension (hint overflow can put chunks outside it).
            let mut plane = None;
            for probe in 0..self.priority.len() {
                let dim = self.priority[(depth as usize + probe) % self.priority.len()];
                let mut along: Vec<(i64, u64)> =
                    residents.iter().map(|d| (d.key.coords[dim], d.bytes)).collect();
                along.sort_unstable();
                let Some(split) = super::weighted_median(along.iter().copied()) else { continue };
                let interior = split > lo[dim] && (hi[dim] <= lo[dim] || split < hi[dim]);
                if interior && self.split_leaf_at(victim, dim, split, fresh) {
                    plane = Some((dim, split));
                    break;
                }
            }
            // No median split (the victim holds a single chunk, say): the
            // leaf splits at its midpoint, and whatever now descends to the
            // fresh leaf must still move — the table and the placement may
            // never disagree.
            if plane.is_none() && !self.split_leaf_midpoint(victim, fresh) {
                return Vec::new();
            }
            let moves = |coords: &ChunkCoords| match plane {
                Some((dim, split)) => coords[dim] >= split,
                None => self.descend(coords.as_slice()) == fresh,
            };
            residents.into_iter().filter(|d| moves(&d.key.coords)).collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use array_model::{ArrayId, ChunkCoords};
    use cluster_sim::CostModel;

    fn desc(x: i64, y: i64, bytes: u64) -> ChunkDescriptor {
        ChunkDescriptor::new(ChunkKey::new(ArrayId(0), ChunkCoords::new([x, y])), bytes, 1)
    }

    fn grid() -> GridHint {
        GridHint::new(vec![10, 10])
    }

    fn insert_grid(p: &mut KdTree, cluster: &mut Cluster, weight: impl Fn(i64, i64) -> u64) {
        for x in 0..10 {
            for y in 0..10 {
                let w = weight(x, y);
                if w == 0 {
                    continue;
                }
                let d = desc(x, y, w);
                let n = p.place(&d, cluster);
                cluster.place(d, n).unwrap();
            }
        }
    }

    #[test]
    fn figure2_style_initial_split() {
        // Two nodes: the domain splits on dim 0 at its midpoint, like the
        // x < 5 root split of Figure 2.
        let cluster = Cluster::new(2, u64::MAX, CostModel::default()).unwrap();
        let p = KdTree::new(&cluster.node_ids(), &grid());
        let left = p.locate(&desc(0, 0, 0).key).unwrap();
        let right = p.locate(&desc(9, 0, 0).key).unwrap();
        assert_ne!(left, right);
        assert_eq!(p.locate(&desc(4, 9, 0).key), Some(left));
        assert_eq!(p.locate(&desc(5, 0, 0).key), Some(right));
    }

    #[test]
    fn skew_aware_split_halves_the_loaded_host() {
        // Left half holds all the weight; adding a node must split the
        // left host, not the right one.
        let mut cluster = Cluster::new(2, u64::MAX, CostModel::default()).unwrap();
        let mut p = KdTree::new(&cluster.node_ids(), &grid());
        insert_grid(&mut p, &mut cluster, |x, _| if x < 5 { 100 } else { 1 });
        let left_host = p.locate(&desc(0, 0, 0).key).unwrap();
        let before = cluster.node(left_host).unwrap().used_bytes();

        let new = cluster.add_nodes(1, u64::MAX);
        let plan = p.scale_out(&cluster, &new);
        assert!(plan.is_incremental(&new));
        assert!(plan.moves.iter().all(|m| m.from == left_host));
        cluster.apply_rebalance(&plan).unwrap();
        let after = cluster.node(left_host).unwrap().used_bytes();
        let frac = (before - after) as f64 / before as f64;
        assert!(frac > 0.3 && frac < 0.7, "moved fraction {frac}");
        for (key, node) in cluster.placements() {
            assert_eq!(p.locate(&key), Some(node));
        }
    }

    #[test]
    fn splits_cycle_dimensions() {
        // After the root x-split, splitting a host must cut on y (Figure 2's
        // second split).
        let mut cluster = Cluster::new(2, u64::MAX, CostModel::default()).unwrap();
        let mut p = KdTree::new(&cluster.node_ids(), &grid());
        insert_grid(&mut p, &mut cluster, |x, _| if x < 5 { 100 } else { 1 });
        let new = cluster.add_nodes(1, u64::MAX);
        let plan = p.scale_out(&cluster, &new);
        cluster.apply_rebalance(&plan).unwrap();
        // The left half is now split by y: two x<5 chunks with different y
        // can land on different hosts.
        let a = p.locate(&desc(0, 0, 0).key).unwrap();
        let b = p.locate(&desc(0, 9, 0).key).unwrap();
        assert_ne!(a, b, "second split should cut the y dimension");
    }

    #[test]
    fn empty_victim_falls_back_to_midpoint() {
        let mut cluster = Cluster::new(2, u64::MAX, CostModel::default()).unwrap();
        let mut p = KdTree::new(&cluster.node_ids(), &grid());
        let new = cluster.add_nodes(2, u64::MAX);
        let plan = p.scale_out(&cluster, &new);
        assert!(plan.is_empty());
        // All four nodes should own disjoint regions.
        let mut owners = std::collections::BTreeSet::new();
        for x in 0..10 {
            for y in 0..10 {
                owners.insert(p.locate(&desc(x, y, 0).key).unwrap());
            }
        }
        assert_eq!(owners.len(), 4);
    }

    #[test]
    fn lookup_depth_is_logarithmic() {
        let mut cluster = Cluster::new(2, u64::MAX, CostModel::default()).unwrap();
        let mut p = KdTree::new(&cluster.node_ids(), &grid());
        insert_grid(&mut p, &mut cluster, |_, _| 10);
        for _ in 0..3 {
            let new = cluster.add_nodes(2, u64::MAX);
            let plan = p.scale_out(&cluster, &new);
            cluster.apply_rebalance(&plan).unwrap();
        }
        assert_eq!(cluster.node_count(), 8);
        // 8 hosts: a balanced k-d tree has depth ~3; allow slack for skew.
        assert!(p.depth() <= 6, "depth {} too deep for 8 hosts", p.depth());
        for (key, node) in cluster.placements() {
            assert_eq!(p.locate(&key), Some(node));
        }
    }
}
