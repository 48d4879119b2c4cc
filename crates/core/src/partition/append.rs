//! Append: spill-over range partitioning by insert order (paper §4.2).
//!
//! New chunks go to the first node that is not yet at its fill target;
//! when the current target fills, the coordinator spills to the next node
//! in join order. The partitioning table is a list of insert-sequence
//! ranges, one per node, so adding a node is O(1) and scale-out moves no
//! data at all — at the price of poor balance and no dimensional locality.
//!
//! Routing is order-sensitive, so the read-only [`Partitioner::route`]
//! phase reconstructs the batch's fill state from the epoch instead of
//! watching live loads: node quotas form a *staircase* of remaining
//! capacities (from the cursor onward, against epoch-start loads), and a
//! chunk preceded by `P` batch bytes lands on the first step whose
//! cumulative quota exceeds `P`. A chunk that straddles a step boundary
//! overflows its node and correspondingly reduces the next node's share —
//! the batched analogue of the old live-load spill — and the last node
//! absorbs everything past the staircase. For one-chunk epochs (`P = 0`)
//! this degenerates exactly to the classic "first node under its fill
//! target" walk.

use super::{GridHint, Partitioner, PartitionerKind, RouteEpoch};
use crate::partition::seq_index::SeqIndex;
use array_model::{ChunkDescriptor, ChunkKey};
use cluster_sim::{Cluster, NodeId, RebalancePlan};
use durability::{ByteReader, CodecError};

/// Append partitioner state.
#[derive(Debug, Clone)]
pub struct Append {
    /// Nodes in join order; `cursor` indexes the current fill target.
    nodes: Vec<NodeId>,
    cursor: usize,
    /// Fraction of capacity filled before spilling to the next node.
    fill: f64,
    /// Insert sequence counter.
    next_seq: u64,
    /// The range table: `(first_seq, node)` entries, ascending by seq.
    ranges: Vec<(u64, NodeId)>,
    /// Sequence number of every placed chunk (for lookups): dense
    /// per-array grids with hash spill, O(1) on the hot path.
    seq_of: SeqIndex,
}

impl Append {
    /// Build for the cluster's initial nodes. `fill` ∈ (0, 1] is the
    /// fraction of a node's capacity used before spilling; `grid` sizes
    /// the dense sequence index.
    pub fn new(nodes: &[NodeId], fill: f64, grid: &GridHint) -> Self {
        assert!(!nodes.is_empty(), "need at least one node");
        assert!(fill > 0.0 && fill <= 1.0, "fill must be in (0, 1]");
        Append {
            nodes: nodes.to_vec(),
            cursor: 0,
            fill,
            next_seq: 0,
            ranges: Vec::new(),
            seq_of: SeqIndex::new(&grid.chunk_counts),
        }
    }

    /// A node's fill target in bytes.
    fn target(&self, cluster: &Cluster, node: NodeId) -> u64 {
        let n = cluster.node(node).expect("append tracks live nodes");
        (n.capacity_bytes as f64 * self.fill) as u64
    }
}

impl Partitioner for Append {
    fn kind(&self) -> PartitionerKind {
        PartitionerKind::Append
    }

    fn table_snapshot(&self) -> Vec<u8> {
        let mut w = durability::ByteWriter::new();
        w.put_list(&self.nodes, |w, n| w.put_u32(n.0));
        w.put_usize(self.cursor);
        w.put_u64(self.next_seq);
        w.put_list(&self.ranges, |w, &(seq, node)| {
            w.put_u64(seq);
            w.put_u32(node.0);
        });
        self.seq_of.snapshot_into(&mut w);
        w.into_bytes()
    }

    fn table_restore(&mut self, bytes: &[u8], roster: &[NodeId]) -> Result<(), CodecError> {
        let mut r = ByteReader::new(bytes);
        let nodes = super::read_roster(&mut r, roster, "append nodes")?;
        let cursor = r.usize("append cursor")?;
        if cursor >= nodes.len() {
            return Err(CodecError::invalid("append cursor", format!("{cursor} past the roster")));
        }
        let next_seq = r.u64("append next seq")?;
        let ranges = r.list("append range count", 8 + 4, |r| {
            Ok((r.u64("append range seq")?, super::read_node(r, roster, "append range node")?))
        })?;
        // Commit opens a range at the first sequence number and at every
        // change of node after it, so placing anything opens one.
        let ranges_written = ranges.first().map_or(next_seq == 0, |&(first, _)| first == 0)
            && ranges.last().is_none_or(|&(last, _)| last < next_seq)
            && ranges.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 != w[1].1);
        if !ranges_written {
            let detail = format!("{ranges:?} are not the ranges of {next_seq} placements");
            return Err(CodecError::invalid("append range", detail));
        }
        self.seq_of.restore_from(&mut r, next_seq)?;
        r.finish("append snapshot tail")?;
        (self.nodes, self.cursor, self.next_seq, self.ranges) = (nodes, cursor, next_seq, ranges);
        Ok(())
    }

    fn route(&self, desc: &ChunkDescriptor, ordinal: usize, epoch: &RouteEpoch<'_>) -> NodeId {
        let _ = desc;
        let cluster = epoch.cluster();
        let prefix = epoch.prefix_bytes(ordinal);
        // Walk the staircase of remaining quotas from the cursor; the
        // last node absorbs overflow (the provisioner should have scaled
        // out). Allocation-free, O(nodes) worst case, and usually one
        // step: the batch's prefix lands on the current fill target.
        let mut cum = 0u64;
        let mut i = self.cursor.min(self.nodes.len() - 1);
        loop {
            if i + 1 >= self.nodes.len() {
                return self.nodes[i];
            }
            let node = self.nodes[i];
            let n = cluster.node(node).expect("append tracks live nodes");
            let remaining = self.target(cluster, node).saturating_sub(n.used_bytes());
            cum = cum.saturating_add(remaining);
            if prefix < cum {
                return node;
            }
            i += 1;
        }
    }

    fn commit(&mut self, batch: &[ChunkDescriptor], routes: &[NodeId]) {
        for (desc, &node) in batch.iter().zip(routes) {
            let seq = self.next_seq;
            self.next_seq += 1;
            // Open a new range entry on a node's first write.
            match self.ranges.last() {
                Some(&(_, last_node)) if last_node == node => {}
                _ => self.ranges.push((seq, node)),
            }
            self.seq_of.insert(desc.key, seq);
        }
        // Routes walk the roster monotonically, so the last route is the
        // furthest fill target reached; persist it as the new cursor.
        if let Some(last) = routes.last() {
            if let Some(pos) = self.nodes.iter().position(|n| n == last) {
                self.cursor = self.cursor.max(pos);
            }
        }
    }

    fn locate(&self, key: &ChunkKey) -> Option<NodeId> {
        let seq = self.seq_of.get(key)?;
        // Binary search the range table: the entry with the largest
        // first_seq <= seq owns the chunk.
        let idx = self.ranges.partition_point(|&(start, _)| start <= seq);
        debug_assert!(idx > 0, "placed chunk must fall in some range");
        Some(self.ranges[idx - 1].1)
    }

    fn scale_out(&mut self, _cluster: &Cluster, new_nodes: &[NodeId]) -> RebalancePlan {
        // Constant-time: append the new nodes to the roster; they become
        // fill targets when their predecessors fill. No data moves.
        self.nodes.extend_from_slice(new_nodes);
        RebalancePlan::empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use array_model::{ArrayId, ChunkCoords};
    use cluster_sim::CostModel;

    fn grid() -> GridHint {
        GridHint::new(vec![64])
    }

    fn desc(i: i64, bytes: u64) -> ChunkDescriptor {
        ChunkDescriptor::new(ChunkKey::new(ArrayId(0), ChunkCoords::new([i])), bytes, 1)
    }

    fn run(p: &mut Append, cluster: &mut Cluster, start: i64, count: i64, bytes: u64) {
        for i in start..start + count {
            let d = desc(i, bytes);
            let n = p.place(&d, cluster);
            cluster.place(d, n).unwrap();
        }
    }

    #[test]
    fn fills_nodes_in_join_order() {
        let mut cluster = Cluster::new(2, 100, CostModel::default()).unwrap();
        let mut p = Append::new(&cluster.node_ids(), 1.0, &grid());
        run(&mut p, &mut cluster, 0, 4, 30); // 120 bytes total
                                             // Node 0 takes 30+30+30 (90 < 100), the 4th lands on node 0 too
                                             // (90 < 100 still true before placement), then spills.
        assert_eq!(cluster.loads()[0], 120);
        run(&mut p, &mut cluster, 4, 2, 30);
        assert_eq!(cluster.loads(), vec![120, 60]);
    }

    #[test]
    fn scale_out_moves_nothing() {
        let mut cluster = Cluster::new(2, 100, CostModel::default()).unwrap();
        let mut p = Append::new(&cluster.node_ids(), 1.0, &grid());
        run(&mut p, &mut cluster, 0, 8, 30);
        let new = cluster.add_nodes(2, 100);
        let plan = p.scale_out(&cluster, &new);
        assert!(plan.is_empty());
        // New nodes are used once earlier ones fill.
        run(&mut p, &mut cluster, 8, 4, 60);
        assert!(cluster.loads()[2] > 0);
    }

    #[test]
    fn locate_agrees_with_cluster() {
        let mut cluster = Cluster::new(3, 100, CostModel::default()).unwrap();
        let mut p = Append::new(&cluster.node_ids(), 1.0, &grid());
        run(&mut p, &mut cluster, 0, 10, 40);
        for (key, node) in cluster.placements() {
            assert_eq!(p.locate(&key), Some(node), "mismatch for {key}");
        }
        assert_eq!(p.locate(&desc(99, 0).key), None);
    }

    #[test]
    fn last_node_absorbs_overflow() {
        let mut cluster = Cluster::new(2, 100, CostModel::default()).unwrap();
        let mut p = Append::new(&cluster.node_ids(), 1.0, &grid());
        run(&mut p, &mut cluster, 0, 10, 100); // way past total capacity
        assert_eq!(cluster.loads()[0], 100);
        assert_eq!(cluster.loads()[1], 900);
    }

    #[test]
    fn fill_factor_spills_early() {
        let mut cluster = Cluster::new(2, 100, CostModel::default()).unwrap();
        let mut p = Append::new(&cluster.node_ids(), 0.5, &grid());
        run(&mut p, &mut cluster, 0, 4, 25);
        // Node 0 reaches 50 (its 0.5 target) after two chunks.
        assert_eq!(cluster.loads(), vec![50, 50]);
    }

    #[test]
    fn batch_routing_walks_the_quota_staircase() {
        // Routed as one epoch: the prefix sums alone must spill the batch
        // across nodes exactly like live sequential fills would.
        let mut cluster = Cluster::new(3, 100, CostModel::default()).unwrap();
        let mut p = Append::new(&cluster.node_ids(), 1.0, &grid());
        let batch: Vec<ChunkDescriptor> = (0..6).map(|i| desc(i, 40)).collect();
        let prefix = super::super::batch_prefix_bytes(&batch);
        let epoch = RouteEpoch::for_batch(&cluster, &prefix);
        let routes: Vec<NodeId> =
            batch.iter().enumerate().map(|(i, d)| p.route(d, i, &epoch)).collect();
        // Quotas of 100 per node: prefixes 0,40,80 -> n0; 120,160 -> n1
        // (40 of overflow from chunk 2 eats into n1's share); 200 -> n2.
        assert_eq!(
            routes,
            vec![NodeId(0); 3]
                .into_iter()
                .chain([NodeId(1), NodeId(1), NodeId(2)])
                .collect::<Vec<_>>()
        );
        cluster.place_all(&batch, &routes).unwrap();
        p.commit(&batch, &routes);
        // Cursor persisted: the next single placement continues on node 2.
        assert_eq!(p.place(&desc(10, 10), &cluster), NodeId(2));
        for (key, node) in cluster.placements() {
            assert_eq!(p.locate(&key), Some(node));
        }
    }
}
