//! Round Robin: the paper's baseline (§6.1).
//!
//! Chunk `i` (by arrival order) lives on node `i mod k`. Every node gets
//! an equal share of chunks, but scale-out changes `k` and therefore the
//! home of most chunks — a *global* reorganization that may ship data
//! between preexisting nodes.
//!
//! Routing is order-sensitive but pure: the chunk's batch ordinal plus
//! the table's sequence counter determine its home, so a whole batch
//! routes against one snapshot; [`Partitioner::commit`] then advances
//! the counter and records the sequence numbers.

use super::{Partitioner, PartitionerKind, RouteEpoch};
use crate::partition::seq_index::SeqIndex;
use crate::partition::GridHint;
use array_model::{ChunkDescriptor, ChunkKey};
use cluster_sim::{Cluster, NodeId, RebalancePlan};
use durability::CodecError;

/// Round Robin partitioner state.
#[derive(Debug, Clone)]
pub struct RoundRobin {
    nodes: Vec<NodeId>,
    next_seq: u64,
    /// Sequence number of every placed chunk: dense per-array grids with
    /// hash spill, O(1) on the hot path.
    seq_of: SeqIndex,
}

impl RoundRobin {
    /// Build for the cluster's initial nodes; `grid` sizes the dense
    /// sequence index.
    pub fn new(nodes: &[NodeId], grid: &GridHint) -> Self {
        assert!(!nodes.is_empty(), "need at least one node");
        RoundRobin { nodes: nodes.to_vec(), next_seq: 0, seq_of: SeqIndex::new(&grid.chunk_counts) }
    }

    fn home(&self, seq: u64) -> NodeId {
        self.nodes[(seq % self.nodes.len() as u64) as usize]
    }
}

impl Partitioner for RoundRobin {
    fn kind(&self) -> PartitionerKind {
        PartitionerKind::RoundRobin
    }

    fn table_snapshot(&self) -> Vec<u8> {
        let mut w = durability::ByteWriter::new();
        w.put_list(&self.nodes, |w, n| w.put_u32(n.0));
        w.put_u64(self.next_seq);
        self.seq_of.snapshot_into(&mut w);
        w.into_bytes()
    }

    fn table_restore(&mut self, bytes: &[u8], roster: &[NodeId]) -> Result<(), CodecError> {
        let mut r = durability::ByteReader::new(bytes);
        let nodes = super::read_roster(&mut r, roster, "round robin nodes")?;
        let next_seq = r.u64("round robin next seq")?;
        self.seq_of.restore_from(&mut r, next_seq)?;
        r.finish("round robin snapshot tail")?;
        (self.nodes, self.next_seq) = (nodes, next_seq);
        Ok(())
    }

    fn route(&self, _desc: &ChunkDescriptor, ordinal: usize, _epoch: &RouteEpoch<'_>) -> NodeId {
        self.home(self.next_seq + ordinal as u64)
    }

    fn commit(&mut self, batch: &[ChunkDescriptor], _routes: &[NodeId]) {
        for desc in batch {
            self.seq_of.insert(desc.key, self.next_seq);
            self.next_seq += 1;
        }
    }

    fn locate(&self, key: &ChunkKey) -> Option<NodeId> {
        self.seq_of.get(key).map(|seq| self.home(seq))
    }

    fn scale_out(&mut self, cluster: &Cluster, new_nodes: &[NodeId]) -> RebalancePlan {
        self.nodes.extend_from_slice(new_nodes);
        super::reshuffle(cluster, |key| self.locate(key).expect("round robin saw every placement"))
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

    fn run(p: &mut RoundRobin, cluster: &mut Cluster, start: i64, count: i64, bytes: u64) {
        for i in start..start + count {
            let d = desc(i, bytes);
            let n = p.place(&d, cluster);
            cluster.place(d, n).unwrap();
        }
    }

    #[test]
    fn equal_chunk_counts() {
        let mut cluster = Cluster::new(4, 1000, CostModel::default()).unwrap();
        let mut p = RoundRobin::new(&cluster.node_ids(), &grid());
        run(&mut p, &mut cluster, 0, 20, 10);
        assert_eq!(cluster.chunk_counts(), vec![5, 5, 5, 5]);
    }

    #[test]
    fn scale_out_is_global() {
        let mut cluster = Cluster::new(2, 1000, CostModel::default()).unwrap();
        let mut p = RoundRobin::new(&cluster.node_ids(), &grid());
        run(&mut p, &mut cluster, 0, 12, 10);
        let new = cluster.add_nodes(1, 1000);
        let plan = p.scale_out(&cluster, &new);
        // chunks keep home only when i mod 2 == i mod 3, i.e. i mod 6 in {0,1}:
        // 4 of 12 stay, 8 move.
        assert_eq!(plan.len(), 8);
        assert!(!plan.is_incremental(&new), "round robin reshuffles globally");
        cluster.apply_rebalance(&plan).unwrap();
        assert_eq!(cluster.chunk_counts(), vec![4, 4, 4]);
        for (key, node) in cluster.placements() {
            assert_eq!(p.locate(&key), Some(node));
        }
    }

    #[test]
    fn locate_tracks_reassignment() {
        let mut cluster = Cluster::new(2, 1000, CostModel::default()).unwrap();
        let mut p = RoundRobin::new(&cluster.node_ids(), &grid());
        run(&mut p, &mut cluster, 0, 6, 10);
        let before = p.locate(&desc(3, 0).key).unwrap();
        assert_eq!(before, NodeId(1)); // 3 mod 2
        let new = cluster.add_nodes(2, 1000);
        let plan = p.scale_out(&cluster, &new);
        cluster.apply_rebalance(&plan).unwrap();
        assert_eq!(p.locate(&desc(3, 0).key), Some(NodeId(3))); // 3 mod 4
    }

    #[test]
    fn batch_ordinals_continue_the_sequence() {
        // Routing a batch against one epoch must produce the same homes
        // as placing its chunks one at a time.
        let cluster = Cluster::new(3, 1000, CostModel::default()).unwrap();
        let mut a = RoundRobin::new(&cluster.node_ids(), &grid());
        let mut b = RoundRobin::new(&cluster.node_ids(), &grid());
        let batch: Vec<ChunkDescriptor> = (0..10).map(|i| desc(i, 10)).collect();
        let epoch = RouteEpoch::single(&cluster);
        let routes: Vec<NodeId> =
            batch.iter().enumerate().map(|(i, d)| a.route(d, i, &epoch)).collect();
        a.commit(&batch, &routes);
        let singles: Vec<NodeId> = batch.iter().map(|d| b.place(d, &cluster)).collect();
        assert_eq!(routes, singles);
        // And a second batch continues where the first stopped.
        assert_eq!(a.route(&desc(10, 1), 0, &epoch), b.place(&desc(10, 1), &cluster));
    }
}
