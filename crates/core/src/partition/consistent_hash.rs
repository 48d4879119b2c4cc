//! Consistent Hash (paper §4.2, citing Karger et al. [24]).
//!
//! Nodes and chunks hash onto a ring; a chunk belongs to the first node
//! clockwise from its hash. Each node contributes many *virtual nodes* to
//! smooth the ring. Adding a node claims arcs only from preexisting nodes,
//! so scale-out is incremental by construction; placement ignores chunk
//! sizes and array space, so the scheme is neither skew-aware nor
//! clustered.

use super::{Partitioner, PartitionerKind, RouteEpoch};
use crate::hashing::{hash_chunk_key, hash_ring_point};
use array_model::{ChunkDescriptor, ChunkKey};
use cluster_sim::{Cluster, NodeId, RebalancePlan};
use durability::CodecError;
use std::collections::BTreeMap;

/// Consistent-hash ring partitioner.
#[derive(Debug, Clone)]
pub struct ConsistentHash {
    ring: BTreeMap<u64, NodeId>,
    virtual_nodes: u32,
}

impl ConsistentHash {
    /// Build a ring with `virtual_nodes` points per host.
    pub fn new(nodes: &[NodeId], virtual_nodes: u32) -> Self {
        assert!(!nodes.is_empty(), "need at least one node");
        assert!(virtual_nodes >= 1, "need at least one virtual node");
        let mut ch = ConsistentHash { ring: BTreeMap::new(), virtual_nodes };
        for &n in nodes {
            ch.insert_node(n);
        }
        ch
    }

    fn insert_node(&mut self, node: NodeId) {
        for replica in 0..self.virtual_nodes {
            // Linear-probe hash collisions (astronomically unlikely) so
            // every replica lands on the ring deterministically.
            let mut point = hash_ring_point(node.0, replica);
            while self.ring.contains_key(&point) {
                point = point.wrapping_add(1);
            }
            self.ring.insert(point, node);
        }
    }

    /// Walk the ring clockwise from `hash` to the first virtual node.
    fn owner(&self, hash: u64) -> NodeId {
        match self.ring.range(hash..).next() {
            Some((_, &node)) => node,
            None => *self.ring.values().next().expect("ring is never empty"),
        }
    }
}

impl Partitioner for ConsistentHash {
    fn kind(&self) -> PartitionerKind {
        PartitionerKind::ConsistentHash
    }

    fn table_snapshot(&self) -> Vec<u8> {
        // The ring verbatim: scale-out inserts points incrementally, so
        // the ring is history-dependent, not derivable from config alone.
        let mut w = durability::ByteWriter::new();
        w.put_list(&self.ring, |w, (&point, &node)| {
            w.put_u64(point);
            w.put_u32(node.0);
        });
        w.into_bytes()
    }

    fn table_restore(&mut self, bytes: &[u8], roster: &[NodeId]) -> Result<(), CodecError> {
        let mut r = durability::ByteReader::new(bytes);
        let mut ring = BTreeMap::new();
        for _ in 0..r.count("ring point count", 8 + 4)? {
            let point = r.u64("ring point")?;
            durability::ascending("ring point", ring.keys().next_back(), &point)?;
            ring.insert(point, super::read_node(&mut r, roster, "ring owner")?);
        }
        if ring.is_empty() {
            return Err(CodecError::invalid("ring point count", "an empty ring routes nowhere"));
        }
        r.finish("ring snapshot tail")?;
        self.ring = ring;
        Ok(())
    }

    fn route(&self, desc: &ChunkDescriptor, _ordinal: usize, _epoch: &RouteEpoch<'_>) -> NodeId {
        self.owner(hash_chunk_key(&desc.key))
    }

    fn locate(&self, key: &ChunkKey) -> Option<NodeId> {
        Some(self.owner(hash_chunk_key(key)))
    }

    fn scale_out(&mut self, cluster: &Cluster, new_nodes: &[NodeId]) -> RebalancePlan {
        for &n in new_nodes {
            self.insert_node(n);
        }
        super::reshuffle(cluster, |key| self.owner(hash_chunk_key(key)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use array_model::{ArrayId, ChunkCoords};
    use cluster_sim::{relative_std_dev, CostModel};

    fn desc(i: i64, bytes: u64) -> ChunkDescriptor {
        ChunkDescriptor::new(ChunkKey::new(ArrayId(0), ChunkCoords::new([i])), bytes, 1)
    }

    fn run(p: &mut ConsistentHash, cluster: &mut Cluster, start: i64, count: i64, bytes: u64) {
        for i in start..start + count {
            let d = desc(i, bytes);
            let n = p.place(&d, cluster);
            cluster.place(d, n).unwrap();
        }
    }

    #[test]
    fn spreads_uniform_chunks_evenly() {
        let mut cluster = Cluster::new(4, u64::MAX, CostModel::default()).unwrap();
        let mut p = ConsistentHash::new(&cluster.node_ids(), 64);
        run(&mut p, &mut cluster, 0, 2000, 10);
        let counts = cluster.chunk_counts();
        let loads: Vec<u64> = counts.iter().map(|&c| c as u64).collect();
        assert!(relative_std_dev(&loads) < 0.25, "ring too uneven: {counts:?}");
    }

    #[test]
    fn scale_out_is_incremental() {
        let mut cluster = Cluster::new(2, u64::MAX, CostModel::default()).unwrap();
        let mut p = ConsistentHash::new(&cluster.node_ids(), 64);
        run(&mut p, &mut cluster, 0, 500, 10);
        let new = cluster.add_nodes(2, u64::MAX);
        let plan = p.scale_out(&cluster, &new);
        assert!(!plan.is_empty(), "new nodes must claim some arcs");
        assert!(plan.is_incremental(&new), "consistent hashing only moves to new nodes");
        cluster.apply_rebalance(&plan).unwrap();
        for (key, node) in cluster.placements() {
            assert_eq!(p.locate(&key), Some(node));
        }
        // Roughly half the data should have moved to the two new nodes.
        let moved: f64 = plan.moved_bytes() as f64 / 5000.0;
        assert!(moved > 0.25 && moved < 0.75, "moved fraction {moved}");
    }

    #[test]
    fn placement_is_deterministic() {
        let cluster = Cluster::new(3, u64::MAX, CostModel::default()).unwrap();
        let mut a = ConsistentHash::new(&cluster.node_ids(), 32);
        let mut b = ConsistentHash::new(&cluster.node_ids(), 32);
        for i in 0..100 {
            let d = desc(i, 1);
            assert_eq!(a.place(&d, &cluster), b.place(&d, &cluster));
        }
    }

    #[test]
    fn more_virtual_nodes_smooth_the_ring() {
        let cluster = Cluster::new(4, u64::MAX, CostModel::default()).unwrap();
        let imbalance = |vnodes: u32| {
            let mut p = ConsistentHash::new(&cluster.node_ids(), vnodes);
            let mut counts = vec![0u64; 4];
            for i in 0..4000 {
                let d = desc(i, 1);
                counts[p.place(&d, &cluster).0 as usize] += 1;
            }
            relative_std_dev(&counts)
        };
        assert!(imbalance(128) < imbalance(1));
    }
}
