//! Rebalance plans: the chunk moves a partitioner emits at scale-out.

use crate::node::NodeId;
use crate::transfer::FlowSet;
use array_model::ChunkKey;
use std::collections::BTreeSet;

/// One chunk relocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkMove {
    /// The chunk to relocate.
    pub key: ChunkKey,
    /// Node currently holding it.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Payload size, for cost accounting.
    pub bytes: u64,
}

/// An ordered batch of chunk moves produced by one scale-out decision.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RebalancePlan {
    /// The moves, in emission order.
    pub moves: Vec<ChunkMove>,
}

impl RebalancePlan {
    /// An empty plan (what Append produces — §4.2: "it requires no data
    /// movement").
    pub fn empty() -> Self {
        RebalancePlan::default()
    }

    /// Add a move, dropping degenerate self-moves.
    pub fn push(&mut self, key: ChunkKey, from: NodeId, to: NodeId, bytes: u64) {
        if from != to {
            self.moves.push(ChunkMove { key, from, to, bytes });
        }
    }

    /// Number of chunk moves.
    pub fn len(&self) -> usize {
        self.moves.len()
    }

    /// True when no data moves.
    pub fn is_empty(&self) -> bool {
        self.moves.is_empty()
    }

    /// Total bytes relocated.
    pub fn moved_bytes(&self) -> u64 {
        self.moves.iter().map(|m| m.bytes).sum()
    }

    /// The Table-1 *incremental scale-out* property: data is only
    /// transferred from preexisting nodes to `new_nodes`, never between
    /// preexisting nodes.
    pub fn is_incremental(&self, new_nodes: &[NodeId]) -> bool {
        let new: BTreeSet<NodeId> = new_nodes.iter().copied().collect();
        self.moves.iter().all(|m| new.contains(&m.to) && !new.contains(&m.from))
    }

    /// Distinct destination nodes.
    pub fn destinations(&self) -> BTreeSet<NodeId> {
        self.moves.iter().map(|m| m.to).collect()
    }

    /// Convert to a concurrent flow set for timing.
    pub fn flow_set(&self) -> FlowSet {
        let mut fs = FlowSet::new();
        for m in &self.moves {
            fs.push(m.from, m.to, m.bytes);
        }
        fs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use array_model::{ArrayId, ChunkCoords};

    fn key(i: i64) -> ChunkKey {
        ChunkKey::new(ArrayId(0), ChunkCoords::new([i]))
    }

    #[test]
    fn self_moves_are_dropped() {
        let mut plan = RebalancePlan::empty();
        plan.push(key(1), NodeId(0), NodeId(0), 100);
        assert!(plan.is_empty());
        plan.push(key(1), NodeId(0), NodeId(1), 100);
        assert_eq!(plan.len(), 1);
        assert_eq!(plan.moved_bytes(), 100);
    }

    #[test]
    fn incremental_property_detects_old_to_old_traffic() {
        let new = vec![NodeId(2), NodeId(3)];
        let mut incremental = RebalancePlan::empty();
        incremental.push(key(1), NodeId(0), NodeId(2), 10);
        incremental.push(key(2), NodeId(1), NodeId(3), 10);
        assert!(incremental.is_incremental(&new));

        let mut global = RebalancePlan::empty();
        global.push(key(3), NodeId(0), NodeId(1), 10); // old -> old
        assert!(!global.is_incremental(&new));

        let mut out_of_new = RebalancePlan::empty();
        out_of_new.push(key(4), NodeId(2), NodeId(0), 10); // new -> old
        assert!(!out_of_new.is_incremental(&new));
    }

    #[test]
    fn flow_set_mirrors_moves() {
        let mut plan = RebalancePlan::empty();
        plan.push(key(1), NodeId(0), NodeId(2), 7);
        plan.push(key(2), NodeId(1), NodeId(2), 9);
        let fs = plan.flow_set();
        assert_eq!(fs.total_bytes(), 16);
        assert_eq!(fs.network_bytes(), 16);
        assert_eq!(fs.chunk_count(), 2);
        assert_eq!(plan.destinations().len(), 1);
    }
}
