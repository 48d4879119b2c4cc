//! Extendible Hash (paper §4.2, citing Fagin et al. [19]).
//!
//! Chunks hash to 64 bits; a node owns one or more *buckets*, each a
//! `(pattern, depth)` pair matching every hash whose low `depth` bits
//! equal `pattern`. The buckets always form a complete prefix cover of
//! the hash space. At scale-out the partitioner finds the most heavily
//! loaded node (skew-awareness), picks its heaviest bucket, and splits it
//! on the next more significant bit — the half with the new bit set moves
//! to the new node.

use super::{Partitioner, PartitionerKind, RouteEpoch};
use crate::hashing::hash_chunk_key;
use array_model::{ChunkDescriptor, ChunkKey};
use cluster_sim::{Cluster, NodeId, RebalancePlan};
use durability::CodecError;
use std::collections::BTreeMap;

/// A bucket: owns hashes `h` with `h & mask(depth) == pattern`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Bucket {
    depth: u32,
    pattern: u64,
}

impl Bucket {
    fn mask(depth: u32) -> u64 {
        if depth >= 64 {
            u64::MAX
        } else {
            (1u64 << depth) - 1
        }
    }

    fn matches(&self, hash: u64) -> bool {
        hash & Self::mask(self.depth) == self.pattern
    }
}

/// Extendible-hash partitioner state.
#[derive(Debug, Clone)]
pub struct ExtendibleHash {
    /// Complete prefix cover of the hash space.
    buckets: BTreeMap<Bucket, NodeId>,
}

impl ExtendibleHash {
    /// Build with one bucket per initial node (padding the cover by
    /// splitting round-robin when the node count is not a power of two).
    pub fn new(nodes: &[NodeId]) -> Self {
        assert!(!nodes.is_empty(), "need at least one node");
        // Start with the root bucket and split until we have one bucket
        // per node, always splitting the shallowest bucket — this yields
        // the most uniform initial cover.
        let mut buckets: Vec<Bucket> = vec![Bucket { depth: 0, pattern: 0 }];
        while buckets.len() < nodes.len() {
            buckets.sort_unstable();
            let victim = buckets.iter().copied().min_by_key(|b| b.depth).expect("non-empty");
            buckets.retain(|b| *b != victim);
            let (a, b) = split_bucket(victim);
            buckets.push(a);
            buckets.push(b);
        }
        buckets.sort_unstable();
        let map = buckets.into_iter().zip(nodes.iter().copied()).collect::<BTreeMap<_, _>>();
        ExtendibleHash { buckets: map }
    }

    fn owner(&self, hash: u64) -> NodeId {
        // The cover is complete and prefix-free: exactly one bucket matches.
        for (bucket, &node) in &self.buckets {
            if bucket.matches(hash) {
                return node;
            }
        }
        unreachable!("bucket cover must be complete")
    }

    /// Buckets held by `node`.
    fn buckets_of(&self, node: NodeId) -> Vec<Bucket> {
        self.buckets.iter().filter(|(_, &n)| n == node).map(|(b, _)| *b).collect()
    }

    /// Number of buckets (for tests/ablation).
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }
}

fn split_bucket(b: Bucket) -> (Bucket, Bucket) {
    assert!(b.depth < 63, "bucket depth exhausted");
    let low = Bucket { depth: b.depth + 1, pattern: b.pattern };
    let high = Bucket { depth: b.depth + 1, pattern: b.pattern | (1u64 << b.depth) };
    (low, high)
}

impl Partitioner for ExtendibleHash {
    fn kind(&self) -> PartitionerKind {
        PartitionerKind::ExtendibleHash
    }

    fn table_snapshot(&self) -> Vec<u8> {
        // The bucket cover mutates on every split, so it is written
        // verbatim as (depth, pattern, owner) triples.
        let mut w = durability::ByteWriter::new();
        w.put_list(&self.buckets, |w, (bucket, &node)| {
            w.put_u32(bucket.depth);
            w.put_u64(bucket.pattern);
            w.put_u32(node.0);
        });
        w.into_bytes()
    }

    fn table_restore(&mut self, bytes: &[u8], roster: &[NodeId]) -> Result<(), CodecError> {
        let mut r = durability::ByteReader::new(bytes);
        let mut buckets = BTreeMap::new();
        for _ in 0..r.count("bucket count", 4 + 8 + 4)? {
            let bucket =
                Bucket { depth: r.u32("bucket depth")?, pattern: r.u64("bucket pattern")? };
            durability::ascending("bucket", buckets.keys().next_back(), &bucket)?;
            if bucket.depth > 63 || bucket.pattern & !Bucket::mask(bucket.depth) != 0 {
                let detail = format!("{bucket:?} is no bucket");
                return Err(CodecError::invalid("bucket pattern", detail));
            }
            buckets.insert(bucket, super::read_node(&mut r, roster, "bucket owner")?);
        }
        // Exactly one bucket owns each hash: read bit-reversed, a bucket's
        // hashes are one span of the hash space, and the spans tile it.
        let span = |b: &Bucket| (u128::from(b.pattern.reverse_bits()), 1u128 << (64 - b.depth));
        if !super::tiles(buckets.keys().map(span).collect(), 1 << 64) {
            let detail = "buckets overlap or leave hashes unowned";
            return Err(CodecError::invalid("bucket cover", detail));
        }
        r.finish("bucket snapshot tail")?;
        self.buckets = buckets;
        Ok(())
    }

    fn route(&self, desc: &ChunkDescriptor, _ordinal: usize, _epoch: &RouteEpoch<'_>) -> NodeId {
        self.owner(hash_chunk_key(&desc.key))
    }

    fn locate(&self, key: &ChunkKey) -> Option<NodeId> {
        Some(self.owner(hash_chunk_key(key)))
    }

    fn scale_out(&mut self, cluster: &Cluster, new_nodes: &[NodeId]) -> RebalancePlan {
        super::split_heaviest(cluster, new_nodes, |victim, fresh, residents| {
            // Weigh the victim's buckets by resident bytes.
            let owned = self.buckets_of(victim);
            let mut weight: BTreeMap<Bucket, u64> = owned.iter().map(|&b| (b, 0)).collect();
            let mut homed = Vec::new();
            for d in residents {
                let h = hash_chunk_key(&d.key);
                if let Some(&b) = owned.iter().find(|b| b.matches(h)) {
                    *weight.entry(b).or_default() += d.bytes;
                    homed.push((d, b, h));
                }
            }
            // Split the heaviest bucket on its next significant bit. A
            // victim that owns none cannot be split.
            let Some((&heavy, _)) = weight.iter().max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
            else {
                return Vec::new();
            };
            let (low, high) = split_bucket(heavy);
            self.buckets.remove(&heavy);
            self.buckets.insert(low, victim);
            self.buckets.insert(high, fresh);
            // Chunks matching the high half migrate to the new node.
            let moving = homed.into_iter().filter(|&(_, b, h)| b == heavy && high.matches(h));
            moving.map(|(d, ..)| d).collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use array_model::{ArrayId, ChunkCoords};
    use cluster_sim::CostModel;

    fn desc(i: i64, bytes: u64) -> ChunkDescriptor {
        ChunkDescriptor::new(ChunkKey::new(ArrayId(0), ChunkCoords::new([i])), bytes, 1)
    }

    fn run(p: &mut ExtendibleHash, cluster: &mut Cluster, start: i64, count: i64, bytes: u64) {
        for i in start..start + count {
            let d = desc(i, bytes);
            let n = p.place(&d, cluster);
            cluster.place(d, n).unwrap();
        }
    }

    #[test]
    fn initial_cover_is_complete() {
        for n in 1..=8usize {
            let nodes: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
            let p = ExtendibleHash::new(&nodes);
            assert_eq!(p.bucket_count(), n);
            // Every hash must resolve.
            for h in [0u64, 1, u64::MAX, 0xdead_beef] {
                let _ = p.owner(h);
            }
        }
    }

    #[test]
    fn scale_out_splits_most_loaded_and_stays_incremental() {
        let mut cluster = Cluster::new(2, u64::MAX, CostModel::default()).unwrap();
        let mut p = ExtendibleHash::new(&cluster.node_ids());
        run(&mut p, &mut cluster, 0, 400, 10);
        let before = cluster.loads();
        let heavy = if before[0] >= before[1] { NodeId(0) } else { NodeId(1) };
        let new = cluster.add_nodes(1, u64::MAX);
        let plan = p.scale_out(&cluster, &new);
        assert!(plan.is_incremental(&new));
        assert!(plan.moves.iter().all(|m| m.from == heavy), "splits the most loaded node");
        cluster.apply_rebalance(&plan).unwrap();
        for (key, node) in cluster.placements() {
            assert_eq!(p.locate(&key), Some(node));
        }
        // Victim shed roughly half its bytes.
        let after = cluster.loads();
        let shed = before[heavy.0 as usize] - after[heavy.0 as usize];
        let frac = shed as f64 / before[heavy.0 as usize] as f64;
        assert!(frac > 0.2 && frac < 0.8, "split fraction {frac}");
    }

    #[test]
    fn repeated_scale_outs_keep_lookup_consistent() {
        let mut cluster = Cluster::new(2, u64::MAX, CostModel::default()).unwrap();
        let mut p = ExtendibleHash::new(&cluster.node_ids());
        let mut next = 0i64;
        for round in 0..3 {
            run(&mut p, &mut cluster, next, 200, 10);
            next += 200;
            let new = cluster.add_nodes(2, u64::MAX);
            let plan = p.scale_out(&cluster, &new);
            assert!(plan.is_incremental(&new), "round {round}");
            cluster.apply_rebalance(&plan).unwrap();
            for (key, node) in cluster.placements() {
                assert_eq!(p.locate(&key), Some(node));
            }
        }
        assert_eq!(cluster.node_count(), 8);
        assert!(cluster.chunk_counts().iter().all(|&c| c > 0), "every node got data");
    }

    #[test]
    fn skewed_bytes_drive_victim_choice() {
        // Put massive chunks wherever node 0's bucket matches; the first
        // split must target node 0's space even though chunk counts are even.
        let mut cluster = Cluster::new(2, u64::MAX, CostModel::default()).unwrap();
        let mut p = ExtendibleHash::new(&cluster.node_ids());
        for i in 0..100 {
            let d0 = desc(i, 1);
            let owner = p.place(&d0, &cluster);
            let bytes = if owner == NodeId(0) { 1000 } else { 1 };
            let d = ChunkDescriptor::new(d0.key, bytes, 1);
            cluster.place(d, owner).unwrap();
        }
        let new = cluster.add_nodes(1, u64::MAX);
        let plan = p.scale_out(&cluster, &new);
        assert!(plan.moves.iter().all(|m| m.from == NodeId(0)));
        assert!(plan.moved_bytes() > 0);
    }
}
