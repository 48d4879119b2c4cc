//! Checkpoint codec for the whole cluster: roster, stores, placement,
//! replica index.
//!
//! The snapshot serializes four things and *derives* everything else on
//! restore:
//!
//! - the replication factor and the placement index's dense-grid
//!   registrations (geometry is re-derived by re-running
//!   `register_dense`);
//! - every node verbatim — lifecycle state, chunk/replica descriptors,
//!   and *which* copies carry payloads, but not the payload cells
//!   themselves: the `k` copies of a chunk share one `Arc<Chunk>`, so the
//!   caller writes each chunk's cells once, beside this snapshot, and
//!   restore re-wires the shared handles through a `payload_of` lookup
//!   (every copy of a chunk aliases one handle again);
//! - the placement index entries, separately from the node stores.
//!   They are not redundant: after a crash, an orphaned chunk keeps a
//!   placement entry naming the wreck while every node store copy is
//!   gone, so placement ⊋ union-of-node-chunks;
//! - the replica-holder index verbatim, holder order preserved (it is
//!   route order, consumed by failover promotion).
//!
//! `BalanceStats`, the retired-slot counter and the replica census tally
//! are recomputed from the restored books, and the serialized per-node
//! byte ledgers plus [`Cluster::verify_replica_books`] act as corruption
//! tripwires: any drift between stored and recomputed books surfaces as
//! a typed [`DurabilityError::Mismatch`], never a silently wrong cluster.

use crate::cluster::{BalanceStats, Cluster};
use crate::cost::CostModel;
use crate::node::{Node, NodeId, NodeState};
use crate::placement::PlacementIndex;
use array_model::{ArrayId, Chunk, ChunkKey};
use durability::{ByteReader, ByteWriter, CodecError, DurabilityError};
use std::collections::BTreeMap;
use std::sync::Arc;

fn codec(context: &'static str, source: CodecError) -> DurabilityError {
    DurabilityError::Codec { context: context.to_string(), source }
}

impl Cluster {
    /// Serialize the cluster for a checkpoint. Payload cells are *not*
    /// written — see the module doc; pair with [`Cluster::restore_from`].
    pub fn snapshot_into(&self, w: &mut ByteWriter) {
        w.put_usize(self.replication);
        let dense = self.placement.dense_registrations();
        w.put_usize(dense.len());
        for (array, extents) in &dense {
            array.encode_into(w);
            w.put_usize(extents.len());
            for &e in extents {
                w.put_i64(e);
            }
        }
        w.put_usize(self.nodes.len());
        for node in &self.nodes {
            node.snapshot_into(w);
        }
        let entries = self.placement.collect_sorted();
        w.put_usize(entries.len());
        for (key, node) in &entries {
            key.encode_into(w);
            w.put_u32(node.0);
        }
        w.put_usize(self.replicas.len());
        for (key, holders) in &self.replicas {
            key.encode_into(w);
            w.put_usize(holders.len());
            for h in holders {
                w.put_u32(h.0);
            }
        }
    }

    /// Rebuild a cluster from [`Cluster::snapshot_into`]. `payload_of`
    /// resolves a chunk's cells from wherever the caller kept them (a
    /// checkpoint's cells section), and every copy that carried a payload
    /// takes the handle it returns. The cost model is config-derived and
    /// supplied by the caller, not serialized.
    ///
    /// Does not demand the reader be empty afterwards: the cluster
    /// section is embedded inside a larger checkpoint record.
    pub fn restore_from(
        r: &mut ByteReader<'_>,
        cost: CostModel,
        payload_of: &dyn Fn(&ChunkKey) -> Option<Arc<Chunk>>,
    ) -> Result<Cluster, DurabilityError> {
        let replication =
            r.usize("replication factor").map_err(|e| codec("replication factor", e))?;
        let mut placement = PlacementIndex::new();
        let n = r.usize("dense grid count").map_err(|e| codec("dense grid count", e))?;
        for _ in 0..n {
            let array = ArrayId::decode_from(r).map_err(|e| codec("dense grid array", e))?;
            let ndims = r.usize("dense grid ndims").map_err(|e| codec("dense grid ndims", e))?;
            if ndims == 0 || ndims > array_model::MAX_DIMS {
                return Err(codec(
                    "dense grid ndims",
                    CodecError::Invalid {
                        context: "dense grid ndims",
                        detail: format!("{ndims} outside 1..={}", array_model::MAX_DIMS),
                    },
                ));
            }
            let mut extents = Vec::with_capacity(ndims);
            for _ in 0..ndims {
                extents
                    .push(r.i64("dense grid extent").map_err(|e| codec("dense grid extent", e))?);
            }
            if extents.iter().any(|&e| e < 1) {
                return Err(codec(
                    "dense grid extent",
                    CodecError::Invalid {
                        context: "dense grid extent",
                        detail: format!("non-positive extent in {extents:?}"),
                    },
                ));
            }
            if !placement.register_dense(array, &extents) {
                return Err(DurabilityError::Mismatch {
                    what: format!("dense registration of array {}", array.0),
                    expected: "accepted (it was registered in the snapshotted cluster)".to_string(),
                    actual: "rejected".to_string(),
                });
            }
        }
        let n = r.usize("node count").map_err(|e| codec("node count", e))?;
        let mut nodes = Vec::with_capacity(n.min(1 << 16));
        let mut balance = BalanceStats::default();
        let mut retired = 0usize;
        for i in 0..n {
            let node = Node::restore_from(r, payload_of)?;
            if node.id != NodeId(i as u32) {
                return Err(DurabilityError::Mismatch {
                    what: "node roster order".to_string(),
                    expected: format!("node {i} in slot {i} (ids are join-order indices)"),
                    actual: format!("{}", node.id),
                });
            }
            balance.on_change(0, node.used_bytes());
            if node.state() == NodeState::Retired {
                retired += 1;
            }
            nodes.push(node);
        }
        let entries = r.usize("placement count").map_err(|e| codec("placement count", e))?;
        for _ in 0..entries {
            let key = ChunkKey::decode_from(r).map_err(|e| codec("placement key", e))?;
            let node = NodeId(r.u32("placement node").map_err(|e| codec("placement node", e))?);
            if node.0 as usize >= nodes.len() {
                return Err(DurabilityError::Mismatch {
                    what: format!("placement of {key}"),
                    expected: format!("a node id below {}", nodes.len()),
                    actual: format!("{node}"),
                });
            }
            if placement.insert(key, node).is_some() {
                return Err(DurabilityError::Mismatch {
                    what: format!("placement of {key}"),
                    expected: "a single entry per key".to_string(),
                    actual: "duplicate entry in snapshot".to_string(),
                });
            }
        }
        let n = r.usize("replica index count").map_err(|e| codec("replica index count", e))?;
        let mut replicas = BTreeMap::new();
        for _ in 0..n {
            let key = ChunkKey::decode_from(r).map_err(|e| codec("replica key", e))?;
            let holders =
                r.usize("replica holder count").map_err(|e| codec("replica holder count", e))?;
            let mut v = Vec::with_capacity(holders.min(1 << 8));
            for _ in 0..holders {
                let h = NodeId(r.u32("replica holder").map_err(|e| codec("replica holder", e))?);
                if h.0 as usize >= nodes.len() {
                    return Err(DurabilityError::Mismatch {
                        what: format!("replica holder of {key}"),
                        expected: format!("a node id below {}", nodes.len()),
                        actual: format!("{h}"),
                    });
                }
                v.push(h);
            }
            if replicas.insert(key, v).is_some() {
                return Err(DurabilityError::Mismatch {
                    what: format!("replica holders of {key}"),
                    expected: "a single entry per key".to_string(),
                    actual: "duplicate entry in snapshot".to_string(),
                });
            }
        }
        let copies = Default::default();
        let mut cluster =
            Cluster { nodes, placement, cost, balance, replication, replicas, retired, copies };
        // The replica census is derived state: recount it from the books
        // just read instead of trusting (or storing) a second copy.
        cluster.copies = cluster.walked_copies();
        cluster.verify_replica_books().map_err(|e| DurabilityError::Mismatch {
            what: "replica books".to_string(),
            expected: "replica index in lockstep with node replica stores".to_string(),
            actual: e.to_string(),
        })?;
        Ok(cluster)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Role;
    use array_model::{ArraySchema, ChunkCoords};

    fn chunk_for(key: &ChunkKey) -> Arc<Chunk> {
        let schema = ArraySchema::parse("A<v:double>[x=0:*,4, y=0:*,4]").unwrap();
        let mut c = Chunk::new(&schema, key.coords);
        let cell = vec![key.coords.as_slice()[0] * 4, key.coords.as_slice()[1] * 4];
        c.push_cell(&schema, cell, vec![array_model::ScalarValue::Double(1.5)]).unwrap();
        Arc::new(c)
    }

    /// A cluster with history: replication, payloads, a crash (orphans +
    /// promoted replicas), and a retirement. The round-trip must survive
    /// every lifecycle state at once.
    fn build_eventful_cluster() -> (Cluster, BTreeMap<ChunkKey, Arc<Chunk>>) {
        let mut cluster = Cluster::with_replication(4, u64::MAX, CostModel::default(), 2).unwrap();
        cluster.register_array(ArrayId(0), &[8, 8]);
        let mut cells = BTreeMap::new();
        for x in 0..8 {
            for y in 0..8 {
                let key = ChunkKey::new(ArrayId(0), ChunkCoords::new([x, y]));
                let payload = chunk_for(&key);
                let d = payload.descriptor(ArrayId(0));
                let node = NodeId(((x * 8 + y) % 4) as u32);
                cluster.place(d, node).unwrap();
                cluster.attach_payload(key, Arc::clone(&payload)).unwrap();
                cells.insert(key, payload);
            }
        }
        cluster.crash_node(NodeId(3)).unwrap();
        cluster.add_nodes(1, u64::MAX);
        let plan = cluster.plan_drain(NodeId(2)).unwrap();
        cluster.apply_rebalance(&plan).unwrap();
        cluster.retire_node(NodeId(2)).unwrap();
        (cluster, cells)
    }

    #[test]
    fn eventful_cluster_round_trips_bit_identically() {
        let (cluster, cells) = build_eventful_cluster();
        let mut w = ByteWriter::new();
        cluster.snapshot_into(&mut w);
        let bytes = w.into_bytes();

        let lookup = |key: &ChunkKey| cells.get(key).cloned();
        let mut r = ByteReader::new(&bytes);
        let restored =
            Cluster::restore_from(&mut r, CostModel::default(), &lookup).expect("restore");
        assert!(r.is_empty(), "cluster snapshot fully consumed");

        // Bit-identical re-snapshot is the strongest equality we can ask
        // for without deriving PartialEq on the world.
        let mut w2 = ByteWriter::new();
        restored.snapshot_into(&mut w2);
        assert_eq!(bytes, w2.into_bytes(), "snapshot not idempotent");

        // Spot-check the derived state too.
        assert_eq!(cluster.loads(), restored.loads());
        assert_eq!(cluster.chunk_counts(), restored.chunk_counts());
        assert_eq!(cluster.total_used(), restored.total_used());
        assert_eq!(
            cluster.balance_rsd().to_bits(),
            restored.balance_rsd().to_bits(),
            "balance census must be bit-identical"
        );
        assert_eq!(cluster.replica_census(), restored.replica_census());
        assert_eq!(
            cluster.placements().collect::<Vec<_>>(),
            restored.placements().collect::<Vec<_>>()
        );
        // Every restored copy aliases the one handle the lookup gave
        // out (zero-copy restore), primaries and replicas alike.
        let mut aliased = 0;
        for node in restored.nodes() {
            for role in [Role::Primary, Role::Replica] {
                for payload in node.residents(role).filter_map(|copy| copy.payload()) {
                    let handed = &cells[&payload.descriptor(ArrayId(0)).key];
                    assert!(Arc::ptr_eq(payload, handed), "a copy on {} was rebuilt", node.id);
                    aliased += 1;
                }
            }
        }
        assert!(aliased > cells.len() / 2, "most chunks survive the crash with a copy");
    }

    /// The snapshot bytes are a format other code reads back (every
    /// checkpoint embeds them): the k = 2 cluster with payloads above
    /// must encode to what it encoded to before the node kept one record
    /// per copy — CRC and length computed at the parent commit.
    #[test]
    fn snapshot_bytes_equal_the_four_map_encoding() {
        let (cluster, _) = build_eventful_cluster();
        let mut w = ByteWriter::new();
        cluster.snapshot_into(&mut w);
        let bytes = w.into_bytes();
        assert_eq!((bytes.len(), durability::crc32(&bytes)), (9689, 0xeed9_7b8c));
    }

    /// Every offset at which `needle` occurs in `bytes`.
    fn occurrences(bytes: &[u8], needle: &[u8]) -> Vec<usize> {
        (0..=bytes.len() - needle.len()).filter(|&at| bytes[at..].starts_with(needle)).collect()
    }

    /// Bytes a CRC merely failed to reject: a real snapshot — two nodes,
    /// k = 2, chunks A and C on node 0 and B on node 1, every copy with
    /// its payload — mutated one field at a time. Each mutation keeps the
    /// byte ledgers balanced, so only the check it aims at can refuse it.
    #[test]
    fn mutated_snapshots_are_refused_typed() {
        let mut cluster = Cluster::with_replication(2, u64::MAX, CostModel::default(), 2).unwrap();
        let mut cells = BTreeMap::new();
        let key = |x: i64| ChunkKey::new(ArrayId(0), ChunkCoords::new([x, 0]));
        let (a, b, c) = (key(0), key(1), key(2));
        for (key, node) in [(a, 0), (b, 1), (c, 0)] {
            let payload = chunk_for(&key);
            cluster.place(payload.descriptor(ArrayId(0)), NodeId(node)).unwrap();
            cluster.attach_payload(key, Arc::clone(&payload)).unwrap();
            cells.insert(key, payload);
        }
        let mut w = ByteWriter::new();
        cluster.snapshot_into(&mut w);
        let bytes = w.into_bytes();
        let pattern = |key: &ChunkKey| {
            let mut w = ByteWriter::new();
            key.encode_into(&mut w);
            w.into_bytes()
        };
        // A key is written six times, in this order: node 0's descriptor
        // and payload-key lists, node 1's, the placement, the replica
        // index (A and C are primaries on node 0, replicas on node 1).
        const PRIMARY_DESC: usize = 0;
        const PRIMARY_PAYLOAD_KEY: usize = 1;
        const REPLICA_PAYLOAD_KEY: usize = 3;
        const REPLICA_INDEX: usize = 5;
        let at = |key: &ChunkKey, nth: usize| {
            let found = occurrences(&bytes, &pattern(key));
            assert_eq!(found.len(), 6, "{key} is written six times");
            found[nth]
        };
        let restore = |bytes: &[u8]| {
            let lookup = |key: &ChunkKey| cells.get(key).cloned();
            Cluster::restore_from(&mut ByteReader::new(bytes), CostModel::default(), &lookup)
        };
        restore(&bytes).expect("the snapshot itself restores");
        let refusal = |mutated: &[u8]| match restore(mutated) {
            Err(DurabilityError::Mismatch { what, expected, actual }) => {
                format!("{what}: expected {expected}, got {actual}")
            }
            other => panic!("expected a typed mismatch, got {:?}", other.map(|_| "a cluster")),
        };
        let overwrite = |at: usize, with: &[u8]| {
            let mut mutated = bytes.clone();
            mutated[at..at + with.len()].copy_from_slice(with);
            mutated
        };

        // A payload key naming a chunk the node holds no descriptor for:
        // the cells would be stranded — in either store.
        let stranger = pattern(&key(7));
        for (nth, role) in [(PRIMARY_PAYLOAD_KEY, "Primary"), (REPLICA_PAYLOAD_KEY, "Replica")] {
            let why = refusal(&overwrite(at(&a, nth), &stranger));
            assert!(why.contains(role) && why.contains("a descriptor resident beside it"), "{why}");
        }
        // A descriptor whose cell count its cells do not have. (Bytes are
        // ledgered, so a byte drift trips the ledger check too; cells are
        // not — only the attach-time check sees this one.)
        let cells_field = at(&a, PRIMARY_DESC) + pattern(&a).len() + 8;
        let why = refusal(&overwrite(cells_field, &2u64.to_le_bytes()));
        assert!(why.contains("payload for") && why.contains("2 cells"), "{why}");
        // One payload key listed twice (C's entry rewritten to A's): A
        // would be attached twice and C silently left without cells.
        let why = refusal(&overwrite(at(&c, PRIMARY_PAYLOAD_KEY), &pattern(&a)));
        assert!(why.contains("listed twice"), "{why}");
        // One key twice in the replica index: the later entry used to
        // replace the earlier without a word.
        let why = refusal(&overwrite(at(&c, REPLICA_INDEX), &pattern(&a)));
        assert!(why.contains("replica holders") && why.contains("duplicate entry"), "{why}");
    }

    #[test]
    fn truncated_and_tampered_snapshots_fail_typed() {
        let (cluster, cells) = build_eventful_cluster();
        let mut w = ByteWriter::new();
        cluster.snapshot_into(&mut w);
        let bytes = w.into_bytes();
        let lookup = |key: &ChunkKey| cells.get(key).cloned();

        // Every strict prefix is rejected (or, if it happens to parse,
        // the books cross-check trips) — never a panic.
        for cut in (0..bytes.len()).step_by(7) {
            let mut r = ByteReader::new(&bytes[..cut]);
            assert!(
                Cluster::restore_from(&mut r, CostModel::default(), &lookup).is_err(),
                "truncation at {cut} accepted"
            );
        }

        // A missing payload is a typed mismatch, not a silent hole.
        let no_payloads = |_: &ChunkKey| None;
        let mut r = ByteReader::new(&bytes);
        let err = Cluster::restore_from(&mut r, CostModel::default(), &no_payloads).unwrap_err();
        assert!(matches!(err, DurabilityError::Mismatch { .. }), "got {err}");
    }
}
