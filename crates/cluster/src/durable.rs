//! Checkpoint codec for the whole cluster: roster, records, placement,
//! replica index.
//!
//! The snapshot serializes four things and *derives* everything else on
//! restore:
//!
//! - the replication factor and the placement index's dense-grid
//!   registrations (geometry is re-derived by re-running
//!   `register_dense`);
//! - every node — lifecycle state, byte ledgers, the descriptors of the
//!   primaries the placement index puts on it and *which* of them carry
//!   payloads, but not the payload cells themselves: the caller writes
//!   each chunk's cells once, beside this snapshot, and restore re-wires
//!   the handles through a `payload_of` lookup;
//! - the placement index entries, separately from the records: a lost
//!   chunk's entry names its wreck and has no record. Restore files
//!   every entry as lost, then puts each record in its entry's slot —
//!   only where the entry names the node that listed it;
//! - the replica index verbatim, holder order preserved (it is route
//!   order, consumed by crash promotion).
//!
//! Each node's section also lists the replicas it holds — descriptor and
//! payload flag per chunk, as the format has always carried them. They
//! are *derived*: written from the replica index and the chunks' primary
//! records, and on restore checked against the same, both ways — no
//! entry missing, none extra, none whose descriptor or payload flag
//! differs from its primary's.
//!
//! `BalanceStats`, the retired-slot counter and the replica census tally
//! are recomputed from the restored books, and the serialized per-node
//! byte ledgers, the replica sections and [`Cluster::verify_replica_books`]
//! act as corruption tripwires: any drift between stored and recomputed
//! books surfaces as a typed [`DurabilityError::Mismatch`], never a
//! silently wrong cluster.

use crate::cluster::{BalanceStats, Cluster};
use crate::cost::CostModel;
use crate::node::{HeldSection, Node, NodeId, NodeState, Resident};
use crate::placement::{PlacementIndex, Slot};
use array_model::{ArrayId, Chunk, ChunkDescriptor, ChunkKey};
use durability::{ascending, ByteReader, ByteWriter, CodecError, DurabilityError};
use std::collections::BTreeMap;
use std::sync::Arc;

impl Cluster {
    /// Serialize the cluster for a checkpoint. Payload cells are *not*
    /// written — see the module doc; pair with [`Cluster::restore_from`].
    pub fn snapshot_into(&self, w: &mut ByteWriter) {
        w.put_usize(self.replication);
        let dense = self.placement.dense_registrations();
        w.put_list(&dense, |w, (array, extents)| {
            array.encode_into(w);
            w.put_list(extents, |w, &e| w.put_i64(e));
        });
        w.put_usize(self.nodes.len());
        let books = self.primary_records().into_iter().zip(self.held_records());
        for (node, (primaries, held)) in self.nodes.iter().zip(books) {
            node.snapshot_into(&primaries, &held, w);
        }
        let entries = self.placement.collect_sorted();
        w.put_list(&entries, |w, (key, node)| {
            key.encode_into(w);
            w.put_u32(node.0);
        });
        w.put_list(&self.replicas, |w, (key, holders)| {
            key.encode_into(w);
            w.put_list(holders, |w, h| w.put_u32(h.0));
        });
    }

    /// Rebuild a cluster from [`Cluster::snapshot_into`]. `payload_of`
    /// resolves a chunk's cells from wherever the caller kept them (a
    /// checkpoint's cells section), and every record that carried a
    /// payload takes the handle it returns. The cost model is
    /// config-derived and supplied by the caller, not serialized.
    ///
    /// Does not demand the reader be empty afterwards: the cluster
    /// section is embedded inside a larger checkpoint record.
    pub fn restore_from(
        r: &mut ByteReader<'_>,
        cost: CostModel,
        payload_of: &dyn Fn(&ChunkKey) -> Option<Arc<Chunk>>,
    ) -> Result<Cluster, DurabilityError> {
        let replication = r.usize("replication factor")?;
        if replication == 0 {
            let detail = "a cluster keeps at least one copy".to_string();
            return Err(CodecError::invalid("replication factor", detail).into());
        }
        let mut placement = PlacementIndex::new();
        let mut last_grid = None;
        for _ in 0..r.count("dense grid count", 4 + 8)? {
            let array = ArrayId::decode_from(r)?;
            ascending("dense grid array", last_grid.as_ref(), &array)?;
            last_grid = Some(array);
            let extents = r.list("dense grid ndims", 8, |r| r.i64("dense grid extent"))?;
            if !(1..=array_model::MAX_DIMS).contains(&extents.len()) {
                let detail = format!("{} outside 1..={}", extents.len(), array_model::MAX_DIMS);
                return Err(CodecError::invalid("dense grid ndims", detail).into());
            }
            if extents.iter().any(|&e| e < 1) {
                let detail = format!("non-positive extent in {extents:?}");
                return Err(CodecError::invalid("dense grid extent", detail).into());
            }
            if !placement.register_dense(array, &extents) {
                return Err(DurabilityError::Mismatch {
                    what: format!("dense registration of array {}", array.0),
                    expected: "accepted (it was registered in the snapshotted cluster)".to_string(),
                    actual: "rejected".to_string(),
                });
            }
        }
        let n = r.count("node count", Node::MIN_SNAPSHOT_LEN)?;
        let mut nodes = Vec::with_capacity(n);
        let mut records = Vec::with_capacity(n);
        let mut sections = Vec::with_capacity(n);
        let mut balance = BalanceStats::default();
        let mut retired = 0usize;
        for i in 0..n {
            let (node, primaries, held) = Node::restore_from(r, payload_of)?;
            if u32::try_from(i).ok() != Some(node.id.0) {
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
            records.push(primaries);
            sections.push(held);
        }
        let mut last_key = None;
        for _ in 0..r.count("placement count", ChunkKey::MIN_ENCODED_LEN + 4)? {
            let key = ChunkKey::decode_from(r)?;
            let node = NodeId(r.u32("placement node")?);
            if node.slot() >= nodes.len() {
                return Err(DurabilityError::Mismatch {
                    what: format!("placement of {key}"),
                    expected: format!("a node id below {}", nodes.len()),
                    actual: format!("{node}"),
                });
            }
            if placement.insert(key, Slot::Lost { wreck: node }).is_err() {
                return Err(DurabilityError::Mismatch {
                    what: format!("placement of {key}"),
                    expected: "a single entry per key".to_string(),
                    actual: "duplicate entry in snapshot".to_string(),
                });
            }
            ascending("placement key", last_key.as_ref(), &key)?;
            last_key = Some(key);
        }
        // Every primary record is placed where it is, and goes in its
        // entry's slot; an entry no record claims stays lost.
        for (node, primaries) in nodes.iter().zip(records) {
            for record in primaries {
                let key = record.descriptor().key;
                let slot = placement.slot(&key);
                match slot.map(|slot| (slot, placement.at(slot))) {
                    Some((slot, Slot::Lost { wreck })) if *wreck == node.id => {
                        *placement.at_mut(slot) = Slot::Placed { home: node.id, record };
                    }
                    Some((_, Slot::Lost { .. } | Slot::Placed { .. })) | None => {
                        let placed = placement.node(&key);
                        return Err(DurabilityError::Mismatch {
                            what: format!("placement of {key}"),
                            expected: format!("{}, which holds its record", node.id),
                            actual: placed.map_or("no entry".to_string(), |n| n.to_string()),
                        });
                    }
                }
            }
        }
        let mut replicas = BTreeMap::new();
        for _ in 0..r.count("replica index count", ChunkKey::MIN_ENCODED_LEN + 8)? {
            let key = ChunkKey::decode_from(r)?;
            let v = r.list("replica holder count", 4, |r| r.u32("replica holder").map(NodeId))?;
            if let Some(h) = v.iter().find(|h| h.slot() >= nodes.len()) {
                return Err(DurabilityError::Mismatch {
                    what: format!("replica holder of {key}"),
                    expected: format!("a node id below {}", nodes.len()),
                    actual: format!("{h}"),
                });
            }
            if replicas.contains_key(&key) {
                return Err(DurabilityError::Mismatch {
                    what: format!("replica holders of {key}"),
                    expected: "a single entry per key".to_string(),
                    actual: "duplicate entry in snapshot".to_string(),
                });
            }
            ascending("replica index key", replicas.keys().next_back(), &key)?;
            replicas.insert(key, v);
        }
        let copies = Default::default();
        let mut cluster =
            Cluster { nodes, placement, cost, balance, replication, replicas, retired, copies };
        // The replica sections are derived: each must list exactly what
        // the index and the primary records say the node holds.
        for ((node, section), held) in
            cluster.nodes.iter().zip(&sections).zip(cluster.held_records())
        {
            let entry =
                |r: &&Resident| (r.descriptor().key, (*r.descriptor(), r.payload().is_some()));
            if held.iter().map(entry).eq(section.iter().map(|(key, listed)| (*key, *listed))) {
                continue;
            }
            let derived: HeldSection = held.iter().map(entry).collect();
            let differs = |key: &&ChunkKey| derived.get(key) != section.get(key);
            if let Some(key) = derived.keys().chain(section.keys()).find(differs) {
                let show = |copy: Option<&(ChunkDescriptor, bool)>| match copy {
                    None => "no copy".to_string(),
                    Some((d, cells)) => {
                        format!("{} bytes / {} cells, cells attached: {cells}", d.bytes, d.cells)
                    }
                };
                return Err(DurabilityError::Mismatch {
                    what: format!("replica of {key} on {}", node.id),
                    expected: show(derived.get(key)),
                    actual: show(section.get(key)),
                });
            }
        }
        // The replica census is derived state: recount it from the books
        // just read instead of trusting (or storing) a second copy.
        cluster.copies = cluster.walked_copies();
        cluster.verify_replica_books().map_err(|e| DurabilityError::Mismatch {
            what: "replica books".to_string(),
            expected: "every replicated chunk's record on a serving primary, its holders \
                       distinct serving nodes other than the primary"
                .to_string(),
            actual: e.to_string(),
        })?;
        Ok(cluster)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use array_model::{ArraySchema, ChunkCoords};

    fn chunk_for(key: &ChunkKey) -> Arc<Chunk> {
        let schema = ArraySchema::parse("A<v:double>[x=0:*,4, y=0:*,4]").unwrap();
        let mut c = Chunk::new(&schema, key.coords);
        let cell = vec![key.coords.as_slice()[0] * 4, key.coords.as_slice()[1] * 4];
        c.push_cell(&schema, cell, vec![array_model::ScalarValue::Double(1.5)]).unwrap();
        Arc::new(c)
    }

    /// A cluster with history: replication, payloads, a crash (promoted
    /// replicas), and a retirement. The round-trip must survive
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
        // Every restored record aliases the one handle the lookup gave
        // out (zero-copy restore); holders serve those same records.
        let mut aliased = 0;
        for payload in restored.residents().filter_map(|record| record.payload()) {
            let key = payload.descriptor(ArrayId(0)).key;
            assert!(Arc::ptr_eq(payload, &cells[&key]), "the record of {key} was rebuilt");
            aliased += 1;
        }
        assert_eq!(aliased, cells.len(), "at k = 2 every chunk survives one crash");
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

    /// `bytes` with every `(at, cut, insert)` edit applied: `cut` bytes at
    /// offset `at` (of the original) replaced by `insert`.
    fn edited(bytes: &[u8], edits: &[(usize, usize, &[u8])]) -> Vec<u8> {
        let mut edits = edits.to_vec();
        edits.sort_by_key(|&(at, ..)| std::cmp::Reverse(at));
        let mut out = bytes.to_vec();
        for (at, cut, insert) in edits {
            out.splice(at..at + cut, insert.iter().copied());
        }
        out
    }

    /// A two-node, k = 2 snapshot — chunks A and C on node 0, B on node
    /// 1, each replicated on the other node, with or without cells —
    /// plus where each key's `nth` encoding starts in it and why a
    /// mutation of it is refused (a typed mismatch, or a panic).
    struct Fixture {
        bytes: Vec<u8>,
        cells: BTreeMap<ChunkKey, Arc<Chunk>>,
        keys: [ChunkKey; 3],
    }

    impl Fixture {
        fn new(with_cells: bool) -> Fixture {
            let mut cluster =
                Cluster::with_replication(2, u64::MAX, CostModel::default(), 2).unwrap();
            let mut cells = BTreeMap::new();
            let keys = [0, 1, 2].map(|x| ChunkKey::new(ArrayId(0), ChunkCoords::new([x, 0])));
            for (key, node) in keys.into_iter().zip([0, 1, 0]) {
                let payload = chunk_for(&key);
                cluster.place(payload.descriptor(ArrayId(0)), NodeId(node)).unwrap();
                if with_cells {
                    cluster.attach_payload(key, Arc::clone(&payload)).unwrap();
                    cells.insert(key, payload);
                }
            }
            let mut w = ByteWriter::new();
            cluster.snapshot_into(&mut w);
            let fixture = Fixture { bytes: w.into_bytes(), cells, keys };
            fixture.refusal(&fixture.bytes).expect_err("the snapshot itself restores");
            fixture
        }

        fn pattern(key: &ChunkKey) -> Vec<u8> {
            let mut w = ByteWriter::new();
            key.encode_into(&mut w);
            w.into_bytes()
        }

        /// Where the `nth` encoding of the `i`th key starts.
        fn at(&self, i: usize, nth: usize) -> usize {
            occurrences(&self.bytes, &Fixture::pattern(&self.keys[i]))[nth]
        }

        /// Why `mutated` does not restore: `Ok` with the mismatch
        /// rendered, `Err` when it does restore.
        fn refusal(&self, mutated: &[u8]) -> Result<String, ()> {
            let lookup = |key: &ChunkKey| self.cells.get(key).cloned();
            match Cluster::restore_from(
                &mut ByteReader::new(mutated),
                CostModel::default(),
                &lookup,
            ) {
                Err(DurabilityError::Mismatch { what, expected, actual }) => {
                    Ok(format!("{what}: expected {expected}, got {actual}"))
                }
                Ok(_) => Err(()),
                Err(other) => panic!("expected a typed mismatch, got {other}"),
            }
        }

        fn refused(&self, edits: &[(usize, usize, &[u8])]) -> String {
            self.refusal(&edited(&self.bytes, edits)).expect("a mutated snapshot restored")
        }
    }

    /// Bytes a CRC merely failed to reject: a real snapshot mutated one
    /// field at a time. Each mutation keeps the byte ledgers balanced, so
    /// only the check it aims at can refuse it.
    #[test]
    fn mutated_snapshots_are_refused_typed() {
        const DESC: usize = 20 + 1; // a two-dimensional key
        let u64_at = |bytes: &[u8], at: usize| {
            u64::from_le_bytes(bytes[at..at + 8].try_into().expect("eight bytes"))
        };
        let (a, b, c) = (0, 1, 2);

        // With cells, a key is written six times, in this order: node 0's
        // descriptor and payload-key lists, node 1's, the placement, the
        // replica index (A and C are primaries on node 0, replicas on 1).
        let f = Fixture::new(true);
        const PRIMARY_DESC: usize = 0;
        const PRIMARY_PAYLOAD_KEY: usize = 1;
        const REPLICA_PAYLOAD_KEY: usize = 3;
        const REPLICA_INDEX: usize = 5;
        assert_eq!(occurrences(&f.bytes, &Fixture::pattern(&f.keys[a])).len(), 6);
        // A payload key naming a chunk the node holds no descriptor for:
        // the cells would be stranded — in either section.
        let stranger = Fixture::pattern(&ChunkKey::new(ArrayId(0), ChunkCoords::new([7, 0])));
        for (nth, section) in [(PRIMARY_PAYLOAD_KEY, "primary"), (REPLICA_PAYLOAD_KEY, "replica")] {
            let why = f.refused(&[(f.at(a, nth), stranger.len(), &stranger)]);
            assert!(
                why.contains(section) && why.contains("a descriptor resident beside it"),
                "{why}"
            );
        }
        // A descriptor whose cell count its cells do not have. (Bytes are
        // ledgered, so a byte drift trips the ledger check too; cells are
        // not — only the attach-time check sees this one.)
        let why = f.refused(&[(f.at(a, PRIMARY_DESC) + DESC + 8, 8, &2u64.to_le_bytes())]);
        assert!(why.contains("payload for") && why.contains("2 cells"), "{why}");
        // One payload key listed twice (C's entry rewritten to A's): A
        // would be attached twice and C silently left without cells.
        let a_key = Fixture::pattern(&f.keys[a]);
        let why = f.refused(&[(f.at(c, PRIMARY_PAYLOAD_KEY), DESC, &a_key)]);
        assert!(why.contains("listed twice"), "{why}");
        // One key twice in the replica index: the later entry used to
        // replace the earlier without a word.
        let why = f.refused(&[(f.at(c, REPLICA_INDEX), DESC, &a_key)]);
        assert!(why.contains("replica holders") && why.contains("duplicate entry"), "{why}");
        // A replica section that drops C's cells while C's record keeps
        // them: the holder would list a copy its primary does not match.
        let count = f.at(a, REPLICA_PAYLOAD_KEY) - 8;
        let why = f
            .refused(&[(count, 8, &1u64.to_le_bytes()), (f.at(c, REPLICA_PAYLOAD_KEY), DESC, &[])]);
        assert!(why.contains("replica of") && why.contains("cells attached: true"), "{why}");

        // Metadata only — no payload-key lists, the case every metadata
        // run checkpoints — each key is written four times: its primary
        // descriptor and its replica descriptor (node order), the
        // placement, the replica index. The replica sections are derived
        // from the index and the primaries, and checked both ways.
        let f = Fixture::new(false);
        let (primary, replica) = (|i| if i == b { 1 } else { 0 }, |i| if i == b { 0 } else { 1 });
        assert_eq!(occurrences(&f.bytes, &Fixture::pattern(&f.keys[a])).len(), 4);
        // Each node's replica ledger is the eight bytes before its
        // primary count, which precedes its first primary descriptor.
        let ledger = |node: usize| f.at([a, b][node], primary([a, b][node])) - 16;
        let bumped = |node: usize, delta: i64| {
            let was = u64_at(&f.bytes, ledger(node));
            (ledger(node), 8, was.checked_add_signed(delta).expect("in range").to_le_bytes())
        };
        let bytes_of = |i: usize| u64_at(&f.bytes, f.at(i, primary(i)) + DESC) as i64;
        // A's replica descriptor on node 1 with a cell count its primary
        // does not have: no ledger counts cells, no payload is attached.
        let why = f.refused(&[(f.at(a, replica(a)) + DESC + 8, 8, &2u64.to_le_bytes())]);
        assert!(
            why.contains(&format!("replica of {} on n1", f.keys[a])) && why.contains("2 cells"),
            "{why}"
        );
        // The same with bytes, and node 1's replica ledger edited to match.
        let (at, cut, new) = bumped(1, 1);
        let grown = (bytes_of(a) + 1) as u64;
        let why =
            f.refused(&[(f.at(a, replica(a)) + DESC, 8, &grown.to_le_bytes()), (at, cut, &new)]);
        assert!(why.contains(&format!("replica of {} on n1", f.keys[a])), "{why}");
        // An entry missing: node 1 stops listing C (count and ledger too).
        let count = f.at(a, replica(a)) - 8;
        let (at, cut, new) = bumped(1, -bytes_of(c));
        let c_desc = (f.at(c, replica(c)), DESC + 16, &[][..]);
        let why = f.refused(&[(count, 8, &1u64.to_le_bytes()), c_desc, (at, cut, &new)]);
        assert!(
            why.contains(&format!("replica of {} on n1", f.keys[c])) && why.contains("got no copy"),
            "{why}"
        );
        // An entry extra: node 0 also lists its own primary A as held.
        let count = f.at(b, replica(b)) - 8;
        let (at, cut, new) = bumped(0, bytes_of(a));
        let a_desc = f.bytes[f.at(a, primary(a))..][..DESC + 16].to_vec();
        let extra = (f.at(b, replica(b)), 0, &a_desc[..]);
        let why = f.refused(&[(count, 8, &2u64.to_le_bytes()), extra, (at, cut, &new)]);
        assert!(
            why.contains(&format!("replica of {} on n0", f.keys[a]))
                && why.contains("expected no copy"),
            "{why}"
        );
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
