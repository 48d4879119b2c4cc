//! Simulated shared-nothing cluster nodes.

use array_model::{Chunk, ChunkDescriptor, ChunkKey};
use durability::{ascending, ByteReader, ByteWriter, CodecError, DurabilityError};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Identifier of a cluster node. Nodes are numbered in join order and
/// keep their roster **slot** forever — a scale-IN removes a node from
/// *service* by retiring it ([`NodeState::Retired`]), never by
/// compacting the roster, so every historical id (and the replica
/// ring's modular arithmetic over the roster length) stays stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node's roster slot: ids are join-order indices.
    pub(crate) fn slot(self) -> usize {
        // Lossless: the crate builds only where `usize` holds a `u32`
        // (the assertion below).
        self.0 as usize
    }
}

const _: () = assert!(usize::BITS >= u32::BITS, "a node id must fit a roster index");

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Lifecycle state of one node (see `recovery` module docs for the full
/// state machine).
///
/// * `Healthy` — full member: serves reads, accepts placements, replicas,
///   and repairs.
/// * `Crashed` — lost its store; serves nothing and accepts nothing
///   until revived.
/// * `Draining` — scale-IN preparation: still serves reads but accepts no
///   new data, so placement, replica routing, and repair all route around
///   it.
/// * `Recovering` — a revived node catching back up: accepts data (that
///   is how it refills) and serves what it holds, flagged until
///   [`crate::Cluster::mark_recovered`] promotes it back to `Healthy`.
/// * `Retired` — scale-IN completed: the node was drained, its data
///   rebalanced away, and it has left service permanently. It keeps its
///   roster slot (so ids and replica-ring arithmetic stay stable) but
///   serves nothing, accepts nothing, and no longer counts toward
///   cluster strength.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum NodeState {
    /// Full member of the cluster.
    #[default]
    Healthy,
    /// Failed; store wiped, out of service.
    Crashed,
    /// Serving reads only while being emptied for scale-IN.
    Draining,
    /// Revived after a crash; refilling.
    Recovering,
    /// Decommissioned: drained, emptied, and released. Terminal.
    Retired,
}

impl NodeState {
    /// Can this node answer reads for the chunks it holds?
    pub fn serves_reads(&self) -> bool {
        !matches!(self, NodeState::Crashed | NodeState::Retired)
    }

    /// Can this node receive new descriptors, payloads, or replicas?
    pub fn accepts_data(&self) -> bool {
        matches!(self, NodeState::Healthy | NodeState::Recovering)
    }

    /// Has this node left the cluster for good (scale-IN)? Retired nodes
    /// keep their roster slot but are excluded from cluster strength and
    /// the balance census denominator.
    pub fn is_retired(&self) -> bool {
        matches!(self, NodeState::Retired)
    }
}

impl fmt::Display for NodeState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            NodeState::Healthy => "healthy",
            NodeState::Crashed => "crashed",
            NodeState::Draining => "draining",
            NodeState::Recovering => "recovering",
            NodeState::Retired => "retired",
        })
    }
}

/// The one record of a chunk: its descriptor and, on a materialized run,
/// its cells. A chunk has exactly one, in one slot of the cluster's
/// record slab (see `placement`), which also names the node holding the
/// primary — so no path can hold a payload without its descriptor, move
/// one without the other, or keep a second version of either. The nodes
/// holding a replica (`k ≥ 2`) are names in the cluster's replica index
/// and serve this same record; the cells are a shared `Arc<Chunk>`, so
/// nothing ever copies them to move or serve a chunk.
#[derive(Debug, Clone)]
pub struct Resident {
    desc: ChunkDescriptor,
    payload: Option<Arc<Chunk>>,
}

impl Resident {
    pub(crate) fn new(desc: ChunkDescriptor, payload: Option<Arc<Chunk>>) -> Self {
        Resident { desc, payload }
    }

    /// What placement and the census know of the chunk.
    pub fn descriptor(&self) -> &ChunkDescriptor {
        &self.desc
    }

    /// The chunk's cells, when they are materialized.
    pub fn payload(&self) -> Option<&Arc<Chunk>> {
        self.payload.as_ref()
    }

    /// Replace the descriptor (a retraction shrank the chunk); the
    /// previous one. The caller moves the byte ledgers by the delta.
    pub(crate) fn resize(&mut self, desc: ChunkDescriptor) -> ChunkDescriptor {
        std::mem::replace(&mut self.desc, desc)
    }

    /// Where the cells go: attaching writes the slot; the retraction
    /// path tombstones through it (`Arc::make_mut`).
    pub(crate) fn payload_slot(&mut self) -> &mut Option<Arc<Chunk>> {
        &mut self.payload
    }
}

/// A node's replica section as a checkpoint lists it: for each chunk the
/// node holds a replica of, in key order, the descriptor and whether it
/// carries cells. Written from the replica index and the primary records,
/// and on restore checked against them, entry for entry.
pub(crate) type HeldSection = BTreeMap<ChunkKey, (ChunkDescriptor, bool)>;

/// One node: a storage budget, a lifecycle state, and its books — how
/// many primaries it holds and two byte ledgers, its primaries' bytes and
/// the bytes of the replicas it holds. *Which* chunks those are is not
/// the node's to keep: the cluster's placement index names each
/// primary's node, and its replica index each replica's.
#[derive(Debug, Clone)]
pub struct Node {
    /// This node's identifier.
    pub id: NodeId,
    /// Storage capacity in bytes (`c` in the paper; 100 GB per node in §6.1).
    pub capacity_bytes: u64,
    state: NodeState,
    used_bytes: u64,
    replica_bytes: u64,
    primaries: usize,
}

/// Move a byte ledger from a copy's `old` size to its `new` one (`0` for
/// a copy taken on or dropped). Growth saturates; a release larger than
/// the ledger is an accounting bug (a retraction decremented a descriptor
/// without telling the node, or vice versa), so it panics in debug builds
/// instead of silently clamping to zero. Release builds clamp, keeping
/// the simulation alive.
fn reledger(ledger: &mut u64, old: u64, new: u64, name: &str, id: NodeId) {
    let (grown, freed) = (ledger.saturating_add(new.saturating_sub(old)), old.saturating_sub(new));
    *ledger = grown.checked_sub(freed).unwrap_or_else(|| {
        debug_assert!(false, "{name} ledger underflow: {freed} bytes off {grown} on {id}");
        0
    });
}

impl Node {
    /// The fewest bytes [`Node::snapshot_into`] writes: id, budget, state,
    /// both ledgers, and two empty sections.
    pub(crate) const MIN_SNAPSHOT_LEN: usize = 4 + 8 + 1 + 8 + 8 + 2 * (8 + 8);

    /// A fresh, empty node.
    pub fn new(id: NodeId, capacity_bytes: u64) -> Self {
        Node {
            id,
            capacity_bytes,
            state: NodeState::Healthy,
            used_bytes: 0,
            replica_bytes: 0,
            primaries: 0,
        }
    }

    /// Current lifecycle state.
    pub fn state(&self) -> NodeState {
        self.state
    }

    pub(crate) fn set_state(&mut self, state: NodeState) {
        self.state = state;
    }

    /// Bytes stored as primaries.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Bytes held as replica copies (excluded from [`Node::used_bytes`]
    /// and the balance census, so the paper's census stays defined over
    /// primaries and is bit-identical at every `k`).
    pub fn replica_bytes(&self) -> u64 {
        self.replica_bytes
    }

    /// Number of resident primaries.
    pub fn chunk_count(&self) -> usize {
        self.primaries
    }

    /// Ledger `chunks` primaries of `bytes` in all taken in.
    pub(crate) fn admit(&mut self, chunks: usize, bytes: u64) {
        self.primaries += chunks;
        self.used_bytes = self.used_bytes.saturating_add(bytes);
    }

    /// Ledger one primary of `bytes` let go.
    pub(crate) fn release(&mut self, bytes: u64) {
        debug_assert!(self.primaries > 0, "no primary to release on {}", self.id);
        self.primaries = self.primaries.saturating_sub(1);
        reledger(&mut self.used_bytes, bytes, 0, "byte", self.id);
    }

    /// Move the primary ledger from a chunk's `old` size to its `new` one
    /// (a retraction shrank it).
    pub(crate) fn resize(&mut self, old: u64, new: u64) {
        reledger(&mut self.used_bytes, old, new, "byte", self.id);
    }

    /// Move the replica ledger from a held copy's `old` size to its `new`
    /// one: `(0, bytes)` takes a copy on, `(bytes, 0)` drops it, anything
    /// else follows its primary's resize. Called by the replica books'
    /// two writers, `Cluster::add_holder` and `Cluster::drop_holder`, by
    /// `Cluster::install_payload` for a resize, and on restore.
    pub(crate) fn reledger_held(&mut self, old: u64, new: u64) {
        reledger(&mut self.replica_bytes, old, new, "replica", self.id);
    }

    /// Serialize this node for a checkpoint: identity, budget, lifecycle
    /// state, both byte ledgers (as cross-check values), then its
    /// primaries and the replicas it holds (each the records of those
    /// chunks in key order), each as descriptors followed by *which* of
    /// them carry cells. The cells themselves are not written here — the
    /// checkpoint writes each chunk's once, in a section of its own, and
    /// restore re-wires the handles.
    pub(crate) fn snapshot_into(
        &self,
        primaries: &[&Resident],
        held: &[&Resident],
        w: &mut ByteWriter,
    ) {
        w.put_u32(self.id.0);
        w.put_u64(self.capacity_bytes);
        w.put_u8(match self.state {
            NodeState::Healthy => 0,
            NodeState::Crashed => 1,
            NodeState::Draining => 2,
            NodeState::Recovering => 3,
            NodeState::Retired => 4,
        });
        w.put_u64(self.used_bytes);
        w.put_u64(self.replica_bytes);
        put_section(primaries, w);
        put_section(held, w);
    }

    /// Rebuild a node from [`Node::snapshot_into`], re-attaching payload
    /// handles through `payload_of` (the checkpoint's cells), and return
    /// its primary records in key order, for the cluster to file in its
    /// placement index, and its replica section, for the cluster to check
    /// against the replica index. Nothing in the bytes is taken on trust:
    /// a descriptor is listed once, a payload key must name a descriptor
    /// of its section, once, and cells whose size its descriptor declares
    /// (the attach-time check), and the byte ledgers are recomputed from
    /// the descriptors and compared with the serialized values — each a
    /// typed [`DurabilityError::Mismatch`], never absorbed.
    pub(crate) fn restore_from(
        r: &mut ByteReader<'_>,
        payload_of: &dyn Fn(&ChunkKey) -> Option<Arc<Chunk>>,
    ) -> Result<(Node, Vec<Resident>, HeldSection), DurabilityError> {
        let id = NodeId(r.u32("node id")?);
        let capacity_bytes = r.u64("node capacity")?;
        let state = match r.u8("node state")? {
            0 => NodeState::Healthy,
            1 => NodeState::Crashed,
            2 => NodeState::Draining,
            3 => NodeState::Recovering,
            4 => NodeState::Retired,
            tag => {
                let detail = format!("unknown state tag {tag}");
                return Err(CodecError::invalid("node state", detail).into());
            }
        };
        let want_used = r.u64("node used bytes")?;
        let want_replica = r.u64("node replica bytes")?;
        let mut node = Node::new(id, capacity_bytes);
        node.state = state;
        let mut primaries = Vec::new();
        for (key, (desc, with_cells)) in read_section(r, id, "primary")? {
            let refused = |expected: &str, actual: &str| DurabilityError::Mismatch {
                what: format!("primary payload for {key} on {id}"),
                expected: expected.to_string(),
                actual: actual.to_string(),
            };
            let missing = || refused("among the checkpoint's cells", "missing");
            let payload = with_cells.then(|| payload_of(&key).ok_or_else(missing)).transpose()?;
            let size = |bytes: u64, cells: u64| format!("{bytes} bytes / {cells} cells");
            if let Some(chunk) = payload.as_deref() {
                let held = (chunk.byte_size(), chunk.cell_count());
                if (desc.bytes, desc.cells) != held {
                    return Err(refused(&size(desc.bytes, desc.cells), &size(held.0, held.1)));
                }
            }
            node.admit(1, desc.bytes);
            primaries.push(Resident::new(desc, payload));
        }
        let held = read_section(r, id, "replica")?;
        for (desc, _) in held.values() {
            node.reledger_held(0, desc.bytes);
        }
        if node.used_bytes != want_used || node.replica_bytes != want_replica {
            return Err(DurabilityError::Mismatch {
                what: format!("byte ledgers of {id}"),
                expected: format!("{want_used} used / {want_replica} replica"),
                actual: format!("{} used / {} replica", node.used_bytes, node.replica_bytes),
            });
        }
        // A crash wipes a node, and only an empty node retires.
        let (primary_count, replicas) = (node.primaries, held.len());
        if matches!(state, NodeState::Crashed | NodeState::Retired) && primary_count + replicas > 0
        {
            return Err(DurabilityError::Mismatch {
                what: format!("records of {id}"),
                expected: format!("none on a {state:?} node"),
                actual: format!("{primary_count} primaries, {replicas} replicas"),
            });
        }
        Ok((node, primaries, held))
    }

    /// Zero the node's books — a crash wiped its store. By then
    /// `Cluster::crash_node` has moved its records (promoted or lost
    /// them) and struck it from every replica set through
    /// `Cluster::drop_holder`, which emptied its replica ledger; the
    /// balance census follows through `Cluster::ledger`.
    pub(crate) fn wipe(&mut self) {
        self.primaries = 0;
        self.used_bytes = 0;
        self.replica_bytes = 0;
    }
}

/// One section of [`Node::snapshot_into`]: the records' descriptors, then
/// the keys of those with cells.
fn put_section(records: &[&Resident], w: &mut ByteWriter) {
    w.put_usize(records.len());
    for record in records {
        record.desc.encode_into(w);
    }
    let with_cells = records.iter().filter(|record| record.payload.is_some());
    w.put_usize(with_cells.clone().count());
    for record in with_cells {
        record.desc.key.encode_into(w);
    }
}

/// One section of [`Node::snapshot_into`] read back by key, refusing a
/// descriptor listed twice and a payload key that names none of the
/// section's descriptors, or one already named — and either list out of
/// the key order it was written in.
fn read_section(
    r: &mut ByteReader<'_>,
    id: NodeId,
    which: &str,
) -> Result<HeldSection, DurabilityError> {
    let refused =
        |key: &ChunkKey, what: &str, expected: &str, actual: &str| DurabilityError::Mismatch {
            what: format!("{which} {what} for {key} on {id}"),
            expected: expected.to_string(),
            actual: actual.to_string(),
        };
    let mut section = HeldSection::new();
    for _ in 0..r.count("node copy count", ChunkDescriptor::MIN_ENCODED_LEN)? {
        let desc = ChunkDescriptor::decode_from(r)?;
        if section.contains_key(&desc.key) {
            return Err(refused(&desc.key, "descriptor", "listed once", "listed twice"));
        }
        ascending("node copy key", section.keys().next_back(), &desc.key)?;
        section.insert(desc.key, (desc, false));
    }
    let mut last = None;
    for _ in 0..r.count("node payload count", ChunkKey::MIN_ENCODED_LEN)? {
        let key = ChunkKey::decode_from(r)?;
        let Some((_, with_cells)) = section.get_mut(&key) else {
            return Err(refused(&key, "payload", "a descriptor resident beside it", "none"));
        };
        if std::mem::replace(with_cells, true) {
            return Err(refused(&key, "payload", "listed once", "listed twice"));
        }
        ascending("node payload key", last.as_ref(), &key)?;
        last = Some(key);
    }
    Ok(section)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admit_and_evict_track_usage() {
        let mut n = Node::new(NodeId(0), 1000);
        n.admit(1, 300);
        n.admit(1, 200);
        assert_eq!(n.used_bytes(), 500);
        assert_eq!(n.chunk_count(), 2);
        n.release(300);
        assert_eq!((n.used_bytes(), n.chunk_count()), (200, 1));
        n.reledger_held(0, 70);
        assert_eq!((n.used_bytes(), n.replica_bytes()), (200, 70), "the ledgers are separate");
    }

    #[test]
    fn byte_ledgers_saturate_on_admit() {
        let mut n = Node::new(NodeId(0), u64::MAX);
        n.admit(1, u64::MAX - 10);
        n.admit(1, 100);
        assert_eq!(n.used_bytes(), u64::MAX, "admit saturates, never wraps");
        n.admit(0, u64::MAX);
        assert_eq!(n.used_bytes(), u64::MAX);
        let mut r = Node::new(NodeId(1), u64::MAX);
        r.reledger_held(0, u64::MAX - 1);
        r.reledger_held(0, 50);
        assert_eq!(r.replica_bytes(), u64::MAX);
        assert_eq!(r.used_bytes(), 0, "replica bytes stay out of the primary ledger");
    }

    // Over-release is an accounting bug, not a condition to paper over:
    // the checked subtraction panics in debug builds (tests run debug),
    // so a retraction that double-counts bytes surfaces immediately.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "byte ledger underflow")]
    fn over_eviction_panics_in_debug() {
        let mut n = Node::new(NodeId(0), u64::MAX);
        n.admit(1, u64::MAX - 10);
        n.admit(1, 100); // ledger saturates at u64::MAX
        n.release(u64::MAX - 10); // ledger: 10
        n.release(100); // 100 > 10: underflow
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "replica ledger underflow")]
    fn replica_over_eviction_panics_in_debug() {
        let mut r = Node::new(NodeId(1), u64::MAX);
        r.reledger_held(0, u64::MAX - 1);
        r.reledger_held(0, 50); // saturates
        r.reledger_held(u64::MAX - 1, 0); // ledger: 1
        r.reledger_held(50, 0); // 50 > 1: underflow
    }

    #[test]
    fn resize_adjusts_the_ledger_exactly() {
        let mut n = Node::new(NodeId(0), 1000);
        n.admit(1, 300);
        n.admit(1, 200);
        n.resize(300, 120);
        assert_eq!((n.used_bytes(), n.chunk_count()), (320, 2));
        // Growth works too (an insert into an existing chunk).
        n.resize(120, 150);
        assert_eq!(n.used_bytes(), 350);
        // A held copy follows its primary's resize on the replica ledger.
        n.reledger_held(0, 80);
        n.reledger_held(80, 30);
        assert_eq!((n.used_bytes(), n.replica_bytes()), (350, 30));
        n.reledger_held(30, 45);
        assert_eq!(n.replica_bytes(), 45);
    }

    #[test]
    fn retired_nodes_serve_and_accept_nothing() {
        assert!(!NodeState::Retired.serves_reads());
        assert!(!NodeState::Retired.accepts_data());
        assert!(NodeState::Retired.is_retired());
        assert!(!NodeState::Draining.is_retired());
        assert_eq!(NodeState::Retired.to_string(), "retired");
    }

    #[test]
    fn lifecycle_predicates() {
        assert!(NodeState::Healthy.serves_reads() && NodeState::Healthy.accepts_data());
        assert!(!NodeState::Crashed.serves_reads() && !NodeState::Crashed.accepts_data());
        assert!(NodeState::Draining.serves_reads() && !NodeState::Draining.accepts_data());
        assert!(NodeState::Recovering.serves_reads() && NodeState::Recovering.accepts_data());
    }

    #[test]
    fn wipe_clears_every_store() {
        let mut n = Node::new(NodeId(0), 1000);
        n.admit(1, 100);
        n.reledger_held(0, 50);
        n.wipe();
        assert_eq!(n.used_bytes(), 0);
        assert_eq!(n.replica_bytes(), 0);
        assert_eq!(n.chunk_count(), 0);
    }

    /// A node's chunks are read off the cluster's placement index: the
    /// one probe that finds a record also names the node holding it.
    #[test]
    fn holds_and_descriptor_lookup() {
        use crate::{Cluster, CostModel};
        use array_model::{ArrayId, ChunkCoords};
        let key = |i: i64| ChunkKey::new(ArrayId(0), ChunkCoords::new([i]));
        let mut c = Cluster::new(2, 1000, CostModel::default()).unwrap();
        let d = ChunkDescriptor::new(key(5), 42, 1);
        c.place(d, NodeId(1)).unwrap();
        let slot = c.home(&d.key).expect("placed");
        assert!(
            matches!(slot, crate::Slot::Placed { home: NodeId(1), record } if record.descriptor() == &d)
        );
        assert!(c.home(&key(6)).is_none());
        let on = |n: u32| c.residents_on(NodeId(n)).map(|r| r.descriptor().key).collect::<Vec<_>>();
        assert_eq!((on(0), on(1)), (vec![], vec![key(5)]));
        assert_eq!(c.node(NodeId(1)).unwrap().chunk_count(), 1);
        let mut record = Resident::new(d, None);
        assert!(record.payload_slot().is_none(), "no cells attached");
        let old = record.resize(ChunkDescriptor::new(d.key, 40, 1));
        assert_eq!((old.bytes, record.descriptor().bytes), (42, 40));
    }
}
