//! Simulated shared-nothing cluster nodes.

use array_model::{Chunk, ChunkDescriptor, ChunkKey};
use durability::{ascending, ByteReader, ByteWriter, CodecError, DurabilityError};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Identifier of a cluster node. Nodes are numbered in join order and
/// keep their roster **slot** forever — a scale-IN removes a node from
/// *service* by retiring it ([`NodeState::Retired`]), never by
/// compacting the roster, so every historical id (and the replica
/// ring's modular arithmetic over the roster length) stays stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
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
/// its cells, resident on the node that holds the primary. A chunk has
/// exactly one, so no path can hold a payload without its descriptor,
/// move one without the other, or keep a second version of either. The
/// nodes holding a replica (`k ≥ 2`) are names in the cluster's replica
/// index and serve this same record; the cells are a shared `Arc<Chunk>`,
/// so a rebalance moves the handle, never the cells.
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
}

/// A node's replica section as a checkpoint lists it: for each chunk the
/// node holds a replica of, in key order, the descriptor and whether it
/// carries cells. Written from the replica index and the primary records,
/// and on restore checked against them, entry for entry.
pub(crate) type HeldSection = BTreeMap<ChunkKey, (ChunkDescriptor, bool)>;

/// One node: a storage budget, the records of the chunks whose primary
/// it holds, and two byte ledgers — its primaries' bytes and the bytes
/// of the replicas it holds. Which replicas those are is the cluster's
/// replica index, not the node's.
#[derive(Debug, Clone)]
pub struct Node {
    /// This node's identifier.
    pub id: NodeId,
    /// Storage capacity in bytes (`c` in the paper; 100 GB per node in §6.1).
    pub capacity_bytes: u64,
    state: NodeState,
    used_bytes: u64,
    replica_bytes: u64,
    primaries: BTreeMap<ChunkKey, Resident>,
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
            primaries: BTreeMap::new(),
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
        self.primaries.len()
    }

    /// The record of `key`, when this node holds its primary —
    /// descriptor and cells in one probe.
    pub fn resident(&self, key: &ChunkKey) -> Option<&Resident> {
        self.primaries.get(key)
    }

    /// Every primary record here, in deterministic (key) order.
    pub fn residents(&self) -> impl Iterator<Item = &Resident> {
        self.primaries.values()
    }

    /// The resident primary descriptor for `key`, if any.
    pub fn descriptor(&self, key: &ChunkKey) -> Option<&ChunkDescriptor> {
        self.primaries.get(key).map(Resident::descriptor)
    }

    /// Iterate resident primaries in deterministic (key) order.
    pub fn descriptors(&self) -> impl Iterator<Item = &ChunkDescriptor> {
        self.primaries.values().map(Resident::descriptor)
    }

    /// Take a primary record in, ledgering its bytes.
    pub(crate) fn admit(&mut self, record: Resident) {
        self.used_bytes = self.used_bytes.saturating_add(record.desc.bytes);
        self.primaries.insert(record.desc.key, record);
    }

    /// Store a primary descriptor without touching the byte ledger. The
    /// parallel batch-placement path admits descriptors from per-node
    /// workers and applies the byte loads afterwards from the merged
    /// per-shard deltas (see `Cluster::place_batch`); the pair must
    /// always be used together.
    pub(crate) fn admit_descriptor(&mut self, desc: ChunkDescriptor) {
        self.primaries.insert(desc.key, Resident::new(desc, None));
    }

    /// Apply a byte-load delta accumulated by [`Node::admit_descriptor`].
    pub(crate) fn add_load(&mut self, bytes: u64) {
        self.used_bytes = self.used_bytes.saturating_add(bytes);
    }

    /// Remove a primary record — descriptor and whatever cells it
    /// carries, in one piece — releasing its bytes.
    pub(crate) fn evict(&mut self, key: &ChunkKey) -> Option<Resident> {
        let record = self.primaries.remove(key)?;
        reledger(&mut self.used_bytes, record.desc.bytes, 0, "byte", self.id);
        Some(record)
    }

    /// Replace a primary's descriptor in place (a retraction shrank it),
    /// adjusting the ledger by the exact delta. Returns the previous
    /// descriptor, or `None` when the primary is not resident here.
    pub(crate) fn resize(&mut self, desc: ChunkDescriptor) -> Option<ChunkDescriptor> {
        let old = std::mem::replace(&mut self.primaries.get_mut(&desc.key)?.desc, desc);
        reledger(&mut self.used_bytes, old.bytes, desc.bytes, "byte", self.id);
        Some(old)
    }

    /// Move the replica ledger from a held copy's `old` size to its `new`
    /// one: `(0, bytes)` takes a copy on, `(bytes, 0)` drops it, anything
    /// else follows its primary's resize.
    pub(crate) fn reledger_held(&mut self, old: u64, new: u64) {
        reledger(&mut self.replica_bytes, old, new, "replica", self.id);
    }

    /// Where a primary's cells go: `None` inside when it is metadata
    /// only, `None` outside when the primary is not resident here.
    /// Attaching writes the slot; the retraction path tombstones through
    /// it (`Arc::make_mut`). The descriptor is out of reach from here —
    /// only [`Node::resize`] changes it, with the ledger.
    pub(crate) fn payload_slot(&mut self, key: &ChunkKey) -> Option<&mut Option<Arc<Chunk>>> {
        self.primaries.get_mut(key).map(|record| &mut record.payload)
    }

    /// Serialize this node for a checkpoint: identity, budget, lifecycle
    /// state, both byte ledgers (as cross-check values), then its
    /// primaries and the replicas it holds (`held`, the primary records
    /// of those chunks in key order), each as descriptors followed by
    /// *which* of them carry cells. The cells themselves are not written
    /// here — the checkpoint writes each chunk's once, in a section of
    /// its own, and restore re-wires the handles.
    pub(crate) fn snapshot_into(&self, held: &[&Resident], w: &mut ByteWriter) {
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
        put_section(self.primaries.values(), w);
        put_section(held.iter().copied(), w);
    }

    /// Rebuild a node from [`Node::snapshot_into`], re-attaching payload
    /// handles through `payload_of` (the checkpoint's cells), and return
    /// its replica section for the cluster to check against the replica
    /// index. Nothing in the bytes is taken on trust: a descriptor is
    /// listed once, a payload key must name a descriptor of its section,
    /// once, and cells whose size its descriptor declares (the
    /// attach-time check), and the byte ledgers are recomputed from the
    /// descriptors and compared with the serialized values — each a
    /// typed [`DurabilityError::Mismatch`], never absorbed.
    pub(crate) fn restore_from(
        r: &mut ByteReader<'_>,
        payload_of: &dyn Fn(&ChunkKey) -> Option<Arc<Chunk>>,
    ) -> Result<(Node, HeldSection), DurabilityError> {
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
            node.admit(Resident::new(desc, payload));
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
        let (primaries, replicas) = (node.primaries.len(), held.len());
        if matches!(state, NodeState::Crashed | NodeState::Retired) && primaries + replicas > 0 {
            return Err(DurabilityError::Mismatch {
                what: format!("records of {id}"),
                expected: format!("none on a {state:?} node"),
                actual: format!("{primaries} primaries, {replicas} replicas"),
            });
        }
        Ok((node, held))
    }

    /// Drop every primary on this node and zero both byte ledgers,
    /// handing the records back — crash injection promotes them onto
    /// surviving holders. The caller is responsible for the replica
    /// index and the cluster-level balance census.
    pub(crate) fn wipe(&mut self) -> BTreeMap<ChunkKey, Resident> {
        self.used_bytes = 0;
        self.replica_bytes = 0;
        std::mem::take(&mut self.primaries)
    }
}

/// One section of [`Node::snapshot_into`]: the records' descriptors, then
/// the keys of those with cells.
fn put_section<'r>(
    records: impl ExactSizeIterator<Item = &'r Resident> + Clone,
    w: &mut ByteWriter,
) {
    w.put_usize(records.len());
    for record in records.clone() {
        record.desc.encode_into(w);
    }
    let with_cells = records.filter(|record| record.payload.is_some());
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
    use array_model::{ArrayId, ChunkCoords};

    fn desc(i: i64, bytes: u64) -> ChunkDescriptor {
        ChunkDescriptor::new(ChunkKey::new(ArrayId(0), ChunkCoords::new([i])), bytes, 1)
    }

    fn bare(i: i64, bytes: u64) -> Resident {
        Resident::new(desc(i, bytes), None)
    }

    #[test]
    fn admit_and_evict_track_usage() {
        let mut n = Node::new(NodeId(0), 1000);
        n.admit(bare(1, 300));
        n.admit(bare(2, 200));
        assert_eq!(n.used_bytes(), 500);
        assert_eq!(n.chunk_count(), 2);
        let evicted = n.evict(&desc(1, 300).key).unwrap();
        assert_eq!(evicted.descriptor().bytes, 300);
        assert!(evicted.payload().is_none(), "no payload was attached");
        assert_eq!(n.used_bytes(), 200);
        assert!(n.evict(&desc(9, 0).key).is_none());
        n.reledger_held(0, 70);
        assert_eq!((n.used_bytes(), n.replica_bytes()), (200, 70), "the ledgers are separate");
    }

    #[test]
    fn byte_ledgers_saturate_on_admit() {
        let mut n = Node::new(NodeId(0), u64::MAX);
        n.admit(bare(1, u64::MAX - 10));
        n.admit(bare(2, 100));
        assert_eq!(n.used_bytes(), u64::MAX, "admit saturates, never wraps");
        n.add_load(u64::MAX);
        assert_eq!(n.used_bytes(), u64::MAX);
        let mut r = Node::new(NodeId(1), u64::MAX);
        r.reledger_held(0, u64::MAX - 1);
        r.reledger_held(0, 50);
        assert_eq!(r.replica_bytes(), u64::MAX);
        assert_eq!(r.used_bytes(), 0, "replica bytes stay out of the primary ledger");
    }

    // Over-eviction is an accounting bug, not a condition to paper over:
    // the checked subtraction panics in debug builds (tests run debug),
    // so a retraction that double-counts bytes surfaces immediately.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "byte ledger underflow")]
    fn over_eviction_panics_in_debug() {
        let mut n = Node::new(NodeId(0), u64::MAX);
        n.admit(bare(1, u64::MAX - 10));
        n.admit(bare(2, 100)); // ledger saturates at u64::MAX
        n.evict(&desc(1, 0).key); // ledger: 10
        n.evict(&desc(2, 0).key); // 100 > 10: underflow
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
        n.admit(bare(1, 300));
        n.admit(bare(2, 200));
        let old = n.resize(ChunkDescriptor::new(desc(1, 0).key, 120, 1)).unwrap();
        assert_eq!(old.bytes, 300);
        assert_eq!(n.used_bytes(), 320);
        assert_eq!(n.descriptor(&desc(1, 0).key).unwrap().bytes, 120);
        // Growth works too (an insert into an existing chunk).
        n.resize(ChunkDescriptor::new(desc(1, 0).key, 150, 2)).unwrap();
        assert_eq!(n.used_bytes(), 350);
        assert!(n.resize(desc(9, 10)).is_none(), "not resident: cannot resize");
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
        n.admit(bare(1, 100));
        n.reledger_held(0, 50);
        let records = n.wipe();
        assert_eq!(records.keys().collect::<Vec<_>>(), vec![&desc(1, 0).key], "handed back");
        assert_eq!(n.used_bytes(), 0);
        assert_eq!(n.replica_bytes(), 0);
        assert_eq!(n.chunk_count(), 0);
        assert_eq!(n.residents().count(), 0);
    }

    #[test]
    fn holds_and_descriptor_lookup() {
        let mut n = Node::new(NodeId(1), 1000);
        let d = desc(5, 42);
        n.admit(Resident::new(d, None));
        assert_eq!(n.resident(&d.key).map(Resident::descriptor), Some(&d));
        assert_eq!(n.descriptor(&d.key), Some(&d));
        assert!(n.resident(&desc(6, 0).key).is_none());
        assert!(n.payload_slot(&d.key).is_some_and(|slot| slot.is_none()));
        assert!(n.payload_slot(&desc(6, 0).key).is_none(), "no record, nowhere to attach");
    }
}
