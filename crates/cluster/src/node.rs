//! Simulated shared-nothing cluster nodes.

use array_model::{Chunk, ChunkDescriptor, ChunkKey};
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
/// * `Crashed` — lost its stores; serves nothing and accepts nothing
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
    /// Failed; stores wiped, out of service.
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

/// Which of a node's two stores a copy of a chunk lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The copy the placement index names. Ledgered in
    /// [`Node::used_bytes`], which is what the balance census, the skew
    /// metrics and the scaling triggers read.
    Primary,
    /// A secondary copy (`k ≥ 2`) of a chunk whose primary lives
    /// elsewhere. Ledgered apart, in [`Node::replica_bytes`], so the
    /// paper's census stays defined over primaries and is bit-identical
    /// at every `k`.
    Replica,
}

/// One copy of a chunk resident on a node: its descriptor and, on a
/// materialized run, its cells. One record, so no path can hold a payload
/// without its descriptor or move one without the other. The cells are a
/// shared `Arc<Chunk>` — every copy of a chunk holds the same handle, so
/// a replica is a refcount bump and a rebalance moves the handle, never
/// the cells.
#[derive(Debug, Clone)]
pub struct Resident {
    desc: ChunkDescriptor,
    payload: Option<Arc<Chunk>>,
}

impl Resident {
    pub(crate) fn new(desc: ChunkDescriptor, payload: Option<Arc<Chunk>>) -> Self {
        Resident { desc, payload }
    }

    /// What placement and the census know of the copy.
    pub fn descriptor(&self) -> &ChunkDescriptor {
        &self.desc
    }

    /// The copy's cells, when they are materialized.
    pub fn payload(&self) -> Option<&Arc<Chunk>> {
        self.payload.as_ref()
    }
}

/// One node: a storage budget plus the chunk copies resident on it, one
/// map per [`Role`] and a byte ledger beside each. The node stores are
/// the only home a partitioned array's cells have.
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
    replicas: BTreeMap<ChunkKey, Resident>,
}

impl Node {
    /// A fresh, empty node.
    pub fn new(id: NodeId, capacity_bytes: u64) -> Self {
        Node {
            id,
            capacity_bytes,
            state: NodeState::Healthy,
            used_bytes: 0,
            replica_bytes: 0,
            primaries: BTreeMap::new(),
            replicas: BTreeMap::new(),
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

    /// Bytes held as secondary replica copies (excluded from
    /// [`Node::used_bytes`] and the balance census).
    pub fn replica_bytes(&self) -> u64 {
        self.replica_bytes
    }

    /// Number of resident primaries.
    pub fn chunk_count(&self) -> usize {
        self.primaries.len()
    }

    /// Fraction of capacity in use (may exceed 1.0 under overload).
    pub fn utilization(&self) -> f64 {
        if self.capacity_bytes == 0 {
            return 0.0;
        }
        // A ratio for reports: f64 keeps 53 bits of each byte count.
        self.used_bytes as f64 / self.capacity_bytes as f64
    }

    fn store(&self, role: Role) -> &BTreeMap<ChunkKey, Resident> {
        match role {
            Role::Primary => &self.primaries,
            Role::Replica => &self.replicas,
        }
    }

    /// A role's store and the ledger that accounts for it.
    fn store_mut(&mut self, role: Role) -> (&mut BTreeMap<ChunkKey, Resident>, &mut u64) {
        match role {
            Role::Primary => (&mut self.primaries, &mut self.used_bytes),
            Role::Replica => (&mut self.replicas, &mut self.replica_bytes),
        }
    }

    /// The copy of `key` resident here in `role`, if any — descriptor and
    /// cells in one probe.
    pub fn resident(&self, role: Role, key: &ChunkKey) -> Option<&Resident> {
        self.store(role).get(key)
    }

    /// The copy of `key` resident here whatever its role — a node never
    /// holds one chunk in both — which is what a repair reads from.
    pub(crate) fn resident_in_any_role(&self, key: &ChunkKey) -> Option<&Resident> {
        self.primaries.get(key).or_else(|| self.replicas.get(key))
    }

    /// Every copy resident here in `role`, in deterministic (key) order.
    pub fn residents(&self, role: Role) -> impl Iterator<Item = &Resident> {
        self.store(role).values()
    }

    /// The resident primary descriptor for `key`, if any.
    pub fn descriptor(&self, key: &ChunkKey) -> Option<&ChunkDescriptor> {
        self.primaries.get(key).map(Resident::descriptor)
    }

    /// Iterate resident primaries in deterministic (key) order.
    pub fn descriptors(&self) -> impl Iterator<Item = &ChunkDescriptor> {
        self.primaries.values().map(Resident::descriptor)
    }

    /// Number of resident primaries carrying materialized cells.
    pub fn payload_count(&self) -> usize {
        self.primaries.values().filter(|r| r.payload.is_some()).count()
    }

    /// Take a copy in, ledgering its bytes.
    pub(crate) fn admit(&mut self, role: Role, copy: Resident) {
        let (store, ledger) = self.store_mut(role);
        *ledger = ledger.saturating_add(copy.desc.bytes);
        store.insert(copy.desc.key, copy);
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

    /// Take `bytes` off a role's ledger, checked: a release larger than
    /// the ledger is an accounting bug (a retraction decremented a
    /// descriptor without telling the node, or vice versa), so it panics
    /// in debug builds instead of silently clamping to zero. Release
    /// builds clamp, keeping the simulation alive.
    fn release(&mut self, role: Role, bytes: u64, doing: &str) {
        let id = self.id;
        let (name, ledger) = match role {
            Role::Primary => ("byte", &mut self.used_bytes),
            Role::Replica => ("replica", &mut self.replica_bytes),
        };
        *ledger = ledger.checked_sub(bytes).unwrap_or_else(|| {
            debug_assert!(
                false,
                "{name} ledger underflow: {doing} {bytes} bytes from a {ledger}-byte ledger on {id}"
            );
            0
        });
    }

    /// Remove a copy — descriptor and whatever cells it carries, in one
    /// piece — releasing its bytes ([`Node::release`]).
    pub(crate) fn evict(&mut self, role: Role, key: &ChunkKey) -> Option<Resident> {
        let copy = self.store_mut(role).0.remove(key)?;
        self.release(role, copy.desc.bytes, "evicting");
        Some(copy)
    }

    /// Replace a resident copy's descriptor in place (a retraction shrank
    /// it), adjusting the ledger by the exact delta. Returns the previous
    /// descriptor, or `None` when no such copy is resident.
    pub(crate) fn resize(&mut self, role: Role, desc: ChunkDescriptor) -> Option<ChunkDescriptor> {
        let (store, ledger) = self.store_mut(role);
        let old = std::mem::replace(&mut store.get_mut(&desc.key)?.desc, desc);
        if desc.bytes >= old.bytes {
            *ledger = ledger.saturating_add(desc.bytes - old.bytes);
        } else {
            self.release(role, old.bytes - desc.bytes, "shrinking");
        }
        Some(old)
    }

    /// Where a resident copy's cells go: `None` inside when it is
    /// metadata only, `None` outside when no such copy is resident.
    /// Attaching writes the slot; the retraction path tombstones through
    /// it (`Arc::make_mut`). The descriptor is out of reach from here —
    /// only [`Node::resize`] changes it, with the ledger.
    pub(crate) fn payload_slot(
        &mut self,
        role: Role,
        key: &ChunkKey,
    ) -> Option<&mut Option<Arc<Chunk>>> {
        self.store_mut(role).0.get_mut(key).map(|copy| &mut copy.payload)
    }

    /// Serialize this node for a checkpoint: identity, budget, lifecycle
    /// state, both byte ledgers (as cross-check values), and per role the
    /// descriptors, then *which* of them carry cells. The cells themselves
    /// are not written here — copies of a chunk share them, so the
    /// checkpoint writes each once, in a section of its own, and restore
    /// re-wires the shared handles.
    pub(crate) fn snapshot_into(&self, w: &mut durability::ByteWriter) {
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
        for role in [Role::Primary, Role::Replica] {
            let store = self.store(role);
            w.put_usize(store.len());
            for copy in store.values() {
                copy.desc.encode_into(w);
            }
            let with_cells = || store.values().filter(|copy| copy.payload.is_some());
            w.put_usize(with_cells().count());
            for copy in with_cells() {
                copy.desc.key.encode_into(w);
            }
        }
    }

    /// Rebuild a node from [`Node::snapshot_into`], re-attaching payload
    /// handles through `payload_of` (the checkpoint's cells). Nothing in
    /// the bytes is taken on trust: a payload key must name a copy the
    /// node holds, once, and cells whose size its descriptor declares
    /// (the attach-time check), and the byte ledgers are recomputed from
    /// the descriptors and compared with the serialized values — each a
    /// typed [`durability::DurabilityError::Mismatch`], never absorbed.
    pub(crate) fn restore_from(
        r: &mut durability::ByteReader<'_>,
        payload_of: &dyn Fn(&ChunkKey) -> Option<Arc<Chunk>>,
    ) -> Result<Node, durability::DurabilityError> {
        use durability::DurabilityError::Mismatch;
        let codec = |context: &str, source| durability::DurabilityError::Codec {
            context: context.to_string(),
            source,
        };
        let id = NodeId(r.u32("node id").map_err(|e| codec("node id", e))?);
        let capacity_bytes = r.u64("node capacity").map_err(|e| codec("node capacity", e))?;
        let state = match r.u8("node state").map_err(|e| codec("node state", e))? {
            0 => NodeState::Healthy,
            1 => NodeState::Crashed,
            2 => NodeState::Draining,
            3 => NodeState::Recovering,
            4 => NodeState::Retired,
            tag => {
                return Err(codec(
                    "node state",
                    durability::CodecError::Invalid {
                        context: "node state",
                        detail: format!("unknown state tag {tag}"),
                    },
                ))
            }
        };
        let want_used = r.u64("node used bytes").map_err(|e| codec("node used bytes", e))?;
        let want_replica =
            r.u64("node replica bytes").map_err(|e| codec("node replica bytes", e))?;
        let mut node = Node::new(id, capacity_bytes);
        node.state = state;
        for role in [Role::Primary, Role::Replica] {
            let n = r.usize("node copy count").map_err(|e| codec("node copy count", e))?;
            for _ in 0..n {
                let desc =
                    ChunkDescriptor::decode_from(r).map_err(|e| codec("chunk descriptor", e))?;
                node.admit(role, Resident::new(desc, None));
            }
            let n = r.usize("node payload count").map_err(|e| codec("node payload count", e))?;
            for _ in 0..n {
                let key = ChunkKey::decode_from(r).map_err(|e| codec("payload key", e))?;
                let refused = |expected: &str, actual: &str| Mismatch {
                    what: format!("{role:?} payload for {key} on {id}"),
                    expected: expected.to_string(),
                    actual: actual.to_string(),
                };
                let Some(copy) = node.store_mut(role).0.get_mut(&key) else {
                    return Err(refused("a descriptor resident beside it", "none"));
                };
                if copy.payload.is_some() {
                    return Err(refused("listed once", "listed twice"));
                }
                let chunk = payload_of(&key)
                    .ok_or_else(|| refused("among the checkpoint's cells", "missing"))?;
                if (copy.desc.bytes, copy.desc.cells) != (chunk.byte_size(), chunk.cell_count()) {
                    let size = |bytes: u64, cells: u64| format!("{bytes} bytes / {cells} cells");
                    return Err(refused(
                        &size(copy.desc.bytes, copy.desc.cells),
                        &size(chunk.byte_size(), chunk.cell_count()),
                    ));
                }
                copy.payload = Some(chunk);
            }
        }
        if node.used_bytes != want_used || node.replica_bytes != want_replica {
            return Err(Mismatch {
                what: format!("byte ledgers of {id}"),
                expected: format!("{want_used} used / {want_replica} replica"),
                actual: format!("{} used / {} replica", node.used_bytes, node.replica_bytes),
            });
        }
        Ok(node)
    }

    /// Drop every copy on this node and zero both byte ledgers. Used by
    /// crash injection; the caller is responsible for updating the
    /// cluster-level balance census.
    pub(crate) fn wipe(&mut self) {
        self.used_bytes = 0;
        self.replica_bytes = 0;
        self.primaries.clear();
        self.replicas.clear();
    }
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
        n.admit(Role::Primary, bare(1, 300));
        n.admit(Role::Primary, bare(2, 200));
        assert_eq!(n.used_bytes(), 500);
        assert_eq!(n.chunk_count(), 2);
        assert!((n.utilization() - 0.5).abs() < 1e-12);
        let evicted = n.evict(Role::Primary, &desc(1, 300).key).unwrap();
        assert_eq!(evicted.descriptor().bytes, 300);
        assert!(evicted.payload().is_none(), "no payload was attached");
        assert_eq!(n.used_bytes(), 200);
        assert!(n.evict(Role::Primary, &desc(9, 0).key).is_none());
        assert!(n.evict(Role::Replica, &desc(2, 0).key).is_none(), "the stores are separate");
    }

    #[test]
    fn byte_ledgers_saturate_on_admit() {
        let mut n = Node::new(NodeId(0), u64::MAX);
        n.admit(Role::Primary, bare(1, u64::MAX - 10));
        n.admit(Role::Primary, bare(2, 100));
        assert_eq!(n.used_bytes(), u64::MAX, "admit saturates, never wraps");
        n.add_load(u64::MAX);
        assert_eq!(n.used_bytes(), u64::MAX);
        let mut r = Node::new(NodeId(1), u64::MAX);
        r.admit(Role::Replica, bare(3, u64::MAX - 1));
        r.admit(Role::Replica, bare(4, 50));
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
        n.admit(Role::Primary, bare(1, u64::MAX - 10));
        n.admit(Role::Primary, bare(2, 100)); // ledger saturates at u64::MAX
        n.evict(Role::Primary, &desc(1, 0).key); // ledger: 10
        n.evict(Role::Primary, &desc(2, 0).key); // 100 > 10: underflow
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "replica ledger underflow")]
    fn replica_over_eviction_panics_in_debug() {
        let mut r = Node::new(NodeId(1), u64::MAX);
        r.admit(Role::Replica, bare(3, u64::MAX - 1));
        r.admit(Role::Replica, bare(4, 50)); // saturates
        r.evict(Role::Replica, &desc(3, 0).key); // ledger: 1
        r.evict(Role::Replica, &desc(4, 0).key); // 50 > 1: underflow
    }

    #[test]
    fn resize_adjusts_the_ledger_exactly() {
        let mut n = Node::new(NodeId(0), 1000);
        n.admit(Role::Primary, bare(1, 300));
        n.admit(Role::Primary, bare(2, 200));
        let old = n.resize(Role::Primary, ChunkDescriptor::new(desc(1, 0).key, 120, 1)).unwrap();
        assert_eq!(old.bytes, 300);
        assert_eq!(n.used_bytes(), 320);
        assert_eq!(n.descriptor(&desc(1, 0).key).unwrap().bytes, 120);
        // Growth works too (an insert into an existing chunk).
        n.resize(Role::Primary, ChunkDescriptor::new(desc(1, 0).key, 150, 2)).unwrap();
        assert_eq!(n.used_bytes(), 350);
        assert!(n.resize(Role::Primary, desc(9, 10)).is_none(), "not resident: cannot resize");
        assert!(n.resize(Role::Replica, desc(1, 10)).is_none(), "not resident as a replica");
        n.admit(Role::Replica, bare(3, 80));
        n.resize(Role::Replica, ChunkDescriptor::new(desc(3, 0).key, 30, 1)).unwrap();
        assert_eq!((n.used_bytes(), n.replica_bytes()), (350, 30));
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
        n.admit(Role::Primary, bare(1, 100));
        n.admit(Role::Replica, bare(2, 50));
        n.wipe();
        assert_eq!(n.used_bytes(), 0);
        assert_eq!(n.replica_bytes(), 0);
        assert_eq!(n.chunk_count(), 0);
        assert_eq!(n.residents(Role::Replica).count(), 0);
        assert_eq!(n.payload_count(), 0);
    }

    #[test]
    fn holds_and_descriptor_lookup() {
        let mut n = Node::new(NodeId(1), 1000);
        let d = desc(5, 42);
        n.admit(Role::Primary, Resident::new(d, None));
        assert_eq!(n.resident(Role::Primary, &d.key).map(Resident::descriptor), Some(&d));
        assert_eq!(n.descriptor(&d.key), Some(&d));
        assert!(n.resident(Role::Replica, &d.key).is_none());
        assert!(n.resident(Role::Primary, &desc(6, 0).key).is_none());
        assert!(n.payload_slot(Role::Primary, &d.key).is_some_and(|slot| slot.is_none()));
        assert!(n.payload_slot(Role::Replica, &d.key).is_none(), "no copy, nowhere to attach");
    }
}
