//! The simulated shared-nothing cluster: node roster plus chunk placement.

use crate::census::CopyTally;
use crate::cost::CostModel;
use crate::error::{ClusterError, Result};
use crate::node::{Node, NodeId, NodeState, Resident};
use crate::placement::{key_hash, splitmix64, PlacementIndex, Slot};
use crate::rebalance::RebalancePlan;
use crate::transfer::FlowSet;
use array_model::{ArrayId, Chunk, ChunkCoords, ChunkDescriptor, ChunkKey};
use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::sync::Arc;

// A child of this module, so the fenced methods keep their private access.
#[path = "bench_only.rs"]
mod bench_only;
pub use bench_only::{ChunkCompaction, ChunkRetraction};

/// Salt mixed into the chunk-key hash so the replica ring start is
/// decorrelated from the diversion ring start, which takes the same key's
/// hash unsalted ([`Cluster::divert_route`]).
const REPLICA_ROUTE_SALT: u64 = 0x9e37_79b9_85eb_ca77;

/// Running moments of the per-node byte loads, maintained incrementally so
/// the balance census after every insert is O(1) instead of a rescan of
/// every host (the paper's per-insert RSD probe, made cheap).
///
/// Exact in integers: with total stored bytes below 2^64 (guaranteed by
/// the `u64` byte ledgers), `n·Σx² − (Σx)²` fits in `u128`, so uniform
/// loads yield exactly zero variance — no floating-point cancellation.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct BalanceStats {
    /// Σ load over nodes.
    sum: u128,
    /// Σ load² over nodes.
    sumsq: u128,
}

impl BalanceStats {
    #[inline]
    pub(crate) fn on_change(&mut self, old: u64, new: u64) {
        self.sum = self.sum - u128::from(old) + u128::from(new);
        self.sumsq =
            self.sumsq - u128::from(old) * u128::from(old) + u128::from(new) * u128::from(new);
    }

    /// Population relative standard deviation over `n` nodes.
    fn rsd(&self, n: usize) -> f64 {
        if n == 0 || self.sum == 0 {
            return 0.0;
        }
        // rsd = sqrt(var)/mean = sqrt(n·Σx² − (Σx)²) / Σx.
        let num = (n as u128 * self.sumsq).saturating_sub(self.sum * self.sum);
        (num as f64).sqrt() / self.sum as f64
    }
}

/// The cluster: an append-only roster of nodes and the authoritative
/// placement index, which holds every chunk's one [`Slot`]: its record
/// and the node holding it, or that a crash lost it.
///
/// The first node doubles as the **coordinator** (§3.4: "inserts are
/// submitted to a coordinator node, and it distributes the incoming chunks
/// over the entire cluster").
///
/// Placement lookups and inserts are O(1) for arrays registered via
/// [`Cluster::register_array`] (lookups allocation-free, inserts only
/// when the record slab grows); unregistered arrays fall back to the
/// ordered spill map, O(log n). The per-insert balance census
/// ([`Cluster::balance_rsd`]) is O(1) thanks to incrementally maintained
/// load moments.
#[derive(Debug, Clone)]
pub struct Cluster {
    pub(crate) nodes: Vec<Node>,
    pub(crate) placement: PlacementIndex,
    pub(crate) cost: CostModel,
    pub(crate) balance: BalanceStats,
    /// Replication factor `k`: total copies (primary + k−1 replicas) each
    /// placed chunk targets. `1` (the default) is the pre-replication
    /// behavior, bit-for-bit.
    pub(crate) replication: usize,
    /// The replica index, the only book of who holds a copy: which nodes
    /// carry a secondary copy of each chunk, in replica-route order. A
    /// holder serves the chunk's one record (the primary's) and ledgers
    /// its bytes in [`Node::replica_bytes`]. Empty at `k = 1`. Written
    /// only by `add_holder` and `drop_holder`, which move the holder's
    /// ledger and the census with it.
    pub(crate) replicas: BTreeMap<ChunkKey, Vec<NodeId>>,
    /// Nodes in the terminal `Retired` state. They keep their roster slot
    /// (node ids are join-order indices and every hash route takes
    /// `nodes.len()` as its modulus) but leave every census denominator;
    /// tracked as a counter so [`Cluster::balance_rsd`] stays O(1).
    pub(crate) retired: usize,
    /// Placed chunks by number of serving copies — the replica census.
    /// Placement and eviction move a chunk in or out of it, a crash that
    /// loses one moves it to zero; `add_holder` and `drop_holder` move it
    /// as its holders change (see [`crate::census`]).
    pub(crate) copies: CopyTally,
}

impl Cluster {
    /// A cluster of `node_count` empty nodes of equal `capacity_bytes`.
    pub fn new(node_count: usize, capacity_bytes: u64, cost: CostModel) -> Result<Self> {
        Cluster::with_replication(node_count, capacity_bytes, cost, 1)
    }

    /// Like [`Cluster::new`], with a replication factor `k` (clamped to
    /// ≥ 1): every subsequently placed chunk targets `k` copies on `k`
    /// distinct nodes — the primary where the partitioner routed it, plus
    /// `k−1` replicas on a deterministic secondary route derived from the
    /// chunk key. Fewer eligible nodes than `k` means fewer copies (the
    /// census reflects the effective target).
    pub fn with_replication(
        node_count: usize,
        capacity_bytes: u64,
        cost: CostModel,
        replication: usize,
    ) -> Result<Self> {
        if node_count == 0 {
            return Err(ClusterError::EmptyCluster);
        }
        let nodes = (0..node_count as u32).map(|i| Node::new(NodeId(i), capacity_bytes)).collect();
        Ok(Cluster {
            nodes,
            placement: PlacementIndex::new(),
            cost,
            balance: BalanceStats::default(),
            replication: replication.max(1),
            replicas: BTreeMap::new(),
            retired: 0,
            copies: CopyTally::default(),
        })
    }

    /// Register the chunk-grid extents of an array so its placements use
    /// the dense O(1) index. Optional — unregistered arrays work through
    /// the ordered spill map — and a performance hint only: coordinates
    /// beyond the extents (unbounded dimensions outgrowing the hint) spill
    /// there transparently. Returns whether the dense grid was installed.
    pub fn register_array(&mut self, array: ArrayId, chunk_extents: &[i64]) -> bool {
        self.placement.register_dense(array, chunk_extents)
    }

    /// The cost model in force.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// The coordinator node: the first node still in service (§3.4's
    /// insert distributor). With no faults this is always node 0, the
    /// pre-fault behavior; after node 0 crashes the next serving node in
    /// join order deterministically takes over.
    pub fn coordinator(&self) -> NodeId {
        self.nodes.iter().find(|n| n.state().serves_reads()).map_or(self.nodes[0].id, |n| n.id)
    }

    /// Whether any node is out of full service — the cheap guard callers
    /// check before paying for route diversion.
    pub fn has_faulted_nodes(&self) -> bool {
        self.nodes.iter().any(|n| n.state() != NodeState::Healthy)
    }

    /// Transition a `Healthy` node to `Draining`: it keeps serving reads
    /// but stops accepting placements, replicas, and repairs — the
    /// scale-IN preparation state.
    pub fn start_draining(&mut self, id: NodeId) -> Result<()> {
        self.transition(id, &[NodeState::Healthy], NodeState::Draining)
    }

    /// Revive a `Crashed` node into `Recovering`: it rejoins empty,
    /// accepts data again (that is how it refills), and serves what it
    /// holds until [`Cluster::mark_recovered`] promotes it.
    pub fn revive_node(&mut self, id: NodeId) -> Result<()> {
        self.transition(id, &[NodeState::Crashed], NodeState::Recovering)
    }

    /// Return a `Recovering` (or `Draining`, cancelling the drain) node
    /// to full `Healthy` service.
    pub fn mark_recovered(&mut self, id: NodeId) -> Result<()> {
        let from = [NodeState::Recovering, NodeState::Draining];
        self.transition(id, &from, NodeState::Healthy)
    }

    /// The node lifecycle rule: move node `id` to `to` if its state is
    /// one of `from`; otherwise refuse, naming the state it is in.
    fn transition(&mut self, id: NodeId, from: &[NodeState], to: NodeState) -> Result<()> {
        let node = self.nodes.get_mut(id.slot()).ok_or(ClusterError::UnknownNode(id.0))?;
        if !from.contains(&node.state()) {
            return Err(ClusterError::NodeUnavailable { node: id.0, state: node.state() });
        }
        node.set_state(to);
        Ok(())
    }

    /// Current node count, retired slots included (the roster is
    /// append-only; see [`Cluster::active_node_count`] for the census
    /// denominator).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Nodes still part of the working set — everything not `Retired`.
    /// O(1): the denominator of [`Cluster::balance_rsd`] and the count a
    /// provisioner sizes the cluster by after scale-IN.
    pub fn active_node_count(&self) -> usize {
        self.nodes.len() - self.retired
    }

    /// Node ids in join order.
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.nodes.iter().map(|n| n.id).collect()
    }

    /// Borrow a node.
    pub fn node(&self, id: NodeId) -> Result<&Node> {
        self.nodes.get(id.slot()).ok_or(ClusterError::UnknownNode(id.0))
    }

    /// Iterate all nodes in join order.
    pub fn nodes(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter()
    }

    /// Append `count` fresh nodes; returns their ids.
    pub fn add_nodes(&mut self, count: usize, capacity_bytes: u64) -> Vec<NodeId> {
        let mut added = Vec::with_capacity(count);
        for _ in 0..count {
            let id = NodeId(self.nodes.len() as u32);
            self.nodes.push(Node::new(id, capacity_bytes));
            added.push(id);
        }
        // New nodes carry zero load: Σx and Σx² are unchanged.
        added
    }

    /// The node a placed chunk's slot names — its home, or the wreck of
    /// a lost one. O(1).
    pub fn locate(&self, key: &ChunkKey) -> Option<NodeId> {
        self.placement.node(key)
    }

    /// Place a brand-new chunk on `node`: its record takes a slot of the
    /// placement index's slab. O(1) for registered arrays at `k = 1`,
    /// allocating only when the slab grows; with `k ≥ 2` the chunk's
    /// replica set is admitted on its deterministic secondary route as
    /// well. A key already placed is refused, changing nothing:
    /// [`ClusterError::ChunkLost`] when a crash lost it — new cells there
    /// would answer the lost cells' box as if nothing were missing — and
    /// [`ClusterError::DuplicateChunk`] otherwise.
    pub fn place(&mut self, desc: ChunkDescriptor, node: NodeId) -> Result<()> {
        let n = self.nodes.get(node.slot()).ok_or(ClusterError::UnknownNode(node.0))?;
        if !n.state().accepts_data() {
            return Err(ClusterError::NodeUnavailable { node: node.0, state: n.state() });
        }
        let record = Resident::new(desc, None);
        if self.placement.insert(desc.key, Slot::Placed { home: node, record }).is_err() {
            return Err(self.taken(desc.key));
        }
        self.ledger(node, |n| n.admit(1, desc.bytes));
        self.copies.add(1, 1);
        if self.replication > 1 {
            self.top_up_replicas(&desc.key, None);
        }
        Ok(())
    }

    /// Why placing `key`, which is placed, was refused.
    fn taken(&self, key: ChunkKey) -> ClusterError {
        match self.placement.get(&key) {
            Some(Slot::Lost { .. }) => ClusterError::ChunkLost(key),
            Some(Slot::Placed { .. }) | None => ClusterError::DuplicateChunk(key),
        }
    }

    /// Edit node `id`'s books through `edit`, with the balance moments
    /// following its primary ledger: every change to a node's
    /// [`Node::used_bytes`] after a restore goes through here.
    fn ledger(&mut self, id: NodeId, edit: impl FnOnce(&mut Node)) {
        let n = &mut self.nodes[id.slot()];
        let old = n.used_bytes();
        edit(n);
        self.balance.on_change(old, n.used_bytes());
    }

    /// Which nodes hold a secondary copy of `key`, in replica-route
    /// order. Empty at `k = 1` or for unreplicated chunks. O(log n) and
    /// allocation-free.
    pub fn replica_holders(&self, key: &ChunkKey) -> &[NodeId] {
        self.replicas.get(key).map_or(&[], |v| v.as_slice())
    }

    /// Place a whole routed batch (`batch[i]` → `routes[i]`) in one pass,
    /// in batch order. The state it leaves is bit-identical to one
    /// [`Cluster::place`] per chunk over the batch.
    ///
    /// The batch reserves one slab slot per chunk, files each key under
    /// its slot in batch order, then fills the slots and admits each
    /// node's chunk and byte totals once. The balance moments are
    /// integers, so [`Cluster::balance_rsd`] stays O(1) and exact.
    ///
    /// On a key already placed, or listed twice, the batch is **rolled
    /// back** entirely: the keys filed before it are unfiled and the
    /// reserved slots freed, leaving the cluster unchanged. The error
    /// names that first (lowest-index) offending key, refused as
    /// [`Cluster::place`] refuses it.
    pub fn place_all(&mut self, batch: &[ChunkDescriptor], routes: &[NodeId]) -> Result<()> {
        assert_eq!(batch.len(), routes.len(), "each chunk needs exactly one route");
        if batch.is_empty() {
            return Ok(());
        }
        let node_count = self.nodes.len();
        if let Some(bad) = routes.iter().find(|r| r.slot() >= node_count) {
            return Err(ClusterError::UnknownNode(bad.0));
        }
        if self.has_faulted_nodes() {
            if let Some(bad) = routes.iter().find(|r| !self.nodes[r.slot()].state().accepts_data())
            {
                let state = self.nodes[bad.slot()].state();
                return Err(ClusterError::NodeUnavailable { node: bad.0, state });
            }
        }
        let slots = self.placement.reserve(batch.len());
        // Per-node `(chunks, bytes)` of the batch, admitted once per node.
        let mut loads = vec![(0usize, 0u64); node_count];
        for (i, (desc, route)) in batch.iter().zip(routes).enumerate() {
            if self.placement.file(desc.key, slots[i]).is_err() {
                self.placement.rollback(batch[..i].iter().map(|d| &d.key), &slots);
                return Err(self.taken(desc.key));
            }
            let load = &mut loads[route.slot()];
            *load = (load.0 + 1, load.1.saturating_add(desc.bytes));
        }
        let records = batch.iter().map(|desc| Resident::new(*desc, None));
        self.placement.settle(&slots, routes, records);
        for (idx, (chunks, bytes)) in loads.into_iter().enumerate() {
            if chunks > 0 {
                self.ledger(self.nodes[idx].id, |n| n.admit(chunks, bytes));
            }
        }

        // Every primary landed on a node that accepts data, so each chunk
        // enters the census with that one copy. Replica admission rides
        // after the primary batch: the secondary route is a pure function
        // of each key, and the k=1 hot path never pays for it.
        self.copies.add(1, batch.len());
        if self.replication > 1 {
            for desc in batch {
                self.top_up_replicas(&desc.key, None);
            }
        }
        Ok(())
    }

    /// Attach the materialized payload of an already-placed chunk to its
    /// record. The payload then follows the descriptor through every
    /// rebalance move, and every replica holder serves it. Fails when the
    /// chunk is not placed ([`ClusterError::MissingChunk`]) or lost
    /// ([`ClusterError::ChunkLost`]), when the cells are already attached
    /// ([`ClusterError::PayloadExists`]), or when the
    /// payload's actual [`Chunk::byte_size`] / [`Chunk::cell_count`]
    /// disagree with what the placed descriptor declares
    /// ([`ClusterError::PayloadMismatch`]) — the materialized ingest path
    /// derives descriptors *from* payloads, so a mismatch means the
    /// metadata model and the cells drifted apart. A failed attach
    /// changes nothing.
    ///
    /// Accepts either an owned `Chunk` or a shared `Arc<Chunk>` handle:
    /// the ingest pipeline passes the handle its chunk build produced, so
    /// attaching is a refcount bump — never a cell copy. The descriptor
    /// does not change, so no ledger moves.
    pub fn attach_payload(&mut self, key: ChunkKey, chunk: impl Into<Arc<Chunk>>) -> Result<()> {
        let chunk = chunk.into();
        let (_, slot, record) = self.primary_record(&key)?;
        let desc = record.descriptor();
        if desc.bytes != chunk.byte_size() || desc.cells != chunk.cell_count() {
            return Err(ClusterError::PayloadMismatch(Box::new(crate::error::PayloadMismatch {
                key,
                descriptor_bytes: desc.bytes,
                payload_bytes: chunk.byte_size(),
                descriptor_cells: desc.cells,
                payload_cells: chunk.cell_count(),
            })));
        }
        if record.payload().is_some() {
            return Err(ClusterError::PayloadExists(key));
        }
        *self.record_mut(slot).payload_slot() = Some(chunk);
        Ok(())
    }

    /// The materialized payload of a chunk, read from its record.
    pub fn payload(&self, key: &ChunkKey) -> Option<&Chunk> {
        self.primary_payload(key).ok().map(Arc::as_ref)
    }

    /// Execute a rebalance plan, validating each move against the actual
    /// placement, and return the flow set that timed it.
    ///
    /// Replica sets move with their chunks: a destination already holding
    /// a replica of the moved chunk sheds it (the arriving primary
    /// supersedes it), and after the moves every relocated chunk's
    /// replica set is topped back up to `k−1` distinct copies, with the
    /// repair transfers pushed into the **same** returned [`FlowSet`] so
    /// reorganization time stays honest about replication upkeep.
    pub fn apply_rebalance(&mut self, plan: &RebalancePlan) -> Result<FlowSet> {
        // Validate first so a bad plan leaves the cluster untouched.
        for m in &plan.moves {
            let (actual, ..) = self.primary_record(&m.key)?;
            if actual != m.from {
                return Err(ClusterError::WrongSource {
                    key: m.key,
                    claimed: m.from.0,
                    actual: actual.0,
                });
            }
            let Some(dst) = self.nodes.get(m.to.slot()) else {
                return Err(ClusterError::UnknownNode(m.to.0));
            };
            if !dst.state().accepts_data() {
                return Err(ClusterError::NodeUnavailable { node: m.to.0, state: dst.state() });
            }
        }
        let mut flows = FlowSet::new();
        for m in &plan.moves {
            // The validation pass found the record on `m.from`, and a plan
            // moves a key once: the move rewrites the record's home.
            let (home, slot, record) = self.primary_record(&m.key).expect("validated above");
            debug_assert_eq!(home, m.from, "a plan moves a key once");
            // Materialized chunks time the wire transfer off the payload's
            // actual size (identical to desc.bytes by the attach-time
            // invariant, but read from the cells to keep the flow honest).
            let bytes = record.descriptor().bytes;
            flows.push(m.from, m.to, record.payload().map_or(bytes, |c| c.byte_size()));
            // The destination may have held a replica of this chunk; the
            // arriving primary supersedes it, one copy fewer until the
            // top-up below. The move itself changes only an address.
            self.drop_holder(&m.key, m.to, bytes);
            self.placement.rehome(slot, m.to);
            self.ledger(m.from, |n| n.release(bytes));
            self.ledger(m.to, |n| n.admit(1, bytes));
        }
        if self.replication > 1 {
            for m in &plan.moves {
                self.top_up_replicas(&m.key, Some(&mut flows));
            }
        }
        Ok(flows)
    }

    /// Top `key`'s replica set up to `k−1` distinct holders (fewer when
    /// the roster is too small, which the census reports as the effective
    /// target): the next nodes of its [`Cluster::replica_ring`] are each
    /// added with [`Cluster::add_holder`]. With `flows`, every new copy
    /// is one repair transfer from the primary.
    fn top_up_replicas(&mut self, key: &ChunkKey, mut flows: Option<&mut FlowSet>) {
        let Ok((primary, _, record)) = self.primary_record(key) else { return };
        let bytes = record.descriptor().bytes;
        let missing = (self.replication - 1).saturating_sub(self.replica_holders(key).len());
        let fresh: Vec<NodeId> = self.replica_ring(key).take(missing).collect();
        for node in fresh {
            self.add_holder(key, node, bytes);
            if let Some(flows) = flows.as_deref_mut() {
                flows.push(primary, node, bytes);
            }
        }
    }

    /// Name `node` a holder of `key` (after the holders it has, so ring
    /// order is kept): the replica index lists it, its replica ledger
    /// takes the chunk's `bytes`, and the census counts the copy. One of
    /// the two writers of the replica books; [`Cluster::drop_holder`] is
    /// the other.
    pub(crate) fn add_holder(&mut self, key: &ChunkKey, node: NodeId, bytes: u64) {
        let copies = self.serving_copies(key);
        self.replicas.entry(*key).or_default().push(node);
        self.nodes[node.slot()].reledger_held(0, bytes);
        self.retally(key, copies);
    }

    /// Strike `node` from `key`'s holders (the whole index entry once its
    /// last holder goes), take the chunk's `bytes` off its replica ledger
    /// and move the census. The inverse of [`Cluster::add_holder`]; a
    /// node that is not a holder changes nothing.
    fn drop_holder(&mut self, key: &ChunkKey, node: NodeId, bytes: u64) {
        if !self.replica_holders(key).contains(&node) {
            return;
        }
        let copies = self.serving_copies(key);
        if let Some(holders) = self.replicas.get_mut(key) {
            holders.retain(|&h| h != node);
            if holders.is_empty() {
                self.replicas.remove(key);
            }
        }
        self.nodes[node.slot()].reledger_held(bytes, 0);
        self.retally(key, copies);
    }

    /// Strike `node` from every replica set it is in, in key order, each
    /// through [`Cluster::drop_holder`] while the node still serves; the
    /// chunks it held. A crash and a retirement start here.
    fn strike_holder(&mut self, node: NodeId) -> Vec<ChunkKey> {
        let held = self.replicas.iter().filter(|(_, holders)| holders.contains(&node));
        let keys: Vec<ChunkKey> = held.map(|(key, _)| *key).collect();
        for key in &keys {
            let bytes = self.primary_record(key).map_or(0, |(.., r)| r.descriptor().bytes);
            self.drop_holder(key, node, bytes);
        }
        keys
    }

    /// Crash `id`: strike it from every replica set, fail its primaries
    /// over to surviving holders, wipe its store (the failure model is
    /// fail-stop with total local-storage loss) and mark it `Crashed`.
    ///
    /// For every lost primary with at least one surviving holder, the
    /// first in replica-route order is **promoted** deterministically:
    /// the chunk's record (the very one the holder served) is rehomed
    /// onto it in the placement index, and the byte ledgers follow
    /// (promotion is a local bookkeeping flip — the bytes are already on
    /// the node — so it records no flow). Promotion is synchronous, so a
    /// primary that does not serve never has a serving replica. A chunk
    /// with no surviving copy becomes [`Slot::Lost`], and is reported
    /// lost.
    ///
    /// Refuses to crash the last serving node
    /// ([`ClusterError::NoHealthyNodes`]) or an already-crashed one.
    pub fn crash_node(&mut self, id: NodeId) -> Result<CrashReport> {
        let state = self.nodes.get(id.slot()).ok_or(ClusterError::UnknownNode(id.0))?.state();
        if matches!(state, NodeState::Crashed | NodeState::Retired) {
            return Err(ClusterError::NodeUnavailable { node: id.0, state });
        }
        if !self.nodes.iter().any(|n| n.id != id && n.state().serves_reads()) {
            return Err(ClusterError::NoHealthyNodes);
        }
        // The books move while the node still serves: each copy it held
        // is one fewer, and a promotion trades the first holder's copy
        // for this node's primary, one fewer as well.
        let dropped_replicas = self.strike_holder(id).len();
        let held = self.placement.placed(Some(id));
        let held: Vec<ChunkDescriptor> = held.into_iter().map(|r| *r.descriptor()).collect();
        let lost_primaries = held.len();
        let mut lost = Vec::new();
        for desc in held {
            let slot = self.placement.slot(&desc.key).expect("a held chunk is placed");
            if let Some(&h) = self.replica_holders(&desc.key).first() {
                self.drop_holder(&desc.key, h, desc.bytes);
                self.placement.rehome(slot, h);
                self.ledger(h, |n| n.admit(1, desc.bytes));
            } else {
                // Its one serving copy goes with the node.
                *self.placement.at_mut(slot) = Slot::Lost { wreck: id };
                self.retally(&desc.key, 1);
                lost.push(desc.key);
            }
        }
        self.ledger(id, |n| {
            n.wipe();
            n.set_state(NodeState::Crashed);
        });
        Ok(CrashReport {
            node: id,
            lost_primaries,
            promoted: lost_primaries - lost.len(),
            dropped_replicas,
            lost,
        })
    }

    /// The payload handle of a placed chunk's record, or why its cells
    /// cannot be reached: [`ClusterError::MissingChunk`] (not placed),
    /// [`ClusterError::ChunkLost`], [`ClusterError::NoPayload`] (metadata
    /// only).
    pub fn primary_payload(&self, key: &ChunkKey) -> Result<&Arc<Chunk>> {
        Ok(self.payload_holder(key)?.2)
    }

    /// `key`'s slot — its home and record, or that it is lost — in one
    /// probe of the placement index; `None` when the chunk is not
    /// placed. A planned chunk resolves its node and its cells through
    /// this one call.
    #[inline]
    pub fn home(&self, key: &ChunkKey) -> Option<&Slot> {
        self.placement.get(key)
    }

    /// Every placed chunk of `array` inside the box of chunk positions
    /// `first..=last` (keys of another arity lie outside it), in
    /// ascending key order — its coordinates and its slot, as
    /// [`Cluster::home`] gives it — handed to `visit` until it breaks.
    /// One streaming walk of the placement index with no per-call
    /// buffer: it costs the box ∩ the array's registered grid, plus the
    /// spilled keys in the box.
    pub fn band<'c, B>(
        &'c self,
        array: ArrayId,
        first: &ChunkCoords,
        last: &ChunkCoords,
        visit: impl FnMut(&ChunkCoords, &'c Slot) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        self.placement.band(array, first, last, visit)
    }

    /// The descriptor on `key`'s record, when it is placed and not lost.
    pub fn descriptor(&self, key: &ChunkKey) -> Option<&ChunkDescriptor> {
        self.primary_record(key).ok().map(|(.., record)| record.descriptor())
    }

    /// The records of the primaries `id` holds, in key order — read off
    /// the placement index, which is the only book of where a chunk is.
    /// O(placed chunks + m log m) for the node's `m`: reorganization,
    /// recovery and reporting paths, not a per-chunk loop.
    pub fn residents_on(&self, id: NodeId) -> impl Iterator<Item = &Resident> {
        self.placement.placed(Some(id)).into_iter()
    }

    /// Every record the cluster holds, in key order (a lost chunk has
    /// none).
    pub fn residents(&self) -> impl Iterator<Item = &Resident> {
        self.placement.placed(None).into_iter()
    }

    /// The node holding `key`'s primary, its slab slot and the record
    /// there — one probe of the placement index — or why there is none:
    /// [`ClusterError::MissingChunk`] (not placed) or
    /// [`ClusterError::ChunkLost`]. Every operation on a chunk's record
    /// decides a lost chunk here.
    pub(crate) fn primary_record(&self, key: &ChunkKey) -> Result<(NodeId, usize, &Resident)> {
        let slot = self.placement.slot(key).ok_or(ClusterError::MissingChunk(*key))?;
        match self.placement.at(slot) {
            Slot::Placed { home, record } => Ok((*home, slot, record)),
            Slot::Lost { .. } => Err(ClusterError::ChunkLost(*key)),
        }
    }

    /// The record in slot `slot`, which [`Cluster::primary_record`] has
    /// just found placed, to write through.
    fn record_mut(&mut self, slot: usize) -> &mut Resident {
        match self.placement.at_mut(slot) {
            Slot::Placed { record, .. } => record,
            Slot::Lost { .. } => unreachable!("primary_record refuses a lost chunk"),
        }
    }

    /// [`Cluster::primary_record`] with the cells on the record in its
    /// place (see [`Cluster::primary_payload`]).
    fn payload_holder(&self, key: &ChunkKey) -> Result<(NodeId, usize, &Arc<Chunk>)> {
        let (home, slot, record) = self.primary_record(key)?;
        Ok((home, slot, record.payload().ok_or(ClusterError::NoPayload(*key))?))
    }

    /// Replace a placed chunk's payload with `chunk` — a rebuilt version
    /// of the cells already there (rows tombstoned, storage compacted).
    /// The record takes this handle and its descriptor is resized to the
    /// handle's `byte_size()` / `cell_count()`; the primary's ledger, the
    /// census and each holder's replica ledger follow by the byte delta,
    /// so `desc.bytes == chunk.byte_size()` keeps holding. Fails,
    /// changing nothing, when the chunk is not placed
    /// ([`ClusterError::MissingChunk`]), lost ([`ClusterError::ChunkLost`])
    /// or metadata only ([`ClusterError::NoPayload`]).
    pub fn install_payload(&mut self, key: &ChunkKey, chunk: Arc<Chunk>) -> Result<()> {
        let (home, slot, _) = self.payload_holder(key)?;
        let desc = ChunkDescriptor::new(*key, chunk.byte_size(), chunk.cell_count());
        let record = self.record_mut(slot);
        let old = record.resize(desc);
        *record.payload_slot() = Some(chunk);
        self.ledger(home, |n| n.resize(old.bytes, desc.bytes));
        // The holders keep their copies, resized: the one replica-ledger
        // write outside `add_holder`/`drop_holder`. Field-level split
        // borrow: the holders are `self.replicas`, the ledgers live in
        // `self.nodes`.
        for h in self.replicas.get(key).into_iter().flatten() {
            self.nodes[h.slot()].reledger_held(old.bytes, desc.bytes);
        }
        Ok(())
    }

    /// Evict a chunk from the cluster entirely — placement entry, record
    /// (descriptor and payload), and every holder's copy. The inverse of
    /// [`Cluster::place`] and the retraction path's end state: once a
    /// chunk's last live cell is gone, keeping it would pin a placement
    /// slot, descriptor bytes, and replica upkeep forever. A lost chunk
    /// is refused ([`ClusterError::ChunkLost`]).
    pub fn evict_chunk(&mut self, key: &ChunkKey) -> Result<ChunkEviction> {
        let (node, _, record) = self.primary_record(key)?;
        let desc = *record.descriptor();
        let replicas_dropped = self.replica_holders(key).len();
        while let Some(&h) = self.replica_holders(key).last() {
            self.drop_holder(key, h, desc.bytes);
        }
        self.copies.remove(self.serving_copies(key));
        self.placement.remove(key);
        self.ledger(node, |n| n.release(desc.bytes));
        Ok(ChunkEviction { node, bytes: desc.bytes, cells: desc.cells, replicas_dropped })
    }

    /// Plan the rebalance that empties `id` of primary chunks: each chunk
    /// (in ascending key order) goes to the least-loaded node that still
    /// accepts data, with earlier moves in the plan counted into the
    /// projected loads and ties broken toward the lower node id — the
    /// plan is deterministic and keeps the post-drain census tight. The
    /// node is typically `Draining`; the plan is only computed here,
    /// [`Cluster::apply_rebalance`] executes it through the same flow
    /// solver scale-OUT uses.
    pub fn plan_drain(&self, id: NodeId) -> Result<RebalancePlan> {
        let node = self.node(id)?;
        let mut projected: Vec<(u64, NodeId)> = self
            .nodes
            .iter()
            .filter(|n| n.id != id && n.state().accepts_data())
            .map(|n| (n.used_bytes(), n.id))
            .collect();
        if projected.is_empty() && node.chunk_count() > 0 {
            return Err(ClusterError::NoHealthyNodes);
        }
        let mut plan = RebalancePlan::empty();
        for desc in self.residents_on(id).map(Resident::descriptor) {
            let dest = {
                // The loop body runs only when the node has chunks, and
                // then the check above required a destination.
                let best = projected
                    .iter_mut()
                    .min_by_key(|e| (e.0, e.1 .0))
                    .expect("destinations checked nonempty above");
                best.0 += desc.bytes;
                best.1
            };
            plan.push(desc.key, id, dest, desc.bytes);
        }
        Ok(plan)
    }

    /// Retire a drained node — terminal scale-IN. The node must hold no
    /// primary chunks ([`ClusterError::RetireNonEmpty`]; run
    /// [`Cluster::plan_drain`] + [`Cluster::apply_rebalance`] first). Its
    /// replica copies are dropped with their ledgers, and the affected
    /// replica sets are topped back up on the shrunken roster; the repair
    /// transfers come back as a flow set so release time stays honest.
    ///
    /// The node keeps its roster **slot** — ids are join-order indices
    /// and every hash route takes `nodes.len()` as its modulus — but
    /// leaves every census denominator and never serves or accepts
    /// anything again. Refuses to retire the last serving node.
    pub fn retire_node(&mut self, id: NodeId) -> Result<FlowSet> {
        let idx = id.slot();
        let node = self.nodes.get(idx).ok_or(ClusterError::UnknownNode(id.0))?;
        match node.state() {
            NodeState::Healthy | NodeState::Draining => {}
            state => return Err(ClusterError::NodeUnavailable { node: id.0, state }),
        }
        if node.chunk_count() > 0 {
            return Err(ClusterError::RetireNonEmpty { node: id.0, chunks: node.chunk_count() });
        }
        if !self.nodes.iter().any(|n| n.id != id && n.state().serves_reads()) {
            return Err(ClusterError::NoHealthyNodes);
        }
        let replica_keys = self.strike_holder(id);
        self.nodes[idx].set_state(NodeState::Retired);
        self.retired += 1;
        debug_assert_eq!(self.nodes[idx].used_bytes(), 0, "an empty node carries no load");
        let mut flows = FlowSet::new();
        for key in &replica_keys {
            self.top_up_replicas(key, Some(&mut flows));
        }
        Ok(flows)
    }

    /// Scale the cluster IN by one node, end to end:
    /// [`Cluster::start_draining`] → [`Cluster::plan_drain`] →
    /// [`Cluster::apply_rebalance`] (the same flow solver every scale-OUT
    /// reorganization uses) → [`Cluster::retire_node`]. On any failure
    /// along the way the drain is cancelled — the node returns to
    /// `Healthy` — and the error propagates, so a failed decommission
    /// always leaves a working cluster.
    pub fn decommission_node(&mut self, id: NodeId) -> Result<DecommissionReport> {
        self.start_draining(id)?;
        let mut run = || -> Result<DecommissionReport> {
            let plan = self.plan_drain(id)?;
            let moved_chunks = plan.len();
            let drained_bytes = plan.moved_bytes();
            let mut flows = self.apply_rebalance(&plan)?;
            let repair = self.retire_node(id)?;
            flows.merge(&repair);
            Ok(DecommissionReport { node: id, moved_chunks, drained_bytes, flows })
        };
        match run() {
            Ok(report) => Ok(report),
            Err(e) => {
                if self.nodes[id.slot()].state() == NodeState::Draining {
                    // `mark_recovered` accepts exactly this state.
                    self.mark_recovered(id).expect("draining cancels back to healthy");
                }
                Err(e)
            }
        }
    }

    /// Deterministic stand-in for a route that targets an out-of-service
    /// node: ring-walk from the chunk-key hash to the first node that
    /// accepts data. `None` only when no node accepts data at all.
    pub fn divert_route(&self, key: &ChunkKey) -> Option<NodeId> {
        let len = self.nodes.len();
        let start = (key_hash(key) % len as u64) as usize;
        (0..len)
            .map(|step| &self.nodes[(start + step) % len])
            .find(|n| n.state().accepts_data())
            .map(|n| n.id)
    }

    /// Check what the placement and replica indexes must keep true; the
    /// post-recovery and post-restore consistency gate. Every placed
    /// slot's home serves reads (so a lost chunk is the only one no read
    /// reaches); every replicated key is placed, not lost, and its
    /// holders are distinct roster nodes that serve reads and are not the
    /// primary — so no read ever needs to fail over. Returns the first
    /// violation as a typed error ([`ClusterError::DuplicateChunk`] for a
    /// second copy on one node).
    /// Debug builds also audit the kept replica census against its
    /// definition (see the `census` module), and each node's books — its
    /// primary count and both byte ledgers — against the records the
    /// placement and replica indexes put on it.
    pub fn verify_replica_books(&self) -> Result<()> {
        debug_assert_eq!(self.copies, self.walked_copies(), "replica census drifted");
        let mut homes = self.placement.homes().map(|home| &self.nodes[home.slot()]);
        if let Some(node) = homes.find(|node| !node.state().serves_reads()) {
            return Err(ClusterError::NodeUnavailable { node: node.id.0, state: node.state() });
        }
        for (key, holders) in &self.replicas {
            let primary = self.primary_record(key)?.0;
            for (i, h) in holders.iter().enumerate() {
                if *h == primary || holders[..i].contains(h) {
                    return Err(ClusterError::DuplicateChunk(*key));
                }
                let state = self.node(*h)?.state();
                if !state.serves_reads() {
                    return Err(ClusterError::NodeUnavailable { node: h.0, state });
                }
            }
        }
        if cfg!(debug_assertions) {
            let bytes = |records: &[&Resident]| {
                records.iter().fold(0u64, |sum, r| sum.saturating_add(r.descriptor().bytes))
            };
            let books = self.primary_records().into_iter().zip(self.held_records());
            for (node, (primaries, held)) in self.nodes.iter().zip(books) {
                let kept = (node.chunk_count(), node.used_bytes(), node.replica_bytes());
                let derived = (primaries.len(), bytes(&primaries), bytes(&held));
                debug_assert_eq!(kept, derived, "the books of {} drifted", node.id);
            }
        }
        Ok(())
    }

    /// Per roster slot, the records of the primaries that node holds, in
    /// key order: what its checkpoint section lists. One pass over the
    /// placement index for the whole roster.
    pub(crate) fn primary_records(&self) -> Vec<Vec<&Resident>> {
        let mut primaries = vec![Vec::new(); self.nodes.len()];
        for record in self.placement.placed(None) {
            let home = self.placement.node(&record.descriptor().key).expect("a placed key");
            primaries[home.slot()].push(record);
        }
        primaries
    }

    /// Per roster slot, the records of the chunks that node holds a
    /// replica of, in key order: what its checkpoint section lists and
    /// what its replica ledger sums.
    pub(crate) fn held_records(&self) -> Vec<Vec<&Resident>> {
        let mut held = vec![Vec::new(); self.nodes.len()];
        for (key, holders) in &self.replicas {
            // A replicated key's record is resident (`verify_replica_books`).
            let Ok((_, _, record)) = self.primary_record(key) else { continue };
            for h in holders {
                held[h.slot()].push(record);
            }
        }
        held
    }

    /// Per-node stored bytes, in join order. The input to every balance
    /// metric and to the skew-aware partitioners.
    pub fn loads(&self) -> Vec<u64> {
        self.nodes.iter().map(Node::used_bytes).collect()
    }

    /// Per-node chunk counts, in join order.
    pub fn chunk_counts(&self) -> Vec<usize> {
        self.nodes.iter().map(Node::chunk_count).collect()
    }

    /// Total bytes stored across the cluster. O(1).
    pub fn total_used(&self) -> u64 {
        self.balance.sum as u64
    }

    /// Total capacity across the active cluster (N × c). Retired nodes
    /// contribute nothing: their hardware has been released.
    pub fn total_capacity(&self) -> u64 {
        self.nodes.iter().filter(|n| !n.state().is_retired()).map(|n| n.capacity_bytes).sum()
    }

    /// The paper's balance census: relative standard deviation of per-node
    /// stored bytes. O(1) — maintained incrementally across placements and
    /// rebalances, so probing it after every insert costs nothing.
    /// Agrees exactly with [`crate::metrics::relative_std_dev`] over
    /// [`Cluster::loads`].
    /// Retired nodes leave the denominator: a shrunken cluster's census
    /// ranges over the nodes that can still hold data, so scale-IN does
    /// not deflate the RSD with permanently-zero loads.
    pub fn balance_rsd(&self) -> f64 {
        self.balance.rsd(self.active_node_count())
    }

    /// Number of resident chunks cluster-wide. O(1).
    pub fn total_chunks(&self) -> usize {
        self.placement.len()
    }

    /// Every `(key, node)` placement in deterministic (ascending key)
    /// order. Materializes a sorted snapshot — O(n) over dense-indexed
    /// arrays — so it belongs in reorganization and reporting paths, not
    /// per-chunk loops.
    pub fn placements(&self) -> impl Iterator<Item = (ChunkKey, NodeId)> {
        self.placement.collect_sorted().into_iter()
    }

    /// `key`'s deterministic secondary route: the nodes that may take a
    /// new replica of it, in ring order from a salted hash of the key —
    /// every node that accepts data, but for the primary and the current
    /// holders. Placement-time replica routing, rebalance top-up, repair
    /// planning and repair-target fallback all take their nodes from the
    /// front of this one walk.
    pub(crate) fn replica_ring(&self, key: &ChunkKey) -> impl Iterator<Item = NodeId> + '_ {
        let len = self.nodes.len();
        // The roster is never empty and the remainder is below its length.
        let start = (splitmix64(key_hash(key) ^ REPLICA_ROUTE_SALT) % len as u64) as usize;
        let (primary, holders) = (self.placement.node(key), self.replica_holders(key));
        (0..len)
            .map(move |step| &self.nodes[(start + step) % len])
            .filter(move |n| {
                n.state().accepts_data() && Some(n.id) != primary && !holders.contains(&n.id)
            })
            .map(|n| n.id)
    }
}

/// What a node crash cost, as reported by [`Cluster::crash_node`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashReport {
    /// The node that crashed.
    pub node: NodeId,
    /// Primary chunks resident there at the moment of the crash.
    pub lost_primaries: usize,
    /// Lost primaries failed over to a surviving replica copy.
    pub promoted: usize,
    /// Replica copies that vanished with the node.
    pub dropped_replicas: usize,
    /// Lost primaries with **no** surviving copy anywhere (k=1, or more
    /// simultaneous failures than `k−1`), now [`Slot::Lost`].
    pub lost: Vec<ChunkKey>,
}

/// What evicting a chunk dropped ([`Cluster::evict_chunk`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkEviction {
    /// The node the primary copy lived on.
    pub node: NodeId,
    /// Bytes the descriptor carried at eviction.
    pub bytes: u64,
    /// Cells the descriptor carried at eviction.
    pub cells: u64,
    /// Replica copies dropped alongside the primary.
    pub replicas_dropped: usize,
}

/// What one completed scale-IN decommission did
/// ([`Cluster::decommission_node`]).
#[derive(Debug, Clone)]
pub struct DecommissionReport {
    /// The node released.
    pub node: NodeId,
    /// Primary chunks rebalanced off it.
    pub moved_chunks: usize,
    /// Bytes those drain moves carried.
    pub drained_bytes: u64,
    /// Every transfer the decommission caused — the drain moves plus the
    /// replica top-ups that followed retirement — as one concurrent
    /// batch for timing.
    pub flows: FlowSet,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::relative_std_dev;
    use array_model::{ArrayId, ChunkCoords};

    fn desc(i: i64, bytes: u64) -> ChunkDescriptor {
        ChunkDescriptor::new(ChunkKey::new(ArrayId(0), ChunkCoords::new([i])), bytes, 1)
    }

    fn cluster(n: usize) -> Cluster {
        Cluster::new(n, 1_000, CostModel::default()).unwrap()
    }

    #[test]
    fn rejects_empty_cluster() {
        assert!(Cluster::new(0, 1_000, CostModel::default()).is_err());
    }

    #[test]
    fn place_and_locate() {
        let mut c = cluster(2);
        c.place(desc(1, 100), NodeId(1)).unwrap();
        assert_eq!(c.locate(&desc(1, 0).key), Some(NodeId(1)));
        assert_eq!(c.loads(), vec![0, 100]);
        assert!(matches!(c.place(desc(1, 100), NodeId(0)), Err(ClusterError::DuplicateChunk(_))));
        assert!(matches!(c.place(desc(2, 100), NodeId(9)), Err(ClusterError::UnknownNode(9))));
    }

    #[test]
    fn add_nodes_assigns_sequential_ids() {
        let mut c = cluster(2);
        let added = c.add_nodes(2, 1_000);
        assert_eq!(added, vec![NodeId(2), NodeId(3)]);
        assert_eq!(c.node_count(), 4);
        assert_eq!(c.total_capacity(), 4_000);
    }

    #[test]
    fn rebalance_moves_and_validates() {
        let mut c = cluster(3);
        c.place(desc(1, 100), NodeId(0)).unwrap();
        c.place(desc(2, 50), NodeId(0)).unwrap();

        let mut plan = RebalancePlan::empty();
        plan.push(desc(1, 100).key, NodeId(0), NodeId(2), 100);
        let flows = c.apply_rebalance(&plan).unwrap();
        assert_eq!(flows.network_bytes(), 100);
        assert_eq!(c.locate(&desc(1, 0).key), Some(NodeId(2)));
        assert_eq!(c.loads(), vec![50, 0, 100]);

        // Wrong source is rejected and leaves state intact.
        let mut bad = RebalancePlan::empty();
        bad.push(desc(2, 50).key, NodeId(1), NodeId(2), 50);
        assert!(matches!(c.apply_rebalance(&bad), Err(ClusterError::WrongSource { .. })));
        assert_eq!(c.locate(&desc(2, 0).key), Some(NodeId(0)));

        // Missing chunk is rejected.
        let mut missing = RebalancePlan::empty();
        missing.push(desc(9, 1).key, NodeId(0), NodeId(1), 1);
        assert!(matches!(c.apply_rebalance(&missing), Err(ClusterError::MissingChunk(_))));
    }

    #[test]
    fn atomic_validation_prevents_partial_application() {
        let mut c = cluster(3);
        c.place(desc(1, 10), NodeId(0)).unwrap();
        c.place(desc(2, 10), NodeId(1)).unwrap();
        let mut plan = RebalancePlan::empty();
        plan.push(desc(1, 10).key, NodeId(0), NodeId(2), 10); // fine
        plan.push(desc(2, 10).key, NodeId(0), NodeId(2), 10); // wrong source
        assert!(c.apply_rebalance(&plan).is_err());
        // first move must NOT have been applied
        assert_eq!(c.locate(&desc(1, 0).key), Some(NodeId(0)));
    }

    #[test]
    fn registered_arrays_use_the_dense_index_transparently() {
        let mut c = cluster(3);
        assert!(c.register_array(ArrayId(0), &[64]));
        for i in 0..64 {
            c.place(desc(i, 10), NodeId((i % 3) as u32)).unwrap();
        }
        // Beyond the hint: spills, still correct.
        c.place(desc(1000, 10), NodeId(0)).unwrap();
        assert_eq!(c.total_chunks(), 65);
        for i in 0..64 {
            assert_eq!(c.locate(&desc(i, 0).key), Some(NodeId((i % 3) as u32)));
        }
        assert_eq!(c.locate(&desc(1000, 0).key), Some(NodeId(0)));
        // Duplicate detection also works densely.
        assert!(matches!(c.place(desc(5, 1), NodeId(0)), Err(ClusterError::DuplicateChunk(_))));
        // placements() stays sorted.
        let keys: Vec<ChunkKey> = c.placements().map(|(k, _)| k).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn incremental_rsd_matches_full_rescan() {
        let mut c = cluster(4);
        assert_eq!(c.balance_rsd(), 0.0);
        for i in 0..100 {
            let bytes = 1 + (i as u64 * 37) % 1000;
            c.place(desc(i, bytes), NodeId((i % 4) as u32)).unwrap();
            let expected = relative_std_dev(&c.loads());
            let got = c.balance_rsd();
            assert!(
                (got - expected).abs() < 1e-12,
                "after insert {i}: incremental {got} vs rescan {expected}"
            );
        }
        // And across a rebalance.
        let mut plan = RebalancePlan::empty();
        plan.push(desc(0, 0).key, NodeId(0), NodeId(3), 1);
        c.apply_rebalance(&plan).unwrap();
        assert!((c.balance_rsd() - relative_std_dev(&c.loads())).abs() < 1e-12);
    }

    /// Drive the same stream through per-chunk `place` and through one
    /// `place_all`; every observable (sorted placements, loads, census
    /// bits) must agree.
    #[test]
    fn place_batch_is_bit_identical_to_sequential_place() {
        let stream: Vec<(i64, u64, u32)> =
            (0..500).map(|i| (i, 1 + (i as u64 * 37) % 977, (i % 3) as u32)).collect();
        let mut seq = cluster(3);
        assert!(seq.register_array(ArrayId(0), &[400])); // tail of stream spills
        for &(i, bytes, node) in &stream {
            seq.place(desc(i, bytes), NodeId(node)).unwrap();
        }
        let mut batched = cluster(3);
        assert!(batched.register_array(ArrayId(0), &[400]));
        let batch: Vec<ChunkDescriptor> =
            stream.iter().map(|&(i, bytes, _)| desc(i, bytes)).collect();
        let routes: Vec<NodeId> = stream.iter().map(|&(_, _, n)| NodeId(n)).collect();
        batched.place_all(&batch, &routes).unwrap();
        assert_eq!(batched.loads(), seq.loads());
        assert_eq!(batched.total_chunks(), seq.total_chunks());
        assert_eq!(batched.balance_rsd().to_bits(), seq.balance_rsd().to_bits());
        let a: Vec<_> = batched.placements().collect();
        let b: Vec<_> = seq.placements().collect();
        assert_eq!(a, b);
    }

    /// A refused batch rolls back whole and names its first offending
    /// key in batch order. After each refusal, a clean batch lands as it
    /// does on a twin that never saw the refused one: same placements,
    /// loads, census bits and slab slots.
    #[test]
    fn place_batch_rolls_back_on_duplicates() {
        // Keys 5 and 40 are placed; 41's slab slot is free for reuse. The
        // grid holds keys 0..64, so key 100 is filed in the spill map.
        let fresh = || {
            let mut c = cluster(2);
            assert!(c.register_array(ArrayId(0), &[64]));
            c.place(desc(5, 10), NodeId(0)).unwrap();
            c.place(desc(40, 20), NodeId(1)).unwrap();
            c.place(desc(41, 30), NodeId(1)).unwrap();
            c.evict_chunk(&desc(41, 0).key).unwrap();
            c
        };
        let refused: [(&[i64], i64); 4] = [
            // A collision at index 2 before an in-batch repeat at index 3.
            (&[1, 2, 5, 2], 5),
            // Grid keys on both sides of a spilled key (100) are filed
            // before the collision at 40, and all of them are unfiled.
            (&[1, 100, 9, 40, 3], 40),
            // Only an in-batch repeat.
            (&[7, 8, 7], 7),
            // The collision comes first.
            (&[5, 1], 5),
        ];
        let clean = [desc(1, 10), desc(2, 20), desc(100, 30), desc(9, 40), desc(41, 50)];
        let clean_routes = [NodeId(0), NodeId(1), NodeId(0), NodeId(1), NodeId(0)];
        for (keys, first) in refused {
            let mut c = fresh();
            let batch: Vec<ChunkDescriptor> = keys.iter().map(|&k| desc(k, 10)).collect();
            let err = c.place_all(&batch, &vec![NodeId(0); batch.len()]).unwrap_err();
            assert_eq!(err, ClusterError::DuplicateChunk(desc(first, 0).key), "{keys:?}");
            // Everything rolled back: only the chunks placed before remain.
            let twin = fresh();
            assert_eq!(c.total_chunks(), 2, "{keys:?}");
            assert_eq!(c.loads(), twin.loads(), "{keys:?}");
            for &k in keys.iter().filter(|&&k| k != 5 && k != 40) {
                assert_eq!(c.locate(&desc(k, 0).key), None, "{keys:?}: {k} rolled back");
            }
            // A clean batch afterwards lands as on the twin.
            let mut twin = twin;
            c.place_all(&clean, &clean_routes).unwrap();
            twin.place_all(&clean, &clean_routes).unwrap();
            let (ours, theirs): (Vec<_>, Vec<_>) =
                (c.placements().collect(), twin.placements().collect());
            assert_eq!(ours, theirs, "{keys:?}");
            assert_eq!(c.loads(), twin.loads(), "{keys:?}");
            assert_eq!(c.balance_rsd().to_bits(), twin.balance_rsd().to_bits(), "{keys:?}");
            for d in &clean {
                let slot = c.placement.slot(&d.key);
                assert_eq!(slot, twin.placement.slot(&d.key), "{keys:?}: slot of {}", d.key);
            }
        }
    }

    #[test]
    fn place_batch_validates_routes() {
        let mut c = cluster(2);
        let err = c.place_all(&[desc(1, 1)], &[NodeId(7)]).unwrap_err();
        assert!(matches!(err, ClusterError::UnknownNode(7)));
        assert_eq!(c.total_chunks(), 0);
    }

    #[test]
    fn payloads_follow_rebalance_moves() {
        use array_model::{ArraySchema, Chunk, ScalarValue};
        let schema = ArraySchema::parse("A<v:double>[x=0:7,2]").unwrap();
        let mut chunk = Chunk::new(&schema, ChunkCoords::new([0]));
        chunk.push_cell(&schema, vec![1], vec![ScalarValue::Double(2.5)]).unwrap();
        let key = ChunkKey::new(ArrayId(0), ChunkCoords::new([0]));
        let desc = ChunkDescriptor::new(key, chunk.byte_size(), chunk.cell_count());
        let mut c = cluster(2);
        // Attaching to an unplaced chunk is rejected.
        assert!(matches!(c.attach_payload(key, chunk.clone()), Err(ClusterError::MissingChunk(_))));
        c.place(desc, NodeId(0)).unwrap();
        // A payload whose cells disagree with the descriptor is rejected.
        let mut fat = chunk.clone();
        fat.push_cell(&schema, vec![0], vec![ScalarValue::Double(1.0)]).unwrap();
        assert!(matches!(c.attach_payload(key, fat), Err(ClusterError::PayloadMismatch(_))));
        c.attach_payload(key, chunk.clone()).unwrap();
        assert_eq!(c.payload(&key).unwrap().cell_count(), 1);
        // A rebalance move carries the payload and times the flow off the
        // cells' actual bytes.
        let mut plan = RebalancePlan::empty();
        plan.push(key, NodeId(0), NodeId(1), desc.bytes);
        let flows = c.apply_rebalance(&plan).unwrap();
        assert_eq!(flows.network_bytes(), chunk.byte_size());
        assert_eq!(c.residents_on(NodeId(0)).count(), 0);
        assert_eq!(c.locate(&key), Some(NodeId(1)));
        assert_eq!(c.payload(&key), Some(&chunk));

        // Equal bytes but a different cell count is still a drift. Under
        // the default dictionary encoding, one 12-char string weighs
        // exactly as much as two empty ones: (12+4) dictionary bytes +
        // one 4 B code + 8 coord bytes = 28, vs (0+4) + two codes + 16
        // coord bytes = 28. (The same equality held for plain storage,
        // 24 = 24 — the guard is encoding-independent.)
        let sschema = ArraySchema::parse("S<s:string>[x=0:7,8]").unwrap();
        let mut one = Chunk::new(&sschema, ChunkCoords::new([0]));
        one.push_cell(&sschema, vec![0], vec![ScalarValue::Str("abcdefghijkl".into())]).unwrap();
        let mut two = Chunk::new(&sschema, ChunkCoords::new([0]));
        two.push_cell(&sschema, vec![1], vec![ScalarValue::Str(String::new())]).unwrap();
        two.push_cell(&sschema, vec![2], vec![ScalarValue::Str(String::new())]).unwrap();
        assert_eq!(one.byte_size(), two.byte_size());
        let key2 = ChunkKey::new(ArrayId(1), ChunkCoords::new([0]));
        c.place(ChunkDescriptor::new(key2, one.byte_size(), one.cell_count()), NodeId(0)).unwrap();
        assert!(matches!(c.attach_payload(key2, two), Err(ClusterError::PayloadMismatch(_))));
        c.attach_payload(key2, one).unwrap();
    }

    /// Rebalance byte accounting over dictionary-encoded payloads: the
    /// descriptor (what placement and the census see) and the flow bytes
    /// (what transfer timing sees) both carry the **encoded** size —
    /// dictionary once plus 4 B per code — which is strictly below the
    /// plain representation of the same cells, and a plain-encoded twin
    /// of the chunk cannot masquerade as the encoded one.
    #[test]
    fn rebalance_accounts_encoded_bytes_for_dict_payloads() {
        use array_model::{ArraySchema, Chunk, ScalarValue, StringEncoding};
        let schema = ArraySchema::parse("D<r:string>[x=0:63,64]").unwrap();
        let mut chunk = Chunk::new(&schema, ChunkCoords::new([0]));
        let mut plain_twin =
            Chunk::with_encoding(&schema, ChunkCoords::new([0]), StringEncoding::Plain);
        for x in 0..32i64 {
            let v = format!("receiver-{}", x % 4); // 4 distinct, 32 rows
            chunk.push_cell(&schema, vec![x], vec![ScalarValue::Str(v.clone())]).unwrap();
            plain_twin.push_cell(&schema, vec![x], vec![ScalarValue::Str(v)]).unwrap();
        }
        // Encoded: 32 coords x 8 + 4 dictionary entries x (10+4) + 32
        // codes x 4 = 440; plain stores every value's payload: 704.
        assert_eq!(chunk.byte_size(), 32 * 8 + 4 * 14 + 32 * 4);
        assert_eq!(plain_twin.byte_size(), 32 * 8 + 32 * 14);
        assert!(chunk.byte_size() < plain_twin.byte_size());

        let key = ChunkKey::new(ArrayId(0), ChunkCoords::new([0]));
        let desc = ChunkDescriptor::new(key, chunk.byte_size(), chunk.cell_count());
        let mut c = cluster(2);
        c.place(desc, NodeId(0)).unwrap();
        // The plain twin's bytes disagree with the encoded descriptor:
        // attach validation catches the representation mismatch.
        assert!(matches!(c.attach_payload(key, plain_twin), Err(ClusterError::PayloadMismatch(_))));
        c.attach_payload(key, chunk.clone()).unwrap();
        // The move times off the encoded bytes, and the load ledger holds
        // exactly the encoded size on the receiving node.
        let mut plan = RebalancePlan::empty();
        plan.push(key, NodeId(0), NodeId(1), desc.bytes);
        let flows = c.apply_rebalance(&plan).unwrap();
        assert_eq!(flows.network_bytes(), chunk.byte_size());
        assert_eq!(c.locate(&key), Some(NodeId(1)));
        assert_eq!(c.payload(&key), Some(&chunk));
        assert_eq!(c.loads()[1], chunk.byte_size());
    }

    fn payload_chunk() -> (array_model::ArraySchema, Chunk, ChunkKey, ChunkDescriptor) {
        use array_model::{ArraySchema, ScalarValue};
        let schema = ArraySchema::parse("A<v:double>[x=0:7,2]").unwrap();
        let mut chunk = Chunk::new(&schema, ChunkCoords::new([0]));
        chunk.push_cell(&schema, vec![1], vec![ScalarValue::Double(2.5)]).unwrap();
        let key = ChunkKey::new(ArrayId(0), ChunkCoords::new([0]));
        let desc = ChunkDescriptor::new(key, chunk.byte_size(), chunk.cell_count());
        (schema, chunk, key, desc)
    }

    #[test]
    fn replication_places_k_distinct_copies_deterministically() {
        let mk = || {
            let mut c = Cluster::with_replication(5, 1_000_000, CostModel::default(), 3).unwrap();
            for i in 0..40 {
                c.place(desc(i, 100), NodeId((i % 5) as u32)).unwrap();
            }
            c
        };
        let a = mk();
        let b = mk();
        for i in 0..40 {
            let key = desc(i, 0).key;
            let primary = a.locate(&key).unwrap();
            let holders = a.replica_holders(&key);
            assert_eq!(holders.len(), 2, "k=3 ⇒ two replicas");
            assert!(!holders.contains(&primary), "replicas avoid the primary");
            assert_ne!(holders[0], holders[1], "replicas land on distinct nodes");
            assert_eq!(holders, b.replica_holders(&key), "secondary route is deterministic");
        }
        a.verify_replica_books().unwrap();
        assert!(a.replica_census().is_full_strength());
        // Replica bytes stay out of the primary census: an identical k=1
        // cluster reports the same loads, total, and RSD bits.
        let mut k1 = Cluster::new(5, 1_000_000, CostModel::default()).unwrap();
        for i in 0..40 {
            k1.place(desc(i, 100), NodeId((i % 5) as u32)).unwrap();
        }
        assert_eq!(a.loads(), k1.loads());
        assert_eq!(a.total_used(), k1.total_used());
        assert_eq!(a.balance_rsd().to_bits(), k1.balance_rsd().to_bits());
    }

    /// A holder serves the chunk's one record: attaching sets one slot,
    /// shared with the caller, and the holder's ledger (which counted
    /// the bytes at placement) does not move.
    #[test]
    fn attach_fans_out_to_every_replica() {
        let (_, chunk, key, d) = payload_chunk();
        let mut c = Cluster::with_replication(3, 1_000_000, CostModel::default(), 2).unwrap();
        c.place(d, NodeId(0)).unwrap();
        let holder = c.replica_holders(&key)[0];
        assert_eq!(c.node(holder).unwrap().replica_bytes(), d.bytes);
        let shared: Arc<Chunk> = Arc::new(chunk);
        c.attach_payload(key, Arc::clone(&shared)).unwrap();
        let served = c.primary_payload(&key).unwrap();
        assert!(Arc::ptr_eq(served, &shared), "attach shares the handle, never copies cells");
        assert_eq!(Arc::strong_count(&shared), 2, "one record, one slot");
        assert_eq!(c.node(holder).unwrap().replica_bytes(), d.bytes);
        c.verify_replica_books().unwrap();
    }

    #[test]
    fn double_attach_is_rejected_and_books_unchanged() {
        let (_, chunk, key, d) = payload_chunk();
        let mut c = Cluster::with_replication(3, 1_000_000, CostModel::default(), 2).unwrap();
        c.place(d, NodeId(0)).unwrap();
        c.attach_payload(key, chunk.clone()).unwrap();
        let loads = c.loads();
        assert!(
            matches!(c.attach_payload(key, chunk), Err(ClusterError::PayloadExists(k)) if k == key)
        );
        assert_eq!(c.payload(&key).map(Chunk::cell_count), Some(1), "the original is untouched");
        assert_eq!(c.loads(), loads);
    }

    #[test]
    fn attach_to_crashed_node_is_rejected_and_books_unchanged() {
        let (_, chunk, key, d) = payload_chunk();
        let mut c = cluster(2);
        c.place(d, NodeId(1)).unwrap();
        c.crash_node(NodeId(1)).unwrap();
        let loads = c.loads();
        assert_eq!(c.attach_payload(key, chunk), Err(ClusterError::ChunkLost(key)));
        assert!(c.payload(&key).is_none());
        assert_eq!(c.loads(), loads);
    }

    /// The cluster's every book, as its checkpoint bytes.
    fn snapshot(c: &Cluster) -> Vec<u8> {
        let mut w = durability::ByteWriter::new();
        c.snapshot_into(&mut w);
        w.into_bytes()
    }

    /// A lost chunk refuses every write, typed, and the cluster stays as
    /// it was: a place or a batch into its coordinates (rolled back
    /// whole), an eviction, an attach and an install — before and after
    /// its wreck is revived to full service.
    #[test]
    fn a_lost_chunk_refuses_every_write_and_changes_nothing() {
        let (_, chunk, key, d) = payload_chunk();
        let mut c = cluster(3);
        c.place(d, NodeId(1)).unwrap();
        c.attach_payload(key, chunk.clone()).unwrap();
        c.place(desc(5, 10), NodeId(0)).unwrap();
        assert_eq!(c.crash_node(NodeId(1)).unwrap().lost, vec![key]);
        for revived in [false, true] {
            if revived {
                c.revive_node(NodeId(1)).unwrap();
                c.mark_recovered(NodeId(1)).unwrap();
            }
            let before = snapshot(&c);
            let lost = Err(ClusterError::ChunkLost(key));
            assert_eq!(c.place(d, NodeId(0)), lost);
            assert_eq!(c.place_all(&[desc(7, 10), d], &[NodeId(0), NodeId(2)]), lost);
            assert_eq!(c.evict_chunk(&key).map(|_| ()), lost);
            assert_eq!(c.attach_payload(key, chunk.clone()), lost);
            assert_eq!(c.install_payload(&key, Arc::new(chunk.clone())), lost);
            assert_eq!(snapshot(&c), before, "revived: {revived}");
            assert_eq!(c.locate(&desc(7, 0).key), None, "the batch rolled back");
            assert!(matches!(c.home(&key), Some(Slot::Lost { wreck: NodeId(1) })));
            assert_eq!(c.replica_census().lost, 1);
            c.verify_replica_books().unwrap();
        }
        assert_eq!(
            ClusterError::ChunkLost(key).to_string(),
            format!("chunk {key} is lost: a crash took every copy of it")
        );
    }

    #[test]
    fn replica_byte_mismatch_is_rejected_and_books_unchanged() {
        use array_model::ScalarValue;
        let (schema, chunk, key, d) = payload_chunk();
        let mut c = Cluster::with_replication(3, 1_000_000, CostModel::default(), 2).unwrap();
        c.place(d, NodeId(0)).unwrap();
        let holder = c.replica_holders(&key)[0];
        // A drifted payload: the one descriptor catches the byte/cell
        // mismatch for every copy, and no ledger moves.
        let mut fat = chunk.clone();
        fat.push_cell(&schema, vec![0], vec![ScalarValue::Double(9.0)]).unwrap();
        assert!(matches!(c.attach_payload(key, fat), Err(ClusterError::PayloadMismatch(_))));
        assert!(c.payload(&key).is_none());
        assert_eq!(c.node(holder).unwrap().replica_bytes(), d.bytes);
        // The well-formed attach still lands, and a second one is a
        // double-attach.
        c.attach_payload(key, chunk.clone()).unwrap();
        assert!(matches!(c.attach_payload(key, chunk), Err(ClusterError::PayloadExists(_))));
        assert_eq!(c.node(holder).unwrap().replica_bytes(), d.bytes);
        c.verify_replica_books().unwrap();
    }

    #[test]
    fn rebalance_repairs_replica_sets_and_costs_the_topup() {
        let (_, chunk, key, d) = payload_chunk();
        let mut c = Cluster::with_replication(3, 1_000_000, CostModel::default(), 2).unwrap();
        c.place(d, NodeId(0)).unwrap();
        c.attach_payload(key, chunk).unwrap();
        // Move the primary onto its replica holder: the replica there is
        // superseded and a fresh copy must be re-created elsewhere, with
        // the repair flow costed in the same set as the move.
        let holder = c.replica_holders(&key)[0];
        let mut plan = RebalancePlan::empty();
        plan.push(key, NodeId(0), holder, d.bytes);
        let flows = c.apply_rebalance(&plan).unwrap();
        assert_eq!(flows.chunk_count(), 2, "one move + one replica top-up");
        assert_eq!(flows.total_bytes(), d.bytes * 2);
        c.verify_replica_books().unwrap();
        assert!(c.replica_census().is_full_strength());
        let new_holder = c.replica_holders(&key)[0];
        assert_ne!(new_holder, holder, "replica may not co-locate with its primary");
        assert_eq!(c.node(new_holder).unwrap().replica_bytes(), d.bytes, "top-up ledgers it");
        assert_eq!(c.node(holder).unwrap().replica_bytes(), 0, "the superseded copy is gone");
        assert!(c.payload(&key).is_some(), "the record moved with its payload handle");
    }

    #[test]
    fn crash_refuses_last_serving_node() {
        let mut c = cluster(2);
        c.crash_node(NodeId(0)).unwrap();
        assert!(matches!(c.crash_node(NodeId(1)), Err(ClusterError::NoHealthyNodes)));
        // Coordinator re-elected off the wreck.
        assert_eq!(c.coordinator(), NodeId(1));
        // Double-crash is typed.
        assert!(matches!(c.crash_node(NodeId(0)), Err(ClusterError::NodeUnavailable { .. })));
    }

    #[test]
    fn divert_route_walks_to_an_accepting_node() {
        let mut c = cluster(3);
        let key = desc(7, 0).key;
        let diverted = c.divert_route(&key).unwrap();
        c.crash_node(diverted).unwrap();
        let rerouted = c.divert_route(&key).unwrap();
        assert_ne!(rerouted, diverted);
        assert!(c.node(rerouted).unwrap().state().accepts_data());
    }

    #[test]
    fn uniform_loads_census_to_exactly_zero() {
        let mut c = cluster(4);
        for i in 0..16 {
            c.place(desc(i, 250), NodeId((i % 4) as u32)).unwrap();
        }
        assert_eq!(c.balance_rsd(), 0.0);
        assert_eq!(c.total_used(), 4_000);
    }

    /// A retraction shrinks the payload, the record's descriptor, the
    /// byte ledgers, the census moments, and every holder's replica
    /// ledger.
    #[test]
    #[allow(deprecated)]
    fn retract_cells_shrinks_every_copy() {
        use array_model::{ArraySchema, Chunk, ScalarValue};
        let schema = ArraySchema::parse("A<v:double>[x=0:7,8]").unwrap();
        let mut chunk = Chunk::new(&schema, ChunkCoords::new([0]));
        for x in 0..4i64 {
            chunk.push_cell(&schema, vec![x], vec![ScalarValue::Double(x as f64)]).unwrap();
        }
        let key = ChunkKey::new(ArrayId(0), ChunkCoords::new([0]));
        let d = ChunkDescriptor::new(key, chunk.byte_size(), chunk.cell_count());
        let mut c = Cluster::with_replication(3, 1_000_000, CostModel::default(), 2).unwrap();
        c.place(d, NodeId(0)).unwrap();
        c.attach_payload(key, chunk).unwrap();
        let holder = c.replica_holders(&key)[0];

        // Retract x=1 and x=3, plus one cell that was never there.
        let out = c.retract_cells(&key, &[1, 3, 6]).unwrap();
        assert_eq!(out.retracted, 2);
        assert_eq!(out.missing, 1);
        assert_eq!(out.remaining_cells, 2);
        assert_eq!(out.freed_bytes, 2 * (8 + 8), "two coord+double rows");

        let stored = c.primary_payload(&key).unwrap();
        assert_eq!(stored.cell_count(), 2);
        let new_desc = *c.descriptor(&key).unwrap();
        assert_eq!(new_desc.bytes, stored.byte_size());
        assert_eq!(new_desc.cells, 2);
        assert_eq!(c.loads()[0], stored.byte_size());
        assert_eq!(c.total_used(), stored.byte_size());
        assert!((c.balance_rsd() - relative_std_dev(&c.loads())).abs() < 1e-12);
        // The holder's ledger shrank in lockstep with the one record.
        assert_eq!(c.node(holder).unwrap().replica_bytes(), stored.byte_size());
        c.verify_replica_books().unwrap();

        // Re-retracting the same cells is idempotent: all missing.
        let again = c.retract_cells(&key, &[1, 3]).unwrap();
        assert_eq!((again.retracted, again.missing), (0, 2));

        // Metadata-only chunks refuse cell retraction, typed.
        let d2 = desc(9, 40);
        c.place(d2, NodeId(1)).unwrap();
        assert!(matches!(
            c.retract_cells(&d2.key, &[0]),
            Err(ClusterError::NoPayload(k)) if k == d2.key
        ));
    }

    /// A caller-supplied slice that is not a whole number of cells is a
    /// typed error (as `Array::delete_cells` answers `Arity`), not a
    /// panic, and leaves every book unchanged.
    #[test]
    #[allow(deprecated)]
    fn retract_cells_rejects_a_ragged_slice_typed() {
        use array_model::{ArraySchema, Chunk, ScalarValue};
        let schema = ArraySchema::parse("A<v:double>[x=0:7,8, y=0:7,8]").unwrap();
        let mut chunk = Chunk::new(&schema, ChunkCoords::new([0, 0]));
        chunk.push_cell(&schema, vec![1, 2], vec![ScalarValue::Double(0.5)]).unwrap();
        let key = ChunkKey::new(ArrayId(0), ChunkCoords::new([0, 0]));
        let mut c = cluster(2);
        c.place(ChunkDescriptor::new(key, chunk.byte_size(), 1), NodeId(0)).unwrap();
        c.attach_payload(key, chunk).unwrap();
        let before = c.total_used();
        assert_eq!(
            c.retract_cells(&key, &[1, 2, 3]),
            Err(ClusterError::RaggedCells { key, len: 3 })
        );
        assert_eq!(c.total_used(), before);
        assert_eq!(c.payload(&key).unwrap().cell_count(), 1);
        assert_eq!(c.retract_cells(&key, &[1, 2]).unwrap().retracted, 1);
    }

    /// Compacting a tombstoned payload rebuilds it from survivors:
    /// descriptor, ledgers (the holders' too), census, and the handle all
    /// follow, and the attach invariant keeps holding.
    #[test]
    #[allow(deprecated)]
    fn compact_chunk_reclaims_on_every_copy() {
        use array_model::{ArraySchema, Chunk, ScalarValue};
        let schema = ArraySchema::parse("A<v:double>[x=0:7,8]").unwrap();
        let mut chunk = Chunk::new(&schema, ChunkCoords::new([0]));
        for x in 0..6i64 {
            chunk.push_cell(&schema, vec![x], vec![ScalarValue::Double(x as f64)]).unwrap();
        }
        let key = ChunkKey::new(ArrayId(0), ChunkCoords::new([0]));
        let d = ChunkDescriptor::new(key, chunk.byte_size(), chunk.cell_count());
        let mut c = Cluster::with_replication(3, 1_000_000, CostModel::default(), 2).unwrap();
        c.place(d, NodeId(0)).unwrap();
        c.attach_payload(key, chunk).unwrap();
        c.retract_cells(&key, &[0, 2, 4]).unwrap();
        assert_eq!(c.primary_payload(&key).unwrap().tombstone_count(), 3);

        let out = c.compact_chunk(&key).unwrap();
        assert_eq!(out.cells, 3);
        let stored = c.primary_payload(&key).unwrap();
        assert_eq!(stored.tombstone_count(), 0);
        assert_eq!(stored.cell_count(), 3);
        assert_eq!(out.bytes, stored.byte_size());
        let new_desc = *c.descriptor(&key).unwrap();
        assert_eq!((new_desc.bytes, new_desc.cells), (stored.byte_size(), 3));
        assert_eq!(c.total_used(), stored.byte_size());
        let holder = c.replica_holders(&key)[0];
        assert_eq!(c.node(holder).unwrap().replica_bytes(), stored.byte_size());
        c.verify_replica_books().unwrap();

        // A tombstone-free chunk compacts to a no-op, and metadata-only
        // chunks refuse, typed.
        assert_eq!(c.compact_chunk(&key).unwrap().reclaimed_bytes, 0);
        let d2 = desc(9, 40);
        c.place(d2, NodeId(1)).unwrap();
        assert!(matches!(
            c.compact_chunk(&d2.key),
            Err(ClusterError::NoPayload(k)) if k == d2.key
        ));
    }

    /// Evicting a chunk removes the placement entry, the record, and the
    /// replica set with its ledgers; the vacated placement slot is
    /// reusable.
    #[test]
    fn evict_chunk_clears_placement_stores_and_replicas() {
        let mut c = Cluster::with_replication(3, 1_000_000, CostModel::default(), 2).unwrap();
        c.place(desc(1, 100), NodeId(0)).unwrap();
        c.place(desc(2, 100), NodeId(1)).unwrap();
        let key = desc(1, 0).key;
        let ev = c.evict_chunk(&key).unwrap();
        assert_eq!(ev.node, NodeId(0));
        assert_eq!(ev.bytes, 100);
        assert_eq!(ev.replicas_dropped, 1);
        assert_eq!(c.locate(&key), None);
        assert_eq!(c.total_chunks(), 1);
        assert_eq!(c.loads()[0], 0);
        assert!(c.replica_holders(&key).is_empty());
        assert_eq!(c.nodes().map(Node::replica_bytes).sum::<u64>(), 100, "chunk 2's copy only");
        c.verify_replica_books().unwrap();
        assert!(matches!(c.evict_chunk(&key), Err(ClusterError::MissingChunk(_))));
        // The slot is reusable after eviction.
        c.place(desc(1, 60), NodeId(2)).unwrap();
        assert_eq!(c.locate(&key), Some(NodeId(2)));
    }

    /// The full scale-IN arc: drain → rebalance-out → retire. The node
    /// keeps its roster slot but leaves every census denominator, and the
    /// freed chunks land on the least-loaded survivors deterministically.
    #[test]
    fn decommission_drains_and_retires_the_node() {
        let mut c = cluster(3);
        for i in 0..6 {
            c.place(desc(i, 100), NodeId((i % 3) as u32)).unwrap();
        }
        let report = c.decommission_node(NodeId(2)).unwrap();
        assert_eq!(report.node, NodeId(2));
        assert_eq!(report.moved_chunks, 2);
        assert_eq!(report.drained_bytes, 200);
        assert_eq!(report.flows.network_bytes(), 200);
        assert_eq!(c.node(NodeId(2)).unwrap().state(), NodeState::Retired);
        assert_eq!(c.node_count(), 3, "the roster slot survives");
        assert_eq!(c.active_node_count(), 2);
        assert_eq!(c.total_capacity(), 2_000);
        assert_eq!(c.loads(), vec![300, 300, 0]);
        assert_eq!(c.balance_rsd(), 0.0, "census ranges over active nodes only");
        assert_eq!(c.total_used(), 600);
        // A retired node serves nothing and accepts nothing, typed.
        assert!(matches!(
            c.place(desc(9, 1), NodeId(2)),
            Err(ClusterError::NodeUnavailable { node: 2, .. })
        ));
        assert!(matches!(c.crash_node(NodeId(2)), Err(ClusterError::NodeUnavailable { .. })));
        assert!(matches!(c.start_draining(NodeId(2)), Err(ClusterError::NodeUnavailable { .. })));
        // Subsequent placements and rebalances keep working on survivors.
        c.place(desc(9, 50), NodeId(0)).unwrap();
        assert_eq!(c.total_chunks(), 7);
    }

    /// Retirement drops the node's replica copies and tops the affected
    /// replica sets back up on the shrunken roster, costing the repairs.
    #[test]
    fn decommission_repairs_replica_sets_on_survivors() {
        let mut c = Cluster::with_replication(4, 1_000_000, CostModel::default(), 2).unwrap();
        for i in 0..12 {
            c.place(desc(i, 100), NodeId((i % 4) as u32)).unwrap();
        }
        assert!(c.replica_census().is_full_strength());
        let report = c.decommission_node(NodeId(3)).unwrap();
        assert_eq!(c.active_node_count(), 3);
        c.verify_replica_books().unwrap();
        assert!(
            c.replica_census().is_full_strength(),
            "every replica set is repaired on the survivors"
        );
        // No replica may live on the retired node any more.
        assert_eq!(c.node(NodeId(3)).unwrap().replica_bytes(), 0);
        assert!(report.flows.chunk_count() >= report.moved_chunks as u64);
    }

    #[test]
    fn retire_refuses_nonempty_and_last_server() {
        let mut c = cluster(2);
        c.place(desc(1, 100), NodeId(0)).unwrap();
        assert!(matches!(
            c.retire_node(NodeId(0)),
            Err(ClusterError::RetireNonEmpty { node: 0, chunks: 1 })
        ));
        // Retire the empty node 1, then node 0 is the last server.
        c.retire_node(NodeId(1)).unwrap();
        c.evict_chunk(&desc(1, 0).key).unwrap();
        assert!(matches!(c.retire_node(NodeId(0)), Err(ClusterError::NoHealthyNodes)));
        assert_eq!(c.node(NodeId(0)).unwrap().state(), NodeState::Healthy);
    }

    /// A decommission that cannot complete cancels its drain: the node
    /// returns to `Healthy` and the cluster keeps working.
    #[test]
    fn failed_decommission_cancels_the_drain() {
        let mut c = cluster(2);
        c.place(desc(1, 100), NodeId(0)).unwrap();
        c.crash_node(NodeId(1)).unwrap();
        // Node 0 is the last server: the drain has nowhere to go.
        assert!(c.decommission_node(NodeId(0)).is_err());
        assert_eq!(c.node(NodeId(0)).unwrap().state(), NodeState::Healthy);
        c.place(desc(2, 50), NodeId(0)).unwrap();
    }
}
