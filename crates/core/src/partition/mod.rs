//! Elastic partitioners for scientific arrays (paper §4).
//!
//! A [`Partitioner`] owns the chunk→node assignment policy for a growing
//! cluster. Placement is split into two phases, so a whole batch routes
//! against one snapshot before any of it is placed:
//!
//! * **routing** — [`Partitioner::route`] is read-only (`&self`): it
//!   answers "which node?" for one chunk against an **epoch snapshot** of
//!   the partitioning table and the cluster ([`RouteEpoch`]). Within a
//!   batch, every chunk routes against the same epoch; order-sensitive
//!   schemes receive the chunk's batch `ordinal` and the epoch's byte
//!   prefix sums instead of observing live state.
//! * **commit** — [`Partitioner::commit`] applies the batch's table
//!   mutations (sequence-map inserts, cursor advances) sequentially, once
//!   the cluster has durably placed the batch. Table-structural changes
//!   (tree splits, directory doublings, ring arcs) only ever happen in
//!   [`Partitioner::scale_out`], which remains sequential.
//!
//! The single-chunk driver protocol still works — [`Partitioner::place`]
//! is a provided method that routes a one-chunk epoch and commits it
//! immediately:
//!
//! 1. for each incoming chunk: `let node = p.place(&desc, &cluster);`
//!    followed immediately by `cluster.place(desc, node)`;
//! 2. when the cluster scales out: `cluster.add_nodes(..)`, then
//!    `let plan = p.scale_out(&cluster, &new_nodes);` followed by
//!    `cluster.apply_rebalance(&plan)`.
//!
//! Batch drivers instead call [`route_all`], then `Cluster::place_all`,
//! then [`Partitioner::commit`].
//!
//! [`Partitioner::locate`] answers chunk lookups from the partitioner's own
//! table (ring walk, directory probe, tree descent, ...) and must agree
//! with the cluster's placement map at all times — the test suites assert
//! this invariant for every scheme.
//!
//! Scale-out follows one of three rules, by Table 1's columns:
//!
//! * **Skew-Aware** (K-d Tree, Incremental Quadtree, Hilbert Curve,
//!   Extendible Hash): each new node splits the most loaded preexisting
//!   node, which hands it part of its table and the chunks under that
//!   part (`split_heaviest`). Only the split node's data moves, so the
//!   scale-out is also incremental. Each scheme supplies just its table
//!   split.
//! * **not Skew-Aware**, table-wide (Consistent Hash, Round Robin,
//!   Uniform Range): the table takes the new nodes in, every chunk's
//!   owner is re-derived, and each chunk whose owner changed moves
//!   (`reshuffle`). Only Consistent Hash is incremental: a new ring
//!   point claims arcs for a new node alone. Round Robin and Uniform
//!   Range ship chunks between preexisting nodes.
//! * **Append** moves nothing: new nodes only become its next spill
//!   targets.

mod append;
mod consistent_hash;
mod extendible_hash;
mod hilbert_part;
mod kdtree;
mod quadtree;
mod round_robin;
mod seq_index;
mod uniform_range;

pub use append::Append;
pub use consistent_hash::ConsistentHash;
pub use extendible_hash::ExtendibleHash;
pub use hilbert_part::HilbertCurve;
pub use kdtree::KdTree;
pub use quadtree::IncrementalQuadtree;
pub use round_robin::RoundRobin;
pub use uniform_range::UniformRange;

#[allow(deprecated)]
pub use crate::bench_only::route_batch;

use array_model::{ChunkDescriptor, ChunkKey};
use cluster_sim::{Cluster, NodeId, RebalancePlan, Resident};
use durability::{ByteReader, CodecError};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashSet};
use std::fmt;

/// The four traits of elastic data placement (paper Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PartitionerFeatures {
    /// Scale-out only transfers data from preexisting nodes to new ones.
    pub incremental_scale_out: bool,
    /// Assigns one chunk at a time rather than subdividing planes.
    pub fine_grained: bool,
    /// Uses the observed data distribution to drive repartitioning.
    pub skew_aware: bool,
    /// Keeps contiguous array regions on the same host.
    pub n_dimensional_clustering: bool,
}

/// Which partitioning scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum PartitionerKind {
    /// Spill-over range partitioning by insert order.
    Append,
    /// Consistent hashing on a ring of virtual nodes.
    ConsistentHash,
    /// Extendible hashing with bit-suffix buckets.
    ExtendibleHash,
    /// Ranges over the Hilbert space-filling curve.
    HilbertCurve,
    /// The incremental quadtree of §4.2.
    IncrementalQuadtree,
    /// K-d tree with byte-weighted median splits.
    KdTree,
    /// The paper's baseline: chunk i → node i mod k.
    RoundRobin,
    /// Static tall binary tree with l/n leaf blocks.
    UniformRange,
}

impl PartitionerKind {
    /// All schemes, in the order the paper's figures list them.
    pub const ALL: [PartitionerKind; 8] = [
        PartitionerKind::Append,
        PartitionerKind::ConsistentHash,
        PartitionerKind::ExtendibleHash,
        PartitionerKind::HilbertCurve,
        PartitionerKind::IncrementalQuadtree,
        PartitionerKind::KdTree,
        PartitionerKind::RoundRobin,
        PartitionerKind::UniformRange,
    ];

    /// Table 1's feature matrix.
    pub fn features(self) -> PartitionerFeatures {
        use PartitionerKind::*;
        match self {
            Append => PartitionerFeatures {
                incremental_scale_out: true,
                fine_grained: true,
                skew_aware: false,
                n_dimensional_clustering: false,
            },
            ConsistentHash => PartitionerFeatures {
                incremental_scale_out: true,
                fine_grained: true,
                skew_aware: false,
                n_dimensional_clustering: false,
            },
            ExtendibleHash => PartitionerFeatures {
                incremental_scale_out: true,
                fine_grained: true,
                skew_aware: true,
                n_dimensional_clustering: false,
            },
            HilbertCurve => PartitionerFeatures {
                incremental_scale_out: true,
                fine_grained: true,
                skew_aware: true,
                n_dimensional_clustering: true,
            },
            IncrementalQuadtree => PartitionerFeatures {
                incremental_scale_out: true,
                fine_grained: false,
                skew_aware: true,
                n_dimensional_clustering: true,
            },
            KdTree => PartitionerFeatures {
                incremental_scale_out: true,
                fine_grained: false,
                skew_aware: true,
                n_dimensional_clustering: true,
            },
            RoundRobin => PartitionerFeatures {
                incremental_scale_out: false,
                fine_grained: true,
                skew_aware: false,
                n_dimensional_clustering: false,
            },
            UniformRange => PartitionerFeatures {
                incremental_scale_out: false,
                fine_grained: false,
                skew_aware: false,
                n_dimensional_clustering: true,
            },
        }
    }

    /// Display name matching the paper's figures.
    pub fn label(self) -> &'static str {
        use PartitionerKind::*;
        match self {
            Append => "Append",
            ConsistentHash => "Cons. Hash",
            ExtendibleHash => "Extend. Hash",
            HilbertCurve => "Hilbert Curve",
            IncrementalQuadtree => "Incr. Quadtree",
            KdTree => "K-d Tree",
            RoundRobin => "Round Robin",
            UniformRange => "Uniform Range",
        }
    }
}

impl fmt::Display for PartitionerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Describes the chunk grid that range partitioners subdivide: the number
/// of chunks along each dimension. Unbounded dimensions supply an expected
/// extent (e.g. days of data anticipated); exceeding the hint degrades
/// balance but never correctness.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GridHint {
    /// Chunk count (or expected chunk count) per dimension.
    pub chunk_counts: Vec<i64>,
    /// The order in which tree-structured partitioners (K-d Tree, Uniform
    /// Range) cycle dimensions when splitting. Defaults to declaration
    /// order; workloads with an unbounded, monotonically-growing dimension
    /// (time) should list their bounded spatial dimensions first —
    /// splitting an append-only dimension at its midpoint strands every
    /// *future* insert on one side of the plane.
    pub split_priority: Vec<usize>,
    /// The dimensions the Hilbert partitioner serializes. Defaults to all
    /// dimensions; workloads with an append-only time dimension should
    /// restrict the curve to the spatial dimensions, so that every insert
    /// batch spreads across the whole curve instead of landing in the
    /// "new time" corner of the embedding cube.
    pub curve_dims: Vec<usize>,
}

impl GridHint {
    /// Build a hint; every dimension needs at least one chunk.
    pub fn new(chunk_counts: Vec<i64>) -> Self {
        assert!(!chunk_counts.is_empty(), "grid needs at least one dimension");
        assert!(chunk_counts.iter().all(|&c| c >= 1), "chunk counts must be >= 1");
        let split_priority = (0..chunk_counts.len()).collect();
        let curve_dims = (0..chunk_counts.len()).collect();
        GridHint { chunk_counts, split_priority, curve_dims }
    }

    /// Restrict the Hilbert curve to a subset of dimensions.
    pub fn with_curve_dims(mut self, dims: Vec<usize>) -> Self {
        assert!(!dims.is_empty(), "curve needs at least one dimension");
        assert!(dims.iter().all(|&d| d < self.chunk_counts.len()), "curve dim out of range");
        self.curve_dims = dims;
        self
    }

    /// Override the dimension-cycling order for splits. May list a
    /// *subset* of dimensions: an append-only time dimension is usually
    /// omitted, because any split plane through it strands all future
    /// inserts on one side.
    pub fn with_split_priority(mut self, priority: Vec<usize>) -> Self {
        assert!(!priority.is_empty(), "priority must list at least one dim");
        assert!(priority.iter().all(|&d| d < self.chunk_counts.len()), "priority dim out of range");
        let mut sorted = priority.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), priority.len(), "priority must not repeat dims");
        self.split_priority = priority;
        self
    }

    /// Number of dimensions.
    pub fn ndims(&self) -> usize {
        self.chunk_counts.len()
    }

    /// The dimension to split at tree depth `depth`.
    pub fn split_dim(&self, depth: usize) -> usize {
        self.split_priority[depth % self.split_priority.len()]
    }
}

/// Tuning knobs shared by the partitioner constructors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartitionerConfig {
    /// Virtual nodes per host on the consistent-hash ring.
    pub virtual_nodes: u32,
    /// Height of Uniform Range's static tree (l = 2^h leaves).
    pub uniform_height: u32,
    /// The two dimensions the quadtree quarters (defaults to the last two,
    /// which are the spatial lon/lat dims in both of the paper's schemas).
    pub quad_plane: Option<(usize, usize)>,
    /// Fraction of a node Append fills before spilling to the next.
    pub append_fill: f64,
}

impl Default for PartitionerConfig {
    fn default() -> Self {
        PartitionerConfig {
            virtual_nodes: 64,
            uniform_height: 9,
            quad_plane: None,
            append_fill: 1.0,
        }
    }
}

/// The epoch snapshot a batch routes against: the cluster at batch start
/// plus the batch's byte prefix sums.
///
/// Routing is read-only, so every chunk of a batch routes against the
/// same epoch. Order-sensitive schemes (Append) reconstruct "how many
/// bytes arrived before me" from `prefix_bytes` instead of watching live
/// node loads, which makes their decisions a pure function of (table,
/// epoch, ordinal).
#[derive(Debug, Clone, Copy)]
pub struct RouteEpoch<'a> {
    cluster: &'a Cluster,
    /// `prefix_bytes[i]` = Σ bytes of batch chunks `0..i`. Empty for
    /// single-chunk epochs (prefix 0).
    prefix_bytes: &'a [u64],
}

impl<'a> RouteEpoch<'a> {
    /// Epoch for a single-chunk placement (prefix 0), allocation-free.
    pub fn single(cluster: &'a Cluster) -> Self {
        RouteEpoch { cluster, prefix_bytes: &[] }
    }

    /// Epoch for a whole batch; `prefix_bytes` from [`batch_prefix_bytes`].
    pub fn for_batch(cluster: &'a Cluster, prefix_bytes: &'a [u64]) -> Self {
        RouteEpoch { cluster, prefix_bytes }
    }

    /// The cluster as of the epoch (loads exclude the in-flight batch).
    pub fn cluster(&self) -> &'a Cluster {
        self.cluster
    }

    /// Bytes of the batch that precede `ordinal` in arrival order.
    #[inline]
    pub fn prefix_bytes(&self, ordinal: usize) -> u64 {
        self.prefix_bytes.get(ordinal).copied().unwrap_or(0)
    }
}

/// Exclusive byte prefix sums of a batch: `out[i]` = Σ `batch[0..i].bytes`.
pub fn batch_prefix_bytes(batch: &[ChunkDescriptor]) -> Vec<u64> {
    let mut acc = 0u64;
    batch
        .iter()
        .map(|d| {
            let p = acc;
            acc = acc.saturating_add(d.bytes);
            p
        })
        .collect()
}

/// Route a whole batch against one epoch: `out[i]` is
/// `p.route(batch[i], i, epoch)`, in batch order.
pub fn route_all(
    p: &dyn Partitioner,
    batch: &[ChunkDescriptor],
    epoch: &RouteEpoch<'_>,
) -> Vec<NodeId> {
    batch.iter().enumerate().map(|(i, d)| p.route(d, i, epoch)).collect()
}

/// The first chunk `cluster` places that `p`'s table cannot locate. A
/// table restored beside its cluster locates every placement (each went
/// through [`Partitioner::commit`]), and scale-out relies on it.
pub fn unlocated(p: &dyn Partitioner, cluster: &Cluster) -> Option<ChunkKey> {
    cluster.placements().map(|(key, _)| key).find(|key| p.locate(key).is_none())
}

/// Restore helper: one node a table names, which must be on the `roster`
/// (a route to any other node places a chunk nowhere).
pub(super) fn read_node(
    r: &mut ByteReader<'_>,
    roster: &[NodeId],
    context: &'static str,
) -> Result<NodeId, CodecError> {
    let node = NodeId(r.u32(context)?);
    if !roster.contains(&node) {
        return Err(CodecError::invalid(context, format!("{node} is not on the roster")));
    }
    Ok(node)
}

/// Restore helper for the schemes whose table is the roster itself, in
/// join order (Append, Round Robin, Uniform Range): scale-out appends the
/// nodes the cluster adds, so the list is exactly `roster`.
pub(super) fn read_roster(
    r: &mut ByteReader<'_>,
    roster: &[NodeId],
    context: &'static str,
) -> Result<Vec<NodeId>, CodecError> {
    let nodes = r.list(context, 4, |r| r.u32(context).map(NodeId))?;
    if nodes != roster {
        let detail = format!("{nodes:?} is not the roster {roster:?}");
        return Err(CodecError::invalid(context, detail));
    }
    Ok(nodes)
}

/// True when the `(start, len)` spans tile `0..whole` exactly: in start
/// order, each begins where the one before it ends.
pub(super) fn tiles(mut spans: Vec<(u128, u128)>, whole: u128) -> bool {
    spans.sort_unstable();
    let next = |at: u128, &(start, len): &(u128, u128)| at.checked_add(len).filter(|_| start == at);
    spans.iter().try_fold(0, next) == Some(whole)
}

/// The skew-aware scale-out: each of `new_nodes` in turn splits the most
/// loaded preexisting node (ties to the lowest id). `split(victim, fresh,
/// residents)` splits the victim's part of the table and returns the
/// residents that move to `fresh`, in plan order; `residents` are the
/// victim's records in key order, less the chunks earlier splits of this
/// scale-out move. Loads are projected across the splits, so each victim
/// choice sees the moves planned before it.
pub(super) fn split_heaviest<'c>(
    cluster: &'c Cluster,
    new_nodes: &[NodeId],
    mut split: impl FnMut(NodeId, NodeId, Vec<&'c ChunkDescriptor>) -> Vec<&'c ChunkDescriptor>,
) -> RebalancePlan {
    let mut plan = RebalancePlan::empty();
    let mut loads: BTreeMap<NodeId, u64> =
        cluster.nodes().map(|n| (n.id, n.used_bytes())).collect();
    for &fresh in new_nodes {
        let preexisting = loads.iter().filter(|(n, _)| !new_nodes.contains(n));
        let (&victim, _) = preexisting
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
            .expect("cluster has preexisting nodes");
        let moved: HashSet<&ChunkKey> = plan.moves.iter().map(|m| &m.key).collect();
        let residents = cluster.residents_on(victim).map(Resident::descriptor);
        let residents = residents.filter(|d| !moved.contains(&d.key)).collect();
        for d in split(victim, fresh, residents) {
            plan.push(d.key, victim, fresh, d.bytes);
            *loads.entry(victim).or_default() -= d.bytes;
            *loads.entry(fresh).or_default() += d.bytes;
        }
    }
    plan
}

/// The table-wide scale-out: every placed chunk whose `owner` changed
/// moves to it, in key order, with the bytes on its record. A lost chunk
/// has no record and stays on its wreck.
pub(super) fn reshuffle(cluster: &Cluster, owner: impl Fn(&ChunkKey) -> NodeId) -> RebalancePlan {
    let mut plan = RebalancePlan::empty();
    for (key, from) in cluster.placements() {
        let to = owner(&key);
        if to == from {
            continue;
        }
        if let Some(desc) = cluster.descriptor(&key) {
            plan.push(key, from, to, desc.bytes);
        }
    }
    plan
}

/// The byte-weighted median of chunks given as `(position, bytes)` in
/// ascending order: the first position above the lowest with at least
/// half the bytes before it, else the last position above the lowest, so
/// a split there leaves chunks on both sides. `None` when the chunks
/// weigh nothing or all share one position.
pub(super) fn weighted_median<T: Copy + PartialOrd>(
    sorted: impl DoubleEndedIterator<Item = (T, u64)> + Clone,
) -> Option<T> {
    let total: u64 = sorted.clone().map(|(_, bytes)| bytes).sum();
    let (first, _) = sorted.clone().next().filter(|_| total > 0)?;
    let mut before = 0u64;
    let half_before = sorted.clone().find(|&(at, bytes)| {
        let found = before * 2 >= total && at > first;
        before += bytes;
        found
    });
    half_before.or_else(|| sorted.rev().find(|&(at, _)| at > first)).map(|(at, _)| at)
}

/// The elastic partitioner interface (see module docs for the protocol).
pub trait Partitioner {
    /// Which scheme this is.
    fn kind(&self) -> PartitionerKind;

    /// Table 1 feature set.
    fn features(&self) -> PartitionerFeatures {
        self.kind().features()
    }

    /// Choose the destination node for the chunk at position `ordinal` of
    /// the current batch, against `epoch`. Read-only: a pure function of
    /// (table, epoch, ordinal, desc), so a batch's routes do not depend on
    /// when each chunk is routed.
    fn route(&self, desc: &ChunkDescriptor, ordinal: usize, epoch: &RouteEpoch<'_>) -> NodeId;

    /// Sequentially fold one routed batch's table mutations (sequence
    /// maps, cursor advances) into the partitioning table. Stateless
    /// schemes need nothing. Called once per batch, after the cluster has
    /// placed it; `routes` are the values [`Partitioner::route`] produced.
    fn commit(&mut self, batch: &[ChunkDescriptor], routes: &[NodeId]) {
        let _ = (batch, routes);
    }

    /// Single-chunk placement: route a one-chunk epoch and commit it.
    /// The classic sequential driver loop uses this.
    fn place(&mut self, desc: &ChunkDescriptor, cluster: &Cluster) -> NodeId {
        let epoch = RouteEpoch::single(cluster);
        let node = self.route(desc, 0, &epoch);
        self.commit(std::slice::from_ref(desc), std::slice::from_ref(&node));
        node
    }

    /// Answer a chunk lookup from the partitioner's own table.
    fn locate(&self, key: &ChunkKey) -> Option<NodeId>;

    /// React to freshly added nodes with a rebalance plan. Called after
    /// `cluster.add_nodes`; the caller applies the returned plan.
    fn scale_out(&mut self, cluster: &Cluster, new_nodes: &[NodeId]) -> RebalancePlan;

    /// Serialize the **data-dependent** partitioning table (sequence
    /// maps, split trees, range boundaries — everything the workload's
    /// history shaped). Config-derived structure (grid hints, virtual
    /// node counts, planes) is *not* included: recovery rebuilds the
    /// partitioner from the same config via [`build_partitioner`] and
    /// then lays this snapshot over it with
    /// [`Partitioner::table_restore`], after which routing decisions are
    /// bit-identical to the crashed process's.
    fn table_snapshot(&self) -> Vec<u8>;

    /// Restore the table from a [`Partitioner::table_snapshot`] payload
    /// taken from a partitioner of the same kind and config, for `roster`
    /// (the cluster's nodes, in join order). Only a table the scheme could
    /// have written is accepted, so routing over it cannot panic.
    fn table_restore(&mut self, bytes: &[u8], roster: &[NodeId]) -> Result<(), CodecError>;
}

/// Construct a partitioner of `kind` for a cluster's current nodes.
pub fn build_partitioner(
    kind: PartitionerKind,
    cluster: &Cluster,
    grid: &GridHint,
    config: &PartitionerConfig,
) -> Box<dyn Partitioner> {
    let nodes = cluster.node_ids();
    match kind {
        PartitionerKind::Append => Box::new(Append::new(&nodes, config.append_fill, grid)),
        PartitionerKind::ConsistentHash => {
            Box::new(ConsistentHash::new(&nodes, config.virtual_nodes))
        }
        PartitionerKind::ExtendibleHash => Box::new(ExtendibleHash::new(&nodes)),
        PartitionerKind::HilbertCurve => Box::new(HilbertCurve::new(&nodes, grid)),
        PartitionerKind::IncrementalQuadtree => {
            let plane = config.quad_plane.unwrap_or_else(|| default_plane(grid));
            Box::new(IncrementalQuadtree::new(&nodes, grid, plane))
        }
        PartitionerKind::KdTree => Box::new(KdTree::new(&nodes, grid)),
        PartitionerKind::RoundRobin => Box::new(RoundRobin::new(&nodes, grid)),
        PartitionerKind::UniformRange => {
            Box::new(UniformRange::new(&nodes, grid, config.uniform_height))
        }
    }
}

/// The default quadtree plane: the last two dimensions (lon/lat in the
/// paper's schemas, where time comes first).
fn default_plane(grid: &GridHint) -> (usize, usize) {
    let n = grid.ndims();
    if n >= 2 {
        (n - 2, n - 1)
    } else {
        (0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_feature_matrix_matches_paper() {
        use PartitionerKind::*;
        // Row by row from Table 1.
        let t = |k: PartitionerKind| k.features();
        assert_eq!(
            (
                t(Append).incremental_scale_out,
                t(Append).fine_grained,
                t(Append).skew_aware,
                t(Append).n_dimensional_clustering
            ),
            (true, true, false, false)
        );
        assert_eq!(
            (
                t(ConsistentHash).incremental_scale_out,
                t(ConsistentHash).fine_grained,
                t(ConsistentHash).skew_aware,
                t(ConsistentHash).n_dimensional_clustering
            ),
            (true, true, false, false)
        );
        assert_eq!(
            (
                t(ExtendibleHash).incremental_scale_out,
                t(ExtendibleHash).fine_grained,
                t(ExtendibleHash).skew_aware,
                t(ExtendibleHash).n_dimensional_clustering
            ),
            (true, true, true, false)
        );
        assert_eq!(
            (
                t(HilbertCurve).incremental_scale_out,
                t(HilbertCurve).fine_grained,
                t(HilbertCurve).skew_aware,
                t(HilbertCurve).n_dimensional_clustering
            ),
            (true, true, true, true)
        );
        assert_eq!(
            (
                t(IncrementalQuadtree).incremental_scale_out,
                t(IncrementalQuadtree).fine_grained,
                t(IncrementalQuadtree).skew_aware,
                t(IncrementalQuadtree).n_dimensional_clustering
            ),
            (true, false, true, true)
        );
        assert_eq!(
            (
                t(KdTree).incremental_scale_out,
                t(KdTree).fine_grained,
                t(KdTree).skew_aware,
                t(KdTree).n_dimensional_clustering
            ),
            (true, false, true, true)
        );
        assert_eq!(
            (
                t(UniformRange).incremental_scale_out,
                t(UniformRange).fine_grained,
                t(UniformRange).skew_aware,
                t(UniformRange).n_dimensional_clustering
            ),
            (false, false, false, true)
        );
        assert!(!t(RoundRobin).incremental_scale_out);
        assert!(!t(RoundRobin).skew_aware);
    }

    #[test]
    fn grid_hint_validates() {
        let g = GridHint::new(vec![14, 30, 15]);
        assert_eq!(g.ndims(), 3);
    }

    #[test]
    #[should_panic(expected = "chunk counts")]
    fn grid_hint_rejects_zero() {
        let _ = GridHint::new(vec![0, 3]);
    }

    #[test]
    fn default_plane_is_spatial_dims() {
        assert_eq!(default_plane(&GridHint::new(vec![14, 30, 15])), (1, 2));
        assert_eq!(default_plane(&GridHint::new(vec![8, 8])), (0, 1));
    }
}
