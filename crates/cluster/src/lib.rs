//! # cluster-sim
//!
//! A deterministic shared-nothing cluster simulator: the substrate that
//! stands in for the paper's 8-node SciDB testbed. The placement index
//! keeps one record per chunk — descriptor, cells, and the node holding
//! it — and nodes keep a storage budget and byte ledgers; all data
//! movement (insert distribution, rebalances, query shuffles) reduces to
//! [`FlowSet`]s whose elapsed time comes from an explicit byte-flow cost
//! model with half-duplex endpoints and a fabric bisection floor.
//!
//! ```
//! use cluster_sim::{Cluster, CostModel, NodeId};
//! use array_model::{ArrayId, ChunkCoords, ChunkDescriptor, ChunkKey};
//!
//! let mut cluster = Cluster::new(2, 100_000_000_000, CostModel::default()).unwrap();
//! let key = ChunkKey::new(ArrayId(0), ChunkCoords::new([0, 0]));
//! cluster.place(ChunkDescriptor::new(key, 50_000_000, 1_000), NodeId(1)).unwrap();
//! assert_eq!(cluster.locate(&key), Some(NodeId(1)));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod census;
mod cluster;
mod cost;
mod durable;
mod error;
mod metrics;
mod node;
mod placement;
mod rebalance;
mod recovery;
mod transfer;

pub use census::ReplicaCensus;
pub use cluster::{
    ChunkCompaction, ChunkEviction, ChunkRetraction, Cluster, CrashReport, DecommissionReport,
};
pub use cost::{gb, CostModel, BYTES_PER_GB};
pub use error::{ClusterError, PayloadMismatch, Result};
pub use metrics::{relative_std_dev, NodeHoursLedger, PhaseBreakdown};
pub use node::{Node, NodeId, NodeState, Resident};
pub use placement::Slot;
pub use rebalance::{ChunkMove, RebalancePlan};
pub use recovery::{BackoffPolicy, Flakiness, MidCrash, RecoveryOutcome, RepairJob, RepairPlan};
pub use transfer::{Flow, FlowSet};
