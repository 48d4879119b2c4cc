//! # elastic-core
//!
//! The primary contribution of *Incremental Elasticity for Array Databases*
//! (Duggan & Stonebraker, SIGMOD 2014), reimplemented in Rust:
//!
//! * **Elastic partitioners** (§4) — eight data-placement schemes for
//!   n-dimensional array chunks on an expanding shared-nothing cluster,
//!   classified by Table 1's four traits (incremental scale-out,
//!   fine-grained partitioning, skew-awareness, n-dimensional clustering).
//! * **The leading staircase provisioner** (§5) — a proportional-derivative
//!   control loop that decides *when* to add nodes and *how many*, plus the
//!   what-if tuner for its sampling window `s` (Algorithm 1) and the
//!   analytical node-hour cost model for its planning horizon `p`
//!   (Equations 5–9).
//! * **Chunk affinity analysis** (§8's future work) — co-access
//!   observations ranked into co-location advice under a balance cap.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod affinity;
mod bench_only;
pub mod hashing;
pub mod partition;
pub mod provision;

pub use affinity::{AffinityAnalyzer, AffinityEdge, PairStats};
#[allow(deprecated)]
pub use bench_only::route_batch;
pub use partition::{
    batch_prefix_bytes, build_partitioner, route_all, unlocated, Append, ConsistentHash,
    ExtendibleHash, GridHint, HilbertCurve, IncrementalQuadtree, KdTree, Partitioner,
    PartitionerConfig, PartitionerFeatures, PartitionerKind, RoundRobin, RouteEpoch, UniformRange,
};
pub use provision::{
    prediction_error, tune_plan_ahead, tune_samples, CostModelParams, PlanAheadReport,
    ProvisionDecision, SampleTuningReport, StaircaseConfig, StaircaseProvisioner,
};
