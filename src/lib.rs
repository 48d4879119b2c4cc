//! # elastic-array-db
//!
//! A from-scratch Rust reproduction of **"Incremental Elasticity for Array
//! Databases"** (Jennie Duggan & Michael Stonebraker, SIGMOD 2014): elastic
//! partitioners and a leading-staircase provisioner for a shared-nothing,
//! SciDB-style array store, evaluated with synthetic MODIS and AIS
//! workloads over a deterministic cluster simulator.
//!
//! This crate is a facade: it re-exports the workspace's five library
//! crates under one roof and provides a [`prelude`] for the examples and
//! integration tests.
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`array`](mod@array) | `array-model` | schemas, chunks, coordinates, Hilbert curves |
//! | [`cluster`] | `cluster-sim` | nodes, placement, byte-flow cost model |
//! | [`elastic`] | `elastic-core` | the 8 partitioners + the staircase provisioner |
//! | [`query`] | `query-engine` | distributed array operators with cost accounting |
//! | [`workloads`] | `workloads` | MODIS/AIS generators, cycle driver, benchmark suites |
//!
//! ## Quickstart
//!
//! ```
//! use elastic_array_db::prelude::*;
//!
//! // A 2-node cluster and a K-d Tree partitioner over an 8x8 chunk grid.
//! let mut cluster = Cluster::new(2, 1_000_000, CostModel::default()).unwrap();
//! let grid = GridHint::new(vec![8, 8]);
//! let mut partitioner =
//!     build_partitioner(PartitionerKind::KdTree, &cluster, &grid, &PartitionerConfig::default());
//!
//! // Place a chunk, then scale out incrementally.
//! let key = ChunkKey::new(ArrayId(0), ChunkCoords::new([3, 4]));
//! let desc = ChunkDescriptor::new(key.clone(), 500_000, 100);
//! let node = partitioner.place(&desc, &cluster);
//! cluster.place(desc, node).unwrap();
//!
//! let new_nodes = cluster.add_nodes(1, 1_000_000);
//! let plan = partitioner.scale_out(&cluster, &new_nodes);
//! assert!(plan.is_incremental(&new_nodes));
//! cluster.apply_rebalance(&plan).unwrap();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use array_model as array;
pub use cluster_sim as cluster;
pub use elastic_core as elastic;
pub use query_engine as query;
pub use workloads;

/// The commonly used types in one import.
pub mod prelude {
    pub use array_model::{
        Array, ArrayId, ArraySchema, AttributeDef, CellBuffer, ChunkCoords, ChunkDescriptor,
        ChunkKey, DimensionDef, Region, ScalarValue, StringEncoding,
    };
    pub use cluster_sim::{
        gb, relative_std_dev, Cluster, CostModel, NodeId, PhaseBreakdown, RebalancePlan,
    };
    pub use elastic_core::{
        batch_prefix_bytes, build_partitioner, route_all, GridHint, Partitioner, PartitionerConfig,
        PartitionerKind, ProvisionDecision, RouteEpoch, StaircaseConfig, StaircaseProvisioner,
    };
    pub use query_engine::{ops, Catalog, ExecutionContext, Predicate, QueryStats, StoredArray};
    pub use workloads::{
        AisWorkload, CycleError, FaultEvent, FaultKind, FaultPlan, ModisWorkload, RunReport,
        RunnerConfig, ScalingPolicy, SuiteReport, Workload, WorkloadRunner,
    };
}
