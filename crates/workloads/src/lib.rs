//! # workloads
//!
//! The paper's two use cases (§3) as reproducible synthetic workloads,
//! plus the cyclic workload driver that runs them against any elastic
//! partitioner and scaling policy:
//!
//! * [`ModisWorkload`] — remote sensing: near-uniform 630 GB over 14 daily
//!   cycles, steady insert volume;
//! * [`AisWorkload`] — ship tracking: heavily skewed 400 GB over 10
//!   quarterly cycles (85 % of bytes in 5 % of chunks), trending insert
//!   volume;
//! * [`WorkloadRunner`] — §3.4's ingest → provision/reorganize → query
//!   loop with Equation 1 node-hour accounting, in three files:
//!   `cycle.rs` (config, errors, reports, the loop), `world.rs` (the
//!   state a cycle transforms and one method per phase), `durable.rs`
//!   (the write-ahead log, checkpoints, recovery's eligibility rule).

#![warn(missing_docs)]

pub mod ais;
mod cycle;
mod durable;
mod faults;
pub mod modis;
mod rand_util;
mod spec;
pub mod synthetic;
mod world;

pub use ais::AisWorkload;
pub use cycle::{CycleError, CycleReport, RunReport, RunnerConfig, ScalingPolicy, WorkloadRunner};
pub use durable::{DurabilityConfig, WalEvent};
pub use faults::{FaultEvent, FaultKind, FaultPlan};
pub use modis::ModisWorkload;
pub use rand_util::{lognormal, rng_for, standard_normal, zipf_weight};
pub use spec::{CellBatch, QueryRecord, SuiteReport, Workload};
pub use synthetic::{SpatialDistribution, SyntheticWorkload};
pub use world::{build_cell_array, build_cell_array_encoded};
