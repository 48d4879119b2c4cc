//! # query-engine
//!
//! Distributed array query operators over the simulated shared-nothing
//! cluster. Operators mirror the paper's two benchmark suites (§3.3):
//! Select-Project-Join (subarray selection, sampled quantile sort,
//! positional and lookup joins) and Science Analytics (group-by over
//! dimension space, windowed aggregation with halo exchange, k-means,
//! k-nearest neighbours, trajectory projection).
//!
//! Each operator runs in two layers at once:
//!
//! * **answers** are computed from materialized cells when the catalog
//!   holds them (tests, examples, small runs) and validated against naive
//!   reference implementations in the test suites;
//! * **costs** are always derived from chunk metadata + placement through
//!   the byte-flow model, so paper-scale workloads (hundreds of GB) run in
//!   milliseconds of host time while exhibiting the paper's elapsed-time
//!   behaviour (parallelism bounded by the most loaded node, shuffles for
//!   misplaced join partners, latency per cross-node halo/kNN hop).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod catalog;
mod error;
mod exec;
pub mod ops;
mod predicate;
mod stats;
pub mod view;

pub use catalog::{Catalog, StoredArray};
pub use error::{QueryError, Result};
pub use exec::{ExecutionContext, ScanPlan};
pub use predicate::{NumPred, Predicate, StrPred};
pub use stats::{scaled_bytes, QueryStats, WorkTracker};
