//! Distributed array operators.
//!
//! Every operator follows the same contract: compute a **real answer**
//! from materialized cells when every chunk its plan reaches holds them
//! ([`crate::ScanPlan::exact`]), and always produce [`crate::QueryStats`]
//! whose elapsed time is derived from chunk metadata, the cluster
//! placement, and the byte-flow cost model.

mod aggregate;
mod filter;
mod join;
pub(crate) mod keys;
mod model;
pub(crate) mod scan;
mod sort;
mod window;

pub use aggregate::{grid_aggregate, rolling_aggregate, AggFn, GroupRow, GroupSpec};
pub use filter::{filter_count, subarray, CellRows, CellRowsIter, CellSet};
pub use join::{lookup_join, positional_join, JoinResult};
pub use model::{kmeans, knn, trajectory, KMeansResult, KnnAnswer, TrajectoryResult};
pub use sort::{distinct_sorted, quantile, QuantileResult};
pub use window::{window_aggregate, WindowResult};
