//! # bench-harness
//!
//! The reproduction harness for the paper's evaluation (§6): one function
//! per table/figure in [`experiments`], rendered by the `fig4`…`table3`
//! binaries. Host-time measurement lives in `benchmark/` at the repository
//! root, not here.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod table;
