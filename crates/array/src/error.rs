//! Error type for the array data model.

use std::fmt;

/// Errors raised by schema construction, parsing, and cell ingestion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArrayError {
    /// A schema declaration was structurally invalid (empty dims, zero
    /// chunk interval, inverted ranges, duplicate names, ...).
    InvalidSchema(String),
    /// A schema string could not be parsed.
    Parse(String),
    /// A cell coordinate fell outside the declared dimension ranges.
    OutOfBounds {
        /// Dimension name that was violated.
        dimension: String,
        /// Offending coordinate value.
        coordinate: i64,
    },
    /// The number of coordinates or attribute values did not match the schema.
    Arity {
        /// What was expected (dimension or attribute count).
        expected: usize,
        /// What was supplied.
        got: usize,
    },
    /// An attribute value's type did not match its declaration.
    TypeMismatch {
        /// Attribute name.
        attribute: String,
        /// Declared type, as text.
        expected: &'static str,
        /// Supplied type, as text.
        got: &'static str,
    },
    /// Lookup of an unknown dimension or attribute name.
    UnknownName(String),
    /// Absorbed a chunk into a position that already holds one.
    ChunkOccupied(String),
    /// A batch or script holds more rows than the `u32` row index the
    /// grouping kernels use can address.
    TooManyRows(usize),
}

impl fmt::Display for ArrayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArrayError::InvalidSchema(msg) => write!(f, "invalid schema: {msg}"),
            ArrayError::Parse(msg) => write!(f, "schema parse error: {msg}"),
            ArrayError::OutOfBounds { dimension, coordinate } => {
                write!(f, "coordinate {coordinate} outside range of dimension `{dimension}`")
            }
            ArrayError::Arity { expected, got } => {
                write!(f, "arity mismatch: expected {expected}, got {got}")
            }
            ArrayError::TypeMismatch { attribute, expected, got } => {
                write!(f, "attribute `{attribute}` expects {expected}, got {got}")
            }
            ArrayError::UnknownName(name) => write!(f, "unknown dimension or attribute `{name}`"),
            ArrayError::ChunkOccupied(coords) => {
                write!(f, "chunk position {coords} already holds a chunk")
            }
            ArrayError::TooManyRows(rows) => {
                write!(f, "{rows} rows exceed the u32 row index of one batch")
            }
        }
    }
}

impl std::error::Error for ArrayError {}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, ArrayError>;
