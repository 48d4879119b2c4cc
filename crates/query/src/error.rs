//! Error type for query execution.

use array_model::{ArrayId, AttributeType, ChunkKey};
use std::fmt;

/// Errors raised by the query engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The catalog has no array with this id.
    UnknownArray(ArrayId),
    /// The named attribute does not exist on the array.
    UnknownAttribute(String),
    /// The region's arity does not match the array's dimensionality.
    RegionArity {
        /// Dimensions the array declares.
        expected: usize,
        /// Dimensions the region supplied.
        got: usize,
    },
    /// A chunk asked for by position ([`crate::ExecutionContext::node_of`]) is
    /// not placed on any node. A scan never sees it: it plans only the
    /// chunks the placement index holds. Carries the `Copy` key itself — the error text is rendered only when displayed, so
    /// constructing (let alone not taking) the miss branch never
    /// allocates on the per-chunk lookup path.
    Unplaced(ChunkKey),
    /// The chunk is lost (`cluster_sim::Slot::Lost`): the typed face of
    /// data loss, returned instead of a panic or a silent wrong answer.
    /// `Copy` key, lazily rendered, like [`QueryError::Unplaced`].
    NodeLost(ChunkKey),
    /// Operator-specific invalid argument.
    InvalidArgument(String),
    /// An operator was pointed at an attribute whose declared type cannot
    /// support it — aggregating a string column, a numeric predicate over
    /// strings, `distinct` over floats. Returned **instead of** silently
    /// coercing the column (the historical behavior answered `0.0`),
    /// which this repo's differential philosophy forbids.
    AttributeType {
        /// The attribute that was named.
        attribute: String,
        /// What the operator required ("numeric", "integer", "string").
        expected: &'static str,
        /// The attribute's declared type name.
        got: &'static str,
    },
}

/// The attribute types that widen to `f64` (measures).
pub(crate) const NUMERIC: &[AttributeType] =
    &[AttributeType::Int32, AttributeType::Int64, AttributeType::Float, AttributeType::Double];
/// The attribute types that widen to `i64` (keys).
pub(crate) const INTEGER: &[AttributeType] =
    &[AttributeType::Int32, AttributeType::Int64, AttributeType::Char];

/// Require `attribute`, declared as `ty`, to be one of the `accepted`
/// types (described as `expected`): the typed refusal every operator
/// makes up front instead of coercing or skipping a column's rows.
pub(crate) fn require_type(
    attribute: &str,
    ty: AttributeType,
    expected: &'static str,
    accepted: &[AttributeType],
) -> Result<()> {
    if accepted.contains(&ty) {
        return Ok(());
    }
    Err(QueryError::AttributeType { attribute: attribute.to_string(), expected, got: ty.name() })
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::UnknownArray(id) => write!(f, "unknown array {id}"),
            QueryError::UnknownAttribute(name) => write!(f, "unknown attribute `{name}`"),
            QueryError::RegionArity { expected, got } => {
                write!(f, "region has {got} dimensions, array has {expected}")
            }
            QueryError::Unplaced(key) => write!(f, "chunk {key} is not placed on any node"),
            QueryError::NodeLost(key) => {
                write!(f, "chunk {key} is lost: a crash took every copy of it")
            }
            QueryError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            QueryError::AttributeType { attribute, expected, got } => {
                write!(f, "attribute `{attribute}` is {got}, but the operator requires {expected}")
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, QueryError>;
