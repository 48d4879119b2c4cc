//! Error type for cluster simulation.

use crate::node::NodeState;
use array_model::ChunkKey;
use std::fmt;

/// Errors raised by cluster state transitions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// Referenced a node that does not exist.
    UnknownNode(u32),
    /// Placed a chunk that is already resident somewhere, or found a
    /// replica index naming one node twice for it.
    DuplicateChunk(ChunkKey),
    /// Moved or looked up a chunk that is not resident.
    MissingChunk(ChunkKey),
    /// The chunk is placed but lost: a crash took every copy of it
    /// (`Slot::Lost`). Nothing can read, write, move or overwrite it.
    ChunkLost(ChunkKey),
    /// A move's `from` node disagrees with the chunk's actual location.
    WrongSource {
        /// The chunk being moved.
        key: ChunkKey,
        /// Where the plan claimed it was.
        claimed: u32,
        /// Where it actually is.
        actual: u32,
    },
    /// The cluster must keep at least one node.
    EmptyCluster,
    /// A materialized payload disagreed with the placed descriptor's
    /// byte or cell count (the metadata model and the cells drifted
    /// apart). Boxed: the detail is error-path-only and would otherwise
    /// fatten every `Result` on the ingest path.
    PayloadMismatch(Box<PayloadMismatch>),
    /// An operation targeted a node whose lifecycle state cannot serve
    /// it (placing on a `Crashed` node, an invalid lifecycle transition).
    NodeUnavailable {
        /// The node that was targeted.
        node: u32,
        /// Its lifecycle state at the time.
        state: NodeState,
    },
    /// A payload was attached twice for the same chunk on the same node;
    /// re-attachment would silently shadow cells already being served.
    PayloadExists(ChunkKey),
    /// Every node in the cluster is out of service; the operation needs
    /// at least one surviving node.
    NoHealthyNodes,
    /// Tried to retire a node that still holds primary chunks; drain it
    /// (rebalance the chunks away) first.
    RetireNonEmpty {
        /// The node that was targeted.
        node: u32,
        /// Primary chunks still resident there.
        chunks: usize,
    },
    /// A cell-level operation needs the chunk's materialized payload, but
    /// only its metadata descriptor is resident (metadata-scale runs
    /// retract through descriptor shrinks instead).
    NoPayload(ChunkKey),
    /// A flat cell-coordinate slice was not a whole number of cells at
    /// the chunk key's arity.
    RaggedCells {
        /// The chunk the cells were addressed to; its dimensionality is
        /// the arity the slice had to be a multiple of.
        key: ChunkKey,
        /// Length of the slice that was supplied.
        len: usize,
    },
}

/// How a payload drifted from its placed descriptor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PayloadMismatch {
    /// The chunk whose payload was attached.
    pub key: ChunkKey,
    /// Bytes the resident descriptor declares.
    pub descriptor_bytes: u64,
    /// Bytes the payload actually stores.
    pub payload_bytes: u64,
    /// Cells the resident descriptor declares.
    pub descriptor_cells: u64,
    /// Cells the payload actually stores.
    pub payload_cells: u64,
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::UnknownNode(id) => write!(f, "unknown node {id}"),
            ClusterError::DuplicateChunk(key) => write!(f, "chunk {key} already placed"),
            ClusterError::MissingChunk(key) => write!(f, "chunk {key} is not resident"),
            ClusterError::ChunkLost(key) => {
                write!(f, "chunk {key} is lost: a crash took every copy of it")
            }
            ClusterError::WrongSource { key, claimed, actual } => {
                write!(f, "move of {key} claims source node {claimed} but it lives on {actual}")
            }
            ClusterError::EmptyCluster => write!(f, "cluster requires at least one node"),
            ClusterError::PayloadMismatch(m) => write!(
                f,
                "payload of {} stores {} bytes / {} cells but its descriptor declares \
                 {} bytes / {} cells",
                m.key, m.payload_bytes, m.payload_cells, m.descriptor_bytes, m.descriptor_cells
            ),
            ClusterError::NodeUnavailable { node, state } => {
                write!(f, "node {node} is {state} and cannot serve this operation")
            }
            ClusterError::PayloadExists(key) => {
                write!(f, "payload of {key} is already attached on its node")
            }
            ClusterError::NoHealthyNodes => {
                write!(f, "no node in the cluster is in service")
            }
            ClusterError::RetireNonEmpty { node, chunks } => {
                write!(f, "node {node} still holds {chunks} primary chunks and cannot retire")
            }
            ClusterError::NoPayload(key) => {
                write!(f, "chunk {key} has no materialized payload to retract cells from")
            }
            ClusterError::RaggedCells { key, len } => {
                write!(f, "{len} coordinates are not a whole number of cells of chunk {key}")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, ClusterError>;
