//! The typed error surface of the durability layer. Every failure mode
//! a damaged log or checkpoint can produce maps to exactly one variant
//! — recovery never guesses and never fabricates state.

use crate::codec::CodecError;
use std::fmt;

/// What went wrong while logging, checkpointing, or recovering.
#[derive(Debug)]
pub enum DurabilityError {
    /// An I/O failure in a storage backend.
    Io {
        /// The operation that failed.
        context: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The log ends mid-record: a torn append. `offset` is the last
    /// valid record boundary — everything before it is intact, and
    /// recovery truncates there.
    Torn {
        /// Byte offset of the last valid record boundary.
        offset: u64,
    },
    /// A fully-present record failed validation (bad magic, insane
    /// length, or checksum mismatch). Unlike a torn tail this is not
    /// safely truncatable — it is surfaced, never silently skipped.
    Corruption {
        /// Byte offset of the damaged record.
        offset: u64,
        /// Which check failed.
        detail: String,
    },
    /// A record or checkpoint payload failed to decode; the codec error
    /// names what was being decoded.
    Codec(CodecError),
    /// Recovered state disagrees with a logged cross-check (ledger
    /// totals, config fingerprints, replayed fault schedules).
    Mismatch {
        /// What disagreed.
        what: String,
        /// The value the log promised.
        expected: String,
        /// The value recovery produced.
        actual: String,
    },
    /// A checkpoint the log referenced is missing from the store.
    MissingCheckpoint {
        /// The checkpoint sequence number.
        seq: u64,
    },
    /// A record (or checkpoint) payload is longer than a frame may carry.
    /// Nothing was written: a reader would reject the frame as corrupt.
    RecordTooLarge {
        /// The payload's length in bytes.
        len: u64,
        /// The cap it exceeds (at most `MAX_RECORD_LEN`).
        cap: u32,
    },
}

impl From<CodecError> for DurabilityError {
    fn from(source: CodecError) -> Self {
        DurabilityError::Codec(source)
    }
}

impl Clone for DurabilityError {
    /// `std::io::Error` is not `Clone`; the clone preserves its kind and
    /// rendered message, which is everything the typed surface promises.
    fn clone(&self) -> Self {
        match self {
            DurabilityError::Io { context, source } => DurabilityError::Io {
                context: context.clone(),
                source: std::io::Error::new(source.kind(), source.to_string()),
            },
            DurabilityError::Torn { offset } => DurabilityError::Torn { offset: *offset },
            DurabilityError::Corruption { offset, detail } => {
                DurabilityError::Corruption { offset: *offset, detail: detail.clone() }
            }
            DurabilityError::Codec(source) => DurabilityError::Codec(source.clone()),
            DurabilityError::Mismatch { what, expected, actual } => DurabilityError::Mismatch {
                what: what.clone(),
                expected: expected.clone(),
                actual: actual.clone(),
            },
            DurabilityError::MissingCheckpoint { seq } => {
                DurabilityError::MissingCheckpoint { seq: *seq }
            }
            DurabilityError::RecordTooLarge { len, cap } => {
                DurabilityError::RecordTooLarge { len: *len, cap: *cap }
            }
        }
    }
}

impl PartialEq for DurabilityError {
    /// Structural equality; I/O errors compare by operation and kind
    /// (the payload message is platform wording, not identity).
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (
                DurabilityError::Io { context: a, source: sa },
                DurabilityError::Io { context: b, source: sb },
            ) => a == b && sa.kind() == sb.kind(),
            (DurabilityError::Torn { offset: a }, DurabilityError::Torn { offset: b }) => a == b,
            (
                DurabilityError::Corruption { offset: a, detail: da },
                DurabilityError::Corruption { offset: b, detail: db },
            ) => a == b && da == db,
            (DurabilityError::Codec(a), DurabilityError::Codec(b)) => a == b,
            (
                DurabilityError::Mismatch { what: a, expected: ea, actual: aa },
                DurabilityError::Mismatch { what: b, expected: eb, actual: ab },
            ) => a == b && ea == eb && aa == ab,
            (
                DurabilityError::MissingCheckpoint { seq: a },
                DurabilityError::MissingCheckpoint { seq: b },
            ) => a == b,
            (
                DurabilityError::RecordTooLarge { len: a, cap: ca },
                DurabilityError::RecordTooLarge { len: b, cap: cb },
            ) => a == b && ca == cb,
            _ => false,
        }
    }
}

impl fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurabilityError::Io { context, source } => write!(f, "io during {context}: {source}"),
            DurabilityError::Torn { offset } => {
                write!(f, "torn log tail after valid record boundary at byte {offset}")
            }
            DurabilityError::Corruption { offset, detail } => {
                write!(f, "corrupt record at byte {offset}: {detail}")
            }
            DurabilityError::Codec(source) => write!(f, "undecodable: {source}"),
            DurabilityError::Mismatch { what, expected, actual } => {
                write!(f, "recovery mismatch on {what}: log says {expected}, rebuilt {actual}")
            }
            DurabilityError::MissingCheckpoint { seq } => {
                write!(f, "checkpoint {seq} missing from store")
            }
            DurabilityError::RecordTooLarge { len, cap } => {
                write!(f, "record payload of {len} bytes exceeds the {cap}-byte frame cap")
            }
        }
    }
}

impl std::error::Error for DurabilityError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurabilityError::Io { source, .. } => Some(source),
            DurabilityError::Codec(source) => Some(source),
            _ => None,
        }
    }
}
