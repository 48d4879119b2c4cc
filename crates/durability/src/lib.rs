//! Crash-consistent durability primitives: a checksummed write-ahead
//! log, a checkpoint store, and the torn-write recovery rules the rest
//! of the workspace builds on.
//!
//! # Record format
//!
//! Every log record and every checkpoint blob is framed identically:
//!
//! ```text
//! +-------------+-------------+-------------+------------------+
//! | magic (u32) | len   (u32) | crc32 (u32) | payload (len B)  |
//! +-------------+-------------+-------------+------------------+
//! ```
//!
//! All integers are little-endian. `magic` is [`RECORD_MAGIC`]
//! (`"WAL1"`), `len` is the payload byte count (capped at
//! [`MAX_RECORD_LEN`] as a sanity bound against corrupted lengths), and
//! `crc32` is the IEEE CRC-32 of the payload bytes. The payload itself
//! is an opaque event encoding owned by the caller (the workload runner
//! logs cycle boundaries, placed cell batches, retraction scripts,
//! scale decisions, and node lifecycle transitions).
//!
//! A writer frames **in place**: [`begin_record`] hands out a writer
//! that already holds the header's twelve bytes, the payload is encoded
//! behind them, and [`seal_record`] checks the length — an over-long
//! payload is a typed [`DurabilityError::RecordTooLarge`], nothing is
//! written — and patches the header. One recycled buffer per log, no
//! copy of the payload. [`frame_record`] builds the same bytes from a
//! finished payload and is the reference the in-place path is tested
//! equal to.
//!
//! # Torn tails vs corruption
//!
//! A crash can tear the final append: the durable image ends with a
//! *prefix* of a record. [`RecordReader`] classifies every anomaly:
//!
//! * a tail shorter than the 12-byte header, or a fully-headered record
//!   whose payload runs past end-of-log, is **torn** —
//!   [`DurabilityError::Torn`] names the last valid record boundary and
//!   recovery truncates there, keeping every complete record;
//! * a wrong magic, an out-of-range length, or a CRC mismatch on a
//!   record that is fully present is **corruption** —
//!   [`DurabilityError::Corruption`] is surfaced as a typed error and
//!   recovery refuses to guess. The log never yields a wrong answer: a
//!   damaged image produces either a valid prefix state or an error.
//!
//! (A bit flip inside the *final* record's length field can masquerade
//! as a torn tail; recovery then truncates to the preceding boundary,
//! which is still a valid prefix state — the invariant holds.)
//!
//! # Checkpoint / replay invariant
//!
//! A checkpoint is a framed snapshot of the full logical state at a
//! commit point (a cycle boundary) plus the log offset it covers.
//! Recovery loads the newest checkpoint that validates, then replays
//! the log suffix from the covered offset, applying only *complete*
//! committed groups (records up to the last commit marker) and
//! discarding any uncommitted tail. The invariant: checkpoint state +
//! replayed suffix is bit-identical to the state an uninterrupted run
//! holds at the same commit point — placements, loads, census,
//! tombstones, and view accumulators included.

#![warn(missing_docs)]
// The CRC fold in `crc.rs` is the one place in the workspace that the
// compiler cannot prove memory-safe; every other crate root forbids such
// code, and each block of it states why it is sound.
#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

mod codec;
mod crc;
mod error;
mod log;

pub use codec::{ascending, ByteReader, ByteWriter, CodecError};
pub use crc::crc32;
pub use error::DurabilityError;
pub use log::{
    begin_record, frame_record, seal_record, shared, FileLog, FsyncPolicy, LogStore, MemLog,
    RecordReader, SharedLog, MAX_RECORD_LEN, RECORD_HEADER_LEN, RECORD_MAGIC,
};
