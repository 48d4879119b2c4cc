//! Record framing, the [`LogStore`] backend trait, a real `std::fs`
//! file backend, and a deterministic in-memory backend that can tear
//! its own tail or flip any byte — the fault injector the recovery
//! tests drive.

use crate::codec::ByteWriter;
use crate::crc::crc32;
use crate::error::DurabilityError;
use std::collections::BTreeMap;
use std::fs;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// The four magic bytes opening every record: `"WAL1"` little-endian.
pub const RECORD_MAGIC: u32 = u32::from_le_bytes(*b"WAL1");

/// Framing overhead per record: magic + length + checksum.
pub const RECORD_HEADER_LEN: usize = 12;

/// Sanity cap on a record's payload length. A length field above this
/// is treated as corruption, not as a (absurd) allocation request.
pub const MAX_RECORD_LEN: u32 = 1 << 28;

/// Frame `payload` as a record: magic, length, CRC-32, payload.
pub fn frame_record(payload: &[u8]) -> Vec<u8> {
    assert!(payload.len() <= MAX_RECORD_LEN as usize, "record payload over sanity cap");
    let mut out = Vec::with_capacity(RECORD_HEADER_LEN + payload.len());
    out.extend_from_slice(&RECORD_MAGIC.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Start a record **in place**: a writer over `recycled` (cleared, its
/// capacity kept) that already holds the [`RECORD_HEADER_LEN`] header
/// bytes, zeroed. The caller encodes the payload straight behind them and
/// hands the bytes to [`seal_record`] — one buffer, encoded into and
/// appended from, where [`frame_record`] allocates a second one, copies
/// the payload into it and leaves the first to be dropped.
pub fn begin_record(recycled: Vec<u8>) -> ByteWriter {
    let mut w = ByteWriter::over(recycled);
    for _ in 0..RECORD_HEADER_LEN / 4 {
        w.put_u32(0);
    }
    w
}

/// Finish a record begun by [`begin_record`]: check the payload length
/// against `cap` (itself held to [`MAX_RECORD_LEN`], past which a reader
/// calls the frame corrupt), then patch magic, length and CRC-32 into the
/// header bytes. `record` is then byte for byte what [`frame_record`]
/// returns for the payload. An over-long payload is a typed
/// [`DurabilityError::RecordTooLarge`] and `record` is left unsealed.
///
/// # Panics
///
/// If `record` is shorter than a header — it was not begun by
/// [`begin_record`].
pub fn seal_record(record: &mut [u8], cap: u32) -> Result<(), DurabilityError> {
    let (header, payload) = record.split_at_mut(RECORD_HEADER_LEN);
    let cap = cap.min(MAX_RECORD_LEN);
    let len = u32::try_from(payload.len()).ok().filter(|&len| len <= cap).ok_or(
        // `usize` is at most 64 bits wide on every supported target.
        DurabilityError::RecordTooLarge { len: payload.len() as u64, cap },
    )?;
    header[..4].copy_from_slice(&RECORD_MAGIC.to_le_bytes());
    header[4..8].copy_from_slice(&len.to_le_bytes());
    header[8..].copy_from_slice(&crc32(payload).to_le_bytes());
    Ok(())
}

/// A cursor over a framed log image that yields record payloads and
/// classifies every anomaly as torn (truncatable) or corrupt (typed
/// error) — see the crate docs for the classification rules.
#[derive(Debug)]
pub struct RecordReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> RecordReader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// The byte offset of the next record boundary — after an `Ok`,
    /// the end of everything validated so far.
    pub fn offset(&self) -> u64 {
        self.pos as u64
    }

    /// The next record's payload, `None` at a clean end-of-log.
    ///
    /// `Err(Torn { offset })` means the log ends with a partial append
    /// and `offset` is the last valid boundary; `Err(Corruption)`
    /// means a fully-present record failed validation.
    pub fn next_record(&mut self) -> Result<Option<&'a [u8]>, DurabilityError> {
        let remaining = self.buf.len() - self.pos;
        if remaining == 0 {
            return Ok(None);
        }
        let boundary = self.pos as u64;
        // Check the magic over however many of its bytes are present: a
        // torn append still writes the record prefix in order, so any
        // present prefix byte that mismatches is corruption, not a tear.
        let have = remaining.min(4);
        if self.buf[self.pos..self.pos + have] != RECORD_MAGIC.to_le_bytes()[..have] {
            return Err(DurabilityError::Corruption {
                offset: boundary,
                detail: "bad record magic".into(),
            });
        }
        if remaining < RECORD_HEADER_LEN {
            return Err(DurabilityError::Torn { offset: boundary });
        }
        let len = u32::from_le_bytes(self.buf[self.pos + 4..self.pos + 8].try_into().unwrap());
        if len > MAX_RECORD_LEN {
            return Err(DurabilityError::Corruption {
                offset: boundary,
                detail: format!("record length {len} over sanity cap"),
            });
        }
        let total = RECORD_HEADER_LEN + len as usize;
        if remaining < total {
            return Err(DurabilityError::Torn { offset: boundary });
        }
        let expect = u32::from_le_bytes(self.buf[self.pos + 8..self.pos + 12].try_into().unwrap());
        let payload = &self.buf[self.pos + RECORD_HEADER_LEN..self.pos + total];
        if crc32(payload) != expect {
            return Err(DurabilityError::Corruption {
                offset: boundary,
                detail: "payload checksum mismatch".into(),
            });
        }
        self.pos += total;
        Ok(Some(payload))
    }
}

/// When appended log records are forced to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// Flush after every record append (slowest, no committed record
    /// is ever lost).
    Always,
    /// Flush once per cycle, at the commit marker — a crash loses at
    /// most the uncommitted cycle in flight.
    #[default]
    PerCycle,
    /// Never flush explicitly; a crash may tear anywhere.
    Never,
}

/// A durable backend: one append-only log plus a keyed checkpoint
/// store. Checkpoint writes are atomic (a torn checkpoint write leaves
/// the previous checkpoint intact), log appends are not — that is what
/// [`RecordReader`]'s torn-tail rule exists for.
pub trait LogStore {
    /// Append raw framed bytes to the log tail.
    fn append(&mut self, bytes: &[u8]) -> Result<(), DurabilityError>;
    /// Force everything appended so far to stable storage.
    fn flush(&mut self) -> Result<(), DurabilityError>;
    /// The current durable log image, in full.
    fn read_log(&mut self) -> Result<Vec<u8>, DurabilityError>;
    /// Discard every log byte at and after `len` (torn-tail repair).
    fn truncate_log(&mut self, len: u64) -> Result<(), DurabilityError>;
    /// Atomically store checkpoint `seq`.
    fn write_checkpoint(&mut self, seq: u64, bytes: &[u8]) -> Result<(), DurabilityError>;
    /// Available checkpoint sequence numbers, ascending.
    fn checkpoint_seqs(&mut self) -> Result<Vec<u64>, DurabilityError>;
    /// Read back checkpoint `seq`.
    fn read_checkpoint(&mut self, seq: u64) -> Result<Vec<u8>, DurabilityError>;
}

/// A shareable handle to a [`LogStore`]: the runner appends through it
/// while tests keep a clone to crash, corrupt, and recover from.
pub type SharedLog = Arc<Mutex<dyn LogStore + Send>>;

/// Wrap a backend in a [`SharedLog`] handle.
pub fn shared<L: LogStore + Send + 'static>(log: L) -> SharedLog {
    Arc::new(Mutex::new(log))
}

fn io_err(context: &str, source: std::io::Error) -> DurabilityError {
    DurabilityError::Io { context: context.to_string(), source }
}

/// The real `std::fs` backend: `wal.log` plus `ckpt-<seq>.bin` files
/// in one directory. Checkpoints are written to a temp file and
/// renamed into place, so a crash mid-checkpoint never damages an
/// older checkpoint.
#[derive(Debug)]
pub struct FileLog {
    dir: PathBuf,
    wal: fs::File,
}

impl FileLog {
    /// Open (creating if needed) a log directory.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, DurabilityError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| io_err("create log dir", e))?;
        let wal = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .read(true)
            .open(dir.join("wal.log"))
            .map_err(|e| io_err("open wal.log", e))?;
        Ok(Self { dir, wal })
    }

    fn checkpoint_path(&self, seq: u64) -> PathBuf {
        self.dir.join(format!("ckpt-{seq}.bin"))
    }
}

impl LogStore for FileLog {
    fn append(&mut self, bytes: &[u8]) -> Result<(), DurabilityError> {
        self.wal.write_all(bytes).map_err(|e| io_err("append wal.log", e))
    }

    fn flush(&mut self) -> Result<(), DurabilityError> {
        self.wal.sync_data().map_err(|e| io_err("fsync wal.log", e))
    }

    fn read_log(&mut self) -> Result<Vec<u8>, DurabilityError> {
        let mut buf = Vec::new();
        self.wal.seek(SeekFrom::Start(0)).map_err(|e| io_err("seek wal.log", e))?;
        self.wal.read_to_end(&mut buf).map_err(|e| io_err("read wal.log", e))?;
        Ok(buf)
    }

    fn truncate_log(&mut self, len: u64) -> Result<(), DurabilityError> {
        self.wal.set_len(len).map_err(|e| io_err("truncate wal.log", e))?;
        self.wal.seek(SeekFrom::End(0)).map_err(|e| io_err("seek wal.log", e))?;
        Ok(())
    }

    fn write_checkpoint(&mut self, seq: u64, bytes: &[u8]) -> Result<(), DurabilityError> {
        let tmp = self.dir.join(format!("ckpt-{seq}.tmp"));
        let mut f = fs::File::create(&tmp).map_err(|e| io_err("create checkpoint tmp", e))?;
        f.write_all(bytes).map_err(|e| io_err("write checkpoint tmp", e))?;
        f.sync_data().map_err(|e| io_err("fsync checkpoint tmp", e))?;
        drop(f);
        fs::rename(&tmp, self.checkpoint_path(seq))
            .map_err(|e| io_err("rename checkpoint into place", e))
    }

    fn checkpoint_seqs(&mut self) -> Result<Vec<u64>, DurabilityError> {
        let mut seqs = Vec::new();
        let entries = fs::read_dir(&self.dir).map_err(|e| io_err("list log dir", e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err("list log dir", e))?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(seq) = name.strip_prefix("ckpt-").and_then(|s| s.strip_suffix(".bin")) {
                if let Ok(seq) = seq.parse::<u64>() {
                    seqs.push(seq);
                }
            }
        }
        seqs.sort_unstable();
        Ok(seqs)
    }

    fn read_checkpoint(&mut self, seq: u64) -> Result<Vec<u8>, DurabilityError> {
        match fs::read(self.checkpoint_path(seq)) {
            Ok(bytes) => Ok(bytes),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                Err(DurabilityError::MissingCheckpoint { seq })
            }
            Err(e) => Err(io_err("read checkpoint", e)),
        }
    }
}

/// The deterministic in-memory backend. It models the flushed/buffered
/// boundary explicitly: [`MemLog::crash`] discards everything past the
/// last flush, [`MemLog::crash_truncate`] tears the image at *any*
/// byte offset (partial flush), and [`MemLog::corrupt_byte`] flips
/// bits in place — the three fault shapes recovery must survive.
#[derive(Debug, Default, Clone)]
pub struct MemLog {
    data: Vec<u8>,
    flushed: usize,
    checkpoints: BTreeMap<u64, Vec<u8>>,
}

impl MemLog {
    /// An empty in-memory store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total bytes appended (flushed or not).
    pub fn len(&self) -> u64 {
        self.data.len() as u64
    }

    /// True when the log holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The raw log image, for offline inspection.
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    /// Simulate a crash: everything past the last flush is lost.
    pub fn crash(&mut self) {
        self.data.truncate(self.flushed);
    }

    /// Simulate a torn write: the durable image ends at exactly
    /// `offset` bytes, regardless of flush state.
    pub fn crash_truncate(&mut self, offset: u64) {
        self.data.truncate(offset as usize);
        self.flushed = self.flushed.min(self.data.len());
    }

    /// Flip every set bit of `mask` in the byte at `offset`.
    pub fn corrupt_byte(&mut self, offset: u64, mask: u8) {
        let i = offset as usize;
        assert!(i < self.data.len(), "corrupt_byte past end of log");
        self.data[i] ^= mask;
    }

    /// Drop a stored checkpoint (simulating a checkpoint file lost or
    /// never renamed into place).
    pub fn drop_checkpoint(&mut self, seq: u64) {
        self.checkpoints.remove(&seq);
    }

    /// Flip every set bit of `mask` at `offset` inside checkpoint
    /// `seq` — the recovery scan must skip it to an older survivor.
    pub fn corrupt_checkpoint(&mut self, seq: u64, offset: u64, mask: u8) {
        let blob = self.checkpoints.get_mut(&seq).expect("checkpoint exists");
        blob[offset as usize] ^= mask;
    }
}

impl LogStore for MemLog {
    fn append(&mut self, bytes: &[u8]) -> Result<(), DurabilityError> {
        self.data.extend_from_slice(bytes);
        Ok(())
    }

    fn flush(&mut self) -> Result<(), DurabilityError> {
        self.flushed = self.data.len();
        Ok(())
    }

    fn read_log(&mut self) -> Result<Vec<u8>, DurabilityError> {
        Ok(self.data.clone())
    }

    fn truncate_log(&mut self, len: u64) -> Result<(), DurabilityError> {
        self.data.truncate(len as usize);
        self.flushed = self.flushed.min(self.data.len());
        Ok(())
    }

    fn write_checkpoint(&mut self, seq: u64, bytes: &[u8]) -> Result<(), DurabilityError> {
        self.checkpoints.insert(seq, bytes.to_vec());
        Ok(())
    }

    fn checkpoint_seqs(&mut self) -> Result<Vec<u64>, DurabilityError> {
        Ok(self.checkpoints.keys().copied().collect())
    }

    fn read_checkpoint(&mut self, seq: u64) -> Result<Vec<u8>, DurabilityError> {
        self.checkpoints.get(&seq).cloned().ok_or(DurabilityError::MissingCheckpoint { seq })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_of(payloads: &[&[u8]]) -> Vec<u8> {
        let mut buf = Vec::new();
        for p in payloads {
            buf.extend_from_slice(&frame_record(p));
        }
        buf
    }

    #[test]
    fn frames_round_trip_in_order() {
        let buf = log_of(&[b"alpha", b"", b"gamma rays"]);
        let mut r = RecordReader::new(&buf);
        assert_eq!(r.next_record().unwrap(), Some(&b"alpha"[..]));
        assert_eq!(r.next_record().unwrap(), Some(&b""[..]));
        assert_eq!(r.next_record().unwrap(), Some(&b"gamma rays"[..]));
        assert_eq!(r.next_record().unwrap(), None);
        assert_eq!(r.offset(), buf.len() as u64);
    }

    /// The in-place framing against its reference, `frame_record`: the
    /// same bytes for an empty, a short and a multi-KB payload, through a
    /// buffer that is recycled (its stale contents must not leak); and
    /// the length check — a typed error, the record left unsealed, the
    /// cap itself capped at `MAX_RECORD_LEN`.
    #[test]
    fn in_place_framing_equals_frame_record_and_checks_the_length_first() {
        let big: Vec<u8> = (0..5000u32).map(|i| (i * 31 % 251) as u8).collect();
        let mut recycled = vec![0xAA; 64];
        for payload in [&b""[..], b"alpha", &big] {
            let mut w = begin_record(recycled);
            assert_eq!(w.len(), RECORD_HEADER_LEN);
            payload.iter().for_each(|&b| w.put_u8(b));
            let mut record = w.into_bytes();
            seal_record(&mut record, MAX_RECORD_LEN).unwrap();
            assert_eq!(record, frame_record(payload));
            let mut r = RecordReader::new(&record);
            assert_eq!(r.next_record().unwrap(), Some(payload));
            recycled = record;
        }
        let mut w = begin_record(recycled);
        big.iter().for_each(|&b| w.put_u8(b));
        let mut record = w.into_bytes();
        let unsealed = record.clone();
        assert_eq!(
            seal_record(&mut record, 4999),
            Err(DurabilityError::RecordTooLarge { len: 5000, cap: 4999 })
        );
        assert_eq!(record, unsealed, "a refused record is left as it was");
        seal_record(&mut record, 5000).unwrap();
        seal_record(&mut record, u32::MAX).unwrap();
        assert_eq!(record, frame_record(&big));
    }

    #[test]
    fn every_truncation_is_clean_or_torn_at_a_boundary() {
        let buf = log_of(&[b"one", b"two", b"three"]);
        let boundaries: Vec<u64> = {
            let mut b = vec![0u64];
            let mut r = RecordReader::new(&buf);
            while r.next_record().unwrap().is_some() {
                b.push(r.offset());
            }
            b
        };
        for cut in 0..=buf.len() {
            let mut r = RecordReader::new(&buf[..cut]);
            let mut last = 0u64;
            loop {
                match r.next_record() {
                    Ok(Some(_)) => last = r.offset(),
                    Ok(None) => {
                        assert!(boundaries.contains(&(cut as u64)), "clean end off-boundary");
                        break;
                    }
                    Err(DurabilityError::Torn { offset }) => {
                        assert_eq!(offset, last, "torn offset names the last valid boundary");
                        assert!(boundaries.contains(&offset));
                        break;
                    }
                    Err(e) => panic!("truncation must never read as corruption: {e}"),
                }
            }
        }
    }

    #[test]
    fn interior_bit_flips_are_corruption_never_wrong_payloads() {
        let buf = log_of(&[b"first record", b"second record"]);
        let first_total = RECORD_HEADER_LEN + b"first record".len();
        for offset in 0..first_total {
            for mask in [0x01u8, 0x80u8] {
                let mut damaged = buf.clone();
                damaged[offset] ^= mask;
                let mut r = RecordReader::new(&damaged);
                match r.next_record() {
                    Err(DurabilityError::Corruption { offset: at, .. }) => assert_eq!(at, 0),
                    // A flip in the length field can masquerade as a
                    // torn tail — allowed, it still truncates safely.
                    Err(DurabilityError::Torn { offset: at }) => {
                        assert_eq!(at, 0);
                        assert!((4..8).contains(&offset), "only len flips may read torn");
                    }
                    Ok(Some(p)) => panic!("damaged record yielded payload {p:?}"),
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
    }

    #[test]
    fn memlog_crash_respects_flush_boundary() {
        let mut log = MemLog::new();
        log.append(&frame_record(b"committed")).unwrap();
        log.flush().unwrap();
        log.append(&frame_record(b"in flight")).unwrap();
        log.crash();
        let img = log.read_log().unwrap();
        let mut r = RecordReader::new(&img);
        assert_eq!(r.next_record().unwrap(), Some(&b"committed"[..]));
        assert_eq!(r.next_record().unwrap(), None);
    }

    #[test]
    fn file_log_round_trips_and_truncates() {
        let dir = std::env::temp_dir().join(format!("wal-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        {
            let mut log = FileLog::open(&dir).unwrap();
            log.append(&frame_record(b"alpha")).unwrap();
            log.append(&frame_record(b"beta")).unwrap();
            log.flush().unwrap();
            log.write_checkpoint(1, b"snap-one").unwrap();
            log.write_checkpoint(3, b"snap-three").unwrap();
        }
        {
            // Reopen: appends and checkpoints survive the handle.
            let mut log = FileLog::open(&dir).unwrap();
            let img = log.read_log().unwrap();
            let mut r = RecordReader::new(&img);
            assert_eq!(r.next_record().unwrap(), Some(&b"alpha"[..]));
            let after_alpha = r.offset();
            assert_eq!(r.next_record().unwrap(), Some(&b"beta"[..]));
            assert_eq!(log.checkpoint_seqs().unwrap(), vec![1, 3]);
            assert_eq!(log.read_checkpoint(3).unwrap(), b"snap-three");
            assert!(matches!(
                log.read_checkpoint(2),
                Err(DurabilityError::MissingCheckpoint { seq: 2 })
            ));
            log.truncate_log(after_alpha).unwrap();
            log.append(&frame_record(b"gamma")).unwrap();
            let img = log.read_log().unwrap();
            let mut r = RecordReader::new(&img);
            assert_eq!(r.next_record().unwrap(), Some(&b"alpha"[..]));
            assert_eq!(r.next_record().unwrap(), Some(&b"gamma"[..]));
            assert_eq!(r.next_record().unwrap(), None);
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
