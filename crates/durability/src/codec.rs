//! Hand-rolled little-endian binary codec: the primitive layer every
//! durable payload (log events, checkpoint sections) is built from.
//! Reads are cursor-based and total — malformed input yields a typed
//! [`CodecError`], never a panic or a partial value.

use std::fmt;

/// A growing little-endian byte sink.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty writer over a recycled buffer: `buf` is cleared and its
    /// capacity kept, so a caller that encodes a payload of about the
    /// same size again and again (a log record, a checkpoint) grows the
    /// buffer once, not once per payload.
    pub fn over(mut buf: Vec<u8>) -> Self {
        buf.clear();
        Self { buf }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the writer, yielding its bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Append a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u128`, little-endian.
    pub fn put_u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `i64`, little-endian two's complement.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its raw bit pattern (bit-exact round-trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a `usize` widened to `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Append a length-prefixed byte slice.
    pub fn put_bytes(&mut self, v: &[u8]) {
        // Everything written here lands inside a record, whose length
        // `seal_record` bounds by `MAX_RECORD_LEN` (2^28) before a byte
        // of it is stored: a slice the prefix cannot hold never persists.
        debug_assert!(u32::try_from(v.len()).is_ok(), "length prefix overflows u32");
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }
}

/// Why a decode failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the value it promised.
    Truncated {
        /// What was being decoded.
        context: &'static str,
        /// Bytes the value needed.
        wanted: usize,
        /// Bytes the input still had.
        remaining: usize,
    },
    /// The input decoded but the value is out of range or malformed.
    Invalid {
        /// What was being decoded.
        context: &'static str,
        /// Human-readable detail.
        detail: String,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { context, wanted, remaining } => {
                write!(f, "truncated {context}: wanted {wanted} bytes, {remaining} remain")
            }
            CodecError::Invalid { context, detail } => {
                write!(f, "invalid {context}: {detail}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// A bounds-checked little-endian cursor over a byte slice.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Require the cursor to sit exactly at the end of the input.
    pub fn finish(&self, context: &'static str) -> Result<(), CodecError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(CodecError::Invalid {
                context,
                detail: format!("{} trailing bytes", self.remaining()),
            })
        }
    }

    fn take(&mut self, context: &'static str, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated { context, wanted: n, remaining: self.remaining() });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Read one byte.
    pub fn u8(&mut self, context: &'static str) -> Result<u8, CodecError> {
        Ok(self.take(context, 1)?[0])
    }

    /// Read a bool byte; anything but 0/1 is invalid.
    pub fn bool(&mut self, context: &'static str) -> Result<bool, CodecError> {
        match self.u8(context)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(CodecError::Invalid { context, detail: format!("bool byte {b}") }),
        }
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self, context: &'static str) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(context, 4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self, context: &'static str) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(context, 8)?.try_into().unwrap()))
    }

    /// Read a little-endian `u128`.
    pub fn u128(&mut self, context: &'static str) -> Result<u128, CodecError> {
        Ok(u128::from_le_bytes(self.take(context, 16)?.try_into().unwrap()))
    }

    /// Read a little-endian `i64`.
    pub fn i64(&mut self, context: &'static str) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(self.take(context, 8)?.try_into().unwrap()))
    }

    /// Read an `f64` from its raw bit pattern.
    pub fn f64(&mut self, context: &'static str) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64(context)?))
    }

    /// Read a `u64` narrowed to `usize`.
    pub fn usize(&mut self, context: &'static str) -> Result<usize, CodecError> {
        let v = self.u64(context)?;
        usize::try_from(v)
            .map_err(|_| CodecError::Invalid { context, detail: format!("{v} overflows usize") })
    }

    /// Read a length-prefixed byte slice.
    pub fn bytes(&mut self, context: &'static str) -> Result<&'a [u8], CodecError> {
        let len = self.u32(context)? as usize;
        self.take(context, len)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self, context: &'static str) -> Result<String, CodecError> {
        let raw = self.bytes(context)?;
        String::from_utf8(raw.to_vec())
            .map_err(|e| CodecError::Invalid { context, detail: format!("utf8: {e}") })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_u128(u128::MAX / 3);
        w.put_i64(-42);
        w.put_f64(-0.0);
        w.put_usize(99);
        w.put_bytes(&[1, 2, 3]);
        w.put_str("héllo");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8("a").unwrap(), 7);
        assert!(r.bool("b").unwrap());
        assert_eq!(r.u32("c").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64("d").unwrap(), u64::MAX - 1);
        assert_eq!(r.u128("e").unwrap(), u128::MAX / 3);
        assert_eq!(r.i64("f").unwrap(), -42);
        assert_eq!(r.f64("g").unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.usize("h").unwrap(), 99);
        assert_eq!(r.bytes("i").unwrap(), &[1, 2, 3]);
        assert_eq!(r.str("j").unwrap(), "héllo");
        r.finish("tail").unwrap();
    }

    #[test]
    fn truncation_is_typed_not_panicking() {
        let mut w = ByteWriter::new();
        w.put_u64(5);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut]);
            let err = r.u64("value").unwrap_err();
            assert!(matches!(err, CodecError::Truncated { wanted: 8, .. }), "{err}");
        }
    }

    #[test]
    fn bad_bool_and_bad_utf8_are_invalid() {
        let mut r = ByteReader::new(&[2]);
        assert!(matches!(r.bool("flag"), Err(CodecError::Invalid { .. })));
        let mut w = ByteWriter::new();
        w.put_bytes(&[0xFF, 0xFE]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(r.str("name"), Err(CodecError::Invalid { .. })));
    }
}
