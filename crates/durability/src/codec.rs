//! Hand-rolled little-endian binary codec: the primitive layer every
//! durable payload (log events, checkpoint sections, partitioner tables)
//! is built from. Reads are cursor-based and total — malformed input
//! yields a typed [`CodecError`], never a panic or a partial value.
//!
//! # The decode rules
//!
//! Every decoder in the workspace reads through three rules, kept here:
//!
//! 1. **A count is bounded by the input.** A list's `u64` length is read
//!    by [`ByteReader::count`] (or [`ByteReader::list`]) with the fewest
//!    bytes its encoder writes per item. A count whose items cannot fit
//!    in the bytes left is [`CodecError::Truncated`] before anything is
//!    allocated, so a reserve is the count itself.
//!    [`ByteWriter::put_words`] and [`ByteReader::words`] are the
//!    fixed-width form of [`ByteWriter::put_list`]: the same bytes for a
//!    column of numbers, a coordinate buffer or a bitmap's words, copied
//!    as one block rather than one call a value, with the count as the
//!    block's one check.
//! 2. **A list written in key order is read strictly ascending**
//!    ([`ascending`]): a repeated or out-of-order key is refused, never a
//!    silent overwrite of the earlier entry.
//! 3. **A codec error carries its own context.** Every read names what it
//!    decodes, and a [`DurabilityError`](crate::DurabilityError) takes the
//!    `CodecError` whole (`?` converts).
//!
//! # The round-trip contract
//!
//! A decoder accepts only the bytes its encoder would write: an accepted
//! value re-encodes to exactly the bytes it was decoded from. Bytes no
//! encoder writes — a tombstone past the last row, a zone map narrower
//! than its cells, a routing table that would panic — are a typed error.

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

    /// Append a counted list — its `u64` length, then each item as
    /// `put_one` writes it — which [`ByteReader::list`] (or a loop over
    /// [`ByteReader::count`]) reads back.
    pub fn put_list<I>(&mut self, items: I, mut put_one: impl FnMut(&mut Self, I::Item))
    where
        I: IntoIterator,
        I::IntoIter: ExactSizeIterator,
    {
        let items = items.into_iter();
        self.put_usize(items.len());
        items.for_each(|item| put_one(self, item));
    }

    /// Append a counted list whose length is known only once its items
    /// are written: `put_items` writes them and returns how many, and the
    /// count is patched in ahead of them. The bytes of
    /// [`ByteWriter::put_list`], without a first walk to count the items.
    pub fn put_counted(&mut self, put_items: impl FnOnce(&mut Self) -> usize) {
        let at = self.buf.len();
        self.put_usize(0);
        let n = put_items(self);
        self.buf[at..at + 8].copy_from_slice(&(n as u64).to_le_bytes());
    }

    /// Append a counted list of fixed-width values as one block: the
    /// bytes [`ByteWriter::put_list`] writes with a per-item `put_*`
    /// (its `u64` length, then each value's `N` little-endian bytes),
    /// which [`ByteReader::words`] reads back.
    pub fn put_words<T: Copy, const N: usize>(
        &mut self,
        items: &[T],
        to_le: impl Fn(T) -> [u8; N],
    ) {
        self.put_usize(items.len());
        let start = self.buf.len();
        self.buf.resize(start + items.len() * N, 0);
        let (block, _) = self.buf[start..].as_chunks_mut::<N>();
        for (out, &item) in block.iter_mut().zip(items) {
            *out = to_le(item);
        }
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

impl CodecError {
    /// A refusal: `context` decoded, but to a value `detail` says no
    /// encoder writes.
    pub fn invalid(context: &'static str, detail: impl Into<String>) -> Self {
        CodecError::Invalid { context, detail: detail.into() }
    }
}

/// Refuse `next` unless it sorts strictly after `last`, the key read
/// before it from a list its encoder wrote in key order (rule 2 of the
/// module docs).
pub fn ascending<K: Ord + ?Sized>(
    context: &'static str,
    last: Option<&K>,
    next: &K,
) -> Result<(), CodecError> {
    match last {
        Some(last) if last >= next => {
            Err(CodecError::invalid(context, "keys written in order are repeated or out of order"))
        }
        _ => Ok(()),
    }
}

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
            Err(CodecError::invalid(context, format!("{} trailing bytes", self.remaining())))
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
            b => Err(CodecError::invalid(context, format!("bool byte {b}"))),
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

    /// Read a `u64` narrowed to `usize`. A value, not a length: a list's
    /// count goes through [`ByteReader::count`].
    pub fn usize(&mut self, context: &'static str) -> Result<usize, CodecError> {
        let v = self.u64(context)?;
        usize::try_from(v).map_err(|_| CodecError::invalid(context, format!("{v} overflows usize")))
    }

    /// Read a list's `u64` count, refusing one whose items — each at
    /// least `min_item_bytes` long, the smallest thing its encoder
    /// writes per item — cannot fit in the bytes left (rule 1 of the
    /// module docs).
    pub fn count(
        &mut self,
        context: &'static str,
        min_item_bytes: usize,
    ) -> Result<usize, CodecError> {
        debug_assert!(min_item_bytes > 0, "an item of no bytes bounds nothing");
        let n = self.u64(context)?;
        let remaining = self.remaining();
        let wanted = usize::try_from(n).unwrap_or(usize::MAX).saturating_mul(min_item_bytes);
        if wanted > remaining {
            return Err(CodecError::Truncated { context, wanted, remaining });
        }
        Ok(n as usize)
    }

    /// Read a counted list ([`ByteReader::count`]) of items `read_one`
    /// decodes.
    pub fn list<T>(
        &mut self,
        context: &'static str,
        min_item_bytes: usize,
        mut read_one: impl FnMut(&mut Self) -> Result<T, CodecError>,
    ) -> Result<Vec<T>, CodecError> {
        let n = self.count(context, min_item_bytes)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(read_one(self)?);
        }
        Ok(out)
    }

    /// Read a counted list of fixed-width values written by
    /// [`ByteWriter::put_words`]. The count ([`ByteReader::count`], `N`
    /// bytes an item) is the only length check: once it holds, the
    /// block is there, so a refusal names `context`.
    pub fn words<T, const N: usize>(
        &mut self,
        context: &'static str,
        from_le: impl Fn([u8; N]) -> T,
    ) -> Result<Vec<T>, CodecError> {
        let n = self.count(context, N)?;
        let (block, _) = self.take(context, n * N)?.as_chunks::<N>();
        Ok(block.iter().map(|&b| from_le(b)).collect())
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
            .map_err(|e| CodecError::invalid(context, format!("utf8: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    /// A count is refused before anything is allocated when its items
    /// cannot fit in what is left; one that fits reads, and `list`
    /// collects exactly that many.
    #[test]
    fn counts_are_bounded_by_the_input() {
        let mut w = ByteWriter::new();
        w.put_usize(3);
        (0..3).for_each(|i| w.put_u32(i));
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.list("ids", 4, |r| r.u32("id")), Ok(vec![0, 1, 2]));
        r.finish("ids").unwrap();
        for min_item_bytes in [5, 8] {
            let err = ByteReader::new(&bytes).count("ids", min_item_bytes).unwrap_err();
            let want =
                CodecError::Truncated { context: "ids", wanted: 3 * min_item_bytes, remaining: 12 };
            assert_eq!(err, want);
        }
        let huge = u64::MAX.to_le_bytes();
        let err = ByteReader::new(&huge).count("ids", 1).unwrap_err();
        assert!(matches!(err, CodecError::Truncated { remaining: 0, .. }), "{err}");
    }

    #[test]
    fn ascending_refuses_repeats_and_reversals() {
        assert_eq!(ascending("k", None, &3), Ok(()));
        assert_eq!(ascending("k", Some(&2), &3), Ok(()));
        for last in [3, 4] {
            assert!(matches!(
                ascending("k", Some(&last), &3),
                Err(CodecError::Invalid { context: "k", .. })
            ));
        }
        assert_eq!(ascending::<[i64]>("k", Some(&[1, 2][..]), &[1, 3][..]), Ok(()));
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

    /// What [`ByteWriter::put_words`] must equal: the counted list with
    /// one `put_*` call per value.
    fn per_item<T: Copy>(items: &[T], put_one: impl Fn(&mut ByteWriter, T)) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_list(items, |w, &x| put_one(w, x));
        w.into_bytes()
    }

    fn block<T: Copy, const N: usize>(items: &[T], to_le: impl Fn(T) -> [u8; N]) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_words(items, to_le);
        w.into_bytes()
    }

    /// Read `bytes` as one block, requiring every byte consumed.
    fn read_block<T, const N: usize>(bytes: &[u8], from_le: impl Fn([u8; N]) -> T) -> Vec<T> {
        let mut r = ByteReader::new(bytes);
        let out = r.words("words", from_le).unwrap();
        r.finish("words").unwrap();
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A block is the per-item list's bytes at both widths, the empty
        /// slice included, and reads back bit for bit (NaN payloads and
        /// signed zeros too: floats travel as their bits).
        #[test]
        fn words_write_the_bytes_of_a_per_item_list(
            raw in proptest::collection::vec(any::<u64>(), 0..40),
            len in 0usize..40,
        ) {
            for raw in [&raw[..], &raw[..len.min(raw.len())], &[]] {
                let wide: Vec<i64> = raw.iter().map(|&x| x as i64).collect();
                let bytes = block(&wide, i64::to_le_bytes);
                prop_assert_eq!(&bytes, &per_item(&wide, ByteWriter::put_i64));
                prop_assert_eq!(&block(raw, u64::to_le_bytes), &bytes);
                prop_assert_eq!(read_block(&bytes, i64::from_le_bytes), wide);
                let doubles: Vec<f64> = raw.iter().map(|&x| f64::from_bits(x)).collect();
                let per_double = per_item(&doubles, ByteWriter::put_f64);
                prop_assert_eq!(&block(&doubles, f64::to_le_bytes), &per_double);
                let back = read_block(&bytes, f64::from_le_bytes);
                prop_assert!(back.iter().map(|x| x.to_bits()).eq(raw.iter().copied()));

                let narrow: Vec<u32> = raw.iter().map(|&x| (x >> 17) as u32).collect();
                let bytes = block(&narrow, u32::to_le_bytes);
                prop_assert_eq!(&bytes, &per_item(&narrow, ByteWriter::put_u32));
                prop_assert_eq!(read_block(&bytes, u32::from_le_bytes), narrow.clone());
                let ints: Vec<i32> = narrow.iter().map(|&x| x as i32).collect();
                prop_assert_eq!(&block(&ints, i32::to_le_bytes), &bytes);
                prop_assert_eq!(read_block(&bytes, i32::from_le_bytes), ints);
                let floats: Vec<f32> = narrow.iter().map(|&x| f32::from_bits(x)).collect();
                prop_assert_eq!(&block(&floats, f32::to_le_bytes), &bytes);
                let back = read_block(&bytes, f32::from_le_bytes);
                prop_assert!(back.iter().map(|x| x.to_bits()).eq(narrow.iter().copied()));
            }
        }
    }

    /// A list counted as it is written is the bytes of `put_list`, empty
    /// or not, wherever it starts.
    #[test]
    fn a_counted_list_writes_the_bytes_of_put_list() {
        for items in [&[3u32, 1, 4, 1, 5][..], &[]] {
            let mut w = ByteWriter::new();
            w.put_u8(9);
            w.put_counted(|w| {
                items.iter().for_each(|&x| w.put_u32(x));
                items.len()
            });
            let mut want = ByteWriter::new();
            want.put_u8(9);
            want.put_list(items, |w, &x| w.put_u32(x));
            assert_eq!(w.into_bytes(), want.into_bytes());
        }
    }

    /// A block's count is checked as a list's is: one item past the bytes
    /// left is `Truncated` under the block's context, before any value.
    #[test]
    fn a_block_count_past_its_bytes_is_truncated() {
        let mut bytes = block(&[1u64, 2, 3], u64::to_le_bytes);
        bytes[..8].copy_from_slice(&4u64.to_le_bytes());
        let err = ByteReader::new(&bytes).words("ids", u64::from_le_bytes).unwrap_err();
        assert_eq!(err, CodecError::Truncated { context: "ids", wanted: 32, remaining: 24 });
        let err = ByteReader::new(&bytes[..5]).words("ids", u32::from_le_bytes).unwrap_err();
        assert_eq!(err, CodecError::Truncated { context: "ids", wanted: 8, remaining: 5 });
    }
}
