//! Column-at-a-time scan kernels.
//!
//! Every operator reads rows the same way: [`ScanPlan`](crate::ScanPlan)'s
//! driver builds one [`SelectionMask`] per visited chunk — the complement
//! of the tombstone bitmap, narrowed by one typed pass over one
//! contiguous buffer per filter stage (region, then predicate) — and the
//! operator drains the surviving rows in ascending physical (insertion)
//! order, reading measures through a typed column view
//! ([`NumericSlice`]) resolved once per chunk.

use crate::catalog::StoredArray;
use crate::error::{require_type, QueryError, Result, INTEGER, NUMERIC};
use crate::predicate::{Predicate, StrPred};
use array_model::{AttributeColumn, AttributeType, Chunk, Region};

/// Per-chunk row selection bitmap (1 = selected). Row order is physical,
/// so draining the mask visits rows in insertion order.
pub(crate) struct SelectionMask {
    words: Vec<u64>,
    rows: usize,
}

impl SelectionMask {
    /// Every live (non-tombstoned) row of `chunk`.
    pub fn live(chunk: &Chunk) -> Self {
        let rows = chunk.physical_cell_count();
        let nwords = rows.div_ceil(64);
        let ts = chunk.tombstone_words();
        let mut words = vec![u64::MAX; nwords];
        for (w, &t) in words.iter_mut().zip(ts) {
            *w = !t;
        }
        // Clear the phantom bits past the last row so popcounts are exact.
        if !rows.is_multiple_of(64) {
            if let Some(last) = words.last_mut() {
                *last &= (1u64 << (rows % 64)) - 1;
            }
        }
        SelectionMask { words, rows }
    }

    #[inline]
    fn clear(&mut self, row: usize) {
        self.words[row / 64] &= !(1u64 << (row % 64));
    }

    /// Keep only rows whose coordinates fall inside `region`. Dimensions
    /// the chunk's zone map proves entirely in-range are skipped — sound
    /// even for a stale (post-retraction) zone, which is a superset of
    /// the live rows.
    pub fn retain_region(&mut self, chunk: &Chunk, region: &Region) {
        let nd = chunk.ndims();
        debug_assert_eq!(region.ndims(), nd);
        let flat = chunk.coords_flat();
        let zone = chunk.zone();
        for d in 0..nd {
            let (lo, hi) = (region.low[d], region.high[d]);
            if zone.dim_within(d, lo, hi) {
                continue;
            }
            self.retain(|row| {
                let c = flat[row * nd + d];
                c >= lo && c <= hi
            });
        }
    }

    /// Keep only rows whose value in column `attr` satisfies `pred`. One
    /// type dispatch per chunk; dictionary columns are filtered in code
    /// space (the strings are never decoded).
    pub fn retain_predicate(&mut self, chunk: &Chunk, attr: usize, pred: &Predicate) -> Result<()> {
        let col = chunk
            .column(attr)
            .ok_or_else(|| QueryError::InvalidArgument(format!("chunk has no column {attr}")))?;
        match (pred, col) {
            (Predicate::Num(p), AttributeColumn::Int32(v)) => {
                self.retain(|row| p.matches(f64::from(v[row])))
            }
            (Predicate::Num(p), AttributeColumn::Int64(v)) => {
                self.retain(|row| p.matches(v[row] as f64))
            }
            (Predicate::Num(p), AttributeColumn::Float(v)) => {
                self.retain(|row| p.matches(f64::from(v[row])))
            }
            (Predicate::Num(p), AttributeColumn::Double(v)) => self.retain(|row| p.matches(v[row])),
            (Predicate::Str(p), AttributeColumn::Dict(dc)) => {
                // Compile to code space: one acceptance bit per dictionary
                // entry, then the row loop is a u32 index + bit test.
                let dict = dc.dict();
                let accept: Vec<u64> = match p {
                    StrPred::Eq(s) => {
                        let mut bits = vec![0u64; dict.len().div_ceil(64)];
                        if let Some(c) = dict.code_of(s) {
                            bits[c as usize / 64] |= 1 << (c % 64);
                        }
                        bits
                    }
                    StrPred::In(set) => {
                        let mut bits = vec![0u64; dict.len().div_ceil(64)];
                        for s in set {
                            if let Some(c) = dict.code_of(s) {
                                bits[c as usize / 64] |= 1 << (c % 64);
                            }
                        }
                        bits
                    }
                    StrPred::Between(..) => {
                        // First-appearance codes are not ordered; scan the
                        // dictionary entries (each distinct string once).
                        let mut bits = vec![0u64; dict.len().div_ceil(64)];
                        for (c, s) in dict.strings().iter().enumerate() {
                            if p.matches(s) {
                                bits[c / 64] |= 1 << (c % 64);
                            }
                        }
                        bits
                    }
                };
                let codes = dc.codes();
                self.retain(|row| {
                    let c = codes[row] as usize;
                    accept[c / 64] & (1 << (c % 64)) != 0
                })
            }
            (Predicate::Str(p), AttributeColumn::Str(values)) => {
                self.retain(|row| p.matches(&values[row]))
            }
            // The operators type-check before scanning, so a mismatch here
            // is a caller bug — still a typed error, never a silent skip.
            _ => return pred.check_type(&format!("#{attr}"), col.column_type()),
        }
        Ok(())
    }

    /// Narrow the mask: keep only selected rows for which `keep` holds.
    #[inline]
    fn retain(&mut self, mut keep: impl FnMut(usize) -> bool) {
        for row in 0..self.rows {
            if self.is_set(row) && !keep(row) {
                self.clear(row);
            }
        }
    }

    #[inline]
    fn is_set(&self, row: usize) -> bool {
        self.words[row / 64] & (1u64 << (row % 64)) != 0
    }

    /// Number of selected rows.
    pub fn count(&self) -> u64 {
        self.words.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// Visit the selected rows of `chunk` (the chunk this mask was built
    /// over) with their cell coordinates, in ascending physical order.
    pub fn for_each_cell<'c>(&self, chunk: &'c Chunk, mut f: impl FnMut(usize, &'c [i64])) {
        let nd = chunk.ndims();
        let flat = chunk.coords_flat();
        self.for_each(|row| f(row, &flat[row * nd..(row + 1) * nd]));
    }

    /// Visit the selected rows in ascending physical order.
    pub fn for_each(&self, mut f: impl FnMut(usize)) {
        for (i, &word) in self.words.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                let bit = w.trailing_zeros() as usize;
                f(i * 64 + bit);
                w &= w - 1;
            }
        }
    }
}

/// A numeric column viewed as its contiguous typed buffer; `get` applies
/// the same widening `ScalarValue::as_f64` / `AttributeColumn::get_f64`
/// use, so kernel answers match the row-at-a-time accessors bit-for-bit.
pub(crate) enum NumericSlice<'a> {
    /// `int32` buffer.
    I32(&'a [i32]),
    /// `int64` buffer.
    I64(&'a [i64]),
    /// `float` buffer.
    F32(&'a [f32]),
    /// `double` buffer.
    F64(&'a [f64]),
}

impl<'a> NumericSlice<'a> {
    /// The typed buffer of `chunk`'s column `attr`, which the operator has
    /// already type-checked ([`numeric_attr`]) against the schema.
    pub fn of(chunk: &'a Chunk, attr: usize) -> Self {
        match chunk.column(attr) {
            Some(AttributeColumn::Int32(v)) => NumericSlice::I32(v),
            Some(AttributeColumn::Int64(v)) => NumericSlice::I64(v),
            Some(AttributeColumn::Float(v)) => NumericSlice::F32(v),
            Some(AttributeColumn::Double(v)) => NumericSlice::F64(v),
            _ => unreachable!("numeric-typed attribute has a numeric column"),
        }
    }

    /// The value at `row`, widened to `f64`.
    #[inline]
    pub fn get(&self, row: usize) -> f64 {
        match self {
            NumericSlice::I32(v) => f64::from(v[row]),
            NumericSlice::I64(v) => v[row] as f64,
            NumericSlice::F32(v) => f64::from(v[row]),
            NumericSlice::F64(v) => v[row],
        }
    }
}

/// The integer key at `row` of `col`, a column the operator has already
/// type-checked ([`integer_attr`]) against the schema; widens exactly
/// like `ScalarValue::as_i64`.
#[inline]
pub(crate) fn int_key(col: &AttributeColumn, row: usize) -> i64 {
    match col {
        AttributeColumn::Int32(v) => i64::from(v[row]),
        AttributeColumn::Int64(v) => v[row],
        AttributeColumn::Char(v) => i64::from(v[row]),
        _ => unreachable!("integer-typed attribute has an integer column"),
    }
}

/// Resolve attribute `name` of `array` and require it numeric — a typed
/// refusal instead of silently aggregating a string column as 0.0.
pub(crate) fn numeric_attr(array: &StoredArray, name: &str) -> Result<usize> {
    typed_attr(array, name, "numeric", NUMERIC)
}

/// Resolve attribute `name` of `array` and require it integer-valued
/// (`int32`/`int64`/`char`) — a typed refusal instead of silently
/// skipping every row of a float or string key column.
pub(crate) fn integer_attr(array: &StoredArray, name: &str) -> Result<usize> {
    typed_attr(array, name, "integer", INTEGER)
}

fn typed_attr(
    array: &StoredArray,
    name: &str,
    expected: &'static str,
    accepted: &[AttributeType],
) -> Result<usize> {
    let idx = array.attribute_index(name)?;
    require_type(name, array.schema.attributes[idx].ty, expected, accepted)?;
    Ok(idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use array_model::{ArraySchema, ChunkCoords, ScalarValue};

    fn chunk_with(values: &[(i64, f64)]) -> (ArraySchema, Chunk) {
        let schema = ArraySchema::parse("A<v:double>[x=0:1023,1024]").unwrap();
        let mut chunk = Chunk::new(&schema, ChunkCoords::new([0]));
        for &(x, v) in values {
            chunk.push_cell(&schema, vec![x], vec![ScalarValue::Double(v)]).unwrap();
        }
        (schema, chunk)
    }

    #[test]
    fn live_mask_excludes_tombstones_and_phantom_bits() {
        let (_, mut chunk) = chunk_with(&[(0, 1.0), (1, 2.0), (2, 3.0)]);
        chunk.retract_cell(&[1]).unwrap();
        let mask = SelectionMask::live(&chunk);
        assert_eq!(mask.count(), 2);
        let mut seen = Vec::new();
        mask.for_each(|r| seen.push(r));
        assert_eq!(seen, vec![0, 2]);
    }

    #[test]
    fn region_and_predicate_stages_compose() {
        let (_, chunk) = chunk_with(&[(0, 1.0), (5, 2.0), (9, 3.0), (12, 4.0)]);
        let mut mask = SelectionMask::live(&chunk);
        mask.retain_region(&chunk, &Region::new(vec![0], vec![9]));
        assert_eq!(mask.count(), 3);
        mask.retain_predicate(&chunk, 0, &Predicate::ge(2.0)).unwrap();
        assert_eq!(mask.count(), 2);
        let mut vals = Vec::new();
        mask.for_each(|r| vals.push(NumericSlice::of(&chunk, 0).get(r)));
        assert_eq!(vals, vec![2.0, 3.0]);
    }

    #[test]
    fn dict_codes_filter_without_decoding() {
        let schema = ArraySchema::parse("A<tag:string>[x=0:63,64]").unwrap();
        let mut chunk = Chunk::new(&schema, ChunkCoords::new([0]));
        for i in 0..6 {
            let tag = ["ash", "birch", "cedar"][i % 3];
            chunk.push_cell(&schema, vec![i as i64], vec![ScalarValue::Str(tag.into())]).unwrap();
        }
        let mut mask = SelectionMask::live(&chunk);
        mask.retain_predicate(&chunk, 0, &Predicate::str_in(["birch", "oak"])).unwrap();
        assert_eq!(mask.count(), 2);
        let mut mask2 = SelectionMask::live(&chunk);
        mask2.retain_predicate(&chunk, 0, &Predicate::str_between("b", "ce")).unwrap();
        assert_eq!(mask2.count(), 2, "birch twice; cedar > \"ce\"");
    }

    #[test]
    fn type_mismatch_is_a_typed_error_even_at_kernel_level() {
        let (_, chunk) = chunk_with(&[(0, 1.0)]);
        let mut mask = SelectionMask::live(&chunk);
        let err = mask.retain_predicate(&chunk, 0, &Predicate::str_eq("x")).unwrap_err();
        assert!(matches!(err, QueryError::AttributeType { .. }));
    }
}
