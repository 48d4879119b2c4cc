//! Column-at-a-time scan kernels.
//!
//! Every operator reads rows the same way: [`ScanPlan`](crate::ScanPlan)'s
//! driver builds one [`SelectionMask`] per visited chunk — the complement
//! of the tombstone bitmap, narrowed by one typed pass over one
//! contiguous buffer per filter stage (region, then predicate) — and the
//! operator drains the surviving rows in ascending physical (insertion)
//! order, reading measures through a typed column view
//! ([`NumericSlice`]) resolved once per chunk.
//!
//! **Masks narrow a word at a time.** A filter stage never asks "is this
//! row still selected, and does it pass?" row by row. It walks the mask's
//! `u64` words: a word with no selected row is skipped without reading a
//! value; otherwise the stage's test is evaluated for *all* of the word's
//! (up to 64) physical rows into one `u64` — no branch on the outcome —
//! and ANDed into the word. Two things follow, and both are contracts:
//!
//! * a stage's row test must be **total over physical rows**, not just
//!   live or still-selected ones: it is evaluated for tombstoned rows and
//!   for rows an earlier stage dropped. That is sound because a tombstoned
//!   row keeps its coordinates, values and dictionary codes until
//!   `Chunk::compact` rebuilds the chunk (at which point it is no longer a
//!   physical row), so every buffer a test indexes covers every row the
//!   mask can name;
//! * the answer is that of testing only the selected rows: ANDing a
//!   test's bit into a cleared bit leaves it cleared, so evaluating the
//!   test for rows that are not selected changes nothing.

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
                // Rounds to the nearest `f64`, exactly as `ScalarValue::as_f64` widens.
                self.retain(|row| p.matches(v[row] as f64))
            }
            (Predicate::Num(p), AttributeColumn::Float(v)) => {
                self.retain(|row| p.matches(f64::from(v[row])))
            }
            (Predicate::Num(p), AttributeColumn::Double(v)) => self.retain(|row| p.matches(v[row])),
            (Predicate::Str(p), AttributeColumn::Dict(dc)) => {
                // Compile to code space: one acceptance bit per dictionary
                // entry, then the row loop is a u32 index + bit test.
                // Codes index the dictionary (`u32` to `usize` is lossless),
                // so every code a row holds has a bit in `accept`.
                let dict = dc.dict();
                let mut accept = vec![0u64; dict.len().div_ceil(64)];
                let mut accept_code = |c: usize| accept[c / 64] |= 1 << (c % 64);
                match p {
                    StrPred::Eq(s) => {
                        dict.code_of(s).into_iter().for_each(|c| accept_code(c as usize))
                    }
                    StrPred::In(set) => set
                        .iter()
                        .filter_map(|s| dict.code_of(s))
                        .for_each(|c| accept_code(c as usize)),
                    // First-appearance codes are not ordered; scan the
                    // dictionary entries (each distinct string once).
                    StrPred::Between(..) => {
                        let strings = dict.iter().enumerate();
                        strings.filter(|(_, s)| p.matches(s)).for_each(|(c, _)| accept_code(c))
                    }
                }
                let codes = dc.codes();
                self.retain(|row| {
                    let c = codes[row] as usize;
                    accept[c / 64] & (1 << (c % 64)) != 0
                })
            }
            // The operators type-check before scanning, so a mismatch here
            // is a caller bug — still a typed error, never a silent skip.
            _ => return pred.check_type(&format!("#{attr}"), col.column_type()),
        }
        Ok(())
    }

    /// Narrow the mask: keep only selected rows for which `keep` holds.
    ///
    /// Word at a time (see the module doc): `keep` is called for every
    /// physical row of every word that still selects a row — tombstoned
    /// and already-dropped rows included — so it must be defined for any
    /// `row < self.rows`.
    #[inline]
    fn retain(&mut self, keep: impl Fn(usize) -> bool) {
        let rows = self.rows;
        for (i, word) in self.words.iter_mut().enumerate() {
            if *word == 0 {
                continue;
            }
            let base = i * 64;
            // `live` sized the mask to `rows.div_ceil(64)` words, so
            // `base < rows`; the last word covers the remainder.
            let width = (rows - base).min(64);
            let mut passed = 0u64;
            for bit in 0..width {
                passed |= u64::from(keep(base + bit)) << bit;
            }
            *word &= passed;
        }
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
                // `w != 0`, so this is a bit index below 64.
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
            // Rounds to the nearest `f64`, like `ScalarValue::as_f64`.
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
    use proptest::prelude::*;

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

    // -- word-at-a-time `retain` against the per-row loop it replaced --

    const TAGS: [&str; 5] = ["ash", "birch", "cedar", "elm", "fir"];

    /// One row's values from `bits`: duplicate-heavy, negative integers,
    /// a NaN and both infinities among the floats, five strings.
    fn row_values(bits: u64) -> Vec<ScalarValue> {
        let pick = |shift: u32, n: u64| (bits >> shift) % n;
        let d = match pick(8, 9) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            _ => pick(12, 9) as f64 - 4.0,
        };
        vec![
            ScalarValue::Int32(pick(0, 9) as i32 - 4),
            ScalarValue::Int64(pick(4, 9) as i64 - 4),
            ScalarValue::Float(pick(16, 9) as f32 - 4.0),
            ScalarValue::Double(d),
            ScalarValue::Str(TAGS[pick(20, 5) as usize].into()),
        ]
    }

    /// A one-chunk array of `bits.len()` rows at scattered coordinates,
    /// then `retract` (row indices, modulo) tombstoned.
    fn scattered_chunk(bits: &[u64], retract: &[usize]) -> Chunk {
        let schema =
            ArraySchema::parse("A<i:int32, l:int64, f:float, d:double, s:string>[x=0:255,256]")
                .unwrap();
        let mut chunk = Chunk::new(&schema, ChunkCoords::new([0]));
        for &b in bits {
            chunk.push_cell(&schema, vec![(b >> 24) as i64 % 256], row_values(b)).unwrap();
        }
        for &r in retract {
            if !bits.is_empty() {
                // Tombstones the newest live row at that cell, if any.
                let cell = [(bits[r % bits.len()] >> 24) as i64 % 256];
                chunk.retract_cell(&cell);
            }
        }
        chunk
    }

    fn selected(mask: &SelectionMask) -> Vec<usize> {
        let mut rows = Vec::new();
        mask.for_each(|r| rows.push(r));
        assert_eq!(mask.count(), rows.len() as u64);
        rows
    }

    /// The loop `retain` used to be: one selected-bit test and one `keep`
    /// call per row, over the row-at-a-time accessors.
    fn per_row(chunk: &Chunk, keep: impl Fn(usize) -> bool) -> Vec<usize> {
        (0..chunk.physical_cell_count()).filter(|&r| !chunk.is_tombstoned(r) && keep(r)).collect()
    }

    fn predicates() -> Vec<(usize, Predicate)> {
        let mut all = Vec::new();
        for attr in 0..4 {
            all.extend(
                [
                    Predicate::lt(0.0),
                    Predicate::le(-1.0),
                    Predicate::gt(1.0),
                    Predicate::ge(0.0),
                    Predicate::eq_num(2.0),
                    Predicate::between(-2.0, 1.0),
                    Predicate::between(f64::NEG_INFINITY, f64::INFINITY),
                ]
                .map(|p| (attr, p)),
            );
        }
        all.extend(
            [
                Predicate::str_eq("cedar"),
                Predicate::str_eq("oak"),
                Predicate::str_in(["ash", "fir", "oak"]),
                Predicate::str_between("b", "d"),
            ]
            .map(|p| (4, p)),
        );
        all
    }

    fn assert_retain_matches_per_row(chunk: &Chunk, low: i64, high: i64) {
        let region = Region::new(vec![low], vec![high]);
        let in_region = |r: usize| region.contains_cell(chunk.cell(r).unwrap());
        let mut by_region = SelectionMask::live(chunk);
        by_region.retain_region(chunk, &region);
        assert_eq!(selected(&by_region), per_row(chunk, in_region), "region {low}..={high}");
        for (attr, pred) in predicates() {
            let matches = |r: usize| match (&pred, chunk.column(attr).unwrap().get(r).unwrap()) {
                (Predicate::Num(p), v) => p.matches(v.as_f64().unwrap()),
                (Predicate::Str(p), ScalarValue::Str(s)) => p.matches(&s),
                (Predicate::Str(_), v) => panic!("string predicate over {v:?}"),
            };
            let mut mask = SelectionMask::live(chunk);
            mask.retain_predicate(chunk, attr, &pred).unwrap();
            assert_eq!(selected(&mask), per_row(chunk, matches), "#{attr} {pred:?}");
            // Stages compose: the second narrows what the first left.
            mask.retain_region(chunk, &region);
            let both = per_row(chunk, |r| matches(r) && in_region(r));
            assert_eq!(selected(&mask), both, "#{attr} {pred:?} then region");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn word_wise_retain_equals_the_per_row_loop(
            bits in proptest::collection::vec(any::<u64>(), 0..201),
            retract in proptest::collection::vec(0usize..1000, 0..60),
            low in 0i64..256,
            len in 0i64..256,
        ) {
            let chunk = scattered_chunk(&bits, &retract);
            assert_retain_matches_per_row(&chunk, low, low + len);
        }
    }

    #[test]
    fn retain_is_exact_at_word_boundaries() {
        // rows % 64 in {0, 1, 63}, on both sides of one and two words.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for rows in [0usize, 1, 63, 64, 65, 127, 128, 129, 191, 192, 193] {
            let bits: Vec<u64> = (0..rows)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state
                })
                .collect();
            // Retract the last row (the boundary bit), the first, and a
            // whole word's worth so a zero word is skipped.
            let mut retract: Vec<usize> = vec![rows.saturating_sub(1), 0];
            retract.extend(64..128.min(rows));
            let chunk = scattered_chunk(&bits, &retract);
            assert_retain_matches_per_row(&chunk, 16, 200);
        }
    }
}
