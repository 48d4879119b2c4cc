//! Per-view state: Z-sets, deterministic row keys, and per-group
//! accumulators. Everything here is kept and folded in a fixed total
//! order so that an incrementally maintained view and a from-scratch
//! recompute build *bit-identical* state — integer weights are exact,
//! and float aggregates are finalized by the same sorted fold over the
//! same multiset on both paths.
//!
//! # Layout
//!
//! All state is **flat, sorted runs**; nothing is a tree and nothing is
//! allocated per row.
//!
//! * A [`ZSet`] is one run of rows in [`array_model::DeltaSet`]'s layout
//!   — every row's join key, coordinates and values end to end in three
//!   buffers, plus per row the three end offsets and the weight — in
//!   strictly ascending `(join key, row)` order with no zero weight. A
//!   view's output leaves the key empty; a join side files each row
//!   under its join key, so the rows of one key are adjacent and the
//!   other side probes them with one forward cursor. Retiring a day of
//!   rows frees (a share of) four buffers, not a heap cell per row.
//! * A [`GroupState`]'s multiset is a strictly ascending
//!   `Vec<(ord_bits, multiplicity)>`; minimum and maximum are its first
//!   and last entry.
//!
//! Beside the state, a view keeps the buffers an apply stages into, so a
//! warmed view allocates only what its closures hand back: a `Stage` —
//! the staged rows in a Z-set's layout in arrival order, the `(prefix,
//! row)` permutation that sorts them, and the span buffer a merge
//! rewrites into — per join side and for the rows a join emits; and a
//! `ValueStage` for an aggregate — per touched group its `(ord_bits,
//! weight)` values, a radix sort's second buffer and counts, and the
//! buffer a group's multiset is merged into (a group that empties hands
//! its buffer back). Scratch, not state: no export holds them, and an
//! apply clears them first.
//!
//! # Maintenance
//!
//! The invariant is "the run is the consolidated, ordered Z-set of
//! everything applied", and a delta maintains it by **one sort and one
//! merge** ([`GroupState::merge`] and `ZSet::merge`): the staged rows are
//! sorted, then merged with the run, summing the weights of equal rows
//! and dropping zeros.
//!
//! * **Sorts.** One kernel, a stable LSD radix sort on a 64-bit key, a
//!   byte a pass, skipping a byte every key shares. A group's values
//!   sort by their bits: equal values' weights are summed, so their
//!   order never shows. Staged Z-set rows sort as a permutation keyed by
//!   a 128-bit prefix of their `(join key, row)` order — the first
//!   element's 64-bit digit, and the second's behind an exact first —
//!   that never contradicts it: two radix sorts, by the prefix's low half
//!   then its high half, and rows compared whole only where two prefixes
//!   tie, then by staging position, so the order is the same on every
//!   run. An integer's digit puts zero off every power of two, so small
//!   coordinates of either sign differ only in their low bytes.
//! * **Z-set merge**, in one of two shapes. *Append*: a batch whose
//!   first row sorts after the run's last is appended in place — one
//!   comparison, then O(|Δ|). *Span*: any other batch rewrites only the
//!   **span** of the run between its first and last row (two galloping
//!   searches find it), merged into the kept span buffer and spliced
//!   back in place: one comparison per staged row while batch and run
//!   walk in step, a gallop where run rows lie between two staged ones
//!   (copied as one block), plus one memmove of the rows after the span
//!   when it changes length. On the shapes a time-keyed view sees, the
//!   cost follows the delta, not the state: a newer day staged past the
//!   end is an append; the oldest day cancelled at the front drains the
//!   run's first rows at one comparison each, then one memmove of the
//!   rest. A delta spread across the whole run rewrites the whole run.
//! * **Group merge**: one linear pass over the group's multiset, which
//!   [`GroupState::fold_sum`] pays per touched group anyway.
//!
//! Each merge reports what it wrote and dropped (`MergeWork`), which the
//! view sums into its counted work.
//!
//! [`ZSet::add`] and [`GroupState::update`] are the one-entry forms over
//! the same runs: a binary search and a one-row splice or insert, which
//! moves the rows after it. A spine of geometrically merged runs is the
//! known way to make single-row deltas cheap and is deliberately not
//! built, because no caller sends them.

use array_model::ScalarValue;
use std::cmp::Ordering;
use std::ops::Range;

/// A deterministic, totally ordered image of a [`ScalarValue`]: integers
/// widen to `i64`, floats become their raw bit patterns, strings stay
/// themselves. Two values map to the same `KeyScalar` iff they are
/// bit-identical — which is exactly the equivalence incremental
/// retraction needs (a retracted row must cancel the inserted row, bit
/// for bit).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum KeyScalar {
    /// `int32` / `int64` / `char`, widened.
    Int(i64),
    /// An `f32`'s raw bits.
    F32(u32),
    /// An `f64`'s raw bits.
    F64(u64),
    /// A string, verbatim.
    Str(String),
}

/// [`KeyScalar`] with the string borrowed: the same variants in the same
/// order under the same derived `Ord` (`str` and `String` compare
/// alike), so comparing two images is comparing the two `KeyScalar`s
/// without building either.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
enum KeyImage<'a> {
    Int(i64),
    F32(u32),
    F64(u64),
    Str(&'a str),
}

impl<'a> KeyImage<'a> {
    fn of(v: &'a ScalarValue) -> Self {
        match v {
            ScalarValue::Int32(i) => KeyImage::Int(i64::from(*i)),
            ScalarValue::Int64(i) => KeyImage::Int(*i),
            ScalarValue::Char(c) => KeyImage::Int(i64::from(*c)),
            ScalarValue::Float(f) => KeyImage::F32(f.to_bits()),
            ScalarValue::Double(d) => KeyImage::F64(d.to_bits()),
            ScalarValue::Str(s) => KeyImage::Str(s),
        }
    }
}

impl KeyScalar {
    /// The deterministic key image of `v`.
    pub fn of(v: &ScalarValue) -> KeyScalar {
        match KeyImage::of(v) {
            KeyImage::Int(i) => KeyScalar::Int(i),
            KeyImage::F32(b) => KeyScalar::F32(b),
            KeyImage::F64(b) => KeyScalar::F64(b),
            KeyImage::Str(s) => KeyScalar::Str(s.to_string()),
        }
    }
}

/// Map an `f64` to a `u64` whose unsigned order equals the float's
/// numeric total order (negatives before positives, `-0.0 < +0.0`,
/// NaNs at the extremes) — the standard sign-flip trick. Lossless.
pub fn ord_bits(v: f64) -> u64 {
    let b = v.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b ^ (1u64 << 63)
    }
}

/// Inverse of [`ord_bits`].
pub fn from_ord_bits(o: u64) -> f64 {
    let b = if o >> 63 == 1 { o ^ (1u64 << 63) } else { !o };
    f64::from_bits(b)
}

/// A logical row flowing through a view: cell coordinates plus attribute
/// values (possibly transformed by map stages).
pub type Row = (Vec<i64>, Vec<ScalarValue>);

/// The deterministic identity of a [`Row`].
pub type RowKey = (Vec<i64>, Vec<KeyScalar>);

/// The key image of a row.
pub fn row_key(coords: &[i64], values: &[ScalarValue]) -> RowKey {
    (coords.to_vec(), values.iter().map(KeyScalar::of).collect())
}

/// The order of [`RowKey`], computed on the rows themselves:
/// `cmp_rows(a, b) == row_key(a).cmp(&row_key(b))` for any two rows,
/// without allocating. A tuple of `Vec`s compares its parts in turn and
/// each `Vec` lexicographically — so do the slices here, the values
/// through their key images.
pub fn cmp_rows(a: (&[i64], &[ScalarValue]), b: (&[i64], &[ScalarValue])) -> Ordering {
    a.0.cmp(b.0).then_with(|| cmp_values(a.1, b.1))
}

/// The order of two value lists' key images, lexicographic: two values
/// of the same variant — what one column holds — are compared directly,
/// any other pair through [`KeyImage`], whose order this is.
fn cmp_values(a: &[ScalarValue], b: &[ScalarValue]) -> Ordering {
    for (x, y) in a.iter().zip(b) {
        let order = match (x, y) {
            (ScalarValue::Double(x), ScalarValue::Double(y)) => x.to_bits().cmp(&y.to_bits()),
            (ScalarValue::Float(x), ScalarValue::Float(y)) => x.to_bits().cmp(&y.to_bits()),
            (ScalarValue::Int32(x), ScalarValue::Int32(y)) => x.cmp(y),
            (ScalarValue::Int64(x), ScalarValue::Int64(y)) => x.cmp(y),
            (x, y) => KeyImage::of(x).cmp(&KeyImage::of(y)),
        };
        if order.is_ne() {
            return order;
        }
    }
    a.len().cmp(&b.len())
}

/// A delta row after a view's linear stages: still the slices the
/// [`array_model::DeltaSet`] lent out, unless a `Map` stage rewrote it.
pub(super) enum Staged<'a> {
    Lent(&'a [i64], &'a [ScalarValue]),
    Mapped(Row),
}

impl Staged<'_> {
    pub(super) fn parts(&self) -> (&[i64], &[ScalarValue]) {
        match self {
            Staged::Lent(c, v) => (c, v),
            Staged::Mapped((c, v)) => (c, v),
        }
    }
}

/// `(join key, row)` order — the order of a [`ZSet`]'s run.
pub(super) fn cmp_keyed(
    a: (&[KeyScalar], (&[i64], &[ScalarValue])),
    b: (&[KeyScalar], (&[i64], &[ScalarValue])),
) -> Ordering {
    a.0.cmp(b.0).then_with(|| cmp_rows(a.1, b.1))
}

// ---------------------------------------------------------------------
// The sort prefix. A row's place in `(join key, row)` order is the
// lexicographic order of one sequence of elements: the key's scalars, an
// end mark, the coordinates, an end mark, the values' images, an end
// mark (an end mark sorts before every element, which is how a shorter
// slice sorts before a longer one it begins). Each element maps to a
// 64-bit digit that never inverts the order: a 3-bit class (end, int,
// f32, f64, string — the order of `KeyScalar`'s variants) above 61 bits
// of payload. A digit is *exact* when no other element maps to it; the
// prefix is the first digit, then the second only behind an exact first,
// so `prefix(a) < prefix(b)` implies `a < b`, and equal prefixes leave
// the order to `cmp_keyed`.
// ---------------------------------------------------------------------

const CLASS_SHIFT: u32 = 61;
const PAYLOAD: u64 = (1 << CLASS_SHIFT) - 1;
const END_DIGIT: u64 = 0;

/// Where zero lands in an integer digit's payload: near the middle, and
/// off every power of two, so that small integers of either sign differ
/// only in their low bytes — the bytes a radix sort does not skip.
const INT_ZERO: i128 = (1 << 60) + (1 << 31) + (1 << 15);

/// An integer, offset into the payload: exact for `|i|` up to about
/// 2⁶⁰, clamped (and so inexact) at the two payload ends beyond.
fn int_digit(i: i64) -> u64 {
    let payload = (i128::from(i) + INT_ZERO).clamp(0, i128::from(PAYLOAD));
    (1 << CLASS_SHIFT) | payload as u64
}

fn image_digit(image: KeyImage<'_>) -> u64 {
    match image {
        KeyImage::Int(i) => int_digit(i),
        KeyImage::F32(bits) => (2 << CLASS_SHIFT) | u64::from(bits),
        // The top 61 of 64 bits: ordered, not exact.
        KeyImage::F64(bits) => (3 << CLASS_SHIFT) | (bits >> 3),
        // The first seven bytes, zero-padded: ordered, not exact.
        KeyImage::Str(s) => {
            let mut bytes = [0u8; 8];
            let n = s.len().min(7);
            bytes[1..=n].copy_from_slice(&s.as_bytes()[..n]);
            (4 << CLASS_SHIFT) | u64::from_be_bytes(bytes)
        }
    }
}

fn key_digit(k: &KeyScalar) -> u64 {
    image_digit(match k {
        KeyScalar::Int(i) => KeyImage::Int(*i),
        KeyScalar::F32(b) => KeyImage::F32(*b),
        KeyScalar::F64(b) => KeyImage::F64(*b),
        KeyScalar::Str(s) => KeyImage::Str(s),
    })
}

fn is_exact(digit: u64) -> bool {
    match digit >> CLASS_SHIFT {
        0 | 2 => true,
        1 => !matches!(digit & PAYLOAD, 0 | PAYLOAD),
        _ => false,
    }
}

/// The 128-bit sort prefix of a row filed under `key` (see above).
pub(super) fn prefix(key: &[KeyScalar], coords: &[i64], values: &[ScalarValue]) -> u128 {
    let mut digits = key
        .iter()
        .map(key_digit)
        .chain([END_DIGIT])
        .chain(coords.iter().map(|&c| int_digit(c)))
        .chain([END_DIGIT])
        .chain(values.iter().map(|v| image_digit(KeyImage::of(v))))
        .chain([END_DIGIT]);
    let first = digits.next().unwrap_or(END_DIGIT);
    let second = if is_exact(first) { digits.next().unwrap_or(END_DIGIT) } else { 0 };
    (u128::from(first) << 64) | u128::from(second)
}

/// Rows staged for one [`ZSet::merge`], in buffers a view keeps from one
/// apply to the next (module docs, "Maintenance"): the rows as they were
/// staged, in a [`ZSet`]'s layout but in arrival order; the permutation
/// that puts them in run order, and the radix sort's buffers that build
/// it; and the span a merge rewrites.
#[derive(Debug, Default)]
pub(super) struct Stage {
    rows: ZSet,
    /// `(prefix, row)` per staged row, in run order once sorted.
    order: Vec<(u128, u32)>,
    radix: Radix<(u128, u32)>,
    span: ZSet,
}

impl Stage {
    /// Forget the staged rows, keeping every buffer's capacity.
    pub(super) fn clear(&mut self) {
        self.rows.clear();
        self.order.clear();
    }

    /// Rows staged.
    pub(super) fn len(&self) -> usize {
        self.rows.len()
    }

    /// Stage one row under `key` (moved in) at `weight`: a lent row's
    /// values are cloned, a mapped row's moved.
    pub(super) fn push(&mut self, key: Vec<KeyScalar>, row: Staged<'_>, weight: i64) {
        let rows = &mut self.rows;
        rows.keys.extend(key);
        match row {
            Staged::Lent(coords, values) => {
                rows.coords.extend_from_slice(coords);
                rows.values.extend_from_slice(values);
            }
            Staged::Mapped((coords, values)) => {
                rows.coords.extend(coords);
                rows.values.extend(values);
            }
        }
        rows.end_row(weight);
    }

    /// Put the staged rows in run order: a stable radix sort of the
    /// `(prefix, row)` pairs in staging order — by the prefix's low half,
    /// then its high half — then each run of tied prefixes sorted by
    /// whole rows, stably, so equal rows keep their staging order and the
    /// order is the same on every run.
    pub(super) fn sort(&mut self) {
        let rows = &self.rows;
        self.order.clear();
        self.order.extend(
            rows.entries().zip(0u32..).map(|(e, i)| (prefix(e.key, e.coords, e.values), i)),
        );
        self.radix.sort(&mut self.order, |&(prefix, _)| prefix as u64);
        self.radix.sort(&mut self.order, |&(prefix, _)| (prefix >> 64) as u64);
        let mut ties = self.order.as_mut_slice();
        while let Some(&(first, _)) = ties.first() {
            let n = ties.iter().take_while(|&&(prefix, _)| prefix == first).count();
            let (tied, rest) = ties.split_at_mut(n);
            if n > 1 {
                tied.sort_by(|a, b| {
                    let (x, y) = (rows.entry(a.1 as usize), rows.entry(b.1 as usize));
                    cmp_keyed(x.sort_key(), y.sort_key())
                });
            }
            ties = rest;
        }
    }

    /// The staged rows in run order (after [`Stage::sort`]).
    pub(super) fn sorted(&self) -> impl Iterator<Item = Entry<'_>> {
        self.order.iter().map(|&(_, i)| self.rows.entry(i as usize))
    }

    /// The sorted rows with equal rows folded into their first, weights
    /// summed (a summed weight may be zero).
    fn consolidated(&self) -> impl Iterator<Item = (Entry<'_>, i64)> {
        let mut at = 0;
        std::iter::from_fn(move || {
            let &(first_prefix, first) = self.order.get(at)?;
            let row = self.rows.entry(first as usize);
            let mut weight = row.weight;
            at += 1;
            while let Some(&(_, i)) = self.order.get(at).filter(|&&(p, _)| p == first_prefix) {
                let dup = self.rows.entry(i as usize);
                if cmp_keyed(dup.sort_key(), row.sort_key()).is_ne() {
                    break;
                }
                weight += dup.weight;
                at += 1;
            }
            Some((row, weight))
        })
    }
}

/// What one [`ZSet::merge`] did to the run: rows written (appended,
/// inserted, re-weighted, or copied inside the rewritten span) and rows
/// dropped (cancelled to zero weight).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(super) struct MergeWork {
    pub(super) written: u64,
    pub(super) dropped: u64,
}

/// Where one row ends in a [`ZSet`]'s three flat buffers, and its weight.
#[derive(Debug, Clone, Copy, Default)]
struct RowEnd {
    key: usize,
    coords: usize,
    values: usize,
    weight: i64,
}

/// One row lent out of a [`ZSet`].
#[derive(Debug, Clone, Copy)]
pub struct Entry<'a> {
    /// The join key the row is filed under (empty in a view's output).
    pub key: &'a [KeyScalar],
    /// The row's coordinates.
    pub coords: &'a [i64],
    /// The row's values.
    pub values: &'a [ScalarValue],
    /// Net weight — never zero.
    pub weight: i64,
}

impl<'a> Entry<'a> {
    fn sort_key(&self) -> (&'a [KeyScalar], (&'a [i64], &'a [ScalarValue])) {
        (self.key, (self.coords, self.values))
    }
}

/// A Z-set: rows with signed integer multiplicities, each optionally
/// filed under a join key, kept as one flat sorted run (see the module
/// docs). Weights sum on insertion; a row whose weight reaches zero
/// vanishes (so a view over a consistent insert/retract stream converges
/// to exactly the surviving rows). Iteration order is the join key's
/// order, then the total order of [`RowKey`].
#[derive(Debug, Clone, Default)]
pub struct ZSet {
    keys: Vec<KeyScalar>,
    coords: Vec<i64>,
    values: Vec<ScalarValue>,
    ends: Vec<RowEnd>,
}

impl ZSet {
    /// Add `weight` copies of the (unkeyed) row; returns the row's new
    /// net weight. The one-row form of `ZSet::merge`, at the same cost:
    /// two binary searches and a splice of one row, which moves the rows
    /// after it.
    pub fn add(&mut self, coords: &[i64], values: &[ScalarValue], weight: i64) -> i64 {
        let mut stage = Stage::default();
        stage.push(Vec::new(), Staged::Lent(coords, values), weight);
        stage.sort();
        self.merge(&mut stage);
        self.weight_of(coords, values)
    }

    /// The net weight of an (unkeyed) row (0 when absent).
    pub fn weight_of(&self, coords: &[i64], values: &[ScalarValue]) -> i64 {
        let row: (&[KeyScalar], _) = (&[], (coords, values));
        let at = self.lower_bound(0, |e| cmp_keyed(e.sort_key(), row).is_lt());
        match self.entries_from(at).next() {
            Some(e) if cmp_keyed(e.sort_key(), row).is_eq() => e.weight,
            _ => 0,
        }
    }

    /// Distinct rows carried.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when no rows are carried.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Where row `i` starts in the buffers: where the row before it ends.
    fn start_of(&self, i: usize) -> RowEnd {
        i.checked_sub(1).map_or(RowEnd::default(), |before| self.ends[before])
    }

    /// Row `i` of the run; panics past the end, like a slice.
    fn entry(&self, i: usize) -> Entry<'_> {
        let (start, end) = (self.start_of(i), self.ends[i]);
        Entry {
            key: &self.keys[start.key..end.key],
            coords: &self.coords[start.coords..end.coords],
            values: &self.values[start.values..end.values],
            weight: end.weight,
        }
    }

    /// The rows from position `from` on, in run order.
    pub(super) fn entries_from(&self, from: usize) -> impl Iterator<Item = Entry<'_>> {
        (from..self.len()).map(|i| self.entry(i))
    }

    /// The rows and their weights, in run order.
    pub fn entries(&self) -> impl Iterator<Item = Entry<'_>> {
        self.entries_from(0)
    }

    /// The first position at or after `from` whose row fails `below` —
    /// `partition_point` over the tail of the run (`below` must hold for
    /// a prefix of it). Callers advance a cursor through the run, so the
    /// answer is usually a step or two past `from`: gallop out from there
    /// (touching neighbouring rows, not log₂ n cold ones), then bisect.
    pub(super) fn lower_bound(&self, from: usize, below: impl Fn(Entry<'_>) -> bool) -> usize {
        let (mut lo, mut step) = (from, 1);
        while lo + step <= self.len() && below(self.entry(lo + step - 1)) {
            lo += step;
            step *= 2;
        }
        // Everything before `lo` is below; row `hi`, if there is one, is not.
        let mut hi = (lo + step - 1).min(self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if below(self.entry(mid)) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// The deterministic identity of every row with its weight, in run
    /// order — the bit-exact comparison form.
    pub fn keyed_entries(&self) -> Vec<(Vec<i64>, Vec<KeyScalar>, i64)> {
        self.entries()
            .map(|e| {
                let (coords, values) = row_key(e.coords, e.values);
                (coords, values, e.weight)
            })
            .collect()
    }

    /// Close the row just appended to the buffers.
    fn end_row(&mut self, weight: i64) {
        self.ends.push(RowEnd {
            key: self.keys.len(),
            coords: self.coords.len(),
            values: self.values.len(),
            weight,
        });
    }

    /// Append a row lent by another run at `weight` (the caller keeps
    /// the run ordered).
    fn push_entry(&mut self, row: Entry<'_>, weight: i64) {
        self.keys.extend_from_slice(row.key);
        self.coords.extend_from_slice(row.coords);
        self.values.extend_from_slice(row.values);
        self.end_row(weight);
    }

    /// Forget every row, keeping the buffers' capacity.
    fn clear(&mut self) {
        self.keys.clear();
        self.coords.clear();
        self.values.clear();
        self.ends.clear();
    }

    /// Copy rows `range` of `run` onto the end of this one: three block
    /// clones and an offset rebase.
    fn clone_rows(&mut self, run: &ZSet, range: Range<usize>) {
        if range.is_empty() {
            return;
        }
        let (start, end) = (run.start_of(range.start), run.ends[range.end - 1]);
        let (keys, coords, values) = (self.keys.len(), self.coords.len(), self.values.len());
        self.keys.extend_from_slice(&run.keys[start.key..end.key]);
        self.coords.extend_from_slice(&run.coords[start.coords..end.coords]);
        self.values.extend_from_slice(&run.values[start.values..end.values]);
        self.ends.extend(run.ends[range].iter().map(|e| RowEnd {
            key: e.key - start.key + keys,
            coords: e.coords - start.coords + coords,
            values: e.values - start.values + values,
            weight: e.weight,
        }));
    }

    /// Replace rows `range` of the run with the rows of `span`, in place:
    /// one splice per buffer (a memmove of the rows after `range` when
    /// the lengths differ), then the rows after it have their ends
    /// rebased by what the span grew or shrank. `span` is left empty,
    /// its buffers kept.
    fn splice(&mut self, range: Range<usize>, span: &mut ZSet) {
        let (start, end) = (self.start_of(range.start), self.start_of(range.end));
        let new_end = RowEnd {
            key: start.key + span.keys.len(),
            coords: start.coords + span.coords.len(),
            values: start.values + span.values.len(),
            weight: 0,
        };
        self.keys.splice(start.key..end.key, span.keys.drain(..));
        self.coords.splice(start.coords..end.coords, span.coords.drain(..));
        self.values.splice(start.values..end.values, span.values.drain(..));
        let suffix = range.start + span.ends.len();
        self.ends.splice(
            range,
            span.ends.drain(..).map(|e| RowEnd {
                key: e.key + start.key,
                coords: e.coords + start.coords,
                values: e.values + start.values,
                weight: e.weight,
            }),
        );
        for e in &mut self.ends[suffix..] {
            e.key = e.key - end.key + new_end.key;
            e.coords = e.coords - end.coords + new_end.coords;
            e.values = e.values - end.values + new_end.values;
        }
    }

    /// Fold a sorted [`Stage`] into the run, weights of equal rows
    /// summed, zeros dropped, in one of two shapes:
    ///
    /// * **Append.** The first staged row sorts after the run's last:
    ///   the batch is appended in place — one comparison, then O(|Δ|).
    /// * **Span.** Otherwise only the span of the run between the first
    ///   and the last staged row is rewritten: merged with the batch into
    ///   the stage's kept span buffer (rows of the run between two staged
    ///   rows copied as a block) and spliced back in place. Each staged
    ///   row costs one comparison with the run row at the cursor, and a
    ///   gallop only when run rows lie before it — so a batch that
    ///   cancels the run's first rows drains them with one comparison
    ///   each, then one memmove of the rest.
    pub(super) fn merge(&mut self, stage: &mut Stage) -> MergeWork {
        let mut work = MergeWork::default();
        let (Some(&(_, first)), Some(&(_, last))) = (stage.order.first(), stage.order.last())
        else {
            return work;
        };
        let (first, last) = (stage.rows.entry(first as usize), stage.rows.entry(last as usize));
        let past_end = match self.len().checked_sub(1) {
            Some(end) => cmp_keyed(self.entry(end).sort_key(), first.sort_key()).is_lt(),
            None => true,
        };
        let mut span = std::mem::take(&mut stage.span);
        if past_end {
            for (row, weight) in stage.consolidated().filter(|&(_, weight)| weight != 0) {
                self.push_entry(row, weight);
                work.written += 1;
            }
            stage.span = span;
            return work;
        }
        let lo = self.lower_bound(0, |e| cmp_keyed(e.sort_key(), first.sort_key()).is_lt());
        let hi = self.lower_bound(lo, |e| cmp_keyed(e.sort_key(), last.sort_key()).is_le());
        span.ends.reserve(hi - lo + stage.len());
        let mut next = lo; // first row of the span not yet merged
        for (row, weight) in stage.consolidated() {
            let cmp = |at: usize| cmp_keyed(self.entry(at).sort_key(), row.sort_key());
            let mut at = next;
            let mut order = if at < hi { cmp(at) } else { Ordering::Greater };
            if order.is_lt() {
                at = self.lower_bound(at + 1, |e| cmp_keyed(e.sort_key(), row.sort_key()).is_lt());
                order = if at < hi { cmp(at) } else { Ordering::Greater };
            }
            span.clone_rows(self, next..at);
            work.written += (at - next) as u64;
            next = at;
            if order.is_eq() {
                // The row is in the run already: it keeps its place with
                // the summed weight, or cancels and is left out.
                next = at + 1;
                let weight = self.ends[at].weight + weight;
                if weight == 0 {
                    work.dropped += 1;
                } else {
                    span.clone_rows(self, at..next);
                    if let Some(kept) = span.ends.last_mut() {
                        kept.weight = weight;
                    }
                    work.written += 1;
                }
            } else if weight != 0 {
                span.push_entry(row, weight);
                work.written += 1;
            }
        }
        debug_assert_eq!(next, hi, "the span ends at the last staged row");
        self.splice(lo..hi, &mut span);
        stage.span = span;
        work
    }
}

/// One group's accumulator: an exact row count plus the sorted multiset
/// of the aggregated value — a strictly ascending run of
/// ([`ord_bits`], net multiplicity) pairs, so run order is numeric order.
///
/// * `count`/`sum`/`avg` are exact under retraction: the count is integer
///   arithmetic, and sums are **re-folded from the multiset** in
///   ascending numeric order at finalization — never maintained as a
///   running float — so the incremental path and a from-scratch
///   recompute produce bit-identical doubles.
/// * `min`/`max` are the run's first and last entry: retracting the last
///   copy of an extremum removes its entry, and the next one is simply
///   there.
#[derive(Debug, Clone, Default)]
pub struct GroupState {
    /// Net row count (Z-set weight sum) — exact.
    pub count: i64,
    /// Sorted multiset: ([`ord_bits`] of a value, net multiplicity),
    /// strictly ascending, no zero multiplicity.
    values: Vec<(u64, i64)>,
}

impl GroupState {
    /// Fold `weight` copies of `value` into the group — the one-entry
    /// form of [`GroupState::merge`]: a binary search and an insert.
    pub fn update(&mut self, value: f64, weight: i64) {
        self.count += weight;
        let bits = ord_bits(value);
        match self.values.binary_search_by_key(&bits, |&(b, _)| b) {
            Ok(i) => {
                self.values[i].1 += weight;
                if self.values[i].1 == 0 {
                    self.values.remove(i);
                }
            }
            Err(i) if weight != 0 => self.values.insert(i, (bits, weight)),
            Err(_) => {}
        }
    }

    /// Fold a batch of `(ord_bits(value), weight)` pairs into the group:
    /// one radix sort of the batch and one linear merge, multiplicities
    /// of equal values summed, zeros dropped — the kernel a view runs,
    /// with buffers of its own instead of the view's kept ones.
    pub fn merge(&mut self, staged: &mut [(u64, i64)]) {
        let mut sorted = staged.to_vec();
        Radix::default().sort(&mut sorted, |&(bits, _)| bits);
        self.merge_sorted(&sorted, &mut Vec::new());
    }

    /// Merge `staged`, ascending by bits, with the multiset into
    /// `merged`, which then becomes the multiset: the old multiset's
    /// buffer is handed back in `merged`, emptied, for the next group.
    fn merge_sorted(&mut self, staged: &[(u64, i64)], merged: &mut Vec<(u64, i64)>) -> MergeWork {
        let mut dropped = 0;
        merged.clear();
        merged.reserve(self.values.len() + staged.len());
        let mut fold = |bits: u64, weight: i64| match merged.last_mut() {
            Some(last) if last.0 == bits => last.1 += weight,
            _ => {
                // The previous value is complete: keep it unless it cancelled.
                if merged.last().is_some_and(|last| last.1 == 0) {
                    merged.pop();
                    dropped += 1;
                }
                merged.push((bits, weight));
            }
        };
        let mut old = self.values.iter().copied().peekable();
        for &(bits, weight) in staged {
            self.count += weight;
            while let Some((b, m)) = old.next_if(|&(b, _)| b <= bits) {
                fold(b, m);
            }
            fold(bits, weight);
        }
        old.for_each(|(b, m)| fold(b, m));
        if merged.last().is_some_and(|last| last.1 == 0) {
            merged.pop();
            dropped += 1;
        }
        std::mem::swap(&mut self.values, merged);
        MergeWork { written: self.values.len() as u64, dropped }
    }

    /// True when the group carries no rows and can be dropped.
    pub fn is_empty(&self) -> bool {
        self.count == 0 && self.values.is_empty()
    }

    /// Deterministic sum: ascending-numeric-order fold over the multiset.
    /// Shared verbatim by the incremental and recompute paths, which is
    /// what makes them bit-identical.
    pub fn fold_sum(&self) -> f64 {
        let mut sum = 0.0;
        for &(bits, mult) in &self.values {
            sum += from_ord_bits(bits) * mult as f64;
        }
        sum
    }

    /// Minimum (numeric), if the group is non-empty.
    pub fn min(&self) -> Option<f64> {
        self.values.first().map(|&(bits, _)| from_ord_bits(bits))
    }

    /// Maximum (numeric), if the group is non-empty.
    pub fn max(&self) -> Option<f64> {
        self.values.last().map(|&(bits, _)| from_ord_bits(bits))
    }
}

/// The values one aggregate apply stages, in buffers the view keeps from
/// one apply to the next: per touched group, `(ord_bits(value), weight)`
/// in arrival order (a pool of vectors, the first `used` of them in use),
/// the radix sort's buffers, and the buffer a group's multiset is merged
/// into.
#[derive(Debug, Default)]
pub(super) struct ValueStage {
    groups: Vec<Vec<(u64, i64)>>,
    used: usize,
    radix: Radix<(u64, i64)>,
    merged: Vec<(u64, i64)>,
}

impl ValueStage {
    /// Forget the staged values, keeping every buffer's capacity.
    pub(super) fn clear(&mut self) {
        self.used = 0;
    }

    /// Values staged.
    pub(super) fn len(&self) -> usize {
        self.groups[..self.used].iter().map(Vec::len).sum()
    }

    /// A fresh slot for a group this apply touches.
    pub(super) fn open(&mut self) -> u32 {
        if self.used == self.groups.len() {
            self.groups.push(Vec::new());
        }
        self.groups[self.used].clear();
        self.used += 1;
        u32::try_from(self.used - 1).expect("fewer touched groups than u32")
    }

    /// Stage `weight` copies of the value whose [`ord_bits`] are `bits`
    /// for the group in `slot`.
    pub(super) fn push(&mut self, bits: u64, weight: i64, slot: u32) {
        self.groups[slot as usize].push((bits, weight));
    }

    /// Sort each group's values by bits ([`Radix`]). Equal bits keep
    /// their staging order, which no fold reads: their weights are
    /// summed.
    pub(super) fn sort(&mut self) {
        for values in &mut self.groups[..self.used] {
            self.radix.sort(values, |&(bits, _)| bits);
        }
    }

    /// Keep the multiset buffer of a group that emptied, if it is larger
    /// than the kept merge buffer: a merge swaps its buffer into the
    /// group it fills, so without this the next one would allocate anew.
    pub(super) fn recycle(&mut self, group: GroupState) {
        if group.values.capacity() > self.merged.capacity() {
            self.merged = group.values;
        }
    }

    /// Fold the sorted values of `slot` into `group` (after
    /// [`ValueStage::sort`]).
    pub(super) fn merge_into(&mut self, slot: u32, group: &mut GroupState) -> MergeWork {
        group.merge_sorted(&self.groups[slot as usize], &mut self.merged)
    }
}

/// A stable LSD radix sort on a 64-bit key, a byte a pass, with kept
/// buffers: its second buffer and the counts of all eight digits. (Wider
/// digits scatter into more places than the cache holds: 11-bit digits
/// ran slower than bytes on a 30k-value stage.)
#[derive(Debug)]
pub(super) struct Radix<T> {
    scratch: Vec<T>,
    /// Eight digits' counts, allocated by the first sort.
    counts: Vec<[u32; 256]>,
}

impl<T> Default for Radix<T> {
    fn default() -> Self {
        Radix { scratch: Vec::new(), counts: Vec::new() }
    }
}

impl<T: Copy> Radix<T> {
    /// Sort `items` by `key`, stably: one pass counts every byte of
    /// every key, then each byte that is not the same in every key moves
    /// the items once between the two buffers, least significant first.
    /// A byte all keys share is skipped.
    pub(super) fn sort(&mut self, items: &mut Vec<T>, key: impl Fn(&T) -> u64) {
        let n = items.len();
        self.counts.clear();
        self.counts.resize(8, [0; 256]);
        let counts: &mut [[u32; 256]; 8] =
            self.counts.as_mut_slice().try_into().expect("eight digits");
        for item in items.iter() {
            for (d, byte) in key(item).to_le_bytes().into_iter().enumerate() {
                counts[d][usize::from(byte)] += 1;
            }
        }
        for (d, counts) in counts.iter_mut().enumerate() {
            if counts.iter().any(|&c| c as usize == n) {
                continue; // one byte throughout: the pass would move nothing
            }
            let mut at = 0;
            for c in counts.iter_mut() {
                (*c, at) = (at, at + *c);
            }
            // Sized, not cleared: every slot is written before it is read.
            self.scratch.truncate(n);
            self.scratch.resize(n, items[0]);
            for item in items.iter() {
                let to = &mut counts[usize::from(key(item).to_le_bytes()[d])];
                self.scratch[*to as usize] = *item;
                *to += 1;
            }
            std::mem::swap(items, &mut self.scratch);
        }
    }
}

// ---------------------------------------------------------------------
// Durable codecs. The byte format predates the runs and is unchanged: a
// Z-set is its rows-with-weights in run order, a join side is its
// distinct keys in order, each followed by the Z-set of its rows, and a
// group accumulator is count, multiset and two optional extrema. The
// decoders rebuild the runs directly and check what the encoders
// guarantee — strictly ascending keys and rows, no zero weight, no empty
// join slot, a count that is the multiset's weight sum, extrema that are
// the multiset's ends — so bytes no encoder wrote are a typed error, not
// a state no delta stream could have built.
// ---------------------------------------------------------------------

use durability::{ascending, ByteReader, ByteWriter, CodecError};

impl KeyScalar {
    /// Serialize as a one-byte tag plus the payload.
    pub fn encode_into(&self, w: &mut ByteWriter) {
        match self {
            KeyScalar::Int(v) => {
                w.put_u8(0);
                w.put_i64(*v);
            }
            KeyScalar::F32(b) => {
                w.put_u8(1);
                w.put_u32(*b);
            }
            KeyScalar::F64(b) => {
                w.put_u8(2);
                w.put_u64(*b);
            }
            KeyScalar::Str(s) => {
                w.put_u8(3);
                w.put_str(s);
            }
        }
    }

    /// Decode a key scalar written by [`KeyScalar::encode_into`].
    pub fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(match r.u8("key scalar tag")? {
            0 => KeyScalar::Int(r.i64("key int")?),
            1 => KeyScalar::F32(r.u32("key f32 bits")?),
            2 => KeyScalar::F64(r.u64("key f64 bits")?),
            3 => KeyScalar::Str(r.str("key string")?),
            t => return Err(CodecError::invalid("key scalar tag", format!("unknown tag {t}"))),
        })
    }
}

impl ZSet {
    /// Write rows `rows` of the run, straight from its buffers: their
    /// count, then each row.
    fn encode_rows(&self, w: &mut ByteWriter, rows: Range<usize>) {
        w.put_list(rows.map(|i| self.entry(i)), |w, e| {
            w.put_list(e.coords, |w, &c| w.put_i64(c));
            w.put_list(e.values, |w, v| v.encode_into(w));
            w.put_i64(e.weight);
        });
    }

    /// Read one Z-set's rows onto the end of the run, each filed under
    /// `key`. Returns how many there were.
    fn decode_rows(
        &mut self,
        r: &mut ByteReader<'_>,
        key: &[KeyScalar],
    ) -> Result<usize, CodecError> {
        let n = r.count("zset row count", 8 + 8 + 8)?;
        for _ in 0..n {
            self.keys.extend_from_slice(key);
            for _ in 0..r.count("zset coord count", 8)? {
                self.coords.push(r.i64("zset coord")?);
            }
            for _ in 0..r.count("zset value count", 2)? {
                self.values.push(ScalarValue::decode_from(r)?);
            }
            let weight = r.i64("zset weight")?;
            if weight == 0 {
                let detail = "zero-weight row in snapshot (cancelled rows are never stored)";
                return Err(CodecError::invalid("zset weight", detail));
            }
            self.end_row(weight);
            let rows = self.len();
            if rows >= 2
                && cmp_keyed(self.entry(rows - 2).sort_key(), self.entry(rows - 1).sort_key())
                    .is_ge()
            {
                let detail = "rows are not strictly ascending";
                return Err(CodecError::invalid("zset row order", detail));
            }
        }
        Ok(n)
    }

    /// Serialize every (unkeyed) row with its net weight, in run order.
    pub fn encode_into(&self, w: &mut ByteWriter) {
        self.encode_rows(w, 0..self.len());
    }

    /// Decode a Z-set written by [`ZSet::encode_into`]: the rows must be
    /// strictly ascending with no zero weight.
    pub fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let mut out = ZSet::default();
        out.decode_rows(r, &[])?;
        Ok(out)
    }

    /// Serialize a join side: its distinct keys in order, each followed
    /// by the Z-set of the rows filed under it.
    pub(super) fn encode_index_into(&self, w: &mut ByteWriter) {
        w.put_counted(|w| {
            let (mut start, mut slots) = (0, 0);
            while start < self.len() {
                let key = self.entry(start).key;
                let more = self.entries_from(start + 1).take_while(|e| e.key == key).count();
                w.put_list(key, |w, k| k.encode_into(w));
                self.encode_rows(w, start..start + 1 + more);
                (start, slots) = (start + 1 + more, slots + 1);
            }
            slots
        });
    }

    /// Decode a join side written by [`ZSet::encode_index_into`]: keys
    /// strictly ascending, no key without rows.
    pub(super) fn decode_index_from(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let n = r.count("join index len", 8 + 8)?;
        let mut out = ZSet::default();
        let mut key = Vec::new();
        for _ in 0..n {
            key.clear();
            for _ in 0..r.count("join key len", 5)? {
                key.push(KeyScalar::decode_from(r)?);
            }
            // The last row read so far is filed under the previous key.
            let last = out.entries_from(out.len().saturating_sub(1)).next().map(|e| e.key);
            ascending("join key order", last, &key[..])?;
            if out.decode_rows(r, &key)? == 0 {
                let detail = "a key with no rows is never stored";
                return Err(CodecError::invalid("join index slot", detail));
            }
        }
        Ok(out)
    }
}

impl GroupState {
    /// The fewest bytes [`GroupState::encode_into`] writes: a count, an
    /// empty multiset and two absent extrema.
    pub(super) const MIN_ENCODED_LEN: usize = 8 + 8 + 1 + 1;

    /// Serialize the accumulator: count, the sorted multiset, and its
    /// two ends as optional extrema.
    pub fn encode_into(&self, w: &mut ByteWriter) {
        w.put_i64(self.count);
        w.put_list(&self.values, |w, &(bits, mult)| {
            w.put_u64(bits);
            w.put_i64(mult);
        });
        for end in [self.values.first(), self.values.last()] {
            match end {
                Some(&(bits, _)) => {
                    w.put_bool(true);
                    w.put_u64(bits);
                }
                None => w.put_bool(false),
            }
        }
    }

    /// Decode an accumulator written by [`GroupState::encode_into`].
    pub fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let count = r.i64("group count")?;
        let mut last = None;
        let values = r.list("group multiset len", 8 + 8, |r| {
            let bits = r.u64("group value bits")?;
            ascending("group value bits", last.as_ref(), &bits)?;
            last = Some(bits);
            let mult = r.i64("group multiplicity")?;
            if mult == 0 {
                let detail = "a cancelled value is never stored";
                return Err(CodecError::invalid("group multiplicity", detail));
            }
            Ok((bits, mult))
        })?;
        let sum = values.iter().try_fold(0i64, |sum, &(_, mult)| sum.checked_add(mult));
        if sum != Some(count) {
            let detail = "count is not the multiset's weight sum";
            return Err(CodecError::invalid("group count", detail));
        }
        for end in [values.first(), values.last()] {
            let stored = match r.bool("group extremum flag")? {
                true => Some(r.u64("group extremum bits")?),
                false => None,
            };
            if stored != end.map(|&(bits, _)| bits) {
                let detail = "extremum is not the multiset's end";
                return Err(CodecError::invalid("group extremum bits", detail));
            }
        }
        Ok(GroupState { count, values })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ord_bits_is_a_numeric_total_order() {
        let xs = [-f64::INFINITY, -3.5, -0.0, 0.0, 1.0e-300, 2.5, f64::INFINITY];
        let mapped: Vec<u64> = xs.iter().map(|&v| ord_bits(v)).collect();
        let mut sorted = mapped.clone();
        sorted.sort_unstable();
        assert_eq!(mapped, sorted, "order preserved");
        for &v in &xs {
            assert_eq!(from_ord_bits(ord_bits(v)).to_bits(), v.to_bits(), "lossless");
        }
    }

    #[test]
    fn zset_weights_cancel() {
        let mut z = ZSet::default();
        let v = [ScalarValue::Double(1.5)];
        assert_eq!(z.add(&[3], &v, 1), 1);
        assert_eq!(z.add(&[3], &v, 1), 2);
        assert_eq!(z.add(&[3], &v, -1), 1);
        assert_eq!(z.add(&[3], &v, -1), 0);
        assert!(z.is_empty());
    }

    #[test]
    fn group_extrema_rescan_on_retraction() {
        let mut g = GroupState::default();
        for v in [4.0, -1.0, 9.0, 9.0] {
            g.update(v, 1);
        }
        assert_eq!((g.min(), g.max()), (Some(-1.0), Some(9.0)));
        g.update(9.0, -1); // one copy left: extremum survives
        assert_eq!(g.max(), Some(9.0));
        g.update(9.0, -1); // last copy: rescan finds 4.0
        assert_eq!(g.max(), Some(4.0));
        g.update(-1.0, -1);
        assert_eq!((g.min(), g.max()), (Some(4.0), Some(4.0)));
        assert_eq!(g.count, 1);
        g.update(4.0, -1);
        assert!(g.is_empty());
        assert_eq!((g.min(), g.max()), (None, None));
    }

    #[test]
    fn fold_sum_is_order_independent_of_arrival() {
        let mut a = GroupState::default();
        let mut b = GroupState::default();
        let vals = [0.1, 0.7, 1.0e16, -0.3, 2.5e-7];
        for &v in &vals {
            a.update(v, 1);
        }
        for &v in vals.iter().rev() {
            b.update(v, 1);
        }
        assert_eq!(a.fold_sum().to_bits(), b.fold_sum().to_bits());
    }

    // ------------------------------------------- kernels vs references --

    /// Doubles at the edges of the order: both zeros, both infinities,
    /// NaNs of both signs with several payloads, the smallest subnormal
    /// and normal, and a few ordinary values.
    const EDGE_BITS: [u64; 14] = [
        0x0000_0000_0000_0000, // +0.0
        0x8000_0000_0000_0000, // -0.0
        0x7ff0_0000_0000_0000, // +inf
        0xfff0_0000_0000_0000, // -inf
        0x7ff8_0000_0000_0000, // quiet NaN
        0xfff8_0000_0000_0000, // negative quiet NaN
        0x7ff0_0000_0000_0001, // signalling NaN, payload 1
        0x7fff_ffff_ffff_ffff, // NaN, every payload bit
        0xfff0_0000_dead_beef, // negative NaN, another payload
        0x0000_0000_0000_0001, // smallest subnormal
        0x0010_0000_0000_0000, // smallest normal
        0x3ff0_0000_0000_0000, // 1.0
        0xbff8_0000_0000_0000, // -1.5
        0x405e_0000_0000_0000, // 120.0
    ];

    /// A stage of `(ord_bits, weight)` drawn from raw bits: mostly edge
    /// values (so duplicates are common), some arbitrary doubles; the
    /// weight is the staging position, so a reordering of equal bits shows.
    fn value_stage(raws: &[u64]) -> Vec<(u64, i64)> {
        let bits = |raw: u64| match raw % 4 {
            0 => raw,
            _ => EDGE_BITS[(raw >> 2) as usize % EDGE_BITS.len()],
        };
        (0..).zip(raws).map(|(i, &raw)| (ord_bits(f64::from_bits(bits(raw))), i)).collect()
    }

    /// The radix sort is `sort_unstable`'s order, and stable: equal bits
    /// keep their staging order.
    fn assert_radix_sorts(raws: &[u64]) {
        let mut staged = value_stage(raws);
        let mut unstable = staged.clone();
        unstable.sort_unstable_by_key(|&(bits, _)| bits);
        let mut stable = staged.clone();
        stable.sort_by_key(|&(bits, _)| bits);
        Radix::default().sort(&mut staged, |&(bits, _)| bits);
        let keys = |v: &[(u64, i64)]| v.iter().map(|&(bits, _)| bits).collect::<Vec<_>>();
        assert_eq!(keys(&staged), keys(&unstable), "sort_unstable's order");
        assert_eq!(staged, stable, "stable");
    }

    #[test]
    fn radix_sort_handles_empty_single_and_uniform_stages() {
        assert_radix_sorts(&[]);
        assert_radix_sorts(&[7]);
        assert_radix_sorts(&[4; 50]); // one value throughout: every pass skipped
        let every_edge: Vec<u64> = (0..EDGE_BITS.len() as u64).map(|i| (i << 2) | 1).collect();
        assert_radix_sorts(
            &every_edge.iter().chain(&every_edge).rev().copied().collect::<Vec<_>>(),
        );
    }

    /// One keyed row drawn from raw bits: a key of 0–3 scalars of every
    /// [`KeyScalar`] variant, 0–3 coordinates and 0–3 values of every
    /// [`ScalarValue`] variant — each from a small pool at the prefix's
    /// edges (integers at ±2⁶⁰ and the ends of `i64`, floats at zero, NaN
    /// and the infinities, strings that share their first seven bytes).
    fn keyed_row(raw: u64) -> KeyedRow {
        const INTS: [i64; 10] = [
            i64::MIN,
            -(1 << 60) - 1,
            -(1 << 60),
            -(1 << 60) + 1,
            -1,
            0,
            1,
            (1 << 60) - 1,
            1 << 60,
            i64::MAX,
        ];
        const STRS: [&str; 6] = ["", "a", "ab", "abcdefg", "abcdefgh", "abcdefgz"];
        let mut draws = raw;
        let mut next = |n: u64| {
            let d = draws % n;
            draws = (draws / n) ^ draws.rotate_left(17);
            d as usize
        };
        let edge = |i: usize| EDGE_BITS[i % EDGE_BITS.len()];
        let key = (0..next(4))
            .map(|_| match next(4) {
                0 => KeyScalar::Int(INTS[next(10)]),
                1 => KeyScalar::F32((edge(next(14)) >> 32) as u32),
                2 => KeyScalar::F64(edge(next(14))),
                _ => KeyScalar::Str(STRS[next(6)].to_string()),
            })
            .collect();
        let coords = (0..next(4)).map(|_| INTS[next(10)]).collect();
        let values = (0..next(4))
            .map(|_| match next(6) {
                0 => ScalarValue::Int32(INTS[next(10)] as i32),
                1 => ScalarValue::Int64(INTS[next(10)]),
                2 => ScalarValue::Char(next(3) as u8),
                3 => ScalarValue::Float(f32::from_bits((edge(next(14)) >> 32) as u32)),
                4 => ScalarValue::Double(f64::from_bits(edge(next(14)))),
                _ => ScalarValue::Str(STRS[next(6)].to_string()),
            })
            .collect();
        (key, coords, values)
    }

    type KeyedRow = (Vec<KeyScalar>, Vec<i64>, Vec<ScalarValue>);

    fn sort_key(r: &KeyedRow) -> (&[KeyScalar], (&[i64], &[ScalarValue])) {
        (&r.0, (&r.1, &r.2))
    }

    #[test]
    fn the_empty_key_and_the_empty_row_sort_first() {
        let rows = [keyed_row(0), keyed_row(1 << 40), keyed_row(u64::MAX)];
        let empty = prefix(&[], &[], &[]);
        for row in &rows {
            assert!(empty <= prefix(&row.0, &row.1, &row.2));
            assert!(cmp_keyed((&[], (&[], &[])), sort_key(row)).is_le());
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn radix_sort_is_a_stable_sort_unstable(raws in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..400)) {
            assert_radix_sorts(&raws);
        }

        /// The prefix never contradicts `(join key, row)` order, and a
        /// staged batch sorts into exactly a stable `cmp_keyed` sort.
        #[test]
        fn prefix_order_is_cmp_keyed_order(raws in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..64)) {
            let rows: Vec<_> = raws.iter().map(|&raw| keyed_row(raw)).collect();
            for a in &rows {
                for b in &rows {
                    let by_prefix = prefix(&a.0, &a.1, &a.2).cmp(&prefix(&b.0, &b.1, &b.2));
                    let by_row = cmp_keyed(sort_key(a), sort_key(b));
                    proptest::prop_assert!(by_prefix.is_eq() || by_prefix == by_row, "{:?} vs {:?}", a, b);
                }
            }
            let mut stage = Stage::default();
            for (i, r) in (0..).zip(&rows) {
                stage.push(r.0.clone(), Staged::Lent(&r.1, &r.2), i);
            }
            stage.sort();
            let mut want: Vec<(usize, _)> = rows.iter().enumerate().collect();
            want.sort_by(|a, b| cmp_keyed(sort_key(a.1), sort_key(b.1)));
            let got: Vec<i64> = stage.sorted().map(|e| e.weight).collect();
            let want: Vec<i64> = want.iter().map(|&(i, _)| i as i64).collect();
            proptest::prop_assert_eq!(got, want);
        }
    }
}
