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
//! # Maintenance
//!
//! The invariant is "the run is the consolidated, ordered Z-set of
//! everything applied", and a delta maintains it by **one sort and one
//! merge** ([`ZSet::merge`], [`GroupState::merge`]): the staged rows are
//! sorted, then merged with the run, summing the weights of equal rows
//! and dropping zeros.
//!
//! A Z-set's merge rewrites only the **span** of the run between the
//! first and the last staged row (two binary searches find it) and
//! splices the merged span back in place. That is O(|Δ| log |Δ|)
//! comparisons, plus a clone of the run's rows inside the span, plus one
//! memmove of the rows after it when the span changes length. On the
//! shapes a time-keyed view sees, the cost follows the delta, not the
//! state: a newer day staged past the end is an append, O(|Δ|); the
//! oldest day cancelled at the front is O(|Δ|) plus one memmove of the
//! rest. A delta spread across the whole run rewrites the whole run.
//! A group's merge is one linear pass over the group's multiset, which
//! [`GroupState::fold_sum`] pays per touched group anyway.
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
/// through `KeyImage`.
pub fn cmp_rows(a: (&[i64], &[ScalarValue]), b: (&[i64], &[ScalarValue])) -> Ordering {
    a.0.cmp(b.0).then_with(|| a.1.iter().map(KeyImage::of).cmp(b.1.iter().map(KeyImage::of)))
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

/// One row staged for [`ZSet::merge`]: the join key it files under
/// (empty for a view's output), the row, and its weight.
pub(super) struct StagedRow<'a> {
    pub(super) key: Vec<KeyScalar>,
    pub(super) row: Staged<'a>,
    pub(super) weight: i64,
}

impl StagedRow<'_> {
    fn sort_key(&self) -> (&[KeyScalar], (&[i64], &[ScalarValue])) {
        (&self.key, self.row.parts())
    }
}

/// `(join key, row)` order — the order of a [`ZSet`]'s run.
fn cmp_keyed(
    a: (&[KeyScalar], (&[i64], &[ScalarValue])),
    b: (&[KeyScalar], (&[i64], &[ScalarValue])),
) -> Ordering {
    a.0.cmp(b.0).then_with(|| cmp_rows(a.1, b.1))
}

/// Sort staged rows into run order. Stable, so a delta that arrives in
/// run order (chunks are walked in coordinate order) costs one pass.
pub(super) fn sort_staged(staged: &mut [StagedRow<'_>]) {
    staged.sort_by(|a, b| cmp_keyed(a.sort_key(), b.sort_key()));
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
        self.merge(vec![StagedRow { key: Vec::new(), row: Staged::Lent(coords, values), weight }]);
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

    /// Append a staged row (the caller keeps the run ordered).
    fn push_staged(&mut self, staged: StagedRow<'_>) {
        self.keys.extend(staged.key);
        match staged.row {
            Staged::Lent(coords, values) => {
                self.coords.extend_from_slice(coords);
                self.values.extend_from_slice(values);
            }
            Staged::Mapped((coords, values)) => {
                self.coords.extend(coords);
                self.values.extend(values);
            }
        }
        self.end_row(staged.weight);
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
    /// rebased by what the span grew or shrank.
    fn splice(&mut self, range: Range<usize>, span: ZSet) {
        let (start, end) = (self.start_of(range.start), self.start_of(range.end));
        let new_end = RowEnd {
            key: start.key + span.keys.len(),
            coords: start.coords + span.coords.len(),
            values: start.values + span.values.len(),
            weight: 0,
        };
        self.keys.splice(start.key..end.key, span.keys);
        self.coords.splice(start.coords..end.coords, span.coords);
        self.values.splice(start.values..end.values, span.values);
        let suffix = range.start + span.ends.len();
        self.ends.splice(
            range,
            span.ends.into_iter().map(|e| RowEnd {
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

    /// Fold a batch of staged rows — **sorted** by [`sort_staged`] — into
    /// the run, weights of equal rows summed, zeros dropped. Only the
    /// span of the run between the first and the last staged row is
    /// rewritten: it is merged with the batch into a fresh span (rows of
    /// the run between two staged rows cloned as a block) and spliced
    /// back in place. A batch past the end of the run is an append; one
    /// that cancels the run's first rows is a splice that removes them.
    pub(super) fn merge(&mut self, staged: Vec<StagedRow<'_>>) {
        let (Some(first), Some(last)) = (staged.first(), staged.last()) else {
            return;
        };
        debug_assert!(staged
            .windows(2)
            .all(|w| cmp_keyed(w[0].sort_key(), w[1].sort_key()).is_le()));
        let lo = self.lower_bound(0, |e| cmp_keyed(e.sort_key(), first.sort_key()).is_lt());
        let hi = self.lower_bound(lo, |e| cmp_keyed(e.sort_key(), last.sort_key()).is_le());
        let mut span = ZSet::default();
        span.ends.reserve(hi - lo + staged.len());
        let mut next = lo; // first row of the span not yet merged
        let mut staged = staged.into_iter().peekable();
        while let Some(mut row) = staged.next() {
            while let Some(dup) =
                staged.next_if(|s| cmp_keyed(s.sort_key(), row.sort_key()).is_eq())
            {
                row.weight += dup.weight;
            }
            let at = self.lower_bound(next, |e| cmp_keyed(e.sort_key(), row.sort_key()).is_lt());
            span.clone_rows(self, next..at);
            next = at;
            if at < hi && cmp_keyed(self.entry(at).sort_key(), row.sort_key()).is_eq() {
                // The row is in the run already: it keeps its place with
                // the summed weight, or cancels and is left out.
                next = at + 1;
                let weight = self.ends[at].weight + row.weight;
                if weight != 0 {
                    span.clone_rows(self, at..next);
                    if let Some(kept) = span.ends.last_mut() {
                        kept.weight = weight;
                    }
                }
            } else if row.weight != 0 {
                span.push_staged(row);
            }
        }
        debug_assert_eq!(next, hi, "the span ends at the last staged row");
        self.splice(lo..hi, span);
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
    /// one sort of the batch and one linear merge, multiplicities of
    /// equal values summed, zeros dropped. O(|staged| log |staged| +
    /// |group|) — the pass over the group is what
    /// [`GroupState::fold_sum`] pays per touched group anyway.
    pub fn merge(&mut self, staged: &mut [(u64, i64)]) {
        staged.sort_unstable();
        let old = std::mem::take(&mut self.values);
        let mut merged: Vec<(u64, i64)> = Vec::with_capacity(old.len() + staged.len());
        let mut fold = |bits: u64, weight: i64| match merged.last_mut() {
            Some(last) if last.0 == bits => last.1 += weight,
            _ => {
                // The previous value is complete: keep it unless it cancelled.
                if merged.last().is_some_and(|last| last.1 == 0) {
                    merged.pop();
                }
                merged.push((bits, weight));
            }
        };
        let mut old = old.into_iter().peekable();
        for &(bits, weight) in staged.iter() {
            self.count += weight;
            while let Some((b, m)) = old.next_if(|&(b, _)| b <= bits) {
                fold(b, m);
            }
            fold(bits, weight);
        }
        for (b, m) in old {
            fold(b, m);
        }
        if merged.last().is_some_and(|last| last.1 == 0) {
            merged.pop();
        }
        self.values = merged;
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
}
