//! Cell keys: what the operators that group, match and order cells file
//! them under (`grid_aggregate`'s groups, `positional_join`'s right side,
//! `window_aggregate`'s sorted sweep, `trajectory`'s landing census).
//!
//! Inside a finite box a cell is one integer — its row-major position,
//! the "logical position" multidimensional stores address cells by. A
//! [`CellBox`] picks the [`Encoding`] of its cells, and nobody else does:
//!
//! * [`Packed`] — the cell's row-major ordinal in the box, a `u64`,
//!   whenever the box's volume fits one;
//! * [`Padded`] — the coordinates themselves, zero-padded to `MAX_DIMS`,
//!   for a box whose volume does not (coordinates spanning most of `i64`).
//!
//! The box is always the data's own — the zone boxes of the chunks a scan
//! visits clipped to its region ([`crate::ScanPlan`]), or the bounds of
//! the cells gathered ([`FlatKeys::bounds`]) — never a parameter, so
//! which encoding ran is a property of the data, not of the caller.
//!
//! Every caller relies on two contracts, and on nothing else:
//!
//! 1. **Key order is lexicographic cell order**, and shifting is linear:
//!    `pack(c + o) = pack(c).offset_by(delta(o))` while both cells are in
//!    the box. Equal padding never decides a comparison and row-major
//!    ordinals ascend with the coordinates, so both encodings sort,
//!    deduplicate and sweep cells identically.
//! 2. **The structures here only assign positions** — [`KeySlots`] a
//!    dense slot per distinct key in first-seen order,
//!    [`FlatKeys::for_each_run`] the push indices of each key in push
//!    order, [`CellIndex::position`] the filing order of a cell. Values
//!    are folded by the caller in scan order, so no float sum depends on
//!    the encoding: which one ran is unobservable.
//!
//! Chunks are the second user. A scan's chunk coordinates are cells of
//! the chunk grid, so inside the box of the chunks a plan holds a chunk
//! is one integer too: [`crate::exec::ChunkIndex`] finds a chunk, or the
//! neighbour a halo, hand-off, predecessor or join partner names, by its
//! ordinal in a [`CellIndex`] — a neighbour outside the box is not
//! planned, which the packer answers without a lookup — and kNN's ring
//! walk files the positions it reaches in a [`KeySlots`].

use array_model::MAX_DIMS;

/// A key of either encoding: ordered, hashed by multiplication, shifted
/// by a delta of its own type.
pub(super) trait CellKey: Copy + Ord {
    /// What a vacant [`KeySlots`] entry holds. Never compared as a key:
    /// vacancy lives in the entry's slot.
    const FILLER: Self;

    /// A well-mixed 64-bit hash whose *top* bits index a table.
    fn hash(self) -> u64;

    /// The key of the cell `delta` (an [`Encoding::delta`]) away. The
    /// caller guarantees that cell is inside the encoding's box.
    fn offset_by(self, delta: Self) -> Self;
}

/// Fibonacci hashing: one multiplication by 2^64 / φ. Not SipHash: the
/// probe is the whole per-row cost of the operators here, and the keys
/// are stored coordinates and attribute values, not a protocol surface —
/// keys crafted to collide can only slow a query down (a longer probe
/// run), never change its answer.
const FIBONACCI: u64 = 0x9e37_79b9_7f4a_7c15;

impl CellKey for u64 {
    const FILLER: Self = 0;

    #[inline]
    fn hash(self) -> u64 {
        self.wrapping_mul(FIBONACCI)
    }

    /// Ordinals add modulo 2^64: a negative delta is its two's
    /// complement, and the true sum is in `0..volume`, so it is exact.
    #[inline]
    fn offset_by(self, delta: Self) -> Self {
        self.wrapping_add(delta)
    }
}

impl CellKey for [i64; MAX_DIMS] {
    const FILLER: Self = [0; MAX_DIMS];

    #[inline]
    fn hash(self) -> u64 {
        self.iter().fold(0, |h: u64, &c| (h.rotate_left(23) ^ c.cast_unsigned()).hash())
    }

    /// In-box cells have `i64` coordinates, so no sum overflows.
    #[inline]
    fn offset_by(mut self, delta: Self) -> Self {
        for (c, o) in self.iter_mut().zip(delta) {
            *c += o;
        }
        self
    }
}

/// How the cells of one [`CellBox`] become keys.
pub(super) trait Encoding {
    /// The key type.
    type Key: CellKey;

    /// The key of `cell`; `None` when it is outside the box.
    fn pack(&self, cell: &[i64]) -> Option<Self::Key>;

    /// The shift that moves a key by `offset` cells per dimension.
    fn delta(&self, offset: &[i64]) -> Self::Key;

    /// The cell of `key`, a key [`Self::pack`] returned.
    fn unpack(&self, key: Self::Key, cell: &mut [i64]);
}

/// An inclusive box of cells, `low[d]..=high[d]` on each dimension;
/// empty until a cell or box is [included](Self::include).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CellBox {
    nd: usize,
    /// Whether anything was included (a box of no dimensions — the keys
    /// of a group-by that keeps none — holds one cell or nothing).
    any: bool,
    low: [i64; MAX_DIMS],
    high: [i64; MAX_DIMS],
}

/// The encoding [`CellBox::encoding`] picked.
pub(super) enum BoxEncoding {
    /// The box's volume fits a `u64`.
    Packed(Packed),
    /// It does not.
    Padded(Padded),
}

impl CellBox {
    /// The box holding no cell of an `nd`-dimensional space (at most
    /// `MAX_DIMS`: every schema's arity).
    pub fn empty(nd: usize) -> Self {
        debug_assert!(nd <= MAX_DIMS);
        CellBox { nd, any: false, low: [i64::MAX; MAX_DIMS], high: [i64::MIN; MAX_DIMS] }
    }

    /// Whether no cell was included.
    pub fn is_empty(&self) -> bool {
        !self.any
    }

    /// Grow to cover the non-empty box `low..=high` (a cell is the box
    /// with both corners equal).
    pub fn include(&mut self, low: &[i64], high: &[i64]) {
        debug_assert!(low.len() == self.nd && high.len() == self.nd);
        debug_assert!(low.iter().zip(high).all(|(l, h)| l <= h));
        self.any = true;
        for d in 0..self.nd {
            self.low[d] = self.low[d].min(low[d]);
            self.high[d] = self.high[d].max(high[d]);
        }
    }

    /// The lower and upper corner.
    pub fn corners(&self) -> (&[i64], &[i64]) {
        (&self.low[..self.nd], &self.high[..self.nd])
    }

    /// How far apart two cells of the box can be on dimension `d`
    /// (saturating: a dimension may span more than `i64::MAX`).
    pub fn span(&self, d: usize) -> i64 {
        self.high[d].saturating_sub(self.low[d]).max(0)
    }

    /// The one place an encoding is chosen: packed whenever the box's
    /// volume fits a `u64`, padded otherwise.
    pub(super) fn encoding(&self) -> BoxEncoding {
        match Packed::new(self) {
            Some(packed) => BoxEncoding::Packed(packed),
            None => BoxEncoding::Padded(Padded { nd: self.nd }),
        }
    }
}

/// Row-major ordinals inside a box: `Σ (c[d] - low[d]) · stride[d]`, the
/// last dimension fastest (stride 1).
pub(super) struct Packed {
    nd: usize,
    low: [i64; MAX_DIMS],
    high: [i64; MAX_DIMS],
    stride: [u64; MAX_DIMS],
}

impl Packed {
    /// `None` when the box holds more than `u64::MAX` cells.
    fn new(bounds: &CellBox) -> Option<Self> {
        let mut stride = [0; MAX_DIMS];
        let mut volume = 1u64;
        for d in (0..bounds.nd).rev() {
            stride[d] = volume;
            let (low, high) = (bounds.low[d], bounds.high[d]);
            // `high - low + 1` cells, which is 2^64 for the whole of `i64`.
            let extent = if low > high { 0 } else { high.abs_diff(low).checked_add(1)? };
            volume = volume.checked_mul(extent)?;
        }
        Some(Packed { nd: bounds.nd, low: bounds.low, high: bounds.high, stride })
    }
}

impl Encoding for Packed {
    type Key = u64;

    #[inline]
    fn pack(&self, cell: &[i64]) -> Option<u64> {
        debug_assert_eq!(cell.len(), self.nd);
        let mut ordinal = 0;
        for (d, &c) in cell.iter().enumerate() {
            if c < self.low[d] || c > self.high[d] {
                return None;
            }
            // Below the volume, which `new` proved fits.
            ordinal += c.abs_diff(self.low[d]) * self.stride[d];
        }
        Some(ordinal)
    }

    fn delta(&self, offset: &[i64]) -> u64 {
        debug_assert_eq!(offset.len(), self.nd);
        offset.iter().zip(&self.stride).fold(0, |delta: u64, (&o, &stride)| {
            let step = stride.wrapping_mul(o.unsigned_abs());
            if o < 0 {
                delta.wrapping_sub(step)
            } else {
                delta.wrapping_add(step)
            }
        })
    }

    fn unpack(&self, mut key: u64, cell: &mut [i64]) {
        debug_assert_eq!(cell.len(), self.nd);
        for (d, c) in cell.iter_mut().enumerate() {
            // A packed key is below the volume, so no stride is 0 and the
            // quotient is at most `high[d] - low[d]`: the sum is a
            // coordinate of the box.
            *c = self.low[d].wrapping_add_unsigned(key / self.stride[d]);
            key %= self.stride[d];
        }
    }
}

/// The coordinates as the key, zero-padded to `MAX_DIMS`. Every cell is
/// "inside": this is the encoding of boxes too large to number.
pub(super) struct Padded {
    nd: usize,
}

impl Padded {
    fn pad(&self, coords: &[i64]) -> [i64; MAX_DIMS] {
        debug_assert_eq!(coords.len(), self.nd);
        let mut key = [0; MAX_DIMS];
        key[..self.nd].copy_from_slice(coords);
        key
    }
}

impl Encoding for Padded {
    type Key = [i64; MAX_DIMS];

    #[inline]
    fn pack(&self, cell: &[i64]) -> Option<Self::Key> {
        Some(self.pad(cell))
    }

    fn delta(&self, offset: &[i64]) -> Self::Key {
        self.pad(offset)
    }

    fn unpack(&self, key: Self::Key, cell: &mut [i64]) {
        cell.copy_from_slice(&key[..self.nd]);
    }
}

/// Distinct cells of one box, found again by the order they were filed
/// in: each cell's key under the box's encoding in a [`KeySlots`]. A
/// probe packs the cell — `None` outside the box, which holds every
/// filed cell, so such a cell is absent without a lookup — and reads its
/// slot.
///
/// A slot table, not a sorted key list with a binary search: over the
/// §6.2 suites on a 2-CPU host, the two alternated call by call in one
/// process, the table read `window_aggregate` 7.2 → 5.3 ms and
/// `trajectory` 5.2 → 3.7 ms a sweep (halo and hand-off probes), for
/// 1.4 ms more of building.
pub(crate) struct CellIndex(Slots);

/// [`CellIndex`]'s table under each encoding.
enum Slots {
    /// The box's volume fits a `u64`: ordinals.
    Packed(Packed, KeySlots<u64>),
    /// It does not: padded coordinates.
    Padded(Padded, KeySlots<[i64; MAX_DIMS]>),
}

impl CellIndex {
    /// File `cells`, `len` distinct cells inside `bounds`: the `i`-th
    /// gets position `i`.
    pub fn new<'c>(bounds: &CellBox, len: usize, cells: impl Iterator<Item = &'c [i64]>) -> Self {
        fn file<'c, E: Encoding>(
            e: &E,
            len: usize,
            cells: impl Iterator<Item = &'c [i64]>,
        ) -> KeySlots<E::Key> {
            let mut slots = KeySlots::with_room_for(len);
            for (i, cell) in cells.enumerate() {
                let slot = slots.slot_of(e.pack(cell).expect("the box holds every cell"));
                debug_assert_eq!(slot, i, "distinct cells");
            }
            slots
        }
        CellIndex(match bounds.encoding() {
            BoxEncoding::Packed(e) => {
                let slots = file(&e, len, cells);
                Slots::Packed(e, slots)
            }
            BoxEncoding::Padded(e) => {
                let slots = file(&e, len, cells);
                Slots::Padded(e, slots)
            }
        })
    }

    /// The position of `cell` (of the box's arity) among the filed cells.
    #[inline]
    pub fn position(&self, cell: &[i64]) -> Option<usize> {
        match &self.0 {
            Slots::Packed(e, slots) => slots.get(e.pack(cell)?),
            Slots::Padded(e, slots) => slots.get(e.pack(cell)?),
        }
    }
}

/// Distinct keys → dense slots `0, 1, 2, …` in first-seen order: an
/// open-addressed, linearly probed table with the keys inline, at most
/// half full. A vacant entry is marked in its slot, so every key value —
/// both ends of the type included — can be held.
///
/// `distinct_sorted` keeps its own set-only table (`SeenKeys`, 8 bytes an
/// entry, vacancy as a reserved key) rather than this one with the slot
/// ignored: measured on `query_mix` (ten alternating traced pairs, seed
/// 0), this table read `query.distinct_sorted_narrow_ms` 2.83 → 3.26 and
/// `query.distinct_sorted_wide_ms` 13.6 → 14.1 — behind in 9 and 7 pairs
/// of 10. Two million probes a pass pay for the slot they do not use.
pub(super) struct KeySlots<K> {
    /// A power of two (≥ 2) entries of `(key, slot)`.
    entries: Vec<(K, usize)>,
    /// Keys held; also the next slot to hand out.
    len: usize,
}

impl<K: CellKey> KeySlots<K> {
    /// No entry can hold this slot: a `Vec` is shorter than `usize::MAX`.
    const VACANT: usize = usize::MAX;
    const INITIAL_ENTRIES: usize = 1 << 10;

    /// A table that holds `keys` distinct keys without growing.
    pub fn with_room_for(keys: usize) -> Self {
        // An absurd `keys` fails in the allocator, not here.
        let entries = keys.saturating_mul(2).next_power_of_two().max(Self::INITIAL_ENTRIES);
        KeySlots { entries: vec![(K::FILLER, Self::VACANT); entries], len: 0 }
    }

    /// Where `key` is held in `entries` (a power of two ≥ 2 of them, at
    /// least one vacant, so the probe terminates), or the vacant entry
    /// that ends its probe run. The run starts at the top `log2(len)`
    /// bits of the key's hash.
    #[inline]
    fn entry_for(entries: &[(K, usize)], key: K) -> usize {
        let mask = entries.len() - 1;
        // The shifted hash is below `entries.len()`, a `usize`.
        let mut at = (key.hash() >> (u64::BITS - entries.len().trailing_zeros())) as usize;
        while entries[at].1 != Self::VACANT && entries[at].0 != key {
            at = (at + 1) & mask;
        }
        at
    }

    /// The slot of `key`, if it was ever [filed](Self::slot_of).
    #[inline]
    pub fn get(&self, key: K) -> Option<usize> {
        let slot = self.entries[Self::entry_for(&self.entries, key)].1;
        (slot != Self::VACANT).then_some(slot)
    }

    /// File `key`; whether it is new.
    #[inline]
    pub fn insert(&mut self, key: K) -> bool {
        let held = self.len;
        self.slot_of(key) == held
    }

    /// The slot of `key`; a key not seen before gets the next one — the
    /// number of distinct keys seen before it.
    #[inline]
    pub fn slot_of(&mut self, key: K) -> usize {
        let at = Self::entry_for(&self.entries, key);
        let slot = self.entries[at].1;
        if slot != Self::VACANT {
            return slot;
        }
        self.entries[at] = (key, self.len);
        self.len += 1;
        if self.len > self.entries.len() / 2 {
            self.grow();
        }
        self.len - 1
    }

    /// Double the table and re-file every key under its slot.
    fn grow(&mut self) {
        // Cannot overflow: a `Vec` of 16-byte entries is far below `usize::MAX / 2` long.
        let doubled = vec![(K::FILLER, Self::VACANT); self.entries.len() * 2];
        for entry in std::mem::replace(&mut self.entries, doubled) {
            if entry.1 != Self::VACANT {
                let at = Self::entry_for(&self.entries, entry.0);
                self.entries[at] = entry;
            }
        }
    }

    /// Every `(key, slot)`, keys ascending.
    pub fn into_sorted(self) -> Vec<(K, usize)> {
        let mut held = self.entries;
        held.retain(|entry| entry.1 != Self::VACANT);
        held.sort_unstable();
        held
    }
}

/// Cells of equal arity stored back to back in push (scan) order, for the
/// operators whose answer needs them in *key* order instead.
pub(super) struct FlatKeys {
    nd: usize,
    flat: Vec<i64>,
}

impl FlatKeys {
    /// An empty buffer of `nd`-dimensional cells (`nd ≥ 1`: every schema
    /// has a dimension).
    pub fn new(nd: usize) -> Self {
        debug_assert!(nd > 0);
        FlatKeys { nd, flat: Vec::new() }
    }

    /// Append `cell`, returning its slot so the caller can adjust it in
    /// place.
    pub fn push(&mut self, cell: &[i64]) -> &mut [i64] {
        debug_assert_eq!(cell.len(), self.nd);
        let at = self.flat.len();
        self.flat.extend_from_slice(cell);
        &mut self.flat[at..]
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.flat.len() / self.nd
    }

    /// The `i`-th cell pushed.
    #[inline]
    pub fn get(&self, i: usize) -> &[i64] {
        &self.flat[i * self.nd..(i + 1) * self.nd]
    }

    /// The smallest box holding every cell pushed.
    pub fn bounds(&self) -> CellBox {
        let mut bounds = CellBox::empty(self.nd);
        for cell in self.flat.chunks_exact(self.nd) {
            bounds.include(cell, cell);
        }
        bounds
    }

    /// Visit each distinct cell once, in ascending lexicographic order,
    /// as its `(key, push index)` pairs in push order: one sort of pairs,
    /// and a pair is unique, so an unstable sort is a stable one —
    /// `run.last()` is the entry a map insert would have kept and
    /// `run.len()` the count a map entry would have reached. `encoding`
    /// is that of a box holding every cell pushed.
    pub fn for_each_run<E: Encoding>(&self, encoding: &E, f: impl FnMut(&[(E::Key, usize)])) {
        let key = |cell| encoding.pack(cell).expect("the box was grown from these cells");
        let mut pairs: Vec<_> =
            self.flat.chunks_exact(self.nd).enumerate().map(|(i, cell)| (key(cell), i)).collect();
        pairs.sort_unstable();
        pairs.chunk_by(|a, b| a.0 == b.0).for_each(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn packed(low: &[i64], high: &[i64]) -> Option<Packed> {
        let mut bounds = CellBox::empty(low.len());
        bounds.include(low, high);
        match bounds.encoding() {
            BoxEncoding::Packed(p) => Some(p),
            BoxEncoding::Padded(_) => None,
        }
    }

    #[test]
    fn runs_come_out_in_key_order_with_push_order_inside() {
        let mut keys = FlatKeys::new(2);
        for k in [[2, 1], [0, 9], [2, 1], [-1, 5], [0, 9], [2, 1]] {
            keys.push(&k);
        }
        keys.push(&[7, 7])[1] = -7;
        let want = vec![
            (vec![-1, 5], vec![3]),
            (vec![0, 9], vec![1, 4]),
            (vec![2, 1], vec![0, 2, 5]),
            (vec![7, -7], vec![6]),
        ];
        let runs_under = |encoding: BoxEncoding| {
            let mut runs = Vec::new();
            let mut note = |run: Vec<usize>| runs.push((keys.get(run[0]).to_vec(), run));
            match encoding {
                BoxEncoding::Packed(e) => {
                    keys.for_each_run(&e, |run| note(run.iter().map(|p| p.1).collect()))
                }
                BoxEncoding::Padded(e) => {
                    keys.for_each_run(&e, |run| note(run.iter().map(|p| p.1).collect()))
                }
            }
            runs
        };
        assert!(matches!(keys.bounds().encoding(), BoxEncoding::Packed(_)));
        assert_eq!(runs_under(keys.bounds().encoding()), want);
        assert_eq!(runs_under(BoxEncoding::Padded(Padded { nd: 2 })), want);
    }

    #[test]
    fn the_volume_decides_the_encoding_at_exactly_two_to_the_64() {
        // One dimension: all of `i64` is 2^64 cells, one short of it fits.
        assert!(packed(&[i64::MIN], &[i64::MAX]).is_none());
        let most = packed(&[i64::MIN + 1], &[i64::MAX]).unwrap();
        assert_eq!(most.pack(&[i64::MIN + 1]), Some(0));
        assert_eq!(most.pack(&[i64::MAX]), Some(u64::MAX - 1));
        assert_eq!(most.pack(&[i64::MIN]), None);
        // 2^32 x 2^32 does not fit; (2^32 - 1) x 2^32 does.
        let side = (1i64 << 32) - 1;
        assert!(packed(&[0, 0], &[side, side]).is_none());
        assert!(packed(&[0, 0], &[side - 1, side]).is_some());
        // A huge dimension beside any other of two cells.
        assert!(packed(&[i64::MIN + 1, 0], &[i64::MAX, 1]).is_none());
        assert!(packed(&[i64::MIN + 1, 0], &[i64::MAX, 0]).is_some());
        // An empty box packs nothing.
        let none = CellBox::empty(2);
        assert!(none.is_empty());
        let BoxEncoding::Packed(p) = none.encoding() else { panic!("volume 0 fits") };
        assert_eq!(p.pack(&[0, 0]), None);
    }

    /// A coordinate near either end of `i64`, around zero, or anywhere.
    fn coordinate() -> impl Strategy<Value = i64> {
        prop_oneof![
            (0i64..40).prop_map(|d| i64::MIN + d),
            (0i64..40).prop_map(|d| i64::MAX - d),
            -40i64..40,
            any::<i64>(),
        ]
    }

    /// A box: per dimension a low corner and an extent that is tiny,
    /// middling or most of the type (so some volumes do not fit).
    fn corners() -> impl Strategy<Value = (Vec<i64>, Vec<i64>)> {
        let extent = prop_oneof![0u64..4, 0u64..3000, any::<u64>()];
        proptest::collection::vec((coordinate(), extent), 1..5).prop_map(|dims| {
            let high = dims.iter().map(|&(low, e)| low.saturating_add_unsigned(e)).collect();
            (dims.into_iter().map(|(low, _)| low).collect(), high)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn the_packer_numbers_a_box_in_lexicographic_order(
            corners in corners(),
            picks in proptest::collection::vec(proptest::collection::vec(any::<u64>(), 4), 2..24),
            strays in proptest::collection::vec(proptest::collection::vec(coordinate(), 4), 0..8),
        ) {
            let (low, high) = corners;
            let nd = low.len();
            // Saturating: four dimensions of 2^64 cells overflow even this.
            let volume = low.iter().zip(&high).fold(1u128, |v, (l, h)| {
                v.saturating_mul(u128::from(h.abs_diff(*l)) + 1)
            });
            let Some(p) = packed(&low, &high) else {
                prop_assert!(volume > u128::from(u64::MAX), "a volume of {} fits", volume);
                return;
            };
            prop_assert!(volume <= u128::from(u64::MAX));
            // In-box cells: the corners, and picks folded into each extent.
            let mut cells = vec![low.clone(), high.clone()];
            for pick in &picks {
                cells.push((0..nd).map(|d| {
                    let extent = u128::from(high[d].abs_diff(low[d])) + 1;
                    low[d].wrapping_add_unsigned((u128::from(pick[d]) % extent) as u64)
                }).collect());
            }
            let inside = |cell: &[i64]| (0..nd).all(|d| low[d] <= cell[d] && cell[d] <= high[d]);
            let mut round_trip = vec![0; nd];
            for a in &cells {
                prop_assert!(inside(a));
                let ka = p.pack(a).expect("in the box");
                prop_assert!(u128::from(ka) < volume);
                p.unpack(ka, &mut round_trip);
                prop_assert_eq!(&round_trip, a);
                for b in &cells {
                    let kb = p.pack(b).unwrap();
                    // Ordinal order is lexicographic order.
                    prop_assert_eq!(ka.cmp(&kb), a.cmp(b));
                    // Linear in the offset, whatever its sign: 128-bit
                    // differences, as two corners can be 2^64 - 1 apart.
                    let offset: Vec<i128> =
                        (0..nd).map(|d| i128::from(b[d]) - i128::from(a[d])).collect();
                    if let Ok(offset) = offset.iter().map(|&o| i64::try_from(o)).collect::<Result<Vec<_>, _>>() {
                        prop_assert_eq!(ka.offset_by(p.delta(&offset)), kb);
                    }
                }
            }
            prop_assert_eq!(p.pack(&low), Some(0));
            prop_assert_eq!(u128::from(p.pack(&high).unwrap()), volume - 1);
            // Outside on any dimension is `None`, the ends of `i64` included.
            for stray in &strays {
                let stray = &stray[..nd];
                prop_assert_eq!(p.pack(stray).is_some(), inside(stray));
            }
            for d in 0..nd {
                for (edge, step) in [(low[d], -1i64), (high[d], 1)] {
                    if let Some(out) = edge.checked_add(step) {
                        let mut cell = low.clone();
                        cell[d] = out;
                        prop_assert_eq!(p.pack(&cell), None);
                    }
                }
            }
        }

        #[test]
        fn padded_keys_order_shift_and_round_trip_like_the_cells(
            a in proptest::collection::vec(-1000i64..1000, 1..MAX_DIMS + 1),
            b in proptest::collection::vec(-1000i64..1000, MAX_DIMS),
        ) {
            let nd = a.len();
            let b = &b[..nd];
            let p = Padded { nd };
            let (ka, kb) = (p.pack(&a).unwrap(), p.pack(b).unwrap());
            prop_assert_eq!(ka.cmp(&kb), a.as_slice().cmp(b));
            let offset: Vec<i64> = a.iter().zip(b).map(|(a, b)| b - a).collect();
            prop_assert_eq!(ka.offset_by(p.delta(&offset)), kb);
            let mut back = vec![0; nd];
            p.unpack(kb, &mut back);
            prop_assert_eq!(back.as_slice(), b);
        }
    }

    /// File `keys` in order and hold every answer against an ordered map.
    fn assert_table_models_a_map<K: CellKey + std::fmt::Debug>(keys: impl Iterator<Item = K>) {
        let mut table = KeySlots::with_room_for(0);
        let mut model: BTreeMap<K, usize> = BTreeMap::new();
        for key in keys {
            assert_eq!(table.get(key), model.get(&key).copied());
            let next = model.len();
            let want = *model.entry(key).or_insert(next);
            assert_eq!(table.slot_of(key), want, "{key:?}");
            assert_eq!(table.len, model.len());
            assert_eq!(table.get(key), Some(want));
        }
        assert!(table.entries.len() >= 4 * KeySlots::<K>::INITIAL_ENTRIES, "grew at least twice");
        assert_eq!(table.into_sorted(), model.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn the_table_models_an_ordered_map_across_growth() {
        // Both ends of the type and the filler value, their neighbours;
        // then enough distinct keys — spread by a multiplier so probe runs
        // collide and wrap — to double the table more than twice, each
        // filed twice; then a dense run.
        let edges = [0, u64::MAX, 1, u64::MAX - 1, 0, 1 << 63, u64::MAX];
        let spread = (0..3_000u64).map(|i| i.wrapping_mul(0x1234_5678_9abc_def1));
        let dense = 10_000..10_080u64;
        let keys = edges.into_iter().chain(spread.clone()).chain(dense).chain(spread);
        assert_table_models_a_map(keys.clone());
        // The same keys, padded: spread over two coordinates.
        assert_table_models_a_map(keys.map(|k| {
            let mut key = [0; MAX_DIMS];
            (key[0], key[2]) = ((k >> 40).cast_signed() - 9, k.cast_signed());
            key
        }));
        let fresh = KeySlots::<u64>::with_room_for(0);
        assert_eq!((fresh.get(0), fresh.len), (None, 0), "the filler is not a held key");
        assert_eq!(fresh.into_sorted(), vec![]);
        // Sized up front, it never grows.
        let mut sized = KeySlots::with_room_for(5_000);
        let before = sized.entries.len();
        (0..5_000u64).for_each(|k| assert_eq!(sized.slot_of(k * 7), k as usize));
        assert_eq!(sized.entries.len(), before);
    }
}
