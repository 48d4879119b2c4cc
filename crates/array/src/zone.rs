//! Per-chunk zone maps: the scan layer's pruning metadata.
//!
//! A [`ZoneMap`] rides on every [`Chunk`](crate::chunk::Chunk) and
//! summarizes the chunk's **live** cells: a min/max bounding box per
//! dimension plus per-attribute statistics (min/max for numeric columns,
//! NaN counts for floats, distinct counts for dictionary columns). Query
//! operators consult it to skip whole chunks whose summary *refutes* a
//! region or predicate before the payload is touched.
//!
//! # Invariants
//!
//! The zone map is **conservative**: it always covers at least the live
//! cells of its chunk. Concretely:
//!
//! * **Fresh builds are tight.** `gather_cells`, `push_cells`, and
//!   `compact` compute the map canonically from the surviving rows, so a
//!   freshly built or freshly compacted chunk has an exact summary. The
//!   builder folds each buffer right where it is written, through the
//!   typed folds below (`DimZone::of_cells`, `AttrZone::of_column`);
//!   [`ZoneMap::compute`] — one `observe` per value — is the definition
//!   they are held equal to.
//! * **Appends merge.** Merging two canonical maps equals the canonical
//!   map of the union (min/max folds are order-independent under a total
//!   order), so incrementally grown chunks match batch-built ones —
//!   zone maps participate in `Chunk`'s derived `PartialEq`, and the
//!   differential suites' structural-equality checks enforce this
//!   path-independence.
//! * **Retractions leave the map stale-but-conservative.** Tombstoning a
//!   row never shrinks the box — shrinking would require a rescan — so a
//!   heavily retracted chunk may carry a loose summary. That is safe
//!   (pruning only ever *skips* chunks the map refutes; a loose map just
//!   prunes less) and `compact` restores tightness when tombstones are
//!   collected.
//! * **Serialized with the chunk.** The durability codecs carry the map
//!   verbatim, so recovery neither rescans payloads nor loses pruning
//!   power, and the codec-idempotence tests cover it.
//!
//! Numeric folds use [`f64::total_cmp`] so `-0.0`/`0.0` resolve
//! deterministically; NaN cells are **counted, not folded** — a column of
//! NaNs has an empty (refute-everything) value range plus a nonzero
//! `nans` count, which keeps range pruning sound because no ordered
//! comparison matches NaN anyway.

use crate::coords::Region;
use crate::value::AttributeColumn;
use crate::ScalarValue;

/// Live-cell bounds for one dimension. An empty chunk is represented by
/// the inverted range `min > max`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DimZone {
    /// Smallest live coordinate observed on this dimension.
    pub min: i64,
    /// Largest live coordinate observed on this dimension.
    pub max: i64,
}

impl DimZone {
    /// The empty (inverted) range.
    pub fn empty() -> Self {
        DimZone { min: i64::MAX, max: i64::MIN }
    }

    /// True when no coordinate has been observed.
    pub fn is_empty(&self) -> bool {
        self.min > self.max
    }

    pub(crate) fn observe(&mut self, v: i64) {
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// The bounds of `cells` on each of their `ND` dimensions — what
    /// [`DimZone::observe`] folds one coordinate at a time, as `ND`
    /// independent min/max lanes over fixed-size cells.
    pub(crate) fn of_cells<const ND: usize>(cells: &[[i64; ND]]) -> [DimZone; ND] {
        let mut zones = [DimZone::empty(); ND];
        for cell in cells {
            for (zone, &c) in zones.iter_mut().zip(cell) {
                zone.observe(c);
            }
        }
        zones
    }

    fn merge(&mut self, other: &DimZone) {
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Per-attribute zone statistics, shaped by the column's type.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrZone {
    /// Integer-valued columns (`int32`, `int64`, `char`): exact min/max.
    /// Empty is the inverted range `min > max`.
    Int {
        /// Smallest live value.
        min: i64,
        /// Largest live value.
        max: i64,
    },
    /// Floating-point columns (`float`, `double`): min/max over the
    /// non-NaN values (folded with `total_cmp`, so `-0.0 < 0.0`), plus a
    /// count of NaN cells. Empty is `min = +inf, max = -inf`.
    Real {
        /// Smallest live non-NaN value.
        min: f64,
        /// Largest live non-NaN value.
        max: f64,
        /// Number of NaN cells observed.
        nans: u64,
    },
    /// String columns: the dictionary's cardinality. Valid codes are
    /// exactly `0..distinct`, so this doubles as the code range;
    /// membership itself is answered by probing the dictionary, which
    /// the scan layer does per chunk.
    Dict {
        /// Number of distinct strings in the chunk dictionary.
        distinct: u32,
    },
}

impl AttrZone {
    /// The empty zone for a column's type.
    fn empty_for(col: &AttributeColumn) -> Self {
        match col {
            AttributeColumn::Int32(_) | AttributeColumn::Int64(_) | AttributeColumn::Char(_) => {
                AttrZone::Int { min: i64::MAX, max: i64::MIN }
            }
            AttributeColumn::Float(_) | AttributeColumn::Double(_) => {
                AttrZone::Real { min: f64::INFINITY, max: f64::NEG_INFINITY, nans: 0 }
            }
            AttributeColumn::Dict(d) => AttrZone::Dict { distinct: d.dict().distinct() },
        }
    }

    /// The canonical zone of a tombstone-free column — what one
    /// [`AttrZone::observe_i64`] / [`AttrZone::observe_f64`] per value
    /// gives — as one typed, branch-free loop. The chunk builder calls
    /// this on each column right after gathering it, while the column is
    /// in cache.
    pub(crate) fn of_column(col: &AttributeColumn) -> Self {
        /// Integers fold at their own width and widen once at the end.
        /// An empty column is the empty zone, not the width's extremes.
        fn int<T: Copy + Ord + Into<i64>>(values: &[T]) -> AttrZone {
            let Some(&first) = values.first() else {
                return AttrZone::Int { min: i64::MAX, max: i64::MIN };
            };
            let (min, max) =
                values.iter().fold((first, first), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            AttrZone::Int { min: min.into(), max: max.into() }
        }
        // Floats fold as the signed integers that order the way
        // `total_cmp` does — the bits, a negative's magnitude flipped (the
        // transform `total_cmp` itself applies, and its own inverse) — so
        // `-0.0 < 0.0` and the seeds are the very `±inf` bit patterns
        // `observe_f64` starts from. A NaN stands in as each side's seed:
        // it moves neither bound, and is counted. `f32 → f64` is exact
        // and keeps the order, so a `float` column folds at `f32` width
        // and widens its two extrema.
        macro_rules! real {
            ($values:expr, $float:ty, $bits:ty) => {{
                let flip = |bits: $bits| bits ^ ((bits >> (<$bits>::BITS - 1)) & <$bits>::MAX);
                let key = |x: $float| flip(x.to_bits() as $bits);
                let (seed_min, seed_max) = (key(<$float>::INFINITY), key(<$float>::NEG_INFINITY));
                let (mut lo, mut hi, mut nans) = (seed_min, seed_max, 0u64);
                for &x in $values {
                    let nan = x.is_nan();
                    lo = lo.min(if nan { seed_min } else { key(x) });
                    hi = hi.max(if nan { seed_max } else { key(x) });
                    nans += u64::from(nan);
                }
                let value = |key: $bits| f64::from(<$float>::from_bits(flip(key) as _));
                AttrZone::Real { min: value(lo), max: value(hi), nans }
            }};
        }
        match col {
            AttributeColumn::Int32(v) => int(v),
            AttributeColumn::Int64(v) => int(v),
            AttributeColumn::Char(v) => int(v),
            AttributeColumn::Float(v) => real!(v, f32, i32),
            AttributeColumn::Double(v) => real!(v, f64, i64),
            AttributeColumn::Dict(_) => AttrZone::empty_for(col),
        }
    }

    fn observe_i64(&mut self, v: i64) {
        if let AttrZone::Int { min, max } = self {
            *min = (*min).min(v);
            *max = (*max).max(v);
        } else {
            debug_assert!(false, "integer value observed by non-Int zone");
        }
    }

    fn observe_f64(&mut self, v: f64) {
        if let AttrZone::Real { min, max, nans } = self {
            if v.is_nan() {
                *nans += 1;
            } else {
                if v.total_cmp(min).is_lt() {
                    *min = v;
                }
                if v.total_cmp(max).is_gt() {
                    *max = v;
                }
            }
        } else {
            debug_assert!(false, "float value observed by non-Real zone");
        }
    }

    fn merge(&mut self, other: &AttrZone) {
        match (self, other) {
            (AttrZone::Int { min, max }, AttrZone::Int { min: omin, max: omax }) => {
                *min = (*min).min(*omin);
                *max = (*max).max(*omax);
            }
            (
                AttrZone::Real { min, max, nans },
                AttrZone::Real { min: omin, max: omax, nans: onans },
            ) => {
                if omin.total_cmp(min).is_lt() {
                    *min = *omin;
                }
                if omax.total_cmp(max).is_gt() {
                    *max = *omax;
                }
                *nans += *onans;
            }
            // A merged dictionary's size is re-read from the merged column
            // by `sync_strings`: the union's cardinality is not a sum.
            _ => {}
        }
    }
}

/// Zone map for one chunk: per-dimension bounds plus per-attribute stats,
/// in schema order. See the module docs for the invariants.
#[derive(Debug, Clone, PartialEq)]
pub struct ZoneMap {
    dims: Vec<DimZone>,
    attrs: Vec<AttrZone>,
}

impl ZoneMap {
    /// The empty map shaped for `ndims` dimensions and the given columns.
    pub(crate) fn empty_for(ndims: usize, columns: &[AttributeColumn]) -> Self {
        ZoneMap {
            dims: vec![DimZone::empty(); ndims],
            attrs: columns.iter().map(AttrZone::empty_for).collect(),
        }
    }

    /// Canonical map of a tombstone-free chunk state, by definition: one
    /// `observe` per coordinate and per value. [`Chunk::compact`] rebuilds
    /// through it; the chunk builder's fused folds (`set_dims`,
    /// `set_attr`) are held equal to it, bit for bit, by the property
    /// suite.
    ///
    /// [`Chunk::compact`]: crate::Chunk::compact
    pub fn compute(ndims: usize, flat_coords: &[i64], columns: &[AttributeColumn]) -> Self {
        let mut zone = ZoneMap::empty_for(ndims, columns);
        if ndims > 0 {
            for row in flat_coords.chunks_exact(ndims) {
                for (d, &c) in row.iter().enumerate() {
                    zone.dims[d].observe(c);
                }
            }
        }
        for (zone, col) in zone.attrs.iter_mut().zip(columns) {
            match col {
                AttributeColumn::Int32(v) => v.iter().for_each(|&x| zone.observe_i64(i64::from(x))),
                AttributeColumn::Int64(v) => v.iter().for_each(|&x| zone.observe_i64(x)),
                AttributeColumn::Char(v) => v.iter().for_each(|&x| zone.observe_i64(i64::from(x))),
                AttributeColumn::Float(v) => v.iter().for_each(|&x| zone.observe_f64(f64::from(x))),
                AttributeColumn::Double(v) => v.iter().for_each(|&x| zone.observe_f64(x)),
                // A dictionary's summary is its cardinality (`empty_for`
                // above) and needs no per-row fold.
                AttributeColumn::Dict(_) => {}
            }
        }
        zone
    }

    /// The chunk builder's door for the bounding box: the bounds of the
    /// coordinate buffer it has just collected.
    pub(crate) fn set_dims(&mut self, dims: &[DimZone]) {
        self.dims.copy_from_slice(dims);
    }

    /// The chunk builder's door for one attribute: the canonical zone of
    /// the column it has just gathered ([`AttrZone::of_column`]).
    pub(crate) fn set_attr(&mut self, attr: usize, col: &AttributeColumn) {
        self.attrs[attr] = AttrZone::of_column(col);
    }

    /// Fold one incoming cell (coordinates + schema-order values) into
    /// the map. String values are skipped here; callers follow up with
    /// [`ZoneMap::sync_strings`] after the row lands, because only the
    /// column knows whether the string was a new dictionary entry.
    pub(crate) fn observe_cell(&mut self, cell: &[i64], values: &[ScalarValue]) {
        debug_assert_eq!(cell.len(), self.dims.len());
        debug_assert_eq!(values.len(), self.attrs.len());
        for (zone, &c) in self.dims.iter_mut().zip(cell) {
            zone.observe(c);
        }
        for (zone, value) in self.attrs.iter_mut().zip(values) {
            match value {
                ScalarValue::Int32(v) => zone.observe_i64(i64::from(*v)),
                ScalarValue::Int64(v) => zone.observe_i64(*v),
                ScalarValue::Char(v) => zone.observe_i64(i64::from(*v)),
                ScalarValue::Float(v) => zone.observe_f64(f64::from(*v)),
                ScalarValue::Double(v) => zone.observe_f64(*v),
                ScalarValue::Str(_) => {}
            }
        }
    }

    /// Merge another chunk's map into this one (numeric dimensions and
    /// attributes only). Callers follow up with [`ZoneMap::sync_strings`]
    /// on the merged columns, since two dictionaries can share entries.
    pub(crate) fn merge(&mut self, other: &ZoneMap) {
        debug_assert_eq!(self.dims.len(), other.dims.len());
        debug_assert_eq!(self.attrs.len(), other.attrs.len());
        for (zone, ozone) in self.dims.iter_mut().zip(&other.dims) {
            zone.merge(ozone);
        }
        for (zone, ozone) in self.attrs.iter_mut().zip(&other.attrs) {
            zone.merge(ozone);
        }
    }

    /// Refresh the string-column summaries from the columns: a push or
    /// an append moves a dictionary's cardinality.
    pub(crate) fn sync_strings(&mut self, columns: &[AttributeColumn]) {
        debug_assert_eq!(self.attrs.len(), columns.len());
        for (zone, col) in self.attrs.iter_mut().zip(columns) {
            if let AttributeColumn::Dict(d) = col {
                *zone = AttrZone::Dict { distinct: d.dict().distinct() }
            }
        }
    }

    /// Per-dimension bounds, in schema order.
    pub fn dims(&self) -> &[DimZone] {
        &self.dims
    }

    /// Per-attribute statistics, in schema order.
    pub fn attrs(&self) -> &[AttrZone] {
        &self.attrs
    }

    /// The statistics for attribute `idx`, if in range.
    pub fn attr(&self, idx: usize) -> Option<&AttrZone> {
        self.attrs.get(idx)
    }

    /// True when no cell has ever been observed (every dimension range is
    /// inverted). Note the converse does not hold after retractions: a
    /// chunk whose live cells were all tombstoned keeps a non-empty map.
    pub fn is_empty(&self) -> bool {
        self.dims.iter().all(DimZone::is_empty)
    }

    /// True when the bounding box provably misses `region`: some
    /// dimension's live range and the region's range are disjoint. A
    /// refuted chunk contains no live cell inside the region (the box
    /// covers all live cells), so scans may skip it without changing any
    /// answer. `region` must have the map's arity.
    pub fn refutes_region(&self, region: &Region) -> bool {
        debug_assert_eq!(region.ndims(), self.dims.len());
        self.dims
            .iter()
            .zip(region.low.iter().zip(&region.high))
            .any(|(z, (&lo, &hi))| z.is_empty() || z.max < lo || z.min > hi)
    }

    /// True when the bounding box lies entirely inside `region` **on
    /// dimension `d`** — every live cell passes that dimension's range
    /// test, so a scan may skip it. Sound even when the box is stale:
    /// stale boxes are supersets of the live cells.
    pub fn dim_within(&self, d: usize, low: i64, high: i64) -> bool {
        let z = &self.dims[d];
        !z.is_empty() && z.min >= low && z.max <= high
    }
}

// ---------------------------------------------------------------------
// Durable codec (see crates/durability): length-prefixed dims + tagged
// attrs, appended to the chunk codec so checkpointed payloads keep their
// pruning power across recovery.
// ---------------------------------------------------------------------

use durability::{ByteReader, ByteWriter, CodecError};

const TAG_INT: u8 = 0;
const TAG_REAL: u8 = 1;
const TAG_DICT: u8 = 2;
// Tag 3 is never reused: a plain string column's zone under it must stay
// refused.

impl ZoneMap {
    /// Serialize the map.
    pub fn encode_into(&self, w: &mut ByteWriter) {
        w.put_list(&self.dims, |w, d| {
            w.put_i64(d.min);
            w.put_i64(d.max);
        });
        w.put_list(&self.attrs, |w, a| match a {
            AttrZone::Int { min, max } => {
                w.put_u8(TAG_INT);
                w.put_i64(*min);
                w.put_i64(*max);
            }
            AttrZone::Real { min, max, nans } => {
                w.put_u8(TAG_REAL);
                w.put_f64(*min);
                w.put_f64(*max);
                w.put_u64(*nans);
            }
            AttrZone::Dict { distinct } => {
                w.put_u8(TAG_DICT);
                w.put_u32(*distinct);
            }
        });
    }

    /// Decode a map written by [`ZoneMap::encode_into`].
    pub fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let dims = r.list("zone map dim count", 16, |r| {
            let min = r.i64("zone map dim min")?;
            let max = r.i64("zone map dim max")?;
            Ok(DimZone { min, max })
        })?;
        let attrs = r.list("zone map attr count", 1, |r| {
            Ok(match r.u8("zone map attr tag")? {
                TAG_INT => {
                    let min = r.i64("zone map int min")?;
                    let max = r.i64("zone map int max")?;
                    AttrZone::Int { min, max }
                }
                TAG_REAL => {
                    let min = r.f64("zone map real min")?;
                    let max = r.f64("zone map real max")?;
                    let nans = r.u64("zone map nan count")?;
                    AttrZone::Real { min, max, nans }
                }
                TAG_DICT => AttrZone::Dict { distinct: r.u32("zone map dict distinct")? },
                other => {
                    let detail = format!("unknown tag {other}");
                    return Err(CodecError::invalid("zone map attr tag", detail));
                }
            })
        })?;
        Ok(ZoneMap { dims, attrs })
    }

    /// The chunk decoder's check of a stored map against `exact`, what
    /// [`ZoneMap::compute`] gives the chunk's rows: the same shape, and
    /// covering it on every dimension and numeric attribute. A stale map
    /// may be wider (a retraction never shrinks it), never narrower:
    /// pruning by a narrower one could skip a live cell.
    pub(crate) fn check_covers(&self, exact: &ZoneMap) -> Result<(), String> {
        let (zones, dims) = (self.dims.len(), exact.dims.len());
        if zones != dims {
            return Err(format!("{zones} dim zones for {dims} dimensions"));
        }
        if self.attrs.len() != exact.attrs.len() {
            let (zones, columns) = (self.attrs.len(), exact.attrs.len());
            return Err(format!("{zones} attr zones for {columns} columns"));
        }
        let narrow = |(s, e): (&DimZone, &DimZone)| s.min > e.min || s.max < e.max;
        if let Some(d) = self.dims.iter().zip(&exact.dims).position(narrow) {
            return Err(format!("dim zone {d} is narrower than its cells"));
        }
        for (i, zone) in self.attrs.iter().zip(&exact.attrs).enumerate() {
            let covers = match zone {
                (AttrZone::Int { min, max }, AttrZone::Int { min: lo, max: hi }) => {
                    min <= lo && max >= hi
                }
                (
                    AttrZone::Real { min, max, nans },
                    AttrZone::Real { min: lo, max: hi, nans: n },
                ) => min.total_cmp(lo).is_le() && max.total_cmp(hi).is_ge() && nans >= n,
                (AttrZone::Dict { distinct }, AttrZone::Dict { distinct: d }) => distinct == d,
                _ => return Err(format!("attr zone {i} does not match its column type")),
            };
            if !covers {
                return Err(format!("attr zone {i} does not cover its column"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zone_of(cols: &[AttributeColumn], coords: &[i64], nd: usize) -> ZoneMap {
        ZoneMap::compute(nd, coords, cols)
    }

    #[test]
    fn compute_folds_dims_and_attrs() {
        let cols = vec![
            AttributeColumn::Int64(vec![5, -3, 9]),
            AttributeColumn::Double(vec![1.5, f64::NAN, -0.5]),
        ];
        let z = zone_of(&cols, &[0, 10, 4, 2, 9, 7], 2);
        assert_eq!(z.dims(), &[DimZone { min: 0, max: 9 }, DimZone { min: 2, max: 10 }]);
        assert_eq!(z.attr(0), Some(&AttrZone::Int { min: -3, max: 9 }));
        assert_eq!(z.attr(1), Some(&AttrZone::Real { min: -0.5, max: 1.5, nans: 1 }));
    }

    #[test]
    fn signed_zero_folds_deterministically() {
        let cols = vec![AttributeColumn::Double(vec![0.0, -0.0])];
        let z = zone_of(&cols, &[0, 1], 1);
        let AttrZone::Real { min, max, nans } = z.attr(0).unwrap() else { panic!("real zone") };
        assert_eq!(min.to_bits(), (-0.0f64).to_bits());
        assert_eq!(max.to_bits(), 0.0f64.to_bits());
        assert_eq!(*nans, 0);
        // Observation order must not matter.
        let rev = zone_of(&[AttributeColumn::Double(vec![-0.0, 0.0])], &[0, 1], 1);
        assert_eq!(z, rev);
    }

    #[test]
    fn merge_of_canonical_maps_is_canonical_map_of_union() {
        let a = zone_of(&[AttributeColumn::Double(vec![1.0, f64::NAN])], &[3, 8], 1);
        let b = zone_of(&[AttributeColumn::Double(vec![-2.0, 5.0])], &[1, 6], 1);
        let mut merged = a.clone();
        merged.merge(&b);
        let union =
            zone_of(&[AttributeColumn::Double(vec![1.0, f64::NAN, -2.0, 5.0])], &[3, 8, 1, 6], 1);
        assert_eq!(merged, union);
    }

    #[test]
    fn empty_zone_refutes_everything() {
        let z = ZoneMap::empty_for(2, &[]);
        assert!(z.is_empty());
        assert!(z.refutes_region(&Region::new(vec![i64::MIN, i64::MIN], vec![i64::MAX, i64::MAX])));
    }

    #[test]
    fn region_refutation_is_per_dimension_disjointness() {
        let z = zone_of(&[], &[2, 5, 4, 9], 2);
        // Box is x in [2,4], y in [5,9].
        assert!(!z.refutes_region(&Region::new(vec![0, 0], vec![10, 10])));
        assert!(z.refutes_region(&Region::new(vec![5, 0], vec![10, 10])));
        assert!(z.refutes_region(&Region::new(vec![0, 0], vec![10, 4])));
        assert!(z.dim_within(0, 2, 4));
        assert!(!z.dim_within(0, 3, 10));
    }

    #[test]
    fn codec_round_trips_and_rejects_prefixes_and_bad_tags() {
        let cols = vec![
            AttributeColumn::Int32(vec![1, 2]),
            AttributeColumn::Double(vec![0.5, f64::NAN]),
            AttributeColumn::Dict(crate::value::DictColumn::from_parts(
                vec![0, 1],
                crate::value::StringDict::from_distinct(["a", "b"].into_iter()),
            )),
        ];
        let z = zone_of(&cols, &[0, 7], 1);
        let mut w = ByteWriter::new();
        z.encode_into(&mut w);
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        let back = ZoneMap::decode_from(&mut r).expect("round trip");
        r.finish("zone map").expect("fully consumed");
        assert_eq!(z, back);
        let mut w2 = ByteWriter::new();
        back.encode_into(&mut w2);
        assert_eq!(bytes, w2.into_bytes(), "codec not idempotent");

        for cut in (0..bytes.len()).step_by(3) {
            let mut r = ByteReader::new(&bytes[..cut]);
            let _ = ZoneMap::decode_from(&mut r).and_then(|_| r.finish("zone map")).unwrap_err();
        }

        let mut bad = bytes.clone();
        let real_tag = bytes.len() - (1 + 4) - (1 + 8 + 8 + 8);
        assert_eq!(bytes[real_tag], TAG_REAL);
        bad[real_tag] = 9; // corrupt the Real tag into an unknown one
        let mut r = ByteReader::new(&bad);
        assert!(ZoneMap::decode_from(&mut r).is_err());
    }

    #[test]
    fn validate_shape_rejects_mismatches() {
        let cols = vec![AttributeColumn::Int32(vec![1])];
        let z = ZoneMap::compute(1, &[0], &cols);
        assert!(z.check_covers(&ZoneMap::compute(1, &[0], &cols)).is_ok());
        assert!(z.check_covers(&ZoneMap::compute(2, &[0, 0], &cols)).is_err());
        assert!(z.check_covers(&ZoneMap::compute(1, &[0], &[])).is_err());
        let float_col = vec![AttributeColumn::Double(vec![1.0])];
        assert!(z.check_covers(&ZoneMap::compute(1, &[0], &float_col)).is_err());
    }

    /// A stale map may be wider than its cells, never narrower — on a
    /// dimension, an integer or float range, or a NaN count — and a
    /// dictionary's cardinality is exact.
    #[test]
    fn a_stored_map_must_cover_its_cells() {
        let cols = vec![
            AttributeColumn::Int64(vec![5, -3]),
            AttributeColumn::Double(vec![1.5, f64::NAN]),
            AttributeColumn::Dict(crate::value::DictColumn::from_parts(
                vec![0, 0],
                crate::value::StringDict::from_distinct(["a"].into_iter()),
            )),
        ];
        let exact = ZoneMap::compute(1, &[2, 7], &cols);
        assert_eq!(exact.check_covers(&exact), Ok(()));
        let mut wider = exact.clone();
        wider.dims[0].min = -1;
        wider.attrs[0] = AttrZone::Int { min: -3, max: 6 };
        wider.attrs[1] = AttrZone::Real { min: -0.0, max: 1.5, nans: 2 };
        assert_eq!(wider.check_covers(&exact), Ok(()));
        let narrower: [fn(&mut ZoneMap); 5] = [
            |z| z.dims[0].max = 6,
            |z| z.attrs[0] = AttrZone::Int { min: -2, max: 5 },
            |z| z.attrs[1] = AttrZone::Real { min: 1.5, max: 1.5, nans: 0 },
            |z| z.attrs[1] = AttrZone::Real { min: 1.5, max: 1.0, nans: 1 },
            |z| z.attrs[2] = AttrZone::Dict { distinct: 2 },
        ];
        for (i, narrow) in narrower.iter().enumerate() {
            let mut z = exact.clone();
            narrow(&mut z);
            assert!(z.check_covers(&exact).is_err(), "narrowing {i} accepted");
        }
    }
}
