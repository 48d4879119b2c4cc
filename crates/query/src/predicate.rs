//! Typed scan predicates: the filter language the vectorized scan layer
//! pushes down into chunks.
//!
//! A [`Predicate`] replaces the old opaque `Fn(f64) -> bool` closures:
//! being *data*, it can be
//!
//! * **type-checked** against the attribute's declared type up front
//!   (a numeric comparison over a string column is a typed
//!   [`QueryError::AttributeType`], never a silent skip);
//! * **refuted per chunk** against the zone map, skipping whole chunks
//!   whose value range provably misses the predicate;
//! * **compiled into code space** for dictionary-encoded string columns:
//!   equality/IN probe the chunk dictionary once and the row loop
//!   compares `u32` codes — matching rows are found without decoding a
//!   single string.
//!
//! NaN cells match no numeric predicate (every ordered comparison with
//! NaN is false, including `Eq`), which keeps zone-range refutation
//! sound: zone maps exclude NaNs from their min/max fold, and the rows
//! the fold excluded could never match anyway.

use crate::error::{require_type, Result, NUMERIC};
use array_model::{AttrZone, AttributeColumn, AttributeType, Chunk};

/// Comparison against a numeric attribute. Integer columns are widened
/// with the same `as f64` conversion the result-boundary accessors use,
/// so predicate answers agree bit-for-bit with row-at-a-time evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NumPred {
    /// `value < t`
    Lt(f64),
    /// `value <= t`
    Le(f64),
    /// `value > t`
    Gt(f64),
    /// `value >= t`
    Ge(f64),
    /// `value == t`
    Eq(f64),
    /// `lo <= value <= hi` (inclusive both ends)
    Between(f64, f64),
}

impl NumPred {
    /// Does `v` satisfy the comparison? NaN never matches.
    #[inline]
    pub fn matches(&self, v: f64) -> bool {
        match *self {
            NumPred::Lt(t) => v < t,
            NumPred::Le(t) => v <= t,
            NumPred::Gt(t) => v > t,
            NumPred::Ge(t) => v >= t,
            NumPred::Eq(t) => v == t,
            NumPred::Between(lo, hi) => v >= lo && v <= hi,
        }
    }

    /// Can any value in `[lo, hi]` satisfy the comparison? `false` means
    /// the whole range is refuted. `lo > hi` (an empty zone) refutes
    /// everything.
    fn range_may_match(&self, lo: f64, hi: f64) -> bool {
        // NaN bounds (incomparable) refute too, not just lo > hi.
        use std::cmp::Ordering;
        if !matches!(lo.partial_cmp(&hi), Some(Ordering::Less | Ordering::Equal)) {
            return false;
        }
        match *self {
            NumPred::Lt(t) => lo < t,
            NumPred::Le(t) => lo <= t,
            NumPred::Gt(t) => hi > t,
            NumPred::Ge(t) => hi >= t,
            NumPred::Eq(t) => t >= lo && t <= hi,
            NumPred::Between(a, b) => a <= b && hi >= a && lo <= b,
        }
    }
}

/// Comparison against a string attribute.
#[derive(Debug, Clone, PartialEq)]
pub enum StrPred {
    /// Exact match.
    Eq(String),
    /// Membership in a set.
    In(Vec<String>),
    /// `lo <= value <= hi` lexicographically (inclusive both ends).
    /// Dictionary codes are first-appearance ordered, **not**
    /// lexicographic, so range evaluation builds a per-chunk
    /// code-acceptance bitmap by scanning the dictionary entries once.
    Between(String, String),
}

impl StrPred {
    /// Does `s` satisfy the comparison?
    pub fn matches(&self, s: &str) -> bool {
        match self {
            StrPred::Eq(t) => s == t,
            StrPred::In(set) => set.iter().any(|t| t == s),
            StrPred::Between(lo, hi) => s >= lo.as_str() && s <= hi.as_str(),
        }
    }
}

/// A pushed-down scan predicate over one attribute.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Numeric comparison (int32/int64/float/double attributes).
    Num(NumPred),
    /// String comparison (string attributes).
    Str(StrPred),
}

impl Predicate {
    /// `value < t`
    pub fn lt(t: f64) -> Self {
        Predicate::Num(NumPred::Lt(t))
    }

    /// `value <= t`
    pub fn le(t: f64) -> Self {
        Predicate::Num(NumPred::Le(t))
    }

    /// `value > t`
    pub fn gt(t: f64) -> Self {
        Predicate::Num(NumPred::Gt(t))
    }

    /// `value >= t`
    pub fn ge(t: f64) -> Self {
        Predicate::Num(NumPred::Ge(t))
    }

    /// `value == t`
    pub fn eq_num(t: f64) -> Self {
        Predicate::Num(NumPred::Eq(t))
    }

    /// `lo <= value <= hi`, inclusive.
    pub fn between(lo: f64, hi: f64) -> Self {
        Predicate::Num(NumPred::Between(lo, hi))
    }

    /// String equality.
    pub fn str_eq(s: impl Into<String>) -> Self {
        Predicate::Str(StrPred::Eq(s.into()))
    }

    /// String set membership.
    pub fn str_in(set: impl IntoIterator<Item = impl Into<String>>) -> Self {
        Predicate::Str(StrPred::In(set.into_iter().map(Into::into).collect()))
    }

    /// Lexicographic string range, inclusive.
    pub fn str_between(lo: impl Into<String>, hi: impl Into<String>) -> Self {
        Predicate::Str(StrPred::Between(lo.into(), hi.into()))
    }

    /// Check the predicate against the attribute's declared type; a
    /// mismatch is a typed [`crate::QueryError::AttributeType`].
    pub fn check_type(&self, attribute: &str, ty: AttributeType) -> Result<()> {
        match self {
            Predicate::Num(_) => require_type(attribute, ty, "numeric", NUMERIC),
            Predicate::Str(_) => require_type(attribute, ty, "string", &[AttributeType::Str]),
        }
    }

    /// True when the chunk's zone map (plus, for dictionary columns, a
    /// dictionary probe) **proves** no live row of attribute `attr` can
    /// match, so the scan may skip the chunk entirely. `false` is always
    /// safe — pruning is an optimization, never a filter.
    pub fn refutes_chunk(&self, chunk: &Chunk, attr: usize) -> bool {
        let Some(zone) = chunk.zone().attr(attr) else { return false };
        match (self, zone) {
            (Predicate::Num(p), AttrZone::Int { min, max }) => {
                if min > max {
                    return true;
                }
                // Conservative i64 -> f64 widening: `as f64` rounds to
                // nearest beyond 2^53, possibly *into* the zone range, so
                // nudge each bound outward when the cast moved it inward.
                let (lo, hi) = (f64_at_or_below(*min), f64_at_or_above(*max));
                !p.range_may_match(lo, hi)
            }
            (Predicate::Num(p), AttrZone::Real { min, max, nans }) => {
                // NaNs never match, so only the folded range matters; a
                // chunk of pure NaNs has an empty range and is refuted
                // regardless of `nans`.
                let _ = nans;
                !p.range_may_match(*min, *max)
            }
            (Predicate::Str(p), AttrZone::Dict { .. }) => {
                let Some(dc) = chunk.column(attr).and_then(AttributeColumn::as_dict) else {
                    return false;
                };
                match p {
                    StrPred::Eq(s) => dc.dict().code_of(s).is_none(),
                    StrPred::In(set) => set.iter().all(|s| dc.dict().code_of(s).is_none()),
                    StrPred::Between(..) => dc.dict().iter().all(|s| !p.matches(s)),
                }
            }
            // Numeric zones under a string predicate (or vice versa) mean
            // the operator's type check was skipped — never refute on a
            // mismatch.
            _ => false,
        }
    }
}

/// Largest `f64` that is `<= v`: `v as f64` when the cast rounded down
/// or was exact, otherwise the next float below.
fn f64_at_or_below(v: i64) -> f64 {
    let f = v as f64;
    if f as i128 > i128::from(v) {
        next_float_down(f)
    } else {
        f
    }
}

/// Smallest `f64` that is `>= v`.
fn f64_at_or_above(v: i64) -> f64 {
    let f = v as f64;
    if (f as i128) < i128::from(v) {
        next_float_up(f)
    } else {
        f
    }
}

/// The next representable finite float below `f`. Only reached when an
/// `i64 -> f64` cast rounded, i.e. `|f| >= 2^53`, so zero/subnormal
/// corner cases cannot occur.
fn next_float_down(f: f64) -> f64 {
    debug_assert!(f.is_finite() && f.abs() >= 9.007_199_254_740_992e15);
    let bits = f.to_bits();
    f64::from_bits(if f > 0.0 { bits - 1 } else { bits + 1 })
}

/// The next representable finite float above `f`; same preconditions as
/// [`next_float_down`].
fn next_float_up(f: f64) -> f64 {
    debug_assert!(f.is_finite() && f.abs() >= 9.007_199_254_740_992e15);
    let bits = f.to_bits();
    f64::from_bits(if f > 0.0 { bits + 1 } else { bits - 1 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QueryError;
    use array_model::{ArraySchema, ChunkCoords, ScalarValue};

    #[test]
    fn nan_matches_no_numeric_predicate() {
        for p in [
            NumPred::Lt(1.0),
            NumPred::Le(1.0),
            NumPred::Gt(1.0),
            NumPred::Ge(1.0),
            NumPred::Eq(f64::NAN),
            NumPred::Between(f64::NEG_INFINITY, f64::INFINITY),
        ] {
            assert!(!p.matches(f64::NAN), "{p:?} matched NaN");
        }
    }

    #[test]
    fn range_refutation_is_sound_at_the_edges() {
        assert!(NumPred::Ge(5.0).range_may_match(1.0, 5.0));
        assert!(!NumPred::Gt(5.0).range_may_match(1.0, 5.0));
        assert!(NumPred::Le(1.0).range_may_match(1.0, 5.0));
        assert!(!NumPred::Lt(1.0).range_may_match(1.0, 5.0));
        assert!(NumPred::Eq(3.0).range_may_match(1.0, 5.0));
        assert!(!NumPred::Eq(6.0).range_may_match(1.0, 5.0));
        assert!(!NumPred::Between(6.0, 9.0).range_may_match(1.0, 5.0));
        // Empty zone range refutes everything.
        assert!(!NumPred::Ge(f64::NEG_INFINITY).range_may_match(f64::INFINITY, f64::NEG_INFINITY));
    }

    #[test]
    fn huge_int_bounds_widen_conservatively() {
        // 2^60 + 1 is not representable; `as f64` rounds to 2^60, which
        // sits *below* the true min — the at-or-below bound keeps it.
        let v = (1i64 << 60) + 1;
        assert!(f64_at_or_below(v) <= v as f64);
        assert!(f64_at_or_above(v) as i128 >= i128::from(v));
        // i64::MAX rounds *up* to 2^63; at-or-below must step under it.
        assert!((f64_at_or_below(i64::MAX) as i128) <= i128::from(i64::MAX));
        assert!(f64_at_or_above(i64::MIN) >= i64::MIN as f64);
        assert_eq!(f64_at_or_below(42), 42.0);
        assert_eq!(f64_at_or_above(-42), -42.0);
    }

    #[test]
    fn type_check_names_the_offender() {
        let p = Predicate::ge(1.0);
        assert!(p.check_type("v", AttributeType::Double).is_ok());
        let err = p.check_type("name", AttributeType::Str).unwrap_err();
        assert_eq!(
            err,
            QueryError::AttributeType {
                attribute: "name".into(),
                expected: "numeric",
                got: "string"
            }
        );
        assert!(Predicate::str_eq("x").check_type("name", AttributeType::Str).is_ok());
        assert!(Predicate::str_eq("x").check_type("v", AttributeType::Int32).is_err());
    }

    #[test]
    fn dict_probe_refutes_absent_strings_only() {
        let schema = ArraySchema::parse("A<tag:string>[x=0:9,10]").unwrap();
        let mut chunk = array_model::Chunk::new(&schema, ChunkCoords::new([0]));
        for (i, tag) in ["red", "green"].iter().enumerate() {
            chunk
                .push_cell(&schema, vec![i as i64], vec![ScalarValue::Str(tag.to_string())])
                .unwrap();
        }
        assert!(Predicate::str_eq("blue").refutes_chunk(&chunk, 0));
        assert!(!Predicate::str_eq("red").refutes_chunk(&chunk, 0));
        assert!(Predicate::str_in(["blue", "mauve"]).refutes_chunk(&chunk, 0));
        assert!(!Predicate::str_in(["blue", "green"]).refutes_chunk(&chunk, 0));
        // First-appearance codes are not lexicographic: the range probe
        // must scan entries, and "green" < "red" sits inside this range.
        assert!(!Predicate::str_between("a", "m").refutes_chunk(&chunk, 0));
        assert!(Predicate::str_between("s", "z").refutes_chunk(&chunk, 0));
    }

    #[test]
    fn numeric_zone_refutation_respects_nan_exclusion() {
        let schema = ArraySchema::parse("A<v:double>[x=0:9,10]").unwrap();
        let mut chunk = array_model::Chunk::new(&schema, ChunkCoords::new([0]));
        chunk.push_cell(&schema, vec![0], vec![ScalarValue::Double(f64::NAN)]).unwrap();
        chunk.push_cell(&schema, vec![1], vec![ScalarValue::Double(3.0)]).unwrap();
        // Range is [3,3]; the NaN row can never match, so refuting > 5 is sound.
        assert!(Predicate::gt(5.0).refutes_chunk(&chunk, 0));
        assert!(!Predicate::ge(3.0).refutes_chunk(&chunk, 0));
    }
}
