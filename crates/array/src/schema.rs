//! Array schemas: named dimensions with chunk intervals plus typed attributes.
//!
//! A schema such as
//!
//! ```text
//! A<i:int32, j:float>[x=1:4,2, y=1:4,2]
//! ```
//!
//! declares a 4×4 array with 2×2 chunks and two attributes (paper, Fig. 1).
//! Unbounded dimensions (`time=0:*,1440`) grow with the data, which is how
//! the paper's no-overwrite stores expand monotonically.

use crate::error::{ArrayError, Result};
use crate::value::AttributeType;
use std::fmt;

/// One named dimension of an array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DimensionDef {
    /// Dimension name (`x`, `latitude`, ...).
    pub name: String,
    /// Inclusive lower bound of the coordinate range.
    pub start: i64,
    /// Inclusive upper bound, or `None` for an unbounded dimension
    /// (written `*` in schema text).
    pub end: Option<i64>,
    /// Chunk interval (stride): the length of a chunk along this dimension,
    /// in logical cells. Always ≥ 1.
    pub chunk_interval: i64,
}

impl DimensionDef {
    /// A bounded dimension `name=start:end,chunk_interval`.
    pub fn bounded(name: impl Into<String>, start: i64, end: i64, chunk_interval: i64) -> Self {
        DimensionDef { name: name.into(), start, end: Some(end), chunk_interval }
    }

    /// An unbounded dimension `name=start:*,chunk_interval`.
    pub fn unbounded(name: impl Into<String>, start: i64, chunk_interval: i64) -> Self {
        DimensionDef { name: name.into(), start, end: None, chunk_interval }
    }

    /// Chunk index that the cell coordinate `coord` falls into.
    ///
    /// Chunks are numbered from 0 at `start`; coordinates below `start`
    /// are rejected by validation before this is called, and for those
    /// this returns [`DimensionDef::try_chunk_index`]'s answer. Total
    /// for the rest: a coordinate below `start` gets the (negative)
    /// euclidean index, and an index that does not fit `i64` saturates.
    pub fn chunk_index(&self, coord: i64) -> i64 {
        self.try_chunk_index(coord).unwrap_or_else(|| {
            let q = (i128::from(coord) - i128::from(self.start))
                .div_euclid(i128::from(self.chunk_interval));
            q.clamp(i128::from(i64::MIN), i128::from(i64::MAX)) as i64
        })
    }

    /// The chunk index of a coordinate at or above `start`, or `None`
    /// when `coord` lies below `start` or the index does not fit `i64`
    /// (`x=-10:*,1` holds `i64::MAX`, whose index is 2^63 + 9).
    /// [`crate::chunk_of`] asks this; the batch grouping
    /// ([`crate::RowGroups`]) bounds-checks against
    /// `DimensionDef::last_indexable` and then runs the same division
    /// (`chunks_from_start`) with the parameters hoisted.
    #[inline]
    pub fn try_chunk_index(&self, coord: i64) -> Option<i64> {
        if coord < self.start {
            return None;
        }
        i64::try_from(chunks_from_start(self.start, self.chunk_interval, coord)).ok()
    }

    /// The largest coordinate [`DimensionDef::try_chunk_index`] answers
    /// for: the declared `end`, lowered to where the chunk index would
    /// leave `i64`. A batch bounds-checks every row against this once
    /// instead of checking every quotient.
    pub(crate) fn last_indexable(&self) -> i64 {
        let reach = i128::from(self.start)
            + (i128::from(i64::MAX) + 1) * i128::from(self.chunk_interval)
            - 1;
        let reach = i64::try_from(reach).unwrap_or(i64::MAX);
        self.end.map_or(reach, |end| end.min(reach))
    }

    /// The inclusive cell-coordinate range covered by chunk `idx`.
    /// The high end is clamped to the dimension bound when one exists,
    /// and both ends saturate at the ends of `i64`: the last chunk of
    /// `x=0:*,1000` ends at `i64::MAX`, 807 cells in, not past it.
    /// The inverse of [`DimensionDef::chunk_index`] wherever that does
    /// not saturate.
    pub fn chunk_range(&self, idx: i64) -> (i64, i64) {
        let lo = i128::from(self.start) + i128::from(idx) * i128::from(self.chunk_interval);
        let hi = lo + i128::from(self.chunk_interval) - 1;
        let sat = |v: i128| v.clamp(i128::from(i64::MIN), i128::from(i64::MAX)) as i64;
        (sat(lo), self.end.map_or(sat(hi), |end| sat(hi).min(end)))
    }

    /// The inclusive chunk-index band `(first, last)` outside which no
    /// chunk's [`DimensionDef::chunk_range`] meets the coordinate
    /// interval `[low, high]` — how a scan turns a region into the run
    /// of chunks to seek, from the same division the chunk build files
    /// cells by. Both ends of a chunk's range grow with its index, so a
    /// range starts at or below `high` exactly up to `chunk_index(high)`
    /// and ends at or above `low` exactly from `chunk_index(low)`.
    /// `first > last` when nothing can meet it. A range that saturated
    /// onto an end of `i64` touches that bound itself, so the band stays
    /// open there.
    pub fn chunk_band(&self, low: i64, high: i64) -> (i64, i64) {
        let first = if low == i64::MIN { i64::MIN } else { self.chunk_index(low) };
        let last = if high == i64::MAX { i64::MAX } else { self.chunk_index(high) };
        (first, last)
    }

    /// Number of chunks along this dimension, when bounded.
    pub fn chunk_count(&self) -> Option<i64> {
        self.end.map(|end| (end - self.start) / self.chunk_interval + 1)
    }

    /// True when `coord` lies inside the declared range.
    pub fn contains(&self, coord: i64) -> bool {
        coord >= self.start && self.end.is_none_or(|end| coord <= end)
    }
}

/// How many whole chunks of `interval` cells lie between `start` and a
/// coordinate at or above it — the chunk index, before it is known to fit
/// `i64`. `coord - start` can exceed `i64::MAX` (start = -10, coord =
/// `i64::MAX`) but never `u64::MAX`: subtract wrapping, read the
/// difference unsigned.
#[inline]
pub(crate) fn chunks_from_start(start: i64, interval: i64, coord: i64) -> u64 {
    debug_assert!(coord >= start && interval >= 1);
    coord.wrapping_sub(start) as u64 / interval as u64
}

impl fmt::Display for DimensionDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.end {
            Some(end) => write!(f, "{}={}:{},{}", self.name, self.start, end, self.chunk_interval),
            None => write!(f, "{}={}:*,{}", self.name, self.start, self.chunk_interval),
        }
    }
}

/// One named, typed attribute of an array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttributeDef {
    /// Attribute name.
    pub name: String,
    /// Scalar type.
    pub ty: AttributeType,
}

impl AttributeDef {
    /// Construct an attribute definition.
    pub fn new(name: impl Into<String>, ty: AttributeType) -> Self {
        AttributeDef { name: name.into(), ty }
    }
}

impl fmt::Display for AttributeDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.name, self.ty)
    }
}

/// A complete array schema: name, attributes, and dimensions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArraySchema {
    /// Array name.
    pub name: String,
    /// Attribute declarations, in storage order.
    pub attributes: Vec<AttributeDef>,
    /// Dimension declarations, in coordinate order.
    pub dimensions: Vec<DimensionDef>,
}

impl ArraySchema {
    /// Build and validate a schema.
    pub fn new(
        name: impl Into<String>,
        attributes: Vec<AttributeDef>,
        dimensions: Vec<DimensionDef>,
    ) -> Result<Self> {
        let schema = ArraySchema { name: name.into(), attributes, dimensions };
        schema.validate()?;
        Ok(schema)
    }

    fn validate(&self) -> Result<()> {
        if self.name.is_empty() {
            return Err(ArrayError::InvalidSchema("array name is empty".into()));
        }
        if self.dimensions.is_empty() {
            return Err(ArrayError::InvalidSchema("at least one dimension required".into()));
        }
        if self.dimensions.len() > crate::coords::MAX_DIMS {
            return Err(ArrayError::InvalidSchema(format!(
                "at most {} dimensions supported, got {}",
                crate::coords::MAX_DIMS,
                self.dimensions.len()
            )));
        }
        if self.attributes.is_empty() {
            return Err(ArrayError::InvalidSchema("at least one attribute required".into()));
        }
        let mut names: Vec<&str> = self
            .dimensions
            .iter()
            .map(|d| d.name.as_str())
            .chain(self.attributes.iter().map(|a| a.name.as_str()))
            .collect();
        names.sort_unstable();
        if names.windows(2).any(|w| w[0] == w[1]) {
            return Err(ArrayError::InvalidSchema("duplicate dimension/attribute name".into()));
        }
        for dim in &self.dimensions {
            if dim.chunk_interval < 1 {
                return Err(ArrayError::InvalidSchema(format!(
                    "dimension `{}` has non-positive chunk interval",
                    dim.name
                )));
            }
            if let Some(end) = dim.end {
                if end < dim.start {
                    return Err(ArrayError::InvalidSchema(format!(
                        "dimension `{}` has end < start",
                        dim.name
                    )));
                }
            }
        }
        Ok(())
    }

    /// Number of dimensions.
    pub fn ndims(&self) -> usize {
        self.dimensions.len()
    }

    /// Position of the named dimension.
    pub fn dimension_index(&self, name: &str) -> Result<usize> {
        self.dimensions
            .iter()
            .position(|d| d.name == name)
            .ok_or_else(|| ArrayError::UnknownName(name.to_string()))
    }

    /// Position of the named attribute.
    pub fn attribute_index(&self, name: &str) -> Result<usize> {
        self.attributes
            .iter()
            .position(|a| a.name == name)
            .ok_or_else(|| ArrayError::UnknownName(name.to_string()))
    }

    /// Bytes one cell occupies across all attribute columns (fixed-width
    /// estimate; used for synthetic sizing, not for materialized chunks).
    pub fn estimated_cell_bytes(&self) -> u64 {
        self.attributes.iter().map(|a| a.ty.fixed_width() as u64).sum()
    }

    /// Total number of chunk positions in the declared space, when every
    /// dimension is bounded.
    pub fn total_chunk_positions(&self) -> Option<u64> {
        self.dimensions
            .iter()
            .map(|d| d.chunk_count().map(|c| c as u64))
            .try_fold(1u64, |acc, c| c.map(|c| acc * c))
    }

    /// Parse a SciDB-style schema string, e.g.
    /// `A<i:int32,j:float>[x=1:4,2, y=1:4,2]`.
    pub fn parse(text: &str) -> Result<Self> {
        let text = text.trim();
        let lt = text.find('<').ok_or_else(|| parse_err("missing `<`"))?;
        let gt = text.find('>').ok_or_else(|| parse_err("missing `>`"))?;
        let lb = text.find('[').ok_or_else(|| parse_err("missing `[`"))?;
        let rb = text.rfind(']').ok_or_else(|| parse_err("missing `]`"))?;
        if !(lt < gt && gt < lb && lb < rb) {
            return Err(parse_err("malformed bracket structure"));
        }
        let name = text[..lt].trim();
        let attrs_text = &text[lt + 1..gt];
        let dims_text = &text[lb + 1..rb];

        let mut attributes = Vec::new();
        for part in attrs_text.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (aname, aty) =
                part.split_once(':').ok_or_else(|| parse_err("attribute missing `:`"))?;
            let ty = AttributeType::parse(aty.trim())
                .ok_or_else(|| parse_err(&format!("unknown type `{}`", aty.trim())))?;
            attributes.push(AttributeDef::new(aname.trim(), ty));
        }

        // Dimensions are `name=lo:hi,interval` separated by commas; the comma
        // inside each dimension (before the interval) means we must group
        // tokens in pairs.
        let mut dimensions = Vec::new();
        let tokens: Vec<&str> = dims_text.split(',').map(str::trim).collect();
        if !tokens.len().is_multiple_of(2) {
            return Err(parse_err("dimension list must be `name=lo:hi,interval` groups"));
        }
        for pair in tokens.chunks(2) {
            let (spec, interval) = (pair[0], pair[1]);
            let (dname, range) =
                spec.split_once('=').ok_or_else(|| parse_err("dimension missing `=`"))?;
            let (lo, hi) =
                range.split_once(':').ok_or_else(|| parse_err("dimension missing `:`"))?;
            let start: i64 =
                lo.trim().parse().map_err(|_| parse_err(&format!("bad bound `{lo}`")))?;
            let end = match hi.trim() {
                "*" => None,
                v => Some(v.parse::<i64>().map_err(|_| parse_err(&format!("bad bound `{v}`")))?),
            };
            let chunk_interval: i64 =
                interval.parse().map_err(|_| parse_err(&format!("bad interval `{interval}`")))?;
            dimensions.push(DimensionDef {
                name: dname.trim().to_string(),
                start,
                end,
                chunk_interval,
            });
        }

        ArraySchema::new(name, attributes, dimensions)
    }
}

fn parse_err(msg: &str) -> ArrayError {
    ArrayError::Parse(msg.to_string())
}

impl ArraySchema {
    /// Serialize structurally (not via the display text) into a durable
    /// payload.
    pub fn encode_into(&self, w: &mut durability::ByteWriter) {
        w.put_str(&self.name);
        w.put_list(&self.attributes, |w, a| {
            w.put_str(&a.name);
            w.put_str(a.ty.name());
        });
        w.put_list(&self.dimensions, |w, d| {
            w.put_str(&d.name);
            w.put_i64(d.start);
            match d.end {
                Some(end) => {
                    w.put_bool(true);
                    w.put_i64(end);
                }
                None => w.put_bool(false),
            }
            w.put_i64(d.chunk_interval);
        });
    }

    /// Decode a schema written by [`ArraySchema::encode_into`]. The
    /// decoded schema re-runs construction validation, so a corrupted
    /// payload cannot smuggle in an invalid shape.
    pub fn decode_from(
        r: &mut durability::ByteReader<'_>,
    ) -> std::result::Result<Self, durability::CodecError> {
        use durability::CodecError;
        let name = r.str("schema name")?;
        let attributes = r.list("schema attribute count", 8, |r| {
            let aname = r.str("attribute name")?;
            let ty_name = r.str("attribute type")?;
            // The encoder writes a type's canonical name: an alias `parse`
            // also takes (`int`) would not write back.
            let ty = AttributeType::parse(&ty_name).filter(|ty| ty.name() == ty_name);
            let detail = || format!("`{ty_name}` is no type's canonical name");
            let ty = ty.ok_or_else(|| CodecError::invalid("attribute type", detail()))?;
            Ok(AttributeDef::new(aname, ty))
        })?;
        let dimensions = r.list("schema dimension count", 4 + 8 + 1 + 8, |r| {
            let dname = r.str("dimension name")?;
            let start = r.i64("dimension start")?;
            let end = if r.bool("dimension bounded flag")? {
                Some(r.i64("dimension end")?)
            } else {
                None
            };
            let chunk_interval = r.i64("dimension chunk interval")?;
            Ok(DimensionDef { name: dname, start, end, chunk_interval })
        })?;
        ArraySchema::new(name, attributes, dimensions)
            .map_err(|e| CodecError::invalid("array schema", e.to_string()))
    }
}

impl fmt::Display for ArraySchema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}<", self.name)?;
        for (i, a) in self.attributes.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{a}")?;
        }
        f.write_str(">[")?;
        for (i, d) in self.dimensions.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{d}")?;
        }
        f.write_str("]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure1_schema() -> ArraySchema {
        ArraySchema::parse("A<i:int32, j:float>[x=1:4,2, y=1:4,2]").unwrap()
    }

    #[test]
    fn parses_figure1_example() {
        let s = figure1_schema();
        assert_eq!(s.name, "A");
        assert_eq!(s.attributes.len(), 2);
        assert_eq!(s.attributes[0].ty, AttributeType::Int32);
        assert_eq!(s.dimensions.len(), 2);
        assert_eq!(s.dimensions[0].chunk_interval, 2);
        assert_eq!(s.total_chunk_positions(), Some(4));
    }

    #[test]
    fn display_roundtrips() {
        let s = figure1_schema();
        let printed = s.to_string();
        let reparsed = ArraySchema::parse(&printed).unwrap();
        assert_eq!(s, reparsed);
    }

    #[test]
    fn parses_unbounded_time_dimension() {
        let s = ArraySchema::parse(
            "Band<si_value:int, radiance:double>[time=0:*,1440, longitude=-180:180,12, latitude=-90:90,12]",
        )
        .unwrap();
        assert_eq!(s.dimensions[0].end, None);
        assert_eq!(s.dimensions[1].chunk_count(), Some(31));
        assert_eq!(s.total_chunk_positions(), None);
    }

    #[test]
    fn chunk_index_and_range() {
        let d = DimensionDef::bounded("x", 1, 4, 2);
        assert_eq!(d.chunk_index(1), 0);
        assert_eq!(d.chunk_index(2), 0);
        assert_eq!(d.chunk_index(3), 1);
        assert_eq!(d.chunk_range(1), (3, 4));
        assert_eq!(d.chunk_count(), Some(2));
        let neg = DimensionDef::bounded("lon", -180, 180, 12);
        assert_eq!(neg.chunk_index(-180), 0);
        assert_eq!(neg.chunk_index(-169), 0);
        assert_eq!(neg.chunk_index(-168), 1);
        assert_eq!(neg.chunk_range(0), (-180, -169));
    }

    #[test]
    fn the_last_chunk_of_an_unbounded_dimension_ends_at_i64_max() {
        // Unchecked, `lo + interval - 1` wrapped: release answered an
        // empty range (so no region met the chunk), debug aborted.
        let d = DimensionDef::unbounded("x", 0, 1000);
        let last = d.chunk_index(i64::MAX);
        assert_eq!(last, i64::MAX / 1000);
        assert_eq!(d.chunk_range(last), (i64::MAX - 807, i64::MAX));
        assert_eq!(d.chunk_range(last - 1), (i64::MAX - 1807, i64::MAX - 808));
        // Indexes no coordinate files under saturate too.
        assert_eq!(d.chunk_range(i64::MAX), (i64::MAX, i64::MAX));
        assert_eq!(d.chunk_range(i64::MIN), (i64::MIN, i64::MIN));
        let low = DimensionDef::unbounded("x", i64::MIN, 10);
        assert_eq!(low.chunk_range(0), (i64::MIN, i64::MIN + 9));
        assert_eq!(low.chunk_index(i64::MIN + 10), 1);
        assert_eq!(low.chunk_band(i64::MIN + 3, i64::MIN + 25), (0, 2));
        assert_eq!(d.chunk_band(i64::MAX - 5, i64::MAX), (last, i64::MAX));
    }

    #[test]
    fn validation_rejects_bad_schemas() {
        assert!(ArraySchema::new(
            "",
            vec![AttributeDef::new("a", AttributeType::Int32)],
            vec![DimensionDef::bounded("x", 0, 1, 1)]
        )
        .is_err());
        assert!(ArraySchema::new("A", vec![], vec![DimensionDef::bounded("x", 0, 1, 1)]).is_err());
        assert!(ArraySchema::new("A", vec![AttributeDef::new("a", AttributeType::Int32)], vec![])
            .is_err());
        // zero chunk interval
        assert!(ArraySchema::new(
            "A",
            vec![AttributeDef::new("a", AttributeType::Int32)],
            vec![DimensionDef::bounded("x", 0, 1, 0)]
        )
        .is_err());
        // duplicate names across dims and attrs
        assert!(ArraySchema::new(
            "A",
            vec![AttributeDef::new("x", AttributeType::Int32)],
            vec![DimensionDef::bounded("x", 0, 1, 1)]
        )
        .is_err());
        // inverted range
        assert!(ArraySchema::new(
            "A",
            vec![AttributeDef::new("a", AttributeType::Int32)],
            vec![DimensionDef::bounded("x", 5, 2, 1)]
        )
        .is_err());
    }

    #[test]
    fn name_lookups() {
        let s = figure1_schema();
        assert_eq!(s.dimension_index("y").unwrap(), 1);
        assert_eq!(s.attribute_index("j").unwrap(), 1);
        assert!(s.dimension_index("z").is_err());
        assert!(s.attribute_index("z").is_err());
    }

    #[test]
    fn parse_rejects_malformed() {
        for bad in [
            "A[x=1:4,2]",          // missing attrs
            "A<i:int32>",          // missing dims
            "A<i:bogus>[x=1:4,2]", // unknown type
            "A<i:int32>[x=1:4]",   // missing interval
            "A<i:int32>[x=1,2]",   // missing range colon
            "A<iint32>[x=1:4,2]",  // missing attr colon
        ] {
            assert!(ArraySchema::parse(bad).is_err(), "{bad} should fail");
        }
    }
}
