//! Cell and chunk coordinates, and the mappings between them.
//!
//! A *cell* lives at an n-dimensional coordinate in array space. A *chunk*
//! is an n-dimensional subarray identified by the vector of per-dimension
//! chunk indices (each `(coord - start) / chunk_interval`). Chunks are the
//! unit of I/O, placement, and movement throughout the system.
//!
//! [`ChunkCoords`] is stored **inline**: a fixed-capacity `[i64; MAX_DIMS]`
//! plus a length, so it is `Copy`, allocation-free, and cache-friendly —
//! the ingest hot path routes millions of chunks per workload cycle and
//! must not heap-allocate per coordinate touch.

use crate::error::{ArrayError, Result};
use crate::schema::ArraySchema;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::hash::{Hash, Hasher};

/// Coordinates of one cell in array space.
pub type CellCoords = Vec<i64>;

/// Maximum dimensionality of an array. Schemas beyond this are rejected at
/// construction; the paper's arrays use 1–3 dimensions.
pub const MAX_DIMS: usize = 8;

/// Identifier of a chunk: the per-dimension chunk indices, stored inline.
///
/// Ordered lexicographically (row-major), which gives the "insert order"
/// that the Append partitioner relies on when the first dimension is time.
/// Equality, ordering, and hashing consider only the first `ndims`
/// entries, exactly as the previous `Vec<i64>` representation did.
#[derive(Clone, Copy)]
pub struct ChunkCoords {
    len: u8,
    idx: [i64; MAX_DIMS],
}

// Serde wire contract: a `ChunkCoords` serializes as the plain `i64`
// sequence of its live indices — the same payload the old `Vec<i64>`
// representation produced — NOT as the `{len, idx}` struct (which would
// leak the inactive tail and, on deserialize, could smuggle in a length
// above `MAX_DIMS`). The in-tree serde is a marker stub, so these impls
// carry no methods today; when swapping in real serde, implement them
// via `serializer.collect_seq(self.iter())` and a seq visitor that
// rejects more than `MAX_DIMS` elements.
impl Serialize for ChunkCoords {}
impl<'de> Deserialize<'de> for ChunkCoords {}

impl ChunkCoords {
    /// Construct from raw indices. Accepts anything slice-like (`Vec`,
    /// arrays, slices). Panics if more than [`MAX_DIMS`] indices are given.
    pub fn new(indices: impl AsRef<[i64]>) -> Self {
        Self::from_slice(indices.as_ref())
    }

    /// Construct from a slice of indices without consuming a container.
    #[inline]
    pub fn from_slice(indices: &[i64]) -> Self {
        assert!(
            indices.len() <= MAX_DIMS,
            "chunk coordinates support at most {MAX_DIMS} dimensions, got {}",
            indices.len()
        );
        let mut idx = [0i64; MAX_DIMS];
        idx[..indices.len()].copy_from_slice(indices);
        ChunkCoords { len: indices.len() as u8, idx }
    }

    /// An all-zero coordinate of `ndims` dimensions.
    #[inline]
    pub fn zeros(ndims: usize) -> Self {
        assert!(ndims <= MAX_DIMS, "at most {MAX_DIMS} dimensions");
        ChunkCoords { len: ndims as u8, idx: [0i64; MAX_DIMS] }
    }

    /// Number of dimensions.
    #[inline]
    pub fn ndims(&self) -> usize {
        self.len as usize
    }

    /// The index along dimension `d`.
    #[inline]
    pub fn index(&self, d: usize) -> i64 {
        self.as_slice()[d]
    }

    /// The live indices as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[i64] {
        &self.idx[..self.len as usize]
    }

    /// The live indices as a mutable slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [i64] {
        &mut self.idx[..self.len as usize]
    }

    /// Iterate the indices.
    pub fn iter(&self) -> std::slice::Iter<'_, i64> {
        self.as_slice().iter()
    }

    /// Copy out as a `Vec` (compatibility with the old representation).
    pub fn to_vec(&self) -> Vec<i64> {
        self.as_slice().to_vec()
    }

    /// Visit all chunks at L∞ distance 1 (the 3^n − 1 surrounding chunks),
    /// clipped to non-negative indices and to the schema's bounds, without
    /// allocating.
    ///
    /// Spatial operators (windowed aggregates, kNN) exchange halo data with
    /// exactly these neighbours; placements that keep them on one node pay
    /// no network cost for that exchange.
    pub fn for_each_neighbor(&self, schema: &ArraySchema, mut visit: impl FnMut(ChunkCoords)) {
        let n = self.ndims();
        let mut offsets = [-1i64; MAX_DIMS];
        let offsets = &mut offsets[..n];
        loop {
            if offsets.iter().any(|&o| o != 0) {
                let mut cand = ChunkCoords::zeros(n);
                let mut ok = true;
                for (d, (slot, &off)) in
                    cand.as_mut_slice().iter_mut().zip(offsets.iter()).enumerate()
                {
                    let idx = self.idx[d] + off;
                    if idx < 0 {
                        ok = false;
                        break;
                    }
                    if let Some(count) = schema.dimensions[d].chunk_count() {
                        if idx >= count {
                            ok = false;
                            break;
                        }
                    }
                    *slot = idx;
                }
                if ok {
                    visit(cand);
                }
            }
            // advance odometer over {-1,0,1}^n
            let mut d = 0;
            loop {
                if d == n {
                    return;
                }
                offsets[d] += 1;
                if offsets[d] <= 1 {
                    break;
                }
                offsets[d] = -1;
                d += 1;
            }
        }
    }

    /// All chunks at L∞ distance 1, collected (see [`for_each_neighbor`]
    /// for the allocation-free form).
    ///
    /// [`for_each_neighbor`]: ChunkCoords::for_each_neighbor
    pub fn neighbors(&self, schema: &ArraySchema) -> Vec<ChunkCoords> {
        let mut out = Vec::new();
        self.for_each_neighbor(schema, |c| out.push(c));
        out
    }

    /// Chebyshev (L∞) distance between two chunk coordinates.
    pub fn chebyshev(&self, other: &ChunkCoords) -> i64 {
        self.iter().zip(other.iter()).map(|(a, b)| (a - b).abs()).max().unwrap_or(0)
    }
}

impl ChunkCoords {
    /// Serialize as the live index sequence (the same shape the serde
    /// contract above promises): a length byte plus `ndims` raw `i64`s.
    pub fn encode_into(&self, w: &mut durability::ByteWriter) {
        w.put_u8(self.len);
        for &v in self.as_slice() {
            w.put_i64(v);
        }
    }

    /// Decode coordinates written by [`ChunkCoords::encode_into`],
    /// rejecting lengths above [`MAX_DIMS`].
    pub fn decode_from(
        r: &mut durability::ByteReader<'_>,
    ) -> std::result::Result<Self, durability::CodecError> {
        let len = r.u8("chunk coord arity")?;
        if usize::from(len) > MAX_DIMS {
            let detail = format!("{len} exceeds MAX_DIMS {MAX_DIMS}");
            return Err(durability::CodecError::invalid("chunk coord arity", detail));
        }
        let mut out = ChunkCoords::zeros(usize::from(len));
        for slot in out.as_mut_slice() {
            *slot = r.i64("chunk coord index")?;
        }
        Ok(out)
    }
}

impl PartialEq for ChunkCoords {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for ChunkCoords {}

impl PartialOrd for ChunkCoords {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ChunkCoords {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Slice ordering is element-wise lexicographic with a length
        // tiebreak — identical to the old `Vec<i64>` ordering.
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for ChunkCoords {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Matches the old representation: `Vec<i64>` hashes as its slice.
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for ChunkCoords {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ChunkCoords({:?})", self.as_slice())
    }
}

impl std::ops::Index<usize> for ChunkCoords {
    type Output = i64;
    #[inline]
    fn index(&self, d: usize) -> &i64 {
        &self.as_slice()[d]
    }
}

impl std::ops::IndexMut<usize> for ChunkCoords {
    #[inline]
    fn index_mut(&mut self, d: usize) -> &mut i64 {
        &mut self.as_mut_slice()[d]
    }
}

impl<'a> IntoIterator for &'a ChunkCoords {
    type Item = &'a i64;
    type IntoIter = std::slice::Iter<'a, i64>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl fmt::Display for ChunkCoords {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("(")?;
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{v}")?;
        }
        f.write_str(")")
    }
}

/// Map a cell coordinate to the chunk containing it, validating bounds.
/// Allocation-free: the result is built inline.
pub fn chunk_of(schema: &ArraySchema, cell: &[i64]) -> Result<ChunkCoords> {
    if cell.len() != schema.ndims() {
        return Err(ArrayError::Arity { expected: schema.ndims(), got: cell.len() });
    }
    let mut out = ChunkCoords::zeros(cell.len());
    for (slot, (dim, &coord)) in
        out.as_mut_slice().iter_mut().zip(schema.dimensions.iter().zip(cell))
    {
        // In bounds and indexable: a chunk index past `i64` is as
        // unaddressable as a coordinate past `end`.
        *slot = dim.try_chunk_index(coord).filter(|_| dim.contains(coord)).ok_or_else(|| {
            ArrayError::OutOfBounds { dimension: dim.name.clone(), coordinate: coord }
        })?;
    }
    Ok(out)
}

/// An axis-aligned rectangular region of array space, in cell coordinates
/// (both bounds inclusive). Queries subset arrays with these.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Region {
    /// Inclusive lower corner, one entry per dimension.
    pub low: Vec<i64>,
    /// Inclusive upper corner, one entry per dimension.
    pub high: Vec<i64>,
}

impl Region {
    /// Build a region; panics if the corners disagree in arity.
    pub fn new(low: Vec<i64>, high: Vec<i64>) -> Self {
        assert_eq!(low.len(), high.len(), "region corners must share arity");
        Region { low, high }
    }

    /// The full declared space of a bounded schema.
    pub fn full(schema: &ArraySchema) -> Option<Region> {
        let mut low = Vec::new();
        let mut high = Vec::new();
        for d in &schema.dimensions {
            low.push(d.start);
            high.push(d.end?);
        }
        Some(Region { low, high })
    }

    /// Number of dimensions.
    pub fn ndims(&self) -> usize {
        self.low.len()
    }

    /// Does the region contain the cell coordinate?
    pub fn contains_cell(&self, cell: &[i64]) -> bool {
        cell.len() == self.ndims()
            && cell.iter().enumerate().all(|(d, &c)| c >= self.low[d] && c <= self.high[d])
    }

    /// Does the region intersect the given chunk of `schema`?
    pub fn intersects_chunk(&self, schema: &ArraySchema, chunk: &ChunkCoords) -> bool {
        schema.dimensions.iter().enumerate().all(|(d, dim)| {
            let (lo, hi) = dim.chunk_range(chunk.index(d));
            lo <= self.high[d] && hi >= self.low[d]
        })
    }

    /// The box of chunk positions — inclusive `(first, last)` corners,
    /// one [`DimensionDef::chunk_band`] per dimension — that holds every
    /// chunk [`Region::intersects_chunk`] accepts. Empty (some `first`
    /// index above its `last`) when no chunk can. Chunk maps are ordered
    /// row-major, so a scan seeks this box instead of testing every
    /// chunk of the array.
    ///
    /// [`DimensionDef::chunk_band`]: crate::schema::DimensionDef::chunk_band
    pub fn chunk_band(&self, schema: &ArraySchema) -> (ChunkCoords, ChunkCoords) {
        let mut first = ChunkCoords::zeros(schema.ndims());
        let mut last = first;
        for (d, dim) in schema.dimensions.iter().enumerate() {
            (first[d], last[d]) = dim.chunk_band(self.low[d], self.high[d]);
        }
        (first, last)
    }

    /// Number of cells in the region (logical, not stored).
    pub fn cell_volume(&self) -> u128 {
        self.low.iter().zip(&self.high).map(|(lo, hi)| (hi - lo + 1).max(0) as u128).product()
    }
}

/// Iterate over every chunk coordinate of a bounded schema in row-major
/// order. Returns `None` if any dimension is unbounded.
pub fn all_chunks(schema: &ArraySchema) -> Option<Vec<ChunkCoords>> {
    let counts: Option<Vec<i64>> = schema.dimensions.iter().map(|d| d.chunk_count()).collect();
    let counts = counts?;
    let mut out = Vec::new();
    let n = counts.len();
    let mut cur = ChunkCoords::zeros(n);
    loop {
        out.push(cur);
        let mut d = n;
        loop {
            if d == 0 {
                return Some(out);
            }
            d -= 1;
            cur[d] += 1;
            if cur[d] < counts[d] {
                break;
            }
            cur[d] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{AttributeDef, DimensionDef};
    use crate::value::AttributeType;

    fn schema_2d() -> ArraySchema {
        ArraySchema::new(
            "A",
            vec![AttributeDef::new("v", AttributeType::Int32)],
            vec![DimensionDef::bounded("x", 1, 4, 2), DimensionDef::bounded("y", 1, 4, 2)],
        )
        .unwrap()
    }

    #[test]
    fn cell_to_chunk_mapping() {
        let s = schema_2d();
        assert_eq!(chunk_of(&s, &[1, 1]).unwrap(), ChunkCoords::new([0, 0]));
        assert_eq!(chunk_of(&s, &[4, 3]).unwrap(), ChunkCoords::new([1, 1]));
        assert!(matches!(chunk_of(&s, &[5, 1]), Err(ArrayError::OutOfBounds { .. })));
        assert!(matches!(chunk_of(&s, &[1]), Err(ArrayError::Arity { .. })));
    }

    #[test]
    fn all_chunks_row_major() {
        let s = schema_2d();
        let chunks = all_chunks(&s).unwrap();
        assert_eq!(
            chunks,
            vec![
                ChunkCoords::new([0, 0]),
                ChunkCoords::new([0, 1]),
                ChunkCoords::new([1, 0]),
                ChunkCoords::new([1, 1]),
            ]
        );
    }

    #[test]
    fn neighbors_clip_to_bounds() {
        let s = schema_2d();
        let corner = ChunkCoords::new([0, 0]);
        let n = corner.neighbors(&s);
        assert_eq!(n.len(), 3); // (0,1), (1,0), (1,1)
        let center_schema = ArraySchema::new(
            "B",
            vec![AttributeDef::new("v", AttributeType::Int32)],
            vec![DimensionDef::bounded("x", 0, 8, 1), DimensionDef::bounded("y", 0, 8, 1)],
        )
        .unwrap();
        let mid = ChunkCoords::new([4, 4]);
        assert_eq!(mid.neighbors(&center_schema).len(), 8);
    }

    #[test]
    fn region_chunk_intersection() {
        let s = schema_2d();
        let r = Region::new(vec![1, 1], vec![2, 2]); // exactly chunk (0,0)
        assert!(r.intersects_chunk(&s, &ChunkCoords::new([0, 0])));
        assert!(!r.intersects_chunk(&s, &ChunkCoords::new([1, 1])));
        assert!(r.contains_cell(&[2, 2]));
        assert!(!r.contains_cell(&[3, 2]));
        assert_eq!(r.cell_volume(), 4);
    }

    #[test]
    fn region_full_of_bounded_schema() {
        let s = schema_2d();
        let r = Region::full(&s).unwrap();
        assert_eq!(r.low, vec![1, 1]);
        assert_eq!(r.high, vec![4, 4]);
        assert_eq!(r.cell_volume(), 16);
    }

    #[test]
    fn chebyshev_distance() {
        let a = ChunkCoords::new([0, 0, 0]);
        let b = ChunkCoords::new([2, -1, 1]);
        assert_eq!(a.chebyshev(&b), 2);
        assert_eq!(a.chebyshev(&a), 0);
    }

    #[test]
    fn inline_representation_is_compact_and_copy() {
        // One cache line: 8 indices + length (+ padding).
        assert!(std::mem::size_of::<ChunkCoords>() <= 72);
        let a = ChunkCoords::new([1, 2, 3]);
        let b = a; // Copy, not move
        assert_eq!(a, b);
    }

    #[test]
    fn eq_ord_hash_ignore_the_inactive_tail() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut a = ChunkCoords::zeros(2);
        a[0] = 5;
        a[1] = 7;
        let b = ChunkCoords::new([5, 7]);
        assert_eq!(a, b);
        assert_eq!(a.cmp(&b), std::cmp::Ordering::Equal);
        let hash = |c: &ChunkCoords| {
            let mut h = DefaultHasher::new();
            c.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&a), hash(&b));
        // Shorter prefixes order first, as Vec<i64> did.
        assert!(ChunkCoords::new([5]) < ChunkCoords::new([5, 0]));
        assert!(ChunkCoords::new([1, 9]) < ChunkCoords::new([2, 0]));
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn too_many_dims_panics() {
        let _ = ChunkCoords::new([0i64; MAX_DIMS + 1]);
    }
}
