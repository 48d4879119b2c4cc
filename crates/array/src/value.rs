//! Scalar attribute values and vertically-partitioned column storage.
//!
//! SciDB stores each attribute of a chunk in its own physical column
//! ("vertical partitioning", §2 of the paper). [`AttributeColumn`] mirrors
//! that: one typed, densely packed vector per attribute per chunk.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

/// The scalar types an attribute may declare.
///
/// The set mirrors the types used by the paper's two schemas (`int`,
/// `double`, `float`, `char`, `string`) plus 64-bit integers, which the
/// AIS `ship_id`/`voyageId` values need at scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AttributeType {
    /// 32-bit signed integer (`int32` / `int`).
    Int32,
    /// 64-bit signed integer (`int64`).
    Int64,
    /// 32-bit IEEE float (`float`).
    Float,
    /// 64-bit IEEE float (`double`).
    Double,
    /// Single byte character (`char`).
    Char,
    /// Variable-length UTF-8 string (`string`).
    Str,
}

impl AttributeType {
    /// Canonical lower-case name, as written in schema text.
    pub fn name(self) -> &'static str {
        match self {
            AttributeType::Int32 => "int32",
            AttributeType::Int64 => "int64",
            AttributeType::Float => "float",
            AttributeType::Double => "double",
            AttributeType::Char => "char",
            AttributeType::Str => "string",
        }
    }

    /// Parse a schema type token. Accepts SciDB-style aliases (`int`).
    pub fn parse(token: &str) -> Option<Self> {
        match token {
            "int32" | "int" => Some(AttributeType::Int32),
            "int64" | "long" => Some(AttributeType::Int64),
            "float" => Some(AttributeType::Float),
            "double" => Some(AttributeType::Double),
            "char" => Some(AttributeType::Char),
            "string" => Some(AttributeType::Str),
            _ => None,
        }
    }

    /// Width in bytes of one value of this type as stored on disk.
    ///
    /// Strings are dictionary-encoded by default ([`StringEncoding`]),
    /// so the per-value width is one `u32` code; the dictionary's own
    /// bytes are stored once per column and amortize toward zero for the
    /// low-cardinality columns the encoding targets. (Before dictionary
    /// encoding this reported a 16 B average payload width, which the
    /// AIS feed's 8–12 B strings already undershot.) The actual footprint
    /// of a column is always computed from its contents.
    pub fn fixed_width(self) -> usize {
        match self {
            AttributeType::Int32 | AttributeType::Float => 4,
            AttributeType::Int64 | AttributeType::Double => 8,
            AttributeType::Char => 1,
            AttributeType::Str => 4,
        }
    }
}

impl fmt::Display for AttributeType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One scalar attribute value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ScalarValue {
    /// 32-bit signed integer.
    Int32(i32),
    /// 64-bit signed integer.
    Int64(i64),
    /// 32-bit float.
    Float(f32),
    /// 64-bit float.
    Double(f64),
    /// Single byte character.
    Char(u8),
    /// UTF-8 string.
    Str(String),
}

impl ScalarValue {
    /// The type of this value.
    pub fn value_type(&self) -> AttributeType {
        match self {
            ScalarValue::Int32(_) => AttributeType::Int32,
            ScalarValue::Int64(_) => AttributeType::Int64,
            ScalarValue::Float(_) => AttributeType::Float,
            ScalarValue::Double(_) => AttributeType::Double,
            ScalarValue::Char(_) => AttributeType::Char,
            ScalarValue::Str(_) => AttributeType::Str,
        }
    }

    /// Best-effort numeric view; strings and chars return `None`.
    /// Used by aggregation operators that treat attributes as measures.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            ScalarValue::Int32(v) => Some(f64::from(*v)),
            ScalarValue::Int64(v) => Some(*v as f64),
            ScalarValue::Float(v) => Some(f64::from(*v)),
            ScalarValue::Double(v) => Some(*v),
            ScalarValue::Char(_) | ScalarValue::Str(_) => None,
        }
    }

    /// Integer view for key attributes (joins, distinct); floats refuse.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            ScalarValue::Int32(v) => Some(i64::from(*v)),
            ScalarValue::Int64(v) => Some(*v),
            ScalarValue::Char(v) => Some(i64::from(*v)),
            ScalarValue::Float(_) | ScalarValue::Double(_) | ScalarValue::Str(_) => None,
        }
    }
}

impl fmt::Display for ScalarValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScalarValue::Int32(v) => write!(f, "{v}"),
            ScalarValue::Int64(v) => write!(f, "{v}"),
            ScalarValue::Float(v) => write!(f, "{v}"),
            ScalarValue::Double(v) => write!(f, "{v}"),
            ScalarValue::Char(v) => write!(f, "{}", *v as char),
            ScalarValue::Str(v) => f.write_str(v),
        }
    }
}

/// Default cardinality cap for dictionary-encoded **chunk** columns: a
/// column that accumulates more distinct strings than this spills to
/// plain per-value storage (`Vec<String>`), where codes would no longer
/// pay for themselves. Generously above the low-cardinality columns the
/// encoding targets (AIS carries 128 distinct receiver ids plus one
/// provenance string).
pub const DEFAULT_DICT_CAP: u32 = 4096;

/// How string-typed attribute columns are physically stored.
///
/// Fixed-width types ignore the encoding; it only selects the
/// representation of `string` attributes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StringEncoding {
    /// One heap `String` per value (the pre-dictionary representation).
    Plain,
    /// Dictionary encoding: a `u32` code per value plus each distinct
    /// string stored once, spilling to [`StringEncoding::Plain`] when a
    /// column exceeds `cap` distinct strings.
    Dict {
        /// Cardinality cap: the largest dictionary a column will carry.
        cap: u32,
    },
}

impl Default for StringEncoding {
    fn default() -> Self {
        StringEncoding::Dict { cap: DEFAULT_DICT_CAP }
    }
}

impl StringEncoding {
    /// The transport encoding cell *batches* use: dictionary-encoded with
    /// an effectively unbounded cap. Batches are transient (they exist to
    /// move rows into chunks), so spilling them would only forfeit the
    /// fast code-remap build; the storage-side cap is applied per chunk
    /// column when the rows are gathered into chunks.
    pub fn transport() -> Self {
        StringEncoding::Dict { cap: u32::MAX }
    }
}

/// FNV-1a over the string's bytes: the dictionary's deterministic,
/// allocation-free lookup hash. (64-bit collisions between *different*
/// strings are handled correctly — see [`StringDict::code_of`] — they
/// just fall off the O(1) path.)
fn dict_hash(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The reverse index's hasher: its keys already *are* 64-bit FNV hashes
/// ([`dict_hash`]), so hashing them again (SipHash, the `HashMap`
/// default) bought nothing — FNV is unkeyed either way, and a string
/// whose hash collides outright lands in the collision list whatever
/// the table does with it. The key is the hash.
#[derive(Debug, Clone, Copy, Default)]
struct HashIsKey(u64);

impl std::hash::Hasher for HashIsKey {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only `u64` keys are ever hashed; fold anything else in FNV-style
        // rather than panic.
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }
}

type HashIndex = HashMap<u64, u32, std::hash::BuildHasherDefault<HashIsKey>>;

/// An order-preserving string interner: code `i` is the `i`-th distinct
/// string in first-appearance order, so two columns fed the same value
/// sequence assign identical codes whatever path the rows took.
///
/// # Layout
///
/// The entries live in **one arena**: their text end to end in `text`,
/// and per entry the offset its text ends at (it starts where the
/// previous one ended). A dictionary is two heap blocks however many
/// strings it holds, [`StringDict::get`] is two loads and a slice, and
/// cutting a chunk's dictionary out of a batch's
/// (`StringDict::from_distinct`) is one exact-size append per entry — no
/// `String` per entry, no hashing.
///
/// # The probe table
///
/// Looking a *string* up ([`StringDict::code_of`], and through it
/// [`StringDict::intern`], a column's `push_str` and `append`) goes
/// through a `hash → code` table that re-stores no key. It is a cache
/// over the arena, excluded from equality, and built — once, sized for
/// the entries there are — by the first lookup: a dictionary that is only
/// ever decoded (every chunk a batch cuts, until a predicate probes it)
/// never pays for one. Decoding a dictionary from bytes probes, to reject
/// a repeated entry, so a decoded dictionary carries its table. A lookup
/// hashes the string once (FNV-1a) and the table takes that hash as it is
/// (`HashIsKey`).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct StringDict {
    /// Every entry's text, end to end, in code order.
    text: String,
    /// `ends[code]`: the byte offset in `text` where entry `code` ends.
    ends: Vec<usize>,
    /// The probe table, once something has looked a string up. Boxed: a
    /// column header carries a dictionary whether or not it is a string
    /// column, and a store of small chunks is mostly headers.
    probe: OnceLock<Box<Probe>>,
}

/// [`StringDict`]'s reverse index: `hash → first code with that hash`,
/// and the codes whose hash collided with an earlier entry's (vanishingly
/// rare; scanned linearly after an index hit that mismatches).
#[derive(Debug, Clone, Default)]
struct Probe {
    index: HashIndex,
    collisions: Vec<u32>,
}

impl Probe {
    /// File `code` under `hash`.
    fn insert(&mut self, hash: u64, code: u32) {
        match self.index.entry(hash) {
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(code);
            }
            std::collections::hash_map::Entry::Occupied(_) => self.collisions.push(code),
        }
    }
}

impl PartialEq for StringDict {
    fn eq(&self, other: &Self) -> bool {
        // `probe` is a cache over the arena.
        self.text == other.text && self.ends == other.ends
    }
}

impl StringDict {
    /// An empty dictionary.
    pub fn new() -> Self {
        StringDict::default()
    }

    /// Bulk-build from strings known to be pairwise **distinct** — a
    /// chunk dictionary cut out of a batch's transport dictionary. The
    /// arena and the offsets are sized once; no probe table is built (see
    /// the type docs); the result is the dictionary interning the strings
    /// one by one would have built.
    pub(crate) fn from_distinct<'a>(
        entries: impl ExactSizeIterator<Item = &'a str> + Clone,
    ) -> Self {
        let mut dict = StringDict {
            text: String::with_capacity(entries.clone().map(str::len).sum()),
            ends: Vec::with_capacity(entries.len()),
            probe: OnceLock::new(),
        };
        for s in entries {
            debug_assert!(dict.iter().all(|e| e != s), "from_distinct on a repeated string");
            dict.text.push_str(s);
            dict.ends.push(dict.text.len());
        }
        dict
    }

    /// Number of distinct strings interned.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// [`StringDict::len`] as the `u32` the zone maps store.
    pub(crate) fn distinct(&self) -> u32 {
        u32::try_from(self.ends.len()).expect("codes are u32, so are dictionary sizes")
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Decode one code.
    pub fn get(&self, code: u32) -> Option<&str> {
        let code = code as usize;
        let end = *self.ends.get(code)?;
        let start = code.checked_sub(1).map_or(0, |prev| self.ends[prev]);
        Some(&self.text[start..end])
    }

    /// The distinct strings, in code order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &str> + Clone {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let entry = &self.text[start..end];
            start = end;
            entry
        })
    }

    /// The code of `s`, if it has been interned.
    pub fn code_of(&self, s: &str) -> Option<u32> {
        self.find(dict_hash(s), s)
    }

    /// The probe table, built from the arena on first use.
    fn probe(&self) -> &Probe {
        self.probe.get_or_init(|| {
            let mut probe = Probe {
                index: HashIndex::with_capacity_and_hasher(self.len(), Default::default()),
                collisions: Vec::new(),
            };
            for (code, s) in (0u32..).zip(self.iter()) {
                probe.insert(dict_hash(s), code);
            }
            Box::new(probe)
        })
    }

    /// [`StringDict::code_of`] for a string whose hash the caller holds.
    fn find(&self, hash: u64, s: &str) -> Option<u32> {
        let probe = self.probe();
        let &first = probe.index.get(&hash)?;
        if self.get(first) == Some(s) {
            return Some(first);
        }
        // A different string owns this hash slot: the one we want, if
        // present, is in the collision list.
        probe.collisions.iter().copied().find(|&c| self.get(c) == Some(s))
    }

    /// Intern `s`, returning its (possibly fresh) code. Copies only on a
    /// miss; hashes once either way.
    pub fn intern(&mut self, s: &str) -> u32 {
        let hash = dict_hash(s);
        self.find(hash, s).unwrap_or_else(|| self.push_new(hash, s))
    }

    /// Append a string known to be absent, under its hash.
    fn push_new(&mut self, hash: u64, s: &str) -> u32 {
        let code = self.distinct();
        // Built before the entry lands, so the build does not file it too.
        self.probe();
        self.probe.get_mut().expect("built on the line above").insert(hash, code);
        self.text.push_str(s);
        self.ends.push(self.text.len());
        code
    }

    /// Stored bytes of the dictionary itself: each distinct string's
    /// payload plus a 4 B length prefix, counted **once** per entry.
    pub fn byte_size(&self) -> u64 {
        self.text.len() as u64 + 4 * self.ends.len() as u64
    }
}

/// A dictionary-encoded string column: one `u32` code per value plus the
/// column's own [`StringDict`]. Codes are order-preserving (first
/// appearance wins), so equal value sequences produce structurally equal
/// columns.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DictColumn {
    /// One code per stored value, in insertion order.
    codes: Vec<u32>,
    /// The column's dictionary.
    dict: StringDict,
    /// Cardinality cap: interning a `cap + 1`-th distinct string spills
    /// the whole column to plain storage.
    cap: u32,
}

impl DictColumn {
    /// An empty dictionary column with the given cardinality cap.
    pub fn with_cap(cap: u32) -> Self {
        DictColumn { codes: Vec::new(), dict: StringDict::new(), cap }
    }

    /// Number of stored values.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True when no values are stored.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Decode the value at `idx`.
    pub fn get(&self, idx: usize) -> Option<&str> {
        self.codes.get(idx).and_then(|&c| self.dict.get(c))
    }

    /// The raw code column.
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// The column's dictionary.
    pub fn dict(&self) -> &StringDict {
        &self.dict
    }

    /// The cardinality cap this column spills at.
    pub fn cap(&self) -> u32 {
        self.cap
    }

    /// Stored bytes: the dictionary once plus 4 B per code.
    pub fn byte_size(&self) -> u64 {
        self.dict.byte_size() + 4 * self.codes.len() as u64
    }

    /// Append one value, interning it. `Err` returns the string untouched
    /// when storing it would exceed the cardinality cap — the caller
    /// spills the column to plain storage. `Ok` carries the byte delta
    /// (4 for a repeat, `4 + len + 4` when a dictionary entry was added).
    fn try_push(&mut self, s: String) -> std::result::Result<i64, String> {
        let hash = dict_hash(&s);
        if let Some(code) = self.dict.find(hash, &s) {
            self.codes.push(code);
            return Ok(4);
        }
        if self.dict.len() >= self.cap as usize {
            return Err(s);
        }
        let code = self.dict.push_new(hash, &s);
        self.codes.push(code);
        Ok(s.len() as i64 + 4 + 4)
    }

    /// A column from its parts: `codes` index `dict`, which holds at most
    /// `cap` strings (the chunk builder remaps a group's codes, then cuts
    /// its dictionary out of the batch's).
    pub(crate) fn from_parts(codes: Vec<u32>, dict: StringDict, cap: u32) -> Self {
        debug_assert!(dict.len() <= cap as usize);
        debug_assert!(codes.iter().all(|&c| (c as usize) < dict.len()));
        DictColumn { codes, dict, cap }
    }

    /// Decode every value into plain per-value storage (the spill
    /// conversion).
    fn decode_all(&self) -> Vec<String> {
        self.codes
            .iter()
            .map(|&c| self.dict.get(c).expect("codes index the dictionary").to_string())
            .collect()
    }
}

/// A typed column holding the values of one attribute for every non-empty
/// cell of a chunk, in cell insertion order.
///
/// This is the unit of vertical partitioning: each column's bytes are
/// accounted separately, and queries that touch a subset of attributes
/// scan only those columns. String columns come in two physical
/// representations (see [`StringEncoding`]): plain per-value storage
/// ([`AttributeColumn::Str`]) and dictionary encoding
/// ([`AttributeColumn::Dict`]); both report
/// [`AttributeType::Str`] as their logical type and decode to identical
/// [`ScalarValue`]s, so query operators are encoding-blind.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AttributeColumn {
    /// Column of `int32` values.
    Int32(Vec<i32>),
    /// Column of `int64` values.
    Int64(Vec<i64>),
    /// Column of `float` values.
    Float(Vec<f32>),
    /// Column of `double` values.
    Double(Vec<f64>),
    /// Column of `char` values.
    Char(Vec<u8>),
    /// Column of `string` values, one heap `String` per value (plain
    /// encoding, and the spill target past the dictionary cap).
    Str(Vec<String>),
    /// Column of dictionary-encoded `string` values.
    Dict(DictColumn),
}

impl AttributeColumn {
    /// An empty column of the given type under the **default** encoding:
    /// string columns are dictionary-encoded with
    /// [`DEFAULT_DICT_CAP`].
    pub fn new(ty: AttributeType) -> Self {
        Self::with_encoding(ty, StringEncoding::default())
    }

    /// An empty column of the given type; `encoding` selects the physical
    /// representation of string columns and is ignored for fixed-width
    /// types.
    pub fn with_encoding(ty: AttributeType, encoding: StringEncoding) -> Self {
        match ty {
            AttributeType::Int32 => AttributeColumn::Int32(Vec::new()),
            AttributeType::Int64 => AttributeColumn::Int64(Vec::new()),
            AttributeType::Float => AttributeColumn::Float(Vec::new()),
            AttributeType::Double => AttributeColumn::Double(Vec::new()),
            AttributeType::Char => AttributeColumn::Char(Vec::new()),
            AttributeType::Str => match encoding {
                StringEncoding::Plain => AttributeColumn::Str(Vec::new()),
                StringEncoding::Dict { cap } => AttributeColumn::Dict(DictColumn::with_cap(cap)),
            },
        }
    }

    /// The declared type of the column.
    pub fn column_type(&self) -> AttributeType {
        match self {
            AttributeColumn::Int32(_) => AttributeType::Int32,
            AttributeColumn::Int64(_) => AttributeType::Int64,
            AttributeColumn::Float(_) => AttributeType::Float,
            AttributeColumn::Double(_) => AttributeType::Double,
            AttributeColumn::Char(_) => AttributeType::Char,
            AttributeColumn::Str(_) | AttributeColumn::Dict(_) => AttributeType::Str,
        }
    }

    /// Number of values stored.
    pub fn len(&self) -> usize {
        match self {
            AttributeColumn::Int32(v) => v.len(),
            AttributeColumn::Int64(v) => v.len(),
            AttributeColumn::Float(v) => v.len(),
            AttributeColumn::Double(v) => v.len(),
            AttributeColumn::Char(v) => v.len(),
            AttributeColumn::Str(v) => v.len(),
            AttributeColumn::Dict(d) => d.len(),
        }
    }

    /// True when no values are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append one value. Fails on type mismatch. `Ok` carries the
    /// column's byte-size delta — the increment the running chunk byte
    /// counters are maintained from. The delta is negative only when a
    /// dictionary column spills to plain storage and the dropped
    /// per-value codes outweighed the duplicated dictionary payloads.
    pub fn push(&mut self, value: ScalarValue) -> Result<i64, (AttributeType, AttributeType)> {
        if let ScalarValue::Str(x) = value {
            return if self.column_type() == AttributeType::Str {
                Ok(self.push_str(x))
            } else {
                Err((self.column_type(), AttributeType::Str))
            };
        }
        let delta = match (&mut *self, value) {
            (AttributeColumn::Int32(v), ScalarValue::Int32(x)) => {
                v.push(x);
                4
            }
            (AttributeColumn::Int64(v), ScalarValue::Int64(x)) => {
                v.push(x);
                8
            }
            (AttributeColumn::Float(v), ScalarValue::Float(x)) => {
                v.push(x);
                4
            }
            (AttributeColumn::Double(v), ScalarValue::Double(x)) => {
                v.push(x);
                8
            }
            (AttributeColumn::Char(v), ScalarValue::Char(x)) => {
                v.push(x);
                1
            }
            (col, value) => return Err((col.column_type(), value.value_type())),
        };
        Ok(delta)
    }

    /// Append one string to a string-typed column, interning it when the
    /// column is dictionary-encoded and spilling the column to plain
    /// storage when the dictionary would exceed its cardinality cap.
    /// Returns the column's byte-size delta (which includes the spill
    /// conversion, when one happens).
    ///
    /// # Panics
    ///
    /// If the column is not string-typed — callers validate types first.
    pub(crate) fn push_str(&mut self, s: String) -> i64 {
        if let AttributeColumn::Dict(d) = self {
            match d.try_push(s) {
                Ok(delta) => return delta,
                Err(s) => {
                    // Cardinality cap exceeded: decode the whole column
                    // into plain storage, then store the new value there.
                    let old = d.byte_size() as i64;
                    let mut plain = d.decode_all();
                    plain.push(s);
                    let new: i64 = plain.iter().map(|x| x.len() as i64 + 4).sum();
                    *self = AttributeColumn::Str(plain);
                    return new - old;
                }
            }
        }
        match self {
            AttributeColumn::Str(v) => {
                let delta = s.len() as i64 + 4;
                v.push(s);
                delta
            }
            _ => panic!("push_str on a {} column", self.column_type()),
        }
    }

    /// The value at `idx`, boxed back into a [`ScalarValue`]. Dictionary
    /// codes decode here — this is the result-boundary accessor.
    pub fn get(&self, idx: usize) -> Option<ScalarValue> {
        match self {
            AttributeColumn::Int32(v) => v.get(idx).copied().map(ScalarValue::Int32),
            AttributeColumn::Int64(v) => v.get(idx).copied().map(ScalarValue::Int64),
            AttributeColumn::Float(v) => v.get(idx).copied().map(ScalarValue::Float),
            AttributeColumn::Double(v) => v.get(idx).copied().map(ScalarValue::Double),
            AttributeColumn::Char(v) => v.get(idx).copied().map(ScalarValue::Char),
            AttributeColumn::Str(v) => v.get(idx).cloned().map(ScalarValue::Str),
            AttributeColumn::Dict(d) => d.get(idx).map(|s| ScalarValue::Str(s.to_string())),
        }
    }

    /// Box the values at `rows` into `slots`, pairwise — the
    /// column-at-a-time form of [`AttributeColumn::get`]: the column's
    /// type is matched once, then one typed loop runs.
    ///
    /// # Panics
    ///
    /// If a row is past the column.
    pub(crate) fn fill_rows<'a>(
        &self,
        rows: impl Iterator<Item = u32>,
        slots: impl Iterator<Item = &'a mut ScalarValue>,
    ) {
        macro_rules! fill {
            ($values:expr, $variant:ident) => {
                for (slot, row) in slots.zip(rows) {
                    *slot = ScalarValue::$variant($values[row as usize]);
                }
            };
        }
        match self {
            AttributeColumn::Int32(v) => fill!(v, Int32),
            AttributeColumn::Int64(v) => fill!(v, Int64),
            AttributeColumn::Float(v) => fill!(v, Float),
            AttributeColumn::Double(v) => fill!(v, Double),
            AttributeColumn::Char(v) => fill!(v, Char),
            AttributeColumn::Str(v) => {
                for (slot, row) in slots.zip(rows) {
                    *slot = ScalarValue::Str(v[row as usize].clone());
                }
            }
            AttributeColumn::Dict(d) => {
                for (slot, row) in slots.zip(rows) {
                    let s = d.get(row as usize).expect("row within the column");
                    *slot = ScalarValue::Str(s.to_string());
                }
            }
        }
    }

    /// Zero-copy view of the string at `idx`; `None` for non-string
    /// columns (and out-of-range rows). Operators that scan string
    /// columns read through this without materializing per-row clones.
    pub fn get_str(&self, idx: usize) -> Option<&str> {
        match self {
            AttributeColumn::Str(v) => v.get(idx).map(String::as_str),
            AttributeColumn::Dict(d) => d.get(idx),
            _ => None,
        }
    }

    /// Numeric view of the value at `idx` (see [`ScalarValue::as_f64`]).
    pub fn get_f64(&self, idx: usize) -> Option<f64> {
        match self {
            AttributeColumn::Int32(v) => v.get(idx).map(|x| f64::from(*x)),
            AttributeColumn::Int64(v) => v.get(idx).map(|x| *x as f64),
            AttributeColumn::Float(v) => v.get(idx).map(|x| f64::from(*x)),
            AttributeColumn::Double(v) => v.get(idx).copied(),
            AttributeColumn::Char(_) | AttributeColumn::Str(_) | AttributeColumn::Dict(_) => None,
        }
    }

    /// The physical representation of a string-typed column; `None` for
    /// fixed-width types.
    pub fn string_encoding(&self) -> Option<StringEncoding> {
        match self {
            AttributeColumn::Str(_) => Some(StringEncoding::Plain),
            AttributeColumn::Dict(d) => Some(StringEncoding::Dict { cap: d.cap }),
            _ => None,
        }
    }

    /// The dictionary column, when this column is dictionary-encoded.
    pub fn as_dict(&self) -> Option<&DictColumn> {
        match self {
            AttributeColumn::Dict(d) => Some(d),
            _ => None,
        }
    }

    /// Reserve capacity for `additional` more values.
    pub(crate) fn reserve(&mut self, additional: usize) {
        match self {
            AttributeColumn::Int32(v) => v.reserve(additional),
            AttributeColumn::Int64(v) => v.reserve(additional),
            AttributeColumn::Float(v) => v.reserve(additional),
            AttributeColumn::Double(v) => v.reserve(additional),
            AttributeColumn::Char(v) => v.reserve(additional),
            AttributeColumn::Str(v) => v.reserve(additional),
            AttributeColumn::Dict(d) => d.codes.reserve(additional),
        }
    }

    /// Move every value of `other` onto the end of this column,
    /// returning this column's byte-size delta. Panics on a type
    /// mismatch — the callers merge columns of chunks built against one
    /// schema.
    ///
    /// String columns merge across representations: appending a
    /// dictionary column **remaps its codes** through this column's
    /// dictionary (row order preserved, so the merged column equals the
    /// one sequential insertion would have built), spilling to plain if
    /// the union's cardinality crosses the cap; plain values append into
    /// a dictionary column by interning, and dictionary values into a
    /// plain column by decoding.
    pub(crate) fn append(&mut self, other: AttributeColumn) -> i64 {
        if self.column_type() == AttributeType::Str && other.column_type() == AttributeType::Str {
            return match other {
                AttributeColumn::Str(mut vals) => {
                    if let AttributeColumn::Str(d) = self {
                        let delta: i64 = vals.iter().map(|x| x.len() as i64 + 4).sum();
                        d.append(&mut vals);
                        delta
                    } else {
                        // Plain source into a dictionary column: intern
                        // row-wise (spill handled by `push_str`).
                        vals.drain(..).map(|s| self.push_str(s)).sum()
                    }
                }
                AttributeColumn::Dict(src) => self.append_dict(src),
                _ => unreachable!("column_type() said Str"),
            };
        }
        match (&mut *self, other) {
            (AttributeColumn::Int32(d), AttributeColumn::Int32(mut s)) => {
                let delta = (s.len() * 4) as i64;
                d.append(&mut s);
                delta
            }
            (AttributeColumn::Int64(d), AttributeColumn::Int64(mut s)) => {
                let delta = (s.len() * 8) as i64;
                d.append(&mut s);
                delta
            }
            (AttributeColumn::Float(d), AttributeColumn::Float(mut s)) => {
                let delta = (s.len() * 4) as i64;
                d.append(&mut s);
                delta
            }
            (AttributeColumn::Double(d), AttributeColumn::Double(mut s)) => {
                let delta = (s.len() * 8) as i64;
                d.append(&mut s);
                delta
            }
            (AttributeColumn::Char(d), AttributeColumn::Char(mut s)) => {
                let delta = s.len() as i64;
                d.append(&mut s);
                delta
            }
            (d, s) => panic!(
                "cannot append a {} column onto a {} column",
                s.column_type(),
                d.column_type()
            ),
        }
    }

    /// The dictionary-source half of [`AttributeColumn::append`]: remap
    /// `src`'s codes through this column's dictionary with a flat
    /// `src code → dst code` table (no per-row hashing while both sides
    /// stay dictionaries), falling back to row-wise decoded pushes from
    /// the first row that spills this column — identical to sequential
    /// insertion either way.
    fn append_dict(&mut self, src: DictColumn) -> i64 {
        let mut delta = 0i64;
        let mut resume = None;
        if let AttributeColumn::Dict(dst) = &mut *self {
            let mut remap = vec![u32::MAX; src.dict.len()];
            for (i, &code) in src.codes.iter().enumerate() {
                let mapped = remap[code as usize];
                if mapped != u32::MAX {
                    dst.codes.push(mapped);
                    delta += 4;
                    continue;
                }
                let s = src.dict.get(code).expect("codes index the dictionary");
                if let Some(c) = dst.dict.code_of(s) {
                    remap[code as usize] = c;
                    dst.codes.push(c);
                    delta += 4;
                } else if dst.dict.len() < dst.cap as usize {
                    let c = dst.dict.intern(s);
                    remap[code as usize] = c;
                    dst.codes.push(c);
                    delta += 4 + s.len() as i64 + 4;
                } else {
                    // The union crosses the cap at this row: spill (via
                    // push_str below) and finish decoded.
                    resume = Some(i);
                    break;
                }
            }
        } else {
            resume = Some(0);
        }
        if let Some(start) = resume {
            for &code in &src.codes[start..] {
                let s = src.dict.get(code).expect("codes index the dictionary").to_string();
                delta += self.push_str(s);
            }
        }
        delta
    }

    /// Stored bytes attributable to the value at `idx` **alone** — the
    /// exact amount a chunk's running byte counter decrements when the
    /// row is tombstoned. Fixed-width types cost their width; plain
    /// strings their payload plus the 4 B length prefix; dictionary
    /// codes 4 B. A tombstoned row's dictionary *entry* is not charged
    /// here: other rows may still reference it, so its bytes are
    /// reclaimed only when [`compact`] rebuilds the column (deferred
    /// compaction).
    ///
    /// [`compact`]: crate::Chunk::compact
    pub fn row_byte_cost(&self, idx: usize) -> Option<u64> {
        match self {
            AttributeColumn::Int32(v) => v.get(idx).map(|_| 4),
            AttributeColumn::Int64(v) => v.get(idx).map(|_| 8),
            AttributeColumn::Float(v) => v.get(idx).map(|_| 4),
            AttributeColumn::Double(v) => v.get(idx).map(|_| 8),
            AttributeColumn::Char(v) => v.get(idx).map(|_| 1),
            AttributeColumn::Str(v) => v.get(idx).map(|s| s.len() as u64 + 4),
            AttributeColumn::Dict(d) => d.codes().get(idx).map(|_| 4),
        }
    }

    /// On-disk footprint of the column in bytes. Dictionary columns count
    /// the dictionary once plus 4 B per code.
    pub fn byte_size(&self) -> u64 {
        match self {
            AttributeColumn::Int32(v) => (v.len() * 4) as u64,
            AttributeColumn::Int64(v) => (v.len() * 8) as u64,
            AttributeColumn::Float(v) => (v.len() * 4) as u64,
            AttributeColumn::Double(v) => (v.len() * 8) as u64,
            AttributeColumn::Char(v) => v.len() as u64,
            AttributeColumn::Str(v) => v.iter().map(|s| s.len() as u64 + 4).sum(),
            AttributeColumn::Dict(d) => d.byte_size(),
        }
    }
}

// ---------------------------------------------------------------------
// Durable codecs. Encodings are structural and bit-exact: floats travel
// as raw bit patterns, dictionaries as their strings in code order (the
// probe table is a deterministic function of that order, so it never
// travels).
// ---------------------------------------------------------------------

use durability::{ByteReader, ByteWriter, CodecError};

impl ScalarValue {
    /// Serialize as a one-byte type tag plus the payload.
    pub fn encode_into(&self, w: &mut ByteWriter) {
        match self {
            ScalarValue::Int32(v) => {
                w.put_u8(0);
                w.put_u32(*v as u32);
            }
            ScalarValue::Int64(v) => {
                w.put_u8(1);
                w.put_i64(*v);
            }
            ScalarValue::Float(v) => {
                w.put_u8(2);
                w.put_u32(v.to_bits());
            }
            ScalarValue::Double(v) => {
                w.put_u8(3);
                w.put_f64(*v);
            }
            ScalarValue::Char(v) => {
                w.put_u8(4);
                w.put_u8(*v);
            }
            ScalarValue::Str(v) => {
                w.put_u8(5);
                w.put_str(v);
            }
        }
    }

    /// Decode a value written by [`ScalarValue::encode_into`].
    pub fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(match r.u8("scalar tag")? {
            0 => ScalarValue::Int32(r.u32("int32 value")? as i32),
            1 => ScalarValue::Int64(r.i64("int64 value")?),
            2 => ScalarValue::Float(f32::from_bits(r.u32("float bits")?)),
            3 => ScalarValue::Double(r.f64("double value")?),
            4 => ScalarValue::Char(r.u8("char value")?),
            5 => ScalarValue::Str(r.str("string value")?),
            t => return Err(CodecError::invalid("scalar tag", format!("unknown tag {t}"))),
        })
    }
}

impl StringEncoding {
    /// Serialize as a tag byte (0 = plain, 1 = dict + cap).
    pub fn encode_into(&self, w: &mut ByteWriter) {
        match self {
            StringEncoding::Plain => w.put_u8(0),
            StringEncoding::Dict { cap } => {
                w.put_u8(1);
                w.put_u32(*cap);
            }
        }
    }

    /// Decode an encoding written by [`StringEncoding::encode_into`].
    pub fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        match r.u8("string encoding tag")? {
            0 => Ok(StringEncoding::Plain),
            1 => Ok(StringEncoding::Dict { cap: r.u32("dict cap")? }),
            t => Err(CodecError::invalid("string encoding tag", format!("unknown tag {t}"))),
        }
    }
}

impl StringDict {
    fn encode_into(&self, w: &mut ByteWriter) {
        w.put_list(self.iter(), |w, s| w.put_str(s));
    }

    /// Rebuild by re-interning in code order, which is what rejects a
    /// repeated entry (and leaves the probe table built).
    fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let n = r.count("dict entry count", 4)?;
        let mut dict = StringDict::new();
        for _ in 0..n {
            let s = std::str::from_utf8(r.bytes("dict entry")?)
                .map_err(|e| CodecError::invalid("dict entry", format!("utf8: {e}")))?;
            let hash = dict_hash(s);
            if dict.find(hash, s).is_some() {
                let detail = format!("duplicate interned string {s:?}");
                return Err(CodecError::invalid("dict entry", detail));
            }
            dict.push_new(hash, s);
        }
        Ok(dict)
    }
}

impl DictColumn {
    fn encode_into(&self, w: &mut ByteWriter) {
        w.put_u32(self.cap);
        self.dict.encode_into(w);
        w.put_words(&self.codes, u32::to_le_bytes);
    }

    fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let cap = r.u32("dict cap")?;
        let dict = StringDict::decode_from(r)?;
        let codes = r.words("dict code count", u32::from_le_bytes)?;
        if let Some(c) = codes.iter().find(|&&c| c as usize >= dict.len()) {
            let detail = format!("code {c} out of range for {} entries", dict.len());
            return Err(CodecError::invalid("dict code", detail));
        }
        Ok(DictColumn { codes, dict, cap })
    }
}

impl AttributeColumn {
    /// Serialize as a one-byte representation tag plus the packed values.
    pub fn encode_into(&self, w: &mut ByteWriter) {
        match self {
            AttributeColumn::Int32(v) => {
                w.put_u8(0);
                w.put_words(v, i32::to_le_bytes);
            }
            AttributeColumn::Int64(v) => {
                w.put_u8(1);
                w.put_words(v, i64::to_le_bytes);
            }
            AttributeColumn::Float(v) => {
                w.put_u8(2);
                w.put_words(v, f32::to_le_bytes);
            }
            AttributeColumn::Double(v) => {
                w.put_u8(3);
                w.put_words(v, f64::to_le_bytes);
            }
            AttributeColumn::Char(v) => {
                w.put_u8(4);
                w.put_bytes(v);
            }
            AttributeColumn::Str(v) => {
                w.put_u8(5);
                w.put_list(v, |w, x| w.put_str(x));
            }
            AttributeColumn::Dict(d) => {
                w.put_u8(6);
                d.encode_into(w);
            }
        }
    }

    /// Decode a column written by [`AttributeColumn::encode_into`]. The
    /// physical representation (plain vs dict, spilled or not) round-trips
    /// exactly — recovery must not re-encode columns differently than the
    /// crashed process stored them.
    pub fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(match r.u8("column tag")? {
            0 => AttributeColumn::Int32(r.words("int32 column len", i32::from_le_bytes)?),
            1 => AttributeColumn::Int64(r.words("int64 column len", i64::from_le_bytes)?),
            2 => AttributeColumn::Float(r.words("float column len", f32::from_le_bytes)?),
            3 => AttributeColumn::Double(r.words("double column len", f64::from_le_bytes)?),
            4 => AttributeColumn::Char(r.bytes("char column")?.to_vec()),
            5 => AttributeColumn::Str(r.list("string column len", 4, |r| r.str("string cell"))?),
            6 => AttributeColumn::Dict(DictColumn::decode_from(r)?),
            t => return Err(CodecError::invalid("column tag", format!("unknown tag {t}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_parse_roundtrip() {
        for ty in [
            AttributeType::Int32,
            AttributeType::Int64,
            AttributeType::Float,
            AttributeType::Double,
            AttributeType::Char,
            AttributeType::Str,
        ] {
            assert_eq!(AttributeType::parse(ty.name()), Some(ty));
        }
        assert_eq!(AttributeType::parse("int"), Some(AttributeType::Int32));
        assert_eq!(AttributeType::parse("bogus"), None);
    }

    #[test]
    fn column_push_and_get() {
        let mut col = AttributeColumn::new(AttributeType::Double);
        col.push(ScalarValue::Double(1.5)).unwrap();
        col.push(ScalarValue::Double(-2.0)).unwrap();
        assert_eq!(col.len(), 2);
        assert_eq!(col.get(1), Some(ScalarValue::Double(-2.0)));
        assert_eq!(col.get_f64(0), Some(1.5));
        assert_eq!(col.get(2), None);
    }

    #[test]
    fn column_rejects_type_mismatch() {
        let mut col = AttributeColumn::new(AttributeType::Int32);
        let err = col.push(ScalarValue::Double(1.0)).unwrap_err();
        assert_eq!(err, (AttributeType::Int32, AttributeType::Double));
        assert!(col.is_empty());
    }

    #[test]
    fn byte_size_counts_payload() {
        // Default encoding: strings dictionary-encode — each distinct
        // string once (len + 4) plus a 4 B code per value.
        let mut col = AttributeColumn::new(AttributeType::Str);
        assert_eq!(col.push(ScalarValue::Str("port".into())).unwrap(), (4 + 4) + 4);
        assert_eq!(col.byte_size(), (4 + 4) + 4);
        assert_eq!(col.push(ScalarValue::Str("port".into())).unwrap(), 4);
        assert_eq!(col.byte_size(), (4 + 4) + 2 * 4);
        // Plain encoding: every value stores its own payload.
        let mut plain = AttributeColumn::with_encoding(AttributeType::Str, StringEncoding::Plain);
        plain.push(ScalarValue::Str("port".into())).unwrap();
        plain.push(ScalarValue::Str("port".into())).unwrap();
        assert_eq!(plain.byte_size(), 2 * (4 + 4));
        let mut ints = AttributeColumn::new(AttributeType::Int64);
        assert_eq!(ints.push(ScalarValue::Int64(7)).unwrap(), 8);
        assert_eq!(ints.byte_size(), 8);
    }

    #[test]
    fn dict_column_interns_and_decodes() {
        let mut col = AttributeColumn::with_encoding(
            AttributeType::Str,
            StringEncoding::Dict { cap: DEFAULT_DICT_CAP },
        );
        for s in ["a", "b", "a", "", "b"] {
            col.push(ScalarValue::Str(s.into())).unwrap();
        }
        let d = col.as_dict().expect("under the cap stays dictionary-encoded");
        assert_eq!(d.codes(), &[0, 1, 0, 2, 1]);
        assert_eq!(d.dict().iter().collect::<Vec<_>>(), ["a", "b", ""]);
        assert_eq!(col.get(3), Some(ScalarValue::Str(String::new())));
        assert_eq!(col.get_str(4), Some("b"));
        assert_eq!(col.get(5), None);
        assert_eq!(col.len(), 5);
        // Dictionary bytes once (1+4, 1+4, 0+4) plus 4 B per code.
        assert_eq!(col.byte_size(), (5 + 5 + 4) + 5 * 4);
    }

    #[test]
    fn dict_column_spills_past_the_cap() {
        let mut col =
            AttributeColumn::with_encoding(AttributeType::Str, StringEncoding::Dict { cap: 2 });
        col.push(ScalarValue::Str("x".into())).unwrap();
        col.push(ScalarValue::Str("y".into())).unwrap();
        col.push(ScalarValue::Str("x".into())).unwrap();
        let before = col.byte_size() as i64;
        // The third distinct string crosses cap = 2: the column converts
        // to plain storage, and the delta accounts for the conversion.
        let delta = col.push(ScalarValue::Str("z".into())).unwrap();
        assert!(col.as_dict().is_none(), "column must have spilled to plain");
        assert_eq!(col.byte_size() as i64, before + delta);
        assert_eq!(col.byte_size(), 4 * (1 + 4));
        let got: Vec<_> = (0..4).map(|i| col.get_str(i).unwrap().to_string()).collect();
        assert_eq!(got, ["x", "y", "x", "z"]);
        // Further pushes stay plain.
        assert_eq!(col.push(ScalarValue::Str("w".into())).unwrap(), 1 + 4);
        assert_eq!(col.len(), 5);
    }

    #[test]
    fn append_remaps_codes_across_dictionaries() {
        let mk = |vals: &[&str], cap: u32| {
            let mut c =
                AttributeColumn::with_encoding(AttributeType::Str, StringEncoding::Dict { cap });
            for v in vals {
                c.push(ScalarValue::Str((*v).into())).unwrap();
            }
            c
        };
        // Overlapping dictionaries with different code assignments.
        let mut dst = mk(&["a", "b"], 16);
        let src = mk(&["c", "b", "c"], 16);
        let before = dst.byte_size() as i64;
        let delta = dst.append(src);
        assert_eq!(dst.byte_size() as i64, before + delta);
        let d = dst.as_dict().unwrap();
        assert_eq!(d.dict().iter().collect::<Vec<_>>(), ["a", "b", "c"]);
        assert_eq!(d.codes(), &[0, 1, 2, 1, 2]);
        // Sequential insertion builds the identical column.
        assert_eq!(dst, mk(&["a", "b", "c", "b", "c"], 16));

        // A union that crosses the cap spills mid-append, identically to
        // sequential insertion.
        let mut tight = mk(&["a", "b"], 2);
        let delta = tight.append(mk(&["b", "c"], 16));
        assert!(tight.as_dict().is_none());
        assert_eq!(tight, {
            let mut seq = mk(&["a", "b", "b"], 2);
            seq.push(ScalarValue::Str("c".into())).unwrap();
            seq
        });
        assert_eq!(tight.byte_size() as i64, mk(&["a", "b"], 2).byte_size() as i64 + delta);

        // Cross-representation merges: plain into dict, dict into plain.
        let mut dict_dst = mk(&["a"], 16);
        let mut plain = AttributeColumn::with_encoding(AttributeType::Str, StringEncoding::Plain);
        plain.push(ScalarValue::Str("b".into())).unwrap();
        dict_dst.append(plain.clone());
        assert_eq!(dict_dst, mk(&["a", "b"], 16));
        let pre = plain.byte_size() as i64;
        let delta = plain.append(mk(&["c", "c"], 16));
        assert_eq!(plain.byte_size() as i64, pre + delta);
        assert_eq!(plain.get_str(1), Some("c"));
        assert_eq!(plain.get_str(2), Some("c"));
        assert!(plain.as_dict().is_none());
    }

    /// The probe table is a cache: a bulk-built dictionary has none, a
    /// lookup builds it, a clone made before that builds its own — and
    /// none of it shows in equality.
    #[test]
    fn the_probe_table_is_built_by_the_first_lookup_and_not_before() {
        let cut = StringDict::from_distinct(["north", "", "south"].into_iter());
        assert!(cut.probe.get().is_none(), "bulk build hashes nothing");
        assert_eq!((cut.len(), cut.byte_size()), (3, (5 + 4) + 4 + (5 + 4)));
        assert_eq!((cut.get(1), cut.get(2), cut.get(3)), (Some(""), Some("south"), None));
        assert_eq!(cut.iter().collect::<Vec<_>>(), ["north", "", "south"]);
        assert!(cut.probe.get().is_none(), "decoding and iterating probe nothing");

        let cloned = cut.clone();
        assert_eq!(cloned.code_of(""), Some(1));
        assert_eq!(cloned.code_of("east"), None);
        assert!(cloned.probe.get().is_some() && cut.probe.get().is_none());
        assert_eq!(cloned, cut);

        let mut grown = cut.clone();
        assert_eq!(grown.intern("south"), 2);
        assert_eq!(grown.intern("east"), 3, "a miss appends; the table follows");
        assert_eq!((grown.code_of("east"), grown.code_of("north")), (Some(3), Some(0)));
        assert_ne!(grown, cut);
        assert_eq!(StringDict::new().code_of(""), None);
    }

    /// Entries whose hashes collide outright share one table slot: the
    /// first keeps it, the rest go through the collision list — on the
    /// live table and on one rebuilt from the arena.
    #[test]
    fn colliding_hashes_fall_back_to_the_collision_list() {
        let mut dict = StringDict::new();
        let forced = 0xDEAD_BEEF;
        for (code, s) in (0u32..).zip(["a", "", "c"]) {
            assert_eq!(dict.find(forced, s), None);
            assert_eq!(dict.push_new(forced, s), code);
        }
        for (code, s) in (0u32..).zip(["a", "", "c"]) {
            assert_eq!(dict.find(forced, s), Some(code));
            assert_eq!(dict.get(code), Some(s));
        }
        assert_eq!(dict.find(forced, "d"), None);
        assert_eq!(dict.probe().collisions, [1, 2]);
        // The real hashes do not collide: a table rebuilt from the arena
        // files the same entries one per slot.
        let rebuilt = StringDict::from_distinct(dict.iter());
        assert_eq!(rebuilt, dict);
        assert_eq!((rebuilt.code_of(""), rebuilt.code_of("c")), (Some(1), Some(2)));
        assert!(rebuilt.probe().collisions.is_empty());
    }

    #[test]
    fn scalar_numeric_views() {
        assert_eq!(ScalarValue::Int32(3).as_f64(), Some(3.0));
        assert_eq!(ScalarValue::Str("x".into()).as_f64(), None);
        assert_eq!(ScalarValue::Int64(9).as_i64(), Some(9));
        assert_eq!(ScalarValue::Double(1.0).as_i64(), None);
    }
}
