//! Property tests for the array substrate: schema text round-trips,
//! cell→chunk mapping consistency, and space-filling-curve invariants.

use array_model::{
    chunk_of, gilbert2d, hilbert_coords, hilbert_index, Array, ArrayId, ArraySchema, AttributeDef,
    AttributeType, CellBuffer, Chunk, ChunkCoords, DimensionDef, RowGroups, ScalarValue,
    StringEncoding, ZoneMap, MAX_DIMS,
};
use proptest::prelude::*;

/// A deterministic string from a seed, deliberately covering the nasty
/// distributions: empty strings, multi-byte unicode, long payloads, and
/// a numbered tail whose cardinality is high enough to cross small
/// dictionary caps.
fn string_for(seed: u64) -> String {
    match seed % 8 {
        0 => String::new(),
        1 => "λ-端口-🚢".to_string(),
        2 => "port".to_string(),
        3 => "a-deliberately-long-provenance-string-that-outweighs-its-code".to_string(),
        4 => "ß".to_string(),
        _ => format!("s{}", seed % 10_000),
    }
}

/// A deterministic scalar of the given type derived from a seed. A
/// quarter of the floats are the values a zone map has to get exactly
/// right — both zeros, both infinities, negatives — and, only where
/// `nans` says so (a NaN is not `==` to itself, and most suites compare
/// values), NaNs of either sign.
fn value_with(ty: AttributeType, seed: u64, nans: bool) -> ScalarValue {
    let float = |magnitude: f64| match (seed >> 20) % 16 {
        0 => -0.0,
        1 => 0.0,
        2 => f64::INFINITY,
        3 => f64::NEG_INFINITY,
        4 | 5 => -magnitude,
        6 if nans => f64::NAN,
        7 if nans => -f64::NAN,
        _ => magnitude,
    };
    match ty {
        AttributeType::Int32 => ScalarValue::Int32(seed as i32),
        AttributeType::Int64 => ScalarValue::Int64(seed as i64),
        AttributeType::Float => ScalarValue::Float(float((seed % 1_000) as f64 / 7.0) as f32),
        AttributeType::Double => ScalarValue::Double(float((seed % 100_000) as f64 / 13.0)),
        AttributeType::Char => ScalarValue::Char((seed % 96 + 32) as u8),
        AttributeType::Str => ScalarValue::Str(string_for(seed)),
    }
}

/// [`value_with`], NaN-free: values that can be compared with `==`.
fn value_for(ty: AttributeType, seed: u64) -> ScalarValue {
    value_with(ty, seed, false)
}

fn arb_type() -> impl Strategy<Value = AttributeType> {
    prop_oneof![
        Just(AttributeType::Int32),
        Just(AttributeType::Int64),
        Just(AttributeType::Float),
        Just(AttributeType::Double),
        Just(AttributeType::Char),
        Just(AttributeType::Str),
    ]
}

/// A degenerate dict scatter — so many chunks × so many distinct strings
/// that a dense remap table per chunk would outweigh the data — must
/// still build exactly what per-cell insertion builds (including
/// per-chunk spill decisions). The chunk builder keeps one remap table
/// the size of the transport dictionary and resets only the entries a
/// chunk used, so this shape needs no fallback path.
#[test]
fn huge_remap_footprint_falls_back_without_changing_results() {
    let schema = ArraySchema::new(
        "W",
        vec![AttributeDef::new("s", AttributeType::Str)],
        vec![DimensionDef::bounded("x", 0, 8191, 2)],
    )
    .unwrap();
    // 8192 rows → 4096 chunks; ~4200 distinct strings make the chunks ×
    // dictionary product about 17 M remap entries, were each chunk to
    // keep its own table.
    let rows: Vec<(Vec<i64>, Vec<ScalarValue>)> = (0..8192i64)
        .map(|x| (vec![x], vec![ScalarValue::Str(format!("u{}", (x * 11) % 4200))]))
        .collect();
    let mut buffer = CellBuffer::new(&schema);
    let mut scratch = Vec::new();
    let mut per_cell = Array::new(ArrayId(0), schema.clone());
    for (cell, values) in &rows {
        per_cell.insert_cell(cell.clone(), values.clone()).expect("in bounds");
        scratch.extend(values.iter().cloned());
        buffer.push_row(cell, &mut scratch).expect("schema-shaped");
    }
    assert!(buffer.columns()[0].as_dict().expect("transport dict").dict().len() > 4096);
    let mut batched = Array::new(ArrayId(0), schema.clone());
    batched.insert_batch_owned(buffer).expect("in bounds");
    assert_eq!(batched.chunk_count(), 4096);
    assert_eq!(batched.byte_size(), per_cell.byte_size());
    assert_eq!(batched.descriptors(), per_cell.descriptors());
    for (coords, chunk) in per_cell.chunks() {
        assert_eq!(batched.chunk(coords), Some(chunk), "chunk {coords} differs");
    }
}

prop_compose! {
    fn arb_dimension(idx: usize)(
        start in -1000i64..1000,
        len in 0i64..500,
        interval in 1i64..64,
        bounded in any::<bool>(),
    ) -> DimensionDef {
        let name = format!("d{idx}");
        if bounded {
            DimensionDef::bounded(name, start, start + len, interval)
        } else {
            DimensionDef::unbounded(name, start, interval)
        }
    }
}

fn arb_schema() -> impl Strategy<Value = ArraySchema> {
    let dims = (1usize..4).prop_flat_map(|n| (0..n).map(arb_dimension).collect::<Vec<_>>());
    let attrs = proptest::collection::vec(arb_type(), 1..5).prop_map(|types| {
        types
            .into_iter()
            .enumerate()
            .map(|(i, ty)| AttributeDef::new(format!("a{i}"), ty))
            .collect::<Vec<_>>()
    });
    (dims, attrs).prop_map(|(dimensions, attributes)| {
        ArraySchema::new("T", attributes, dimensions).expect("generated schema is valid")
    })
}

/// An `i64` drawn where the arithmetic breaks: within a few thousand of
/// either end of the type, around zero, or anywhere.
fn arb_edge_i64() -> impl Strategy<Value = i64> {
    prop_oneof![
        (0i64..3_000).prop_map(|d| i64::MIN + d),
        (0i64..3_000).prop_map(|d| i64::MAX - d),
        -3_000i64..3_000,
        any::<i64>(),
    ]
}

/// A dimension whose start, end and interval sit at the ends of `i64` as
/// often as not: intervals of 1, of a few thousand, and of most of the
/// type; bounded and `*`.
fn arb_edge_dimension() -> impl Strategy<Value = DimensionDef> {
    let interval =
        prop_oneof![1i64..4, 1i64..3_000, (0i64..3).prop_map(|d| i64::MAX - d), 1i64..i64::MAX];
    (arb_edge_i64(), arb_edge_i64(), interval, any::<bool>()).prop_map(
        |(a, b, interval, bounded)| {
            let (start, end) = (a.min(b), a.max(b));
            if bounded {
                DimensionDef::bounded("x", start, end, interval)
            } else {
                DimensionDef::unbounded("x", start, interval)
            }
        },
    )
}

/// Schemas for the chunk-build model: one to **four** dimensions
/// (bounded and `*`, negative starts — `arb_dimension`), one to four
/// attributes of any type.
fn arb_build_schema() -> impl Strategy<Value = ArraySchema> {
    let dims = (1usize..5).prop_flat_map(|n| (0..n).map(arb_dimension).collect::<Vec<_>>());
    let attrs = proptest::collection::vec(arb_type(), 1..5);
    (dims, attrs).prop_map(|(dimensions, types)| {
        let attributes =
            types.into_iter().enumerate().map(|(i, ty)| AttributeDef::new(format!("a{i}"), ty));
        ArraySchema::new("B", attributes.collect(), dimensions).expect("generated schema is valid")
    })
}

/// Row counts for the chunk-build model: none, one, a handful, and —
/// one case in four — a few thousand.
fn arb_row_count() -> impl Strategy<Value = usize> {
    prop_oneof![0usize..2, 2usize..90, 2usize..90, 4_096usize..4_400]
}

/// `count` deterministic in-bounds rows for `schema`. An unbounded
/// dimension spreads over `2^spread_bits` coordinates (40 bits puts the
/// chunk-index box far past the dense grouping table's 2^20 slots: the
/// tree fallback); every third row or so repeats an earlier cell.
fn build_rows(
    schema: &ArraySchema,
    seed: u64,
    count: usize,
    spread_bits: u32,
) -> Vec<(Vec<i64>, Vec<ScalarValue>)> {
    build_rows_with(schema, seed, count, spread_bits, false)
}

/// [`build_rows`], with NaNs among the floats if `nans`.
fn build_rows_with(
    schema: &ArraySchema,
    seed: u64,
    count: usize,
    spread_bits: u32,
    nans: bool,
) -> Vec<(Vec<i64>, Vec<ScalarValue>)> {
    let mut rows: Vec<(Vec<i64>, Vec<ScalarValue>)> = Vec::with_capacity(count);
    for i in 0..count {
        let s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(i as u64 * 0x0a5b_35c7_19d1);
        let cell: Vec<i64> = if i > 0 && s.is_multiple_of(3) {
            rows[(s >> 8) as usize % i].0.clone()
        } else {
            let coord = |(d, dim): (usize, &DimensionDef)| {
                let span = dim.end.map_or(1u64 << spread_bits, |e| (e - dim.start + 1) as u64);
                dim.start + (s.rotate_left(11 * d as u32 + 3) % span) as i64
            };
            schema.dimensions.iter().enumerate().map(coord).collect()
        };
        let value = |(a, attr): (usize, &AttributeDef)| {
            value_with(attr.ty, s.rotate_right(13 * a as u32 + 1), nans)
        };
        rows.push((cell, schema.attributes.iter().enumerate().map(value).collect()));
    }
    rows
}

fn buffer_of(schema: &ArraySchema, rows: &[(Vec<i64>, Vec<ScalarValue>)]) -> CellBuffer {
    buffer_with(schema, rows, StringEncoding::transport())
}

/// `rows` as a batch whose string columns travel under `transport`.
fn buffer_with(
    schema: &ArraySchema,
    rows: &[(Vec<i64>, Vec<ScalarValue>)],
    transport: StringEncoding,
) -> CellBuffer {
    let mut buffer = CellBuffer::with_encoding(schema, transport);
    let mut scratch = Vec::new();
    for (cell, values) in rows {
        scratch.extend(values.iter().cloned());
        buffer.push_row(cell, &mut scratch).expect("schema-shaped");
    }
    buffer
}

/// A zone map's encoded bytes: `==` on a map calls `-0.0` and `0.0` the
/// same bound, its bytes do not.
fn zone_bytes(zone: &ZoneMap) -> Vec<u8> {
    let mut w = durability::ByteWriter::new();
    zone.encode_into(&mut w);
    w.into_bytes()
}

/// Every chunk of `array` carries, bit for bit, the zone map its buffers
/// define ([`ZoneMap::compute`]: one `observe` per coordinate and value).
fn assert_zones_are_canonical(array: &Array) {
    for (coords, chunk) in array.chunks() {
        let defined = ZoneMap::compute(chunk.ndims(), chunk.coords_flat(), chunk.columns());
        assert_eq!(zone_bytes(chunk.zone()), zone_bytes(&defined), "zone map of chunk {coords}");
    }
}

/// Everything an array stores: its chunks (`==` covers zone maps and
/// byte counters) and its encoded bytes.
fn contents(array: &Array) -> (Vec<Chunk>, Vec<u8>) {
    let mut w = durability::ByteWriter::new();
    array.encode_into(&mut w);
    (array.chunks().map(|(_, chunk)| chunk.clone()).collect(), w.into_bytes())
}

/// The storage-side encodings the model runs under: plain, the default
/// cap, and caps small enough that `string_for`'s numbered tail lands on
/// both sides of them.
fn arb_encoding() -> impl Strategy<Value = StringEncoding> {
    prop_oneof![
        Just(StringEncoding::Plain),
        Just(StringEncoding::default()),
        (1u32..12).prop_map(|cap| StringEncoding::Dict { cap }),
    ]
}

proptest! {
    /// The grouping against its model — a `BTreeMap` from `chunk_of`,
    /// row by row: groups ascend by chunk position, `order` is a
    /// permutation of the rows that is ascending inside every group, and
    /// `starts` are the prefix sums of the groups' sizes.
    #[test]
    fn row_groups_are_a_counting_sort_of_the_rows_by_chunk(
        schema in arb_build_schema(),
        seed in any::<u64>(),
        count in arb_row_count(),
        spread_bits in prop_oneof![Just(4u32), Just(18u32), Just(40u32)],
    ) {
        let rows = build_rows(&schema, seed, count, spread_bits);
        let buffer = buffer_of(&schema, &rows);
        let groups = RowGroups::of(&schema, buffer.coords_flat()).expect("in bounds");
        let mut model = std::collections::BTreeMap::<ChunkCoords, Vec<u32>>::new();
        for (row, (cell, _)) in (0u32..).zip(&rows) {
            model.entry(chunk_of(&schema, cell).expect("in bounds")).or_default().push(row);
        }
        prop_assert_eq!(groups.rows(), count);
        prop_assert_eq!(groups.is_empty(), count == 0);
        prop_assert_eq!(groups.coords().to_vec(), model.keys().copied().collect::<Vec<_>>());
        let mut start = 0u32;
        for ((g, members), (_, rows)) in model.values().enumerate().zip(groups.iter()) {
            prop_assert_eq!(groups.starts()[g], start);
            prop_assert_eq!(rows, &members[..], "ascending: batch order in a group");
            start += members.len() as u32;
        }
        prop_assert_eq!(groups.starts().len(), groups.len() + 1);
        prop_assert_eq!(groups.starts()[groups.len()], start);
        let mut sorted = groups.order().to_vec();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..count as u32).collect::<Vec<_>>(), "a permutation");
        prop_assert_eq!(
            groups.iter().map(|(coords, members)| (coords, members.to_vec())).collect::<Vec<_>>(),
            model.into_iter().collect::<Vec<_>>()
        );
    }

    /// The chunk-build kernel against per-cell inserts:
    /// `insert_batch_owned` stores a chunk-for-chunk `==` array with
    /// equal encoded bytes; and a second batch into the same array
    /// appends exactly as per-cell inserts would.
    #[test]
    fn every_chunk_build_path_equals_per_cell_inserts(
        schema in arb_build_schema(),
        seed in any::<u64>(),
        count in arb_row_count(),
        spread_bits in prop_oneof![Just(4u32), Just(18u32), Just(40u32)],
        encoding in arb_encoding(),
        plain_transport in any::<bool>(),
    ) {
        let id = ArrayId(0);
        let rows = build_rows(&schema, seed, count, spread_bits);
        // Strings travel as transport-dictionary codes, or (the
        // compatibility path) as one `String` per value.
        let transport =
            if plain_transport { StringEncoding::Plain } else { StringEncoding::transport() };
        let buffer = buffer_with(&schema, &rows, transport);
        let fresh = || Array::with_encoding(id, schema.clone(), encoding);
        let mut per_cell = fresh();
        for (cell, values) in &rows {
            per_cell.insert_cell(cell.clone(), values.clone()).expect("in bounds");
        }
        let want = contents(&per_cell);

        let mut owned = fresh();
        owned.insert_batch_owned(buffer.clone()).expect("in bounds");
        prop_assert_eq!(contents(&owned), want.clone(), "insert_batch_owned");

        // Two batches, split anywhere (an empty half included).
        let k = (seed >> 17) as usize % (count + 1);
        let mut appended = fresh();
        appended.insert_batch_owned(buffer_of(&schema, &rows[..k])).expect("in bounds");
        appended.insert_batch_owned(buffer_of(&schema, &rows[k..])).expect("in bounds");
        prop_assert_eq!(contents(&appended), want, "two batches split at {}", k);
        // `==` above holds the builder's zone maps to per-cell insertion's;
        // this holds both to the definition, signed zeros included.
        for built in [&per_cell, &owned, &appended] {
            assert_zones_are_canonical(built);
        }
    }

    /// The zone map the builder folds while it gathers is the one the
    /// buffers define — with NaNs of either sign among the floats, which
    /// the `==`-comparing suites cannot carry: per-cell insertion, the
    /// batch kernel and the definition agree to the bit (encoded bytes:
    /// the NaN count, `-0.0 < 0.0`, an all-NaN or all-`inf` column's
    /// `±inf` seeds), under any storage encoding.
    #[test]
    fn built_zone_maps_are_the_definition_under_nans_zeros_and_infinities(
        schema in arb_build_schema(),
        seed in any::<u64>(),
        count in 0usize..200,
        encoding in arb_encoding(),
    ) {
        let rows = build_rows_with(&schema, seed, count, 4, true);
        let buffer = buffer_of(&schema, &rows);
        let fresh = || Array::with_encoding(ArrayId(0), schema.clone(), encoding);
        let mut per_cell = fresh();
        for (cell, values) in &rows {
            per_cell.insert_cell(cell.clone(), values.clone()).expect("in bounds");
        }
        let mut owned = fresh();
        owned.insert_batch_owned(buffer).expect("in bounds");
        prop_assert_eq!(contents(&owned).1, contents(&per_cell).1, "insert_batch_owned");
        for built in [&per_cell, &owned] {
            assert_zones_are_canonical(built);
        }
    }

    /// One out-of-bounds row planted anywhere in a batch: every batch
    /// path fails with the error the per-cell loop stops at — same
    /// variant, dimension name and coordinate, i.e. the first offending
    /// row's first offending dimension — and leaves the array untouched.
    #[test]
    fn a_planted_out_of_bounds_row_fails_the_batch_like_the_per_cell_loop(
        schema in arb_build_schema(),
        seed in any::<u64>(),
        count in 1usize..90,
        at in any::<u64>(),
        encoding in arb_encoding(),
    ) {
        let mut rows = build_rows(&schema, seed, count, 18);
        // Push one row out on one dimension — and, half the time, on a
        // second one too, so "first dimension" is a real question.
        let bad = &mut rows[at as usize % count].0;
        for pick in [at >> 8, at >> 20] {
            let d = pick as usize % schema.ndims();
            let dim = &schema.dimensions[d];
            bad[d] = match dim.end {
                Some(end) if pick & (1 << 40) != 0 => end + 1 + (pick >> 44) as i64,
                _ => dim.start - 1 - (pick >> 44) as i64,
            };
            if at & (1 << 63) != 0 {
                break;
            }
        }
        let buffer = buffer_of(&schema, &rows);
        let fresh = || Array::with_encoding(ArrayId(0), schema.clone(), encoding);
        let mut per_cell = fresh();
        let want = rows
            .iter()
            .find_map(|(cell, values)| per_cell.insert_cell(cell.clone(), values.clone()).err())
            .expect("the planted row fails");
        prop_assert!(matches!(want, array_model::ArrayError::OutOfBounds { .. }));

        // Into an array that already holds chunks, so "untouched" is
        // about something.
        let mut target = fresh();
        target.insert_batch_owned(buffer_of(&schema, &build_rows(&schema, !seed, 20, 18))).unwrap();
        let before = contents(&target);
        prop_assert_eq!(target.insert_batch_owned(buffer.clone()), Err(want.clone()));
        prop_assert_eq!(contents(&target), before);
        prop_assert_eq!(RowGroups::of(&schema, buffer.coords_flat()), Err(want));
    }

    /// `Display` output must parse back to an identical schema.
    #[test]
    fn schema_text_roundtrips(schema in arb_schema()) {
        let printed = schema.to_string();
        let reparsed = ArraySchema::parse(&printed)
            .unwrap_or_else(|e| panic!("reparse of `{printed}` failed: {e}"));
        prop_assert_eq!(schema, reparsed);
    }

    /// Every in-bounds cell maps to a chunk whose range contains it.
    #[test]
    fn cell_lands_inside_its_chunk(
        schema in arb_schema(),
        offsets in proptest::collection::vec(0i64..400, 3),
    ) {
        let cell: Vec<i64> = schema
            .dimensions
            .iter()
            .zip(&offsets)
            .map(|(d, &o)| {
                let span = d.end.map(|e| e - d.start + 1).unwrap_or(i64::MAX / 4);
                d.start + o.min(span - 1)
            })
            .collect();
        let chunk = chunk_of(&schema, &cell).expect("cell is in bounds");
        for (d, dim) in schema.dimensions.iter().enumerate() {
            let (lo, hi) = dim.chunk_range(chunk.index(d));
            prop_assert!(cell[d] >= lo && cell[d] <= hi,
                "cell {:?} outside chunk range [{lo}, {hi}] on dim {d}", cell);
        }
    }

    /// Hilbert index/coords are mutually inverse for arbitrary points.
    #[test]
    fn hilbert_roundtrips(
        ndims in 1usize..5,
        bits in 1u32..6,
        seed in any::<u64>(),
    ) {
        let side = 1u64 << bits;
        let coords: Vec<u64> = (0..ndims)
            .map(|d| seed.rotate_left(13 * d as u32) % side)
            .collect();
        let h = hilbert_index(&coords, bits);
        prop_assert!(h < (1u128 << (bits as usize * ndims)));
        prop_assert_eq!(hilbert_coords(h, bits, ndims), coords);
    }

    /// The generalized pseudo-Hilbert scan covers any rectangle exactly
    /// once; every step is Chebyshev-adjacent and at most one step per
    /// rectangle is diagonal (the paper's citation [32] permits the same).
    #[test]
    fn gilbert_covers_any_rectangle(w in 1i64..40, h in 1i64..40) {
        let path = gilbert2d(w, h);
        prop_assert_eq!(path.len() as i64, w * h);
        let mut seen = std::collections::HashSet::new();
        for &(x, y) in &path {
            prop_assert!(x >= 0 && x < w && y >= 0 && y < h);
            prop_assert!(seen.insert((x, y)), "repeated point ({x},{y})");
        }
        let mut diagonals = 0;
        for pair in path.windows(2) {
            let dx = (pair[0].0 - pair[1].0).abs();
            let dy = (pair[0].1 - pair[1].1).abs();
            prop_assert_eq!(dx.max(dy), 1,
                "curve jumped between {:?} and {:?}", pair[0], pair[1]);
            if dx + dy == 2 {
                diagonals += 1;
            }
        }
        prop_assert!(diagonals <= 1, "{} diagonal steps in {}x{}", diagonals, w, h);
    }

    /// The inline `ChunkCoords` must be observationally equivalent to the
    /// old `Vec<i64>` representation: identical equality, ordering,
    /// hash-based deduplication, and a lossless round trip through the
    /// serialized (`Vec<i64>`) form.
    #[test]
    fn inline_coords_match_vec_model(
        vecs in proptest::collection::vec(
            proptest::collection::vec(-1000i64..1000, 1..MAX_DIMS + 1),
            2..20,
        ),
    ) {
        use std::collections::{BTreeSet, HashSet};
        let inline: Vec<ChunkCoords> =
            vecs.iter().map(|v| ChunkCoords::new(v.as_slice())).collect();

        // Round trip through the wire form (the old representation's
        // serde payload was exactly this Vec<i64>).
        for (v, c) in vecs.iter().zip(&inline) {
            prop_assert_eq!(&c.to_vec(), v);
            prop_assert_eq!(ChunkCoords::new(c.to_vec()), *c);
            prop_assert_eq!(c.ndims(), v.len());
            for (d, &x) in v.iter().enumerate() {
                prop_assert_eq!(c.index(d), x);
            }
        }

        // Pairwise comparisons must match the Vec model exactly.
        for (va, ca) in vecs.iter().zip(&inline) {
            for (vb, cb) in vecs.iter().zip(&inline) {
                prop_assert_eq!(va == vb, ca == cb);
                prop_assert_eq!(va.cmp(vb), ca.cmp(cb));
            }
        }

        // Hash/ord containers dedup identically.
        let vec_set: BTreeSet<_> = vecs.iter().cloned().collect();
        let ord_set: BTreeSet<_> = inline.iter().copied().collect();
        let hash_set: HashSet<_> = inline.iter().copied().collect();
        prop_assert_eq!(ord_set.len(), vec_set.len());
        prop_assert_eq!(hash_set.len(), vec_set.len());

        // Sorted order is the Vec order.
        let mut sorted_vecs = vecs.clone();
        sorted_vecs.sort();
        let mut sorted_inline = inline.clone();
        sorted_inline.sort();
        let as_vecs: Vec<Vec<i64>> = sorted_inline.iter().map(|c| c.to_vec()).collect();
        prop_assert_eq!(as_vecs, sorted_vecs);
    }

    /// Region/chunk intersection agrees with brute-force cell membership.
    #[test]
    fn region_intersection_is_sound(
        lo0 in 0i64..20, len0 in 0i64..20,
        lo1 in 0i64..20, len1 in 0i64..20,
    ) {
        let schema = ArraySchema::new(
            "R",
            vec![AttributeDef::new("v", AttributeType::Int32)],
            vec![
                DimensionDef::bounded("x", 0, 19, 3),
                DimensionDef::bounded("y", 0, 19, 4),
            ],
        ).unwrap();
        let region = array_model::Region::new(
            vec![lo0, lo1],
            vec![(lo0 + len0).min(19), (lo1 + len1).min(19)],
        );
        for chunk in array_model::all_chunks(&schema).unwrap() {
            let brute = (0..20).any(|x| (0..20).any(|y| {
                region.contains_cell(&[x, y])
                    && chunk_of(&schema, &[x, y]).unwrap() == chunk
            }));
            prop_assert_eq!(
                region.intersects_chunk(&schema, &chunk),
                brute,
                "chunk {:?} vs region {:?}", chunk, region
            );
        }
    }

    /// `chunk_index` files a coordinate, `chunk_range` says where that
    /// chunk lies: wherever the index fits `i64` the two are inverse —
    /// the range holds the coordinate, both its ends file back into the
    /// same chunk, the next chunk starts one past it — up to and
    /// including the chunks that end at `i64::MAX` or start at
    /// `i64::MIN`, where the range saturates instead of wrapping.
    #[test]
    fn chunk_range_and_chunk_index_round_trip_at_both_ends_of_i64(
        dim in arb_edge_dimension(),
        coord in arb_edge_i64(),
    ) {
        let coord = coord.max(dim.start).min(dim.end.unwrap_or(i64::MAX));
        if let Some(idx) = dim.try_chunk_index(coord) {
            prop_assert_eq!(dim.chunk_index(coord), idx);
            let (lo, hi) = dim.chunk_range(idx);
            prop_assert!(lo <= coord && coord <= hi, "{dim}: {coord} outside [{lo}, {hi}]");
            prop_assert!(lo >= dim.start && dim.contains(hi), "{dim}: [{lo}, {hi}] leaves it");
            prop_assert_eq!(dim.try_chunk_index(lo), Some(idx));
            prop_assert_eq!(dim.try_chunk_index(hi), Some(idx));
            // Exact, not merely saturated: the width is the interval
            // unless the dimension's end or the type's cuts it short.
            let cut = hi == dim.end.unwrap_or(i64::MAX);
            prop_assert!(cut || hi - lo == dim.chunk_interval - 1);
            if !cut && idx < i64::MAX {
                prop_assert_eq!(dim.chunk_range(idx + 1).0, hi + 1);
            }
        }
    }

    /// `chunk_band` never loses a chunk: whatever index a chunk has —
    /// in the dimension, past its end, negative, at the ends of `i64` —
    /// if its `chunk_range` meets `[low, high]` the band holds it. (The
    /// scan decides by the range; the band only says where to look.)
    /// And it is tight where it matters: for a region inside the type's
    /// ends, both corners of the band are chunks that do meet it.
    #[test]
    fn chunk_band_holds_every_chunk_whose_range_meets_the_interval(
        dim in arb_edge_dimension(),
        low in arb_edge_i64(),
        high in arb_edge_i64(),
        probes in proptest::collection::vec((arb_edge_i64(), -3i64..4), 24),
    ) {
        let (first, last) = dim.chunk_band(low, high);
        let meets = |idx: i64| {
            let (lo, hi) = dim.chunk_range(idx);
            lo <= high && hi >= low
        };
        // Probe around the band's corners, around the chunks of the
        // interval's ends, and anywhere.
        let anchors = [first, last, dim.chunk_index(low), dim.chunk_index(high), 0];
        for (i, &(anywhere, nudge)) in probes.iter().enumerate() {
            for idx in [anywhere, anchors[i % anchors.len()].saturating_add(nudge)] {
                prop_assert!(
                    !meets(idx) || (first <= idx && idx <= last),
                    "{dim}: chunk {idx} meets [{low}, {high}] outside band [{first}, {last}]"
                );
            }
        }
        let inside = low <= high && low > i64::MIN && high < i64::MAX;
        if inside && dim.end.is_none_or(|end| low <= end) && high >= dim.start {
            prop_assert!(meets(first) && meets(last), "{dim}: band [{first}, {last}] is slack");
        }
    }

    /// The flat-batch insert (`insert_batch_owned`) must be
    /// observationally identical to
    /// per-cell `insert_cell` over arbitrary schemas and shuffled row
    /// orders: same chunks (coordinates, per-column payloads, in-chunk
    /// cell order), same descriptors, same byte sizes.
    #[test]
    fn insert_batch_matches_per_cell_inserts(
        schema in arb_schema(),
        seed in any::<u64>(),
        count in 1usize..60,
    ) {
        // Deterministic in-bounds rows (duplicates allowed — both paths
        // must store repeated positions identically).
        let cells: Vec<(Vec<i64>, Vec<ScalarValue>)> = (0..count)
            .map(|i| {
                let s = seed
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(i as u64 * 0x0765_4321_0fed);
                let cell: Vec<i64> = schema
                    .dimensions
                    .iter()
                    .enumerate()
                    .map(|(d, dim)| {
                        let span = dim.end.map(|e| e - dim.start + 1).unwrap_or(1 << 18) as u64;
                        dim.start + (s.rotate_left(9 * d as u32) % span) as i64
                    })
                    .collect();
                let values: Vec<ScalarValue> = schema
                    .attributes
                    .iter()
                    .enumerate()
                    .map(|(a, attr)| value_for(attr.ty, s.rotate_right(13 * a as u32 + 1)))
                    .collect();
                (cell, values)
            })
            .collect();
        // Deterministic Fisher–Yates shuffle off the seed.
        let mut order: Vec<usize> = (0..count).collect();
        let mut st = seed | 1;
        for i in (1..count).rev() {
            st = st.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order.swap(i, (st >> 33) as usize % (i + 1));
        }
        for rows in [&(0..count).collect::<Vec<_>>(), &order] {
            let mut per_cell = Array::new(ArrayId(0), schema.clone());
            let mut buffer = CellBuffer::new(&schema);
            let mut scratch = Vec::new();
            for &i in rows {
                let (cell, values) = &cells[i];
                per_cell.insert_cell(cell.clone(), values.clone()).expect("in bounds");
                scratch.extend(values.iter().cloned());
                buffer.push_row(cell, &mut scratch).expect("schema-shaped");
            }
            let mut flat = Array::new(ArrayId(0), schema.clone());
            flat.insert_batch_owned(buffer).expect("in bounds");
            prop_assert_eq!(flat.cell_count(), per_cell.cell_count());
            prop_assert_eq!(flat.byte_size(), per_cell.byte_size());
            prop_assert_eq!(flat.chunk_count(), per_cell.chunk_count());
            prop_assert_eq!(flat.descriptors(), per_cell.descriptors());
            for (coords, chunk) in per_cell.chunks() {
                // Full structural equality: coordinates, columns,
                // counters, and in-chunk cell order.
                prop_assert_eq!(flat.chunk(coords), Some(chunk));
                // The running `bytes` counter must equal a rescan of
                // the actual stored columns — `byte_size()` no
                // longer rescans, so counter drift would otherwise
                // stay self-consistent and invisible.
                let recomputed: u64 = schema.ndims() as u64 * 8 * chunk.cell_count()
                    + (0..schema.attributes.len())
                        .map(|a| chunk.column(a).expect("schema-shaped").byte_size())
                        .sum::<u64>();
                prop_assert_eq!(chunk.byte_size(), recomputed);
            }
        }
    }

    /// `Chunk::push_cell` round-trips under arbitrary schemas (up to
    /// `MAX_DIMS` dimensions) and arbitrary cell insertion orders: the
    /// array's cell/byte totals and every chunk's descriptor — exactly
    /// what data placement sees — are order-invariant and agree with the
    /// stored payload, and every pushed `(cell, values)` row reads back
    /// intact.
    #[test]
    fn push_cell_round_trips_and_descriptors_are_order_invariant(
        schema in arb_schema(),
        seed in any::<u64>(),
        count in 1usize..48,
    ) {
        // Deterministic in-bounds cells (deduped — one row per position).
        let mut cells: Vec<(Vec<i64>, Vec<ScalarValue>)> = Vec::new();
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..count {
            let s = seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(i as u64 * 0x1234_5678_9abc);
            let cell: Vec<i64> = schema
                .dimensions
                .iter()
                .enumerate()
                .map(|(d, dim)| {
                    let span = dim.end.map(|e| e - dim.start + 1).unwrap_or(1 << 20) as u64;
                    dim.start + (s.rotate_left(7 * d as u32) % span) as i64
                })
                .collect();
            if !seen.insert(cell.clone()) {
                continue;
            }
            let values: Vec<ScalarValue> = schema
                .attributes
                .iter()
                .enumerate()
                .map(|(a, attr)| value_for(attr.ty, s.rotate_right(11 * a as u32 + 1)))
                .collect();
            cells.push((cell, values));
        }
        let n = cells.len();
        let build = |order: &[usize]| -> Array {
            let mut a = Array::new(ArrayId(0), schema.clone());
            for &i in order {
                a.insert_cell(cells[i].0.clone(), cells[i].1.clone()).expect("in bounds");
            }
            a
        };
        let forward: Vec<usize> = (0..n).collect();
        // Deterministic Fisher–Yates shuffle off the seed.
        let mut shuffled = forward.clone();
        let mut st = seed | 1;
        for i in (1..n).rev() {
            st = st.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            shuffled.swap(i, (st >> 33) as usize % (i + 1));
        }
        let a = build(&forward);
        let b = build(&shuffled);

        // Totals and descriptors are insertion-order invariant.
        prop_assert_eq!(a.cell_count(), n as u64);
        prop_assert_eq!(b.cell_count(), a.cell_count());
        prop_assert_eq!(b.byte_size(), a.byte_size());
        prop_assert_eq!(b.chunk_count(), a.chunk_count());
        prop_assert_eq!(a.descriptors(), b.descriptors());

        // Each descriptor agrees with its chunk's actual payload.
        for d in a.descriptors() {
            let chunk = a.chunk(&d.key.coords).expect("descriptor has a chunk");
            prop_assert_eq!(d.bytes, chunk.byte_size());
            prop_assert_eq!(d.cells, chunk.cell_count());
            prop_assert_eq!(d.key.array, ArrayId(0));
        }

        // Every pushed row reads back from its routed chunk, both orders.
        for array in [&a, &b] {
            for (cell, values) in &cells {
                let coords = chunk_of(&schema, cell).expect("in bounds");
                let chunk = array.chunk(&coords).expect("cell was routed here");
                let row = chunk
                    .iter_cells()
                    .find(|(c, _)| *c == cell.as_slice())
                    .map(|(_, r)| r)
                    .expect("cell stored");
                for (ai, v) in values.iter().enumerate() {
                    prop_assert_eq!(chunk.column(ai).expect("schema-shaped").get(row),
                        Some(v.clone()));
                }
            }
        }
    }

    /// Dictionary encode → decode round-trips over arbitrary string
    /// distributions (empty, unicode, long payloads, high-cardinality
    /// tails) and arbitrary caps: every value reads back intact, the
    /// byte size equals both the incremental deltas and an independent
    /// recomputation, and the column spills to plain storage exactly
    /// when the distinct count crosses the cap.
    #[test]
    fn dict_column_round_trips_and_spills_at_the_cap(
        seeds in proptest::collection::vec(any::<u64>(), 1..120),
        cap in 1u32..12,
    ) {
        use array_model::AttributeColumn;
        let values: Vec<String> = seeds.iter().map(|&s| string_for(s)).collect();
        let mut col = AttributeColumn::with_encoding(
            AttributeType::Str,
            StringEncoding::Dict { cap },
        );
        let mut delta_sum = 0i64;
        for v in &values {
            delta_sum += col.push(ScalarValue::Str(v.clone())).expect("string column");
        }
        prop_assert_eq!(col.len(), values.len());
        // Round trip, through both accessors.
        for (i, v) in values.iter().enumerate() {
            prop_assert_eq!(col.get_str(i), Some(v.as_str()));
            prop_assert_eq!(col.get(i), Some(ScalarValue::Str(v.clone())));
        }
        // Spill iff the distinct count crossed the cap.
        let distinct: std::collections::BTreeSet<&str> =
            values.iter().map(String::as_str).collect();
        prop_assert_eq!(
            col.as_dict().is_none(),
            distinct.len() > cap as usize,
            "cap {} with {} distinct strings", cap, distinct.len()
        );
        // Bytes: incremental deltas == byte_size() == independent model.
        prop_assert_eq!(col.byte_size() as i64, delta_sum);
        let expected: u64 = match col.as_dict() {
            Some(d) => {
                // Codes are first-seen order — check against a naive model.
                let mut model: Vec<&str> = Vec::new();
                let codes: Vec<u32> = values
                    .iter()
                    .map(|v| {
                        match model.iter().position(|m| m == v) {
                            Some(p) => p as u32,
                            None => {
                                model.push(v);
                                (model.len() - 1) as u32
                            }
                        }
                    })
                    .collect();
                prop_assert_eq!(d.codes(), &codes[..]);
                let dict: Vec<&str> = d.dict().iter().collect();
                prop_assert_eq!(dict, model.clone());
                model.iter().map(|s| s.len() as u64 + 4).sum::<u64>()
                    + 4 * values.len() as u64
            }
            None => values.iter().map(|s| s.len() as u64 + 4).sum(),
        };
        prop_assert_eq!(col.byte_size(), expected);
    }

    /// An arbitrary interleaved insert/retract/compact script on a
    /// `Chunk` — dictionary encoding under spill-forcing caps, and
    /// plain storage — must leave `byte_size`/`cell_count`/dict state
    /// **structurally equal** to a chunk built from only the surviving
    /// cells in their original order. Checked at every compact point in
    /// the script, not just the end, and the running byte counter must
    /// equal an independent rescan of the compacted columns (counter
    /// drift is self-consistent and invisible otherwise).
    #[test]
    fn interleaved_insert_retract_compact_matches_survivors_only_build(
        script in proptest::collection::vec((0u8..8, any::<u64>()), 1..120),
        cap in 1u32..8,
        use_plain in any::<bool>(),
    ) {
        use array_model::Chunk;
        let schema = ArraySchema::new(
            "C",
            vec![
                AttributeDef::new("s", AttributeType::Str),
                AttributeDef::new("v", AttributeType::Int32),
                AttributeDef::new("t", AttributeType::Str),
            ],
            vec![
                DimensionDef::bounded("x", 0, 15, 16),
                DimensionDef::bounded("y", 0, 15, 16),
            ],
        ).unwrap();
        let encoding =
            if use_plain { StringEncoding::Plain } else { StringEncoding::Dict { cap } };
        let coords = ChunkCoords::new([0i64, 0]);

        // The script target and its row-level model: every inserted row
        // in order, with a live flag retraction clears. Survivor builds
        // replay the live rows in original order.
        let mut chunk = Chunk::with_encoding(&schema, coords, encoding);
        let mut model: Vec<(Vec<i64>, Vec<ScalarValue>, bool)> = Vec::new();
        let survivors_only = |model: &[(Vec<i64>, Vec<ScalarValue>, bool)]| -> Chunk {
            let mut c = Chunk::with_encoding(&schema, coords, encoding);
            for (cell, values, live) in model {
                if *live {
                    c.push_cell(&schema, cell.clone(), values.clone()).expect("in bounds");
                }
            }
            c
        };

        for &(op, s) in &script {
            match op {
                // Insert: duplicate positions are likely (16 slots per
                // axis) and legal — retraction takes the LAST live one.
                0..=4 => {
                    let cell = vec![(s % 16) as i64, (s.rotate_left(21) % 16) as i64];
                    let values = vec![
                        ScalarValue::Str(string_for(s)),
                        ScalarValue::Int32(s as i32),
                        ScalarValue::Str(string_for(s.rotate_right(17))),
                    ];
                    chunk.push_cell(&schema, cell.clone(), values.clone()).expect("in bounds");
                    model.push((cell, values, true));
                }
                // Retract: usually a live cell (so deletes really
                // exercise the tombstone path), sometimes an arbitrary
                // position that may be missing or already retracted.
                5 | 6 => {
                    let live: Vec<usize> = (0..model.len()).filter(|&i| model[i].2).collect();
                    let target: Vec<i64> = if !live.is_empty() && s % 4 != 0 {
                        model[live[(s / 4) as usize % live.len()]].0.clone()
                    } else {
                        vec![(s % 16) as i64, (s.rotate_left(33) % 16) as i64]
                    };
                    let expect = model
                        .iter()
                        .rposition(|(c, _, live)| *live && c == &target);
                    let freed = chunk.retract_cell(&target);
                    prop_assert_eq!(freed.is_some(), expect.is_some(),
                        "retract of {:?} disagrees with the model", target);
                    if let Some(i) = expect {
                        model[i].2 = false;
                        prop_assert!(freed.unwrap() > 0, "a live row frees its coordinate bytes");
                    }
                }
                // Compact: the reclaimed chunk must be structurally
                // identical to the survivors-only build, right now.
                _ => {
                    let before = chunk.byte_size();
                    let delta = chunk.compact();
                    prop_assert_eq!(before as i64 - chunk.byte_size() as i64, delta);
                    prop_assert_eq!(&chunk, &survivors_only(&model), "mid-script compact");
                    prop_assert_eq!(chunk.tombstone_count(), 0);
                }
            }
            // The live-row counters never drift, whatever the op mix.
            let live = model.iter().filter(|(_, _, l)| *l).count();
            prop_assert_eq!(chunk.cell_count(), live as u64);
            prop_assert_eq!(
                chunk.physical_cell_count() as u64 - chunk.tombstone_count(),
                live as u64
            );
            // Every live row is visible through the iteration choke
            // point, every tombstoned row is not.
            prop_assert_eq!(chunk.iter_cells().count(), live);
        }

        // Final reclamation: structural equality with the survivors-only
        // build, and the running byte counter equals a column rescan.
        chunk.compact();
        let survivors = survivors_only(&model);
        prop_assert_eq!(&chunk, &survivors, "end-of-script compact");
        prop_assert_eq!(chunk.descriptor(ArrayId(0)), survivors.descriptor(ArrayId(0)));
        let rescan: u64 = schema.ndims() as u64 * 8 * chunk.cell_count()
            + (0..schema.attributes.len())
                .map(|a| chunk.column(a).expect("schema-shaped").byte_size())
                .sum::<u64>();
        prop_assert_eq!(chunk.byte_size(), rescan);
        // Fully-retracted chunks reclaim everything.
        if chunk.cell_count() == 0 {
            prop_assert_eq!(chunk.byte_size(), 0);
        }
    }

    /// Batched inserts, incremental two-batch merges (the append path
    /// that remaps codes across dictionaries), and `absorb` of disjoint
    /// chunk sets are all **structurally identical** to the per-cell
    /// insert path over dictionary-encoded columns — including when a
    /// small cap forces mid-stream spills to plain storage.
    #[test]
    #[allow(deprecated)]
    fn dict_batches_merges_and_absorb_match_per_cell_path(
        seed in any::<u64>(),
        count in 2usize..60,
        cap in 1u32..8,
        split_pct in 0u64..100,
    ) {
        let schema = ArraySchema::new(
            "D",
            vec![
                AttributeDef::new("s", AttributeType::Str),
                AttributeDef::new("v", AttributeType::Int32),
                AttributeDef::new("t", AttributeType::Str),
            ],
            vec![
                DimensionDef::bounded("x", 0, 63, 8),
                DimensionDef::bounded("y", 0, 63, 8),
            ],
        ).unwrap();
        let encoding = StringEncoding::Dict { cap };
        let cells: Vec<(Vec<i64>, Vec<ScalarValue>)> = (0..count)
            .map(|i| {
                let s = seed
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(i as u64 * 0x0fed_cba9_8765);
                let cell = vec![(s % 64) as i64, (s.rotate_left(17) % 64) as i64];
                let values = vec![
                    ScalarValue::Str(string_for(s)),
                    ScalarValue::Int32(s as i32),
                    ScalarValue::Str(string_for(s.rotate_right(23))),
                ];
                (cell, values)
            })
            .collect();

        // Reference: per-cell inserts under the same (tiny) cap.
        let mut per_cell = Array::with_encoding(ArrayId(0), schema.clone(), encoding);
        for (cell, values) in &cells {
            per_cell.insert_cell(cell.clone(), values.clone()).expect("in bounds");
        }

        // One-shot batch.
        let mut buffer = CellBuffer::new(&schema);
        let mut scratch = Vec::new();
        for (cell, values) in &cells {
            scratch.extend(values.iter().cloned());
            buffer.push_row(cell, &mut scratch).expect("schema-shaped");
        }
        let mut one_shot = Array::with_encoding(ArrayId(0), schema.clone(), encoding);
        one_shot.insert_batch_owned(buffer).expect("in bounds");

        // Two batches split mid-stream: the second revisits chunks the
        // first created, driving the append path's dictionary remaps
        // (and spills, when the union crosses the cap).
        let k = ((count as u64 * split_pct / 100) as usize).clamp(1, count - 1);
        let mut first = CellBuffer::new(&schema);
        let mut second = CellBuffer::new(&schema);
        for (i, (cell, values)) in cells.iter().enumerate() {
            scratch.extend(values.iter().cloned());
            let dst = if i < k { &mut first } else { &mut second };
            dst.push_row(cell, &mut scratch).expect("schema-shaped");
        }
        let mut merged = Array::with_encoding(ArrayId(0), schema.clone(), encoding);
        merged.insert_batch_owned(first).expect("in bounds");
        merged.insert_batch_owned(second).expect("in bounds");

        // Absorb: rows partitioned by owning chunk, so the two halves
        // hold disjoint chunk sets and merge wholesale.
        let mut left = Array::with_encoding(ArrayId(0), schema.clone(), encoding);
        let mut right = Array::with_encoding(ArrayId(0), schema.clone(), encoding);
        for (cell, values) in &cells {
            let coords = chunk_of(&schema, cell).expect("in bounds");
            let dst = if (coords.index(0) + coords.index(1)) % 2 == 0 {
                &mut left
            } else {
                &mut right
            };
            dst.insert_cell(cell.clone(), values.clone()).expect("in bounds");
        }
        left.absorb(right).expect("disjoint chunk sets");

        for (name, built) in
            [("insert_batch_owned", &one_shot), ("two-batch merge", &merged), ("absorb", &left)]
        {
            prop_assert_eq!(built.cell_count(), per_cell.cell_count(), "{}", name);
            prop_assert_eq!(built.byte_size(), per_cell.byte_size(), "{}", name);
            prop_assert_eq!(built.descriptors(), per_cell.descriptors(), "{}", name);
            for (coords, chunk) in per_cell.chunks() {
                // Full structural equality: codes, dictionaries, spill
                // state, counters, and in-chunk cell order.
                prop_assert_eq!(built.chunk(coords), Some(chunk), "{} at {}", name, coords);
            }
        }
    }
    /// The arena dictionary against a `Vec<String>` interner. One string
    /// column of one chunk goes through a random script — per-cell pushes,
    /// batches (the builder cuts the batch's dictionary: `from_distinct`,
    /// then `append` remaps it into the chunk's), retractions, compactions
    /// — under a cap small enough to spill, over `string_for`'s strings
    /// (the empty one included). After every step the column is the one
    /// interning the physical rows in order gives: representation, codes,
    /// entries through `get` and `iter`, `code_of` of every entry and of
    /// an absent string (on the live dictionary and on a clone that is
    /// probed before the original is), byte size, and the
    /// encoded bytes — written here entry by entry, as the `Vec<String>`
    /// dictionary wrote them — which decode to an equal column.
    #[test]
    fn arena_dictionary_equals_a_vec_of_strings_interner(
        script in proptest::collection::vec((0u8..10, any::<u64>()), 1..60),
        cap in 1u32..9,
    ) {
        use array_model::AttributeColumn;
        let schema = ArraySchema::parse("S<s:string>[x=0:*,1000000]").unwrap();
        let encoding = StringEncoding::Dict { cap };
        let mut chunk = Chunk::with_encoding(&schema, ChunkCoords::new([0]), encoding);
        // The physical rows since the last compaction: (x, value, live).
        let mut rows: Vec<(i64, String, bool)> = Vec::new();
        let mut next_x = 0i64;
        for &(op, seed) in &script {
            match op {
                0..=3 => {
                    let value = string_for(seed);
                    let pushed = vec![ScalarValue::Str(value.clone())];
                    chunk.push_cell(&schema, vec![next_x], pushed).unwrap();
                    rows.push((next_x, value, true));
                    next_x += 1;
                }
                4..=6 => {
                    let mut batch = CellBuffer::new(&schema);
                    let mut scratch = Vec::new();
                    for i in 0..seed % 7 {
                        let value = string_for(seed.rotate_left(9 * i as u32 + 1));
                        scratch.push(ScalarValue::Str(value.clone()));
                        batch.push_row(&[next_x], &mut scratch).unwrap();
                        rows.push((next_x, value, true));
                        next_x += 1;
                    }
                    chunk.push_cells(&schema, batch).unwrap();
                }
                7 | 8 => {
                    let live: Vec<usize> = (0..rows.len()).filter(|&i| rows[i].2).collect();
                    if let Some(&i) = live.get(seed as usize % live.len().max(1)) {
                        prop_assert!(chunk.retract_cell(&[rows[i].0]).is_some());
                        rows[i].2 = false;
                    }
                }
                _ => {
                    chunk.compact();
                    rows.retain(|row| row.2);
                }
            }

            // The model: intern the physical rows in order, spilling for
            // good at the first string past the cap.
            let mut entries: Vec<&str> = Vec::new();
            let mut codes: Vec<u32> = Vec::new();
            let mut spilled = false;
            for (_, value, _) in &rows {
                match entries.iter().position(|e| e == value) {
                    Some(code) => codes.push(code as u32),
                    None if entries.len() < cap as usize => {
                        codes.push(entries.len() as u32);
                        entries.push(value);
                    }
                    None => spilled = true,
                }
                if spilled {
                    break;
                }
            }
            let live = || rows.iter().filter(|row| row.2);
            let column = chunk.column(0).unwrap();
            prop_assert_eq!(column.as_dict().is_none(), spilled);
            let mut model_bytes = durability::ByteWriter::new();
            let Some(dc) = column.as_dict() else {
                // (A spill carries tombstoned rows' payloads along until
                // the next compaction; only the all-live size is modelled.)
                if live().count() == rows.len() {
                    let plain: u64 = rows.iter().map(|row| row.1.len() as u64 + 4).sum();
                    prop_assert_eq!(chunk.byte_size(), 8 * rows.len() as u64 + plain);
                }
                continue;
            };
            let dict = dc.dict();
            prop_assert_eq!(dc.codes(), &codes[..]);
            prop_assert_eq!(dict.iter().collect::<Vec<_>>(), entries.clone());
            prop_assert_eq!((dict.len(), dict.is_empty()), (entries.len(), entries.is_empty()));
            let entry_bytes: u64 = entries.iter().map(|e| e.len() as u64 + 4).sum();
            prop_assert_eq!(dict.byte_size(), entry_bytes);
            prop_assert_eq!(chunk.byte_size(), (8 + 4) * live().count() as u64 + entry_bytes);
            // A clone is probed first: it builds its own table, from an
            // arena it did not intern into.
            let cloned = dict.clone();
            for probed in [&cloned, dict] {
                for (code, entry) in (0u32..).zip(&entries) {
                    prop_assert_eq!(probed.get(code), Some(*entry));
                    prop_assert_eq!(probed.code_of(entry), Some(code));
                }
                prop_assert_eq!(probed.get(entries.len() as u32), None);
                prop_assert_eq!(probed.code_of("never interned"), None);
            }
            model_bytes.put_u8(6);
            model_bytes.put_u32(cap);
            model_bytes.put_usize(entries.len());
            entries.iter().for_each(|e| model_bytes.put_str(e));
            model_bytes.put_usize(codes.len());
            codes.iter().for_each(|&c| model_bytes.put_u32(c));
            let model_bytes = model_bytes.into_bytes();
            let mut encoded = durability::ByteWriter::new();
            column.encode_into(&mut encoded);
            prop_assert_eq!(&encoded.into_bytes(), &model_bytes);
            let mut reader = durability::ByteReader::new(&model_bytes);
            let decoded = AttributeColumn::decode_from(&mut reader).expect("round trip");
            prop_assert_eq!(&decoded, column);
            if let Some(last) = entries.last() {
                let decoded = decoded.as_dict().expect("tag 6").dict();
                prop_assert_eq!(decoded.code_of(last), Some(entries.len() as u32 - 1));
            }
        }
    }

    /// The batch retraction kernel against its one-cell reference: a
    /// random chunk (duplicate coordinates, earlier tombstones, a
    /// dictionary string column) and a random script (hits, misses,
    /// repeats, wrong-arity cells). `match_retractions` must name the
    /// rows `retract_cell_indexed` tombstones when the script is applied
    /// cell by cell, in the same order, with the same misses;
    /// `rows_byte_cost` must price them at what the reference freed; and
    /// `tombstone_rows` must leave a chunk `==` (zone map included) to
    /// the reference's.
    #[test]
    fn batch_retraction_kernel_equals_the_one_cell_reference(
        inserts in proptest::collection::vec(any::<u64>(), 0..90),
        earlier in proptest::collection::vec(any::<u64>(), 0..20),
        script in proptest::collection::vec((0u8..8, any::<u64>()), 0..80),
        cap in 1u32..8,
    ) {
        use array_model::Chunk;
        let schema = ArraySchema::new(
            "K",
            vec![
                AttributeDef::new("s", AttributeType::Str),
                AttributeDef::new("v", AttributeType::Int32),
            ],
            vec![DimensionDef::bounded("x", 0, 5, 8), DimensionDef::bounded("y", 0, 5, 8)],
        ).unwrap();
        // A 6 x 6 grid under up to 90 inserts: duplicates are the norm.
        let cell_of = |s: u64| vec![(s % 6) as i64, (s.rotate_left(21) % 6) as i64];
        let mut chunk =
            Chunk::with_encoding(&schema, ChunkCoords::new([0i64, 0]), StringEncoding::Dict { cap });
        for &s in &inserts {
            let values = vec![ScalarValue::Str(string_for(s)), ScalarValue::Int32(s as i32)];
            chunk.push_cell(&schema, cell_of(s), values).expect("in bounds");
        }
        for &s in &earlier {
            chunk.retract_cell(&cell_of(s));
        }
        let cells: Vec<Vec<i64>> = script
            .iter()
            .map(|&(kind, s)| match kind {
                // Wrong arity: one coordinate short, or one too many.
                0 => vec![(s % 6) as i64],
                1 => vec![(s % 6) as i64, 0, 0],
                // Mostly cells of the grid (hits, then repeats, then
                // misses as duplicates run out); sometimes off it.
                2 => vec![7, (s % 6) as i64],
                _ => cell_of(s),
            })
            .collect();

        let mut reference = chunk.clone();
        let want: Vec<Option<(usize, u64)>> =
            cells.iter().map(|c| reference.retract_cell_indexed(c)).collect();

        let mut got = Vec::new();
        chunk.match_retractions(cells.iter().map(Vec::as_slice), &mut got);
        prop_assert_eq!(
            got.iter().map(|r| r.map(|row| row as usize)).collect::<Vec<_>>(),
            want.iter().map(|r| r.map(|(row, _)| row)).collect::<Vec<_>>(),
            "matched rows, in script order, misses included"
        );
        let freed: u64 = want.iter().flatten().map(|&(_, bytes)| bytes).sum();
        prop_assert_eq!(chunk.rows_byte_cost(got.iter().flatten().copied()), freed);
        let untouched = chunk.clone();
        prop_assert_eq!(&chunk, &untouched, "matching is read-only");
        prop_assert_eq!(chunk.tombstone_rows(got.iter().flatten().copied()), freed);
        prop_assert_eq!(&chunk, &reference, "same tombstones, counters and zone map");
    }
}

/// The reverse scan's worst case: every one of 50 000 rows retracted in
/// insertion order, so the one-cell reference walks the whole chunk per
/// cell (~1.25 G coordinate compares). Through the batch path it is one
/// sort; the test asserts the outcome, not a time.
#[test]
#[allow(deprecated)]
fn retracting_a_whole_chunk_in_insertion_order_is_one_pass() {
    let n = 50_000i64;
    let schema = ArraySchema::parse("L<v:double>[x=0:*,65536]").unwrap();
    let mut array = Array::new(ArrayId(0), schema);
    let mut buffer = CellBuffer::new(&array.schema);
    let mut scratch = Vec::new();
    for x in 0..n {
        scratch.push(ScalarValue::Double(x as f64));
        buffer.push_row(&[x], &mut scratch).expect("schema-shaped");
    }
    array.insert_batch_owned(buffer).expect("in bounds");
    assert_eq!(array.chunk_count(), 1);
    let before = array.byte_size();
    let script: Vec<i64> = (0..n).collect();
    let out = array.delete_cells(&script).expect("well-formed script");
    assert_eq!((out.retracted, out.missing, out.freed_bytes), (n as u64, 0, before));
    assert_eq!(array.cell_count(), 0);
    assert_eq!(array.prune_empty(), out.touched);
}
