//! Round-trip coverage for the array crate's durable codecs: every
//! serialized shape must decode `==` to the original (bit-identical
//! floats, verbatim tombstone bitmaps, dictionaries code for code), and
//! the retired plain-string layouts are refused. Hostile bytes — every
//! strict prefix of a chunk among them — are the workspace harness's
//! (`tests/hostile_bytes.rs`).

use array_model::{
    Array, ArrayId, ArraySchema, AttributeColumn, AttributeType, CellBuffer, Chunk, ChunkCoords,
    ScalarValue, ZoneMap,
};
use durability::{ByteReader, ByteWriter, CodecError};

fn encode<F: Fn(&mut ByteWriter)>(f: F) -> Vec<u8> {
    let mut w = ByteWriter::new();
    f(&mut w);
    w.into_bytes()
}

#[test]
fn schema_round_trips_structurally() {
    for text in [
        "A<i:int32, j:float>[x=1:4,2, y=1:4,2]",
        "T<v:double, s:string, c:char, l:int64>[t=0:*,100]",
        "M<ndvi:double>[x=0:9999,100, y=0:9999,100, day=0:*,1]",
    ] {
        let schema = ArraySchema::parse(text).unwrap();
        let bytes = encode(|w| schema.encode_into(w));
        let mut r = ByteReader::new(&bytes);
        let back = ArraySchema::decode_from(&mut r).unwrap();
        r.finish("schema tail").unwrap();
        assert_eq!(back, schema);
    }
}

#[test]
fn chunk_coords_round_trip_and_reject_bad_arity() {
    for dims in 0..=8usize {
        let coords =
            ChunkCoords::from_slice(&(0..dims as i64).map(|d| d * 3 - 5).collect::<Vec<_>>());
        let bytes = encode(|w| coords.encode_into(w));
        let mut r = ByteReader::new(&bytes);
        assert_eq!(ChunkCoords::decode_from(&mut r).unwrap(), coords);
    }
    // A length byte above MAX_DIMS is invalid, not a panic.
    let mut r = ByteReader::new(&[9]);
    assert!(matches!(ChunkCoords::decode_from(&mut r), Err(CodecError::Invalid { .. })));
}

#[test]
fn scalar_values_round_trip_bit_exactly() {
    let values = [
        ScalarValue::Int32(-7),
        ScalarValue::Int64(i64::MIN),
        ScalarValue::Float(-0.0),
        ScalarValue::Float(f32::NAN),
        ScalarValue::Double(f64::INFINITY),
        ScalarValue::Double(-0.0),
        ScalarValue::Char(b'\0'),
        ScalarValue::Str("héllo wörld".into()),
        ScalarValue::Str(String::new()),
    ];
    for v in &values {
        let bytes = encode(|w| v.encode_into(w));
        let mut r = ByteReader::new(&bytes);
        let back = ScalarValue::decode_from(&mut r).unwrap();
        // Compare bit patterns, not PartialEq — NaN != NaN.
        match (&back, v) {
            (ScalarValue::Float(a), ScalarValue::Float(b)) => {
                assert_eq!(a.to_bits(), b.to_bits())
            }
            (ScalarValue::Double(a), ScalarValue::Double(b)) => {
                assert_eq!(a.to_bits(), b.to_bits())
            }
            _ => assert_eq!(&back, v),
        }
    }
    let mut r = ByteReader::new(&[99]);
    assert!(matches!(ScalarValue::decode_from(&mut r), Err(CodecError::Invalid { .. })));
}

fn str_column(vals: &[&str]) -> AttributeColumn {
    let mut col = AttributeColumn::new(AttributeType::Str);
    for v in vals {
        col.push(ScalarValue::Str((*v).into())).unwrap();
    }
    col
}

#[test]
fn columns_round_trip_preserving_physical_representation() {
    let mut cases = vec![
        AttributeColumn::Int32(vec![1, -2, i32::MAX]),
        AttributeColumn::Int64(vec![i64::MIN, 0]),
        AttributeColumn::Float(vec![1.5, -0.0]),
        AttributeColumn::Double(vec![f64::MAX, f64::MIN_POSITIVE]),
        AttributeColumn::Char(vec![0, 255, b'x']),
        str_column(&["a", "", "a"]),
        str_column(&["a", "b", "a", ""]),
    ];
    cases.push(AttributeColumn::new(AttributeType::Str)); // empty dict column
    for col in &cases {
        let bytes = encode(|w| col.encode_into(w));
        let mut r = ByteReader::new(&bytes);
        let back = AttributeColumn::decode_from(&mut r).unwrap();
        r.finish("column tail").unwrap();
        assert_eq!(&back, col);
        assert_eq!(back.byte_size(), col.byte_size());
    }
    // A dictionary code past the dictionary is invalid.
    let good = str_column(&["a"]);
    let mut bytes = encode(|w| good.encode_into(w));
    let n = bytes.len();
    bytes[n - 4..].copy_from_slice(&7u32.to_le_bytes()); // last code -> 7
    let mut r = ByteReader::new(&bytes);
    assert!(matches!(AttributeColumn::decode_from(&mut r), Err(CodecError::Invalid { .. })));
}

fn sample_chunk(tombstone: bool) -> Chunk {
    let schema = ArraySchema::parse("A<i:int32, s:string>[x=1:8,8, y=1:8,8]").unwrap();
    let mut c = Chunk::new(&schema, ChunkCoords::new([0, 0]));
    for (k, v) in ["a", "b", "c", "a"].iter().enumerate() {
        let x = k as i64 + 1;
        c.push_cell(
            &schema,
            vec![x, x],
            vec![ScalarValue::Int32(k as i32), ScalarValue::Str((*v).to_string())],
        )
        .unwrap();
    }
    if tombstone {
        assert!(c.retract_cell(&[2, 2]).is_some());
    }
    c
}

#[test]
fn chunks_round_trip_including_tombstones() {
    for tombstone in [false, true] {
        let chunk = sample_chunk(tombstone);
        let bytes = encode(|w| chunk.encode_into(w));
        let mut r = ByteReader::new(&bytes);
        let back = Chunk::decode_from(&mut r).unwrap();
        r.finish("chunk tail").unwrap();
        assert_eq!(back, chunk, "tombstone {tombstone}");
        assert_eq!(back.byte_size(), chunk.byte_size());
        assert_eq!(back.cell_count(), chunk.cell_count());
        assert_eq!(back.tombstone_count(), chunk.tombstone_count());
    }
}

/// Plain string storage is gone: a column under its tag (5) and a zone
/// map entry under its string tag (3) are typed errors, not a panic and
/// not a column.
#[test]
fn the_retired_plain_string_layouts_are_refused() {
    let plain_column = encode(|w| {
        w.put_u8(5);
        w.put_list(["a", "", "a"], |w, s| w.put_str(s));
    });
    let mut r = ByteReader::new(&plain_column);
    let err = AttributeColumn::decode_from(&mut r).unwrap_err();
    assert!(matches!(err, CodecError::Invalid { context: "column tag", .. }), "{err}");

    let plain_zone = encode(|w| {
        w.put_list([(0i64, 7i64)], |w, (min, max)| {
            w.put_i64(min);
            w.put_i64(max);
        });
        w.put_list([3u8], |w, tag| w.put_u8(tag));
    });
    let mut r = ByteReader::new(&plain_zone);
    let err = ZoneMap::decode_from(&mut r).unwrap_err();
    assert!(matches!(err, CodecError::Invalid { context: "zone map attr tag", .. }), "{err}");

    // Today's layouts decode: the refusal is the retired tags'.
    let dict_column = encode(|w| str_column(&["a", "", "a"]).encode_into(w));
    assert!(AttributeColumn::decode_from(&mut ByteReader::new(&dict_column)).is_ok());
    let dict_zone = encode(|w| {
        w.put_list([(0i64, 7i64)], |w, (min, max)| {
            w.put_i64(min);
            w.put_i64(max);
        });
        w.put_list([(2u8, 2u32)], |w, (tag, distinct)| {
            w.put_u8(tag);
            w.put_u32(distinct);
        });
    });
    assert!(ZoneMap::decode_from(&mut ByteReader::new(&dict_zone)).is_ok());
}

#[test]
fn arrays_round_trip_with_all_their_chunks() {
    let schema = ArraySchema::parse("A<i:int32, s:string>[x=1:8,2, y=1:8,2]").unwrap();
    let mut a = Array::new(ArrayId(3), schema);
    for k in 0..8i64 {
        a.insert_cell(
            vec![k + 1, (k % 4) + 1],
            vec![ScalarValue::Int32(k as i32), ScalarValue::Str(format!("tag{}", k % 3))],
        )
        .unwrap();
    }
    a.delete_cells(&[1, 1]).unwrap();
    let bytes = encode(|w| a.encode_into(w));
    let mut r = ByteReader::new(&bytes);
    let back = Array::decode_from(&mut r).unwrap();
    r.finish("array tail").unwrap();
    assert_eq!(back.id, a.id);
    assert_eq!(back.schema, a.schema);
    assert_eq!(back.chunk_count(), a.chunk_count());
    assert_eq!(back.cell_count(), a.cell_count());
    assert_eq!(back.byte_size(), a.byte_size());
    for ((ca, a_chunk), (cb, b_chunk)) in a.chunks().zip(back.chunks()) {
        assert_eq!(ca, cb);
        assert_eq!(a_chunk, b_chunk);
    }
}

#[test]
fn cell_buffers_round_trip_with_retractions() {
    let schema = ArraySchema::parse("C<v:double, s:string>[x=0:*,64]").unwrap();
    let mut buf = CellBuffer::new(&schema);
    let mut scratch = Vec::new();
    for k in 0..10i64 {
        scratch
            .extend([ScalarValue::Double(k as f64 * 0.5), ScalarValue::Str(format!("t{}", k % 4))]);
        buf.push_row(&[k], &mut scratch).unwrap();
    }
    buf.push_retraction(&[2]).unwrap();
    buf.push_retraction(&[4]).unwrap();
    let bytes = encode(|w| buf.encode_into(w));
    let mut r = ByteReader::new(&bytes);
    let back = CellBuffer::decode_from(&mut r).unwrap();
    r.finish("batch tail").unwrap();
    assert_eq!(back, buf);
    assert_eq!(back.retractions_flat(), buf.retractions_flat());
    assert_eq!(back.rows(), buf.rows());
}
