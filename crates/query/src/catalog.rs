//! The catalog: which arrays exist and their schemas. A partitioned
//! array's chunks are not here — descriptors and cells are the cluster's,
//! each chunk one record in its placement index, its cells on the nodes
//! that own it; only a *replicated* array, which every node holds whole,
//! keeps its chunks with its registration.

use crate::error::{QueryError, Result};
use array_model::{Array, ArrayId, ArraySchema, ChunkCoords, ChunkDescriptor, ChunkKey};
use cluster_sim::{Cluster, NodeId};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One array registered with the engine.
///
/// `replicated` marks small dimension arrays (the paper's 25 MB Vessel
/// array) that live in full on every node, so reads are always local;
/// `descriptors` and `data` are where such an array's chunks are. A
/// partitioned array's chunks — descriptors and cells — are the
/// cluster's: queries read them off its placement index, and the
/// engine reads neither field of a partitioned registration.
#[derive(Debug, Clone)]
pub struct StoredArray {
    /// The array's identity.
    pub id: ArrayId,
    /// Schema (dimensions, attributes).
    pub schema: ArraySchema,
    /// A replicated array's chunk metadata, keyed by chunk position.
    /// Empty for a partitioned array in the engine and the workload
    /// runner, whose chunks are the cluster's. For a partitioned array
    /// the field stays only because the benchmark harness's ledger
    /// (`benchmark/src/ledger.rs`) files a copy of its own here.
    pub descriptors: BTreeMap<ChunkCoords, ChunkDescriptor>,
    /// The whole array's cells: a replicated array's one copy; never
    /// read by the engine otherwise (see the type docs).
    pub data: Option<Array>,
    /// Replicated to every node instead of partitioned.
    pub replicated: bool,
}

impl StoredArray {
    /// A partitioned array with metadata only.
    pub fn from_descriptors(
        id: ArrayId,
        schema: ArraySchema,
        descriptors: impl IntoIterator<Item = ChunkDescriptor>,
    ) -> Self {
        let map = descriptors.into_iter().map(|d| (d.key.coords, d)).collect();
        StoredArray { id, schema, descriptors: map, data: None, replicated: false }
    }

    /// A partitioned array with materialized cells; descriptors are
    /// derived from the data.
    pub fn from_array(array: Array) -> Self {
        let descriptors = array.descriptors().into_iter().map(|d| (d.key.coords, d)).collect();
        StoredArray {
            id: array.id,
            schema: array.schema.clone(),
            descriptors,
            data: Some(array),
            replicated: false,
        }
    }

    /// Mark the array as replicated on every node.
    pub fn replicated(mut self) -> Self {
        self.replicated = true;
        self
    }

    /// Total bytes of `descriptors`: a replicated array's size (what each
    /// node reads of a lookup join's build side).
    pub fn byte_size(&self) -> u64 {
        self.descriptors.values().map(|d| d.bytes).sum()
    }

    /// Key for a chunk of this array.
    pub fn key_for(&self, coords: &ChunkCoords) -> ChunkKey {
        ChunkKey::new(self.id, *coords)
    }

    /// Resolve an attribute name to its index.
    pub fn attribute_index(&self, name: &str) -> Result<usize> {
        self.schema
            .attribute_index(name)
            .map_err(|_| QueryError::UnknownAttribute(name.to_string()))
    }
}

/// All arrays known to the engine.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    arrays: BTreeMap<ArrayId, StoredArray>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Register (or replace) an array.
    pub fn register(&mut self, array: StoredArray) {
        self.arrays.insert(array.id, array);
    }

    /// Fetch an array.
    pub fn array(&self, id: ArrayId) -> Result<&StoredArray> {
        self.arrays.get(&id).ok_or(QueryError::UnknownArray(id))
    }

    /// Mutable fetch.
    pub fn array_mut(&mut self, id: ArrayId) -> Result<&mut StoredArray> {
        self.arrays.get_mut(&id).ok_or(QueryError::UnknownArray(id))
    }

    /// Iterate registered arrays.
    pub fn arrays(&self) -> impl Iterator<Item = &StoredArray> {
        self.arrays.values()
    }

    /// The fixture of tests and examples: store `array` partitioned —
    /// each chunk placed on the node `node_for(cluster, i, descriptor)`
    /// picks (`i` counts chunks in row-major order), its cells attached
    /// there — and register its schema only, as the workload runner
    /// does: the chunks are the cluster's. The caller keeps `array`
    /// itself as the oracle to compare answers against; chunks are
    /// shared with it, not copied.
    #[doc(hidden)]
    pub fn place_array(
        &mut self,
        cluster: &mut Cluster,
        array: &Array,
        mut node_for: impl FnMut(&Cluster, usize, &ChunkDescriptor) -> NodeId,
    ) -> cluster_sim::Result<()> {
        for (i, (_, chunk)) in array.shared_chunks().enumerate() {
            let desc = chunk.descriptor(array.id);
            let node = node_for(cluster, i, &desc);
            cluster.place(desc, node)?;
            cluster.attach_payload(desc.key, Arc::clone(chunk))?;
        }
        self.register(StoredArray::from_descriptors(array.id, array.schema.clone(), []));
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Durable codecs: a checkpoint carries every registration — schema,
// chunk metadata, and `data` where an array has it (a replicated array's
// chunks). A partitioned array's chunks are the cluster's to checkpoint,
// not the catalog's.
// ---------------------------------------------------------------------

use durability::{ascending, ByteReader, ByteWriter, CodecError};

impl StoredArray {
    /// Serialize the array registration. Descriptors are written
    /// explicitly even when `data` is present: the descriptor map also
    /// tracks metadata-only chunks (derived products) that carry no
    /// payload.
    pub fn encode_into(&self, w: &mut ByteWriter) {
        self.id.encode_into(w);
        self.schema.encode_into(w);
        w.put_bool(self.replicated);
        w.put_list(self.descriptors.values(), |w, d| d.encode_into(w));
        match &self.data {
            Some(array) => {
                w.put_bool(true);
                array.encode_into(w);
            }
            None => w.put_bool(false),
        }
    }

    /// Decode a registration written by [`StoredArray::encode_into`].
    pub fn decode_from(r: &mut ByteReader<'_>) -> std::result::Result<Self, CodecError> {
        let id = ArrayId::decode_from(r)?;
        let schema = ArraySchema::decode_from(r)?;
        let replicated = r.bool("stored array replicated flag")?;
        let mut descriptors = BTreeMap::new();
        for _ in 0..r.count("stored array descriptor count", ChunkDescriptor::MIN_ENCODED_LEN)? {
            let d = ChunkDescriptor::decode_from(r)?;
            if d.key.array != id {
                let detail = format!("descriptor for {} filed under {id:?}", d.key);
                return Err(CodecError::invalid("stored array descriptor", detail));
            }
            ascending("stored array descriptor", descriptors.keys().next_back(), &d.key.coords)?;
            descriptors.insert(d.key.coords, d);
        }
        let data = if r.bool("stored array data flag")? {
            let array = Array::decode_from(r)?;
            if array.id != id {
                let detail = format!("payload array {:?} filed under {id:?}", array.id);
                return Err(CodecError::invalid("stored array data", detail));
            }
            Some(array)
        } else {
            None
        };
        Ok(StoredArray { id, schema, descriptors, data, replicated })
    }
}

impl Catalog {
    /// Serialize every registration, in `ArrayId` order.
    pub fn encode_into(&self, w: &mut ByteWriter) {
        w.put_list(self.arrays.values(), |w, a| a.encode_into(w));
    }

    /// Decode a catalog written by [`Catalog::encode_into`].
    pub fn decode_from(r: &mut ByteReader<'_>) -> std::result::Result<Self, CodecError> {
        let mut arrays = BTreeMap::new();
        for _ in 0..r.count("catalog array count", 1)? {
            let a = StoredArray::decode_from(r)?;
            ascending("catalog array id", arrays.keys().next_back(), &a.id)?;
            arrays.insert(a.id, a);
        }
        Ok(Catalog { arrays })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use array_model::ScalarValue;

    fn small_array() -> Array {
        let schema = ArraySchema::parse("A<v:int32>[x=0:7,2, y=0:7,2]").unwrap();
        let mut a = Array::new(ArrayId(3), schema);
        for x in 0..8 {
            for y in 0..8 {
                a.insert_cell(vec![x, y], vec![ScalarValue::Int32((x * 8 + y) as i32)]).unwrap();
            }
        }
        a
    }

    #[test]
    fn from_array_derives_descriptors() {
        let stored = StoredArray::from_array(small_array());
        assert_eq!(stored.descriptors.len(), 16);
        assert_eq!(stored.byte_size(), stored.data.as_ref().unwrap().byte_size());
        assert!(!stored.replicated);
    }

    #[test]
    fn catalog_roundtrip() {
        let mut cat = Catalog::new();
        cat.register(StoredArray::from_array(small_array()));
        assert!(cat.array(ArrayId(3)).is_ok());
        assert!(matches!(cat.array(ArrayId(9)), Err(QueryError::UnknownArray(_))));
        assert_eq!(cat.arrays().count(), 1);
    }

    #[test]
    fn catalog_codec_round_trips_and_rejects_prefixes() {
        let mut cat = Catalog::new();
        cat.register(StoredArray::from_array(small_array()).replicated());
        let schema = ArraySchema::parse("M<v:double>[x=0:*,4]").unwrap();
        cat.register(StoredArray::from_descriptors(
            ArrayId(7),
            schema,
            (0..3).map(|i| {
                array_model::ChunkDescriptor::new(
                    array_model::ChunkKey::new(ArrayId(7), ChunkCoords::new([i])),
                    1000 + i as u64,
                    10,
                )
            }),
        ));
        let mut w = ByteWriter::new();
        cat.encode_into(&mut w);
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        let back = Catalog::decode_from(&mut r).expect("round trip");
        r.finish("catalog").expect("fully consumed");
        let mut w2 = ByteWriter::new();
        back.encode_into(&mut w2);
        assert_eq!(bytes, w2.into_bytes(), "codec not idempotent");
        assert!(back.array(ArrayId(3)).unwrap().replicated);
        assert_eq!(back.array(ArrayId(3)).unwrap().data.as_ref().unwrap().cell_count(), 64);
        assert_eq!(back.array(ArrayId(7)).unwrap().descriptors.len(), 3);

        for cut in (0..bytes.len()).step_by(5) {
            let mut r = ByteReader::new(&bytes[..cut]);
            assert!(Catalog::decode_from(&mut r).is_err(), "prefix {cut} accepted");
        }
    }

    #[test]
    fn attribute_lookup_errors_are_named() {
        let stored = StoredArray::from_array(small_array());
        assert_eq!(stored.attribute_index("v").unwrap(), 0);
        assert!(matches!(stored.attribute_index("w"), Err(QueryError::UnknownAttribute(_))));
    }
}
