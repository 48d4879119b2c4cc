//! # array-model
//!
//! The array data-model substrate for the *Incremental Elasticity for Array
//! Databases* reproduction: SciDB-style multidimensional arrays with named
//! dimensions, typed attributes, vertically-partitioned sparse chunks, and
//! Hilbert space-filling curves over chunk space.
//!
//! The types here are deliberately split between **materialized** storage
//! ([`Chunk`], [`Array`]) used by tests, examples, and small-scale query
//! execution, and **metadata** ([`ChunkDescriptor`]) used by partitioners
//! and the cluster simulator at paper scale (hundreds of gigabytes), where
//! only byte sizes and positions matter.
//!
//! ```
//! use array_model::{Array, ArrayId, ArraySchema, ScalarValue};
//!
//! let schema = ArraySchema::parse("A<i:int32, j:float>[x=1:4,2, y=1:4,2]").unwrap();
//! let mut array = Array::new(ArrayId(0), schema);
//! array.insert_cell(vec![1, 1], vec![ScalarValue::Int32(1), ScalarValue::Float(1.3)]).unwrap();
//! assert_eq!(array.chunk_count(), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod array;
mod cells;
mod chunk;
mod coords;
mod delta;
mod error;
mod hilbert;
mod schema;
mod value;
pub mod zone;

#[allow(deprecated)]
pub use array::StringEncoding;
pub use array::{Array, RetractOutcome};
pub use cells::{CellBuffer, RowGroups, ScriptGroup, ScriptGroups, ScriptMatch};
pub use chunk::{ArrayId, Chunk, ChunkDescriptor, ChunkKey};
pub use coords::{all_chunks, chunk_of, CellCoords, ChunkCoords, Region, MAX_DIMS};
pub use delta::{DeltaSet, RowDelta};
pub use error::{ArrayError, Result};
pub use hilbert::{gilbert2d, hilbert_coords, hilbert_index, HilbertOrder};
pub use schema::{ArraySchema, AttributeDef, DimensionDef};
pub use value::{AttributeColumn, AttributeType, DictColumn, ScalarValue, StringDict};
pub use zone::{AttrZone, DimZone, ZoneMap};
