//! Proves the ingest routing path is allocation-free.
//!
//! A counting global allocator wraps the system allocator; the test warms
//! up every structure, then drives the route → place-decision → census
//! loop and asserts the heap was never touched. Storage bookkeeping
//! (descriptor admission into a node's B-tree) is measured separately and
//! must stay amortized — container growth only, not per-chunk.

use elastic_array_db::array::chunk_of;
use elastic_array_db::cluster::Slot;
use elastic_array_db::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocations made **by this thread**. The harness runs every test
    /// on its own thread, alongside the others, so a process-wide counter
    /// charges each test with its neighbours' heap traffic. Const-
    /// initialised and destructor-free: reading or bumping it inside the
    /// allocator never allocates and never registers a TLS destructor.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

thread_local! {
    /// Bytes this thread has asked for, and bytes it has handed back
    /// (a `realloc` hands back the old size and asks for the new one).
    static BYTES_ALLOCATED: Cell<usize> = const { Cell::new(0) };
    static BYTES_FREED: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn count_bytes(allocated: usize, freed: usize) {
    let _ = BYTES_ALLOCATED.try_with(|n| n.set(n.get() + allocated));
    let _ = BYTES_FREED.try_with(|n| n.set(n.get() + freed));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        count_bytes(layout.size(), 0);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_bytes(0, layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        count_bytes(new_size, layout.size());
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations the calling (measuring) thread has made so far.
fn allocation_count() -> usize {
    ALLOCATIONS.with(Cell::get)
}

/// `(allocated, freed)` bytes of the calling thread so far.
fn byte_counts() -> (usize, usize) {
    (BYTES_ALLOCATED.with(Cell::get), BYTES_FREED.with(Cell::get))
}

fn schema_3d() -> ArraySchema {
    ArraySchema::parse("A<v:double>[t=0:*,16, x=0:511,16, y=0:511,16]").unwrap()
}

/// Build one partitioner of each stateless-placement kind (their `place`
/// consults a table without recording anything, so the decision itself
/// must be allocation-free).
fn stateless_kinds() -> Vec<PartitionerKind> {
    vec![
        PartitionerKind::ConsistentHash,
        PartitionerKind::ExtendibleHash,
        PartitionerKind::HilbertCurve,
        PartitionerKind::IncrementalQuadtree,
        PartitionerKind::KdTree,
        PartitionerKind::UniformRange,
    ]
}

#[test]
fn routing_path_never_allocates() {
    let schema = schema_3d();
    let cluster = Cluster::new(8, u64::MAX, CostModel::default()).unwrap();
    let grid = GridHint::new(vec![64, 32, 32]);
    let partitioners: Vec<_> = stateless_kinds()
        .into_iter()
        .map(|kind| build_partitioner(kind, &cluster, &grid, &PartitionerConfig::default()))
        .collect();

    // Warm-up pass: fault in lazily initialized state, then measure.
    let mut sink = 0u64;
    for round in 0..2 {
        let start = allocation_count();
        for i in 0..10_000i64 {
            let cell = [(i % 64) * 16, ((i / 64) % 32) * 16, ((i / 2048) % 32) * 16];
            let coords = chunk_of(&schema, &cell).expect("in bounds");
            let key = ChunkKey::new(ArrayId(0), coords);
            let desc = ChunkDescriptor::new(key, 1024, 16);
            for p in &partitioners {
                sink = sink.wrapping_add(p.locate(&desc.key).map_or(0, |n| u64::from(n.0)));
            }
            sink = sink.wrapping_add(cluster.balance_rsd() as u64);
        }
        let allocs = allocation_count() - start;
        if round == 1 {
            assert_eq!(
                allocs,
                0,
                "routing 10k chunks through {} partitioners allocated {allocs} times",
                partitioners.len()
            );
        }
    }
    assert!(sink != u64::MAX, "keep the loop observable");
}

/// `ExecutionContext::node_of` is the per-chunk lookup every query
/// operator runs; both its hit path and its miss path (which used to
/// build the `Unplaced` error string eagerly via `key.to_string()`) must
/// be allocation-free — the error now carries the `Copy` key and renders
/// lazily.
#[test]
fn query_node_of_lookup_never_allocates() {
    let mut cluster = Cluster::new(4, u64::MAX, CostModel::default()).unwrap();
    assert!(cluster.register_array(ArrayId(0), &[32, 32]));
    let schema = ArraySchema::parse("A<v:double>[x=0:511,16, y=0:511,16]").unwrap();
    let mut descs = Vec::new();
    for x in 0..32i64 {
        for y in 0..32i64 {
            let key = ChunkKey::new(ArrayId(0), ChunkCoords::new([x, y]));
            let desc = ChunkDescriptor::new(key, 100, 1);
            cluster.place(desc, NodeId(((x + y) % 4) as u32)).unwrap();
            descs.push(desc);
        }
    }
    let mut catalog = Catalog::new();
    catalog.register(StoredArray::from_descriptors(ArrayId(0), schema, descs));
    let ctx = ExecutionContext::new(&cluster, &catalog);
    let array = catalog.array(ArrayId(0)).unwrap();

    let mut sink = 0u64;
    for round in 0..2 {
        let start = allocation_count();
        for i in 0..10_000i64 {
            // Hit path: a placed chunk.
            let hit = ChunkCoords::new([i % 32, (i / 32) % 32]);
            sink ^= ctx.node_of(array, &hit, None).map_or(0, |n| u64::from(n.0));
            // Miss path: past the registered extents, never placed.
            let miss = ChunkCoords::new([64 + (i % 8), 0]);
            if ctx.node_of(array, &miss, None).is_err() {
                sink = sink.wrapping_add(1);
            }
        }
        let allocs = allocation_count() - start;
        if round == 1 {
            assert_eq!(allocs, 0, "20k node_of lookups allocated {allocs} times");
        }
    }
    assert!(sink != u64::MAX, "keep the loop observable");
}

/// The payload read every cell-exact operator runs per chunk: one probe
/// of the primary's record, at k = 2 as at k = 1 (a holder serves that
/// same record, so there is no replica path to walk), allocation-free
/// like the routing lookup above.
#[test]
fn payload_reads_never_allocate() {
    use elastic_array_db::array::Chunk;

    let mut cluster = Cluster::with_replication(4, u64::MAX, CostModel::default(), 2).unwrap();
    assert!(cluster.register_array(ArrayId(0), &[32, 32]));
    let schema = ArraySchema::parse("A<v:int32>[x=0:511,16, y=0:511,16]").unwrap();
    let mut descs = Vec::new();
    for x in 0..32i64 {
        for y in 0..32i64 {
            let coords = ChunkCoords::new([x, y]);
            let mut chunk = Chunk::new(&schema, coords);
            chunk.push_cell(&schema, vec![x * 16, y * 16], vec![ScalarValue::Int32(1)]).unwrap();
            let desc = chunk.descriptor(ArrayId(0));
            cluster.place(desc, NodeId(((x + y) % 4) as u32)).unwrap();
            cluster.attach_payload(desc.key, chunk).unwrap();
            descs.push(desc);
        }
    }
    let mut catalog = Catalog::new();
    // Store-only: no whole-array oracle to hide behind.
    catalog.register(StoredArray::from_descriptors(ArrayId(0), schema, descs));
    let ctx = ExecutionContext::new(&cluster, &catalog);
    let array = catalog.array(ArrayId(0)).unwrap();

    let (mut cells, mut routed) = (0u64, 0u64);
    for round in 0..2 {
        let start = allocation_count();
        for i in 0..10_000i64 {
            let coords = ChunkCoords::new([i % 32, (i / 32) % 32]);
            cells += ctx.chunk_payload(array, &coords).map_or(0, |c| c.cell_count());
            routed += u64::from(ctx.node_of(array, &coords, None).is_ok());
        }
        let allocs = allocation_count() - start;
        if round == 1 {
            assert_eq!(allocs, 0, "10k payload reads allocated {allocs} times");
        }
    }
    assert_eq!((cells, routed), (20_000, 20_000), "every read found its chunk's one cell");
}

/// The replica census is a value the cluster keeps (`cluster/census.rs`):
/// reading it folds k + 1 counters and one pass over the roster, so the
/// per-cycle report may ask for it however many chunks are placed and in
/// whatever state the roster is. The walk it replaced built and sorted a
/// `Vec` of every placement — at least one allocation per call.
#[test]
fn replica_census_never_allocates() {
    let mut cluster = Cluster::with_replication(5, u64::MAX, CostModel::default(), 2).unwrap();
    assert!(cluster.register_array(ArrayId(0), &[100, 100]));
    for i in 0..10_000i64 {
        let key = ChunkKey::new(ArrayId(0), ChunkCoords::new([i / 100, i % 100]));
        cluster.place(ChunkDescriptor::new(key, 100, 1), NodeId((i % 5) as u32)).unwrap();
    }
    assert!(cluster.replica_census().is_full_strength());
    // One node down: its primaries were promoted onto their replicas and
    // its replicas are gone, so about two chunks in five are a copy short.
    let crash = cluster.crash_node(NodeId(3)).unwrap();
    let short = crash.promoted + crash.dropped_replicas;
    assert!(crash.lost.is_empty() && short > 3_000);

    let start = allocation_count();
    let mut under = 0;
    for _ in 0..1_000 {
        let census = cluster.replica_census();
        under += census.under_replicated();
        assert_eq!(census.full + census.under + census.lost, 10_000);
    }
    let allocs = allocation_count() - start;
    assert_eq!(allocs, 0, "1k censuses of 10k chunks allocated {allocs} times");
    assert_eq!(under, 1_000 * short, "every chunk that had a copy on the wreck");
    assert_eq!(cluster.replica_census().lost, 0);
}

/// The materialized (cell-level) ingest path must be allocation-**lean**:
/// O(1) amortized allocations per *row*. The old pipeline allocated two
/// `Vec`s per cell (coordinates + values) before a row ever reached its
/// chunk; the flat-batch path moves columns, so heap traffic scales with
/// *chunks* (plus amortized buffer growth), not rows. Separately, the
/// payload-attach phase must do zero chunk deep-copies: attaching is an
/// `Arc` refcount bump plus one map insert, so its allocation budget is
/// a small constant per chunk — a deep copy would cost at least one
/// allocation per column per chunk (here 1 coord buffer + 3 columns) and
/// blow the bound.
#[test]
fn materialized_flat_ingest_allocations_are_amortized_per_row() {
    use std::sync::Arc;

    let rows_n: i64 = 100_000;
    // 3 attributes, fixed-width only (strings inherently allocate their
    // payloads); 16x16 spatial grid over 64-cell time chunks.
    let schema =
        ArraySchema::parse("M<v:double, q:int32, flag:char>[t=0:*,64, x=0:255,16, y=0:255,16]")
            .unwrap();
    let mut cluster = Cluster::new(8, u64::MAX, CostModel::default()).unwrap();
    assert!(cluster.register_array(ArrayId(0), &[64, 16, 16]));
    let grid = GridHint::new(vec![64, 16, 16]);
    let mut partitioner = build_partitioner(
        PartitionerKind::HilbertCurve,
        &cluster,
        &grid,
        &PartitionerConfig::default(),
    );

    // Emit the flat batch (generation may allocate — untracked).
    let mut batch = CellBuffer::new(&schema);
    let mut vals: Vec<ScalarValue> = Vec::with_capacity(3);
    for i in 0..rows_n {
        let s = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let cell = [(s % 8) as i64 * 64, (i % 256), ((i / 256) % 256)];
        vals.extend([
            ScalarValue::Double(i as f64 * 0.5),
            ScalarValue::Int32(i as i32),
            ScalarValue::Char(b'a' + (i % 26) as u8),
        ]);
        batch.push_row(&cell, &mut vals).expect("schema-shaped row");
    }

    // Measured: the whole materialized pipeline — batch validation +
    // routing + chunk build + descriptor derivation + batched
    // placement + payload attach.
    let build_start = allocation_count();
    let mut array = Array::new(ArrayId(0), schema);
    array.insert_batch_owned(batch).expect("in bounds");
    let descriptors = array.descriptors();
    let build_allocs = allocation_count() - build_start;

    let chunks = descriptors.len();
    assert!(chunks >= 256, "want a real chunk population, got {chunks}");
    assert_eq!(array.cell_count(), rows_n as u64);
    assert!(
        (build_allocs as i64) < rows_n / 4,
        "building {rows_n} rows into {chunks} chunks allocated {build_allocs} times \
         — not O(1) amortized per row"
    );

    let place_start = allocation_count();
    let prefix = batch_prefix_bytes(&descriptors);
    let epoch = RouteEpoch::for_batch(&cluster, &prefix);
    let routes = route_all(partitioner.as_ref(), &descriptors, &epoch);
    cluster.place_all(&descriptors, &routes).expect("unique chunks");
    partitioner.commit(&descriptors, &routes);
    let place_allocs = allocation_count() - place_start;
    assert!(
        (place_allocs as i64) < rows_n / 4,
        "placing {chunks} chunk descriptors allocated {place_allocs} times"
    );

    // Attach phase in isolation: a refcount bump + map insert per chunk.
    // A deep copy would need >= 4 allocations per chunk (coords + 3
    // columns) and fail this budget.
    let attach_start = allocation_count();
    for (coords, chunk) in array.into_chunks() {
        cluster
            .attach_payload(ChunkKey::new(ArrayId(0), coords), Arc::clone(&chunk))
            .expect("placed above");
    }
    let attach_allocs = allocation_count() - attach_start;
    assert!(cluster.placements().all(|(key, _)| cluster.payload(&key).is_some()));
    assert!(
        attach_allocs < 3 * chunks,
        "attaching {chunks} payloads allocated {attach_allocs} times — \
         that is a deep copy, not an Arc share"
    );
}

/// The dictionary-encoded string scatter must be allocation-lean like
/// the fixed-width path: O(1) **amortized** allocations per row, with
/// **zero per-value `String` allocations** for under-cap columns. A
/// buffered string row is a `u32` code; scattering it into its chunk is
/// a code copy through a per-chunk remap table, so heap traffic scales
/// with `chunks × distinct strings` (dictionary clones + remap tables +
/// amortized buffer growth), never with rows. The plain-encoded build of
/// the very same rows allocates at least one `String` per value — the
/// contrast leg pins that the budget below is only meetable because the
/// dictionary path really does skip per-row string work.
#[test]
fn dict_scatter_allocations_are_amortized_and_string_free() {
    use elastic_array_db::array::StringEncoding;

    let rows_n: i64 = 100_000;
    // Two string attributes, 32 distinct values each (far under the
    // cap), over a geometry that lands the batch in 64 chunks.
    let schema =
        ArraySchema::parse("D<recv:string, tag:string, v:int32>[t=0:*,64, x=0:255,32, y=0:255,32]")
            .unwrap();
    let emit = |encoding: StringEncoding| {
        let mut batch = CellBuffer::with_encoding(&schema, encoding);
        let mut vals: Vec<ScalarValue> = Vec::with_capacity(3);
        for i in 0..rows_n {
            let cell = [(i % 64), (i % 256), ((i / 256) % 256)];
            vals.extend([
                ScalarValue::Str(format!("r{:03}", i % 32)),
                ScalarValue::Str(format!("tag-{}", (i / 7) % 32)),
                ScalarValue::Int32(i as i32),
            ]);
            batch.push_row(&cell, &mut vals).expect("schema-shaped row");
        }
        batch
    };

    // Dictionary leg: transport-encoded batch into dictionary chunks.
    let batch = emit(StringEncoding::transport());
    let start = allocation_count();
    let mut array = Array::new(ArrayId(0), schema.clone());
    array.insert_batch_owned(batch).expect("in bounds");
    let dict_allocs = allocation_count() - start;
    let chunks = array.chunk_count() as i64;
    assert_eq!(array.cell_count(), rows_n as u64);
    assert!(chunks >= 64, "want a real chunk population, got {chunks}");
    assert!(
        (dict_allocs as i64) < rows_n / 8,
        "dict-encoded scatter of {rows_n} rows into {chunks} chunks allocated \
         {dict_allocs} times — not O(1) amortized per row"
    );
    // Per-value string allocations would cost >= 2 x rows on their own;
    // the whole build must fit in a chunks-and-cardinality budget
    // (2 string columns x (32 dictionary clones + map/table growth) plus
    // per-chunk buffers), which per-row traffic would blow instantly.
    assert!(
        (dict_allocs as i64) < chunks * 120,
        "{dict_allocs} allocations exceed the per-chunk dictionary budget \
         ({chunks} chunks) — something on the scatter path allocates per row"
    );

    // Contrast leg: the plain build of the same rows pays one String
    // move per value — its buffer alone holds 2 x rows Strings, so
    // emitting + building allocates per value. (Emission is included
    // here: a plain CellBuffer cannot intern, so the per-value
    // allocations happen there and are *moved* into the chunks.)
    let start = allocation_count();
    let plain_batch = emit(StringEncoding::Plain);
    let mut plain_array = Array::with_encoding(ArrayId(1), schema.clone(), StringEncoding::Plain);
    plain_array.insert_batch_owned(plain_batch).expect("in bounds");
    let plain_allocs = allocation_count() - start;
    assert_eq!(plain_array.cell_count(), rows_n as u64);
    assert!(
        (plain_allocs as i64) >= 2 * rows_n,
        "plain strings should allocate per value (got {plain_allocs} for {rows_n} rows); \
         if this starts passing, the contrast leg no longer proves anything"
    );
}

/// The chunk build allocates **per chunk**, and what it holds per *row*
/// while it runs is two `u32`s: a group id and the row's slot in the
/// group-major order. (It used to route every row to an inline 72-byte
/// `ChunkCoords` first — more than the row becomes inside its chunk.)
#[test]
fn chunk_build_allocates_per_chunk_and_keeps_eight_bytes_per_row() {
    let rows_n: i64 = 100_000;
    // Ten fixed-width attributes, AIS-shaped; 8 x 8 x 8 chunks.
    let schema = ArraySchema::parse(
        "B<a:int32, b:int32, c:int32, d:int32, e:int32, f:int64, g:int64, h:char, \
         i:double, j:float>[t=0:*,64, x=0:255,32, y=0:255,32]",
    )
    .unwrap();
    let columns = schema.attributes.len();
    let mut batch = CellBuffer::new(&schema);
    let mut vals: Vec<ScalarValue> = Vec::with_capacity(columns);
    for i in 0..rows_n {
        let s = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let cell = [(s % 8) as i64 * 64, (i % 256), ((i / 256) % 256)];
        vals.extend((0..5).map(|k| ScalarValue::Int32(i as i32 + k)));
        vals.extend([
            ScalarValue::Int64(i),
            ScalarValue::Int64(-i),
            ScalarValue::Char(b'a' + (i % 26) as u8),
            ScalarValue::Double(i as f64 * 0.5),
            ScalarValue::Float(i as f32),
        ]);
        batch.push_row(&cell, &mut vals).expect("schema-shaped row");
    }

    // The build consumes a clone of the batch and frees it when done.
    // The clone's own calls and bytes are counted apart and taken out, so
    // every byte left freed was the build's own scratch.
    let mut array = Array::new(ArrayId(0), schema);
    let (calls_before, (allocated_before, freed_before)) = (allocation_count(), byte_counts());
    let owned = batch.clone();
    let clone_calls = allocation_count() - calls_before;
    let clone_bytes = byte_counts().0 - allocated_before;
    array.insert_batch_owned(owned).expect("in bounds");
    let (calls, (allocated, freed)) = (allocation_count(), byte_counts());
    let calls = calls - calls_before - clone_calls;
    let allocated = allocated - allocated_before - clone_bytes;
    let transient = freed - freed_before - clone_bytes;
    let held = allocated - transient;

    let chunks = array.chunk_count();
    assert!(chunks >= 256, "want a real chunk population, got {chunks}");
    assert_eq!(array.cell_count(), rows_n as u64);
    assert!(held as u64 >= array.byte_size(), "the array holds at least its own payload");
    assert!(
        calls <= chunks * (columns + 6) + 64,
        "building {rows_n} rows into {chunks} chunks of {columns} columns allocated {calls} \
         times; the budget is {columns} + 6 per chunk (its buffers, zone map, column list, \
         handle and map slot) plus 64 for the grouping (the scatter kernel: 8 804 for 512 \
         chunks — it built every zone map twice)"
    );
    assert!(
        transient <= 16 * rows_n as usize,
        "the build freed {transient} bytes of its own scratch for {rows_n} rows, {} a row; the \
         budget is 16 (a 4-byte group id and a 4-byte order slot per row, the rest per chunk). \
         The scatter kernel freed 80 a row (8 023 632 in all): a 72-byte routed `ChunkCoords` \
         and a 4-byte group id each, the rest per chunk",
        transient / rows_n as usize
    );
}

/// A chunk's dictionary is cut out of the batch's in one piece: one text
/// arena and one offset list, each sized once — no `String` per entry,
/// and no probe table until something looks a string up.
#[test]
fn chunk_dictionaries_are_sized_once() {
    let rows_n: i64 = 100_000;
    let distinct: usize = 32;
    // Two string attributes of 32 values each, every chunk sees them all.
    let schema =
        ArraySchema::parse("D<recv:string, tag:string, v:int32>[t=0:*,64, x=0:255,32, y=0:255,32]")
            .unwrap();
    let mut batch = CellBuffer::new(&schema);
    let mut vals: Vec<ScalarValue> = Vec::with_capacity(3);
    for i in 0..rows_n {
        let cell = [(i % 64), (i % 256), ((i / 256) % 256)];
        vals.extend([
            ScalarValue::Str(format!("r{:03}", i as usize % distinct)),
            ScalarValue::Str(format!("tag-{}", (i as usize / 7) % distinct)),
            ScalarValue::Int32(i as i32),
        ]);
        batch.push_row(&cell, &mut vals).expect("schema-shaped row");
    }
    let start = allocation_count();
    let mut array = Array::new(ArrayId(0), schema);
    array.insert_batch_owned(batch).expect("in bounds");
    let calls = allocation_count() - start;
    let chunks = array.chunk_count();
    assert_eq!(chunks, 64);
    assert_eq!(array.cell_count(), rows_n as u64);
    // Per chunk: 3 columns + 6 as for any build, and per dictionary its
    // arena and its offsets.
    let budget = chunks * (3 + 6 + 2 * 2) + 64;
    assert!(
        calls <= budget,
        "building {chunks} chunks with two {distinct}-string dictionaries each allocated \
         {calls} times, budget {budget}: zero per-value `String`s under the cap ({rows_n} rows \
         would cost 200 000), zero per-entry ones (a `String` per entry plus an index table \
         per dictionary: 5 184 in all) and no table before a lookup"
    );
    // The first lookup builds the table: a third allocation, and its box.
    let chunk = array.chunks().next().expect("64 chunks").1;
    let dict = chunk.column(0).and_then(|c| c.as_dict()).expect("under the cap").dict();
    let start = allocation_count();
    assert_eq!(dict.code_of("r007"), Some(7));
    assert_eq!(allocation_count() - start, 2, "the probe table, sized once, and its box");
    let start = allocation_count();
    assert_eq!(dict.code_of("r031"), Some(31));
    assert_eq!(dict.code_of("absent"), None);
    assert_eq!(allocation_count() - start, 0, "later lookups reuse it");
}

/// Delta extraction refills kept buffers: the first fill sizes them
/// (exactly — three allocations), every later one of no more rows
/// allocates nothing, whether it lists a chunk's live rows or the rows a
/// script matched. The per-row form pushed one value at a time through
/// three growing buffers, four fresh ones a cycle.
#[test]
fn a_refilled_delta_allocates_nothing() {
    use array_model::DeltaSet;

    let (n, per_chunk) = (40_000i64, 1_000i64);
    let schema =
        ArraySchema::parse(&format!("S<id:int64, v:double, q:int32>[x=0:*,{per_chunk}, y=0:7,8]"))
            .unwrap();
    let mut batch = CellBuffer::new(&schema);
    let mut vals: Vec<ScalarValue> = Vec::with_capacity(3);
    for x in 0..n {
        vals.extend([
            ScalarValue::Int64(x * 7),
            ScalarValue::Double(x as f64 * 0.5),
            ScalarValue::Int32(x as i32),
        ]);
        batch.push_row(&[x, x % 8], &mut vals).expect("schema-shaped row");
    }
    let mut array = Array::new(ArrayId(0), schema);
    array.insert_batch_owned(batch).expect("in bounds");
    assert_eq!(array.chunk_count(), (n / per_chunk) as usize);

    let mut delta = DeltaSet::new();
    let start = allocation_count();
    delta.extend_live_cells(&array);
    let first = allocation_count() - start;
    assert_eq!(delta.len(), n as usize);
    assert_eq!(first, 3, "coordinates, values and row ends, each sized once");

    delta.clear();
    let start = allocation_count();
    delta.extend_live_cells(&array);
    assert_eq!(allocation_count() - start, 0, "the second cycle's extraction allocated");
    assert_eq!(delta.len(), n as usize);

    delta.clear();
    let start = allocation_count();
    for (_, chunk) in array.chunks() {
        let matched = [Some(3u32), None, Some(999), Some(3)];
        delta.extend_from_chunk(chunk, matched.iter().flatten().copied(), -1);
    }
    assert_eq!(allocation_count() - start, 0, "a retraction capture into kept buffers allocated");
    assert_eq!((delta.len(), delta.net_weight()), (3 * 40, -3 * 40));
}

#[test]
fn dense_placement_insert_is_allocation_free_after_warmup() {
    let mut cluster = Cluster::new(8, u64::MAX, CostModel::default()).unwrap();
    assert!(cluster.register_array(ArrayId(0), &[64, 32, 32]));
    let grid = GridHint::new(vec![64, 32, 32]);
    let mut partitioner = build_partitioner(
        PartitionerKind::ConsistentHash,
        &cluster,
        &grid,
        &PartitionerConfig::default(),
    );

    let place =
        |cluster: &mut Cluster, partitioner: &mut Box<dyn Partitioner>, t: i64, x: i64, y: i64| {
            let key = ChunkKey::new(ArrayId(0), ChunkCoords::new([t, x, y]));
            let desc = ChunkDescriptor::new(key, 1024, 16);
            let node = partitioner.place(&desc, cluster);
            cluster.place(desc, node).expect("unique");
            cluster.balance_rsd()
        };

    // Warm up: fill half the grid so node B-trees have grown.
    for i in 0..32_768i64 {
        place(&mut cluster, &mut partitioner, i / 1024, (i / 32) % 32, i % 32);
    }

    // Measured: the remaining half. The placement index itself (dense
    // grid) must not allocate at all; the only permitted traffic is the
    // amortized growth of per-node descriptor B-trees, which is well
    // under one allocation per chunk.
    let start = allocation_count();
    let mut acc = 0.0;
    let n = 32_768i64;
    for i in 0..n {
        let t = 32 + i / 1024;
        acc += place(&mut cluster, &mut partitioner, t, (i / 32) % 32, i % 32);
    }
    let allocs = allocation_count() - start;
    assert!(
        (allocs as i64) < n / 4,
        "placing {n} chunks allocated {allocs} times — not amortized container growth"
    );
    assert!(acc >= 0.0);
    assert_eq!(cluster.total_chunks(), 65_536);
}

/// View maintenance allocates for what the public closure types hand
/// back and for its flat buffers — not per row of state. The staged
/// batch apply over sorted runs is measured warmed (a previous cycle has
/// built every group and both join sides).
#[test]
fn view_batch_apply_allocations_are_bounded_by_the_closures() {
    use array_model::DeltaSet;
    use query_engine::view::{
        AggKind, EmitFn, GroupKeyFn, JoinKeyFn, KeyScalar, PredFn, RowOp, ValueFn, ViewDef,
        ViewRegistry,
    };
    use std::sync::Arc;

    let (band1, band2, unread) = (ArrayId(0), ArrayId(1), ArrayId(9));
    // `days` days of `pixels` rows `[minute, lon, lat] → [quality,
    // radiance]` each, in one delta; a ninth of them lie in the belt the
    // join keeps, and the radiances (shifted by `shift`) are distinct.
    let days = |days: std::ops::Range<i64>, pixels: i64, shift: i64, weight: i64| {
        let mut delta = DeltaSet::new();
        for (d, p) in days.flat_map(|d| (0..pixels).map(move |p| (d, p))) {
            let coords = vec![d * 1440 + p % 1440, p / 180, p % 180 - 90];
            let radiance = ((d * pixels + p) * 7919 % 100_003 + shift) as f64 * 0.25;
            delta.push(coords, vec![ScalarValue::Int32(1), ScalarValue::Double(radiance)], weight);
        }
        delta
    };
    let num = |v: &ScalarValue| v.as_f64().unwrap_or(0.0);
    let by_day: GroupKeyFn = Arc::new(|c, _| vec![c[0].div_euclid(1440)]);
    let radiance: ValueFn = Arc::new(move |_, v| num(&v[1]));
    let belt: PredFn = Arc::new(|c, _| c[2].abs() <= 10);
    let key: JoinKeyFn = Arc::new(|c, _| c.iter().map(|&x| KeyScalar::Int(x)).collect());
    let emit: EmitFn =
        Arc::new(move |l, r| (l.0.clone(), vec![ScalarValue::Double(num(&r.1[1]) - num(&l.1[1]))]));
    let belt = || vec![RowOp::Filter(belt.clone())];

    // Aggregate: 30 000 rows over 3 groups, every group already there.
    let mut daily = ViewRegistry::new();
    daily.register(ViewDef::aggregate("daily", band1, Vec::new(), by_day, radiance, AggKind::Avg));
    let rows = 30_000i64;
    let (warm, measured) = (days(0..3, rows / 3, 0, 1), days(0..3, rows / 3, 1, 1));
    daily.apply(band1, &warm);
    let start = allocation_count();
    let stats = daily.apply(band1, &measured);
    let aggregate_allocs = allocation_count() - start;
    assert_eq!(stats.delta_rows, rows as u64);
    assert!(
        aggregate_allocs <= rows as usize + 64,
        "a warmed {rows}-row aggregate apply over 3 groups allocated {aggregate_allocs} times; \
         the budget is the GroupKeyFn's one Vec per row plus 64 (the per-row BTreeMap \
         implementation allocated 63 636)"
    );

    // Join: nothing for a row the filter drops, a handful per survivor.
    let mut ndvi = ViewRegistry::new();
    ndvi.register(ViewDef::join("ndvi", band1, band2, belt(), belt(), key.clone(), key, emit));
    ndvi.apply(band1, &days(0..1, 9_000, 0, 1));
    ndvi.apply(band2, &days(0..1, 9_000, 1, 1));
    let outside = {
        let mut delta = DeltaSet::new();
        for rd in days(1..2, 9_000, 0, 1).rows().filter(|rd| rd.coords[2].abs() > 10) {
            delta.push(rd.coords.to_vec(), rd.values.to_vec(), 1);
        }
        delta
    };
    let start = allocation_count();
    let stats = ndvi.apply(band1, &outside);
    let dropped_allocs = allocation_count() - start;
    assert_eq!((stats.delta_rows, stats.rows_changed), (outside.len() as u64, 0));
    assert_eq!(
        dropped_allocs,
        0,
        "a join apply of {} rows its filter drops allocated {dropped_allocs} times",
        outside.len()
    );
    let retire = days(0..1, 9_000, 0, -1);
    let survivors = retire.rows().filter(|rd| rd.coords[2].abs() <= 10).count();
    let start = allocation_count();
    let stats = ndvi.apply(band1, &retire);
    let join_allocs = allocation_count() - start;
    assert_eq!(stats.rows_changed, survivors as u64, "every survivor had a partner");
    assert!(
        join_allocs <= 6 * survivors + 64,
        "a join apply with {survivors} surviving rows allocated {join_allocs} times; the budget \
         is 6 per survivor (the per-row BTreeMap implementation allocated 14 700, 14 each)"
    );

    // An array no view reads is not looked at.
    let start = allocation_count();
    assert!(!ndvi.reads(unread));
    let stats = ndvi.apply(unread, &retire);
    assert_eq!(stats.delta_rows, 0);
    assert_eq!(allocation_count() - start, 0, "an unread array's delta allocated");
}

/// A selection's rows land in two flat buffers and a distinct scan files
/// its keys in one table: both allocate per *chunk* (the selection mask,
/// the projected column list) and per doubling of a buffer, never per
/// returned or scanned row. The owned-pair result `subarray` used to
/// build cost two heap cells per row.
#[test]
fn scans_allocate_per_chunk_not_per_row() {
    use query_engine::ops;

    let (n, per_chunk) = (40_000i64, 1_000i64);
    let chunks = (n / per_chunk) as usize;
    let schema = ArraySchema::parse(&format!("S<id:int64, v:double>[x=0:*,{per_chunk}]")).unwrap();
    let mut array = Array::new(ArrayId(0), schema);
    for x in 0..n {
        // 8 000 distinct keys, each in a short run and again in a later
        // chunk: the seen-table doubles four times past its first size.
        let id = (x / 3) % 8_000 * 1_000_003 - 4_000_000_000;
        array
            .insert_cell(vec![x], vec![ScalarValue::Int64(id), ScalarValue::Double(x as f64 * 0.5)])
            .unwrap();
    }
    let mut cluster = Cluster::new(4, u64::MAX, CostModel::default()).unwrap();
    let mut catalog = Catalog::new();
    catalog.place_array(&mut cluster, &array, |_, i, _| NodeId((i % 4) as u32)).unwrap();
    assert_eq!(array.chunk_count(), chunks);
    let ctx = ExecutionContext::new(&cluster, &catalog);
    let everything = Region::new(vec![0], vec![n - 1]);
    let doublings = n.ilog2() as usize + 1;

    let start = allocation_count();
    let (cells, _) = ops::subarray(&ctx, ArrayId(0), &everything, &[]).unwrap();
    let subarray_allocs = allocation_count() - start;
    assert_eq!(cells.len(), n as usize);
    assert!(
        subarray_allocs <= 2 * chunks + 2 * doublings + 32,
        "subarray of {n} fixed-width rows over {chunks} chunks allocated {subarray_allocs} times; \
         the budget is 2 per chunk plus the two buffers' doublings (an owned pair per row is {})",
        2 * n
    );
    // Reading the rows back borrows them.
    let start = allocation_count();
    let mut sum = 0.0;
    for (cell, values) in &cells.cells {
        sum += cell[0] as f64 + values[1].as_f64().unwrap_or(0.0);
    }
    assert_eq!(allocation_count() - start, 0, "iterating a CellSet allocated");
    assert!(sum > 0.0);

    let start = allocation_count();
    let (distinct, _) = ops::distinct_sorted(&ctx, ArrayId(0), None, "id").unwrap();
    let distinct_allocs = allocation_count() - start;
    assert_eq!(distinct.len(), 8_000);
    assert!(
        distinct_allocs <= chunks + doublings + 32,
        "distinct_sorted over {n} rows in {chunks} chunks allocated {distinct_allocs} times; \
         the budget is 1 per chunk plus the table's doublings — nothing per row"
    );
}

/// The cost model's per-chunk bookkeeping — the chunk index behind the
/// window halo, the trajectory hand-off and the rolling predecessor, the
/// group tallies, the flow tallies, kNN's ring walk — runs on flat tables
/// and kept buffers, so a metadata-only operator allocates a bounded
/// number of times per call (table doublings, one buffer each), not per
/// chunk, per probe or per ring position. Measured on a warmed context
/// over 4 096 chunks.
#[test]
fn cost_model_bookkeeping_allocates_per_call_not_per_chunk() {
    use query_engine::ops;

    let schema = ArraySchema::parse(
        "A<speed:double, course:double, v:double>[t=0:*,16, x=0:511,16, y=0:511,16]",
    )
    .unwrap();
    let mut cluster = Cluster::new(8, u64::MAX, CostModel::default()).unwrap();
    assert!(cluster.register_array(ArrayId(0), &[4, 32, 32]));
    let mut descs = Vec::new();
    for t in 0..4i64 {
        for x in 0..32i64 {
            for y in 0..32i64 {
                let key = ChunkKey::new(ArrayId(0), ChunkCoords::new([t, x, y]));
                let desc = ChunkDescriptor::new(key, 4_096 + (x * y) as u64, 64);
                // Stripes of four, so neighbours sit on one node or two.
                cluster.place(desc, NodeId(((x / 4 + y / 4 + t) % 8) as u32)).unwrap();
                descs.push(desc);
            }
        }
    }
    assert_eq!(descs.len(), 4_096);
    let mut catalog = Catalog::new();
    catalog.register(StoredArray::from_descriptors(ArrayId(0), schema, descs));
    let ctx = ExecutionContext::new(&cluster, &catalog);
    let all = Region::new(vec![0, 0, 0], vec![63, 511, 511]);
    let spec = ops::GroupSpec::by_dims(vec![1, 2]);
    let queries: Vec<Vec<i64>> =
        (0..96).map(|i| vec![(i % 64), (i * 37) % 512, (i * 91) % 512]).collect();

    let mut measured = Vec::new();
    let mut count = |what: &'static str, run: &mut dyn FnMut() -> QueryStats| {
        let warm = run();
        let start = allocation_count();
        let stats = run();
        measured.push((what, allocation_count() - start));
        assert_eq!(stats, warm, "{what} costs the same every call");
        assert!(stats.elapsed_secs > 0.0 && stats.chunks_visited > 0, "{what}: {stats:?}");
    };
    count("window_aggregate", &mut || {
        ops::window_aggregate(&ctx, ArrayId(0), &all, "v", 2).unwrap().1
    });
    count("trajectory", &mut || {
        ops::trajectory(&ctx, ArrayId(0), &all, "speed", "course", 1.0).unwrap().1
    });
    count("rolling_aggregate", &mut || {
        ops::rolling_aggregate(&ctx, ArrayId(0), Some(&all), "v", &spec, ops::AggFn::Avg, 0)
            .unwrap()
            .1
    });
    count("knn", &mut || ops::knn(&ctx, ArrayId(0), &queries, 10).unwrap().1);
    // Measured here; the tree-keyed bookkeeping this replaced allocated
    // 392, 390, 5 697 and 3 555 times on the same calls. kNN's budget is
    // one answer per query point (it owns a copy of the point) plus 27.
    let budget = [
        ("window_aggregate", 17),
        ("trajectory", 15),
        ("rolling_aggregate", 45),
        ("knn", queries.len() + 27),
    ];
    for ((what, allocs), (name, most)) in measured.into_iter().zip(budget) {
        assert_eq!(what, name);
        assert!(allocs <= most, "{what} over 4 096 chunks allocated {allocs} times, budget {most}");
    }
}

/// Planning reads the placement index alone: a `plan_scan` over a dense
/// band allocates only as its `visit` list doubles — nothing per chunk,
/// no descriptor copied — and the band walk under it
/// ([`Cluster::band`]) allocates nothing when no spilled key falls in its
/// box. Measured on a warmed context over 4 096 chunks, beside four keys
/// spilled past the registered time extent.
#[test]
fn plan_scan_allocates_per_doubling_and_the_band_walk_never() {
    use std::ops::ControlFlow;

    let schema = ArraySchema::parse("A<v:double>[t=0:*,16, x=0:511,16, y=0:511,16]").unwrap();
    let mut cluster = Cluster::new(8, u64::MAX, CostModel::default()).unwrap();
    assert!(cluster.register_array(ArrayId(0), &[4, 32, 32]));
    let mut descs = Vec::new();
    let spilled = (8..12i64).map(|t| [t, 0, 0]);
    let grid = (0..4_096i64).map(|i| [i / 1_024, (i / 32) % 32, i % 32]);
    for (i, coords) in grid.chain(spilled).enumerate() {
        let key = ChunkKey::new(ArrayId(0), ChunkCoords::new(coords));
        let desc = ChunkDescriptor::new(key, 4_096, 64);
        cluster.place(desc, NodeId((i % 8) as u32)).unwrap();
        descs.push(desc);
    }
    let mut catalog = Catalog::new();
    catalog.register(StoredArray::from_descriptors(ArrayId(0), schema.clone(), descs));
    let ctx = ExecutionContext::new(&cluster, &catalog);
    // The grid's four time chunks, not the spilled ones past them.
    let band = Region::new(vec![0, 0, 0], vec![63, 511, 511]);
    ctx.plan_scan(ArrayId(0), Some(&band), None).unwrap();

    let start = allocation_count();
    let plan = ctx.plan_scan(ArrayId(0), Some(&band), None).unwrap();
    let allocs = allocation_count() - start;
    assert_eq!(plan.visit.len(), 4_096);
    let doublings = 4_096usize.ilog2() as usize + 1;
    assert!(
        allocs <= doublings,
        "planning 4 096 chunks allocated {allocs} times; the budget is the visit list's doublings"
    );
    drop(plan);

    let (first, last) = band.chunk_band(&schema);
    let mut walked = 0;
    let start = allocation_count();
    let walk = cluster.band(ArrayId(0), &first, &last, |_, slot| {
        walked += u64::from(matches!(slot, Slot::Placed { .. }));
        ControlFlow::<()>::Continue(())
    });
    assert_eq!(allocation_count() - start, 0, "the band walk allocated");
    assert!(walk.is_continue());
    assert_eq!(walked, 4_096);
}
