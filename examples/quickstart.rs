//! Quickstart: define an array, place its chunks with an elastic
//! partitioner, run a real query, then scale the cluster out
//! incrementally and watch the balance improve.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use elastic_array_db::prelude::*;

fn main() {
    // --- 1. A SciDB-style schema: Figure 1 of the paper, writ larger. ---
    let schema = ArraySchema::parse("A<i:int32, j:float>[x=0:63,4, y=0:63,4]").unwrap();
    println!("array schema: {schema}");

    // Materialize some skewed data: a dense blob near the origin plus a
    // sparse background (only non-empty cells are stored).
    let mut array = Array::new(ArrayId(0), schema);
    for x in 0..64i64 {
        for y in 0..64i64 {
            let dense = x < 16 && y < 16;
            if dense || (x + y) % 7 == 0 {
                array
                    .insert_cell(
                        vec![x, y],
                        vec![ScalarValue::Int32((x * 64 + y) as i32), ScalarValue::Float(0.5)],
                    )
                    .unwrap();
            }
        }
    }
    println!(
        "materialized {} cells into {} chunks ({} bytes)",
        array.cell_count(),
        array.chunk_count(),
        array.byte_size()
    );

    // --- 2. A 2-node cluster and a skew-aware elastic partitioner. ---
    let mut cluster = Cluster::new(2, 1 << 20, CostModel::default()).unwrap();
    let grid = GridHint::new(vec![16, 16]);
    let mut partitioner =
        build_partitioner(PartitionerKind::KdTree, &cluster, &grid, &PartitionerConfig::default());

    // Each chunk goes — descriptor and cells — to the node the
    // partitioner picks; the catalog keeps the schema and the metadata.
    let mut catalog = Catalog::new();
    catalog
        .place_array(&mut cluster, &array, |cluster, _, desc| partitioner.place(desc, cluster))
        .unwrap();
    println!(
        "initial placement on 2 nodes: loads = {:?}, balance RSD = {:.0}%",
        cluster.loads(),
        relative_std_dev(&cluster.loads()) * 100.0
    );

    // --- 3. Run a real query through the engine. ---
    let ctx = ExecutionContext::new(&cluster, &catalog);
    let region = Region::new(vec![0, 0], vec![15, 15]);
    let (cells, stats) = ops::subarray(&ctx, ArrayId(0), &region, &["i"]).unwrap();
    println!(
        "subarray over the dense corner: {} cells, simulated {:.2} s (scanned {} bytes)",
        cells.len(),
        stats.elapsed_secs,
        stats.bytes_scanned
    );

    // --- 4. Scale out: the K-d Tree splits the most loaded node at its
    //        byte-weighted median and ships data only to the newcomer. ---
    let new_nodes = cluster.add_nodes(2, 1 << 20);
    let plan = partitioner.scale_out(&cluster, &new_nodes);
    assert!(plan.is_incremental(&new_nodes), "K-d Tree moves data only to new nodes");
    println!(
        "scale-out to 4 nodes: {} chunk moves, {} bytes shipped",
        plan.len(),
        plan.moved_bytes()
    );
    cluster.apply_rebalance(&plan).unwrap();
    println!(
        "after rebalance: loads = {:?}, balance RSD = {:.0}%",
        cluster.loads(),
        relative_std_dev(&cluster.loads()) * 100.0
    );

    // Lookups still resolve through the partitioning table.
    let key = ChunkKey::new(ArrayId(0), ChunkCoords::new([1, 1]));
    println!(
        "chunk {key} lives on {} (partitioner) == {} (cluster)",
        partitioner.locate(&key).unwrap(),
        cluster.locate(&key).unwrap()
    );
}
