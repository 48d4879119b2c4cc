//! Differential suite for the sharded materialized (cell-level) ingest
//! path.
//!
//! The contract under test: a materialized workload run must be
//! **bit-identical** whatever `ingest_threads` is — cycle reports,
//! placements, node loads and the per-node payload stores all compare
//! equal across thread counts for every partitioner. The sharded chunk build assigns whole chunks to
//! workers (pure in the chunk coordinates) and every chunk receives its
//! rows in batch order, so parallelism can never reorder or split a
//! chunk. Also pins the single-home contract: the chunk the build
//! produced is handed to its node and nothing else keeps hold of it.
//! The reference is the one-thread run of the same `testkit::config`.

use elastic_array_db::prelude::*;
use std::sync::Arc;
use workloads::ais::{AisWorkload, BROADCAST};
use workloads::build_cell_array;
use workloads::modis::{ModisWorkload, BAND1, BAND2};
use workloads::synthetic::{SyntheticWorkload, SYNTHETIC};

/// Everything observable about a finished materialized run.
struct Snapshot {
    cycles: Vec<(usize, usize, u64, u64, u64)>,
    placements: Vec<(ChunkKey, NodeId)>,
    loads: Vec<u64>,
    /// Every placed payload, read from its resident node.
    payloads: Vec<(ChunkKey, array_model::Chunk)>,
}

/// Run `workload` materialized under `kind` at `threads`, snapshot every
/// observable, and assert the single-home invariant.
fn run_snapshot(
    workload: &dyn Workload,
    ids: &[ArrayId],
    kind: PartitionerKind,
    node_capacity: u64,
    threads: usize,
) -> Snapshot {
    let cfg = RunnerConfig { ingest_threads: threads, ..testkit::config(kind, node_capacity) };
    let mut runner = WorkloadRunner::new(workload, cfg);
    let report = runner.run_all().unwrap_or_else(|e| panic!("{kind} x{threads}: {e}"));
    let cycles = report
        .cycles
        .iter()
        .map(|c| {
            (c.nodes, c.added_nodes, c.insert_bytes, c.moved_bytes, c.rsd_after_insert.to_bits())
        })
        .collect();
    let cluster = runner.cluster();
    let mut payloads = Vec::new();
    for &id in ids {
        let stored = runner.catalog().array(id).unwrap();
        assert!(stored.data.is_none(), "{kind} x{threads}: the catalog kept cells of {id}");
        let before = payloads.len();
        for record in cluster.residents().filter(|r| r.descriptor().key.array == id) {
            let key = record.descriptor().key;
            let shared =
                cluster.primary_payload(&key).unwrap_or_else(|e| panic!("{kind} x{threads}: {e}"));
            payloads.push((key, shared.as_ref().clone()));
            // One home: at k = 1 the node store holds the only handle to
            // the chunk — attach took the build's handle, every rebalance
            // moved it, and nothing (no catalog, no builder) kept another.
            assert_eq!(
                Arc::strong_count(shared),
                1,
                "{kind} x{threads}: something besides the node store holds {key}"
            );
        }
        assert!(payloads.len() > before, "{kind} x{threads}: nothing ingested for {id}");
    }
    Snapshot {
        cycles,
        placements: cluster.placements().collect(),
        loads: cluster.loads(),
        payloads,
    }
}

fn assert_identical(kind: PartitionerKind, threads: usize, base: &Snapshot, got: &Snapshot) {
    assert_eq!(got.cycles, base.cycles, "{kind}: cycle reports differ at {threads} threads");
    assert_eq!(got.loads, base.loads, "{kind}: loads differ at {threads} threads");
    assert_eq!(got.placements, base.placements, "{kind}: placements differ at {threads} threads");
    assert_eq!(
        got.payloads, base.payloads,
        "{kind}: node payload stores differ at {threads} threads"
    );
}

/// All 8 partitioners over a materialized AIS run (string attributes,
/// port skew, scale-outs + payload-carrying rebalances mid-run):
/// everything must be bit-identical across ingest_threads in {1,2,4,8}.
#[test]
fn materialized_runs_are_bit_identical_across_thread_counts() {
    // > PARALLEL_BUILD_MIN_ROWS per cycle so the sharded build engages.
    let w = AisWorkload { seed: 11, ..testkit::ais(2, 6_000) };
    for kind in PartitionerKind::ALL {
        let base = run_snapshot(&w, &[BROADCAST], kind, 600_000, 1);
        for threads in [2usize, 4, 8] {
            let got = run_snapshot(&w, &[BROADCAST], kind, 600_000, threads);
            assert_identical(kind, threads, &base, &got);
        }
    }
}

/// The chunk builder itself, differentially: arrays built at any worker
/// count equal the sequential build chunk-for-chunk (coordinates,
/// descriptors, payload bytes, and cell order inside each chunk).
#[test]
fn build_cell_array_matches_sequential_at_every_thread_count() {
    let w =
        SyntheticWorkload { cycles: 1, grid_side: 24, cells_per_cycle: 576, ..Default::default() };
    let schema = w.schema();
    let synth = w.cell_batch(0).unwrap().remove(0);
    let ais = AisWorkload { seed: 3, ..testkit::ais(1, 9_000) };
    let ais_batch = ais.cell_batch(0).unwrap().remove(0);
    let cases: Vec<(ArrayId, ArraySchema, CellBuffer)> = vec![
        (SYNTHETIC, schema, synth.into_rows()),
        (BROADCAST, AisWorkload::broadcast_schema(), ais_batch.into_rows()),
    ];
    for (id, schema, rows) in cases {
        let base = build_cell_array(id, schema.clone(), rows.clone(), 1).expect("in bounds");
        for threads in [2usize, 3, 4, 8] {
            let built =
                build_cell_array(id, schema.clone(), rows.clone(), threads).expect("in bounds");
            assert_eq!(built.chunk_count(), base.chunk_count(), "{id} x{threads}");
            assert_eq!(built.descriptors(), base.descriptors(), "{id} x{threads}");
            for (coords, chunk) in base.chunks() {
                assert_eq!(
                    built.chunk(coords),
                    Some(chunk),
                    "{id} x{threads}: chunk {coords} differs"
                );
            }
        }
    }
}

/// Heavier CI smoke: all 8 partitioners, AIS + MODIS + synthetic
/// materialized, ingest_threads in {1, 4, 8}, with scale-outs forcing
/// payload-carrying rebalances. Run with
/// `cargo test --release --test parallel_materialize -- --ignored parallel_materialize_smoke`.
#[test]
#[ignore = "CI smoke: heavier differential, run explicitly"]
fn parallel_materialize_smoke() {
    let ais = AisWorkload { seed: 5, ..testkit::ais(3, 12_000) };
    let modis = ModisWorkload {
        days: 3,
        scale: 0.02,
        seed: 9,
        cells_per_cycle: 10_000,
        ..Default::default()
    };
    let synth = SyntheticWorkload {
        cycles: 3,
        grid_side: 64,
        cells_per_cycle: 4_096,
        ..Default::default()
    };
    let runs: Vec<(&dyn Workload, Vec<ArrayId>, u64)> = vec![
        (&ais, vec![BROADCAST], 2_000_000),
        (&modis, vec![BAND1, BAND2], 2_000_000),
        (&synth, vec![SYNTHETIC], 200_000),
    ];
    for (w, ids, capacity) in runs {
        for kind in PartitionerKind::ALL {
            let base = run_snapshot(w, &ids, kind, capacity, 1);
            for threads in [4usize, 8] {
                let got = run_snapshot(w, &ids, kind, capacity, threads);
                assert_identical(kind, threads, &base, &got);
            }
        }
    }
}

/// The three storage-side string encodings the chunk build is pinned
/// under: the default dictionary, plain strings, and a dictionary whose
/// cap of 8 spills AIS `receiver_id` (128 distinct) in most chunks while
/// `provenance` (one string) stays encoded.
const BUILD_ENCODINGS: [StringEncoding; 3] =
    [StringEncoding::Dict { cap: 4096 }, StringEncoding::Plain, StringEncoding::Dict { cap: 8 }];

/// Cross-version golden. Every differential in the tree runs the gather
/// kernel on both sides, so this pins the implementation it replaced
/// (the per-column scatter over routed `ChunkCoords`): the CRC-32 of
/// `Array::encode_into` — chunk order, coordinates, columns,
/// dictionaries in code order, byte counters, zone maps — for one AIS
/// cycle and one MODIS day, per encoding, at 1 and 3 build threads. The
/// constants were computed at the commit before the kernel changed
/// (`6f46c27`), where this test passes too.
#[test]
fn chunk_build_bytes_match_the_scatter_implementation() {
    use workloads::build_cell_array_encoded;
    let ais = AisWorkload { cells_per_cycle: 20_000, ..Default::default() };
    let modis = ModisWorkload { cells_per_cycle: 10_000, ..Default::default() };
    let band = ModisWorkload::band_schema("b");
    let mut batches = ais.cell_batch(0).expect("materialized").into_iter();
    let broadcast = batches.next().expect("one AIS batch");
    let mut batches = modis.cell_batch(0).expect("materialized").into_iter();
    let (band1, band2) = (batches.next().expect("band 1"), batches.next().expect("band 2"));
    assert_eq!((broadcast.array, band1.array, band2.array), (BROADCAST, BAND1, BAND2));
    // (rows, schema, [CRC per BUILD_ENCODINGS entry])
    let golden: [(workloads::CellBatch, ArraySchema, [u32; 3]); 3] = [
        (broadcast, AisWorkload::broadcast_schema(), [0x2a2e_576a, 0xd023_fe86, 0xff29_7570]),
        (band1, band.clone(), [0x13b7_4a86, 0x4852_d218, 0x3d2a_ead7]),
        (band2, band, [0x9916_c053, 0xcee2_d7e8, 0x743e_9749]),
    ];
    for (batch, schema, crcs) in golden {
        let (id, rows) = (batch.array, batch.into_rows());
        for (encoding, want) in BUILD_ENCODINGS.into_iter().zip(crcs) {
            for threads in [1usize, 3] {
                let built =
                    build_cell_array_encoded(id, schema.clone(), rows.clone(), threads, encoding)
                        .expect("in bounds");
                let mut w = durability::ByteWriter::new();
                built.encode_into(&mut w);
                assert_eq!(
                    durability::crc32(&w.into_bytes()),
                    want,
                    "{id} under {encoding:?} at {threads} threads: {} rows, {} chunks",
                    rows.len(),
                    built.chunk_count()
                );
            }
        }
    }
}

/// Release-scale leg of the chunk-build differential: three 200 k-row
/// AIS cycles into one array and one 100 k-pixel MODIS day (both bands),
/// built at 1, 2, 4 and 8 threads under each of [`BUILD_ENCODINGS`] —
/// every build chunk-for-chunk `==` to the per-cell build of the same
/// rows, and the encoded bytes equal across thread counts. Run with
/// `cargo test --release --test parallel_materialize -- --ignored chunk_build_smoke`.
#[test]
#[ignore = "CI smoke: release-scale chunk build differential, run explicitly"]
fn chunk_build_smoke() {
    use workloads::build_cell_array_encoded;
    let ais = AisWorkload { cycles: 3, cells_per_cycle: 200_000, ..Default::default() };
    let modis = ModisWorkload { days: 1, cells_per_cycle: 100_000, ..Default::default() };
    let band = ModisWorkload::band_schema("b");
    let mut arrays: Vec<(ArrayId, ArraySchema, Vec<CellBuffer>)> = vec![
        (BROADCAST, AisWorkload::broadcast_schema(), Vec::new()),
        (BAND1, band.clone(), Vec::new()),
        (BAND2, band, Vec::new()),
    ];
    let batches = (0..3).flat_map(|c| ais.cell_batch(c).expect("materialized"));
    for batch in batches.chain(modis.cell_batch(0).expect("materialized")) {
        let slot = arrays.iter_mut().find(|(id, ..)| *id == batch.array).expect("a known array");
        slot.2.push(batch.into_rows());
    }
    for (id, schema, batches) in &arrays {
        for encoding in BUILD_ENCODINGS {
            let mut per_cell = Array::with_encoding(*id, schema.clone(), encoding);
            for (cell, values) in batches.iter().flat_map(CellBuffer::rows) {
                per_cell.insert_cell(cell, values).expect("in bounds");
            }
            let mut encoded: Option<Vec<u8>> = None;
            for threads in [1usize, 2, 4, 8] {
                let mut built = Array::with_encoding(*id, schema.clone(), encoding);
                for rows in batches {
                    let part = build_cell_array_encoded(
                        *id,
                        schema.clone(),
                        rows.clone(),
                        threads,
                        encoding,
                    );
                    built.absorb(part.expect("in bounds")).expect("cycles share no chunk");
                }
                assert_eq!(built.chunk_count(), per_cell.chunk_count(), "{id} x{threads}");
                for (coords, chunk) in per_cell.chunks() {
                    assert_eq!(
                        built.chunk(coords),
                        Some(chunk),
                        "{id} under {encoding:?} x{threads}: chunk {coords} differs"
                    );
                }
                let mut w = durability::ByteWriter::new();
                built.encode_into(&mut w);
                let bytes = w.into_bytes();
                let first = encoded.get_or_insert_with(|| bytes.clone());
                assert!(
                    *first == bytes,
                    "{id} under {encoding:?}: encoded bytes differ at {threads} threads"
                );
            }
        }
    }
}
