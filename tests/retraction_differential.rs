//! The retraction differential suite.
//!
//! Contract under test: a retraction is a *perfect* undo. A workload
//! that inserts cells and later retracts some of them must end up
//! answering every query bit-identically to a twin workload that never
//! inserted the retracted cells at all — across all 8 partitioners,
//! after every scale-out and rebalance either run triggers, for
//! dictionary-encoded and plain string storage, and at replication
//! k ∈ {1, 2}. The runs' *placements and byte accounting* legitimately
//! diverge (the insert+delete run carried the doomed cells for a cycle,
//! so its demand curve and rebalances differ); the *answer space* may
//! not.
//!
//! The never-inserted baseline is constructed mechanically from the
//! retracting workload itself (`SurvivorsOnly`): replay the generator,
//! collect every coordinate any cycle retracts, and emit only the
//! surviving inserts with no retractions. Cells a run retracts are
//! exactly the cells its baseline never sees, so after the *last*
//! retraction lands the two runs describe the same array.

use elastic_array_db::array::Chunk;
use elastic_array_db::prelude::*;
use query_engine::ops;
use std::collections::{BTreeMap, BTreeSet};
use workloads::ais::{AisWorkload, BROADCAST};
use workloads::modis::{ModisWorkload, BAND1, BAND2};
use workloads::CellBatch;

type Row = (Vec<i64>, Vec<ScalarValue>);

// ------------------------------------------------------------ baseline --

/// The never-inserted twin of a retracting workload: emits the inner
/// generator's cell batches minus every coordinate that any cycle of
/// the run retracts, and emits no retractions itself.
struct SurvivorsOnly<W: Workload> {
    inner: W,
    schemas: BTreeMap<ArrayId, ArraySchema>,
    doomed: BTreeMap<ArrayId, BTreeSet<Vec<i64>>>,
}

impl<W: Workload> SurvivorsOnly<W> {
    fn new(inner: W) -> Self {
        let mut catalog = Catalog::new();
        inner.register_arrays(&mut catalog);
        let mut schemas = BTreeMap::new();
        let mut doomed: BTreeMap<ArrayId, BTreeSet<Vec<i64>>> = BTreeMap::new();
        for cycle in 0..inner.cycles() {
            for batch in inner.cell_batch(cycle).unwrap_or_default() {
                let schema = catalog.array(batch.array).expect("registered array").schema.clone();
                let dims = schema.dimensions.len();
                schemas.entry(batch.array).or_insert(schema);
                let set = doomed.entry(batch.array).or_default();
                for coords in batch.retractions_flat().chunks(dims) {
                    set.insert(coords.to_vec());
                }
            }
        }
        SurvivorsOnly { inner, schemas, doomed }
    }

    /// Total retractions the inner run will issue — the differential is
    /// vacuous if the generator never goes dark.
    fn doomed_cells(&self) -> usize {
        self.doomed.values().map(|s| s.len()).sum()
    }
}

impl<W: Workload> Workload for SurvivorsOnly<W> {
    fn name(&self) -> &'static str {
        "survivors-only"
    }
    fn cycles(&self) -> usize {
        self.inner.cycles()
    }
    fn register_arrays(&self, catalog: &mut Catalog) {
        self.inner.register_arrays(catalog);
    }
    fn insert_batch(&self, cycle: usize) -> Vec<ChunkDescriptor> {
        self.inner.insert_batch(cycle)
    }
    fn cell_batch(&self, cycle: usize) -> Option<Vec<CellBatch>> {
        let batches = self.inner.cell_batch(cycle)?;
        Some(
            batches
                .into_iter()
                .map(|b| {
                    let schema = &self.schemas[&b.array];
                    let doomed = self.doomed.get(&b.array);
                    let mut out = CellBatch::new(b.array, schema);
                    let mut scratch = Vec::new();
                    for (coords, values) in b.cells() {
                        if doomed.is_some_and(|d| d.contains(&coords)) {
                            continue;
                        }
                        scratch.extend(values);
                        out.push(&coords, &mut scratch);
                    }
                    out
                })
                .collect(),
        )
    }
    fn derived_batch(&self, cycle: usize) -> Vec<ChunkDescriptor> {
        self.inner.derived_batch(cycle)
    }
    fn grid_hint(&self) -> GridHint {
        self.inner.grid_hint()
    }
    fn quad_plane(&self) -> (usize, usize) {
        self.inner.quad_plane()
    }
    fn run_suites(&self, ctx: &ExecutionContext<'_>, cycle: usize) -> SuiteReport {
        self.inner.run_suites(ctx, cycle)
    }
}

// -------------------------------------------------------------- probes --

fn config(
    kind: PartitionerKind,
    node_capacity: u64,
    encoding: StringEncoding,
    k: usize,
) -> RunnerConfig {
    RunnerConfig {
        node_capacity,
        initial_nodes: 2,
        partitioner: kind,
        scaling: ScalingPolicy::FixedStep { add: 2, trigger: 0.8 },
        run_queries: false,
        string_encoding: encoding,
        replication: k,
        ..RunnerConfig::default()
    }
}

/// Every operator family's answer in bit-comparable form (floats stored
/// as `to_bits()`), over a fixed probe region *and* the whole array —
/// the retracting run and its never-inserted baseline must agree on all
/// of it, so a tombstone leaking into any operator's iteration fails.
#[derive(Debug, PartialEq)]
struct ProbeAnswers {
    everything: Vec<Row>,
    probe_rows: Vec<Row>,
    filter_count: u64,
    distinct_ids: Vec<i64>,
    median_bits: Option<u64>,
    groups: Vec<(Vec<i64>, u64, u64)>,
    knn: Vec<ops::KnnAnswer>,
}

fn ais_probe_answers(w: &AisWorkload, cluster: &Cluster, catalog: &Catalog) -> ProbeAnswers {
    let ctx = ExecutionContext::new(cluster, catalog);
    let all = Region::new(vec![0, -180, 0], vec![i64::MAX / 2, -66, 90]);
    let (cells, _) = ops::subarray(&ctx, BROADCAST, &all, &[]).unwrap();
    let mut everything = cells.cells.to_rows();
    everything.sort_by(|a, b| a.0.cmp(&b.0));
    let probe = AisWorkload::cycle_region(0);
    let (cells, _) = ops::subarray(&ctx, BROADCAST, &probe, &[]).unwrap();
    let mut probe_rows = cells.cells.to_rows();
    probe_rows.sort_by(|a, b| a.0.cmp(&b.0));
    let (filter_count, _) =
        ops::filter_count(&ctx, BROADCAST, &probe, "speed", &Predicate::ge(10.0)).unwrap();
    let (distinct_ids, _) = ops::distinct_sorted(&ctx, BROADCAST, Some(&probe), "ship_id").unwrap();
    let (q, _) = ops::quantile(&ctx, BROADCAST, Some(&probe), "speed", 0.5, 1.0).unwrap();
    let spec = ops::GroupSpec::coarsened(vec![1, 2], vec![8, 8]);
    let (rows, _) =
        ops::grid_aggregate(&ctx, BROADCAST, Some(&probe), "speed", &spec, ops::AggFn::Sum)
            .unwrap();
    let mut groups: Vec<(Vec<i64>, u64, u64)> =
        rows.iter().map(|r| (r.key.clone(), r.value.to_bits(), r.cells)).collect();
    groups.sort();
    let (knn, _) = ops::knn(&ctx, BROADCAST, &w.knn_queries(0, 8), 5).unwrap();
    ProbeAnswers {
        everything,
        probe_rows,
        filter_count,
        distinct_ids,
        median_bits: q.value.map(f64::to_bits),
        groups,
        knn,
    }
}

/// The independent raw-cell oracle: the surviving rows of the retracting
/// generator, computed from the batches alone (inserts minus every
/// retracted coordinate) without touching runner, cluster, or catalog.
fn surviving_rows(w: &AisWorkload) -> Vec<Row> {
    let dims = AisWorkload::broadcast_schema().dimensions.len();
    let mut rows: BTreeMap<Vec<i64>, Vec<ScalarValue>> = BTreeMap::new();
    let mut retracted = 0usize;
    for c in 0..w.cycles {
        let batch = w.cell_batch(c).unwrap().remove(0);
        for coords in batch.retractions_flat().chunks(dims) {
            assert!(rows.remove(coords).is_some(), "retraction of a never-inserted cell");
            retracted += 1;
        }
        for (coords, values) in batch.cells() {
            assert!(rows.insert(coords, values).is_none(), "duplicate insert");
        }
    }
    assert!(retracted > 0, "the dark-vessel generator never retracted anything");
    rows.into_iter().collect()
}

// --------------------------------------------------------------- legs --

/// One lockstep pair: the dark-vessel run vs its never-inserted twin,
/// compared at the end of the run (after the final retraction lands the
/// two describe the same array) with each other and against the
/// independent raw-cell oracle. Every answer is read off the tombstoned
/// chunks in the node stores — the cells have no other home.
fn run_ais_retraction_pair(
    w: &AisWorkload,
    kind: PartitionerKind,
    node_capacity: u64,
    encoding: StringEncoding,
    k: usize,
) {
    let tag = format!("{kind}/{encoding:?}/k{k}");
    let baseline_w = SurvivorsOnly::new(w.clone());
    assert!(baseline_w.doomed_cells() > 0, "{tag}: no vessel went dark — vacuous differential");

    let mut dark = WorkloadRunner::new(w, config(kind, node_capacity, encoding, k));
    let mut baseline = WorkloadRunner::new(&baseline_w, config(kind, node_capacity, encoding, k));
    for c in 0..w.cycles {
        dark.run_cycle(c).unwrap_or_else(|e| panic!("{tag}: dark cycle {c}: {e}"));
        baseline.run_cycle(c).unwrap_or_else(|e| panic!("{tag}: baseline cycle {c}: {e}"));
    }

    // The retracting run stayed full strength through the deletes.
    assert!(dark.cluster().replica_census().is_full_strength(), "{tag}: census under strength");

    // The insert+delete run equals the never-inserted baseline bit for
    // bit, across every operator family.
    let want = ais_probe_answers(w, baseline.cluster(), baseline.catalog());
    let got = ais_probe_answers(w, dark.cluster(), dark.catalog());
    assert_eq!(got, want, "{tag}: insert+delete answers differ from the never-inserted baseline");

    // Both agree with the independent raw-cell oracle.
    let oracle = surviving_rows(w);
    assert_eq!(got.everything, oracle, "{tag}: stored cells differ from the survivor oracle");

    // Descriptor books track the retracted payloads exactly.
    let stored = dark.catalog().array(BROADCAST).unwrap();
    let live: u64 = stored.descriptors.values().map(|d| d.cells).sum();
    assert_eq!(live, oracle.len() as u64, "{tag}: descriptor cell totals ignore tombstones");
    for desc in stored.descriptors.values() {
        let payload = dark.cluster().payload(&desc.key).expect("placed chunk has a payload");
        assert_eq!(payload.cell_count(), desc.cells, "{}: live-cell count drifted", desc.key);
        assert_eq!(payload.byte_size(), desc.bytes, "{}: byte accounting drifted", desc.key);
    }
}

fn run_ais_matrix(cells_per_cycle: u64, cycles: usize, kinds: &[PartitionerKind]) {
    let w = AisWorkload { cycles, scale: 0.05, seed: 21, cells_per_cycle, dark_vessel_rate: 4 };
    let node_capacity = cells_per_cycle * 90;
    for &kind in kinds {
        for k in [1usize, 2] {
            for encoding in [StringEncoding::default(), StringEncoding::Plain] {
                run_ais_retraction_pair(&w, kind, node_capacity, encoding, k);
            }
        }
    }
}

// -------------------------------------------------------------- MODIS --

/// MODIS tile-TTL expiry vs its never-inserted twin: positional join,
/// window, and full scans of both bands must agree at end of run.
fn run_modis_ttl_pair(cells_per_cycle: u64, days: usize, kind: PartitionerKind, k: usize) {
    let tag = format!("{kind}/modis-ttl/k{k}");
    let w = ModisWorkload { days, scale: 0.05, seed: 33, cells_per_cycle, ttl_days: 1 };
    let baseline_w = SurvivorsOnly::new(w.clone());
    assert!(baseline_w.doomed_cells() > 0, "{tag}: TTL never expired a tile");

    let node_capacity = cells_per_cycle * 95;
    let encoding = StringEncoding::default();
    let mut ttl = WorkloadRunner::new(&w, config(kind, node_capacity, encoding, k));
    let mut baseline = WorkloadRunner::new(&baseline_w, config(kind, node_capacity, encoding, k));
    for c in 0..days {
        ttl.run_cycle(c).unwrap_or_else(|e| panic!("{tag}: ttl cycle {c}: {e}"));
        baseline.run_cycle(c).unwrap_or_else(|e| panic!("{tag}: baseline cycle {c}: {e}"));
    }

    let scan = |cluster: &Cluster, catalog: &Catalog| {
        let ctx = ExecutionContext::new(cluster, catalog);
        let all = Region::new(vec![0, -180, -90], vec![i64::MAX / 2, 180, 90]);
        let mut bands = Vec::new();
        for id in [BAND1, BAND2] {
            let (cells, _) = ops::subarray(&ctx, id, &all, &[]).unwrap();
            let mut rows = cells.cells.to_rows();
            rows.sort_by(|a, b| a.0.cmp(&b.0));
            bands.push(rows);
        }
        // The surviving day still joins: band1 x band2 NDVI over the
        // last (never-expired) day.
        let day = ModisWorkload::day_region((days - 1) as i64, (days - 1) as i64);
        let ndvi = |b1: f64, b2: f64| (b2 - b1) / (b2 + b1 + 1e-9);
        let (join, _) =
            ops::positional_join(&ctx, BAND1, BAND2, &day, "radiance", "radiance", ndvi).unwrap();
        (bands, join.matches, join.combined_sum.to_bits())
    };
    let want = scan(baseline.cluster(), baseline.catalog());
    let got = scan(ttl.cluster(), ttl.catalog());
    assert_eq!(got, want, "{tag}: TTL-expired answers differ from the never-inserted baseline");
    assert!(want.1 > 0, "{tag}: join oracle found no partners — vacuous");
}

// ------------------------------------------------------------- sharing --

/// The `k` copies of a chunk are **one** record, on its primary, whose
/// descriptor matches its cells, and every holder ledgers that record's
/// bytes. A retraction or a compaction that shrank a chunk without
/// telling its holders leaves their replica ledgers at the old size —
/// invisible to every answer, and to the census, which counts
/// primaries. Returns the records' cells it checked.
fn assert_holders_follow_one_record<'r>(
    tag: &str,
    runner: &'r WorkloadRunner<'_>,
    arrays: &[ArrayId],
) -> Vec<&'r Chunk> {
    let cluster = runner.cluster();
    let mut held = vec![0u64; cluster.node_count()];
    for (key, node) in cluster.placements() {
        // A k = 1 orphan keeps its placement but has no record, and no holder.
        let Some(desc) = cluster.node(node).unwrap().descriptor(&key) else { continue };
        for h in cluster.replica_holders(&key) {
            held[h.0 as usize] += desc.bytes;
        }
    }
    for node in cluster.nodes() {
        let want = held[node.id.0 as usize];
        assert_eq!(node.replica_bytes(), want, "{tag}: {}'s replica ledger drifted", node.id);
    }
    let mut records = Vec::new();
    for &id in arrays {
        for desc in runner.catalog().array(id).unwrap().descriptors.values() {
            let key = desc.key;
            let chunk = cluster.primary_payload(&key).unwrap_or_else(|e| panic!("{tag}: {e}"));
            let node = cluster.node(cluster.locate(&key).unwrap()).unwrap();
            let record = node.descriptor(&key).unwrap();
            let sizes = (chunk.byte_size(), chunk.cell_count());
            assert_eq!((record.bytes, record.cells), sizes, "{tag}: {key} left its cells");
            records.push(chunk.as_ref());
        }
    }
    records
}

/// Dark-vessel retractions empty few chunks outright — most only lose
/// rows, the case that used to un-share a chunk's holders — checked
/// after every cycle.
fn run_ais_sharing(
    cells_per_cycle: u64,
    kind: PartitionerKind,
    encoding: StringEncoding,
    k: usize,
) {
    let tag = format!("{kind}/{encoding:?}/k{k}/sharing");
    let w = AisWorkload { cycles: 3, scale: 0.05, seed: 21, cells_per_cycle, dark_vessel_rate: 4 };
    let mut runner = WorkloadRunner::new(&w, config(kind, cells_per_cycle * 90, encoding, k));
    let mut tombstoned = 0;
    for c in 0..w.cycles {
        runner.run_cycle(c).unwrap_or_else(|e| panic!("{tag}: cycle {c}: {e}"));
        let chunks =
            assert_holders_follow_one_record(&format!("{tag}/cycle {c}"), &runner, &[BROADCAST]);
        tombstoned += chunks.iter().filter(|chunk| chunk.tombstone_count() > 0).count();
    }
    assert!(tombstoned > 0, "{tag}: every retraction emptied its chunk — vacuous");
}

/// MODIS TTL expiry is whole-chunk work: the aged-out day's chunks are
/// dropped — all of them, none tombstoned — and the holders follow.
fn run_modis_whole_chunk_expiry(cells_per_cycle: u64, kind: PartitionerKind, k: usize) {
    let tag = format!("{kind}/modis-ttl/k{k}/drop");
    let w = ModisWorkload { days: 4, scale: 0.05, seed: 33, cells_per_cycle, ttl_days: 1 };
    let schema = ModisWorkload::band_schema("band");
    let day_chunks = |day: usize| -> usize {
        let batches = w.cell_batch(day).unwrap();
        batches
            .iter()
            .map(|b| {
                let cells = b.cells();
                let chunks: BTreeSet<ChunkCoords> = cells
                    .iter()
                    .map(|(c, _)| elastic_array_db::array::chunk_of(&schema, c).unwrap())
                    .collect();
                chunks.len()
            })
            .sum()
    };
    let encoding = StringEncoding::default();
    let mut runner = WorkloadRunner::new(&w, config(kind, cells_per_cycle * 95, encoding, k));
    for c in 0..w.days {
        let report = runner.run_cycle(c).unwrap_or_else(|e| panic!("{tag}: cycle {c}: {e}"));
        let expired = if c >= w.ttl_days { day_chunks(c - w.ttl_days) } else { 0 };
        assert_eq!(report.evicted_chunks, expired, "{tag}: cycle {c} drops the expired day");
        assert_eq!(report.gc_compacted_chunks, 0, "{tag}: nothing was left to compact");
        let chunks =
            assert_holders_follow_one_record(&format!("{tag}/cycle {c}"), &runner, &[BAND1, BAND2]);
        let dead: u64 = chunks.iter().map(|chunk| chunk.tombstone_count()).sum();
        assert_eq!(dead, 0, "{tag}: cycle {c} left tombstones");
    }
}

// -------------------------------------------------------------- tests --

/// All 8 partitioners at dict/k=1: the broad sweep.
#[test]
fn ais_retraction_equals_never_inserted_baseline() {
    let w = AisWorkload {
        cycles: 3,
        scale: 0.05,
        seed: 21,
        cells_per_cycle: 1_200,
        dark_vessel_rate: 4,
    };
    for kind in PartitionerKind::ALL {
        run_ais_retraction_pair(&w, kind, w.cells_per_cycle * 90, StringEncoding::default(), 1);
    }
}

/// The encoding × replication matrix on two contrasting partitioners
/// (a space partitioner and a hash spread); the full 8-way matrix runs
/// in release via `retraction_smoke`.
#[test]
fn ais_retraction_matrix_dict_plain_k1_k2() {
    run_ais_matrix(900, 3, &[PartitionerKind::HilbertCurve, PartitionerKind::ConsistentHash]);
}

#[test]
fn modis_ttl_expiry_equals_never_inserted_baseline() {
    for kind in [PartitionerKind::UniformRange, PartitionerKind::RoundRobin] {
        run_modis_ttl_pair(900, 3, kind, 1);
    }
    run_modis_ttl_pair(900, 3, PartitionerKind::ConsistentHash, 2);
}

/// Heavier CI smoke: the full partitioner × encoding × replication
/// matrix at scale, plus MODIS TTL. Run with
/// `cargo test --release --test retraction_differential -- --ignored retraction_smoke`.
#[test]
#[ignore = "heavy: run in release via the retraction-smoke CI job"]
fn retraction_smoke() {
    run_ais_matrix(6_000, 4, &PartitionerKind::ALL);
    for kind in PartitionerKind::ALL {
        run_modis_ttl_pair(4_000, 4, kind, 2);
    }
}

/// Regression: a partial retraction used to copy the chunk once for the
/// node stores and once for the whole-array copy the catalog then kept,
/// leaving two equal chunks where ingest had placed one shared handle
/// (155 of 481 placed chunks after the first retracting cycle of this
/// very run). The second store is gone, and so is every replica's own
/// record; what is left to pin is that the `k` holders of a chunk follow
/// its one record.
#[test]
fn partial_retraction_keeps_the_stores_on_one_handle() {
    run_ais_sharing(4_000, PartitionerKind::ConsistentHash, StringEncoding::default(), 2);
}

/// Heavier CI smoke for the batch retraction path: one record per chunk,
/// its holders' ledgers following it, after every AIS cycle and
/// whole-chunk MODIS expiry, over all 8 partitioners × both string
/// encodings × k ∈ {1, 2}. Run with
/// `cargo test --release --test retraction_differential -- --ignored batch_retraction_smoke`.
#[test]
#[ignore = "heavy: run in release via the batch-retraction-smoke CI job"]
fn batch_retraction_smoke() {
    for kind in PartitionerKind::ALL {
        for k in [1usize, 2] {
            for encoding in [StringEncoding::default(), StringEncoding::Plain] {
                run_ais_sharing(6_000, kind, encoding, k);
            }
            run_modis_whole_chunk_expiry(4_000, kind, k);
        }
    }
}
