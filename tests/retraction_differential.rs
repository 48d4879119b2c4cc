//! The retraction differential suite.
//!
//! Contract under test: a retraction is a *perfect* undo. A workload
//! that inserts cells and later retracts some of them must end up
//! answering every query bit-identically to a twin workload that never
//! inserted the retracted cells at all — across all 8 partitioners,
//! after every scale-out and rebalance either run triggers, and at
//! replication k ∈ {1, 2}. The runs' *placements and byte accounting* legitimately
//! diverge (the insert+delete run carried the doomed cells for a cycle,
//! so its demand curve and rebalances differ); the *answer space* may
//! not.
//!
//! The never-inserted baseline is constructed mechanically from the
//! retracting workload itself (`testkit::SurvivorsOnly`): replay the
//! generator, collect every coordinate any cycle retracts, and emit only
//! the surviving inserts with no retractions. Cells a run retracts are
//! exactly the cells its baseline never sees, so after the *last*
//! retraction lands the two runs describe the same array. Both are asked
//! through `testkit::Probe::ais`, and the whole array is held to
//! `testkit::Oracle`, the generator's batches folded from scratch.

use durability::ByteWriter;
use elastic_array_db::array::Chunk;
use elastic_array_db::prelude::*;
use query_engine::ops;
use std::collections::BTreeSet;
use testkit::{assert_books, CellChurn, Oracle, Probe, SurvivorsOnly};
use workloads::ais::{AisWorkload, BROADCAST};
use workloads::modis::{ModisWorkload, BAND1, BAND2};

// --------------------------------------------------------------- legs --

/// One lockstep pair: the dark-vessel run vs its never-inserted twin,
/// compared at the end of the run (after the final retraction lands the
/// two describe the same array) with each other and against the
/// independent raw-cell oracle. Every answer is read off the tombstoned
/// chunks in the node stores — the cells have no other home.
fn run_ais_retraction_pair(w: &AisWorkload, kind: PartitionerKind, node_capacity: u64, k: usize) {
    let tag = format!("{kind}/k{k}");
    let baseline_w = SurvivorsOnly::new(w.clone());
    assert!(baseline_w.doomed_cells() > 0, "{tag}: no vessel went dark — vacuous differential");

    let cfg = RunnerConfig { replication: k, ..testkit::config(kind, node_capacity) };
    let mut dark = WorkloadRunner::new(w, cfg.clone());
    let mut baseline = WorkloadRunner::new(&baseline_w, cfg);
    for c in 0..w.cycles {
        dark.run_cycle(c).unwrap_or_else(|e| panic!("{tag}: dark cycle {c}: {e}"));
        baseline.run_cycle(c).unwrap_or_else(|e| panic!("{tag}: baseline cycle {c}: {e}"));
    }

    // The retracting run stayed full strength through the deletes.
    assert!(dark.cluster().replica_census().is_full_strength(), "{tag}: census under strength");

    // The insert+delete run equals the never-inserted baseline bit for
    // bit, across every operator family.
    let probe = Probe::ais(w);
    let want = probe.answers(baseline.cluster(), baseline.catalog());
    let got = probe.answers(dark.cluster(), dark.catalog());
    assert_eq!(got, want, "{tag}: insert+delete answers differ from the never-inserted baseline");

    // Both agree with the independent raw-cell oracle.
    let oracle = Oracle::after(w, w.cycles).rows(BROADCAST);
    assert_eq!(got.everything, oracle, "{tag}: stored cells differ from the survivor oracle");

    // Descriptor books track the retracted payloads exactly.
    let live = assert_books(&dark, BROADCAST);
    assert_eq!(live, oracle.len() as u64, "{tag}: descriptor cell totals ignore tombstones");
}

fn run_ais_matrix(cells_per_cycle: u64, cycles: usize, kinds: &[PartitionerKind]) {
    let w = AisWorkload { dark_vessel_rate: 4, ..testkit::ais(cycles, cells_per_cycle) };
    let node_capacity = cells_per_cycle * 90;
    for &kind in kinds {
        for k in [1usize, 2] {
            run_ais_retraction_pair(&w, kind, node_capacity, k);
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

    let cfg = RunnerConfig { replication: k, ..testkit::config(kind, cells_per_cycle * 95) };
    let mut ttl = WorkloadRunner::new(&w, cfg.clone());
    let mut baseline = WorkloadRunner::new(&baseline_w, cfg);
    for c in 0..days {
        ttl.run_cycle(c).unwrap_or_else(|e| panic!("{tag}: ttl cycle {c}: {e}"));
        baseline.run_cycle(c).unwrap_or_else(|e| panic!("{tag}: baseline cycle {c}: {e}"));
    }

    let scan = |cluster: &Cluster, catalog: &Catalog| {
        let ctx = ExecutionContext::new(cluster, catalog);
        let all = Region::new(vec![0, -180, -90], vec![i64::MAX / 2, 180, 90]);
        let bands = [BAND1, BAND2].map(|id| testkit::scan(cluster, catalog, id, &all));
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
    for (key, _) in cluster.placements() {
        // A k = 1 orphan keeps its placement but has no record, and no holder.
        let Some(desc) = cluster.descriptor(&key) else { continue };
        for h in cluster.replica_holders(&key) {
            held[h.0 as usize] += desc.bytes;
        }
    }
    for node in cluster.nodes() {
        let want = held[node.id.0 as usize];
        assert_eq!(node.replica_bytes(), want, "{tag}: {}'s replica ledger drifted", node.id);
    }
    let mut records = Vec::new();
    for record in cluster.residents().filter(|r| arrays.contains(&r.descriptor().key.array)) {
        let (key, desc) = (record.descriptor().key, record.descriptor());
        let chunk = cluster.primary_payload(&key).unwrap_or_else(|e| panic!("{tag}: {e}"));
        let sizes = (chunk.byte_size(), chunk.cell_count());
        assert_eq!((desc.bytes, desc.cells), sizes, "{tag}: {key} left its cells");
        records.push(chunk.as_ref());
    }
    assert!(!records.is_empty(), "{tag}: no chunk placed");
    records
}

/// Dark-vessel retractions empty few chunks outright — most only lose
/// rows, the case that used to un-share a chunk's holders — checked
/// after every cycle.
fn run_ais_sharing(cells_per_cycle: u64, kind: PartitionerKind, k: usize) {
    let tag = format!("{kind}/k{k}/sharing");
    let w = AisWorkload { dark_vessel_rate: 4, ..testkit::ais(3, cells_per_cycle) };
    let cfg = RunnerConfig { replication: k, ..testkit::config(kind, cells_per_cycle * 90) };
    let mut runner = WorkloadRunner::new(&w, cfg);
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
    let cfg = RunnerConfig { replication: k, ..testkit::config(kind, cells_per_cycle * 95) };
    let mut runner = WorkloadRunner::new(&w, cfg);
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

/// All 8 partitioners at k=1: the broad sweep.
#[test]
fn ais_retraction_equals_never_inserted_baseline() {
    let w = AisWorkload { dark_vessel_rate: 4, ..testkit::ais(3, 1_200) };
    for kind in PartitionerKind::ALL {
        run_ais_retraction_pair(&w, kind, w.cells_per_cycle * 90, 1);
    }
}

/// The replication matrix on two contrasting partitioners (a space
/// partitioner and a hash spread); the full 8-way matrix runs in release
/// via `retraction_smoke`.
#[test]
fn ais_retraction_matrix_k1_k2() {
    run_ais_matrix(900, 3, &[PartitionerKind::HilbertCurve, PartitionerKind::ConsistentHash]);
}

#[test]
fn modis_ttl_expiry_equals_never_inserted_baseline() {
    for kind in [PartitionerKind::UniformRange, PartitionerKind::RoundRobin] {
        run_modis_ttl_pair(900, 3, kind, 1);
    }
    run_modis_ttl_pair(900, 3, PartitionerKind::ConsistentHash, 2);
}

/// A catalog as checkpoint bytes.
fn encoded(catalog: &Catalog) -> Vec<u8> {
    let mut w = ByteWriter::new();
    catalog.encode_into(&mut w);
    w.into_bytes()
}

/// The runner's catalog is what the workload registered, for the whole
/// run: it files no chunk — a partitioned chunk's one book is the
/// placement index — through inserts, retractions, evictions and
/// compactions, crashes and the chunks they lose. Checked as checkpoint
/// bytes after every cycle of a dark-vessel AIS run and a MODIS TTL run,
/// at k = 1 and k = 2, and of a k = 1 churn run whose crash of node 0
/// loses chunks.
#[test]
fn the_catalog_stays_the_registrations_every_cycle() {
    let ais = AisWorkload { dark_vessel_rate: 4, ..testkit::ais(3, 1_200) };
    let modis = ModisWorkload { days: 3, scale: 0.05, seed: 33, cells_per_cycle: 900, ttl_days: 1 };
    let churn =
        CellChurn { cycles: 4, cells: 512, chunk: 64, tags: 37, grid: 32, derived: [4096, 17, 10] };
    let crash = FaultPlan::new(7).at(1, FaultKind::Crash(0));
    let mut runs: Vec<(&str, &dyn Workload, RunnerConfig)> = Vec::new();
    for (kind, k) in [(PartitionerKind::HilbertCurve, 1), (PartitionerKind::ConsistentHash, 2)] {
        let cfg = |cap| RunnerConfig { replication: k, ..testkit::config(kind, cap) };
        runs.push(("ais-dark", &ais, cfg(1_200 * 90)));
        runs.push(("modis-ttl", &modis, cfg(900 * 95)));
    }
    let lossy = RunnerConfig {
        initial_nodes: 4,
        fault_plan: Some(crash),
        ..testkit::config(PartitionerKind::RoundRobin, 16 * 512)
    };
    runs.push(("churn-crash0", &churn, lossy));
    for (name, w, cfg) in runs {
        let mut registered = Catalog::new();
        w.register_arrays(&mut registered);
        let registered = encoded(&registered);
        let (kind, k, lossy) = (cfg.partitioner, cfg.replication, cfg.fault_plan.is_some());
        let mut runner = WorkloadRunner::new(w, cfg);
        for c in 0..w.cycles() {
            let tag = format!("{kind}/{name}/k{k}/cycle{c}");
            runner.run_cycle(c).unwrap_or_else(|e| panic!("{tag}: {e}"));
            assert!(encoded(runner.catalog()) == registered, "{tag}: the run wrote its catalog");
        }
        let lost = runner.cluster().replica_census().lost;
        assert_eq!(lost > 0, lossy, "{kind}/{name}/k{k}: {lost} chunks lost");
    }
}

/// Heavier CI smoke: the full partitioner × replication matrix at
/// scale, plus MODIS TTL. Run with
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
    run_ais_sharing(4_000, PartitionerKind::ConsistentHash, 2);
}

/// Heavier CI smoke for the batch retraction path: one record per chunk,
/// its holders' ledgers following it, after every AIS cycle and
/// whole-chunk MODIS expiry, over all 8 partitioners × k ∈ {1, 2}. Run
/// with
/// `cargo test --release --test retraction_differential -- --ignored batch_retraction_smoke`.
#[test]
#[ignore = "heavy: run in release via the batch-retraction-smoke CI job"]
fn batch_retraction_smoke() {
    for kind in PartitionerKind::ALL {
        for k in [1usize, 2] {
            run_ais_sharing(6_000, kind, k);
            run_modis_whole_chunk_expiry(4_000, kind, k);
        }
    }
}
