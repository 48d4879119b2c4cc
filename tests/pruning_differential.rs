//! The zone-map pruning differential suite.
//!
//! Contract under test: chunk pruning is a pure *work* optimization —
//! a plan that skips zone-map-refuted chunks must answer every operator
//! family bit-identically to the same plan with pruning disabled, while
//! visiting strictly fewer chunks on selective probes. The differential
//! runs the materialized AIS workload (inserts, dark-vessel
//! retractions, tombstone-GC compactions, capacity-triggered
//! scale-outs and rebalances) across all 8 partitioners, probes the
//! chunks placed on the cluster's nodes,
//! and replays a WAL crash/recover cycle to prove zone maps survive
//! the durability codecs still able to prune.
//!
//! Guaranteed-selective probes:
//!
//! * `voyage_id` is generated as `cycle * 1000 + 0..999`, so its
//!   per-chunk `Int` zones partition by cycle and a `>= last_cycle *
//!   1000` predicate refutes every earlier cycle's chunks — numeric
//!   zone pruning must fire on any run with ≥ 2 cycles.
//! * `receiver_id` draws 128 distinct strings; chunks with fewer rows
//!   miss most codes, so an equality probe exercises the dictionary
//!   `code_of` refutation.
//! * the joins and the science operators (window, k-means, trajectory)
//!   scan a *sliver*: the first tenth of cycle 0's first time chunk.
//!   Every chunk of that time chunk intersects it by bounds, but a
//!   chunk's few rows rarely start that early, so most zone maps refute
//!   it — region pruning must fire for each of them.
//!
//! The runner evicts a chunk the moment its last cell is retracted, so a
//! run never holds an *emptied* chunk; the hand-built leg at the bottom
//! covers that shape (the only one that prunes kNN's ring exploration).
//!
//! The reference is the same probe with pruning off. This suite keeps its
//! own `Answers` rather than `testkit::Probe`'s, because it pairs every
//! answer with the scan work behind it; runs start from `testkit::config`.

use durability::{shared, FsyncPolicy, MemLog};
use elastic_array_db::prelude::*;
use query_engine::ops;
use std::collections::BTreeMap;
use testkit::Row;
use workloads::ais::{AisWorkload, BROADCAST, VESSEL};
use workloads::DurabilityConfig;

/// Every operator family's answer in bit-comparable form, plus the scan
/// accounting that proves whether pruning fired.
#[derive(Debug, PartialEq)]
struct Answers {
    everything: Vec<Row>,
    voyage_matches: u64,
    receiver_eq: u64,
    receiver_in: u64,
    distinct_ids: Vec<i64>,
    median_bits: Option<u64>,
    groups: Vec<(Vec<i64>, u64, u64)>,
    rolling_sum_bits: Vec<(Vec<i64>, u64)>,
    /// `(matches, combined_sum bits)` of the speed ⋈ course self-join.
    self_join: (u64, u64),
    lookup_matches: u64,
    /// `(outputs, mean bits)`.
    window: (u64, Option<u64>),
    /// `(points, inertia bits, centroid bits)`.
    kmeans: (u64, u64, Vec<u64>),
    knn_bits: Vec<Vec<u64>>,
    /// `(projected, collision_candidates)`.
    trajectory: (u64, u64),
}

/// Scan accounting per probe: `(chunks_visited, chunks_pruned)`.
type ScanWork = BTreeMap<&'static str, (u64, u64)>;

/// The probes whose region or predicate is guaranteed selective: pruning
/// must fire on each of them.
const SELECTIVE: [&str; 7] = [
    "voyage",
    "rolling_aggregate",
    "positional_join",
    "lookup_join",
    "window_aggregate",
    "kmeans",
    "trajectory",
];

fn probe(
    cluster: &Cluster,
    catalog: &Catalog,
    cycles: usize,
    pruning: bool,
) -> (Answers, ScanWork) {
    let ctx = ExecutionContext::new(cluster, catalog).with_pruning(pruning);
    let mut work = ScanWork::new();
    let mut track = |name: &'static str, stats: &QueryStats| {
        let clash = work.insert(name, (stats.chunks_visited, stats.chunks_pruned));
        assert!(clash.is_none(), "probe {name} tracked twice");
    };

    let all = Region::new(vec![0, -180, 0], vec![i64::MAX / 2, -66, 90]);
    let (cells, stats) = ops::subarray(&ctx, BROADCAST, &all, &[]).unwrap();
    track("subarray", &stats);
    let mut everything = cells.cells.to_rows();
    everything.sort_by(|a, b| a.0.cmp(&b.0));

    // Numeric zone pruning: voyage ids partition by cycle.
    let newest_voyages = Predicate::ge(((cycles - 1) * 1000) as f64);
    let (voyage_matches, stats) =
        ops::filter_count(&ctx, BROADCAST, &all, "voyage_id", &newest_voyages).unwrap();
    track("voyage", &stats);

    // Dictionary pushdown: equality and IN probes over the 128-receiver
    // string column.
    let (receiver_eq, stats) =
        ops::filter_count(&ctx, BROADCAST, &all, "receiver_id", &Predicate::str_eq("r042"))
            .unwrap();
    track("receiver_eq", &stats);
    let (receiver_in, stats) = ops::filter_count(
        &ctx,
        BROADCAST,
        &all,
        "receiver_id",
        &Predicate::str_in(["r007", "r101"]),
    )
    .unwrap();
    track("receiver_in", &stats);

    let region = AisWorkload::cycle_region(0);
    let (distinct_ids, stats) =
        ops::distinct_sorted(&ctx, BROADCAST, Some(&region), "ship_id").unwrap();
    track("distinct_sorted", &stats);
    let (q, stats) = ops::quantile(&ctx, BROADCAST, Some(&region), "speed", 0.5, 1.0).unwrap();
    track("quantile", &stats);
    let spec = ops::GroupSpec::coarsened(vec![1, 2], vec![8, 8]);
    let (rows, stats) =
        ops::grid_aggregate(&ctx, BROADCAST, Some(&region), "speed", &spec, ops::AggFn::Sum)
            .unwrap();
    track("grid_aggregate", &stats);
    let mut groups: Vec<(Vec<i64>, u64, u64)> =
        rows.iter().map(|r| (r.key.clone(), r.value.to_bits(), r.cells)).collect();
    groups.sort();

    // The six operators ported onto the scan plan, over the sliver, plus
    // the rolling form of the aggregate (its predecessor pulls are chunk
    // touches too).
    let sliver = Region::new(vec![0, -180, 0], vec![43_200 / 10, -66, 90]);
    let (rolling, stats) =
        ops::rolling_aggregate(&ctx, BROADCAST, Some(&sliver), "speed", &spec, ops::AggFn::Sum, 1)
            .unwrap();
    track("rolling_aggregate", &stats);
    let (join, stats) =
        ops::positional_join(&ctx, BROADCAST, BROADCAST, &sliver, "speed", "course", |s, c| s + c)
            .unwrap();
    track("positional_join", &stats);
    let (lookup, stats) =
        ops::lookup_join(&ctx, BROADCAST, VESSEL, Some(&sliver), "ship_id", "ship_type").unwrap();
    track("lookup_join", &stats);
    let (window, stats) = ops::window_aggregate(&ctx, BROADCAST, &sliver, "speed", 1).unwrap();
    track("window_aggregate", &stats);
    let (kmeans, stats) = ops::kmeans(&ctx, BROADCAST, &sliver, "speed", 3, 4).unwrap();
    track("kmeans", &stats);
    let (trajectory, stats) =
        ops::trajectory(&ctx, BROADCAST, &sliver, "speed", "course", 0.25).unwrap();
    track("trajectory", &stats);
    let knn_queries = testkit::ais(cycles, 0).knn_queries(0, 8);
    let (knn, stats) = ops::knn(&ctx, BROADCAST, &knn_queries, 5).unwrap();
    track("knn", &stats);

    let answers = Answers {
        everything,
        voyage_matches,
        receiver_eq,
        receiver_in,
        distinct_ids,
        median_bits: q.value.map(f64::to_bits),
        groups,
        rolling_sum_bits: rolling.iter().map(|r| (r.key.clone(), r.value.to_bits())).collect(),
        self_join: (join.matches, join.combined_sum.to_bits()),
        lookup_matches: lookup.matches,
        window: (window.outputs, window.mean.map(f64::to_bits)),
        kmeans: (
            kmeans.points,
            kmeans.inertia.to_bits(),
            kmeans.centroids.iter().flatten().map(|v| v.to_bits()).collect(),
        ),
        knn_bits: knn
            .iter()
            .map(|a| a.neighbor_dist2.iter().map(|d| d.to_bits()).collect())
            .collect(),
        trajectory: (trajectory.projected, trajectory.collision_candidates),
    };
    (answers, work)
}

/// Pruned and unpruned probes over one `(cluster, catalog)` pair must
/// agree bit for bit; the pruned pass must do strictly less scan work.
fn assert_pruning_neutral(cluster: &Cluster, catalog: &Catalog, cycles: usize, tag: &str) {
    let (on, on_work) = probe(cluster, catalog, cycles, true);
    let (off, off_work) = probe(cluster, catalog, cycles, false);
    assert_eq!(on, off, "{tag}: pruning changed an answer");
    assert!(!on.everything.is_empty(), "{tag}: vacuous differential — no cells stored");
    assert!(on.voyage_matches > 0, "{tag}: newest-cycle voyage probe found nothing");
    assert!(on.self_join.0 > 0, "{tag}: sliver self-join matched nothing");
    assert!(on.window.0 > 0 && on.kmeans.0 > 0, "{tag}: sliver holds no cells");
    assert!(on.knn_bits.iter().all(|d| !d.is_empty()), "{tag}: knn found no neighbours");
    assert_eq!(
        on_work.keys().collect::<Vec<_>>(),
        off_work.keys().collect::<Vec<_>>(),
        "{tag}: the two passes ran different probes"
    );
    for (name, &(visited, pruned)) in &on_work {
        let (off_visited, off_pruned) = off_work[name];
        assert_eq!(off_pruned, 0, "{tag}: {name} pruned with pruning disabled");
        assert_eq!(
            visited + pruned,
            off_visited,
            "{tag}: {name}'s pruned plan must classify exactly the unpruned chunk touches"
        );
        if SELECTIVE.contains(name) {
            assert!(pruned > 0, "{tag}: {name}'s zone maps refuted nothing (visited {visited})");
            assert!(visited < off_visited, "{tag}: {name} visited as much as unpruned");
        }
    }
}

/// One full run: inserts + retractions + GC compactions + scale-outs,
/// probed where the cells are — the chunks placed on the cluster's
/// nodes, whose zone maps do the pruning.
fn run_pruning_pair(w: &AisWorkload, kind: PartitionerKind) {
    let tag = format!("{kind}");
    let node_capacity = w.cells_per_cycle * 90;
    let cfg = testkit::config(kind, node_capacity);
    let mut runner = WorkloadRunner::new(w, cfg);
    for c in 0..w.cycles {
        runner.run_cycle(c).unwrap_or_else(|e| panic!("{tag}: cycle {c}: {e}"));
    }
    assert!(
        runner.cluster().node_count() > 2,
        "{tag}: run never scaled out — rebalance not covered"
    );

    assert_pruning_neutral(runner.cluster(), runner.catalog(), w.cycles, &tag);
}

// --------------------------------------------------------------- tests --

/// All 8 partitioners, after a run with retractions, compactions, and
/// rebalances.
#[test]
fn ais_pruning_differential_all_partitioners() {
    let w = AisWorkload { dark_vessel_rate: 4, ..testkit::ais(3, 1_200) };
    for kind in PartitionerKind::ALL {
        run_pruning_pair(&w, kind);
    }
}

/// Zone maps ride the chunk codec through the WAL checkpoint: crash the
/// durable run at its final record boundary, recover, and demand the
/// recovered state still answers pruned == unpruned with pruning
/// actually firing.
#[test]
fn pruning_survives_a_wal_crash_and_recovery() {
    let w = AisWorkload { dark_vessel_rate: 4, ..testkit::ais(3, 900) };
    let kind = PartitionerKind::ConsistentHash;
    let durability = Some(DurabilityConfig {
        log: shared(MemLog::new()),
        checkpoint_every: 2,
        fsync_policy: FsyncPolicy::Always,
    });
    let cfg = RunnerConfig { durability, ..testkit::config(kind, w.cells_per_cycle * 90) };
    let mut live = WorkloadRunner::new(&w, cfg.clone());
    live.run_all().expect("durable run completes");
    let (want, _) = probe(live.cluster(), live.catalog(), w.cycles, false);
    drop(live);

    let rec = WorkloadRunner::recover(&w, cfg, Vec::new()).expect("recovery succeeds");
    assert_eq!(rec.start_cycle(), w.cycles, "recovered mid-run — probes would be vacuous");
    assert_pruning_neutral(rec.cluster(), rec.catalog(), w.cycles, "recovered");
    let (got, _) = probe(rec.cluster(), rec.catalog(), w.cycles, true);
    assert_eq!(got, want, "recovered pruned answers differ from the pre-crash run");
}

/// Every operator's answer over the hand-built grid, bit-comparable.
type GridAnswers = Vec<(&'static str, Vec<u64>)>;

/// All twelve operators over the 4×4-chunk grid of
/// `emptied_chunks_prune_in_every_operator`, probing around chunk (1,1).
fn grid_probe(cluster: &Cluster, catalog: &Catalog, pruning: bool) -> (GridAnswers, ScanWork) {
    let (grid, keys) = (ArrayId(0), ArrayId(1));
    let ctx = ExecutionContext::new(cluster, catalog).with_pruning(pruning);
    let region = Region::new(vec![0, 0], vec![11, 11]);
    let spec = ops::GroupSpec::by_dims(vec![0]);
    let bits = |v: f64| v.to_bits();
    let mut answers = GridAnswers::new();
    let mut work = ScanWork::new();
    let mut keep = |name: &'static str, answer: Vec<u64>, stats: QueryStats| {
        answers.push((name, answer));
        work.insert(name, (stats.chunks_visited, stats.chunks_pruned));
    };

    let (a, s) = ops::subarray(&ctx, grid, &region, &["v"]).unwrap();
    keep("subarray", a.cells.iter().map(|(_, v)| bits(v[0].as_f64().unwrap())).collect(), s);
    let (a, s) = ops::filter_count(&ctx, grid, &region, "v", &Predicate::ge(0.0)).unwrap();
    keep("filter_count", vec![a], s);
    let (a, s) =
        ops::grid_aggregate(&ctx, grid, Some(&region), "v", &spec, ops::AggFn::Sum).unwrap();
    keep("grid_aggregate", a.iter().map(|r| bits(r.value)).collect(), s);
    let (a, s) =
        ops::rolling_aggregate(&ctx, grid, Some(&region), "v", &spec, ops::AggFn::Sum, 1).unwrap();
    keep("rolling_aggregate", a.iter().map(|r| bits(r.value)).collect(), s);
    let (a, s) = ops::quantile(&ctx, grid, Some(&region), "v", 0.5, 1.0).unwrap();
    keep("quantile", vec![bits(a.value.unwrap()), a.sampled_cells], s);
    let (a, s) = ops::distinct_sorted(&ctx, grid, Some(&region), "k").unwrap();
    keep("distinct_sorted", a.iter().map(|&k| k as u64).collect(), s);
    let (a, s) = ops::positional_join(&ctx, grid, grid, &region, "v", "v", |l, r| l * r).unwrap();
    keep("positional_join", vec![a.matches, bits(a.combined_sum)], s);
    let (a, s) = ops::lookup_join(&ctx, grid, keys, Some(&region), "k", "id").unwrap();
    keep("lookup_join", vec![a.matches], s);
    let (a, s) = ops::window_aggregate(&ctx, grid, &region, "v", 1).unwrap();
    keep("window_aggregate", vec![a.outputs, bits(a.mean.unwrap())], s);
    let (a, s) = ops::kmeans(&ctx, grid, &region, "v", 2, 3).unwrap();
    let centroids = a.centroids.iter().flatten().map(|&c| bits(c));
    keep("kmeans", centroids.chain([a.points, bits(a.inertia)]).collect(), s);
    let (a, s) = ops::knn(&ctx, grid, &[vec![5, 5], vec![9, 6]], 4).unwrap();
    keep("knn", a.iter().flat_map(|k| &k.neighbor_dist2).map(|&d| bits(d)).collect(), s);
    let (a, s) = ops::trajectory(&ctx, grid, &region, "v", "v", 0.5).unwrap();
    keep("trajectory", vec![a.projected, a.collision_candidates], s);
    (answers, work)
}

/// A chunk whose every cell was retracted in place — placed, payload
/// attached, zero live rows — is the one shape that prunes all twelve
/// operators at once: region scans drop it (and the halo pulls, hand-offs
/// and join pairs it was an end of), and kNN's ring exploration never
/// fetches it. Store-only catalog, chunks spread over four nodes.
#[test]
fn emptied_chunks_prune_in_every_operator() {
    use elastic_array_db::array::Chunk;

    let schema = ArraySchema::parse("G<v:double, k:int64>[x=0:15,4, y=0:15,4]").unwrap();
    let mut cluster = Cluster::new(4, u64::MAX, CostModel::default()).unwrap();
    let mut descriptors = Vec::new();
    for (cx, cy) in (0..4i64).flat_map(|cx| (0..4i64).map(move |cy| (cx, cy))) {
        let mut chunk = Chunk::new(&schema, ChunkCoords::new([cx, cy]));
        let cells: Vec<Vec<i64>> = (0..4)
            .flat_map(|dx| (0..4).map(move |dy| vec![cx * 4 + dx, cy * 4 + dy]))
            .filter(|c| (c[0] + c[1]) % 3 != 0)
            .collect();
        for cell in &cells {
            let values =
                vec![ScalarValue::Double((cell[0] * 16 + cell[1]) as f64), ScalarValue::Int64(cx)];
            chunk.push_cell(&schema, cell.clone(), values).unwrap();
        }
        if (cx, cy) == (1, 1) {
            for cell in &cells {
                chunk.retract_cell(cell).expect("cell was just inserted");
            }
            assert_eq!((chunk.cell_count(), chunk.physical_cell_count()), (0, cells.len()));
        }
        let desc = chunk.descriptor(ArrayId(0));
        cluster.place(desc, NodeId(((cx + 2 * cy) % 4) as u32)).unwrap();
        cluster.attach_payload(desc.key, chunk).unwrap();
        descriptors.push(desc);
    }
    let mut catalog = Catalog::new();
    catalog.register(StoredArray::from_descriptors(ArrayId(0), schema, descriptors));
    let mut keys = Array::new(ArrayId(1), ArraySchema::parse("K<id:int64>[i=0:3,4]").unwrap());
    for (i, id) in [0i64, 1, 1, 2].into_iter().enumerate() {
        keys.insert_cell(vec![i as i64], vec![ScalarValue::Int64(id)]).unwrap();
    }
    catalog.register(StoredArray::from_array(keys).replicated());

    let (on, on_work) = grid_probe(&cluster, &catalog, true);
    let (off, off_work) = grid_probe(&cluster, &catalog, false);
    assert_eq!(on, off, "pruning changed an answer");
    assert_eq!(on.len(), 12);
    for (name, answer) in &on {
        assert!(answer.iter().any(|&b| b != 0), "{name}: vacuous answer {answer:?}");
        let ((visited, pruned), (off_visited, off_pruned)) = (on_work[name], off_work[name]);
        assert_eq!(off_pruned, 0, "{name} pruned with pruning disabled");
        assert!(pruned > 0, "{name}: the emptied chunk was not pruned");
        assert_eq!(visited + pruned, off_visited, "{name}: chunk touches misclassified");
    }
}

/// Heavier CI smoke: every partitioner at scale.
/// Run with `cargo test --release --test pruning_differential -- --ignored scan_smoke`.
#[test]
#[ignore = "heavy: run in release via the scan-smoke CI job"]
fn scan_smoke() {
    let w = AisWorkload { dark_vessel_rate: 4, ..testkit::ais(4, 6_000) };
    for kind in PartitionerKind::ALL {
        run_pruning_pair(&w, kind);
    }
}
