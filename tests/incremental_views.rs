//! The incremental-view differential suite.
//!
//! Contract under test: a [`MaterializedView`] maintained in O(|Δ|) per
//! cycle holds **bit-identical** state to a from-scratch recompute over
//! the surviving cells — after every scale-out and rebalance, across
//! all 8 partitioners, for dictionary-encoded and plain string storage,
//! at replication k ∈ {1, 2}, through retraction cycles (with the
//! automatic tombstone GC on, at its default threshold), through a
//! scale-in trough that drains the array to nothing, and on a
//! fault-injected twin whose crashes and failovers move bytes around
//! underneath the view — or, at k = 1, lose chunks whose cells the view
//! keeps counting.
//!
//! The recompute oracle is mechanical (`testkit::Oracle::assert_views`):
//! instantiate a *fresh* copy of the same [`ViewDef`] and feed it one
//! bulk delta per input array, extracted (`DeltaSet::from_live_cells`)
//! from a whole-array copy of `testkit::Oracle`'s cells, folded from the
//! generator's batches alone — the runner keeps none. Because view state
//! depends only on the logical delta stream — never on placement — every
//! leg's snapshots must also agree *across* partitioners, encodings, and
//! replication factors, and the maintained identity view must equal the
//! oracle's raw cells, as must the arrays the views read (not re-scanned
//! in the benchmark-shaped `view_batch_smoke`). The scale-in trough is
//! `testkit::GrowRetract`, and the faulted twin runs
//! `testkit::scripted_faults`.

use elastic_array_db::prelude::*;
use query_engine::view::{
    AggKind, EmitFn, GroupKeyFn, JoinKeyFn, KeyScalar, MapFn, PredFn, RowOp, ValueFn, ViewDef,
    ViewKind, ViewSnapshot,
};
use query_engine::QueryError;
use std::sync::Arc;
use testkit::{num, scripted_faults, GrowRetract, Oracle, Row};
use workloads::ais::{AisWorkload, BROADCAST};
use workloads::modis::{ModisWorkload, BAND1, BAND2};

// --------------------------------------------------------------- views --

/// The AIS view set: an identity select (pinned against the raw-cell
/// oracle), a filter+project pipeline, and one grouped aggregate per
/// [`AggKind`] over an 8×8-coarsened lon/lat grid of vessel speeds.
fn ais_views() -> Vec<ViewDef> {
    let mut defs = Vec::new();
    defs.push(ViewDef::select("all-rows", BROADCAST, Vec::new()));

    let fast: PredFn = Arc::new(|_, v| num(&v[0]) >= 10.0);
    let project: MapFn =
        Arc::new(|c, v| (c.to_vec(), vec![v[6].clone(), v[0].clone(), v[8].clone()]));
    defs.push(ViewDef::select(
        "fast-vessels",
        BROADCAST,
        vec![RowOp::Filter(fast), RowOp::Map(project)],
    ));

    let grid: GroupKeyFn = Arc::new(|c, _| vec![c[1].div_euclid(8), c[2].div_euclid(8)]);
    let speed: ValueFn = Arc::new(|_, v| num(&v[0]));
    for agg in [AggKind::Count, AggKind::Sum, AggKind::Avg, AggKind::Min, AggKind::Max] {
        defs.push(ViewDef::aggregate(
            format!("grid-speed-{agg:?}"),
            BROADCAST,
            Vec::new(),
            grid.clone(),
            speed.clone(),
            agg,
        ));
    }
    defs
}

// ----------------------------------------------------------- AIS legs --

/// One retracting AIS run with the full view set registered: every view
/// must match its recompute oracle *after every cycle*, and the
/// identity view must equal the independent raw-cell oracle at the end.
/// Returns the end-of-run snapshots for cross-leg comparison.
fn run_ais_views(
    w: &AisWorkload,
    kind: PartitionerKind,
    node_capacity: u64,
    encoding: StringEncoding,
    k: usize,
) -> Vec<(String, ViewSnapshot)> {
    let tag = format!("{kind}/{encoding:?}/k{k}");
    let cfg = RunnerConfig {
        string_encoding: encoding,
        replication: k,
        ..testkit::config(kind, node_capacity)
    };
    let mut runner = WorkloadRunner::new(w, cfg);
    for def in ais_views() {
        runner.register_view(def);
    }
    let mut delta_rows = 0u64;
    let mut retracted = 0u64;
    let mut oracle = Oracle::new(w);
    for c in 0..w.cycles {
        let report = runner.run_cycle(c).unwrap_or_else(|e| panic!("{tag}: cycle {c}: {e}"));
        delta_rows += report.view_delta_rows;
        retracted += report.retracted_cells;
        oracle.cycle(w, c);
        oracle.assert_views(&runner, &format!("{tag}/cycle{c}"));
        oracle.assert_stored(&runner, BROADCAST, &format!("{tag}/cycle{c}"));
    }
    assert!(delta_rows > 0, "{tag}: no deltas reached the views");
    assert!(retracted > 0, "{tag}: no vessel went dark — vacuous differential");

    // The identity view equals the independent raw-cell oracle, with
    // every weight exactly 1.
    let oracle = oracle.rows(BROADCAST);
    let got: Vec<Row> = runner
        .views()
        .view("all-rows")
        .expect("registered")
        .output_rows()
        .into_iter()
        .map(|(row, weight)| {
            assert_eq!(weight, 1, "{tag}: duplicate or phantom row in the identity view");
            row
        })
        .collect();
    assert_eq!(got, oracle, "{tag}: identity view differs from the survivor oracle");
    assert!(
        !runner.views().view("fast-vessels").unwrap().output_rows().is_empty(),
        "{tag}: filter view empty — vacuous"
    );

    runner.views().views().iter().map(|v| (v.name().to_string(), v.snapshot())).collect()
}

fn run_ais_matrix(cells_per_cycle: u64, cycles: usize, kinds: &[PartitionerKind], ks: &[usize]) {
    let w = AisWorkload { dark_vessel_rate: 4, ..testkit::ais(cycles, cells_per_cycle) };
    let node_capacity = cells_per_cycle * 90;
    let mut reference: Option<Vec<(String, ViewSnapshot)>> = None;
    for &kind in kinds {
        for &k in ks {
            for encoding in [StringEncoding::default(), StringEncoding::Plain] {
                let got = run_ais_views(&w, kind, node_capacity, encoding, k);
                match &reference {
                    None => reference = Some(got),
                    Some(want) => assert_eq!(
                        &got, want,
                        "{kind}/{encoding:?}/k{k}: view state depends on placement"
                    ),
                }
            }
        }
    }
}

// ----------------------------------------------------------- MODIS leg --

/// The MODIS view set: an NDVI hash-join of band 1 against band 2 on
/// full cell coordinates, and a per-day mean radiance over band 1.
fn modis_views() -> Vec<ViewDef> {
    let key: JoinKeyFn = Arc::new(|c, _| c.iter().map(|&x| KeyScalar::Int(x)).collect());
    let emit: EmitFn = Arc::new(|l, r| {
        let (b1, b2) = (num(&l.1[1]), num(&r.1[1]));
        (l.0.clone(), vec![ScalarValue::Double((b2 - b1) / (b2 + b1 + 1e-9))])
    });
    let ndvi = ViewDef::join("ndvi", BAND1, BAND2, Vec::new(), Vec::new(), key.clone(), key, emit);
    let day: GroupKeyFn = Arc::new(|c, _| vec![c[0].div_euclid(1440)]);
    let radiance: ValueFn = Arc::new(|_, v| num(&v[1]));
    let daily =
        ViewDef::aggregate("daily-radiance", BAND1, Vec::new(), day, radiance, AggKind::Avg);
    vec![ndvi, daily]
}

/// MODIS tile-TTL expiry: the join view's indexed per-key state takes
/// retractions on *both* sides (each expired day drops its band-1 and
/// band-2 rows), and must still match recompute every cycle.
fn run_modis_views(cells_per_cycle: u64, days: usize, kind: PartitionerKind, k: usize) {
    let tag = format!("{kind}/modis-ttl/k{k}");
    let w = ModisWorkload { days, scale: 0.05, seed: 33, cells_per_cycle, ttl_days: 1 };
    let mut runner = WorkloadRunner::new(
        &w,
        RunnerConfig { replication: k, ..testkit::config(kind, cells_per_cycle * 95) },
    );
    for def in modis_views() {
        runner.register_view(def);
    }
    let mut retracted = 0u64;
    let mut oracle = Oracle::new(&w);
    for c in 0..days {
        let report = runner.run_cycle(c).unwrap_or_else(|e| panic!("{tag}: cycle {c}: {e}"));
        retracted += report.retracted_cells;
        oracle.cycle(&w, c);
        let tag = format!("{tag}/cycle{c}");
        oracle.assert_views(&runner, &tag);
        [BAND1, BAND2].iter().for_each(|&id| oracle.assert_stored(&runner, id, &tag));
    }
    assert!(retracted > 0, "{tag}: TTL never expired a tile — vacuous");
    let ndvi = runner.views().view("ndvi").expect("registered");
    assert!(!ndvi.output_rows().is_empty(), "{tag}: join view found no partners — vacuous");
}

// -------------------------------------------------------- scale-in leg --

#[test]
fn scale_in_trough_drains_views_to_empty() {
    // The run climbs the staircase and then walks it back down as the
    // deletes land, until the array is empty.
    let w = GrowRetract {
        array: ArrayId(7),
        cycles: 6,
        grow: 3,
        cells: 2048,
        first_doomed: 0,
        value: |x| (x % 97) as f64 - 48.0,
    };
    let mut runner = WorkloadRunner::new(&w, GrowRetract::staircase(PartitionerKind::RoundRobin));
    runner.register_view(ViewDef::select("all-rows", w.array, Vec::new()));
    let bucket: GroupKeyFn = Arc::new(|c, _| vec![c[0].div_euclid(256)]);
    let value: ValueFn = Arc::new(|_, v| num(&v[0]));
    for agg in [AggKind::Sum, AggKind::Min, AggKind::Max] {
        runner.register_view(ViewDef::aggregate(
            format!("bucket-{agg:?}"),
            w.array,
            Vec::new(),
            bucket.clone(),
            value.clone(),
            agg,
        ));
    }
    let mut removed = 0usize;
    let mut peak_groups = 0usize;
    let mut oracle = Oracle::new(&w);
    for c in 0..w.cycles {
        let report = runner.run_cycle(c).unwrap_or_else(|e| panic!("trough cycle {c}: {e}"));
        removed += report.removed_nodes;
        oracle.cycle(&w, c);
        oracle.assert_views(&runner, &format!("trough/cycle{c}"));
        oracle.assert_stored(&runner, w.array, &format!("trough/cycle{c}"));
        peak_groups =
            peak_groups.max(runner.views().view("bucket-Sum").unwrap().group_rows().len());
    }
    assert!(removed > 0, "the trough never scaled in — the leg is vacuous");
    assert!(peak_groups > 0, "the aggregate views never held a group");
    // Every insert was retracted: every view drained to exactly empty —
    // no leftover group, no weight-zero residue.
    for v in runner.views().views() {
        let snap = v.snapshot();
        assert!(
            snap.rows.is_empty() && snap.groups.is_empty(),
            "view '{}' holds residue after a full drain",
            v.name()
        );
    }
}

// ------------------------------------------------------ faulted twin --

/// Crashes, failovers, and repairs move bytes, never logical cells: the
/// faulted run's views must stay bit-identical to the fault-free twin's
/// (and to recompute) every cycle. At `k = 1` a crash loses chunks: a
/// view maintains the logical stream, so it keeps the contribution of
/// the cells the crash lost, while the store answers a whole-array scan
/// `NodeLost`. Returns how many chunks the faulted run ends with lost.
fn run_faulted_twin(w: &AisWorkload, kind: PartitionerKind, k: usize) -> usize {
    let tag = format!("{kind}/faulted/k{k}");
    let node_capacity = w.cells_per_cycle * 90;
    let mk = |fault_plan| RunnerConfig {
        initial_nodes: k + 2,
        replication: k,
        fault_plan,
        ..testkit::config(kind, node_capacity)
    };
    let mut faulted = WorkloadRunner::new(w, mk(Some(scripted_faults(k))));
    let mut clean = WorkloadRunner::new(w, mk(None));
    for def in ais_views() {
        faulted.register_view(def.clone());
        clean.register_view(def);
    }
    let mut crashed = 0usize;
    let mut oracle = Oracle::new(w);
    for c in 0..w.cycles {
        let fr = faulted.run_cycle(c).unwrap_or_else(|e| panic!("{tag}: faulted cycle {c}: {e}"));
        clean.run_cycle(c).unwrap_or_else(|e| panic!("{tag}: clean cycle {c}: {e}"));
        crashed += fr.crashed_nodes;
        for (fv, cv) in faulted.views().views().iter().zip(clean.views().views()) {
            assert_eq!(
                fv.snapshot(),
                cv.snapshot(),
                "{tag}/cycle{c}: view '{}' saw a fault",
                fv.name()
            );
        }
        oracle.cycle(w, c);
        oracle.assert_views(&faulted, &format!("{tag}/cycle{c}"));
        if faulted.cluster().replica_census().lost == 0 {
            oracle.assert_stored(&faulted, BROADCAST, &format!("{tag}/cycle{c}"));
        } else {
            let ctx = ExecutionContext::new(faulted.cluster(), faulted.catalog());
            let scan = ctx.plan_scan(BROADCAST, None, None).map(|plan| plan.exact);
            let refused = matches!(scan, Err(QueryError::NodeLost(_)));
            assert!(refused, "{tag}/cycle{c}: a scan over lost chunks answered: {scan:?}");
        }
    }
    assert!(crashed > 0, "{tag}: the schedule never crashed a node — vacuous");
    faulted.cluster().replica_census().lost
}

// -------------------------------------------------------------- tests --

/// All 8 partitioners at dict/k=1: per-cycle recompute agreement plus
/// placement independence (every partitioner ends with the same bits).
#[test]
fn ais_views_match_recompute_across_all_partitioners() {
    run_ais_matrix(1_200, 3, &PartitionerKind::ALL, &[1]);
}

/// The encoding × replication matrix on a space partitioner and a hash
/// spread; the full 8-way matrix runs in release via `delta_smoke`.
#[test]
fn ais_views_encoding_replication_matrix() {
    run_ais_matrix(
        900,
        3,
        &[PartitionerKind::HilbertCurve, PartitionerKind::ConsistentHash],
        &[1, 2],
    );
}

#[test]
fn modis_join_view_matches_recompute_under_ttl_expiry() {
    for kind in [PartitionerKind::UniformRange, PartitionerKind::RoundRobin] {
        run_modis_views(900, 3, kind, 1);
    }
    run_modis_views(900, 3, PartitionerKind::ConsistentHash, 2);
}

#[test]
fn faulted_twin_views_match_fault_free() {
    let w = AisWorkload { dark_vessel_rate: 4, ..testkit::ais(4, 1_200) };
    for kind in [PartitionerKind::HilbertCurve, PartitionerKind::ConsistentHash] {
        assert_eq!(run_faulted_twin(&w, kind, 2), 0, "{kind}: a k = 2 crash lost chunks");
    }
}

/// The faulted twin at `k = 1`: the crash loses chunks, and every view
/// still equals the fault-free twin's and its recompute from the oracle.
/// No dark vessel retracts a cell here: the views learn a retracted
/// row's values from its chunk, so a retraction that names a cell of a
/// lost chunk never reaches them (`World::retract`), and they keep the
/// row. That gap is open; this pins only what the crash itself does.
#[test]
fn k1_faulted_twin_views_keep_the_cells_a_crash_lost() {
    let w = testkit::ais(4, 1_200);
    for kind in [PartitionerKind::HilbertCurve, PartitionerKind::ConsistentHash] {
        assert!(run_faulted_twin(&w, kind, 1) > 0, "{kind}: the k = 1 crash lost nothing");
    }
}

/// Heavier CI smoke: the full partitioner matrix at scale for the AIS
/// view set, MODIS TTL joins, and faulted twins. Run with
/// `cargo test --release --test incremental_views -- --ignored delta_smoke`.
#[test]
#[ignore = "heavy: run in release via the delta-smoke CI job"]
fn delta_smoke() {
    run_ais_matrix(4_000, 4, &PartitionerKind::ALL, &[1, 2]);
    for kind in PartitionerKind::ALL {
        run_modis_views(2_000, 4, kind, 2);
    }
    let w = AisWorkload { dark_vessel_rate: 4, ..testkit::ais(4, 4_000) };
    for kind in PartitionerKind::ALL {
        assert_eq!(run_faulted_twin(&w, kind, 2), 0, "{kind}: a k = 2 crash lost chunks");
    }
}

/// The benchmark's two views (the vegetation-index join over the
/// equatorial belt, the daily mean radiance) plus a `Min` and a `Count`
/// over the same days.
fn modis_batch_views() -> Vec<ViewDef> {
    let belt: PredFn = Arc::new(|c, _| c[2].abs() <= 10);
    let belt = || vec![RowOp::Filter(belt.clone())];
    let mut defs = modis_views();
    let ViewKind::Join { ops, right_ops, .. } = &mut defs[0].kind else {
        unreachable!("modis_views leads with the ndvi join")
    };
    (*ops, *right_ops) = (belt(), belt());
    let day: GroupKeyFn = Arc::new(|c, _| vec![c[0].div_euclid(1440)]);
    let radiance: ValueFn = Arc::new(|_, v| num(&v[1]));
    for agg in [AggKind::Min, AggKind::Count] {
        let name = format!("daily-{agg:?}");
        defs.push(ViewDef::aggregate(name, BAND1, Vec::new(), day.clone(), radiance.clone(), agg));
    }
    defs
}

/// Heavier CI smoke for the batch apply at the benchmark's shape: MODIS
/// at 100k pixels a day for 14 days with a 3-day TTL — deltas of a third
/// of the state — across every partitioner at k ∈ {1, 2}. Views equal
/// their recompute after every cycle, and what a checkpoint would write
/// survives export → import → export byte for byte mid-run. Run with
/// `cargo test --release --test incremental_views -- --ignored view_batch_smoke`.
#[test]
#[ignore = "heavy: run in release via the view-batch-smoke CI row"]
fn view_batch_smoke() {
    let w =
        ModisWorkload { days: 14, scale: 0.05, seed: 33, cells_per_cycle: 100_000, ttl_days: 3 };
    let export = |views: &query_engine::view::ViewRegistry| {
        let mut bytes = durability::ByteWriter::new();
        views.export_states(&mut bytes);
        bytes.into_bytes()
    };
    for kind in PartitionerKind::ALL {
        for k in [1, 2] {
            let tag = format!("{kind}/modis-batch/k{k}");
            let capacity = w.cells_per_cycle * 95;
            let mut runner = WorkloadRunner::new(
                &w,
                RunnerConfig { replication: k, ..testkit::config(kind, capacity) },
            );
            modis_batch_views().into_iter().for_each(|def| runner.register_view(def));
            let mut retracted = 0u64;
            let mut oracle = Oracle::new(&w);
            for c in 0..w.days {
                let report =
                    runner.run_cycle(c).unwrap_or_else(|e| panic!("{tag}: cycle {c}: {e}"));
                retracted += report.retracted_cells;
                oracle.cycle(&w, c);
                oracle.assert_views(&runner, &format!("{tag}/cycle{c}"));
                if [4, 8, 12].contains(&c) {
                    let bytes = export(runner.views());
                    let mut reader = durability::ByteReader::new(&bytes);
                    let imported = query_engine::view::ViewRegistry::import_states(
                        modis_batch_views(),
                        &mut reader,
                    )
                    .unwrap_or_else(|e| panic!("{tag}: cycle {c}: import: {e}"));
                    assert!(reader.is_empty(), "{tag}: cycle {c}: import left bytes unread");
                    assert!(export(&imported) == bytes, "{tag}: cycle {c}: re-export differs");
                }
            }
            assert!(retracted > 0, "{tag}: TTL never expired a tile — vacuous");
            for v in runner.views().views() {
                let snap = v.snapshot();
                assert!(
                    !snap.rows.is_empty() || !snap.groups.is_empty(),
                    "{tag}: view '{}' ended empty — vacuous",
                    v.name()
                );
            }
        }
    }
}
