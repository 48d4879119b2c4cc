//! The fault-injection differential suite.
//!
//! Contract under test: scripted faults change *where* chunks live and
//! *what a run costs* — never *what queries answer*. For every fault
//! schedule, every partitioner, and every replication factor `k >= 2`:
//!
//! 1. **bit-identical answers** — after every cycle, the faulted run's
//!    operator answers over a fixed probe region equal the fault-free
//!    twin's bit for bit, across crashes, diverted placements, flaky
//!    repair flows, and mid-recovery crashes;
//! 2. **from the node stores alone** — those answers are read off the
//!    chunks' records, which a crash promotes onto a surviving holder
//!    before it returns, and nothing else: the cells have no second home
//!    a silent payload loss could hide behind, and every scan stays
//!    cell-exact;
//! 3. **full-strength recovery** — the replica census is back at the
//!    copy target by the end of every cycle, and crash cycles report
//!    repair traffic priced through the shared flow solver (bytes and
//!    seconds), with retries when flows are flaky;
//! 4. **typed loss at `k = 1`** — with no replicas a crash orphans
//!    chunks: the runner's own stores answer `QueryError::NodeLost` —
//!    never a panic, never a silent wrong answer;
//! 5. **zero-interference ledger** — a fault-free `k = 2` run is
//!    bit-identical to the `k = 1` run in everything the paper measures
//!    (placements, loads, balance, scaling, moved/inserted bytes);
//!    replication shows up only in the insert-phase flow cost.

use elastic_array_db::prelude::*;
use query_engine::{ops, QueryError};
use workloads::ais::{AisWorkload, BROADCAST};
use workloads::CellBatch;

type Row = (Vec<i64>, Vec<ScalarValue>);

fn config(kind: PartitionerKind, node_capacity: u64, replication: usize) -> RunnerConfig {
    RunnerConfig {
        node_capacity,
        initial_nodes: 4,
        partitioner: kind,
        run_queries: false,
        replication,
        ..RunnerConfig::default()
    }
}

/// Operator answers over AIS cycle 0's fixed probe region in
/// bit-comparable form (floats stored as `to_bits()`).
#[derive(Debug, PartialEq)]
struct ProbeAnswers {
    subarray: Vec<Row>,
    filter_count: u64,
    distinct_ids: Vec<i64>,
    median_bits: Option<u64>,
    groups: Vec<(Vec<i64>, u64, u64)>,
}

fn probe_answers(cluster: &Cluster, catalog: &Catalog) -> ProbeAnswers {
    let ctx = ExecutionContext::new(cluster, catalog);
    let probe = AisWorkload::cycle_region(0);
    let (cells, _) = ops::subarray(&ctx, BROADCAST, &probe, &[]).unwrap();
    let mut subarray = cells.cells.to_rows();
    subarray.sort_by(|a, b| a.0.cmp(&b.0));
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
    ProbeAnswers {
        subarray,
        filter_count,
        distinct_ids,
        median_bits: q.value.map(f64::to_bits),
        groups,
    }
}

/// The scripted schedule the quick and smoke differentials share: a
/// plain crash with flaky repair flows, a crash landing right after the
/// rebalance phase, and a revival of the first casualty.
fn fault_schedule(k: usize) -> FaultPlan {
    FaultPlan::new(0xE1A5 + k as u64)
        .at(1, FaultKind::Crash(1))
        .at(1, FaultKind::FlakyFlows { p: 0.1 })
        .at(2, FaultKind::CrashDuringRebalance(2))
        .at(3, FaultKind::Revive(1))
}

/// Lockstep faulted-vs-fault-free twin runs under one partitioner.
/// Returns the total repair retries observed (flakiness engagement is
/// asserted in aggregate by the caller — a single small run may
/// legitimately draw zero failures).
fn run_fault_differential(
    w: &AisWorkload,
    kind: PartitionerKind,
    node_capacity: u64,
    k: usize,
) -> u64 {
    assert!(k >= 2, "the bit-identity leg needs surviving copies");
    // Two nodes are down at once by cycle 2; k + 2 initial nodes keep k
    // accepting survivors, so the effective copy target never collapses
    // and crash cycles always have repairs to do.
    let mut faulted = WorkloadRunner::new(w, {
        let mut cfg = config(kind, node_capacity, k);
        cfg.initial_nodes = k + 2;
        cfg.fault_plan = Some(fault_schedule(k));
        cfg
    });
    let mut clean = WorkloadRunner::new(w, {
        let mut cfg = config(kind, node_capacity, k);
        cfg.initial_nodes = k + 2;
        cfg
    });
    let mut retries = 0;
    for c in 0..w.cycles {
        let tag = format!("{kind}/k{k}/cycle{c}");
        let fr = faulted.run_cycle(c).unwrap_or_else(|e| panic!("{tag}: faulted run: {e}"));
        let cr = clean.run_cycle(c).unwrap_or_else(|e| panic!("{tag}: clean run: {e}"));

        // Answers: faulted vs fault-free, bit for bit — the surviving
        // copies alone hold every cell.
        let want = probe_answers(clean.cluster(), clean.catalog());
        let got = probe_answers(faulted.cluster(), faulted.catalog());
        assert_eq!(got, want, "{tag}: faulted answers differ from the fault-free twin");
        let ctx = ExecutionContext::new(faulted.cluster(), faulted.catalog());
        assert!(
            ctx.plan_scan(BROADCAST, None, None).unwrap().exact,
            "{tag}: node stores lost cells the census didn't notice"
        );

        // Recovery converged within the cycle: census back at target,
        // books consistent (the runner re-verifies them after every
        // recovery pass; this is the end-of-cycle pin).
        let census = faulted.cluster().replica_census();
        assert!(
            census.is_full_strength(),
            "{tag}: census under strength after recovery: {census:?}"
        );
        assert_eq!(fr.under_replicated, 0, "{tag}: report disagrees with census");

        // Cost accounting: crash cycles repaired something and priced
        // it. Before the first fault there is nothing to repair; later
        // quiet cycles may legitimately top replicas back up after the
        // roster grows, so only the pre-fault zero is pinned.
        if c == 1 || c == 2 {
            assert!(fr.repair_bytes > 0, "{tag}: crash cycle moved no repair bytes");
            assert!(fr.phases.repair_secs > 0.0, "{tag}: repair flows cost nothing");
            assert!(fr.crashed_nodes > 0, "{tag}: crash not reflected in the report");
        } else if c == 0 {
            assert_eq!(fr.repair_bytes, 0, "{tag}: phantom repairs before any fault");
            assert_eq!(fr.phases.repair_secs, 0.0, "{tag}: phantom repair cost");
        }
        retries += fr.repair_retries;

        // The fault-free twin never sees the fault machinery.
        assert_eq!(cr.repair_bytes, 0, "{tag}: clean run repaired");
        assert_eq!(cr.crashed_nodes, 0, "{tag}: clean run crashed");
        assert_eq!((fr.degraded_reads, cr.degraded_reads), (0, 0), "{tag}: a read failed over");

        // Replica bytes are a separate ledger: the faulted run's demand
        // and roster track the twin's exactly (a crash promotes copies,
        // so total stored bytes are preserved).
        assert_eq!(fr.nodes, cr.nodes, "{tag}: fault schedule changed scaling");
        assert_eq!(
            fr.demand_gb.to_bits(),
            cr.demand_gb.to_bits(),
            "{tag}: fault schedule changed demand"
        );
        assert_eq!(fr.insert_bytes, cr.insert_bytes, "{tag}: ingest bytes diverged");
    }
    retries
}

/// Leg 1-3 quick version: schedule x all 8 partitioners at k = 2.
#[test]
fn faulted_runs_answer_bit_identically_and_recover_full_strength() {
    let w = AisWorkload {
        cycles: 4,
        scale: 0.05,
        seed: 21,
        cells_per_cycle: 1_200,
        ..Default::default()
    };
    let node_capacity = w.cells_per_cycle * 90;
    let mut retries = 0;
    for kind in PartitionerKind::ALL {
        retries += run_fault_differential(&w, kind, node_capacity, 2);
    }
    // Across 8 partitioners' crash repairs at p = 0.1, the flaky-flow
    // fault must have forced at least one backoff retry somewhere.
    assert!(retries > 0, "flaky repair flows never engaged the retry path");
}

/// Leg 4: at k = 1 a crash is typed data loss, not a wrong answer. The
/// census says `lost`, and the runner's own cluster and catalog say the
/// same to a query: `QueryError::NodeLost`.
#[test]
fn k1_crash_is_typed_loss_never_a_wrong_answer() {
    let w = AisWorkload {
        cycles: 3,
        scale: 0.05,
        seed: 21,
        cells_per_cycle: 1_200,
        ..Default::default()
    };
    let node_capacity = w.cells_per_cycle * 90;
    // Hash and round-robin spreads guarantee node 1 holds chunks by the
    // crash cycle (space-partitioned schemes may leave a node empty at
    // this scale, which would make the leg vacuous).
    for kind in [PartitionerKind::ConsistentHash, PartitionerKind::RoundRobin] {
        let tag = format!("{kind}/k1-crash");
        let mut cfg = config(kind, node_capacity, 1);
        cfg.fault_plan = Some(FaultPlan::new(7).at(1, FaultKind::Crash(1)));
        let mut faulted = WorkloadRunner::new(&w, cfg);
        for c in 0..w.cycles {
            faulted.run_cycle(c).unwrap_or_else(|e| panic!("{tag}: cycle {c}: {e}"));
        }

        // The census reports the orphans as lost — honestly, not as
        // repairable or repaired.
        let census = faulted.cluster().replica_census();
        assert!(census.lost > 0, "{tag}: node 1 held nothing? census {census:?}");

        // The runner's own stores: routing any orphan is a typed refusal.
        // Planning routes every chunk before anything is read, so the
        // orphans refuse a whole-array scan outright.
        let ctx = ExecutionContext::new(faulted.cluster(), faulted.catalog());
        let err = ctx
            .plan_scan(BROADCAST, None, None)
            .err()
            .expect("orphaned chunks must not route silently");
        assert!(matches!(err, QueryError::NodeLost(_)), "{tag}: wrong error: {err}");
        // The newest cycle landed after the crash and holds no orphan: it
        // still routes, but the array-wide exactness gate stays closed.
        let newest = AisWorkload::cycle_region(w.cycles - 1);
        assert!(
            !ctx.plan_scan(BROADCAST, Some(&newest), None).unwrap().exact,
            "{tag}: availability gate ignored the data loss"
        );
    }
}

/// Leg 5: replication is a separate ledger. A fault-free k = 2 run
/// pins bit-identical placements, loads, balance, scaling, and byte
/// accounting against the k = 1 run (the pre-replication behavior);
/// only the insert-phase flow cost may (and must) grow, because the
/// replica fan-out rides the same priced flows.
#[test]
fn fault_free_replication_changes_costs_only() {
    let w = AisWorkload {
        cycles: 3,
        scale: 0.05,
        seed: 21,
        cells_per_cycle: 1_200,
        ..Default::default()
    };
    let node_capacity = w.cells_per_cycle * 90;
    for kind in PartitionerKind::ALL {
        let mut base = WorkloadRunner::new(&w, config(kind, node_capacity, 1));
        let mut rep = WorkloadRunner::new(&w, config(kind, node_capacity, 2));
        let br = base.run_all().unwrap();
        let rr = rep.run_all().unwrap();
        assert!(br.failures.is_empty() && rr.failures.is_empty());
        for (b, r) in br.cycles.iter().zip(&rr.cycles) {
            let tag = format!("{kind}/cycle{}", b.cycle);
            assert_eq!(r.nodes, b.nodes, "{tag}: replication changed scaling");
            assert_eq!(r.added_nodes, b.added_nodes, "{tag}: scale-out step");
            assert_eq!(r.demand_gb.to_bits(), b.demand_gb.to_bits(), "{tag}: demand");
            assert_eq!(
                r.rsd_after_insert.to_bits(),
                b.rsd_after_insert.to_bits(),
                "{tag}: replication leaked into the balance metric"
            );
            assert_eq!(r.moved_bytes, b.moved_bytes, "{tag}: rebalance plan");
            assert_eq!(r.insert_bytes, b.insert_bytes, "{tag}: ingest accounting");
            for c in [b, r] {
                assert_eq!(c.repair_bytes, 0, "{tag}: fault-free run repaired");
                assert_eq!(c.repair_retries, 0, "{tag}: fault-free run retried");
                assert_eq!(c.crashed_nodes, 0, "{tag}: fault-free run crashed");
                assert_eq!(c.under_replicated, 0, "{tag}: under strength");
                assert_eq!(c.phases.repair_secs, 0.0, "{tag}: phantom repair cost");
            }
        }
        assert_eq!(
            base.cluster().placements().collect::<Vec<_>>(),
            rep.cluster().placements().collect::<Vec<_>>(),
            "{kind}: replication changed primary placements"
        );
        assert_eq!(base.cluster().loads(), rep.cluster().loads(), "{kind}: loads");
        // The replica fan-out rides the priced insert flows, so the
        // insert-phase cost must differ somewhere in the run. (Not
        // necessarily upward per cycle: the contention model amortizes
        // per-chunk overhead across destinations, so fanning out can
        // also shorten a cycle.)
        assert_ne!(
            rr.phase_totals().insert_secs.to_bits(),
            br.phase_totals().insert_secs.to_bits(),
            "{kind}: replica copies moved for free"
        );
    }
}

/// `run_all` under `RecordAndContinue` survives a cycle whose fault
/// refuses (reviving a node that never crashed) and records it, while
/// `Abort` surfaces the same cycle as the run error.
#[test]
fn fault_refusals_respect_the_error_policy() {
    let w = AisWorkload {
        cycles: 3,
        scale: 0.05,
        seed: 21,
        cells_per_cycle: 600,
        ..Default::default()
    };
    let kind = PartitionerKind::ConsistentHash;
    let plan = || Some(FaultPlan::new(3).at(1, FaultKind::Revive(0)));

    let mut cfg = config(kind, w.cells_per_cycle * 90, 2);
    cfg.fault_plan = plan();
    let err = WorkloadRunner::new(&w, cfg).run_all().expect_err("Abort must surface");
    assert!(matches!(err, CycleError::Fault { cycle: 1, .. }), "wrong error: {err}");

    let mut cfg = config(kind, w.cells_per_cycle * 90, 2);
    cfg.fault_plan = plan();
    cfg.on_error = ErrorPolicy::RecordAndContinue;
    let report = WorkloadRunner::new(&w, cfg).run_all().unwrap();
    assert_eq!(report.cycles.iter().map(|c| c.cycle).collect::<Vec<_>>(), vec![0, 2]);
    assert_eq!(report.failures.len(), 1);
    assert_eq!(report.failures[0].cycle, 1);
    assert!(report.failures[0].error.contains("fault injection"), "{}", report.failures[0].error);
}

// ----------------------------------------------------------- scale-IN --

/// Materialized insert-then-delete script for the scale-IN twin: the
/// first `grow` cycles each insert `cells` cells; every later cycle
/// retracts one of the earlier cycles wholesale — except cycle 0, which
/// survives as the fixed probe region — opening the demand trough that
/// walks the staircase back down.
struct ShrinkWorkload {
    cycles: usize,
    grow: usize,
    cells: usize,
}

const SHRINK: ArrayId = ArrayId(4);

impl ShrinkWorkload {
    fn schema() -> ArraySchema {
        ArraySchema::parse("S<v:double>[x=0:*,64]").unwrap()
    }
}

impl Workload for ShrinkWorkload {
    fn name(&self) -> &'static str {
        "shrink"
    }
    fn cycles(&self) -> usize {
        self.cycles
    }
    fn register_arrays(&self, catalog: &mut Catalog) {
        catalog.register(StoredArray::from_descriptors(SHRINK, Self::schema(), []));
    }
    fn insert_batch(&self, _cycle: usize) -> Vec<ChunkDescriptor> {
        Vec::new()
    }
    fn cell_batch(&self, cycle: usize) -> Option<Vec<CellBatch>> {
        let mut batch = CellBatch::new(SHRINK, &Self::schema());
        if cycle < self.grow {
            let mut vals = Vec::with_capacity(1);
            for i in 0..self.cells {
                let x = (cycle * self.cells + i) as i64;
                vals.push(ScalarValue::Double((x * 3) as f64));
                batch.push(&[x], &mut vals);
            }
        } else {
            // Retract cycle `cycle - grow + 1`: cycle 0 is never doomed.
            let old = cycle - self.grow + 1;
            for i in 0..self.cells {
                batch.push_retraction(&[(old * self.cells + i) as i64]);
            }
        }
        Some(vec![batch])
    }
    fn derived_batch(&self, _cycle: usize) -> Vec<ChunkDescriptor> {
        Vec::new()
    }
    fn grid_hint(&self) -> GridHint {
        GridHint::new(vec![1024])
    }
    fn run_suites(&self, _ctx: &ExecutionContext<'_>, _cycle: usize) -> SuiteReport {
        SuiteReport::default()
    }
}

/// Probe over the never-retracted cycle-0 cells, in bit-comparable form.
fn shrink_probe(cluster: &Cluster, catalog: &Catalog, cells: usize) -> (Vec<Row>, u64, Vec<u64>) {
    let ctx = ExecutionContext::new(cluster, catalog);
    let probe = Region::new(vec![0], vec![cells as i64 - 1]);
    let (got, _) = ops::subarray(&ctx, SHRINK, &probe, &[]).unwrap();
    let mut rows = got.cells.to_rows();
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    let (count, _) = ops::filter_count(&ctx, SHRINK, &probe, "v", &Predicate::ge(96.0)).unwrap();
    let spec = ops::GroupSpec::coarsened(vec![0], vec![256]);
    let (groups, _) =
        ops::grid_aggregate(&ctx, SHRINK, Some(&probe), "v", &spec, ops::AggFn::Sum).unwrap();
    let mut sums: Vec<u64> = groups.iter().map(|r| r.value.to_bits()).collect();
    sums.sort();
    (rows, count, sums)
}

/// Satellite leg: decommission during a crash/flaky-flow schedule must
/// still produce answers bit-identical to the fault-free shrink twin.
/// The demand trough decides the same scale-IN steps in both runs (a
/// crash changes *where* copies live, never *how many bytes* exist), so
/// the faulted run drains and retires nodes while a casualty is down
/// and repairs are flaky — and every probe answer matches the clean
/// twin bit for bit.
#[test]
fn decommission_under_faults_matches_the_fault_free_shrink_twin() {
    // 16 B/cell: 2048 cells fill exactly two 16 KB nodes, so the run
    // climbs the staircase over the grow cycles and the two retraction
    // cycles open the trough that walks it back down.
    let w = ShrinkWorkload { cycles: 5, grow: 3, cells: 2048 };
    let staircase = ScalingPolicy::Staircase(StaircaseConfig {
        node_capacity_gb: 16_384.0 / 1e9,
        samples: 2,
        plan_ahead: 1,
        trigger: 1.0,
        shrink_margin: 0.75,
    });
    let mk = |fault_plan: Option<FaultPlan>| RunnerConfig {
        node_capacity: 16_384,
        initial_nodes: 2,
        run_queries: false,
        replication: 2,
        scaling: staircase.clone(),
        fault_plan,
        ..RunnerConfig::default()
    };
    for kind in [PartitionerKind::ConsistentHash, PartitionerKind::RoundRobin] {
        // Crash one node before the trough, another right as the first
        // decommission runs (two casualties retired around), flaky
        // repair flows throughout the shrink, and a late revival.
        let plan = FaultPlan::new(0x51A8)
            .at(2, FaultKind::Crash(1))
            .at(3, FaultKind::Crash(2))
            .at(3, FaultKind::FlakyFlows { p: 0.1 })
            .at(4, FaultKind::Revive(1));
        let mut cfg = mk(Some(plan));
        cfg.partitioner = kind;
        let mut faulted = WorkloadRunner::new(&w, cfg);
        let mut cfg = mk(None);
        cfg.partitioner = kind;
        let mut clean = WorkloadRunner::new(&w, cfg);

        let mut faulted_removed = 0;
        let mut clean_removed = 0;
        let mut peak = 0;
        for c in 0..w.cycles {
            let tag = format!("{kind}/shrink-twin/cycle{c}");
            let fr = faulted.run_cycle(c).unwrap_or_else(|e| panic!("{tag}: faulted: {e}"));
            let cr = clean.run_cycle(c).unwrap_or_else(|e| panic!("{tag}: clean: {e}"));
            peak = peak.max(cr.nodes);
            faulted_removed += fr.removed_nodes;
            clean_removed += cr.removed_nodes;

            // The fault schedule must not perturb the scaling walk: the
            // trough decides from bytes, and crashes preserve bytes.
            assert_eq!(fr.nodes, cr.nodes, "{tag}: fault schedule changed the staircase");
            assert_eq!(fr.removed_nodes, cr.removed_nodes, "{tag}: scale-IN step diverged");
            assert_eq!(fr.retracted_cells, cr.retracted_cells, "{tag}: retraction accounting");
            assert_eq!(fr.demand_gb.to_bits(), cr.demand_gb.to_bits(), "{tag}: demand");

            // Answers, bit for bit.
            let want = shrink_probe(clean.cluster(), clean.catalog(), w.cells);
            let got = shrink_probe(faulted.cluster(), faulted.catalog(), w.cells);
            assert_eq!(got, want, "{tag}: faulted answers differ from the fault-free twin");

            // Recovery and retirement settle within the cycle.
            let census = faulted.cluster().replica_census();
            assert!(census.is_full_strength(), "{tag}: census under strength: {census:?}");
        }

        // Both runs walked down from the same peak, below it.
        assert!(peak > 2, "{kind}: the cluster never grew (peak {peak})");
        assert_eq!(clean_removed, faulted_removed, "{kind}: total scale-IN steps");
        assert!(clean_removed > 0, "{kind}: no node was ever released");
        let end = faulted.cluster().active_node_count();
        assert_eq!(end, clean.cluster().active_node_count(), "{kind}: end-state rosters");
        assert!(end < peak, "{kind}: run must end below its {peak}-node peak, got {end}");
    }
}

/// Heavier CI smoke: longer schedules (crash + flaky + rebalance-crash +
/// mid-recovery crash + drain + revive), all 8 partitioners, k in
/// {2, 3}, plus the k = 1 typed-loss legs at scale. Run with
/// `cargo test --release --test fault_recovery -- --ignored fault_smoke`.
#[test]
#[ignore = "heavy: run in release via the fault-smoke CI job"]
fn fault_smoke() {
    let w = AisWorkload {
        cycles: 5,
        scale: 0.05,
        seed: 5,
        cells_per_cycle: 6_000,
        ..Default::default()
    };
    let node_capacity = w.cells_per_cycle * 90;
    let mut retries = 0;
    for k in [2usize, 3] {
        for kind in PartitionerKind::ALL {
            retries += run_fault_differential(&w, kind, node_capacity, k);
        }
    }
    assert!(retries > 0, "flaky repair flows never engaged the retry path");

    // A deeper schedule: drain a survivor, crash two nodes in the same
    // cycle (one mid-recovery), then revive. Two concurrent casualties
    // need k = 3, and a 6-node roster keeps accepting survivors around.
    let w = AisWorkload {
        cycles: 5,
        scale: 0.05,
        seed: 13,
        cells_per_cycle: 6_000,
        ..Default::default()
    };
    for kind in PartitionerKind::ALL {
        let plan = FaultPlan::new(0xD6)
            .at(1, FaultKind::Crash(1))
            .at(1, FaultKind::FlakyFlows { p: 0.1 })
            .at(2, FaultKind::Drain(3))
            .at(3, FaultKind::Crash(0))
            .at(3, FaultKind::CrashDuringRecovery { node: 2, after_jobs: 2 })
            .at(4, FaultKind::Revive(1));
        let mut faulted = WorkloadRunner::new(&w, {
            let mut cfg = config(kind, node_capacity, 3);
            cfg.initial_nodes = 6;
            cfg.fault_plan = Some(plan);
            cfg
        });
        let mut clean = WorkloadRunner::new(&w, {
            let mut cfg = config(kind, node_capacity, 3);
            cfg.initial_nodes = 6;
            cfg
        });
        for c in 0..w.cycles {
            let tag = format!("{kind}/deep/cycle{c}");
            faulted.run_cycle(c).unwrap_or_else(|e| panic!("{tag}: {e}"));
            clean.run_cycle(c).unwrap_or_else(|e| panic!("{tag}: clean: {e}"));
            let want = probe_answers(clean.cluster(), clean.catalog());
            let got = probe_answers(faulted.cluster(), faulted.catalog());
            assert_eq!(got, want, "{tag}: answers diverged");
            let census = faulted.cluster().replica_census();
            assert!(census.is_full_strength(), "{tag}: {census:?}");
        }
    }
}
