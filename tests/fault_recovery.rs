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
//! 4. **typed loss at `k = 1`** — with no replicas a crash loses
//!    chunks (`Slot::Lost`): the runner's own stores answer
//!    `QueryError::NodeLost` — never a panic, never a silent wrong
//!    answer — and the run goes on, every other chunk equal to the
//!    oracle;
//! 5. **zero-interference ledger** — a fault-free `k = 2` run is
//!    bit-identical to the `k = 1` run in everything the paper measures
//!    (placements, loads, balance, scaling, moved/inserted bytes);
//!    replication shows up only in the insert-phase flow cost.
//!
//! The reference is the fault-free twin, asked the same questions through
//! `testkit::Probe` (`Probe::ais`; `Probe::grow_retract` over the
//! `testkit::GrowRetract` trough of the scale-IN twin), and the twin's
//! whole array is held to `testkit::Oracle`, the generator's cells folded
//! from scratch. `testkit::scripted_faults` is the scripted schedule.

use elastic_array_db::array::chunk_of;
use elastic_array_db::cluster::{NodeState, Slot};
use elastic_array_db::prelude::*;
use query_engine::QueryError;
use std::collections::BTreeMap;
use testkit::{scripted_faults, CellChurn, GrowRetract, Oracle, Probe, Row};
use workloads::ais::{AisWorkload, BROADCAST};

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
    let mk = |fault_plan| RunnerConfig {
        initial_nodes: k + 2,
        replication: k,
        fault_plan,
        ..testkit::config(kind, node_capacity)
    };
    let mut faulted = WorkloadRunner::new(w, mk(Some(scripted_faults(k))));
    let mut clean = WorkloadRunner::new(w, mk(None));
    let (probe, mut oracle) = (Probe::ais(w), Oracle::new(w));
    let mut retries = 0;
    for c in 0..w.cycles {
        let tag = format!("{kind}/k{k}/cycle{c}");
        let fr = faulted.run_cycle(c).unwrap_or_else(|e| panic!("{tag}: faulted run: {e}"));
        let cr = clean.run_cycle(c).unwrap_or_else(|e| panic!("{tag}: clean run: {e}"));

        // Answers: faulted vs fault-free, bit for bit — the surviving
        // copies alone hold every cell — and the twin vs the oracle.
        oracle.cycle(w, c);
        let want = probe.answers(clean.cluster(), clean.catalog());
        assert_eq!(
            want.everything,
            oracle.rows(BROADCAST),
            "{tag}: the twin differs from the oracle"
        );
        let got = probe.answers(faulted.cluster(), faulted.catalog());
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
    let w = testkit::ais(4, 1_200);
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
    let w = testkit::ais(3, 1_200);
    let node_capacity = w.cells_per_cycle * 90;
    // Hash and round-robin spreads guarantee node 1 holds chunks by the
    // crash cycle (space-partitioned schemes may leave a node empty at
    // this scale, which would make the leg vacuous).
    for kind in [PartitionerKind::ConsistentHash, PartitionerKind::RoundRobin] {
        let tag = format!("{kind}/k1-crash");
        let fault_plan = Some(FaultPlan::new(7).at(1, FaultKind::Crash(1)));
        let cfg =
            RunnerConfig { initial_nodes: 4, fault_plan, ..testkit::config(kind, node_capacity) };
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

/// Leg 4, revived: a wreck that comes back holds none of the cells the
/// crash lost. Its orphans keep naming it, and their records stay gone,
/// so a scan and a kNN ring that reach one are refused `NodeLost` — not
/// answered from the catalog's descriptors as a metadata-only estimate.
#[test]
fn k1_a_revived_wreck_does_not_serve_its_lost_chunks() {
    use query_engine::ops;
    let w = testkit::ais(3, 1_200);
    let kind = PartitionerKind::ConsistentHash;
    let tag = format!("{kind}/k1-revive");
    let fault_plan = Some(FaultPlan::new(7).at(1, FaultKind::Crash(1)).at(2, FaultKind::Revive(1)));
    let cfg = RunnerConfig {
        initial_nodes: 4,
        fault_plan,
        ..testkit::config(kind, w.cells_per_cycle * 90)
    };
    let mut faulted = WorkloadRunner::new(&w, cfg);
    for c in 0..w.cycles {
        faulted.run_cycle(c).unwrap_or_else(|e| panic!("{tag}: cycle {c}: {e}"));
    }
    let cluster = faulted.cluster();
    assert!(cluster.node(NodeId(1)).unwrap().state().serves_reads(), "{tag}: node 1 not revived");
    let orphan = cluster
        .placements()
        .find(|(key, _)| {
            key.array == BROADCAST && matches!(cluster.home(key), Some(Slot::Lost { .. }))
        })
        .map(|(key, _)| key)
        .unwrap_or_else(|| panic!("{tag}: the crash orphaned nothing"));
    let ctx = ExecutionContext::new(cluster, faulted.catalog());
    let plan = ctx.plan_scan(BROADCAST, None, None).map(|p| p.exact);
    assert!(
        matches!(plan, Err(QueryError::NodeLost(key)) if matches!(cluster.home(&key), Some(Slot::Lost { .. }))),
        "{tag}: a whole-array scan planned: {plan:?}"
    );
    // A query point in the orphan: its ring starts there.
    let schema = &faulted.catalog().array(BROADCAST).unwrap().schema;
    let point: Vec<i64> = schema
        .dimensions
        .iter()
        .enumerate()
        .map(|(d, dim)| dim.chunk_range(orphan.coords[d]).0)
        .collect();
    let knn = ops::knn(&ctx, BROADCAST, &[point], 3).map(|(answers, _)| answers.len());
    assert!(
        matches!(knn, Err(QueryError::NodeLost(key)) if key == orphan),
        "{tag}: kNN read {orphan}: {knn:?}"
    );
}

/// Leg 4, grown: the roster keeps growing after a k = 1 crash, so every
/// scheme plans scale-outs around the orphans, whose placements name the
/// wreck and whose records are gone. The plans leave them where the crash
/// did, and the census still reports them lost.
#[test]
fn k1_orphans_ride_through_later_scale_outs() {
    let w = testkit::ais(4, 1_200);
    // Small nodes: the roster grows in the crash cycle and after it.
    let node_capacity = w.cells_per_cycle * 30;
    // Node 1 holds none of Hilbert Curve's data at this scale; node 3
    // does, so every scheme loses chunks.
    let wrecks = [NodeId(1), NodeId(3)];
    for kind in PartitionerKind::ALL {
        let tag = format!("{kind}/k1-orphans");
        let faults = FaultPlan::new(7).at(1, FaultKind::Crash(1)).at(1, FaultKind::Crash(3));
        let fault_plan = Some(faults);
        let cfg =
            RunnerConfig { initial_nodes: 4, fault_plan, ..testkit::config(kind, node_capacity) };
        let mut faulted = WorkloadRunner::new(&w, cfg);
        let mut added_after_crash = 0;
        for c in 0..w.cycles {
            let report = faulted.run_cycle(c).unwrap_or_else(|e| panic!("{tag}: cycle {c}: {e}"));
            if c >= 1 {
                added_after_crash += report.added_nodes;
            }
        }
        assert!(added_after_crash > 0, "{tag}: no scale-out met the orphans");

        let cluster = faulted.cluster();
        let census = cluster.replica_census();
        let orphans: Vec<(ChunkKey, NodeId)> = cluster
            .placements()
            .filter(|(key, _)| matches!(cluster.home(key), Some(Slot::Lost { .. })))
            .collect();
        assert!(!orphans.is_empty(), "{tag}: the crash orphaned nothing");
        assert_eq!(census.lost, orphans.len(), "{tag}: census {census:?}");
        for (key, node) in orphans {
            assert!(wrecks.contains(&node), "{tag}: orphan {key} left the wreck for {node}");
        }
    }
}

/// The k = 1 lost-chunk legs' churn: `cycles` of `cells` cells in 64-cell
/// chunks, and a 4 KB derived chunk a cycle.
fn lost_chunk_churn(cycles: usize, cells: usize) -> CellChurn {
    CellChurn { cycles, cells, chunk: 64, tags: 37, grid: 32, derived: [4096, 17, 10] }
}

/// Holds every placed chunk to the oracle: a placed chunk's box plans,
/// and its cells, read where they are stored, are the oracle's cells in
/// that box; a lost chunk's box is refused `NodeLost`, naming it; and no
/// cell the oracle holds lies in a chunk that is not placed. Returns the
/// lost keys in key order.
fn assert_chunks_answer_the_oracle(
    cluster: &Cluster,
    catalog: &Catalog,
    oracle: &Oracle,
    tag: &str,
) -> Vec<ChunkKey> {
    let ctx = ExecutionContext::new(cluster, catalog);
    let placed: Vec<ChunkKey> = cluster.placements().map(|(key, _)| key).collect();
    let mut lost = Vec::new();
    for stored in catalog.arrays() {
        let schema = &stored.schema;
        let mut want: BTreeMap<ChunkCoords, Vec<Row>> = BTreeMap::new();
        for row in oracle.rows(stored.id) {
            let coords = chunk_of(schema, &row.0).expect("a cell of the schema");
            want.entry(coords).or_default().push(row);
        }
        for key in placed.iter().filter(|key| key.array == stored.id) {
            let dims = schema.dimensions.iter().zip(key.coords.iter());
            let (low, high) = dims.map(|(dim, &c)| dim.chunk_range(c)).unzip();
            let chunk_box = Region::new(low, high);
            let plan = ctx.plan_scan(stored.id, Some(&chunk_box), None).map(|_| ());
            let cells = want.remove(&key.coords).unwrap_or_default();
            match cluster.home(key).expect("a placed key has a slot") {
                Slot::Placed { .. } => {
                    assert!(plan.is_ok(), "{tag}: the box of {key} did not plan");
                    let chunk = ctx.chunk_payload(stored, &key.coords);
                    let mut got: Vec<Row> = (chunk.iter())
                        .flat_map(|c| {
                            let values = |row| c.row_values(row).expect("a live row");
                            c.iter_cells().map(move |(cell, row)| (cell.to_vec(), values(row)))
                        })
                        .collect();
                    got.sort_by(|a, b| a.0.cmp(&b.0));
                    assert_eq!(got, cells, "{tag}: {key} differs from the oracle");
                }
                Slot::Lost { .. } => {
                    let refused = matches!(plan, Err(QueryError::NodeLost(k)) if k == *key);
                    assert!(refused, "{tag}: the box of lost {key} answered");
                    lost.push(*key);
                }
            }
        }
        assert!(want.is_empty(), "{tag}: oracle cells outside every chunk: {:?}", want.keys());
    }
    lost
}

/// One k = 1 churn run on four nodes that loses node `wreck`'s chunks to
/// a crash at cycle 1 and revives `wreck` at cycle 2. Every cycle
/// finishes — a retraction that reaches a lost chunk skips it — and
/// after every cycle each chunk the placement index holds answers the
/// oracle or `NodeLost`, and the census's `lost` counts the lost chunks.
/// The revived wreck ends `Healthy`; decommissioned, it leaves the lost
/// chunks naming it, the census and every answer as they were. Returns
/// how many chunks the crash lost.
fn lost_chunk_run(kind: PartitionerKind, w: &CellChurn, wreck: u32) -> usize {
    let tag = format!("{kind}/k1-lost/crash{wreck}");
    let faults = FaultPlan::new(7).at(1, FaultKind::Crash(wreck)).at(2, FaultKind::Revive(wreck));
    // 16 bytes a cell a cycle: 8 KB nodes at 512 cells, so the roster grows.
    let node_capacity = 16 * w.cells as u64;
    let cfg = RunnerConfig {
        initial_nodes: 4,
        fault_plan: Some(faults),
        ..testkit::config(kind, node_capacity)
    };
    let mut runner = WorkloadRunner::new(w, cfg);
    let mut oracle = Oracle::new(w);
    let mut lost = Vec::new();
    for c in 0..w.cycles {
        let tag = format!("{tag}/cycle{c}");
        runner.run_cycle(c).unwrap_or_else(|e| panic!("{tag}: {e}"));
        oracle.cycle(w, c);
        lost = assert_chunks_answer_the_oracle(runner.cluster(), runner.catalog(), &oracle, &tag);
        let census = runner.cluster().replica_census();
        assert_eq!(census.lost, lost.len(), "{tag}: census {census:?}");
    }
    let cluster = runner.cluster();
    let state = cluster.node(NodeId(wreck)).expect("on the roster").state();
    assert_eq!(state, NodeState::Healthy, "{tag}: the revived wreck stayed {state}");
    let mut shrunk = cluster.clone();
    shrunk.decommission_node(NodeId(wreck)).unwrap_or_else(|e| panic!("{tag}: scale-in: {e}"));
    assert_eq!(shrunk.replica_census().lost, lost.len(), "{tag}: scale-in moved the census");
    let after = assert_chunks_answer_the_oracle(&shrunk, runner.catalog(), &oracle, &tag);
    assert_eq!(after, lost, "{tag}: scale-in changed what is lost");
    for key in &lost {
        let named = matches!(shrunk.home(key), Some(Slot::Lost { wreck: at }) if at.0 == wreck);
        assert!(named, "{tag}: lost {key} left its wreck");
    }
    lost.len()
}

/// Leg 4, every cycle: at k = 1 a lost chunk is a state, not an
/// absence. Under every scheme and every crash target, the run goes on
/// past the crash, each chunk answers the oracle or `NodeLost`, and every
/// scheme loses something under some target.
#[test]
fn k1_lost_chunks_answer_typed_and_every_cycle_goes_on() {
    let w = lost_chunk_churn(6, 512);
    for kind in PartitionerKind::ALL {
        let lost: usize = (0..4).map(|wreck| lost_chunk_run(kind, &w, wreck)).sum();
        assert!(lost > 0, "{kind}: no crash target lost a chunk");
    }
}

/// The lost-chunk leg at scale: 20 cycles of 4 096 cells, each crash
/// target revived and scaled in, all 8 schemes. Run with
/// `cargo test --release --test fault_recovery -- --ignored lost_chunk_smoke`.
#[test]
#[ignore = "release-scale leg: run in release via the differential smoke CI job"]
fn lost_chunk_smoke() {
    let w = lost_chunk_churn(20, 4096);
    for kind in PartitionerKind::ALL {
        let lost: usize = (0..4).map(|wreck| lost_chunk_run(kind, &w, wreck)).sum();
        assert!(lost > 0, "{kind}: no crash target lost a chunk");
    }
}

/// Leg 5: replication is a separate ledger. A fault-free k = 2 run
/// pins bit-identical placements, loads, balance, scaling, and byte
/// accounting against the k = 1 run (the pre-replication behavior);
/// only the insert-phase flow cost may (and must) grow, because the
/// replica fan-out rides the same priced flows.
#[test]
fn fault_free_replication_changes_costs_only() {
    let w = testkit::ais(3, 1_200);
    let node_capacity = w.cells_per_cycle * 90;
    for kind in PartitionerKind::ALL {
        let cfg = |replication| RunnerConfig {
            initial_nodes: 4,
            replication,
            ..testkit::config(kind, node_capacity)
        };
        let mut base = WorkloadRunner::new(&w, cfg(1));
        let mut rep = WorkloadRunner::new(&w, cfg(2));
        let br = base.run_all().unwrap();
        let rr = rep.run_all().unwrap();
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

/// A cycle whose fault refuses (reviving a node that never crashed)
/// stops `run_all`, which surfaces that cycle as the run error.
#[test]
fn fault_refusals_respect_the_error_policy() {
    let w = testkit::ais(3, 600);
    let cfg = RunnerConfig {
        initial_nodes: 4,
        replication: 2,
        fault_plan: Some(FaultPlan::new(3).at(1, FaultKind::Revive(0))),
        ..testkit::config(PartitionerKind::ConsistentHash, w.cells_per_cycle * 90)
    };
    let err = WorkloadRunner::new(&w, cfg).run_all().expect_err("the refusal must surface");
    assert!(matches!(err, CycleError::Fault { cycle: 1, .. }), "wrong error: {err}");
}

// ----------------------------------------------------------- scale-IN --

/// Satellite leg: decommission during a crash/flaky-flow schedule must
/// still produce answers bit-identical to the fault-free shrink twin.
/// The demand trough decides the same scale-IN steps in both runs (a
/// crash changes *where* copies live, never *how many bytes* exist), so
/// the faulted run drains and retires nodes while a casualty is down
/// and repairs are flaky — and every probe answer matches the clean
/// twin bit for bit.
#[test]
fn decommission_under_faults_matches_the_fault_free_shrink_twin() {
    // The two retraction cycles open the trough that walks the staircase
    // back down; cycle 0 survives as the fixed probe region.
    let w = GrowRetract {
        array: ArrayId(4),
        cycles: 5,
        grow: 3,
        cells: 2048,
        first_doomed: 1,
        value: |x| (x * 3) as f64,
    };
    let probe = Probe::grow_retract(&w, 96.0);
    for kind in [PartitionerKind::ConsistentHash, PartitionerKind::RoundRobin] {
        // Crash one node before the trough, another right as the first
        // decommission runs (two casualties retired around), flaky
        // repair flows throughout the shrink, and a late revival.
        let plan = FaultPlan::new(0x51A8)
            .at(2, FaultKind::Crash(1))
            .at(3, FaultKind::Crash(2))
            .at(3, FaultKind::FlakyFlows { p: 0.1 })
            .at(4, FaultKind::Revive(1));
        let mk = |fault_plan| RunnerConfig {
            replication: 2,
            fault_plan,
            ..GrowRetract::staircase(kind)
        };
        let mut faulted = WorkloadRunner::new(&w, mk(Some(plan)));
        let mut clean = WorkloadRunner::new(&w, mk(None));
        let mut oracle = Oracle::new(&w);

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

            // Answers, bit for bit, and the twin's cells are the oracle's.
            oracle.cycle(&w, c);
            let want = probe.answers(clean.cluster(), clean.catalog());
            assert_eq!(
                want.everything,
                oracle.rows(w.array),
                "{tag}: the twin differs from the oracle"
            );
            let got = probe.answers(faulted.cluster(), faulted.catalog());
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
    let w = AisWorkload { seed: 5, ..testkit::ais(5, 6_000) };
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
    let w = AisWorkload { seed: 13, ..testkit::ais(5, 6_000) };
    for kind in PartitionerKind::ALL {
        let plan = FaultPlan::new(0xD6)
            .at(1, FaultKind::Crash(1))
            .at(1, FaultKind::FlakyFlows { p: 0.1 })
            .at(2, FaultKind::Drain(3))
            .at(3, FaultKind::Crash(0))
            .at(3, FaultKind::CrashDuringRecovery { node: 2, after_jobs: 2 })
            .at(4, FaultKind::Revive(1));
        let mk = |fault_plan| RunnerConfig {
            initial_nodes: 6,
            replication: 3,
            fault_plan,
            ..testkit::config(kind, node_capacity)
        };
        let mut faulted = WorkloadRunner::new(&w, mk(Some(plan)));
        let mut clean = WorkloadRunner::new(&w, mk(None));
        let probe = Probe::ais(&w);
        for c in 0..w.cycles {
            let tag = format!("{kind}/deep/cycle{c}");
            faulted.run_cycle(c).unwrap_or_else(|e| panic!("{tag}: {e}"));
            clean.run_cycle(c).unwrap_or_else(|e| panic!("{tag}: clean: {e}"));
            let want = probe.answers(clean.cluster(), clean.catalog());
            let got = probe.answers(faulted.cluster(), faulted.catalog());
            assert_eq!(got, want, "{tag}: answers diverged");
            let census = faulted.cluster().replica_census();
            assert!(census.is_full_strength(), "{tag}: {census:?}");
        }
    }
}
