//! One hostile-bytes harness over every decode surface: chunk, zone map,
//! schema, cell batch, array, catalog, cluster snapshot, the eight
//! partitioner tables, write-ahead log events, view states, and a whole
//! checkpoint recovered through `WorkloadRunner::recover`.
//!
//! Each surface starts from real bytes — what its encoder writes for a
//! state with history — and is fed every strict prefix, the bytes plus a
//! trailing byte, and at every offset three byte flips, two byte stamps
//! and four `u64` stamps. For every input the harness asserts that
//!
//! - the decoder does not panic;
//! - an accepted input re-encodes to exactly the bytes it consumed — a
//!   decoder accepts only what its encoder writes;
//! - what was accepted can be used: a restored partitioner routes,
//!   locates and scales out; a runner recovered over a hostile
//!   checkpoint holds the state that checkpoint encodes or — having
//!   refused it — the state the log replays, and the run's own state
//!   finishes the run. (An accepted state that is not the run's own can
//!   contradict the config's fault schedule where no codec sees it; that
//!   run may stop at a typed error, never at a panic.)
//!
//! The checkpoint surface is a `testkit::CellChurn` run's checkpoint 2, and
//! its reference is the runner's own state re-encoded in the checkpoint
//! layout: the run scales out after the checkpoint, so a restored table
//! that lost a placement would reach its partitioner's `scale_out`.
//!
//! The default run takes a deterministic sample of every sweep. The full
//! sweep: `cargo test --release --test hostile_bytes -- --ignored
//! hostile_bytes_smoke`. Without `--release` it runs far slower but also
//! panics on integer overflow, which a release build wraps.

use array_model::{
    Array, ArrayId, ArraySchema, AttributeColumn, AttributeType, CellBuffer, Chunk, ChunkCoords,
    ChunkDescriptor, ChunkKey, DeltaSet, ScalarValue, StringEncoding, ZoneMap,
};
use cluster_sim::{Cluster, CostModel, NodeId};
use durability::{
    frame_record, shared, ByteReader, ByteWriter, CodecError, FsyncPolicy, LogStore, MemLog,
    RecordReader,
};
use elastic_core::{
    build_partitioner, unlocated, GridHint, Partitioner, PartitionerConfig, PartitionerKind,
    RouteEpoch,
};
use query_engine::view::{AggKind, GroupKeyFn, PredFn, RowOp, ValueFn, ViewDef, ViewRegistry};
use query_engine::{Catalog, StoredArray};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use testkit::{CellChurn, CHURN};
use workloads::{
    CellBatch, DurabilityConfig, FaultKind, FaultPlan, RunnerConfig, ScalingPolicy, WalEvent,
    Workload, WorkloadRunner,
};

// ---------------------------------------------------------------------
// The sweep: hostile variants of clean bytes, and the contract checks.
// ---------------------------------------------------------------------

const FLIPS: [u8; 3] = [0x01, 0x80, 0xff];
const BYTE_STAMPS: [u8; 2] = [0x00, 0xff];
const WORD_STAMPS: [u64; 4] = [0, 1, 0xff, u64::MAX];
/// Variants per offset: the prefix that ends there, the flips, the byte
/// stamps and the word stamps that start there.
const PER_OFFSET: usize = 1 + FLIPS.len() + BYTE_STAMPS.len() + WORD_STAMPS.len();

/// Every variant, or an evenly spread sample of about this many.
#[derive(Clone, Copy)]
enum Sweep {
    Full,
    Sample(usize),
}

/// Variant `i` of `clean` (of `variant_count(clean)`), named for the
/// failure message; `None` for a word stamp that would run off the end.
fn variant(clean: &[u8], i: usize) -> Option<(String, Vec<u8>)> {
    let (at, kind) = (i / PER_OFFSET, i % PER_OFFSET);
    if at == clean.len() {
        let mut bytes = clean.to_vec();
        bytes.push(0xAB);
        return Some(("a trailing byte".to_string(), bytes));
    }
    let mut bytes = clean.to_vec();
    let what = match kind {
        0 => {
            bytes.truncate(at);
            format!("the prefix of {at} bytes")
        }
        k if k <= FLIPS.len() => {
            let flip = FLIPS[k - 1];
            bytes[at] ^= flip;
            format!("byte {at} ^ {flip:#04x}")
        }
        k if k <= FLIPS.len() + BYTE_STAMPS.len() => {
            let stamp = BYTE_STAMPS[k - 1 - FLIPS.len()];
            bytes[at] = stamp;
            format!("byte {at} = {stamp:#04x}")
        }
        k => {
            let stamp = WORD_STAMPS[k - 1 - FLIPS.len() - BYTE_STAMPS.len()];
            bytes.get_mut(at..at + 8)?.copy_from_slice(&stamp.to_le_bytes());
            format!("u64 at {at} = {stamp:#x}")
        }
    };
    Some((what, bytes))
}

fn variant_count(clean: &[u8]) -> usize {
    clean.len() * PER_OFFSET + 1
}

/// The variant indices `sweep` runs. A sample steps by a stride prime to
/// `PER_OFFSET`, so it visits every kind of mutation, at spread offsets.
fn selected(total: usize, sweep: Sweep) -> Box<dyn Iterator<Item = usize>> {
    match sweep {
        Sweep::Full => Box::new(0..total),
        Sweep::Sample(n) => {
            let mut stride = (total / n.max(1)).max(1);
            while gcd(stride, PER_OFFSET) != 1 {
                stride += 1;
            }
            Box::new((0..total).step_by(stride).chain([total - 1]))
        }
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// What one input did: refused it (typed), or accepted it.
enum Verdict {
    Refused,
    Accepted,
}

/// Feed `surface` the clean bytes (which it must accept) and every
/// selected variant, each under `catch_unwind`. A panic, or a broken
/// contract (`check` returning `Err`), fails the test with the first few
/// inputs that did it. Some variants must be refused.
fn sweep(
    surface: &str,
    clean: &[u8],
    sweep: Sweep,
    check: impl Fn(&[u8]) -> Result<Verdict, String>,
) {
    assert!(
        matches!(check(clean), Ok(Verdict::Accepted)),
        "{surface}: the clean bytes are not accepted whole"
    );
    let (mut refused, mut failures) = (0usize, Vec::new());
    for i in selected(variant_count(clean), sweep) {
        let Some((what, bytes)) = variant(clean, i) else { continue };
        match catch_unwind(AssertUnwindSafe(|| check(&bytes))) {
            Ok(Ok(Verdict::Refused)) => refused += 1,
            Ok(Ok(Verdict::Accepted)) => {}
            Ok(Err(broken)) => failures.push(format!("{what}: {broken}")),
            Err(panic) => {
                let message = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default();
                failures.push(format!("{what}: panicked: {message}"));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{surface}: {} of the hostile inputs broke the contract, first: {:#?}",
        failures.len(),
        &failures[..failures.len().min(40)]
    );
    assert!(refused > 0, "{surface}: no hostile input was refused");
}

/// The round-trip contract for a surface read from a cursor: refused, or
/// accepted with `encode` writing back exactly the bytes `decode` took.
fn round_trip<T, E>(
    bytes: &[u8],
    decode: impl FnOnce(&mut ByteReader<'_>) -> Result<T, E>,
    encode: impl FnOnce(&T, &mut ByteWriter),
) -> Result<Verdict, String> {
    let mut r = ByteReader::new(bytes);
    let Ok(value) = decode(&mut r) else { return Ok(Verdict::Refused) };
    let consumed = &bytes[..bytes.len() - r.remaining()];
    let mut w = ByteWriter::new();
    encode(&value, &mut w);
    if w.into_bytes() != consumed {
        return Err(format!("accepted, but {} bytes read do not write back", consumed.len()));
    }
    Ok(Verdict::Accepted)
}

fn encoded(encode: impl FnOnce(&mut ByteWriter)) -> Vec<u8> {
    let mut w = ByteWriter::new();
    encode(&mut w);
    w.into_bytes()
}

// ---------------------------------------------------------------------
// Fixtures: real bytes with history behind them.
// ---------------------------------------------------------------------

fn sample_schema() -> ArraySchema {
    ArraySchema::parse("H<v:double, n:int32, c:char, s:string>[x=0:15,8, y=0:7,4]").unwrap()
}

/// Two-dimensional cells over four chunks: dictionary strings that spill
/// in one chunk (cap 4), NaN and signed zeros, and retractions that
/// leave tombstones.
fn sample_array() -> Array {
    let mut a = Array::with_encoding(ArrayId(3), sample_schema(), StringEncoding::Dict { cap: 4 });
    for k in 0..40i64 {
        let v = match k % 7 {
            0 => f64::NAN,
            1 => -0.0,
            _ => k as f64 * 0.75 - 9.0,
        };
        let values = vec![
            ScalarValue::Double(v),
            ScalarValue::Int32((k * 37 % 101) as i32 - 50),
            ScalarValue::Char(b'a' + (k % 26) as u8),
            ScalarValue::Str(format!("tag{}", k % if k < 20 { 3 } else { 9 })),
        ];
        a.insert_cell(vec![(k * 5) % 16, (k * 3) % 8], values).unwrap();
    }
    a.delete_cells(&[0, 0, 5, 3, 10, 6]).unwrap();
    a
}

/// The sample's first chunk: tombstoned, dictionary-encoded.
fn sample_chunk() -> Chunk {
    let a = sample_array();
    let (_, chunk) = a.chunks().find(|(_, c)| c.tombstone_count() > 0).expect("a tombstone");
    chunk.clone()
}

fn sample_catalog() -> Catalog {
    let mut catalog = Catalog::new();
    catalog.register(StoredArray::from_array(sample_array()).replicated());
    let schema = ArraySchema::parse("M<v:double>[t=0:*,1, x=0:3,1]").unwrap();
    let descs = (0..6).map(|i| {
        ChunkDescriptor::new(ChunkKey::new(ArrayId(7), ChunkCoords::new([i / 2, i % 2])), 900, 9)
    });
    catalog.register(StoredArray::from_descriptors(ArrayId(7), schema, descs));
    catalog
}

fn sample_batch() -> CellBuffer {
    let schema = sample_schema();
    let mut buf = CellBuffer::new(&schema);
    let mut scratch = Vec::new();
    for k in 0..12i64 {
        scratch.extend([
            ScalarValue::Double(k as f64 * 0.5),
            ScalarValue::Int32(k as i32),
            ScalarValue::Char(b'q'),
            ScalarValue::Str(format!("t{}", k % 4)),
        ]);
        buf.push_row(&[k, k % 8], &mut scratch).unwrap();
    }
    buf.push_retraction(&[2, 2]).unwrap();
    buf
}

/// A k = 2 cluster with payloads and every lifecycle at once: a crash
/// (promoted replicas), a join, a drain and a retirement.
fn sample_cluster() -> (Cluster, BTreeMap<ChunkKey, Arc<Chunk>>) {
    let schema = ArraySchema::parse("A<v:double>[x=0:*,4, y=0:*,4]").unwrap();
    let mut cluster = Cluster::with_replication(4, u64::MAX, CostModel::default(), 2).unwrap();
    cluster.register_array(ArrayId(0), &[6, 6]);
    let mut cells = BTreeMap::new();
    for x in 0..6 {
        for y in 0..6 {
            let key = ChunkKey::new(ArrayId(0), ChunkCoords::new([x, y]));
            let mut chunk = Chunk::new(&schema, key.coords);
            let values = vec![ScalarValue::Double((x * 6 + y) as f64)];
            chunk.push_cell(&schema, vec![x * 4, y * 4 + 1], values).unwrap();
            let chunk = Arc::new(chunk);
            cluster.place(chunk.descriptor(ArrayId(0)), NodeId(((x + y) % 4) as u32)).unwrap();
            cluster.attach_payload(key, Arc::clone(&chunk)).unwrap();
            cells.insert(key, chunk);
        }
    }
    cluster.crash_node(NodeId(3)).unwrap();
    cluster.add_nodes(1, u64::MAX);
    let plan = cluster.plan_drain(NodeId(2)).unwrap();
    cluster.apply_rebalance(&plan).unwrap();
    cluster.retire_node(NodeId(2)).unwrap();
    (cluster, cells)
}

fn grid_desc(x: i64, y: i64, bytes: u64) -> ChunkDescriptor {
    ChunkDescriptor::new(ChunkKey::new(ArrayId(0), ChunkCoords::new([x, y])), bytes, 1)
}

/// A partitioner of `kind` with history — skewed placements, a
/// scale-out, more placements — and the cluster it placed into.
fn sample_table(kind: PartitionerKind) -> (Box<dyn Partitioner>, Cluster) {
    let (grid, config) = (GridHint::new(vec![12, 12]), PartitionerConfig::default());
    let mut cluster = Cluster::new(2, u64::MAX, CostModel::default()).unwrap();
    let mut p = build_partitioner(kind, &cluster, &grid, &config);
    fn place(p: &mut Box<dyn Partitioner>, cluster: &mut Cluster, d: ChunkDescriptor) {
        let node = p.place(&d, cluster);
        cluster.place(d, node).unwrap();
    }
    for x in 0..12 {
        for y in 0..6 {
            place(&mut p, &mut cluster, grid_desc(x, y, if x < 3 && y < 3 { 500 } else { 10 }));
        }
    }
    let new = cluster.add_nodes(2, u64::MAX);
    let plan = p.scale_out(&cluster, &new);
    cluster.apply_rebalance(&plan).unwrap();
    for x in 0..12 {
        place(&mut p, &mut cluster, grid_desc(x, 6 + x % 6, 10));
    }
    (p, cluster)
}

fn sample_events() -> Vec<WalEvent> {
    let schema = ArraySchema::parse("W<v:double, s:string>[x=0:*,8]").unwrap();
    let mut batch = CellBatch::new(ArrayId(0), &schema);
    let mut vals = Vec::new();
    for k in 0..6i64 {
        vals.extend([ScalarValue::Double(k as f64), ScalarValue::Str(format!("s{}", k % 2))]);
        batch.push(&[k * 3], &mut vals);
    }
    batch.push_retraction(&[3]);
    let descs: Vec<ChunkDescriptor> = (0..3).map(|i| grid_desc(i, i + 1, 100 + i as u64)).collect();
    vec![
        WalEvent::Genesis { fingerprint: 0x5eed },
        WalEvent::CycleStart { cycle: 3 },
        WalEvent::Faults { cycle: 3, digest: 77 },
        WalEvent::InsertCells { batches: vec![batch] },
        WalEvent::InsertMeta { descs: descs.clone() },
        WalEvent::Scale { add: 2, remove: 0, saturated: true },
        WalEvent::Derived { descs },
        WalEvent::CycleEnd { cycle: 3 },
    ]
}

/// A churn small enough to recover thousands of times: one chunk row of
/// `x` per cycle, so no chunk is built twice.
const CHURN_RUN: CellChurn =
    CellChurn { cycles: 4, cells: 64, chunk: 16, tags: 5, grid: 16, derived: [512, 1, 4] };

fn churn_views() -> Vec<ViewDef> {
    let group: GroupKeyFn = Arc::new(|c, _| vec![c[0].div_euclid(16)]);
    let value: ValueFn = Arc::new(|_, v| v[0].as_f64().unwrap_or(0.0));
    let even: PredFn = Arc::new(|c, _| c[1] % 2 == 0);
    vec![
        ViewDef::aggregate("sum-by-chunk", CHURN, Vec::new(), group, value, AggKind::Sum),
        ViewDef::select("even-rows", CHURN, vec![RowOp::Filter(even)]),
    ]
}

/// Replicas and a crash before the checkpoint, a revival after it, and
/// a staircase provisioner whose history the checkpoint carries. On
/// 1.5 KB nodes the staircase scales out in cycle 2, the first cycle a
/// recovery from checkpoint 2 runs live, so a restored table must scale
/// out as well as route and locate.
fn churn_config(log: durability::SharedLog) -> RunnerConfig {
    RunnerConfig {
        initial_nodes: 3,
        replication: 2,
        fault_plan: Some(FaultPlan::new(7).at(1, FaultKind::Crash(1)).at(3, FaultKind::Revive(1))),
        scaling: ScalingPolicy::Staircase(elastic_core::StaircaseConfig {
            node_capacity_gb: 1536.0 / 1e9,
            ..elastic_core::StaircaseConfig::paper_defaults()
        }),
        durability: Some(DurabilityConfig {
            log,
            checkpoint_every: 2,
            fsync_policy: FsyncPolicy::PerCycle,
        }),
        ..testkit::config(PartitionerKind::RoundRobin, 1536)
    }
}

/// A recovered runner's state in the checkpoint layout: catalog, every
/// chunk's cells once by key, cluster, partitioner table, provisioner
/// history, view states.
fn world_bytes(runner: &WorkloadRunner<'_>) -> Vec<u8> {
    encoded(|w| {
        runner.catalog().encode_into(w);
        let records = runner.cluster().residents();
        let cells: BTreeMap<ChunkKey, &Arc<Chunk>> =
            records.filter_map(|r| Some((r.descriptor().key, r.payload()?))).collect();
        w.put_usize(cells.len());
        for (key, chunk) in cells {
            key.array.encode_into(w);
            chunk.encode_into(w);
        }
        runner.cluster().snapshot_into(w);
        w.put_bytes(&runner.partitioner().table_snapshot());
        w.put_bool(runner.provisioner().is_some());
        if let Some(p) = runner.provisioner() {
            w.put_usize(p.history().len());
            p.history().iter().for_each(|&v| w.put_f64(v));
        }
        runner.views().export_states(w);
    })
}

// ---------------------------------------------------------------------
// The surfaces.
// ---------------------------------------------------------------------

fn chunk_surface(sweep_by: Sweep) {
    let clean = encoded(|w| sample_chunk().encode_into(w));
    sweep("chunk", &clean, sweep_by, |bytes| {
        round_trip(bytes, Chunk::decode_from, |c, w| c.encode_into(w))
    });
}

fn zone_map_surface(sweep_by: Sweep) {
    let clean = encoded(|w| sample_chunk().zone().encode_into(w));
    sweep("zone map", &clean, sweep_by, |bytes| {
        round_trip(bytes, ZoneMap::decode_from, |z, w| z.encode_into(w))
    });
}

fn schema_surface(sweep_by: Sweep) {
    let clean = encoded(|w| sample_schema().encode_into(w));
    sweep("schema", &clean, sweep_by, |bytes| {
        round_trip(bytes, ArraySchema::decode_from, |s, w| s.encode_into(w))
    });
}

fn cell_batch_surface(sweep_by: Sweep) {
    let clean = encoded(|w| sample_batch().encode_into(w));
    sweep("cell batch", &clean, sweep_by, |bytes| {
        round_trip(bytes, CellBuffer::decode_from, |b, w| b.encode_into(w))
    });
}

fn array_surface(sweep_by: Sweep) {
    let clean = encoded(|w| sample_array().encode_into(w));
    sweep("array", &clean, sweep_by, |bytes| {
        round_trip(bytes, Array::decode_from, |a, w| a.encode_into(w))
    });
}

fn catalog_surface(sweep_by: Sweep) {
    let clean = encoded(|w| sample_catalog().encode_into(w));
    sweep("catalog", &clean, sweep_by, |bytes| {
        round_trip(bytes, Catalog::decode_from, |c, w| c.encode_into(w))
    });
}

fn cluster_surface(sweep_by: Sweep) {
    let (cluster, cells) = sample_cluster();
    let clean = encoded(|w| cluster.snapshot_into(w));
    let lookup = |key: &ChunkKey| cells.get(key).cloned();
    sweep("cluster snapshot", &clean, sweep_by, |bytes| {
        round_trip(
            bytes,
            |r| Cluster::restore_from(r, CostModel::default(), &lookup),
            |c, w| c.snapshot_into(w),
        )
    });
}

/// Restore `bytes` as a `kind` table beside the `cluster` it was taken
/// from, as recovery does, and use what was accepted: write it back,
/// route, locate and scale out.
fn restore_and_use(
    kind: PartitionerKind,
    cluster: &Cluster,
    bytes: &[u8],
) -> Result<Verdict, String> {
    let (grid, config) = (GridHint::new(vec![12, 12]), PartitionerConfig::default());
    let mut q = build_partitioner(kind, cluster, &grid, &config);
    // Recovery refuses a table that does not locate every placement.
    let restored = q.table_restore(bytes, &cluster.node_ids());
    if restored.is_err() || unlocated(q.as_ref(), cluster).is_some() {
        return Ok(Verdict::Refused);
    }
    if q.table_snapshot() != bytes {
        return Err("accepted, but does not write back".to_string());
    }
    let epoch = RouteEpoch::single(cluster);
    for x in 0..16 {
        q.route(&grid_desc(x, 100 - x, 25), x as usize, &epoch);
    }
    for (key, _) in cluster.placements() {
        let _ = q.locate(&key);
    }
    let mut grown = cluster.clone();
    let new = grown.add_nodes(2, u64::MAX);
    let plan = q.scale_out(&grown, &new);
    let _ = grown.apply_rebalance(&plan);
    Ok(Verdict::Accepted)
}

fn table_surface(kind: PartitionerKind, sweep_by: Sweep) {
    let (p, cluster) = sample_table(kind);
    sweep(&format!("{kind} table"), &p.table_snapshot(), sweep_by, |bytes| {
        restore_and_use(kind, &cluster, bytes)
    });
}

fn wal_event_surface(sweep_by: Sweep) {
    for (i, event) in sample_events().into_iter().enumerate() {
        let clean = event.encode();
        sweep(&format!("wal event {i}"), &clean, sweep_by, |bytes| {
            let Ok(decoded) = WalEvent::decode(bytes) else { return Ok(Verdict::Refused) };
            if decoded.encode() != bytes {
                return Err("accepted, but does not write back".to_string());
            }
            Ok(Verdict::Accepted)
        });
    }
}

fn view_surface(sweep_by: Sweep) {
    let defs = churn_views();
    let mut registry = ViewRegistry::new();
    defs.iter().for_each(|def| registry.register(def.clone()));
    // The sample's cells in, then a few of them out again.
    let array = sample_array();
    registry.apply(CHURN, &DeltaSet::from_live_cells(&array));
    let mut retract = DeltaSet::new();
    for (_, chunk) in array.chunks().take(2) {
        for (cell, row) in chunk.iter_cells().take(3) {
            retract.push(cell.to_vec(), chunk.row_values(row).expect("a row"), -1);
        }
    }
    registry.apply(CHURN, &retract);
    let clean = encoded(|w| registry.export_states(w));
    sweep("view states", &clean, sweep_by, |bytes| {
        round_trip(
            bytes,
            |r| ViewRegistry::import_states(defs.clone(), r),
            |v, w| v.export_states(w),
        )
    });
}

/// Two committed cycles of the churn run and the checkpoint after them,
/// nothing more: a recovery from it replays nothing and runs cycles 2 and
/// 3 live. Returns the log image and the checkpoint's payload.
fn churn_checkpoint() -> (MemLog, Vec<u8>) {
    let log = Arc::new(Mutex::new(MemLog::new()));
    let mut live = WorkloadRunner::new(&CHURN_RUN, churn_config(log.clone()));
    churn_views().into_iter().for_each(|def| live.register_view(def));
    (0..2).for_each(|c| drop(live.run_cycle(c).expect("a clean cycle")));
    drop(live);
    let image = log.lock().expect("log").clone();
    let blob = image.clone().read_checkpoint(2).expect("checkpoint 2");
    let clean = RecordReader::new(&blob).next_record().expect("framed").expect("a record").to_vec();
    (image, clean)
}

/// The checkpoint payload's header: fingerprint, next cycle.
const HEADER: usize = 16;

/// Recover over `image` with checkpoint 2 replaced by `payload`, and use
/// what was recovered: the `clean` payload must run to the end, scaling
/// out on the way; any other must be refused for the log's own state, or
/// be accepted as exactly the state it encodes.
fn recover_checkpoint(image: &MemLog, clean: &[u8], payload: &[u8]) -> Result<Verdict, String> {
    let mut image = image.clone();
    image.write_checkpoint(2, &frame_record(payload)).expect("mem log");
    let mut runner =
        WorkloadRunner::recover(&CHURN_RUN, churn_config(shared(image)), churn_views())
            .map_err(|e| format!("recovery failed: {e}"))?;
    if runner.start_cycle() != 2 {
        return Err(format!("recovered at cycle {}", runner.start_cycle()));
    }
    let state = world_bytes(&runner);
    if payload == clean {
        let run = runner.run_all().map_err(|e| format!("the clean run failed: {e}"))?;
        if !run.cycles.iter().any(|c| c.added_nodes > 0) {
            return Err("the clean run never scaled out after the checkpoint".into());
        }
        return Ok(Verdict::Accepted);
    }
    if state == clean[HEADER..] {
        // Refused and replayed: the run's own state, which the clean
        // input above took to the end of the run.
        return Ok(Verdict::Refused);
    }
    if payload.get(HEADER..) != Some(&state[..]) {
        return Err("recovered a state that is neither the checkpoint's nor the log's".into());
    }
    // Accepted, and not the run's state. It may still contradict the
    // config where no codec can see it — a crashed, empty node written
    // as a healthy, empty one — and then the run stops, typed, when the
    // schedule reaches it (reviving a node that is not down). A panic
    // fails the sweep.
    let _ = runner.run_all();
    Ok(Verdict::Accepted)
}

fn checkpoint_surface(sweep_by: Sweep) {
    let (image, clean) = churn_checkpoint();
    sweep("checkpoint", &clean, sweep_by, |payload| recover_checkpoint(&image, &clean, payload));
}

fn table_surfaces(sweep_by: Sweep) {
    for kind in PartitionerKind::ALL {
        table_surface(kind, sweep_by);
    }
}

/// Every surface, with the sweep Tier-1 gives it: the whole sweep where
/// that takes well under a second in debug, an even sample where it
/// would not (cluster, tables, checkpoint).
const SURFACES: [(fn(Sweep), Sweep); 11] = [
    (chunk_surface, Sweep::Full),
    (zone_map_surface, Sweep::Full),
    (schema_surface, Sweep::Full),
    (cell_batch_surface, Sweep::Full),
    (array_surface, Sweep::Full),
    (catalog_surface, Sweep::Full),
    (cluster_surface, Sweep::Sample(10_000)),
    (table_surfaces, Sweep::Sample(3_000)),
    (wal_event_surface, Sweep::Full),
    (view_surface, Sweep::Full),
    (checkpoint_surface, Sweep::Sample(1_000)),
];

macro_rules! tier_one {
    ($($test:ident = $i:expr;)*) => {$(
        #[test]
        fn $test() {
            let (surface, sweep_by) = SURFACES[$i];
            surface(sweep_by);
        }
    )*};
}

tier_one! {
    chunk_bytes = 0;
    zone_map_bytes = 1;
    schema_bytes = 2;
    cell_batch_bytes = 3;
    array_bytes = 4;
    catalog_bytes = 5;
    cluster_snapshot_bytes = 6;
    partitioner_table_bytes = 7;
    wal_event_bytes = 8;
    view_state_bytes = 9;
    checkpoint_bytes = 10;
}

/// Every variant of every surface. Release-mode CI runs this.
#[test]
#[ignore = "full sweep: run in release via cargo test --release -- --ignored"]
fn hostile_bytes_smoke() {
    SURFACES.iter().for_each(|(surface, _)| surface(Sweep::Full));
}

// ---------------------------------------------------------------------
// The defects the sweep's kinds of input found, each pinned by its own
// input.
// ---------------------------------------------------------------------

/// Where, in a chunk's bytes, its tombstone words end: the string
/// encoding and the zone map follow them.
fn tombstones_end(chunk: &Chunk) -> usize {
    let tail = encoded(|w| {
        chunk.string_encoding().encode_into(w);
        chunk.zone().encode_into(w);
    });
    encoded(|w| chunk.encode_into(w)).len() - tail.len()
}

/// A tombstone past the last physical row passed the live-count check: a
/// two-row chunk with row 0 retracted, its one tombstone moved to row 5 —
/// still one dead row, so the counter agreed — decoded to a chunk whose
/// `cell_count()` said 1 while `iter_cells()` yielded 2.
#[test]
fn a_tombstone_past_the_last_row_is_refused() {
    let schema = ArraySchema::parse("T<v:int32>[x=0:7,8]").unwrap();
    let mut chunk = Chunk::new(&schema, ChunkCoords::new([0]));
    for x in 0..2 {
        chunk.push_cell(&schema, vec![x], vec![ScalarValue::Int32(x as i32)]).unwrap();
    }
    chunk.retract_cell(&[0]).expect("row 0 is live");
    let mut bytes = encoded(|w| chunk.encode_into(w));
    let word = tombstones_end(&chunk) - 8;
    assert_eq!(bytes[word..word + 8], 1u64.to_le_bytes(), "row 0's tombstone");
    bytes[word..word + 8].copy_from_slice(&(1u64 << 5).to_le_bytes());
    let decoded = Chunk::decode_from(&mut ByteReader::new(&bytes));
    assert!(decoded.is_err(), "{:?}", decoded.map(|c| (c.cell_count(), c.iter_cells().count())));
}

/// A zone map narrower than its chunk's cells was accepted — dimension
/// `max` 0 beside a live `x = 1` — and a scan pruning by it skipped a
/// chunk holding a cell in the region it asked for: a wrong answer.
#[test]
fn a_zone_map_narrower_than_its_cells_is_refused() {
    let schema = ArraySchema::parse("Z<v:int32>[x=0:7,8]").unwrap();
    let mut chunk = Chunk::new(&schema, ChunkCoords::new([0]));
    for x in 0..2 {
        chunk.push_cell(&schema, vec![x], vec![ScalarValue::Int32(7)]).unwrap();
    }
    let mut bytes = encoded(|w| chunk.encode_into(w));
    let zone_at = bytes.len() - encoded(|w| chunk.zone().encode_into(w)).len();
    let dim_max = zone_at + 8 + 8; // the dim count, then dim 0's min
    assert_eq!(bytes[dim_max..dim_max + 8], 1i64.to_le_bytes(), "dim 0's max");
    bytes[dim_max..dim_max + 8].copy_from_slice(&0i64.to_le_bytes());
    let decoded = Chunk::decode_from(&mut ByteReader::new(&bytes));
    let region = array_model::Region::new(vec![1], vec![1]);
    assert!(
        decoded.is_err(),
        "pruned x = 1: {:?}",
        decoded.map(|c| c.zone().refutes_region(&region))
    );
}

/// One input per partitioner that restored, then panicked when used,
/// before restore checked what the scheme could have written. The
/// sampled sweep need not reach them; Tier-1 runs each.
#[test]
fn the_table_inputs_that_panicked_are_refused() {
    let pinned = [
        // `route`: a roster node 128 the cluster does not know.
        (PartitionerKind::Append, "byte 8 ^ 0x80"),
        // `route`: a bucket cover with a hole.
        (PartitionerKind::ExtendibleHash, "byte 56 ^ 0x01"),
        // `route`: a region cover with a hole.
        (PartitionerKind::IncrementalQuadtree, "u64 at 8 = 0x1"),
        // `route`: a split on dimension 128 of two.
        (PartitionerKind::KdTree, "byte 1 ^ 0x80"),
        // `scale_out`: a placement the sequence index lost.
        (PartitionerKind::RoundRobin, "byte 40 ^ 0x01"),
    ];
    for (kind, input) in pinned {
        let (p, cluster) = sample_table(kind);
        let clean = p.table_snapshot();
        let variants = (0..variant_count(&clean)).filter_map(|i| variant(&clean, i));
        let (_, bytes) = variants.into_iter().find(|(what, _)| what == input).expect("an input");
        let verdict = catch_unwind(AssertUnwindSafe(|| restore_and_use(kind, &cluster, &bytes)));
        assert!(matches!(verdict, Ok(Ok(Verdict::Refused))), "{kind} table, {input}");
    }
}

/// A checkpoint whose Round Robin table lost a placement restored, and the
/// run's scale-out in cycle 2, the first cycle after the checkpoint,
/// panicked on the missing sequence number. `World::decode` refuses a
/// table that does not locate every placed chunk, and the log replays.
/// Fed here: every same-length variant of the checkpoint's table that
/// restores but loses a placement.
#[test]
fn a_checkpoint_table_that_lost_a_placement_is_refused() {
    let (image, clean) = churn_checkpoint();
    let views = churn_views();
    let runner = WorkloadRunner::recover(&CHURN_RUN, churn_config(shared(image.clone())), views)
        .expect("the clean checkpoint recovers");
    let (table, cluster) = (runner.partitioner().table_snapshot(), runner.cluster());
    let at = clean.windows(table.len()).position(|w| w == table).expect("the table's bytes");
    let (grid, config) = (CHURN_RUN.grid_hint(), PartitionerConfig::default());
    let lost =
        (0..variant_count(&table)).filter_map(|i| variant(&table, i)).filter(|(_, bytes)| {
            let mut q = build_partitioner(PartitionerKind::RoundRobin, cluster, &grid, &config);
            let restored = q.table_restore(bytes, &cluster.node_ids()).is_ok();
            bytes.len() == table.len() && restored && unlocated(q.as_ref(), cluster).is_some()
        });
    let mut fed = 0;
    for (what, bytes) in lost {
        let mut payload = clean.clone();
        payload[at..at + table.len()].copy_from_slice(&bytes);
        let verdict = recover_checkpoint(&image, &clean, &payload);
        assert!(matches!(verdict, Ok(Verdict::Refused)), "table {what}: {:?}", verdict.err());
        fed += 1;
    }
    assert!(fed > 0, "no variant of the table loses a placement");
}

/// A checkpoint's provisioner history is whatever `f64`s its codec reads.
/// Samples of -1e300 made the staircase ask for some 10^15 nodes in the
/// first cycle after the checkpoint, and the allocation aborted the
/// process. Every policy's scale-out is now held to the per-cycle cap,
/// and the cycle reports the step saturated.
#[test]
fn a_runaway_provisioner_history_saturates_the_step() {
    let (mut image, clean) = churn_checkpoint();
    let views = churn_views();
    let runner = WorkloadRunner::recover(&CHURN_RUN, churn_config(shared(image.clone())), views)
        .expect("the clean checkpoint recovers");
    let history = runner.provisioner().expect("a staircase").history().to_vec();
    let section = encoded(|w| {
        w.put_bool(true);
        w.put_list(&history, |w, &v| w.put_f64(v));
    });
    let at = clean.windows(section.len()).position(|w| w == section).expect("the history's bytes");
    let runaway = encoded(|w| history.iter().for_each(|_| w.put_f64(-1e300)));
    let mut payload = clean.clone();
    payload[at + section.len() - runaway.len()..at + section.len()].copy_from_slice(&runaway);
    image.write_checkpoint(2, &frame_record(&payload)).expect("mem log");
    let mut runner =
        WorkloadRunner::recover(&CHURN_RUN, churn_config(shared(image)), churn_views())
            .expect("any history is accepted");
    let run = runner.run_all().expect("the run finishes");
    assert!(run.cycles.iter().any(|c| c.scale_saturated), "{:?}", run.cycles);
}

/// A K-d Tree table of 10 000 nested splits recursed once per split, and
/// its drop once more, until the stack overflowed and the process
/// aborted. Every split here is inside its box and every leaf states its
/// true depth and box; only the depth gives it away. A tree of distinct
/// hosts is no deeper than the roster is long, so restore refuses it at
/// the third level.
#[test]
fn a_ten_thousand_deep_kd_table_is_refused() {
    let cluster = Cluster::new(2, u64::MAX, CostModel::default()).unwrap();
    let grid = GridHint::new(vec![10_001]);
    let mut p = build_partitioner(PartitionerKind::KdTree, &cluster, &grid, &Default::default());
    let leaf = |w: &mut ByteWriter, depth: u32, lo: i64| {
        w.put_u8(0); // a leaf: host, depth, then its box `lo..lo + 1`
        w.put_u32(depth % 2);
        w.put_u32(depth);
        w.put_list([lo], |w, lo| w.put_i64(lo));
        w.put_list([lo + 1], |w, hi| w.put_i64(hi));
    };
    let table = encoded(|w| {
        for split in 1..=10_000i64 {
            w.put_u8(1); // an internal node: dim, plane, then its two subtrees
            w.put_usize(0);
            w.put_i64(split);
            leaf(w, split as u32, split - 1);
        }
        leaf(w, 10_000, 10_000);
    });
    assert_eq!(table.len(), 10_000 * 58 + 41);
    let refused = p.table_restore(&table, &cluster.node_ids());
    assert!(
        matches!(refused, Err(CodecError::Invalid { context: "kd tree depth", .. })),
        "{refused:?}"
    );
}

/// Replace the first occurrence of `from` in `bytes` with `to`.
fn replaced(bytes: &[u8], from: &[u8], to: &[u8]) -> Vec<u8> {
    let at = bytes.windows(from.len()).position(|w| w == from).expect("the bytes to replace");
    [&bytes[..at], to, &bytes[at + from.len()..]].concat()
}

/// A length-prefixed string as `ByteWriter::put_str` writes it.
fn put_str(s: &str) -> Vec<u8> {
    encoded(|w| w.put_str(s))
}

/// The decode checks no single-byte edit reaches, each fed a built
/// input. (1) A schema whose attribute type is `int`, an alias `parse`
/// accepts for `int32` but no encoder writes.
#[test]
fn a_schema_type_alias_is_refused() {
    let schema = ArraySchema::parse("S<n:int32>[x=0:7,8]").unwrap();
    let clean = encoded(|w| schema.encode_into(w));
    assert_eq!(ArraySchema::decode_from(&mut ByteReader::new(&clean)).as_ref(), Ok(&schema));
    let alias = replaced(&clean, &put_str("int32"), &put_str("int"));
    let refused = ArraySchema::decode_from(&mut ByteReader::new(&alias));
    assert!(
        matches!(refused, Err(CodecError::Invalid { context: "attribute type", .. })),
        "{refused:?}"
    );
}

/// (2) Append ranges that do not start at sequence 0, or where two
/// neighbouring ranges name the same node: `commit` opens a range only at
/// the first placement and at each change of node.
#[test]
fn append_ranges_no_commit_writes_are_refused() {
    let (p, cluster) = sample_table(PartitionerKind::Append);
    let clean = p.table_snapshot();
    let mut r = ByteReader::new(&clean);
    r.list("nodes", 4, |r| r.u32("node")).unwrap();
    r.usize("cursor").unwrap();
    let next_seq = r.u64("next seq").unwrap();
    let head = clean.len() - r.remaining();
    let ranges = r.list("ranges", 12, |r| Ok((r.u64("seq")?, r.u32("node")?))).unwrap();
    let tail = &clean[clean.len() - r.remaining()..];
    let table = |ranges: &[(u64, u32)]| {
        let section = encoded(|w| {
            w.put_list(ranges, |w, &(seq, node)| {
                w.put_u64(seq);
                w.put_u32(node);
            })
        });
        [&clean[..head], &section, tail].concat()
    };
    let restore = |bytes: &[u8]| {
        let (grid, config) = (GridHint::new(vec![12, 12]), PartitionerConfig::default());
        let mut q = build_partitioner(PartitionerKind::Append, &cluster, &grid, &config);
        q.table_restore(bytes, &cluster.node_ids())
    };
    assert_eq!(table(&ranges), clean);
    assert_eq!(restore(&clean), Ok(()));
    let late_start: Vec<_> = ranges.iter().map(|&(seq, node)| (seq + 1, node)).collect();
    // A range opened one placement after the last, on the same node.
    let &(last, node) = ranges.last().expect("placing opened a range");
    assert!(last + 1 < next_seq, "{ranges:?} of {next_seq}");
    let repeated: Vec<_> = ranges.iter().copied().chain([(last + 1, node)]).collect();
    for (what, ranges) in [("late start", late_start), ("repeated node", repeated)] {
        let refused = restore(&table(&ranges));
        assert!(
            matches!(refused, Err(CodecError::Invalid { context: "append range", .. })),
            "{what}: {refused:?}"
        );
    }
}

/// (3) A catalog that lists one array twice.
#[test]
fn a_catalog_listing_an_array_twice_is_refused() {
    let array = StoredArray::from_array(sample_array()).replicated();
    let listed =
        |times: usize| encoded(|w| w.put_list(vec![&array; times], |w, a| a.encode_into(w)));
    let once = Catalog::decode_from(&mut ByteReader::new(&listed(1))).expect("one listing");
    assert_eq!(encoded(|w| once.encode_into(w)), listed(1));
    let refused = Catalog::decode_from(&mut ByteReader::new(&listed(2)));
    assert!(
        matches!(refused, Err(CodecError::Invalid { context: "catalog array id", .. })),
        "{:?}",
        refused.err()
    );
}

// ---------------------------------------------------------------------
// The fixed-width lists — the four fixed-width columns, a dictionary's
// codes, a chunk's coordinates and tombstone words, a batch's
// coordinates and retractions — each refused by its list's own count.
// ---------------------------------------------------------------------

fn fixed_width_schema() -> ArraySchema {
    ArraySchema::parse("F<i:int32, l:int64, f:float, d:double, s:string>[x=0:15,8, y=0:7,4]")
        .unwrap()
}

fn fixed_width_values(k: i64) -> Vec<ScalarValue> {
    let f = match k % 5 {
        0 => f32::NAN,
        1 => -0.0,
        _ => k as f32 * 0.25 - 3.0,
    };
    vec![
        ScalarValue::Int32((k * 37 % 101) as i32 - 50),
        ScalarValue::Int64(k * -123_456_789_012),
        ScalarValue::Float(f),
        ScalarValue::Double(if k % 7 == 3 { f64::NAN } else { k as f64 * -1.5 }),
        ScalarValue::Str(format!("tag{}", k % 5)),
    ]
}

/// A chunk of every fixed-width column and a dictionary column, with
/// retracted rows in two tombstone words.
fn fixed_width_chunk() -> Chunk {
    let schema = fixed_width_schema();
    let encoding = StringEncoding::Dict { cap: 8 };
    let mut chunk = Chunk::with_encoding(&schema, ChunkCoords::new([0, 1]), encoding);
    for k in 0..96i64 {
        chunk.push_cell(&schema, vec![k % 8, 4 + k % 4], fixed_width_values(k)).unwrap();
    }
    for cell in [[0, 4], [3, 7], [5, 5]] {
        chunk.retract_cell(&cell).expect("a live cell");
    }
    assert_eq!(chunk.tombstone_words().len(), 2, "rows 64.. hold a retraction");
    chunk
}

fn fixed_width_batch() -> CellBuffer {
    let mut buf = CellBuffer::new(&fixed_width_schema());
    for k in 0..20i64 {
        buf.push_row(&[k % 16, k % 8], &mut fixed_width_values(k)).unwrap();
    }
    for cell in [[2, 2], [9, 1]] {
        buf.push_retraction(&cell).unwrap();
    }
    buf
}

/// Require `bytes` accepted, and written back byte for byte.
fn reencodes<T>(
    bytes: &[u8],
    decode: impl FnOnce(&mut ByteReader<'_>) -> Result<T, CodecError>,
    encode: impl FnOnce(&T, &mut ByteWriter),
) {
    assert!(matches!(round_trip(bytes, decode, encode), Ok(Verdict::Accepted)));
}

/// Stamp the `u64` count at `at` one `width`-byte item past the bytes
/// left behind it, and require the refusal to name `context`, the bytes
/// that count wants and the bytes that were left.
fn overlong_count_truncates<T: std::fmt::Debug>(
    bytes: &[u8],
    (context, at, width): (&'static str, usize, usize),
    decode: impl Fn(&mut ByteReader<'_>) -> Result<T, CodecError>,
) {
    let remaining = bytes.len() - at - 8;
    let count = remaining / width + 1;
    let mut hostile = bytes.to_vec();
    hostile[at..at + 8].copy_from_slice(&(count as u64).to_le_bytes());
    let refused = decode(&mut ByteReader::new(&hostile)).unwrap_err();
    assert_eq!(refused, CodecError::Truncated { context, wanted: count * width, remaining });
}

#[test]
fn a_fixed_width_column_count_past_its_bytes_is_truncated() {
    let chunk = fixed_width_chunk();
    let contexts = [
        ("int32 column len", 4),
        ("int64 column len", 8),
        ("float column len", 4),
        ("double column len", 8),
    ];
    for (column, (context, width)) in chunk.columns().iter().zip(contexts) {
        let bytes = encoded(|w| column.encode_into(w));
        assert_eq!(bytes.len(), 1 + 8 + column.len() * width, "{context}");
        reencodes(&bytes, AttributeColumn::decode_from, AttributeColumn::encode_into);
        // The column tag, then the count.
        overlong_count_truncates(&bytes, (context, 1, width), AttributeColumn::decode_from);
    }
    let empty = AttributeColumn::new(AttributeType::Int64);
    let bytes = encoded(|w| empty.encode_into(w));
    reencodes(&bytes, AttributeColumn::decode_from, AttributeColumn::encode_into);
    overlong_count_truncates(&bytes, ("int64 column len", 1, 8), AttributeColumn::decode_from);
}

#[test]
fn a_dict_code_past_its_entries_names_the_first() {
    let chunk = fixed_width_chunk();
    let column = &chunk.columns()[4];
    let dict = column.as_dict().expect("a dictionary column");
    let (codes, entries) = (dict.codes().len(), dict.dict().len());
    let bytes = encoded(|w| column.encode_into(w));
    reencodes(&bytes, AttributeColumn::decode_from, AttributeColumn::encode_into);
    let codes_at = bytes.len() - 4 * codes;
    let code = |i: usize| codes_at + 4 * i;
    overlong_count_truncates(
        &bytes,
        ("dict code count", codes_at - 8, 4),
        AttributeColumn::decode_from,
    );
    // The last entry is a code; one past it is not, wherever it sits.
    let mut last = bytes.clone();
    last[code(codes - 1)..code(codes)].copy_from_slice(&(entries as u32 - 1).to_le_bytes());
    reencodes(&last, AttributeColumn::decode_from, AttributeColumn::encode_into);
    let mut hostile = bytes.clone();
    for (i, c) in [(3, entries + 6), (9, entries), (codes - 1, entries + 1)] {
        hostile[code(i)..code(i + 1)].copy_from_slice(&(c as u32).to_le_bytes());
    }
    let refused = AttributeColumn::decode_from(&mut ByteReader::new(&hostile)).unwrap_err();
    let detail = format!("code {} out of range for {entries} entries", entries + 6);
    assert_eq!(refused, CodecError::Invalid { context: "dict code", detail });
}

#[test]
fn a_chunk_coordinate_or_tombstone_count_past_its_bytes_is_truncated() {
    let chunk = fixed_width_chunk();
    let bytes = encoded(|w| chunk.encode_into(w));
    reencodes(&bytes, Chunk::decode_from, Chunk::encode_into);
    // The chunk's coordinates and its stride byte, then the count.
    let coords_at = encoded(|w| ChunkCoords::new([0, 1]).encode_into(w)).len() + 1;
    overlong_count_truncates(&bytes, ("cell coords", coords_at, 8), Chunk::decode_from);
    let tombstones_at = tombstones_end(&chunk) - 8 * chunk.tombstone_words().len() - 8;
    let tombstones = ("tombstone word count", tombstones_at, 8);
    overlong_count_truncates(&bytes, tombstones, Chunk::decode_from);
}

#[test]
fn a_batch_coordinate_or_retraction_count_past_its_bytes_is_truncated() {
    let batch = fixed_width_batch();
    let bytes = encoded(|w| batch.encode_into(w));
    reencodes(&bytes, CellBuffer::decode_from, CellBuffer::encode_into);
    // The stride, then the count.
    overlong_count_truncates(&bytes, ("cell coords", 8, 8), CellBuffer::decode_from);
    let retractions_at = bytes.len() - 8 * batch.retractions_flat().len() - 8;
    let retractions = ("batch retraction coords", retractions_at, 8);
    overlong_count_truncates(&bytes, retractions, CellBuffer::decode_from);
}
