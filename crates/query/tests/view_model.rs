//! Model-based property tests for the incremental views: the batch
//! apply over flat sorted runs must behave exactly like the row-at-a-time
//! implementation over `BTreeMap`s it replaced — same snapshots, same
//! counters, same exported bytes — for every view shape and aggregate,
//! under random consistent insert/retract streams, and whatever order a
//! delta's rows arrive in. Time-keyed streams — days appended past the
//! end of a run and expired at its front, the shapes a Z-set merge
//! rewrites only a span for — get their own property.
//!
//! The model below *is* the replaced implementation in miniature: a
//! `BTreeMap<RowKey, _>` per Z-set, a `BTreeMap` of one-row maps per
//! join side, and per group a `BTreeMap<u64, i64>` multiset with the
//! hand-maintained extremum cache, written out in the checkpoint format.

use array_model::{ArrayId, DeltaSet, ScalarValue};
use durability::ByteWriter;
use proptest::prelude::*;
use query_engine::view::{
    cmp_rows, ord_bits, row_key, AggKind, EmitFn, GroupKeyFn, GroupState, JoinKeyFn, KeyScalar,
    MapFn, PredFn, Row, RowKey, RowOp, ValueFn, ViewDef, ViewKind, ViewSnapshot, ViewStats,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

const A: ArrayId = ArrayId(1);
const B: ArrayId = ArrayId(2);

// --------------------------------------------------------------- model --

/// The replaced `GroupState`: a tree multiset and cached extrema,
/// rescanned when a retraction removes one.
#[derive(Default)]
struct ModelGroup {
    count: i64,
    values: BTreeMap<u64, i64>,
    min_bits: Option<u64>,
    max_bits: Option<u64>,
}

impl ModelGroup {
    fn update(&mut self, value: f64, weight: i64) {
        self.count += weight;
        let bits = ord_bits(value);
        let slot = self.values.entry(bits).or_insert(0);
        *slot += weight;
        let emptied = *slot == 0;
        if emptied {
            self.values.remove(&bits);
        }
        if weight > 0 && !emptied {
            self.min_bits = Some(self.min_bits.map_or(bits, |m| m.min(bits)));
            self.max_bits = Some(self.max_bits.map_or(bits, |m| m.max(bits)));
        } else if emptied && (self.min_bits == Some(bits) || self.max_bits == Some(bits)) {
            self.min_bits = self.values.keys().next().copied();
            self.max_bits = self.values.keys().next_back().copied();
        }
    }

    fn fold_sum(&self) -> f64 {
        self.values.iter().fold(0.0, |sum, (&bits, &mult)| {
            sum + query_engine::view::from_ord_bits(bits) * mult as f64
        })
    }

    fn encode_into(&self, w: &mut ByteWriter) {
        w.put_i64(self.count);
        w.put_usize(self.values.len());
        for (&bits, &mult) in &self.values {
            w.put_u64(bits);
            w.put_i64(mult);
        }
        for cached in [self.min_bits, self.max_bits] {
            w.put_bool(cached.is_some());
            cached.into_iter().for_each(|bits| w.put_u64(bits));
        }
    }
}

type ModelZSet = BTreeMap<RowKey, (Row, i64)>;

fn zset_add(z: &mut ModelZSet, row: &Row, weight: i64) {
    if weight == 0 {
        return;
    }
    let entry = z.entry(row_key(&row.0, &row.1)).or_insert_with(|| (row.clone(), 0));
    entry.1 += weight;
    if entry.1 == 0 {
        z.remove(&row_key(&row.0, &row.1));
    }
}

fn zset_encode(z: &ModelZSet, w: &mut ByteWriter) {
    w.put_usize(z.len());
    for ((coords, values), weight) in z.values() {
        w.put_usize(coords.len());
        coords.iter().for_each(|&c| w.put_i64(c));
        w.put_usize(values.len());
        values.iter().for_each(|v| v.encode_into(w));
        w.put_i64(*weight);
    }
}

type ModelIndex = BTreeMap<Vec<KeyScalar>, ModelZSet>;

enum ModelState {
    Select(ModelZSet),
    Aggregate(BTreeMap<Vec<i64>, ModelGroup>, BTreeMap<Vec<i64>, (f64, i64)>),
    Join(ModelIndex, ModelIndex, ModelZSet),
}

struct Model {
    def: ViewDef,
    state: ModelState,
    stats: ViewStats,
}

fn run_ops(ops: &[RowOp], coords: &[i64], values: &[ScalarValue]) -> Option<Row> {
    let mut row = (coords.to_vec(), values.to_vec());
    for op in ops {
        match op {
            RowOp::Filter(p) if !p(&row.0, &row.1) => return None,
            RowOp::Filter(_) => {}
            RowOp::Map(m) => row = m(&row.0, &row.1),
        }
    }
    Some(row)
}

#[allow(clippy::too_many_arguments)]
fn model_join_side(
    delta: &DeltaSet,
    ops: &[RowOp],
    key_fn: &JoinKeyFn,
    mine: &mut ModelIndex,
    other: &ModelIndex,
    emit: &EmitFn,
    swapped: bool,
    out: &mut ModelZSet,
) -> u64 {
    let mut changed = 0;
    for rd in delta.rows() {
        let Some(row) = run_ops(ops, rd.coords, rd.values) else { continue };
        let key = key_fn(&row.0, &row.1);
        for (partner, weight) in other.get(&key).into_iter().flat_map(|z| z.values()) {
            let (l, r) = if swapped { (partner, &row) } else { (&row, partner) };
            zset_add(out, &emit(l, r), rd.weight * weight);
            changed += 1;
        }
        let slot = mine.entry(key.clone()).or_default();
        zset_add(slot, &row, rd.weight);
        if slot.is_empty() {
            mine.remove(&key);
        }
    }
    changed
}

impl Model {
    fn new(def: &ViewDef) -> Self {
        let state = match &def.kind {
            ViewKind::Select { .. } => ModelState::Select(ModelZSet::new()),
            ViewKind::Aggregate { .. } => ModelState::Aggregate(BTreeMap::new(), BTreeMap::new()),
            ViewKind::Join { .. } => {
                ModelState::Join(ModelIndex::new(), ModelIndex::new(), ModelZSet::new())
            }
        };
        Model { def: def.clone(), state, stats: ViewStats::default() }
    }

    fn apply(&mut self, array: ArrayId, delta: &DeltaSet) {
        if !self.def.inputs().contains(&array) {
            return;
        }
        self.stats.applies += 1;
        match (&self.def.kind, &mut self.state) {
            (ViewKind::Select { ops }, ModelState::Select(out)) => {
                for rd in delta.rows() {
                    self.stats.delta_rows += 1;
                    if let Some(row) = run_ops(ops, rd.coords, rd.values) {
                        zset_add(out, &row, rd.weight);
                        self.stats.rows_changed += 1;
                    }
                }
            }
            (
                ViewKind::Aggregate { ops, group_by, value, agg },
                ModelState::Aggregate(groups, out),
            ) => {
                let mut touched = BTreeSet::new();
                for rd in delta.rows() {
                    self.stats.delta_rows += 1;
                    if let Some((c, v)) = run_ops(ops, rd.coords, rd.values) {
                        let gk = group_by(&c, &v);
                        groups.entry(gk.clone()).or_default().update(value(&c, &v), rd.weight);
                        touched.insert(gk);
                    }
                }
                for gk in touched {
                    self.stats.rows_changed += 1;
                    let g = &groups[&gk];
                    if g.count == 0 && g.values.is_empty() {
                        groups.remove(&gk);
                        out.remove(&gk);
                        continue;
                    }
                    let cached = |bits: Option<u64>| {
                        query_engine::view::from_ord_bits(bits.expect("a live group has extrema"))
                    };
                    let value = match agg {
                        AggKind::Count => g.count as f64,
                        AggKind::Sum => g.fold_sum(),
                        AggKind::Avg => g.fold_sum() / g.count as f64,
                        AggKind::Min => cached(g.min_bits),
                        AggKind::Max => cached(g.max_bits),
                    };
                    out.insert(gk, (value, g.count));
                }
            }
            (
                ViewKind::Join { ops, right, right_ops, left_key, right_key, emit },
                ModelState::Join(l, r, out),
            ) => {
                if array == self.def.source {
                    self.stats.rows_changed +=
                        model_join_side(delta, ops, left_key, l, r, emit, false, out);
                    self.stats.delta_rows += delta.len() as u64;
                }
                if array == *right {
                    self.stats.rows_changed +=
                        model_join_side(delta, right_ops, right_key, r, l, emit, true, out);
                    self.stats.delta_rows += delta.len() as u64;
                }
            }
            _ => unreachable!(),
        }
    }

    fn snapshot(&self) -> ViewSnapshot {
        match &self.state {
            ModelState::Select(out) | ModelState::Join(_, _, out) => ViewSnapshot {
                rows: out.iter().map(|((c, v), (_, w))| (c.clone(), v.clone(), *w)).collect(),
                groups: Vec::new(),
            },
            ModelState::Aggregate(_, out) => ViewSnapshot {
                rows: Vec::new(),
                groups: out.iter().map(|(k, (v, n))| (k.clone(), v.to_bits(), *n)).collect(),
            },
        }
    }

    /// The bytes `MaterializedView::export_state` wrote before the runs.
    fn export(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u64(self.stats.delta_rows);
        w.put_u64(self.stats.rows_changed);
        w.put_u64(self.stats.applies);
        let put_key = |w: &mut ByteWriter, key: &[i64]| {
            w.put_usize(key.len());
            key.iter().for_each(|&k| w.put_i64(k));
        };
        match &self.state {
            ModelState::Select(out) => {
                w.put_u8(0);
                zset_encode(out, &mut w);
            }
            ModelState::Aggregate(groups, out) => {
                w.put_u8(1);
                w.put_usize(groups.len());
                for (key, group) in groups {
                    put_key(&mut w, key);
                    group.encode_into(&mut w);
                }
                w.put_usize(out.len());
                for (key, (value, cells)) in out {
                    put_key(&mut w, key);
                    w.put_f64(*value);
                    w.put_u64(u64::try_from(*cells).expect("consistent stream"));
                }
            }
            ModelState::Join(left, right, out) => {
                w.put_u8(2);
                for index in [left, right] {
                    w.put_usize(index.len());
                    for (key, rows) in index {
                        w.put_usize(key.len());
                        key.iter().for_each(|k| k.encode_into(&mut w));
                        zset_encode(rows, &mut w);
                    }
                }
                zset_encode(out, &mut w);
            }
        }
        w.into_bytes()
    }
}

// ------------------------------------------------------- views, streams --

const POOL: [f64; 8] = [f64::NAN, -0.0, 0.0, 1.5, -2.25, 1.0e16, 0.1, 7.0];
const NAMES: [&str; 3] = ["ash", "birch", "cedar"];

/// A row `[x, y] → [double, string, int64]` decoded from raw bits: few
/// distinct coordinates and values, so rows, groups and join keys collide.
fn row_of(raw: u64) -> Row {
    (
        vec![(raw % 4) as i64, (raw >> 2) as i64 % 3],
        vec![
            ScalarValue::Double(POOL[(raw >> 4) as usize % POOL.len()]),
            ScalarValue::Str(NAMES[(raw >> 7) as usize % NAMES.len()].to_string()),
            ScalarValue::Int64((raw >> 9) as i64 % 3),
        ],
    )
}

fn double(v: &ScalarValue) -> f64 {
    v.as_f64().unwrap_or(0.0)
}

/// Every shape: a filter+map select, the five aggregates, a join on a
/// two-part key with a string part (several rows per key on both sides),
/// and a join of an array with itself.
fn defs() -> Vec<ViewDef> {
    let keep: PredFn = Arc::new(|c, _| c[0] + c[1] != 0);
    let project: MapFn = Arc::new(|c, v| (vec![c[1], c[0]], vec![v[1].clone(), v[0].clone()]));
    let group: GroupKeyFn = Arc::new(|c, v| vec![c[0] % 2, v[2].as_f64().map_or(0, |n| n as i64)]);
    let value: ValueFn = Arc::new(|_, v| double(&v[0]));
    let key: JoinKeyFn = Arc::new(|c, v| vec![KeyScalar::Int(c[0]), KeyScalar::of(&v[1])]);
    let by_y: JoinKeyFn = Arc::new(|c, _| vec![KeyScalar::Int(c[1])]);
    let emit: EmitFn = Arc::new(|l, r| {
        (vec![l.0[0], l.0[1], r.0[1]], vec![l.1[0].clone(), r.1[0].clone(), r.1[1].clone()])
    });
    let mut defs =
        vec![ViewDef::select("select", A, vec![RowOp::Filter(keep.clone()), RowOp::Map(project)])];
    for agg in [AggKind::Count, AggKind::Sum, AggKind::Avg, AggKind::Min, AggKind::Max] {
        let name = format!("agg-{agg:?}");
        defs.push(ViewDef::aggregate(name, A, Vec::new(), group.clone(), value.clone(), agg));
    }
    let belt = vec![RowOp::Filter(keep)];
    defs.push(ViewDef::join("join", A, B, belt, Vec::new(), key.clone(), key, emit.clone()));
    defs.push(ViewDef::join("self-join", A, A, Vec::new(), Vec::new(), by_y.clone(), by_y, emit));
    defs
}

/// Turn raw draws into one cycle's consistent deltas for `A` and `B`:
/// inserts (fresh rows and second copies), retractions of live rows, and
/// rows that come and go inside the delta, in drawn order.
fn cycle_deltas(raws: &[u64], live: &mut [Vec<Row>; 2]) -> [DeltaSet; 2] {
    let mut deltas = [DeltaSet::new(), DeltaSet::new()];
    for &raw in raws {
        let side = (raw >> 14) as usize % 2;
        let (live, delta) = (&mut live[side], &mut deltas[side]);
        match (raw >> 12) % 4 {
            2 if !live.is_empty() => {
                let (c, v) = live.swap_remove((raw >> 16) as usize % live.len());
                delta.push(c, v, -1);
            }
            3 => {
                let (c, v) = row_of(raw);
                // Either order: a retraction may precede its insert.
                let first = if raw >> 20 & 1 == 0 { 1 } else { -1 };
                delta.push(c.clone(), v.clone(), first);
                delta.push(c, v, -first);
            }
            _ => {
                let row = match live.first() {
                    Some(dup) if (raw >> 20) % 4 == 0 => dup.clone(),
                    _ => row_of(raw),
                };
                delta.push(row.0.clone(), row.1.clone(), 1);
                live.push(row);
            }
        }
    }
    deltas
}

fn one_row(c: &[i64], v: &[ScalarValue], weight: i64) -> DeltaSet {
    let mut d = DeltaSet::new();
    d.push(c.to_vec(), v.to_vec(), weight);
    d
}

/// The delta's rows in another order (a rotation and a reversal).
fn permuted(delta: &DeltaSet, by: u64) -> DeltaSet {
    let mut rows: Vec<_> = delta.rows().collect();
    if !rows.is_empty() {
        let mid = by as usize % rows.len();
        rows.rotate_left(mid);
        rows[mid..].reverse();
    }
    let mut d = DeltaSet::new();
    rows.iter().for_each(|r| d.push(r.coords.to_vec(), r.values.to_vec(), r.weight));
    d
}

fn export(view: &query_engine::view::MaterializedView) -> Vec<u8> {
    let mut w = ByteWriter::new();
    view.export_state(&mut w);
    w.into_bytes()
}

/// Where the exported state starts: after the three `u64` counters.
const STATE_AT: usize = 24;

/// One scalar of any variant.
fn scalar_of(raw: u64) -> ScalarValue {
    let small = (raw >> 3) % 3;
    match raw % 6 {
        0 => ScalarValue::Int32(small as i32 - 1),
        1 => ScalarValue::Int64(small as i64 - 1),
        2 => ScalarValue::Char(small as u8),
        3 => ScalarValue::Float([f32::NAN, -0.0, 0.0][small as usize]),
        4 => ScalarValue::Double(POOL[(raw >> 3) as usize % POOL.len()]),
        _ => ScalarValue::Str(["", "a", "ab"][small as usize].to_string()),
    }
}

/// An arbitrary row: 0–3 coordinates, 0–3 values of mixed variants.
fn arb_row() -> impl Strategy<Value = Row> {
    (proptest::collection::vec(-1i64..2, 0..4), proptest::collection::vec(any::<u64>(), 0..4))
        .prop_map(|(coords, raws)| (coords, raws.into_iter().map(scalar_of).collect()))
}

// ------------------------------------------------- time-keyed streams --

/// Days a time-keyed stream keeps live: a cycle's expiry retracts the
/// days at or before `day - WINDOW`.
const WINDOW: i64 = 3;

/// A row of `day` decoded from raw bits: `[day, x, y] → [double, string,
/// int64]`, so its coordinates — and the join keys below — order it by
/// day first.
fn timed_row(day: i64, raw: u64) -> Row {
    let (c, v) = row_of(raw);
    (vec![day, c[0], c[1]], v)
}

/// Views keyed by time, the runner's shape: a select whose output run is
/// in day order, a join of `A` and `B` on `[day, x]` (keyed sides in day
/// order, several rows per key) unfiltered and behind a belt filter, and
/// `A` joined with itself on the day alone.
fn timed_defs() -> Vec<ViewDef> {
    let by_cell: JoinKeyFn = Arc::new(|c, _| vec![KeyScalar::Int(c[0]), KeyScalar::Int(c[1])]);
    let by_day: JoinKeyFn = Arc::new(|c, _| vec![KeyScalar::Int(c[0])]);
    let belt: PredFn = Arc::new(|c, _| c[2] != 1);
    let emit: EmitFn = Arc::new(|l, r| {
        (vec![l.0[0], l.0[1], l.0[2], r.0[2]], vec![l.1[0].clone(), r.1[1].clone()])
    });
    let join = |name, right, ops: Vec<RowOp>, key: &JoinKeyFn| {
        ViewDef::join(name, A, right, ops.clone(), ops, key.clone(), key.clone(), emit.clone())
    };
    vec![
        ViewDef::select("timed-select", A, Vec::new()),
        join("timed-join", B, Vec::new(), &by_cell),
        join("belt-join", B, vec![RowOp::Filter(belt)], &by_cell),
        join("timed-self-join", A, Vec::new(), &by_day),
    ]
}

/// One cycle of a time-keyed stream for `A` and `B`, as the runner
/// hands it over: an expiry delta at the old end of the run, then an
/// insert delta for `day` past its new end — or, when `ctl` says so,
/// both in one delta, whose span is the whole run.
///
/// `ctl` picks the expiry: every row of the expiring days, every other
/// one of them (a partial cancel; the rest wait for a later expiry), every
/// live row (the run empties), or none. Each raw draw is one insert: a
/// fresh row of `day`, a second copy of one, a row staged twice with
/// weights that sum to zero, a row of an older live day (inside the
/// run), or the retraction of a live row from anywhere in the run.
fn timed_cycle(day: i64, ctl: u64, raws: &[u64], live: &mut [Vec<Row>; 2]) -> Vec<[DeltaSet; 2]> {
    let mut expiry = [DeltaSet::new(), DeltaSet::new()];
    for (live, delta) in live.iter_mut().zip(&mut expiry) {
        let mut expiring = 0;
        live.retain(|row| {
            let retract = match ctl % 4 {
                0 => row.0[0] <= day - WINDOW,
                1 if row.0[0] <= day - WINDOW => {
                    expiring += 1;
                    expiring % 2 == 1
                }
                2 => true,
                _ => false,
            };
            if retract {
                delta.push(row.0.clone(), row.1.clone(), -1);
            }
            !retract
        });
    }
    let mut insert = [DeltaSet::new(), DeltaSet::new()];
    for &raw in raws {
        let side = (raw >> 14) as usize % 2;
        let (live, delta) = (&mut live[side], &mut insert[side]);
        let row = match (raw >> 12) % 8 {
            4 => live.iter().rev().find(|r| r.0[0] == day).cloned(),
            5 => {
                let (c, v) = timed_row(day, raw);
                let first = if raw >> 20 & 1 == 0 { 1 } else { -1 };
                delta.push(c.clone(), v.clone(), first);
                delta.push(c, v, -first);
                continue;
            }
            6 => {
                let older = day - 1 - (raw >> 20) as i64 % (WINDOW - 1);
                (older >= 0).then(|| timed_row(older, raw))
            }
            7 if !live.is_empty() => {
                let (c, v) = live.swap_remove((raw >> 16) as usize % live.len());
                delta.push(c, v, -1);
                continue;
            }
            _ => None,
        };
        let row = row.unwrap_or_else(|| timed_row(day, raw));
        delta.push(row.0.clone(), row.1.clone(), 1);
        live.push(row);
    }
    if ctl >> 2 & 3 != 0 {
        return vec![expiry, insert];
    }
    let [mut a, mut b] = expiry;
    for (both, delta) in [&mut a, &mut b].into_iter().zip(&insert) {
        delta.rows().for_each(|r| both.push(r.coords.to_vec(), r.values.to_vec(), r.weight));
    }
    vec![[a, b]]
}

/// Feed a time-keyed stream of `(ctl, raws)` cycles to every time-keyed
/// view and to the model, and require the same snapshot and the same
/// exported bytes after every delta.
fn check_timed_stream(cycles: &[(u64, Vec<u64>)]) {
    for def in timed_defs() {
        let mut model = Model::new(&def);
        let mut view = def.instantiate();
        let mut live = [Vec::new(), Vec::new()];
        for (day, (ctl, raws)) in (0..).zip(cycles) {
            for (step, deltas) in timed_cycle(day, *ctl, raws, &mut live).iter().enumerate() {
                for (array, delta) in [A, B].into_iter().zip(deltas) {
                    model.apply(array, delta);
                    view.apply(array, delta);
                    let at = format!("{}: day {day}, step {step}, {array:?}", def.name);
                    assert_eq!(view.snapshot(), model.snapshot(), "{at}: snapshot");
                    assert_eq!(export(&view), model.export(), "{at}: bytes");
                }
            }
        }
    }
}

/// Each shape a time-keyed Z-set merge meets, on its own, against the
/// model after every delta: (0) days only appended past the end of every
/// run; (1) every day inserted, then the days only cancelled at the front
/// of the runs, oldest first, one whole day a delta; (2) interleaved —
/// expiry and insert in one delta, inside-the-run rows and cancels among
/// them ([`timed_cycle`] with the expiry and the insert combined).
fn check_merge_shape(shape: u64, days: &[Vec<u64>]) {
    for def in timed_defs() {
        let mut model = Model::new(&def);
        let mut view = def.instantiate();
        let mut feed = |deltas: &[DeltaSet; 2], at: String| {
            for (array, delta) in [A, B].into_iter().zip(deltas) {
                model.apply(array, delta);
                view.apply(array, delta);
                assert_eq!(view.snapshot(), model.snapshot(), "{}: {at}, {array:?}", def.name);
                assert_eq!(export(&view), model.export(), "{}: {at}, {array:?} bytes", def.name);
            }
        };
        let day_deltas = |day: i64, raws: &[u64], weight: i64| {
            let mut deltas = [DeltaSet::new(), DeltaSet::new()];
            for &raw in raws {
                let (c, v) = timed_row(day, raw);
                deltas[(raw >> 14) as usize % 2].push(c, v, weight);
            }
            deltas
        };
        match shape {
            0 | 1 => {
                for (day, raws) in (0..).zip(days) {
                    feed(&day_deltas(day, raws, 1), format!("append day {day}"));
                }
                if shape == 1 {
                    for (day, raws) in (0..).zip(days) {
                        feed(&day_deltas(day, raws, -1), format!("cancel day {day}"));
                    }
                }
            }
            _ => {
                let mut live = [Vec::new(), Vec::new()];
                for (day, raws) in (0..).zip(days) {
                    for deltas in timed_cycle(day, 0, raws, &mut live) {
                        feed(&deltas, format!("interleaved day {day}"));
                    }
                }
            }
        }
    }
}

/// A time-keyed stream: up to `days` cycles of up to `rows` draws each.
fn timed_stream(days: usize, rows: usize) -> impl Strategy<Value = Vec<(u64, Vec<u64>)>> {
    proptest::collection::vec(
        (any::<u64>(), proptest::collection::vec(any::<u64>(), 0..rows)),
        1..days,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (i) batch apply ≡ one-row applies ≡ the model, (ii) in any row order.
    #[test]
    fn batch_apply_is_the_row_at_a_time_model(
        cycles in proptest::collection::vec(proptest::collection::vec(any::<u64>(), 0..40), 1..6),
        order in any::<u64>(),
    ) {
        for def in defs() {
            let mut model = Model::new(&def);
            let (mut batch, mut rowwise, mut shuffled) =
                (def.instantiate(), def.instantiate(), def.instantiate());
            let mut live = [Vec::new(), Vec::new()];
            for raws in &cycles {
                let deltas = cycle_deltas(raws, &mut live);
                for (array, delta) in [A, B].into_iter().zip(&deltas) {
                    model.apply(array, delta);
                    batch.apply(array, delta);
                    shuffled.apply(array, &permuted(delta, order));
                    for rd in delta.rows() {
                        rowwise.apply(array, &one_row(rd.coords, rd.values, rd.weight));
                    }
                }
                let name = &def.name;
                prop_assert_eq!(batch.snapshot(), model.snapshot(), "{}: snapshot", name);
                prop_assert_eq!(batch.stats(), model.stats, "{}: stats", name);
                prop_assert_eq!(export(&batch), model.export(), "{}: bytes", name);
                prop_assert_eq!(export(&shuffled), export(&batch), "{}: row order shows", name);
                prop_assert_eq!(rowwise.snapshot(), batch.snapshot(), "{}: row-wise", name);
                prop_assert_eq!(rowwise.stats().delta_rows, batch.stats().delta_rows);
                prop_assert_eq!(
                    &export(&rowwise)[STATE_AT..], &export(&batch)[STATE_AT..],
                    "{}: row-wise state bytes", name
                );
            }
        }
    }

    /// (iii) the allocation-free comparator is `RowKey`'s derived order.
    #[test]
    fn comparator_is_the_row_keys_order(a in arb_row(), b in arb_row()) {
        let by_key = row_key(&a.0, &a.1).cmp(&row_key(&b.0, &b.1));
        prop_assert_eq!(cmp_rows((&a.0, &a.1), (&b.0, &b.1)), by_key, "{:?} vs {:?}", a, b);
        prop_assert_eq!(cmp_rows((&b.0, &b.1), (&a.0, &a.1)), by_key.reverse());
    }

    /// (iv) a group's run is the replaced tree, and its ends are what
    /// the extremum cache held: after every delta of a consistent
    /// stream, one-entry updates and one sorted merge agree with the
    /// model byte for byte.
    #[test]
    fn group_runs_hold_the_cached_extrema(
        deltas in proptest::collection::vec(proptest::collection::vec(any::<u64>(), 1..24), 1..8),
    ) {
        let (mut model, mut updated, mut merged) =
            (ModelGroup::default(), GroupState::default(), GroupState::default());
        let mut live: Vec<f64> = Vec::new();
        for raws in &deltas {
            let mut staged = Vec::new();
            for &raw in raws {
                let (value, weight) = match live.len() {
                    n if n > 0 && raw % 3 == 0 => (live.swap_remove((raw >> 8) as usize % n), -1),
                    _ => {
                        let value = POOL[(raw >> 4) as usize % POOL.len()];
                        live.push(value);
                        (value, 1)
                    }
                };
                model.update(value, weight);
                updated.update(value, weight);
                staged.push((ord_bits(value), weight));
            }
            merged.merge(&mut staged);
            let bytes = |encode: &dyn Fn(&mut ByteWriter)| {
                let mut w = ByteWriter::new();
                encode(&mut w);
                w.into_bytes()
            };
            let want = bytes(&|w| model.encode_into(w));
            prop_assert_eq!(bytes(&|w| updated.encode_into(w)), want.clone(), "one-entry updates");
            prop_assert_eq!(bytes(&|w| merged.encode_into(w)), want, "one sorted merge");
            let cached = |bits: Option<u64>| bits.map(|b| query_engine::view::from_ord_bits(b).to_bits());
            prop_assert_eq!(merged.min().map(f64::to_bits), cached(model.min_bits));
            prop_assert_eq!(merged.max().map(f64::to_bits), cached(model.max_bits));
        }
    }

    /// (v) a Z-set merge that rewrites only the span its delta touches
    /// is the model on time-keyed streams: days appended past the end,
    /// the oldest day cancelled at the front (whole, in part, or down to
    /// an empty run), rows inside the run, and staged rows that cancel.
    #[test]
    fn span_merges_are_the_model_on_time_keyed_streams(cycles in timed_stream(14, 30)) {
        check_timed_stream(&cycles);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// (vi) each merge shape alone — pure append, pure front cancel,
    /// interleaved — is the model.
    #[test]
    fn each_merge_shape_is_the_model(
        shape in 0u64..3,
        days in proptest::collection::vec(proptest::collection::vec(any::<u64>(), 0..30), 1..10),
    ) {
        check_merge_shape(shape, &days);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// (v) at release scale:
    /// `cargo test --release --test view_model -- --ignored zset_merge_smoke`.
    #[test]
    #[ignore = "heavy: run in release via the smoke CI matrix"]
    fn zset_merge_smoke(cycles in timed_stream(40, 160)) {
        check_timed_stream(&cycles);
    }
}
