//! A view's upkeep follows its delta, not its state: from one base
//! state — three days through a join, an aggregate and a select view — a
//! newer day's Δ, Δ/4 and Δ/16 are each applied as an append past the
//! end of the runs plus a cancel of as many rows at their front, the two
//! shapes a time-keyed view sees every cycle. The counted work of those
//! applies ([`ViewWork`]) must shrink with Δ, and the recompute estimate
//! — what running the view from scratch would stage — must not.

use array_model::{ArrayId, DeltaSet, ScalarValue};
use query_engine::view::{
    AggKind, EmitFn, GroupKeyFn, JoinKeyFn, KeyScalar, MaterializedView, PredFn, RowOp, ValueFn,
    ViewDef, ViewWork,
};
use std::sync::Arc;

const A: ArrayId = ArrayId(1);
const B: ArrayId = ArrayId(2);

/// Pixels a day: Δ is one day, so Δ/16 is 256 rows.
const DAY: i64 = 4096;

/// How far a counter may sit above exact proportionality: a count at
/// Δ/k is at most `FACTOR × count(Δ) / k + SLACK`.
const FACTOR: f64 = 1.25;
const SLACK: f64 = 4.0;

/// Rows `pixels` of `day` of one band at `weight`: `[day, pixel] →
/// [quality, radiance]`, every radiance distinct.
fn day_rows(day: i64, pixels: std::ops::Range<i64>, band: i64, weight: i64) -> DeltaSet {
    let mut delta = DeltaSet::new();
    for p in pixels {
        let radiance = (day * DAY + p) as f64 * 0.5 + band as f64 * 0.25;
        delta.push(
            vec![day, p],
            vec![ScalarValue::Int32((p % 7) as i32), ScalarValue::Double(radiance)],
            weight,
        );
    }
    delta
}

/// The three shapes: the bands joined on their coordinates behind a
/// filter, band A's daily mean radiance, and band A's rows of quality
/// below 5.
fn defs() -> Vec<ViewDef> {
    let num = |v: &ScalarValue| v.as_f64().unwrap_or(0.0);
    let keep: PredFn = Arc::new(|c, _| c[1] % 3 != 1);
    let key: JoinKeyFn = Arc::new(|c, _| c.iter().map(|&x| KeyScalar::Int(x)).collect());
    let emit: EmitFn =
        Arc::new(move |l, r| (l.0.clone(), vec![ScalarValue::Double(num(&r.1[1]) - num(&l.1[1]))]));
    let by_day: GroupKeyFn = Arc::new(|c, _| vec![c[0]]);
    let radiance: ValueFn = Arc::new(move |_, v| num(&v[1]));
    let good: PredFn = Arc::new(|_, v| matches!(v[0], ScalarValue::Int32(q) if q < 5));
    let filter = |p: &PredFn| vec![RowOp::Filter(p.clone())];
    vec![
        ViewDef::join("join", A, B, filter(&keep), filter(&keep), key.clone(), key, emit),
        ViewDef::aggregate("aggregate", A, Vec::new(), by_day, radiance, AggKind::Avg),
        ViewDef::select("select", A, filter(&good)),
    ]
}

/// The base state: days 0–2 of both bands.
fn base(def: &ViewDef) -> MaterializedView {
    let mut view = def.instantiate();
    for day in 0..3 {
        for (band, array) in [(0, A), (1, B)] {
            view.apply(array, &day_rows(day, 0..DAY, band, 1));
        }
    }
    view
}

/// From the base state, append the first `DAY / k` pixels of day 3 and
/// cancel the first `DAY / k` of day 0, in both bands; returns the work
/// of those four applies, and the recompute estimate after them.
fn step(def: &ViewDef, k: i64) -> (ViewWork, u64) {
    let mut view = base(def);
    let before = view.work();
    let mut recompute = 0;
    for (band, array) in [(0, A), (1, B)] {
        view.apply(array, &day_rows(3, 0..DAY / k, band, 1));
        let stats = view.apply(array, &day_rows(0, 0..DAY / k, band, -1));
        if def.reads(array) {
            recompute = stats.work.recompute_rows;
        }
    }
    let after = view.work();
    let work = ViewWork {
        rows_staged: after.rows_staged - before.rows_staged,
        rows_written: after.rows_written - before.rows_written,
        rows_dropped: after.rows_dropped - before.rows_dropped,
        values_sorted: after.values_sorted - before.values_sorted,
        groups_refolded: after.groups_refolded - before.groups_refolded,
        recompute_rows: 0,
    };
    (work, recompute)
}

#[test]
fn apply_work_follows_the_delta_and_the_recompute_estimate_does_not() {
    for def in defs() {
        let (full, full_recompute) = step(&def, 1);
        assert!(full.rows_staged > 0 && full.rows_dropped > 0, "{}: {full:?}", def.name);
        for k in [4, 16] {
            let (work, recompute) = step(&def, k);
            let at = format!("{} at Δ/{k}: {work:?} against Δ's {full:?}", def.name);
            let bound = |count: u64| FACTOR * count as f64 / k as f64 + SLACK;
            let falls = |name: &str, part: u64, whole: u64| {
                assert!(part as f64 <= bound(whole), "{at}: {name} {part} > {}", bound(whole));
            };
            falls("rows staged", work.rows_staged, full.rows_staged);
            falls("values sorted", work.values_sorted, full.rows_staged.max(full.values_sorted));
            falls("rows dropped", work.rows_dropped, full.rows_dropped);
            if def.name == "aggregate" {
                // A group's merge rewrites its multiset: the two touched
                // days hold a day's values between them at any Δ, and
                // two groups are re-folded per apply.
                assert_eq!(work.rows_written, DAY as u64, "{at}");
                assert_eq!(work.groups_refolded, full.groups_refolded, "{at}");
            } else {
                falls("rows written", work.rows_written, full.rows_written);
            }
            assert!(full_recompute > 0, "{}: no recompute estimate", def.name);
            assert!(recompute >= full_recompute, "{at}: recompute estimate {recompute} fell");
        }
    }
}
