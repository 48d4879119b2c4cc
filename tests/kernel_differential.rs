//! The sort-and-sweep kernel differential suite.
//!
//! Contract under test: the materialized answers of the heavy operators
//! — `window_aggregate`, `distinct_sorted`, `knn`, `quantile`,
//! `trajectory`, `grid_aggregate` / `rolling_aggregate`,
//! `positional_join` — are computed by sort-then-sweep kernels and flat
//! tables over cell keys, and every one of them must equal, **bit for
//! bit**, the row-at-a-time definition it replaced: a point map probed by
//! an odometer, an ordered set, a full sort, an ordered map of landing
//! cells, an ordered map of group states, an ordered map of the right
//! side's cells. The oracles below are those definitions, written over
//! the plain list of live rows in scan order (row-major chunk order,
//! insertion order inside a chunk — the order the f64 sums are pinned to).
//!
//! A cell key has two encodings (`crates/query/src/ops/keys.rs`): the
//! cell's row-major ordinal in the data's box, or — when that box holds
//! more than 2^64 cells — its padded coordinates. A third of the cases
//! *stretch* one dimension (`STRETCHED`: unbounded from `i64::MIN`, live
//! cells within a few steps of either end of `i64`, so more than 2^62
//! apart), alone and beside ordinary dimensions, so window, groups, join
//! and trajectory meet their oracles on the padded encoding too; the
//! oracles never encode anything.
//!
//! The property leg builds small random sparse arrays (1 to 3 dimensions,
//! repeated cells, rows retracted before the query so chunks carry
//! tombstones or are emptied outright, regions that reach past the array
//! bounds), places them with several partitioners, and keeps its own book
//! of which rows are live. `subarray` is a kernel too — its rows land in
//! one flat `CellRows` through word-at-a-time selection masks — and what
//! pins it is that book: every case requires `subarray`'s rows, in scan
//! order, to equal the book's (built from the inserted rows and the
//! retraction script alone, never from a scan). The crate's own tests
//! hold the flat result against the owned pair per row it replaced and
//! the masks against the per-row loop. That agreement is what lets the
//! release-scale leg (`kernel_smoke`) take its rows from `subarray`.
//! `grid_aggregate` keys a chunk whose zone box sits inside one group
//! once, not per row: the 3-cell chunks here sit inside the groups of the
//! 3-cell coarsening, straddle those of the 2-cell one and do either
//! under the 5-cell one (a sparse chunk's tight box can fit where its
//! extent would not), so both paths meet the ordered-map oracle.
//!
//! These oracles read the rows in scan order, which is what the f64 sums
//! are pinned to, not `testkit::Oracle`'s coordinate-ordered cells. The
//! window's definition is `testkit::window_oracle`, which the
//! materialized suite holds its window to as well; the smoke leg's runs
//! start from `testkit::config`.

use elastic_array_db::array::chunk_of;
use elastic_array_db::prelude::*;
use proptest::collection::vec;
use proptest::prelude::*;
use query_engine::ops::{self, AggFn, GroupSpec};
use std::collections::{BTreeMap, BTreeSet};
use testkit::{num, window_oracle, Row};
use workloads::ais::BROADCAST;
use workloads::modis::{BAND1, BAND2};

const ARRAY: ArrayId = ArrayId(0);
/// Attribute positions in [`schema`].
const V: usize = 0;
const Q: usize = 1;
const INT_COLUMNS: [(&str, usize); 3] = [("i", 2), ("l", 3), ("c", 4)];
const SPEED: usize = 5;
const COURSE: usize = 6;

/// The other side of `positional_join`.
const RIGHT: ArrayId = ArrayId(1);

/// A stretched dimension: sixteen chunks of 2^60 cells cover all of `i64`
/// (an interval the group cost model can still coarsen by 5).
const STRETCHED: &str = "-9223372036854775808:*,1152921504606846976";

/// The coordinate a drawn `0..8` stands for on a stretched dimension:
/// four cells at the low end of `i64` and four at the high end, in the
/// same order, each three cells (the largest radius) inside the type so
/// that a window around any of them exists.
fn stretched(v: i64) -> i64 {
    if v < 4 {
        i64::MIN + 3 + v
    } else {
        i64::MAX - 3 - (7 - v)
    }
}

/// `nd` dimensions of 8 cells in chunks of `interval` (3: a 3-chunk-wide
/// grid, so kNN's three rings reach every chunk from any home; on a
/// stretched dimension they reach one end's cells or neither's).
fn schema(nd: usize, stretch: Option<usize>, interval: i64) -> ArraySchema {
    let dim = |d| match stretch {
        Some(s) if s == d => format!("d{d}={STRETCHED}"),
        _ => format!("d{d}=0:7,{interval}"),
    };
    let dims: Vec<String> = (0..nd).map(dim).collect();
    ArraySchema::parse(&format!(
        "K<v:double, q:double, i:int32, l:int64, c:char, speed:double, course:double>[{}]",
        dims.join(", ")
    ))
    .unwrap()
}

/// One row's attribute values, all derived from `bits`: `v` finite with
/// fractional parts (any reordering of a float sum shows in its low
/// bits); `q` seeded with NaNs of both signs, both infinities and both
/// zeros; the integer columns negative and duplicate-heavy; speeds and
/// courses that make ships collide, with the odd hostile speed.
fn values(bits: u64) -> Vec<ScalarValue> {
    let pick = |shift: u32, n: u64| (bits >> shift) % n;
    let q = match pick(11, 12) {
        0 => f64::NAN,
        1 => -f64::NAN,
        2 => f64::INFINITY,
        3 => f64::NEG_INFINITY,
        4 => -0.0,
        5 => 0.0,
        _ => pick(16, 1000) as f64 / 3.0 - 100.0,
    };
    let speed = if pick(40, 48) == 0 { 1e300 } else { pick(32, 4) as f64 };
    vec![
        ScalarValue::Double((pick(0, 2001) as f64 - 1000.0) / 7.0),
        ScalarValue::Double(q),
        ScalarValue::Int32(pick(20, 7) as i32 - 3),
        ScalarValue::Int64(pick(24, 5) as i64 * 1_000_000_007 - 2_000_000_014),
        ScalarValue::Char(b'a' + pick(28, 4) as u8),
        ScalarValue::Double(speed),
        ScalarValue::Double([0.0, 90.0, 180.0, 270.0, 45.0, 135.0][pick(34, 6) as usize]),
    ]
}

#[derive(Debug, Clone)]
struct Case {
    nd: usize,
    /// The dimension whose coordinates sit at the ends of `i64`, if any.
    stretch: Option<usize>,
    /// Inserted rows, in insertion order.
    rows: Vec<Row>,
    /// Rows (by index, modulo) whose coordinates are retracted once each.
    retract: Vec<usize>,
    /// Also retract every row of the chunk holding row 0.
    empty_a_chunk: bool,
    /// The join's right side: its rows, and its chunk interval — 3 pairs
    /// every cell with its own chunk position, 4 only some of them.
    right_rows: Vec<Row>,
    right_interval: i64,
    region: Region,
    radius: i64,
    kind: PartitionerKind,
    k: usize,
}

fn case() -> impl Strategy<Value = Case> {
    let kinds = [
        PartitionerKind::RoundRobin,
        PartitionerKind::HilbertCurve,
        PartitionerKind::KdTree,
        PartitionerKind::ConsistentHash,
    ];
    (1usize..4, 0usize..9, 0usize..3).prop_flat_map(move |(nd, stretch, span)| {
        // One case in three stretches a dimension (any of them), and two
        // of those in three ask for a region that reaches both its ends.
        let stretch = (stretch < 3).then_some(stretch % nd);
        let both_ends = span > 0;
        let at = move |d: usize, v: i64| if stretch == Some(d) { stretched(v) } else { v };
        let row = move || {
            (vec(0i64..8, nd), any::<u64>()).prop_map(move |(cell, bits)| {
                (cell.iter().enumerate().map(|(d, &v)| at(d, v)).collect(), values(bits))
            })
        };
        let corner = (vec(-3i64..9, nd), vec(0i64..14, nd));
        let shape = (vec(0usize..1000, 0..40), any::<bool>(), 0i64..4, 0usize..4, 1usize..40);
        let right = (vec(row(), 0..90), 3i64..5);
        (vec(row(), 1..120), right, corner, shape).prop_map(
            move |(rows, right, (low, len), (retract, empty_a_chunk, radius, kind, k))| {
                // On a stretched dimension the corners map like the cells.
                let corner = |d: usize, v: i64, end: i64| match stretch {
                    Some(s) if s == d && both_ends => stretched(end + v.rem_euclid(4)),
                    Some(s) if s == d => stretched(v.clamp(0, 7)),
                    _ => v,
                };
                let high = (0..nd).map(|d| corner(d, low[d] + len[d], 4)).collect();
                let low = (0..nd).map(|d| corner(d, low[d], 0)).collect();
                let region = Region::new(low, high);
                let (right_rows, right_interval) = right;
                let kind = kinds[kind];
                Case {
                    nd,
                    stretch,
                    rows,
                    retract,
                    empty_a_chunk,
                    right_rows,
                    right_interval,
                    region,
                    radius,
                    kind,
                    k,
                }
            },
        )
    })
}

/// The case materialized: two placed, catalogued arrays plus this suite's
/// own book of their live rows in scan order.
struct World {
    schema: ArraySchema,
    right_schema: ArraySchema,
    cluster: Cluster,
    catalog: Catalog,
    live: Vec<Row>,
    right_live: Vec<Row>,
}

/// `rows` inserted in order, then `retract` (row indices, modulo)
/// retracted once each — and, with `empty_a_chunk`, every row of the
/// chunk holding row 0. Returns the array and the book of its live rows.
fn materialize(
    id: ArrayId,
    schema: &ArraySchema,
    rows: &[Row],
    retract: &[usize],
    empty_a_chunk: bool,
) -> (Array, Vec<Row>) {
    let mut array = Array::new(id, schema.clone());
    for (cell, values) in rows {
        array.insert_cell(cell.clone(), values.clone()).unwrap();
    }
    let chunk = |cell: &[i64]| chunk_of(schema, cell).unwrap();
    let mut retractions: Vec<&[i64]> = match rows.len() {
        0 => Vec::new(),
        n => retract.iter().map(|&i| rows[i % n].0.as_slice()).collect(),
    };
    if empty_a_chunk && !rows.is_empty() {
        let doomed = chunk(&rows[0].0);
        retractions.extend(rows.iter().map(|(c, _)| c.as_slice()).filter(|c| chunk(c) == doomed));
    }
    // The book: a retraction tombstones the newest live row at its cell.
    let mut alive = vec![true; rows.len()];
    for cell in &retractions {
        let newest = (0..rows.len()).rev().find(|&i| alive[i] && rows[i].0 == *cell);
        if let Some(i) = newest {
            alive[i] = false;
        }
    }
    array.delete_cells(&retractions.concat()).unwrap();

    let mut live: Vec<Row> =
        rows.iter().zip(&alive).filter(|(_, &a)| a).map(|(r, _)| r.clone()).collect();
    live.sort_by_key(|(cell, _)| chunk(cell)); // stable: insertion order inside a chunk
    (array, live)
}

fn build(case: &Case) -> World {
    let schema = schema(case.nd, case.stretch, 3);
    let right_schema = self::schema(case.nd, case.stretch, case.right_interval);
    let (left, live) = materialize(ARRAY, &schema, &case.rows, &case.retract, case.empty_a_chunk);
    // The right side keeps its emptied chunks' neighbours: half the script.
    let (right, right_live) = materialize(
        RIGHT,
        &right_schema,
        &case.right_rows,
        &case.retract[..case.retract.len() / 2],
        false,
    );

    let mut cluster = Cluster::new(3, u64::MAX, CostModel::default()).unwrap();
    let widths = (0..case.nd).map(|d| if case.stretch == Some(d) { 16 } else { 3 }).collect();
    let grid = GridHint::new(widths);
    let mut partitioner =
        build_partitioner(case.kind, &cluster, &grid, &PartitionerConfig::default());
    let mut catalog = Catalog::new();
    for array in [left, right] {
        catalog
            .place_array(&mut cluster, &array, |cluster, _, desc| partitioner.place(desc, cluster))
            .unwrap();
    }
    World { schema, right_schema, cluster, catalog, live, right_live }
}

// ------------------------------------------------------------- oracles --

/// The candidate distances kNN's ring exploration reaches from `q` — it
/// stops after the first ring (past the home chunk) by which `3k` cells
/// were seen, at most three rings out — fully sorted, then truncated. A
/// gap is a `u64`: two cells can be further apart than `i64::MAX`.
fn knn_oracle(schema: &ArraySchema, rows: &[Row], q: &[i64], k: usize) -> Vec<u64> {
    let home = chunk_of(schema, q).unwrap();
    let rings: Vec<i64> =
        rows.iter().map(|(c, _)| home.chebyshev(&chunk_of(schema, c).unwrap())).collect();
    let mut found = 0u64;
    let mut reach = 3;
    for r in 0..=3 {
        found += rings.iter().filter(|&&ring| ring == r).count() as u64;
        if found >= (k as u64).saturating_mul(3) && r >= 1 {
            reach = r;
            break;
        }
    }
    let mut dists: Vec<f64> = rows
        .iter()
        .zip(&rings)
        .filter(|(_, &ring)| ring <= reach)
        .map(|((c, _), _)| {
            c.iter().zip(q).map(|(a, b)| a.abs_diff(*b) as f64 * a.abs_diff(*b) as f64).sum()
        })
        .collect();
    dists.sort_by(f64::total_cmp);
    dists.truncate(k);
    dists.into_iter().map(f64::to_bits).collect()
}

/// Every `stride`-th selected row, fully sorted, indexed at the rank.
fn quantile_oracle(rows: &[&Row], attr: usize, q: f64, sample_fraction: f64) -> (Option<u64>, u64) {
    let stride = (1.0 / sample_fraction).round() as usize;
    let mut sample: Vec<f64> = rows.iter().step_by(stride).map(|(_, v)| num(&v[attr])).collect();
    sample.sort_by(f64::total_cmp);
    let value = (!sample.is_empty())
        .then(|| sample[((sample.len() - 1) as f64 * q).round() as usize].to_bits());
    (value, sample.len() as u64)
}

/// Pairs of ships per landing cell, from an ordered map of landings.
fn trajectory_oracle(rows: &[&Row], speed: usize, course: usize, horizon: f64) -> (u64, u64) {
    let mut landing: BTreeMap<Vec<i64>, u64> = BTreeMap::new();
    for (cell, values) in rows {
        let (dx, dy) = (cell.len() - 2, cell.len() - 1);
        let (speed, course) = (num(&values[speed]), num(&values[course]).to_radians());
        let mut dest = cell.clone();
        dest[dx] = dest[dx].saturating_add((speed * horizon * course.cos()).round() as i64);
        dest[dy] = dest[dy].saturating_add((speed * horizon * course.sin()).round() as i64);
        *landing.entry(dest).or_default() += 1;
    }
    (rows.len() as u64, landing.values().map(|&c| c * (c - 1) / 2).sum())
}

/// `(key, value bits, cells)` per group, from an ordered map of group
/// states folded in scan order.
fn group_oracle(
    rows: &[&Row],
    attr: usize,
    spec: &GroupSpec,
    agg: AggFn,
) -> Vec<(Vec<i64>, u64, u64)> {
    let mut groups: BTreeMap<Vec<i64>, (f64, u64, f64)> = BTreeMap::new();
    for (cell, values) in rows {
        let key = spec.dims.iter().zip(&spec.coarsen).map(|(&d, &c)| cell[d].div_euclid(c));
        let state = groups.entry(key.collect()).or_insert((0.0, 0, f64::NEG_INFINITY));
        let v = num(&values[attr]);
        state.0 += v;
        state.1 += 1;
        state.2 = state.2.max(v);
    }
    groups
        .into_iter()
        .map(|(key, (sum, count, max))| {
            let value = match agg {
                AggFn::Count => count as f64,
                AggFn::Sum => sum,
                AggFn::Avg => sum / count as f64,
                AggFn::Max => max,
            };
            (key, value.to_bits(), count)
        })
        .collect()
}

/// `(matches, combined-sum bits)` from an ordered map of the right side's
/// cells, filled in scan order (a repeated cell keeps its last row),
/// probed by the left rows in scan order. Chunks pair by position: a
/// probe counts only when the cell files under the same chunk coordinates
/// on both sides.
fn join_oracle(
    (left, left_schema, left_attr): (&[&Row], &ArraySchema, usize),
    (right, right_schema, right_attr): (&[&Row], &ArraySchema, usize),
    combine: impl Fn(f64, f64) -> f64,
) -> (u64, u64) {
    let cells: BTreeMap<&[i64], f64> =
        right.iter().map(|(c, v)| (c.as_slice(), num(&v[right_attr]))).collect();
    let (mut matches, mut sum) = (0u64, 0.0);
    for (cell, values) in left {
        let paired = chunk_of(left_schema, cell).unwrap() == chunk_of(right_schema, cell).unwrap();
        if let Some(&r) = cells.get(cell.as_slice()).filter(|_| paired) {
            matches += 1;
            sum += combine(num(&values[left_attr]), r);
        }
    }
    (matches, sum_bits(sum))
}

/// A sum's bits, with every NaN as one: `q` holds infinities and NaNs, so
/// a sum can be `inf - inf` or carry a NaN along, and IEEE 754 pins
/// neither the sign nor the payload of the NaN an addition or a division
/// returns (the compiler may commute the operands; debug and release
/// builds differ).
fn sum_bits(sum: f64) -> u64 {
    if sum.is_nan() {
        f64::NAN.to_bits()
    } else {
        sum.to_bits()
    }
}

/// The vegetation-index combiner of the MODIS join (and the benchmark's).
fn ndvi(b1: f64, b2: f64) -> f64 {
    (b2 - b1) / (b2 + b1 + 1e-9)
}

/// Rows in `assert_eq!`-comparable form (a NaN cell must equal itself).
fn row_bits(rows: &[Row]) -> Vec<(&[i64], Vec<u64>)> {
    let bits = |v: &ScalarValue| match v {
        ScalarValue::Double(d) => d.to_bits(),
        other => other.as_i64().expect("the schema's other columns are integers") as u64,
    };
    rows.iter().map(|(cell, values)| (cell.as_slice(), values.iter().map(bits).collect())).collect()
}

/// Every live row of `array` inside `region`, in scan order, through the
/// one scan the property leg pins to its own book.
fn scan(ctx: &ExecutionContext<'_>, array: ArrayId, region: &Region) -> Vec<Row> {
    ops::subarray(ctx, array, region, &[]).unwrap().0.cells.to_rows()
}

fn group_bits(rows: Vec<ops::GroupRow>) -> Vec<(Vec<i64>, u64, u64)> {
    rows.into_iter().map(|r| (r.key, r.value.to_bits(), r.cells)).collect()
}

// ------------------------------------------------------------ property --

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn kernels_equal_their_oracles_bit_for_bit(case in case()) {
        let world = build(&case);
        let ctx = ExecutionContext::new(&world.cluster, &world.catalog);
        let (region, nd) = (&case.region, case.nd);
        let selected: Vec<&Row> =
            world.live.iter().filter(|(c, _)| region.contains_cell(c)).collect();

        // The book and the engine's scan agree on which rows are live, and
        // in which order — the premise of every oracle below.
        let everything = Region::new(vec![i64::MIN; nd], vec![i64::MAX; nd]);
        prop_assert_eq!(row_bits(&scan(&ctx, ARRAY, &everything)), row_bits(&world.live));
        prop_assert_eq!(row_bits(&scan(&ctx, RIGHT, &everything)), row_bits(&world.right_live));

        let (win, _) = ops::window_aggregate(&ctx, ARRAY, region, "v", case.radius).unwrap();
        prop_assert_eq!(
            (win.outputs, win.mean.map(f64::to_bits)),
            window_oracle(&world.live, V, region, case.radius)
        );

        for (name, attr) in INT_COLUMNS {
            let (distinct, _) = ops::distinct_sorted(&ctx, ARRAY, Some(region), name).unwrap();
            let oracle: BTreeSet<i64> =
                selected.iter().map(|(_, v)| v[attr].as_i64().unwrap()).collect();
            prop_assert_eq!(distinct, oracle.into_iter().collect::<Vec<_>>(), "{}", name);
        }

        // A stored cell (ties with itself at 0), the far corner (mid-range
        // on a stretched dimension: 2^63 from every cell), and k both below
        // and far above the candidate count.
        let points = [case.rows[0].0.clone(), vec![7; nd]];
        for k in [case.k, 10_000] {
            let (answers, _) = ops::knn(&ctx, ARRAY, &points, k).unwrap();
            for (answer, q) in answers.iter().zip(&points) {
                let got: Vec<u64> = answer.neighbor_dist2.iter().map(|d| d.to_bits()).collect();
                prop_assert_eq!(got, knn_oracle(&world.schema, &world.live, q, k), "k {}", k);
            }
        }

        for (q, fraction) in [(0.0, 1.0), (0.5, 1.0), (1.0, 1.0), (0.93, 0.5), (0.31, 0.1)] {
            let (got, _) = ops::quantile(&ctx, ARRAY, Some(region), "q", q, fraction).unwrap();
            prop_assert_eq!(
                (got.value.map(f64::to_bits), got.sampled_cells),
                quantile_oracle(&selected, Q, q, fraction),
                "q {} of a {} sample", q, fraction
            );
        }

        let projected = ops::trajectory(&ctx, ARRAY, region, "speed", "course", 1.0);
        if nd < 2 {
            prop_assert!(projected.is_err(), "a trajectory needs a plane");
        } else {
            let (got, _) = projected.unwrap();
            prop_assert_eq!(
                (got.projected, got.collision_candidates),
                trajectory_oracle(&selected, SPEED, COURSE, 1.0)
            );
        }

        let spec = GroupSpec::coarsened((0..nd).rev().collect(), vec![3, 2, 5][..nd].to_vec());
        for agg in [AggFn::Count, AggFn::Sum, AggFn::Avg, AggFn::Max] {
            let want = group_oracle(&selected, V, &spec, agg);
            let (got, _) = ops::grid_aggregate(&ctx, ARRAY, Some(region), "v", &spec, agg).unwrap();
            prop_assert_eq!(group_bits(got), want.clone(), "{:?}", agg);
            let (got, _) =
                ops::rolling_aggregate(&ctx, ARRAY, Some(region), "v", &spec, agg, 0).unwrap();
            prop_assert_eq!(group_bits(got), want, "rolling {:?}", agg);
        }

        let right: Vec<&Row> =
            world.right_live.iter().filter(|(c, _)| region.contains_cell(c)).collect();
        for (left_attr, right_attr, name) in [(V, Q, "q"), (V, V, "v")] {
            let (got, _) =
                ops::positional_join(&ctx, ARRAY, RIGHT, region, "v", name, ndvi).unwrap();
            prop_assert_eq!(
                (got.matches, sum_bits(got.combined_sum)),
                join_oracle(
                    (&selected, &world.schema, left_attr),
                    (&right, &world.right_schema, right_attr),
                    ndvi
                ),
                "v join {} over chunks of {}", name, case.right_interval
            );
        }
    }
}

// --------------------------------------------------------------- smoke --

/// Release-scale leg: one full-size AIS cycle (200k broadcasts) and one
/// full-size MODIS day (100k pixels) under all 8 partitioners, the
/// benchmark's own queries (r = 2 window, k = 10 neighbours, the NDVI
/// join) held against the oracles. Run with
/// `cargo test --release --test kernel_differential -- --ignored kernel_smoke`.
#[test]
#[ignore = "heavy: run in release via the smoke CI matrix"]
fn kernel_smoke() {
    let attr = |schema: &ArraySchema, name: &str| schema.attribute_index(name).unwrap();
    for kind in PartitionerKind::ALL {
        let w = AisWorkload { cycles: 1, cells_per_cycle: 200_000, ..AisWorkload::default() };
        let mut runner = WorkloadRunner::new(&w, testkit::config(kind, 90 * 200_000));
        runner.run_cycle(0).unwrap_or_else(|e| panic!("{kind}: AIS cycle: {e}"));
        let ctx = ExecutionContext::new(runner.cluster(), runner.catalog());
        let schema = AisWorkload::broadcast_schema();
        let region = AisWorkload::cycle_region(0);
        let rows = scan(&ctx, BROADCAST, &region);
        let selected: Vec<&Row> = rows.iter().collect();
        assert!(rows.len() > 100_000, "{kind}: AIS cycle holds {} rows", rows.len());

        let (distinct, _) =
            ops::distinct_sorted(&ctx, BROADCAST, Some(&region), "ship_id").unwrap();
        let ship_id = attr(&schema, "ship_id");
        let oracle: BTreeSet<i64> =
            rows.iter().map(|(_, v)| v[ship_id].as_i64().unwrap()).collect();
        assert_eq!(distinct, oracle.into_iter().collect::<Vec<_>>(), "{kind}: distinct");

        let points = w.knn_queries(0, 16);
        let (answers, _) = ops::knn(&ctx, BROADCAST, &points, 10).unwrap();
        for (answer, q) in answers.iter().zip(&points) {
            let got: Vec<u64> = answer.neighbor_dist2.iter().map(|d| d.to_bits()).collect();
            assert_eq!(got, knn_oracle(&schema, &rows, q, 10), "{kind}: knn at {q:?}");
        }

        let (speed, course) = (attr(&schema, "speed"), attr(&schema, "course"));
        let (got, _) = ops::trajectory(&ctx, BROADCAST, &region, "speed", "course", 0.25).unwrap();
        let want = trajectory_oracle(&selected, speed, course, 0.25);
        assert_eq!((got.projected, got.collision_candidates), want, "{kind}: trajectory");
        assert!(want.1 > 0, "{kind}: vacuous — no two ships collide");

        let spec = GroupSpec::coarsened(vec![1, 2], vec![8, 8]);
        for agg in [AggFn::Count, AggFn::Avg] {
            let (got, _) =
                ops::grid_aggregate(&ctx, BROADCAST, Some(&region), "speed", &spec, agg).unwrap();
            let want = group_oracle(&selected, speed, &spec, agg);
            assert_eq!(group_bits(got), want, "{kind}: grid_aggregate {agg:?}");
        }

        let w = ModisWorkload { days: 1, cells_per_cycle: 100_000, ..ModisWorkload::default() };
        let mut runner = WorkloadRunner::new(&w, testkit::config(kind, 60 * 100_000 * 3));
        runner.run_cycle(0).unwrap_or_else(|e| panic!("{kind}: MODIS day: {e}"));
        let ctx = ExecutionContext::new(runner.cluster(), runner.catalog());
        let schema = ModisWorkload::band_schema("Band1");
        let day = ModisWorkload::day_region(0, 0);
        let rows = scan(&ctx, BAND1, &day);
        let selected: Vec<&Row> = rows.iter().collect();
        assert!(rows.len() > 50_000, "{kind}: MODIS day holds {} rows", rows.len());

        // The whole day is stored, so the day's rows are the halo too.
        let (win, _) = ops::window_aggregate(&ctx, BAND1, &day, "reflectance", 2).unwrap();
        let want = window_oracle(&rows, attr(&schema, "reflectance"), &day, 2);
        assert_eq!((win.outputs, win.mean.map(f64::to_bits)), want, "{kind}: window");

        let radiance = attr(&schema, "radiance");
        for (q, fraction) in [(0.5, 0.01), (0.99, 1.0)] {
            let (got, _) = ops::quantile(&ctx, BAND1, Some(&day), "radiance", q, fraction).unwrap();
            let want = quantile_oracle(&selected, radiance, q, fraction);
            assert_eq!((got.value.map(f64::to_bits), got.sampled_cells), want, "{kind}: q{q}");
        }

        let spec = GroupSpec::by_dims(vec![1, 2]);
        let (got, _) =
            ops::rolling_aggregate(&ctx, BAND1, Some(&day), "si_value", &spec, AggFn::Avg, 0)
                .unwrap();
        let want = group_oracle(&selected, attr(&schema, "si_value"), &spec, AggFn::Avg);
        assert_eq!(group_bits(got), want, "{kind}: rolling_aggregate");

        let band2 = ModisWorkload::band_schema("Band2");
        let right_rows = scan(&ctx, BAND2, &day);
        let right: Vec<&Row> = right_rows.iter().collect();
        let (got, _) =
            ops::positional_join(&ctx, BAND1, BAND2, &day, "radiance", "radiance", ndvi).unwrap();
        let want = join_oracle(
            (&selected, &schema, radiance),
            (&right, &band2, attr(&band2, "radiance")),
            ndvi,
        );
        assert_eq!((got.matches, sum_bits(got.combined_sum)), want, "{kind}: positional_join");
        assert!(want.0 > 10_000, "{kind}: vacuous — the bands share {} cells", want.0);
    }
}
