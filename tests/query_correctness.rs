//! Query answers must be placement-invariant: however an elastic
//! partitioner scatters the chunks, every operator returns exactly the
//! same (naively verifiable) result. Costs change with placement; answers
//! never do.

use elastic_array_db::prelude::*;
use query_engine::ops;

/// A small materialized 2-D array with deterministic values, placed by
/// the given partitioner on a 4-node cluster.
fn setup(kind: PartitionerKind) -> (Cluster, Catalog) {
    let schema = ArraySchema::parse("G<v:double, id:int64>[x=0:15,2, y=0:15,2]").unwrap();
    let mut array = Array::new(ArrayId(0), schema);
    for x in 0..16i64 {
        for y in 0..16i64 {
            // Sparse: skip a diagonal band.
            if (x + y) % 5 == 4 {
                continue;
            }
            array
                .insert_cell(
                    vec![x, y],
                    vec![ScalarValue::Double((x * 16 + y) as f64), ScalarValue::Int64(x % 4)],
                )
                .unwrap();
        }
    }
    let mut cluster = Cluster::new(4, u64::MAX, CostModel::default()).unwrap();
    let grid = GridHint::new(vec![8, 8]);
    let mut partitioner = build_partitioner(kind, &cluster, &grid, &PartitionerConfig::default());
    let mut catalog = Catalog::new();
    catalog
        .place_array(&mut cluster, &array, |cluster, _, desc| partitioner.place(desc, cluster))
        .unwrap();
    (cluster, catalog)
}

/// All cells of the test array, naively enumerated.
fn naive_cells() -> Vec<(i64, i64, f64, i64)> {
    let mut out = Vec::new();
    for x in 0..16i64 {
        for y in 0..16i64 {
            if (x + y) % 5 != 4 {
                out.push((x, y, (x * 16 + y) as f64, x % 4));
            }
        }
    }
    out
}

#[test]
fn subarray_answers_are_placement_invariant() {
    let region = Region::new(vec![2, 3], vec![9, 12]);
    let expected: usize = naive_cells()
        .iter()
        .filter(|(x, y, _, _)| (2..=9).contains(x) && (3..=12).contains(y))
        .count();
    for kind in PartitionerKind::ALL {
        let (cluster, catalog) = setup(kind);
        let ctx = ExecutionContext::new(&cluster, &catalog);
        let (cells, stats) = ops::subarray(&ctx, ArrayId(0), &region, &[]).unwrap();
        assert_eq!(cells.len(), expected, "{kind}: wrong subarray answer");
        assert!(stats.elapsed_secs > 0.0);
    }
}

#[test]
fn quantile_and_distinct_are_placement_invariant() {
    let mut values: Vec<f64> = naive_cells().iter().map(|&(_, _, v, _)| v).collect();
    values.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let naive_median = values[(values.len() - 1) / 2];
    for kind in PartitionerKind::ALL {
        let (cluster, catalog) = setup(kind);
        let ctx = ExecutionContext::new(&cluster, &catalog);
        let (q, _) = ops::quantile(&ctx, ArrayId(0), None, "v", 0.5, 1.0).unwrap();
        let got = q.value.unwrap();
        assert!((got - naive_median).abs() <= 1.0, "{kind}: median {got} vs naive {naive_median}");
        let (ids, _) = ops::distinct_sorted(&ctx, ArrayId(0), None, "id").unwrap();
        assert_eq!(ids, vec![0, 1, 2, 3], "{kind}: distinct ids wrong");
    }
}

#[test]
fn aggregates_are_placement_invariant() {
    let naive_total: f64 = naive_cells().iter().map(|&(_, _, v, _)| v).sum();
    let spec = ops::GroupSpec::coarsened(vec![0], vec![4]);
    for kind in PartitionerKind::ALL {
        let (cluster, catalog) = setup(kind);
        let ctx = ExecutionContext::new(&cluster, &catalog);
        let (rows, _) =
            ops::grid_aggregate(&ctx, ArrayId(0), None, "v", &spec, ops::AggFn::Sum).unwrap();
        assert_eq!(rows.len(), 4, "{kind}: 16/4 = 4 groups");
        let total: f64 = rows.iter().map(|r| r.value).sum();
        assert!((total - naive_total).abs() < 1e-9, "{kind}: sum {total} vs naive {naive_total}");
    }
}

#[test]
fn knn_distances_are_placement_invariant() {
    for kind in PartitionerKind::ALL {
        let (cluster, catalog) = setup(kind);
        let ctx = ExecutionContext::new(&cluster, &catalog);
        let (answers, _) = ops::knn(&ctx, ArrayId(0), &[vec![8, 8]], 4).unwrap();
        // (8,8) is stored ((8+8)%5 == 1), so the nearest neighbour is
        // itself at distance 0; the next are the adjacent stored cells.
        let d = &answers[0].neighbor_dist2;
        assert_eq!(d.len(), 4, "{kind}");
        assert_eq!(d[0], 0.0, "{kind}: self distance");
        assert!(d[1] >= 1.0 && d[3] <= 4.0, "{kind}: neighbours {d:?}");
    }
}

#[test]
fn join_answers_are_placement_invariant() {
    // Build a second co-dimensional array present only on even x.
    for kind in [
        PartitionerKind::RoundRobin,
        PartitionerKind::HilbertCurve,
        PartitionerKind::ConsistentHash,
        PartitionerKind::KdTree,
    ] {
        let (mut cluster, mut catalog) = setup(kind);
        let schema = ArraySchema::parse("H<w:double>[x=0:15,2, y=0:15,2]").unwrap();
        let mut other = Array::new(ArrayId(1), schema);
        for x in (0..16i64).step_by(2) {
            for y in 0..16i64 {
                if (x + y) % 5 != 4 {
                    other.insert_cell(vec![x, y], vec![ScalarValue::Double(1.0)]).unwrap();
                }
            }
        }
        let grid = GridHint::new(vec![8, 8]);
        let mut partitioner =
            build_partitioner(kind, &cluster, &grid, &PartitionerConfig::default());
        catalog
            .place_array(&mut cluster, &other, |cluster, _, desc| partitioner.place(desc, cluster))
            .unwrap();

        let expected: u64 = naive_cells().iter().filter(|(x, _, _, _)| x % 2 == 0).count() as u64;
        let ctx = ExecutionContext::new(&cluster, &catalog);
        let region = Region::new(vec![0, 0], vec![15, 15]);
        let (result, _) =
            ops::positional_join(&ctx, ArrayId(0), ArrayId(1), &region, "v", "w", |a, b| a * b)
                .unwrap();
        assert_eq!(result.matches, expected, "{kind}: join cardinality");
    }
}

#[test]
fn window_mean_is_placement_invariant() {
    let region = Region::new(vec![4, 4], vec![6, 6]);
    let mut reference: Option<f64> = None;
    for kind in PartitionerKind::ALL {
        let (cluster, catalog) = setup(kind);
        let ctx = ExecutionContext::new(&cluster, &catalog);
        let (result, _) = ops::window_aggregate(&ctx, ArrayId(0), &region, "v", 1).unwrap();
        let mean = result.mean.unwrap();
        match reference {
            None => reference = Some(mean),
            Some(r) => assert!((mean - r).abs() < 1e-12, "{kind}: {mean} vs {r}"),
        }
    }
}
