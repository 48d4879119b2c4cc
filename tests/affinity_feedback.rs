//! End-to-end test of the future-work affinity loop (§8): observe which
//! chunk pairs a spatial query keeps co-accessing across node boundaries,
//! co-locate them, and verify the same query gets measurably cheaper.

use elastic_array_db::elastic::AffinityAnalyzer;
use elastic_array_db::prelude::*;
use query_engine::ops;

/// A materialized 12x12 grid (2-cell chunks) scattered round-robin over
/// four nodes — the placement that maximizes cross-node halo traffic.
fn scattered_setup() -> (Cluster, Catalog) {
    let schema = ArraySchema::parse("F<v:double>[x=0:11,2, y=0:11,2]").unwrap();
    let mut array = Array::new(ArrayId(0), schema);
    for x in 0..12i64 {
        for y in 0..12i64 {
            array.insert_cell(vec![x, y], vec![ScalarValue::Double((x + y) as f64)]).unwrap();
        }
    }
    let mut cluster = Cluster::new(4, u64::MAX, CostModel::default()).unwrap();
    let mut catalog = Catalog::new();
    catalog.place_array(&mut cluster, &array, |_, i, _| NodeId((i % 4) as u32)).unwrap();
    (cluster, catalog)
}

/// Feed the analyzer exactly the pairs the windowed aggregate exchanges:
/// face-adjacent chunks on different nodes, read off the placement index.
fn observe_halo_traffic(cluster: &Cluster, analyzer: &mut AffinityAnalyzer) {
    for record in cluster.residents() {
        let key = record.descriptor().key;
        let node = cluster.locate(&key).unwrap();
        for dim in 0..2 {
            for delta in [-1i64, 1] {
                let mut ncoords = key.coords;
                ncoords[dim] += delta;
                let nkey = ChunkKey::new(key.array, ncoords);
                if let Some(ndesc) = cluster.descriptor(&nkey) {
                    if cluster.locate(&nkey).unwrap() != node {
                        analyzer.observe(&key, &nkey, ndesc.bytes / 6);
                    }
                }
            }
        }
    }
}

#[test]
fn affinity_moves_reduce_window_cost() {
    let (mut cluster, catalog) = scattered_setup();
    let region = Region::new(vec![0, 0], vec![11, 11]);

    let (before_result, before) = ops::window_aggregate(
        &ExecutionContext::new(&cluster, &catalog),
        ArrayId(0),
        &region,
        "v",
        1,
    )
    .unwrap();
    assert!(before.remote_fetches > 0, "scattered placement must pay halo fetches");

    // Observe, propose, apply.
    let mut analyzer = AffinityAnalyzer::new();
    observe_halo_traffic(&cluster, &mut analyzer);
    assert!(analyzer.pair_count() > 0);
    let plan = analyzer.propose_moves(&cluster, 1.6, 12);
    assert!(!plan.is_empty(), "hot cross-node pairs must yield advice");
    let savings = analyzer.estimated_savings(&cluster, &plan, &cluster.cost_model().clone());
    cluster.apply_rebalance(&plan).unwrap();

    let (after_result, after) = ops::window_aggregate(
        &ExecutionContext::new(&cluster, &catalog),
        ArrayId(0),
        &region,
        "v",
        1,
    )
    .unwrap();

    // The answer is unchanged; the cost is lower.
    assert_eq!(before_result.mean, after_result.mean, "co-location must not change answers");
    assert!(
        after.remote_fetches < before.remote_fetches,
        "halo fetches should drop: {} -> {}",
        before.remote_fetches,
        after.remote_fetches
    );
    assert!(savings > 0.0, "the analyzer should predict positive savings");
}

#[test]
fn balance_cap_limits_affinity_greed() {
    let (cluster, _) = scattered_setup();
    let mut analyzer = AffinityAnalyzer::new();
    observe_halo_traffic(&cluster, &mut analyzer);
    // A tight cap accepts few or no moves; a loose one accepts more.
    let tight = analyzer.propose_moves(&cluster, 1.05, 100).len();
    let loose = analyzer.propose_moves(&cluster, 3.0, 100).len();
    assert!(loose >= tight, "looser caps admit at least as many moves");
    // And the tight plan never overloads any node beyond the cap.
    let mut shadow = cluster.clone();
    let plan = analyzer.propose_moves(&cluster, 1.05, 100);
    shadow.apply_rebalance(&plan).unwrap();
    let mean = shadow.total_used() as f64 / shadow.node_count() as f64;
    for load in shadow.loads() {
        assert!(load as f64 <= mean * 1.3, "cap was violated: {load} vs mean {mean}");
    }
}
