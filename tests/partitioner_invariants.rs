//! Cross-crate property tests: the paper's Table-1 invariants must hold
//! for every partitioner over arbitrary chunk streams and scale-out
//! schedules.

use elastic_array_db::prelude::*;
use proptest::prelude::*;

/// Drive a partitioner over a chunk stream with interleaved scale-outs.
/// Returns the cluster for post-conditions.
fn drive(
    kind: PartitionerKind,
    chunks: &[(i64, i64, i64, u64)],
    scale_points: &[usize],
) -> (Cluster, Box<dyn Partitioner>) {
    let mut cluster = Cluster::new(2, u64::MAX, CostModel::default()).unwrap();
    let grid = GridHint::new(vec![64, 32, 32]);
    let mut partitioner = build_partitioner(kind, &cluster, &grid, &PartitionerConfig::default());
    for (i, &(t, x, y, bytes)) in chunks.iter().enumerate() {
        if scale_points.contains(&i) && cluster.node_count() < 10 {
            let new = cluster.add_nodes(2, u64::MAX);
            let plan = partitioner.scale_out(&cluster, &new);
            if kind.features().incremental_scale_out {
                assert!(plan.is_incremental(&new), "{kind}: plan must only move data to new nodes");
            }
            cluster.apply_rebalance(&plan).expect("plan applies cleanly");
        }
        let key = ChunkKey::new(ArrayId(0), ChunkCoords::new([t, x, y]));
        if cluster.locate(&key).is_some() {
            continue; // duplicate coordinate in the random stream
        }
        let desc = ChunkDescriptor::new(key, bytes, bytes / 64 + 1);
        let node = partitioner.place(&desc, &cluster);
        cluster.place(desc, node).expect("placement is fresh");
    }
    (cluster, partitioner)
}

/// The most loaded node, ties going to the lowest id.
fn heaviest_node(cluster: &Cluster) -> NodeId {
    let loads = cluster.nodes().map(|n| (n.used_bytes(), std::cmp::Reverse(n.id)));
    loads.max().expect("a cluster has nodes").1 .0
}

fn chunk_stream() -> impl Strategy<Value = Vec<(i64, i64, i64, u64)>> {
    proptest::collection::vec((0i64..64, 0i64..32, 0i64..32, 1u64..100_000_000), 20..200)
}

fn scale_points() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0usize..200, 0..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The partitioner's own lookup structure must agree with the cluster's
    /// authoritative placement for every resident chunk, for every scheme.
    #[test]
    fn locate_agrees_with_placement(
        chunks in chunk_stream(),
        scales in scale_points(),
    ) {
        for kind in PartitionerKind::ALL {
            let (cluster, partitioner) = drive(kind, &chunks, &scales);
            for (key, node) in cluster.placements() {
                prop_assert_eq!(
                    partitioner.locate(&key),
                    Some(node),
                    "{} disagrees on {}", kind, key
                );
            }
        }
    }

    /// No bytes are created or destroyed by placement and rebalancing.
    #[test]
    fn bytes_are_conserved(
        chunks in chunk_stream(),
        scales in scale_points(),
    ) {
        for kind in PartitionerKind::ALL {
            let (cluster, _) = drive(kind, &chunks, &scales);
            let per_node: u64 = cluster.loads().iter().sum();
            prop_assert_eq!(per_node, cluster.total_used(), "{} ledger mismatch", kind);
        }
    }

    /// Incremental schemes never touch data on preexisting nodes during
    /// scale-out (asserted inside `drive`), and every scheme keeps serving
    /// lookups afterwards.
    #[test]
    fn scale_out_preserves_service(
        chunks in chunk_stream(),
    ) {
        // Scale out exactly once, halfway through.
        let scales = vec![chunks.len() / 2];
        for kind in PartitionerKind::ALL {
            let (cluster, partitioner) = drive(kind, &chunks, &scales);
            prop_assert!(cluster.node_count() >= 2);
            for (key, _) in cluster.placements() {
                prop_assert!(partitioner.locate(&key).is_some(), "{} lost {}", kind, key);
            }
        }
    }

    /// Table 1's Skew-Aware column: a one-node scale-out of a skew-aware
    /// scheme moves data only off the most loaded preexisting node, ties
    /// going to the lowest id, and only onto the new node.
    #[test]
    fn skew_aware_scale_out_splits_the_heaviest_node(
        chunks in chunk_stream(),
        scales in scale_points(),
    ) {
        for kind in PartitionerKind::ALL.into_iter().filter(|k| k.features().skew_aware) {
            let (mut cluster, mut partitioner) = drive(kind, &chunks, &scales);
            let heaviest = heaviest_node(&cluster);
            let new = cluster.add_nodes(1, u64::MAX);
            let plan = partitioner.scale_out(&cluster, &new);
            for m in &plan.moves {
                prop_assert_eq!((m.from, m.to), (heaviest, new[0]), "{} moved {}", kind, m.key);
            }
        }
    }

    /// Fine-grained schemes balance a uniform chunk stream well; Table 1's
    /// trait has observable consequences.
    #[test]
    fn fine_grained_schemes_balance_uniform_streams(
        seed in 0u64..1000,
    ) {
        // A deterministic uniform stream derived from the seed.
        let chunks: Vec<(i64, i64, i64, u64)> = (0..256)
            .map(|i| {
                let v = seed.wrapping_mul(6364136223846793005).wrapping_add(i);
                ((i % 16) as i64, ((v >> 8) % 32) as i64, ((v >> 16) % 32) as i64, 1_000_000)
            })
            .collect();
        for kind in [
            PartitionerKind::RoundRobin,
            PartitionerKind::ConsistentHash,
            PartitionerKind::ExtendibleHash,
        ] {
            let (cluster, _) = drive(kind, &chunks, &[]);
            let rsd = relative_std_dev(&cluster.loads());
            prop_assert!(rsd < 0.6, "{} unbalanced on uniform stream: {}", kind, rsd);
        }
    }
}

/// Append is special-cased: the plan is always empty.
#[test]
fn append_scale_out_is_free() {
    // (t, x) pairs are unique for i < 256, so no duplicate coordinates.
    let chunks: Vec<(i64, i64, i64, u64)> =
        (0..100).map(|i| (i % 16, i / 16, (i * 7) % 32, 10_000_000)).collect();
    let mut cluster = Cluster::new(2, 400_000_000, CostModel::default()).unwrap();
    let grid = GridHint::new(vec![64, 32, 32]);
    let mut p =
        build_partitioner(PartitionerKind::Append, &cluster, &grid, &PartitionerConfig::default());
    for &(t, x, y, bytes) in &chunks[..50] {
        let desc =
            ChunkDescriptor::new(ChunkKey::new(ArrayId(0), ChunkCoords::new([t, x, y])), bytes, 1);
        let node = p.place(&desc, &cluster);
        cluster.place(desc, node).unwrap();
    }
    let new = cluster.add_nodes(2, 400_000_000);
    let plan = p.scale_out(&cluster, &new);
    assert!(plan.is_empty());
    assert_eq!(plan.moved_bytes(), 0);
}

/// Global schemes must converge to near-perfect chunk-count balance after
/// a rebalance, whatever happened before (their defining property).
#[test]
fn global_schemes_rebalance_globally() {
    // Spread the stream across the whole hinted grid so the static
    // uniform-range tree actually has occupied leaves everywhere.
    let chunks: Vec<(i64, i64, i64, u64)> =
        (0..240).map(|i| ((i % 16) * 4, ((i / 16) * 2) % 32, (i * 13) % 32, 1_000_000)).collect();
    for kind in [PartitionerKind::RoundRobin, PartitionerKind::UniformRange] {
        let (cluster, _) = drive(kind, &chunks, &[120]);
        let counts = cluster.chunk_counts();
        let loads: Vec<u64> = counts.iter().map(|&c| c as u64).collect();
        let rsd = relative_std_dev(&loads);
        assert!(rsd < 0.5, "{kind} failed to rebalance: {counts:?}");
    }
}

/// The Skew-Aware victim rule's tie: two nodes holding equal loads. Equal
/// chunks go in at scattered coordinates until the two carry the same
/// bytes, eight chunks or more each; a one-node scale-out then splits
/// node 0, the lower id.
#[test]
fn skew_aware_ties_split_the_lowest_id() {
    for kind in PartitionerKind::ALL.into_iter().filter(|k| k.features().skew_aware) {
        let mut cluster = Cluster::new(2, u64::MAX, CostModel::default()).unwrap();
        let grid = GridHint::new(vec![64, 32, 32]);
        let mut p = build_partitioner(kind, &cluster, &grid, &PartitionerConfig::default());
        for i in 0..4096i64 {
            let coords = [(i * 37) % 64, (i * 11 + i / 64) % 32, (i * 7 + i / 32) % 32];
            let desc =
                ChunkDescriptor::new(ChunkKey::new(ArrayId(0), ChunkCoords::new(coords)), 1_000, 1);
            let node = p.place(&desc, &cluster);
            cluster.place(desc, node).unwrap();
            let loads = cluster.loads();
            if loads[0] == loads[1] && loads[0] >= 8_000 {
                break;
            }
        }
        let loads = cluster.loads();
        assert!(loads[0] == loads[1] && loads[0] > 0, "{kind}: no tie to break: {loads:?}");
        let new = cluster.add_nodes(1, u64::MAX);
        let plan = p.scale_out(&cluster, &new);
        assert!(!plan.is_empty(), "{kind}: the tie split moved nothing");
        let stray = plan.moves.iter().find(|m| m.from != NodeId(0));
        assert!(stray.is_none(), "{kind}: {stray:?} is off a node other than node 0");
    }
}
