//! Differential suite for the batched ingest path.
//!
//! The contract under test: driving a chunk stream through the
//! route_all → place_all → commit pipeline places it as the per-chunk
//! protocol does, every partitioner's own table locates each chunk where
//! the cluster placed it, and the incremental census never drifts from
//! the O(nodes) rescan under arbitrary interleavings of batched
//! placement, scale-out, and rebalancing. Also pins the two driver
//! bugfixes that ride along: colliding derived batches surface as errors
//! (not panics), and FixedStep provisioning is closed-form (no silent
//! 64-node cap).

use elastic_array_db::prelude::*;

/// Chunk grid for the differential streams (time × lon × lat).
const GRID: [i64; 3] = [64, 16, 16];

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A deterministic stream of `n` distinct chunks spread over two arrays:
/// array 0 is dense-registered, array 1 stays sparse (in the spill map),
/// and a sprinkle of out-of-extent coordinates spills there too.
fn stream(n: usize) -> Vec<ChunkDescriptor> {
    let volume = (GRID[0] * GRID[1] * GRID[2]) as usize;
    assert!(n <= 2 * volume, "stream exceeds the two-array grid");
    (0..n)
        .map(|i| {
            let array = ArrayId((i % 2) as u32);
            let j = i / 2;
            // Bijective shuffle within the grid volume.
            let s = (j * 2_654_435_761) % volume;
            let mut t = (s / (GRID[1] * GRID[2]) as usize) as i64;
            let x = ((s / GRID[2] as usize) % GRID[1] as usize) as i64;
            let y = (s % GRID[2] as usize) as i64;
            if j % 97 == 0 {
                t += GRID[0]; // past the registered extent -> spill
            }
            let r = splitmix(i as u64 ^ 0xfeed_f00d);
            let bytes = 1_000 + (r % 65_536) * (r % 7 + 1);
            ChunkDescriptor::new(ChunkKey::new(array, ChunkCoords::new([t, x, y])), bytes, 1)
        })
        .collect()
}

/// Drive `chunks` through the batched pipeline, returning the final
/// cluster and partitioner.
fn ingest(
    kind: PartitionerKind,
    chunks: &[ChunkDescriptor],
    batch_size: usize,
) -> (Cluster, Box<dyn Partitioner>) {
    let mut cluster = Cluster::new(8, u64::MAX, CostModel::default()).unwrap();
    assert!(cluster.register_array(ArrayId(0), &GRID));
    let grid = GridHint::new(GRID.to_vec());
    let mut partitioner = build_partitioner(kind, &cluster, &grid, &PartitionerConfig::default());
    for batch in chunks.chunks(batch_size) {
        let prefix = batch_prefix_bytes(batch);
        let epoch = RouteEpoch::for_batch(&cluster, &prefix);
        let routes = route_all(partitioner.as_ref(), batch, &epoch);
        cluster.place_all(batch, &routes).expect("stream has no duplicates");
        partitioner.commit(batch, &routes);
    }
    (cluster, partitioner)
}

/// Every partitioner's table must locate each chunk where the batched
/// pipeline placed it, and the batched pipeline must match the classic
/// per-chunk `place` protocol for the order-insensitive schemes (Append
/// routes a whole batch against one epoch, which is its documented batch
/// semantics).
#[test]
fn batched_pipeline_matches_per_chunk_protocol() {
    let chunks = stream(2_000);
    for kind in PartitionerKind::ALL {
        let (batched, partitioner) = ingest(kind, &chunks, 256);
        for (key, node) in batched.placements() {
            assert_eq!(partitioner.locate(&key), Some(node), "{kind}: locate disagrees");
        }
        if kind == PartitionerKind::Append {
            continue;
        }
        let mut cluster = Cluster::new(8, u64::MAX, CostModel::default()).unwrap();
        assert!(cluster.register_array(ArrayId(0), &GRID));
        let grid = GridHint::new(GRID.to_vec());
        let mut p = build_partitioner(kind, &cluster, &grid, &PartitionerConfig::default());
        for desc in &chunks {
            let node = p.place(desc, &cluster);
            cluster.place(*desc, node).unwrap();
        }
        assert_eq!(batched.loads(), cluster.loads(), "{kind}");
        assert_eq!(
            batched.placements().collect::<Vec<_>>(),
            cluster.placements().collect::<Vec<_>>(),
            "{kind}"
        );
    }
}

/// Census-drift: after a random script of batched placements,
/// scale-outs, and rebalances, the O(1) incremental census must agree
/// with the O(nodes) rescan to 1e-12 at every step.
#[test]
fn census_never_drifts_under_random_scripts() {
    for seed in 0..4u64 {
        let mut cluster = Cluster::new(2, u64::MAX, CostModel::default()).unwrap();
        assert!(cluster.register_array(ArrayId(0), &GRID));
        let grid = GridHint::new(GRID.to_vec());
        let mut partitioner = build_partitioner(
            PartitionerKind::ConsistentHash,
            &cluster,
            &grid,
            &PartitionerConfig::default(),
        );
        let chunks = stream(3_000);
        let mut cursor = 0usize;
        let mut step = 0u64;
        while cursor < chunks.len() {
            step += 1;
            let r = splitmix(seed.wrapping_mul(0x1234_5678).wrapping_add(step));
            match r % 4 {
                // Batched placement.
                0..=2 => {
                    let len = (64 + (r >> 8) % 512) as usize;
                    let batch = &chunks[cursor..(cursor + len).min(chunks.len())];
                    cursor += batch.len();
                    let prefix = batch_prefix_bytes(batch);
                    let epoch = RouteEpoch::for_batch(&cluster, &prefix);
                    let routes = route_all(partitioner.as_ref(), batch, &epoch);
                    cluster.place_all(batch, &routes).unwrap();
                    partitioner.commit(batch, &routes);
                }
                // Scale out + rebalance.
                _ => {
                    if cluster.node_count() < 12 {
                        let new = cluster.add_nodes(1 + (r >> 16) as usize % 2, u64::MAX);
                        let plan = partitioner.scale_out(&cluster, &new);
                        cluster.apply_rebalance(&plan).unwrap();
                    }
                }
            }
            let incremental = cluster.balance_rsd();
            let rescan = relative_std_dev(&cluster.loads());
            assert!(
                (incremental - rescan).abs() <= 1e-12,
                "seed {seed} step {step}: census drifted: {incremental} vs {rescan}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Driver bugfix regressions.
// ---------------------------------------------------------------------

/// A workload whose derived batch re-emits the same chunk key every
/// cycle — the §3.4 "store findings" path colliding with an earlier
/// cycle's product. Used to panic the driver via `expect`.
struct CollidingDerived;

impl Workload for CollidingDerived {
    fn name(&self) -> &'static str {
        "colliding-derived"
    }

    fn cycles(&self) -> usize {
        3
    }

    fn register_arrays(&self, catalog: &mut Catalog) {
        let schema = ArraySchema::parse("A<v:double>[t=0:*,1, x=0:63,1]").unwrap();
        catalog.register(StoredArray::from_descriptors(ArrayId(0), schema, []));
    }

    fn insert_batch(&self, cycle: usize) -> Vec<ChunkDescriptor> {
        (0..8i64)
            .map(|i| {
                let key = ChunkKey::new(ArrayId(0), ChunkCoords::new([cycle as i64, i]));
                ChunkDescriptor::new(key, 1_000_000, 10)
            })
            .collect()
    }

    fn derived_batch(&self, _cycle: usize) -> Vec<ChunkDescriptor> {
        // The same key every cycle: collides from cycle 1 onward.
        let key = ChunkKey::new(ArrayId(0), ChunkCoords::new([999, 0]));
        vec![ChunkDescriptor::new(key, 500, 5)]
    }

    fn grid_hint(&self) -> GridHint {
        GridHint::new(vec![8, 64])
    }

    fn quad_plane(&self) -> (usize, usize) {
        (0, 1)
    }

    fn run_suites(&self, _ctx: &ExecutionContext<'_>, _cycle: usize) -> SuiteReport {
        SuiteReport::default()
    }
}

fn plain_config(kind: PartitionerKind, node_capacity: u64) -> RunnerConfig {
    RunnerConfig {
        node_capacity,
        initial_nodes: 2,
        partitioner: kind,
        partitioner_config: PartitionerConfig::default(),
        scaling: ScalingPolicy::FixedStep { add: 2, trigger: 0.8 },
        cost: CostModel::default(),
        run_queries: false,
        ..RunnerConfig::default()
    }
}

/// A derived batch colliding with an earlier cycle's product must surface
/// as `CycleError::Derived`, not a panic, and the offending batch rolls
/// back so the cluster's books stay balanced.
#[test]
fn colliding_derived_batch_is_an_error_not_a_panic() {
    let w = CollidingDerived;
    let mut runner =
        WorkloadRunner::new(&w, plain_config(PartitionerKind::ConsistentHash, 1 << 40));
    let err = runner.run_all().unwrap_err();
    match err {
        CycleError::Derived { cycle, .. } => assert_eq!(cycle, 1, "first collision is cycle 1"),
        other => panic!("expected a derived-batch error, got {other}"),
    }
    // The failed batch rolled back: ledgers still balance.
    let total: u64 = runner.cluster().loads().iter().sum();
    assert_eq!(total, runner.cluster().total_used());
    assert!(
        (runner.cluster().balance_rsd() - relative_std_dev(&runner.cluster().loads())).abs()
            <= 1e-12
    );
}

/// One huge batch that needs far more than the old silent 64-node cap.
struct HugeDay {
    chunks: usize,
    bytes_per_chunk: u64,
}

impl Workload for HugeDay {
    fn name(&self) -> &'static str {
        "huge-day"
    }

    fn cycles(&self) -> usize {
        1
    }

    fn register_arrays(&self, catalog: &mut Catalog) {
        let schema = ArraySchema::parse("H<v:double>[t=0:*,1, x=0:1023,1]").unwrap();
        catalog.register(StoredArray::from_descriptors(ArrayId(0), schema, []));
    }

    fn insert_batch(&self, _cycle: usize) -> Vec<ChunkDescriptor> {
        (0..self.chunks as i64)
            .map(|i| {
                let key = ChunkKey::new(ArrayId(0), ChunkCoords::new([0, i]));
                ChunkDescriptor::new(key, self.bytes_per_chunk, 1)
            })
            .collect()
    }

    fn derived_batch(&self, _cycle: usize) -> Vec<ChunkDescriptor> {
        Vec::new()
    }

    fn grid_hint(&self) -> GridHint {
        GridHint::new(vec![2, 1024])
    }

    fn quad_plane(&self) -> (usize, usize) {
        (0, 1)
    }

    fn run_suites(&self, _ctx: &ExecutionContext<'_>, _cycle: usize) -> SuiteReport {
        SuiteReport::default()
    }
}

/// FixedStep used to stop adding nodes after 64 and silently
/// under-provision; the closed form must now cover the whole demand in
/// one cycle, rounded up to a multiple of the step.
#[test]
fn fixed_step_provisions_past_the_old_64_node_cap() {
    // 300 GB of demand on 1 GiB nodes at a 0.8 trigger needs ~350 nodes.
    let w = HugeDay { chunks: 300, bytes_per_chunk: 1_000_000_000 };
    let mut runner =
        WorkloadRunner::new(&w, plain_config(PartitionerKind::ConsistentHash, 1 << 30));
    let report = runner.run_all().unwrap();
    let c = &report.cycles[0];
    assert!(!c.scale_saturated, "375 nodes is well under the safety cap");
    assert_eq!(c.added_nodes % 2, 0, "scale-outs come in steps of `add`");
    // Demand must actually fit under the trigger now — the old loop left
    // the cluster at 2 + 66 nodes here, ~4.5x under-provisioned.
    let usable = 0.8 * c.nodes as f64 * (1u64 << 30) as f64;
    assert!(
        c.demand_gb * 1e9 <= usable,
        "under-provisioned: {} GB demand vs {} usable",
        c.demand_gb,
        usable / 1e9
    );
    assert!(c.nodes > 300, "need hundreds of nodes, got {}", c.nodes);
}

/// When even the safety cap cannot satisfy demand, the driver reports
/// saturation instead of dropping the shortfall on the floor.
#[test]
fn fixed_step_saturation_is_surfaced() {
    // ~10 TB of demand on 1 MB nodes: needs ~12.5M nodes, far past the cap.
    let w = HugeDay { chunks: 10, bytes_per_chunk: 1 << 40 };
    let mut runner = WorkloadRunner::new(&w, plain_config(PartitionerKind::Append, 1 << 20));
    let report = runner.run_all().unwrap();
    let c = &report.cycles[0];
    assert!(c.scale_saturated, "the cap must be reported");
    assert_eq!(c.nodes, 2 + 4096, "adds exactly the per-cycle cap");
}
