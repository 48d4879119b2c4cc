//! The paper's future-work direction (§8), working: "more tightly
//! integrate workloads with data placement … the individual chunks that
//! stand to benefit most directly from residing on the same server."
//!
//! An AIS cluster partitioned by Consistent Hash runs its spatial
//! benchmark; the advisor observes which chunk pairs keep exchanging halo
//! data across node boundaries, proposes a bounded set of co-location
//! moves, and the same queries get cheaper — without abandoning hashing's
//! balance.
//!
//! ```text
//! cargo run --release --example affinity_advisor
//! ```

use elastic_array_db::elastic::AffinityAnalyzer;
use elastic_array_db::prelude::*;
use elastic_array_db::query::Catalog as QueryCatalog;
use query_engine::ops;

fn trajectory_stats(cluster: &Cluster, catalog: &QueryCatalog, cycle: usize) -> QueryStats {
    let ctx = ExecutionContext::new(cluster, catalog);
    let c = cycle as i64;
    let region =
        Region::new(vec![c * 4 * 43_200, -180, 0], vec![(c + 1) * 4 * 43_200 - 1, -66, 90]);
    ops::trajectory(&ctx, workloads::ais::BROADCAST, &region, "speed", "course", 0.25)
        .map(|(_, stats)| stats)
        .unwrap_or_default()
}

fn main() {
    // Build a hash-partitioned AIS cluster by running three cycles.
    let workload = AisWorkload::default();
    let mut runner = WorkloadRunner::new_owned(
        workload,
        RunnerConfig::paper_section62(PartitionerKind::ConsistentHash),
    );
    for cycle in 0..3 {
        runner.run_cycle(cycle).expect("MODIS batches are collision-free");
    }

    // Re-derive cluster + catalog state for direct experimentation: run the
    // trajectory query and observe its cross-node chunk adjacencies.
    // (WorkloadRunner keeps both internally; we rebuild the placement here
    // through the public API to keep the example self-contained.)
    let workload = AisWorkload::default();
    let mut cluster = Cluster::new(8, 100_000_000_000, CostModel::default()).unwrap();
    let mut catalog = QueryCatalog::new();
    workload.register_arrays(&mut catalog);
    let grid = workload.grid_hint();
    let mut partitioner = build_partitioner(
        PartitionerKind::ConsistentHash,
        &cluster,
        &grid,
        &PartitionerConfig::default(),
    );
    for cycle in 0..3 {
        for desc in workload.insert_batch(cycle) {
            let node = partitioner.place(&desc, &cluster);
            cluster.place(desc, node).unwrap();
        }
    }

    let before = trajectory_stats(&cluster, &catalog, 2);
    println!(
        "before: trajectory query costs {:.1} s ({} remote fetches, {:.2} GB shuffled)",
        before.elapsed_secs,
        before.remote_fetches,
        before.bytes_shuffled as f64 / 1e9
    );

    // Observe the spatial adjacencies the query exercises, reading each
    // chunk and its neighbours off the placement index.
    let mut advisor = AffinityAnalyzer::new();
    let broadcast = cluster.residents().map(|r| r.descriptor().key);
    for key in broadcast.filter(|key| key.array == workloads::ais::BROADCAST) {
        let node = cluster.locate(&key).unwrap();
        for dim in [1usize, 2] {
            for delta in [-1i64, 1] {
                let mut ncoords = key.coords;
                ncoords[dim] += delta;
                let nkey = ChunkKey::new(key.array, ncoords);
                if let Some(ndesc) = cluster.descriptor(&nkey) {
                    if cluster.locate(&nkey) != Some(node) {
                        advisor.observe(&key, &nkey, ndesc.bytes / 50);
                    }
                }
            }
        }
    }
    println!("observed {} cross-node co-access pairs", advisor.pair_count());

    println!("\nhottest pairs:");
    for edge in advisor.hottest_pairs(5) {
        println!(
            "  {} <-> {}  ({} accesses, {:.1} MB shipped)",
            edge.a,
            edge.b,
            edge.stats.count,
            edge.stats.bytes as f64 / 1e6
        );
    }

    // Propose up to 400 moves, keeping every node under 1.15x the mean
    // load — co-location must not buy locality with imbalance.
    let plan = advisor.propose_moves(&cluster, 1.15, 400);
    let saved = advisor.estimated_savings(&cluster, &plan, cluster.cost_model());
    println!(
        "\nadvisor proposes {} moves ({:.2} GB), predicted savings {:.1} s/cycle",
        plan.len(),
        plan.moved_bytes() as f64 / 1e9,
        saved
    );
    cluster.apply_rebalance(&plan).unwrap();

    let after = trajectory_stats(&cluster, &catalog, 2);
    println!(
        "after:  trajectory query costs {:.1} s ({} remote fetches, {:.2} GB shuffled)",
        after.elapsed_secs,
        after.remote_fetches,
        after.bytes_shuffled as f64 / 1e9
    );
    println!(
        "\nshuffled {:.2} GB -> {:.2} GB; remote fetches {} -> {}; balance RSD now {:.0}%",
        before.bytes_shuffled as f64 / 1e9,
        after.bytes_shuffled as f64 / 1e9,
        before.remote_fetches,
        after.remote_fetches,
        relative_std_dev(&cluster.loads()) * 100.0
    );
    println!("(the cap keeps balance: affinity advice trades a bounded amount of");
    println!(" skew for locality — loosen the cap and the hot node concentrates)");
}
