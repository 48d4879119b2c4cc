//! Partitioner table snapshot/restore: the recovery path lays a
//! [`Partitioner::table_snapshot`] over a config-rebuilt partitioner and
//! must get bit-identical routing back — for every scheme, after real
//! placement history and a scale-out have shaped the table.

use array_model::{ArrayId, ChunkCoords, ChunkDescriptor, ChunkKey};
use cluster_sim::{Cluster, CostModel};
use elastic_core::partition::{
    build_partitioner, GridHint, PartitionerConfig, PartitionerKind, RouteEpoch,
};

fn desc(x: i64, y: i64, bytes: u64) -> ChunkDescriptor {
    ChunkDescriptor::new(ChunkKey::new(ArrayId(0), ChunkCoords::new([x, y])), bytes, 1)
}

#[test]
fn every_partitioner_round_trips_its_table() {
    let grid = GridHint::new(vec![16, 16]);
    let config = PartitionerConfig::default();
    for kind in PartitionerKind::ALL {
        // Shape the table with real history: placements, a scale-out with
        // skewed bytes, then more placements against the grown roster.
        let mut cluster = Cluster::new(2, u64::MAX, CostModel::default()).unwrap();
        let mut p = build_partitioner(kind, &cluster, &grid, &config);
        for x in 0..16 {
            for y in 0..8 {
                let bytes = if x < 4 && y < 4 { 500 } else { 10 };
                let d = desc(x, y, bytes);
                let n = p.place(&d, &cluster);
                cluster.place(d, n).unwrap();
            }
        }
        let new = cluster.add_nodes(2, u64::MAX);
        let plan = p.scale_out(&cluster, &new);
        cluster.apply_rebalance(&plan).unwrap();
        for x in 0..16 {
            for y in 8..16 {
                let d = desc(x, y, 10);
                let n = p.place(&d, &cluster);
                cluster.place(d, n).unwrap();
            }
        }

        // Recovery recipe: same kind + config + roster, snapshot on top.
        let snapshot = p.table_snapshot();
        let mut q = build_partitioner(kind, &cluster, &grid, &config);
        q.table_restore(&snapshot, &cluster.node_ids())
            .unwrap_or_else(|e| panic!("{kind}: restore failed: {e}"));

        // Every historical placement resolves identically...
        for (key, _) in cluster.placements() {
            assert_eq!(p.locate(&key), q.locate(&key), "{kind}: locate diverged for {key}");
        }
        // ...and future routing decisions agree too (unseen coordinates).
        let epoch = RouteEpoch::single(&cluster);
        for x in 0..16 {
            let d = desc(x, 100 + x, 25);
            assert_eq!(
                p.route(&d, 0, &epoch),
                q.route(&d, 0, &epoch),
                "{kind}: routing diverged for unseen chunk"
            );
        }
        // A second snapshot of the restored table is byte-identical.
        assert_eq!(snapshot, q.table_snapshot(), "{kind}: snapshot not idempotent");
    }
}

#[test]
fn corrupt_snapshots_fail_typed_never_panic() {
    let grid = GridHint::new(vec![16, 16]);
    let config = PartitionerConfig::default();
    for kind in PartitionerKind::ALL {
        let mut cluster = Cluster::new(2, u64::MAX, CostModel::default()).unwrap();
        let mut p = build_partitioner(kind, &cluster, &grid, &config);
        for x in 0..8 {
            let d = desc(x, x, 10);
            let n = p.place(&d, &cluster);
            cluster.place(d, n).unwrap();
        }
        let snapshot = p.table_snapshot();
        // Every strict prefix must be rejected with a typed error.
        for cut in 0..snapshot.len() {
            let mut q = build_partitioner(kind, &cluster, &grid, &config);
            assert!(
                q.table_restore(&snapshot[..cut], &cluster.node_ids()).is_err(),
                "{kind}: truncation at {cut} accepted"
            );
        }
        // Trailing garbage is rejected too (finish() catches it).
        let mut padded = snapshot.clone();
        padded.push(0xAB);
        let mut q = build_partitioner(kind, &cluster, &grid, &config);
        assert!(
            q.table_restore(&padded, &cluster.node_ids()).is_err(),
            "{kind}: trailing byte accepted"
        );
    }
}
