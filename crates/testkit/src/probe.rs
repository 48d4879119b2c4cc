//! What a differential asks a store, and what it gets back.

use crate::{GrowRetract, Row};
use array_model::{ArrayId, Region};
use cluster_sim::Cluster;
use durability::ByteWriter;
use query_engine::ops::{self, AggFn, GroupSpec, KnnAnswer};
use query_engine::{Catalog, ExecutionContext, Predicate};
use workloads::ais::{AisWorkload, BROADCAST};
use workloads::WorkloadRunner;

/// Every live cell of `array` in `region`, ordered by coordinates: chunk
/// iteration order is the one thing two placements may legitimately
/// disagree on.
pub fn scan(cluster: &Cluster, catalog: &Catalog, array: ArrayId, region: &Region) -> Vec<Row> {
    let ctx = ExecutionContext::new(cluster, catalog);
    let (cells, _) = ops::subarray(&ctx, array, region, &[])
        .unwrap_or_else(|e| panic!("subarray of {array}: {e}"));
    let mut rows = cells.cells.to_rows();
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    rows
}

/// The questions a differential asks of one array: every cell, and the
/// operator families over a fixed region inside it.
#[derive(Debug, Clone)]
pub struct Probe {
    /// The array asked.
    pub array: ArrayId,
    /// A region holding every cell the array can have.
    pub whole: Region,
    /// The fixed region the operators run over.
    pub region: Region,
    /// The numeric attribute the filter, the median and the groups read.
    pub attr: &'static str,
    /// The filter: `attr >= at_least`.
    pub at_least: f64,
    /// The groups `attr` is summed over.
    pub groups: GroupSpec,
    /// The integer attribute whose distinct values are listed, if any.
    pub distinct: Option<&'static str>,
    /// The trajectory operator's region and speed and course attributes.
    pub trajectory: Option<(Region, &'static str, &'static str)>,
    /// kNN query points, five neighbours each.
    pub knn: Vec<Vec<i64>>,
}

impl Probe {
    /// AIS broadcasts over cycle 0's region: speeds of 10 and up, ship
    /// ids, 8 × 8 lon/lat groups, the trajectories of the region's newest
    /// time chunk, and eight kNN points.
    pub fn ais(w: &AisWorkload) -> Probe {
        let newest = Region::new(vec![3 * 43_200, -180, 0], vec![4 * 43_200 - 1, -66, 90]);
        Probe {
            array: BROADCAST,
            whole: Region::new(vec![0, -180, 0], vec![i64::MAX / 2, -66, 90]),
            region: AisWorkload::cycle_region(0),
            attr: "speed",
            at_least: 10.0,
            groups: GroupSpec::coarsened(vec![1, 2], vec![8, 8]),
            distinct: Some("ship_id"),
            trajectory: Some((newest, "speed", "course")),
            knn: w.knn_queries(0, 8),
        }
    }

    /// A [`GrowRetract`] array over cycle 0's cells: `v` of `at_least`
    /// and up, and groups of 256 cells.
    pub fn grow_retract(w: &GrowRetract, at_least: f64) -> Probe {
        Probe {
            array: w.array,
            whole: Region::new(vec![0], vec![i64::MAX / 2]),
            region: Region::new(vec![0], vec![w.cells as i64 - 1]),
            attr: "v",
            at_least,
            groups: GroupSpec::coarsened(vec![0], vec![256]),
            distinct: None,
            trajectory: None,
            knn: Vec::new(),
        }
    }

    /// Ask `cluster`'s node stores, through `catalog`.
    pub fn answers(&self, cluster: &Cluster, catalog: &Catalog) -> Answers {
        let ctx = ExecutionContext::new(cluster, catalog);
        let (array, region, attr) = (self.array, &self.region, self.attr);
        let at_least = Predicate::ge(self.at_least);
        let (filter_count, _) = ops::filter_count(&ctx, array, region, attr, &at_least).unwrap();
        let distinct = self.distinct.map_or(Vec::new(), |by| {
            ops::distinct_sorted(&ctx, array, Some(region), by).unwrap().0
        });
        let (median, _) = ops::quantile(&ctx, array, Some(region), attr, 0.5, 1.0).unwrap();
        let (groups, _) =
            ops::grid_aggregate(&ctx, array, Some(region), attr, &self.groups, AggFn::Sum).unwrap();
        let mut groups: Vec<_> =
            groups.into_iter().map(|g| (g.key, g.value.to_bits(), g.cells)).collect();
        groups.sort();
        let trajectory = self.trajectory.as_ref().map(|(within, speed, course)| {
            let (t, _) = ops::trajectory(&ctx, array, within, speed, course, 0.25).unwrap();
            (t.projected, t.collision_candidates)
        });
        let (knn, _) = ops::knn(&ctx, array, &self.knn, 5).unwrap();
        Answers {
            everything: scan(cluster, catalog, array, &self.whole),
            rows: scan(cluster, catalog, array, region),
            filter_count,
            distinct,
            median: (median.value.map(f64::to_bits), median.sampled_cells),
            groups,
            trajectory,
            knn,
        }
    }
}

/// What a [`Probe`] got back, floats as bits: two stores answer alike
/// exactly when their `Answers` are `==`.
#[derive(Debug, PartialEq)]
pub struct Answers {
    /// Every cell of the array.
    pub everything: Vec<Row>,
    /// The cells in the probe region.
    pub rows: Vec<Row>,
    /// The region's cells that pass the filter.
    pub filter_count: u64,
    /// The distinct values, ascending; empty when the probe lists none.
    pub distinct: Vec<i64>,
    /// The region's median over a full sample, and the cells sampled.
    pub median: (Option<u64>, u64),
    /// `(key, sum bits, cells)` per group, by key.
    pub groups: Vec<(Vec<i64>, u64, u64)>,
    /// `(projected, collision candidates)`.
    pub trajectory: Option<(u64, u64)>,
    /// One answer per kNN point.
    pub knn: Vec<KnnAnswer>,
}

/// Every surface a recovery must rebuild, as codec bytes: equality is
/// bit-identity of placements, loads, census, tombstones, dictionaries,
/// routing tables and view states at once.
#[derive(PartialEq)]
pub struct State {
    catalog: Vec<u8>,
    cluster: Vec<u8>,
    /// Per placed chunk, in placement order: the cells of its record
    /// through the chunk codec — tombstone bitmaps, dictionaries, zone
    /// maps and all — then the holders that serve that record, in route
    /// order. The catalog and cluster sections carry no cell (the first
    /// holds metadata, the second says only *which* records have cells),
    /// so this is the surface that pins them, chunk by chunk.
    cells: Vec<u8>,
    table: Vec<u8>,
    views: Vec<u8>,
    history: Vec<f64>,
}

impl State {
    /// `r`'s state.
    pub fn of(r: &WorkloadRunner<'_>) -> State {
        let bytes = |encode: &dyn Fn(&mut ByteWriter)| {
            let mut w = ByteWriter::new();
            encode(&mut w);
            w.into_bytes()
        };
        let cells = bytes(&|w| {
            for (key, _) in r.cluster().placements() {
                match r.cluster().primary_payload(&key) {
                    Ok(chunk) => {
                        w.put_bool(true);
                        chunk.encode_into(w);
                    }
                    Err(_) => w.put_bool(false),
                }
                let holders = r.cluster().replica_holders(&key);
                w.put_usize(holders.len());
                holders.iter().for_each(|h| w.put_u32(h.0));
            }
        });
        State {
            catalog: bytes(&|w| r.catalog().encode_into(w)),
            cluster: bytes(&|w| r.cluster().snapshot_into(w)),
            cells,
            table: r.partitioner().table_snapshot(),
            views: bytes(&|w| r.views().export_states(w)),
            history: r.provisioner().map(|p| p.history().to_vec()).unwrap_or_default(),
        }
    }

    /// Panics naming the first surface on which `self` differs from `want`.
    pub fn assert_same(&self, want: &State, ctx: &str) {
        assert!(self.catalog == want.catalog, "{ctx}: catalog bytes diverged");
        assert!(self.cluster == want.cluster, "{ctx}: cluster snapshot diverged");
        assert!(self.cells == want.cells, "{ctx}: stored cells diverged");
        assert!(self.table == want.table, "{ctx}: partitioner table diverged");
        assert!(self.views == want.views, "{ctx}: view states diverged");
        assert!(self.history == want.history, "{ctx}: provisioner history diverged");
    }
}
