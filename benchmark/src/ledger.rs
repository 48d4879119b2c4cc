//! The layer ledger: one workload's inputs replayed through the public
//! functions the runner calls internally, each call under a span named
//! after the layer that owns it.
//!
//! The runner is one opaque call from outside, so its own span says how
//! long a cycle took but not where. This module re-executes the same
//! cycles against its own cluster, catalog, partitioner and views, in the
//! runner's order, and checks after every cycle that it placed every
//! chunk exactly where the runner did — so the spans time the work the
//! runner does, not something like it. Scale-out decisions are taken
//! from the runner's reports (the policy itself is private to it).

use crate::common::placement_digest;
use crate::replay::Inputs;
use crate::trace;
use array_model::{
    chunk_of, Array, ArrayId, CellBuffer, ChunkCoords, ChunkDescriptor, ChunkKey, DeltaSet,
};
use cluster_sim::{Cluster, CostModel, NodeId, NodeState};
use durability::{frame_record, ByteReader, ByteWriter, RecordReader};
use elastic_core::{batch_prefix_bytes, build_partitioner, route_batch, Partitioner, RouteEpoch};
use query_engine::view::{ViewDef, ViewRegistry};
use query_engine::Catalog;
use std::collections::BTreeMap;
use std::sync::Arc;
use workloads::{
    build_cell_array_encoded, CellBatch, CycleReport, FaultKind, RunnerConfig, WalEvent, Workload,
};

/// Passes of plan → execute the runner allows one recovery.
const MAX_RECOVERY_PASSES: usize = 4;

pub struct World {
    config: RunnerConfig,
    pub cluster: Cluster,
    pub catalog: Catalog,
    partitioner: Box<dyn Partitioner>,
    pub views: ViewRegistry,
    view_defs: Vec<ViewDef>,
}

impl World {
    /// The runner's starting state for `config` (durability and queries
    /// are not the ledger's business and are ignored).
    pub fn new(workload: &dyn Workload, config: &RunnerConfig, view_defs: Vec<ViewDef>) -> Self {
        let mut cluster = Cluster::with_replication(
            config.initial_nodes,
            config.node_capacity,
            config.cost.clone(),
            config.replication,
        )
        .expect("initial node count is positive");
        let mut catalog = Catalog::new();
        workload.register_arrays(&mut catalog);
        let hint = workload.grid_hint();
        for stored in catalog.arrays() {
            let extents: Vec<i64> = stored
                .schema
                .dimensions
                .iter()
                .enumerate()
                .map(|(d, dim)| {
                    dim.chunk_count()
                        .or_else(|| {
                            (stored.schema.ndims() == hint.ndims()).then(|| hint.chunk_counts[d])
                        })
                        .unwrap_or(1024)
                        .max(1)
                })
                .collect();
            cluster.register_array(stored.id, &extents);
        }
        let mut pconfig = config.partitioner_config.clone();
        pconfig.quad_plane.get_or_insert(workload.quad_plane());
        let partitioner = build_partitioner(config.partitioner, &cluster, &hint, &pconfig);
        let mut views = ViewRegistry::new();
        for def in &view_defs {
            views.register(def.clone());
        }
        World { config: config.clone(), cluster, catalog, partitioner, views, view_defs }
    }

    /// One cycle, in the runner's order: faults and repair, retractions,
    /// chunk build, scale-out, ingest, views, derived results.
    /// `expect_placement` is the runner's placement digest after the
    /// same cycle.
    pub fn cycle(
        &mut self,
        cycle: usize,
        cells: Option<Vec<CellBatch>>,
        inserts: &[ChunkDescriptor],
        derived: &[ChunkDescriptor],
        add_nodes: usize,
        expect_placement: u64,
    ) -> Result<(), String> {
        trace::set_op(cycle as u64);
        let _cycle_span = trace::span("ledger.cycle");
        self.faults(cycle)?;

        let (batch, arrays) = match cells {
            Some(batches) => {
                self.retract(&batches)?;
                let mut arrays = Vec::with_capacity(batches.len());
                for b in batches {
                    let schema = self.catalog.array(b.array).map_err(err)?.schema.clone();
                    let (id, rows) = (b.array, b.into_rows());
                    // One thread: `Array::insert_batch_owned` on a fresh array.
                    let fresh = trace::timed("array.insert_batch", || {
                        build_cell_array_encoded(id, schema, rows, 1, self.config.string_encoding)
                    })
                    .map_err(err)?;
                    trace::count("array.rows", fresh.cell_count());
                    trace::count("array.chunks", fresh.chunk_count() as u64);
                    trace::count("array.bytes", fresh.byte_size());
                    arrays.push(fresh);
                }
                let descs: Vec<ChunkDescriptor> =
                    arrays.iter().flat_map(Array::descriptors).collect();
                (descs, arrays)
            }
            None => (inserts.to_vec(), Vec::new()),
        };

        if add_nodes > 0 {
            let new_nodes = self.cluster.add_nodes(add_nodes, self.config.node_capacity);
            let plan = trace::timed("core.scale_out", || {
                self.partitioner.scale_out(&self.cluster, &new_nodes)
            });
            trace::count("core.moved_bytes", plan.moved_bytes());
            trace::count("cluster.rebalance_moved_chunks", plan.len() as u64);
            let flows =
                trace::timed("cluster.apply_rebalance", || self.cluster.apply_rebalance(&plan))
                    .map_err(err)?;
            trace::timed("cluster.flow_solve", || flows.elapsed_secs(&self.config.cost));
        }

        self.place(&batch)?;
        let deltas: Vec<(ArrayId, DeltaSet)> = arrays
            .iter()
            .filter(|a| self.views.reads(a.id))
            .map(|a| (a.id, trace::timed("array.delta_extract", || DeltaSet::from_live_cells(a))))
            .collect();
        for fresh in arrays {
            let id = fresh.id;
            {
                let _span = trace::span("cluster.attach_payload");
                for (coords, chunk) in fresh.shared_chunks() {
                    self.cluster
                        .attach_payload(ChunkKey::new(id, *coords), Arc::clone(chunk))
                        .map_err(err)?;
                }
            }
            let stored = self.catalog.array_mut(id).map_err(err)?;
            let data = stored.data.get_or_insert_with(|| Array::new(id, stored.schema.clone()));
            data.absorb(fresh).map_err(err)?;
        }
        for (id, delta) in deltas {
            self.apply_views(id, &delta);
        }
        if !derived.is_empty() {
            self.place(derived)?;
        }

        if placement_digest(&self.cluster) != expect_placement {
            return Err(format!("ledger cycle {cycle}: placement differs from the runner's"));
        }
        Ok(())
    }

    fn apply_views(&mut self, array: ArrayId, delta: &DeltaSet) {
        let stats = trace::timed("query.view_apply", || self.views.apply(array, delta));
        trace::count("query.view_delta_rows", stats.delta_rows);
        trace::count("query.view_rows_changed", stats.rows_changed);
    }

    /// Cycle-start crashes and revivals, then repair to convergence.
    fn faults(&mut self, cycle: usize) -> Result<(), String> {
        let Some(plan) = self.config.fault_plan.clone() else { return Ok(()) };
        let events: Vec<FaultKind> = plan.events_at(cycle).collect();
        if events.is_empty() && !self.cluster.has_faulted_nodes() {
            return Ok(());
        }
        let _span = trace::span("cluster.crash_repair");
        for kind in events {
            match kind {
                FaultKind::Crash(n) => self.cluster.crash_node(NodeId(n)).map(|_| ()),
                FaultKind::Revive(n) => self.cluster.revive_node(NodeId(n)),
                other => return Err(format!("the ledger does not replay {other:?}")),
            }
            .map_err(err)?;
        }
        if !self.cluster.has_faulted_nodes() {
            return Ok(());
        }
        for _ in 0..MAX_RECOVERY_PASSES {
            let repair = self.cluster.plan_recovery();
            if repair.jobs.is_empty() {
                break;
            }
            let outcome = self.cluster.execute_recovery(&repair, &plan.backoff);
            trace::count("cluster.repair_bytes", outcome.repair_bytes());
            if outcome.repaired == 0 {
                break;
            }
        }
        if self.cluster.replica_census().is_full_strength() {
            let refilled: Vec<NodeId> = self
                .cluster
                .nodes()
                .filter(|n| n.state() == NodeState::Recovering)
                .map(|n| n.id)
                .collect();
            for id in refilled {
                self.cluster.mark_recovered(id).map_err(err)?;
            }
        }
        Ok(())
    }

    /// Apply the batches' retraction scripts to the node stores and the
    /// catalog copy, compacting chunks the tombstone-ratio GC trips on.
    fn retract(&mut self, batches: &[CellBatch]) -> Result<(), String> {
        for b in batches {
            let flat = b.retractions_flat();
            if flat.is_empty() {
                continue;
            }
            let schema = self.catalog.array(b.array).map_err(err)?.schema.clone();
            let nd = schema.ndims().max(1);
            let mut by_chunk: BTreeMap<ChunkCoords, Vec<i64>> = BTreeMap::new();
            for cell in flat.chunks_exact(nd) {
                by_chunk
                    .entry(chunk_of(&schema, cell).map_err(err)?)
                    .or_default()
                    .extend_from_slice(cell);
            }
            let mut gc_coords = Vec::new();
            for (coords, cells) in by_chunk {
                let key = ChunkKey::new(b.array, coords);
                if self.cluster.locate(&key).is_none() {
                    continue;
                }
                let outcome = trace::timed("cluster.retract_cells", || {
                    self.cluster.retract_cells(&key, &cells)
                })
                .map_err(err)?;
                trace::count("cluster.retracted_cells", outcome.retracted);
                if outcome.remaining_cells == 0 {
                    self.cluster.evict_chunk(&key).map_err(err)?;
                } else if self.config.gc_tombstone_ratio.is_finite() {
                    let payload =
                        self.cluster.payload(&key).ok_or("retracted chunk lost its payload")?;
                    let dead = payload.tombstone_count() as f64;
                    let physical = payload.physical_cell_count() as f64;
                    if physical > 0.0 && dead >= self.config.gc_tombstone_ratio * physical {
                        trace::timed("cluster.compact_chunk", || self.cluster.compact_chunk(&key))
                            .map_err(err)?;
                        gc_coords.push(coords);
                    }
                }
            }
            let watched = self.views.reads(b.array);
            let mut delta = DeltaSet::new();
            let stored = self.catalog.array_mut(b.array).map_err(err)?;
            if let Some(data) = stored.data.as_mut() {
                let outcome = trace::timed("array.delete_cells", || {
                    data.delete_cells_capturing(flat, |cell, values| {
                        if watched {
                            delta.push(cell.to_vec(), values, -1);
                        }
                    })
                })
                .map_err(err)?;
                for coords in data.prune_empty() {
                    stored.descriptors.remove(&coords);
                }
                for coords in &gc_coords {
                    trace::timed("array.compact", || data.compact_chunk(coords));
                }
                for coords in outcome.touched {
                    if let Some(chunk) = data.chunk(&coords) {
                        stored.descriptors.insert(coords, chunk.descriptor(b.array));
                    }
                }
            }
            if watched && !delta.is_empty() {
                self.apply_views(b.array, &delta);
            }
        }
        Ok(())
    }

    /// Route → place → commit, as the runner's ingest does.
    fn place(&mut self, batch: &[ChunkDescriptor]) -> Result<(), String> {
        let coordinator = self.cluster.coordinator();
        let prefix = batch_prefix_bytes(batch);
        let epoch = RouteEpoch::for_batch(&self.cluster, &prefix);
        let mut routes =
            trace::timed("core.route", || route_batch(self.partitioner.as_ref(), batch, &epoch, 1));
        trace::count("core.route_chunks", batch.len() as u64);
        if self.cluster.has_faulted_nodes() {
            for (desc, route) in batch.iter().zip(routes.iter_mut()) {
                if !self.cluster.node(*route).is_ok_and(|n| n.state().accepts_data()) {
                    *route = self.cluster.divert_route(&desc.key).ok_or("no healthy node")?;
                }
            }
        }
        trace::timed("cluster.place_batch", || self.cluster.place_batch(batch, &routes, 1))
            .map_err(err)?;
        trace::timed("core.commit", || self.partitioner.commit(batch, &routes));
        let mut flows = cluster_sim::FlowSet::new();
        for (desc, &node) in batch.iter().zip(&routes) {
            flows.push(coordinator, node, desc.bytes);
            for &holder in self.cluster.replica_holders(&desc.key) {
                flows.push(coordinator, holder, desc.bytes);
            }
            if let Ok(array) = self.catalog.array_mut(desc.key.array) {
                array.descriptors.insert(desc.key.coords, *desc);
            }
        }
        trace::timed("cluster.flow_solve", || flows.elapsed_secs(&self.config.cost));
        Ok(())
    }

    /// The pieces of a checkpoint and of its restore, each under its own
    /// span: encode catalog, cluster, partitioner table and view states
    /// through their public codecs, frame the lot, decode it all back,
    /// and check the restored world places chunks identically.
    pub fn codecs(&self) -> Result<(), String> {
        let mut w = ByteWriter::new();
        trace::timed("array.encode", || self.catalog.encode_into(&mut w));
        let catalog_bytes = w.len() as u64;
        trace::count("array.encoded_bytes", catalog_bytes);
        trace::timed("cluster.snapshot", || self.cluster.snapshot_into(&mut w));
        w.put_bytes(&self.partitioner.table_snapshot());
        trace::timed("query.view_export", || self.views.export_states(&mut w));
        let payload = w.into_bytes();
        let framed = trace::timed("durability.frame", || frame_record(&payload));

        let mut frames = RecordReader::new(&framed);
        let record = frames.next_record().map_err(err)?.ok_or("framed record did not read back")?;
        let mut r = ByteReader::new(record);
        let catalog = trace::timed("array.decode", || Catalog::decode_from(&mut r)).map_err(err)?;
        let payload_of = |key: &ChunkKey| {
            catalog.array(key.array).ok()?.data.as_ref()?.shared_chunk(&key.coords).cloned()
        };
        let cost: CostModel = self.config.cost.clone();
        let cluster =
            trace::timed("cluster.restore", || Cluster::restore_from(&mut r, cost, &payload_of))
                .map_err(err)?;
        r.bytes("partitioner table").map_err(err)?;
        let views = trace::timed("query.view_import", || {
            ViewRegistry::import_states(self.view_defs.clone(), &mut r)
        })
        .map_err(err)?;
        if placement_digest(&cluster) != placement_digest(&self.cluster) {
            return Err("restored cluster places chunks differently".to_string());
        }
        let same_views = views.views().len() == self.views.views().len()
            && views
                .views()
                .iter()
                .zip(self.views.views())
                .all(|(a, b)| a.snapshot() == b.snapshot());
        if !same_views {
            return Err("imported view states differ from the exported ones".to_string());
        }
        Ok(())
    }

    /// The maintain-vs-recompute pair: rebuild every view from the live
    /// cells of its inputs and check it equals the maintained one.
    pub fn recompute_views(&self) -> Result<(), String> {
        for (def, maintained) in self.view_defs.iter().zip(self.views.views()) {
            let bulks: Vec<(ArrayId, DeltaSet)> = def
                .inputs()
                .into_iter()
                .filter_map(|id| {
                    let data = self.catalog.array(id).ok()?.data.as_ref()?;
                    Some((id, DeltaSet::from_live_cells(data)))
                })
                .collect();
            let fresh = trace::timed("query.view_recompute", || {
                let mut view = def.instantiate();
                for (id, bulk) in &bulks {
                    view.apply(*id, bulk);
                }
                view
            });
            if fresh.snapshot() != maintained.snapshot() {
                return Err(format!("view {} differs from its recompute", def.name));
            }
        }
        Ok(())
    }
}

/// Chunk build at one and at two ingest threads over the same rows (the
/// only two-thread step of the benchmark), and the WAL encoding of the
/// same cycle's insert event.
pub fn build_and_encode(
    workload: &dyn Workload,
    config: &RunnerConfig,
    batches: &[CellBatch],
) -> Result<(), String> {
    let mut catalog = Catalog::new();
    workload.register_arrays(&mut catalog);
    for b in batches {
        let schema = catalog.array(b.array).map_err(err)?.schema.clone();
        let build = |span: &'static str, threads: usize, rows: CellBuffer| {
            let schema = schema.clone();
            trace::timed(span, || {
                build_cell_array_encoded(b.array, schema, rows, threads, config.string_encoding)
            })
            .map_err(err)
        };
        let one = build("workloads.build_cell_array", 1, b.rows().clone())?;
        let two = build("workloads.build_cell_array_t2", 2, b.rows().clone())?;
        if one.descriptors() != two.descriptors() {
            return Err("two-thread chunk build differs from the one-thread build".to_string());
        }
    }
    let event = WalEvent::InsertCells { batches: batches.to_vec() };
    let encoded = trace::timed("workloads.wal_encode", || event.encode());
    trace::count("workloads.wal_encoded_bytes", encoded.len() as u64);
    Ok(())
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Replay every cycle of `inputs` through a fresh [`World`], scaling out
/// where the runner's `reports` say it did and checking each cycle's
/// placement against the runner's.
pub fn replay(
    workload: &dyn Workload,
    config: &RunnerConfig,
    view_defs: Vec<ViewDef>,
    inputs: &Inputs,
    reports: &[CycleReport],
    placements: &[u64],
) -> Result<World, String> {
    let mut world = World::new(workload, config, view_defs);
    for (c, (report, &placement)) in reports.iter().zip(placements).enumerate() {
        world.cycle(
            c,
            inputs.cells[c].clone(),
            &inputs.inserts[c],
            &inputs.derived[c],
            report.added_nodes,
            placement,
        )?;
    }
    Ok(world)
}
