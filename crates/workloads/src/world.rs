//! The state a cycle transforms, and the phases that transform it.
//!
//! [`World`] is five values — exactly what a checkpoint serializes and
//! recovery rebuilds: the `cluster` (roster, placement, loads, replicas,
//! and the node stores, which are the only home a partitioned array's
//! cells have; the placement index is the one book of a partitioned
//! chunk), the `catalog` (the workload's registrations, as
//! [`Workload::register_arrays`] made them: the run never writes it),
//! the `partitioner`'s routing table, the staircase `provisioner`'s demand
//! history (present exactly under the staircase policy, which is
//! *decided* from it — one source for that fact), and the incremental
//! `views`. Construction, the partitioner recipe and the checkpoint
//! format ([`World::encode_into`] / [`World::decode`]) live here and
//! nowhere else; `decode` returns a new `World` or an error, so a failed
//! restore has nothing it could leave half-updated.
//!
//! # The phases, and why in this order
//!
//! [`WorkloadRunner::run_cycle`](crate::WorkloadRunner::run_cycle) calls
//! one method per phase of the paper's §3.4 cycle, logging each one's
//! input first (nothing here touches the log). Each phase adds its
//! counters straight into the cycle's [`CycleReport`]: what a phase did
//! is the change in the report across it, and no phase keeps a tally of
//! its own.
//!
//! 1. [`World::inject_faults`] — cycle-start crashes, drains, revivals,
//!    then repair to full replica strength: every later phase runs on
//!    the roster the cycle really has.
//! 2. [`World::retract`] — the delete script (eviction, tombstone GC,
//!    negative view deltas). *Before* the scale decision: deletes shrink
//!    stored demand before the provisioner prices it, so a trough is
//!    priced the cycle it opens, not one cycle late.
//! 3. [`World::build_chunks`] — cell batches become real chunks, whose
//!    actual byte sizes are the cycle's insert demand.
//! 4. [`World::scale_decision`], then [`World::provision`] — scale-out
//!    and rebalance, or scale-in and drain. *Before* ingest (§3.4: the
//!    database "redistributes the preexisting chunks, and finally
//!    inserts the new ones"): the rebalance moves only old data, and the
//!    new batch routes against the roster it will live on.
//!    Rebalance-window crashes and their repair land in between.
//! 5. [`World::ingest`] — route → place → commit the routing table →
//!    attach payloads → positive view deltas (after the negative ones:
//!    views see the cycle's changes in the order the stores do).
//! 6. [`World::run_queries`] — read-only, over the post-ingest placement.
//! 7. [`World::store_derived`] — the suites' products are placed like
//!    any batch, then the controller sees the demand it faces next.

use crate::cycle::{CycleError, CycleReport, RunnerConfig, ScalingPolicy};
use crate::durable::mismatch;
use crate::faults::{FaultKind, FaultPlan};
use crate::spec::{CellBatch, SuiteReport, Workload};
use array_model::{
    Array, ArrayId, Chunk, ChunkDescriptor, ChunkKey, DeltaSet, ScriptGroup, ScriptGroups,
};
use cluster_sim::{
    gb, Cluster, ClusterError, Flakiness, FlowSet, MidCrash, NodeId, NodeState, RebalancePlan,
};
use durability::{ascending, ByteReader, ByteWriter, DurabilityError};
use elastic_core::{
    batch_prefix_bytes, build_partitioner, route_all, unlocated, Partitioner, ProvisionDecision,
    RouteEpoch, StaircaseProvisioner,
};
use query_engine::view::{ViewDef, ViewRegistry};
use query_engine::{Catalog, ExecutionContext};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Threshold-triggered tombstone GC: does `payload` want compacting?
/// Its tombstones have reached [`RunnerConfig::gc_tombstone_ratio`] of
/// its physical rows.
fn gc_trips(config: &RunnerConfig, payload: &Chunk) -> bool {
    let dead = payload.tombstone_count() as f64;
    let physical = payload.physical_cell_count() as f64;
    config.gc_tombstone_ratio.is_finite()
        && physical > 0.0
        && dead >= config.gc_tombstone_ratio * physical
}

/// Match `group`, one chunk's share of a retraction script, against
/// `chunk`: into `out`, one entry per script cell — the physical row it
/// retracts, or `None` for a miss. A script that re-lists a chunk with
/// no tombstones row by row, in order (equal flat coordinate buffers,
/// so equal cell counts too), retracts every row exactly once: that
/// takes one comparison, not the per-cell kernel. Any other script goes
/// to [`Chunk::match_retractions`]. The two may pair duplicate
/// coordinates with their rows differently, never a different set of
/// rows.
fn match_group(chunk: &Chunk, group: &ScriptGroup<'_>, out: &mut Vec<Option<u32>>) {
    out.clear();
    if chunk.tombstone_count() == 0 && group.cells_flat() == chunk.coords_flat() {
        out.extend(chunk.live_rows().map(Some));
    } else {
        chunk.match_retractions(group.cells(), out);
    }
}

/// What a retraction script does to one chunk: how many of its cells
/// hit, and what becomes of the chunk.
struct Retirement {
    retracted: u64,
    fate: Fate,
}

enum Fate {
    /// No cell hit and the GC has nothing to do: the handle stands.
    Stands,
    /// The script names every live row: the chunk goes, whole, never
    /// copied or tombstoned. `residual` is what the emptied chunk would
    /// still have weighed — its size minus its rows' cost, non-zero when
    /// dictionary entries outlive their rows.
    Dropped { residual: u64 },
    /// The rows were tombstoned on one copy of the chunk, which was then
    /// compacted if that tripped the GC (`reclaimed`); every holder takes
    /// this handle.
    Rebuilt { chunk: Arc<Chunk>, reclaimed: Option<i64> },
}

impl Retirement {
    /// Decide `chunk`'s fate under `rows`, the rows a script matched on
    /// it — from the input alone: there is no threshold between dropping
    /// and rebuilding, only whether the script covers the chunk.
    fn of(config: &RunnerConfig, chunk: &Chunk, rows: impl Iterator<Item = u32> + Clone) -> Self {
        // usize → u64 widens on every target this builds for.
        let retracted = rows.clone().count() as u64;
        let fate = if retracted == chunk.cell_count() {
            Fate::Dropped { residual: chunk.byte_size() - chunk.rows_byte_cost(rows) }
        } else if retracted == 0 && !gc_trips(config, chunk) {
            Fate::Stands
        } else {
            let mut copy = chunk.clone();
            copy.tombstone_rows(rows);
            let reclaimed = gc_trips(config, &copy).then(|| copy.compact());
            Fate::Rebuilt { chunk: Arc::new(copy), reclaimed }
        };
        Retirement { retracted, fate }
    }
}

/// Everything a workload run mutates (see the module docs).
pub(crate) struct World {
    pub(crate) cluster: Cluster,
    pub(crate) catalog: Catalog,
    pub(crate) partitioner: Box<dyn Partitioner>,
    pub(crate) provisioner: Option<StaircaseProvisioner>,
    pub(crate) views: ViewRegistry,
    /// The one delta the phases extract into: cleared and refilled per
    /// array by [`World::retract`] and [`World::ingest`], folded into the
    /// views, and kept — after the first cycles its buffers are as large
    /// as a cycle's largest delta and are not reallocated. Scratch, not
    /// state: nothing reads it before clearing it, no checkpoint holds it.
    delta: DeltaSet,
}

impl World {
    /// The world before cycle 0: `config.initial_nodes` empty nodes, the
    /// workload's arrays registered, a fresh partitioner, no views.
    pub(crate) fn new(workload: &dyn Workload, config: &RunnerConfig) -> World {
        let mut cluster = Cluster::with_replication(
            config.initial_nodes,
            config.node_capacity,
            config.cost.clone(),
            config.replication,
        )
        .expect("initial node count is positive");
        let mut catalog = Catalog::new();
        workload.register_arrays(&mut catalog);
        // Register every array's chunk-grid extents so the cluster's
        // placement index runs dense (O(1), allocation-free) instead of
        // hashing. Unbounded dimensions take the workload's grid hint as
        // their expected extent — exceeding it only spills to a hash map.
        let hint = workload.grid_hint();
        for stored in catalog.arrays() {
            let extents: Vec<i64> = stored
                .schema
                .dimensions
                .iter()
                .enumerate()
                .map(|(d, dim)| {
                    let hinted =
                        (stored.schema.ndims() == hint.ndims()).then(|| hint.chunk_counts[d]);
                    dim.chunk_count().or(hinted).unwrap_or(1024).max(1)
                })
                .collect();
            cluster.register_array(stored.id, &extents);
        }
        let partitioner = Self::partitioner_for(workload, config, &cluster);
        let provisioner = Self::provisioner_for(config);
        let (views, delta) = (ViewRegistry::new(), DeltaSet::new());
        World { cluster, catalog, partitioner, provisioner, views, delta }
    }

    /// The one recipe for a run's partitioner: kind + tunables (quad
    /// plane defaulting to the workload's) against a roster. A decoded
    /// world lays the checkpointed table on top.
    fn partitioner_for(
        workload: &dyn Workload,
        config: &RunnerConfig,
        cluster: &Cluster,
    ) -> Box<dyn Partitioner> {
        let mut pconfig = config.partitioner_config.clone();
        if pconfig.quad_plane.is_none() {
            pconfig.quad_plane = Some(workload.quad_plane());
        }
        build_partitioner(config.partitioner, cluster, &workload.grid_hint(), &pconfig)
    }

    /// A staircase policy keeps a controller; every other policy none.
    fn provisioner_for(config: &RunnerConfig) -> Option<StaircaseProvisioner> {
        match &config.scaling {
            ScalingPolicy::Staircase(cfg) => Some(StaircaseProvisioner::new(*cfg)),
            ScalingPolicy::Fixed | ScalingPolicy::FixedStep { .. } => None,
        }
    }

    /// A checkpoint's state section: catalog (the registrations),
    /// cells (every chunk payload the node stores hold, once), cluster
    /// (roster, placement, loads, replicas, which copies carry cells),
    /// partitioner table, provisioner history, view states.
    pub(crate) fn encode_into(&self, w: &mut ByteWriter) {
        self.catalog.encode_into(w);
        let cells = self.stored_cells();
        w.put_list(cells, |w, (key, chunk)| {
            // A chunk writes its own coordinates; the array completes the key.
            key.array.encode_into(w);
            chunk.encode_into(w);
        });
        self.cluster.snapshot_into(w);
        w.put_bytes(&self.partitioner.table_snapshot());
        w.put_bool(self.provisioner.is_some());
        if let Some(p) = &self.provisioner {
            w.put_list(p.history(), |w, &v| w.put_f64(v));
        }
        self.views.export_states(w);
    }

    /// Rebuild a world from a checkpoint's state section, for the same
    /// `(workload, config)` and view definitions the writer had. Besides
    /// what each section's codec checks, the sections are checked against
    /// each other and against the workload: the catalog section is, byte
    /// for byte, the workload's registrations; each chunk's cells fit
    /// their array's schema and are held by a node; and the partitioner's
    /// table — on the restored roster — locates every chunk the cluster
    /// places.
    pub(crate) fn decode(
        bytes: &[u8],
        workload: &dyn Workload,
        config: &RunnerConfig,
        view_defs: Vec<ViewDef>,
    ) -> Result<World, DurabilityError> {
        // The run never writes its catalog, so a checkpoint's must be the
        // registrations a fresh world starts from, compared as bytes the
        // way replay compares log records.
        let mut catalog = Catalog::new();
        workload.register_arrays(&mut catalog);
        let mut registered = ByteWriter::new();
        catalog.encode_into(&mut registered);
        let Some(rest) = bytes.strip_prefix(registered.into_bytes().as_slice()) else {
            let want = "the workload's registrations";
            return Err(mismatch("catalog section", want, "other bytes"));
        };
        let mut r = ByteReader::new(rest);
        let mut cells = BTreeMap::new();
        for _ in 0..r.count("cells section length", 4 + 1)? {
            let array = ArrayId::decode_from(&mut r)?;
            let chunk = Chunk::decode_from(&mut r)?;
            let key = ChunkKey::new(array, chunk.coords);
            if cells.contains_key(&key) {
                return Err(mismatch(format!("cells of {key}"), "written once", "written twice"));
            }
            ascending("cells section key", cells.keys().next_back(), &key)?;
            let fits = catalog.array(array).map_err(|e| e.to_string());
            if let Err(e) = fits.and_then(|a| chunk.matches(&a.schema).map_err(|e| e.to_string())) {
                return Err(mismatch(format!("cells of {key}"), "its array's schema", e));
            }
            cells.insert(key, Arc::new(chunk));
        }
        // Each chunk's record takes the one handle decoded for it, as the
        // run held one `Arc<Chunk>` per chunk.
        let cluster =
            Cluster::restore_from(&mut r, config.cost.clone(), &|key| cells.get(key).cloned())?;
        // Cells no copy took would vanish from the next checkpoint: the
        // section lists what the nodes hold, nothing else.
        if let Some((key, _)) = cells.iter().find(|(_, chunk)| Arc::strong_count(chunk) == 1) {
            return Err(mismatch(format!("cells of {key}"), "held by a node", "held by none"));
        }
        let mut partitioner = Self::partitioner_for(workload, config, &cluster);
        partitioner.table_restore(r.bytes("partitioner table")?, &cluster.node_ids())?;
        if let Some(key) = unlocated(partitioner.as_ref(), &cluster) {
            return Err(mismatch(format!("partitioner entry of {key}"), "present", "absent"));
        }
        let mut provisioner = Self::provisioner_for(config);
        let logged = r.bool("provisioner presence")?;
        if logged != provisioner.is_some() {
            let (want, got) = (provisioner.is_some().to_string(), logged.to_string());
            return Err(mismatch("provisioner presence (from the scaling policy)", want, got));
        }
        if let Some(p) = provisioner.as_mut() {
            for _ in 0..r.count("provisioner history length", 8)? {
                p.observe(r.f64("provisioner history sample")?);
            }
        }
        let views = ViewRegistry::import_states(view_defs, &mut r)?;
        r.finish("checkpoint blob")?;
        Ok(World { cluster, catalog, partitioner, provisioner, views, delta: DeltaSet::new() })
    }

    /// Every chunk payload the node stores hold, by key: one per chunk,
    /// on its record (a replica holder serves that same record).
    fn stored_cells(&self) -> BTreeMap<ChunkKey, &Arc<Chunk>> {
        let records = self.cluster.residents();
        records.filter_map(|r| Some((r.descriptor().key, r.payload()?))).collect()
    }

    pub(crate) fn nodes_in(&self, state: NodeState) -> Vec<NodeId> {
        self.cluster.nodes().filter(|n| n.state() == state).map(|n| n.id).collect()
    }

    /// Fold the extracted delta — one array's — into the views, counting
    /// rows in and out into `report`.
    fn apply_delta(&mut self, array: ArrayId, report: &mut CycleReport) {
        if !self.delta.is_empty() {
            let applied = self.views.apply(array, &self.delta);
            report.view_delta_rows += applied.delta_rows;
            report.view_rows_changed += applied.rows_changed;
        }
    }

    /// `node` if it accepts data; otherwise the deterministic accepting
    /// node the cluster diverts `key` to, if any is left.
    fn accepting(&self, node: NodeId, key: &ChunkKey) -> Option<NodeId> {
        if self.cluster.node(node).is_ok_and(|n| n.state().accepts_data()) {
            Some(node)
        } else {
            self.cluster.divert_route(key)
        }
    }

    /// Phase 1. Inject the cycle-start faults, then re-replicate
    /// whatever they exposed (skipped on an all-healthy roster).
    pub(crate) fn inject_faults(
        &mut self,
        cycle: usize,
        config: &RunnerConfig,
        faults: &CycleFaults,
        report: &mut CycleReport,
    ) -> Result<(), CycleError> {
        let refused = |source| CycleError::Fault { cycle, source };
        for kind in config.fault_plan.iter().flat_map(|plan| plan.events_at(cycle)) {
            match kind {
                FaultKind::Crash(n) => self.cluster.crash_node(NodeId(n)).map(|_| ()),
                FaultKind::Drain(n) => self.cluster.start_draining(NodeId(n)),
                FaultKind::Revive(n) => self.cluster.revive_node(NodeId(n)),
                // Injected later in the cycle: see `CycleFaults`.
                _ => Ok(()),
            }
            .map_err(refused)?;
        }
        if self.cluster.has_faulted_nodes() {
            self.repair(cycle, config, faults.flaky, faults.mid_crash, report)?;
        }
        Ok(())
    }

    /// Upper bound on plan → execute recovery passes per invocation. A
    /// mid-repair crash creates deficits the in-flight plan cannot see,
    /// so one pass is not always enough; flaky flows can starve a pass
    /// without emptying the plan. Four passes converge every schedule the
    /// suites drive while still bounding an adversarial one.
    const MAX_RECOVERY_PASSES: usize = 4;

    /// Drive recovery to convergence: plan → execute passes until the
    /// plan comes back empty or stops making progress, then — once no
    /// repairable chunk is under strength, whatever a crash lost — return
    /// any refilled `Recovering` nodes to full service and audit the
    /// replica books. Repair bytes, seconds (flows and backoff waits) and
    /// retries add into `report`.
    fn repair(
        &mut self,
        cycle: usize,
        config: &RunnerConfig,
        flaky: Option<Flakiness>,
        mut mid_crash: Option<MidCrash>,
        report: &mut CycleReport,
    ) -> Result<(), CycleError> {
        let policy = config.fault_plan.as_ref().map(|p| p.backoff).unwrap_or_default();
        for _ in 0..Self::MAX_RECOVERY_PASSES {
            let plan = self.cluster.plan_recovery();
            if plan.jobs.is_empty() {
                break;
            }
            let outcome =
                self.cluster.execute_recovery_with(&plan, &policy, flaky, mid_crash.take());
            report.repair_bytes = report.repair_bytes.saturating_add(outcome.repair_bytes());
            report.phases.repair_secs += outcome.repair_secs(&config.cost);
            report.repair_retries =
                report.repair_retries.saturating_add(u64::from(outcome.retries));
            if outcome.repaired == 0 {
                // No forward progress (retry budgets exhausted, or nothing
                // repairable remains): stop rather than spin.
                break;
            }
        }
        if self.cluster.replica_census().under == 0 {
            for id in self.nodes_in(NodeState::Recovering) {
                let refused = |source| CycleError::Fault { cycle, source };
                self.cluster.mark_recovered(id).map_err(refused)?;
            }
        }
        self.cluster.verify_replica_books().map_err(|source| CycleError::Recovery { cycle, source })
    }

    /// Phase 2. Apply every batch's retraction script to the node stores,
    /// once per chunk.
    ///
    /// The script is grouped by owning chunk ([`ScriptGroups`]); each
    /// group is matched, read-only, against the chunk's primary copy
    /// ([`Cluster::primary_payload`]). A group that re-lists a
    /// tombstone-free chunk's rows in order — a day replayed for expiry
    /// — matches every row at the cost of one buffer comparison; any
    /// other goes through the array model's batch kernel
    /// ([`Chunk::match_retractions`]). The matched rows leave the chunk
    /// as the views' negative delta — a column at a time, into the
    /// world's kept buffer
    /// ([`DeltaSet::extend_from_chunk`]; chunk order, which the views do
    /// not depend on) — and the chunk gets one [`Retirement`], decided
    /// from the input alone:
    ///
    /// * **Drop.** The script names every live row of the chunk: the
    ///   chunk is evicted — placement entry, primary, replicas — without
    ///   being copied or tombstoned first. Retired
    ///   bytes stop counting against demand immediately, which is what
    ///   lets the provisioner see the trough.
    /// * **Install.** Otherwise the rows are tombstoned on **one** copy
    ///   of the chunk; if its tombstones now reach
    ///   [`RunnerConfig::gc_tombstone_ratio`] of its physical rows that
    ///   copy is compacted too; and the one resulting handle goes to the
    ///   primary and every replica ([`Cluster::install_payload`]).
    ///
    /// A group whose chunk is not placed — never inserted, or already
    /// retracted whole — or is lost misses throughout: retraction is
    /// idempotent, and a lost chunk's cells are gone already. A chunk
    /// with no payload refuses the script, typed.
    pub(crate) fn retract(
        &mut self,
        cycle: usize,
        config: &RunnerConfig,
        batches: &[CellBatch],
        report: &mut CycleReport,
    ) -> Result<(), CycleError> {
        let rejected = |source| CycleError::Retract { cycle, source };
        let malformed = |source| CycleError::Materialize { cycle, source };
        let mut matched = Vec::new();
        for b in batches {
            let flat = b.retractions_flat();
            if flat.is_empty() {
                continue;
            }
            let unknown = |_| CycleError::UnknownArray { cycle, array: b.array };
            let schema = &self.catalog.array(b.array).map_err(unknown)?.schema;
            let script = ScriptGroups::of(schema, flat).map_err(malformed)?;
            let viewed = self.views.reads(b.array);
            self.delta.clear();
            for group in script.groups() {
                let key = ChunkKey::new(b.array, group.coords);
                let chunk = match self.cluster.primary_payload(&key) {
                    Ok(handle) => handle,
                    Err(ClusterError::MissingChunk(_) | ClusterError::ChunkLost(_)) => continue,
                    Err(refused) => return Err(rejected(refused)),
                };
                match_group(chunk, &group, &mut matched);
                let rows = matched.iter().flatten().copied();
                if viewed {
                    // Tombstoning keeps a row's values, but a dropped or
                    // compacted chunk does not: read them out first.
                    self.delta.extend_from_chunk(chunk, rows.clone(), -1);
                }
                let Retirement { retracted, fate } = Retirement::of(config, chunk, rows);
                report.retracted_cells += retracted;
                match fate {
                    Fate::Stands => {}
                    Fate::Dropped { residual } => {
                        self.cluster.evict_chunk(&key).map_err(rejected)?;
                        report.evicted_chunks += 1;
                        report.evicted_bytes += residual;
                    }
                    Fate::Rebuilt { chunk, reclaimed } => {
                        self.cluster.install_payload(&key, chunk).map_err(rejected)?;
                        report.gc_compacted_chunks += usize::from(reclaimed.is_some());
                        report.gc_reclaimed_bytes += reclaimed.unwrap_or(0);
                    }
                }
            }
            self.apply_delta(b.array, report);
        }
        Ok(())
    }

    /// Phase 3. Build each cell batch into real chunks, under the run's
    /// string encoding, through the array model's batch kernel
    /// ([`Array::insert_batch_owned`], which moves each batch's values
    /// into its chunks). The returned arrays hold the cycle's fresh
    /// chunks only; descriptors derived from them carry actual
    /// `byte_size()` / `cell_count()` instead of sampled sizes.
    pub(crate) fn build_chunks(
        &self,
        cycle: usize,
        config: &RunnerConfig,
        batches: Vec<CellBatch>,
    ) -> Result<Vec<Array>, CycleError> {
        let build = |b: CellBatch| {
            let Ok(stored) = self.catalog.array(b.array) else {
                return Err(CycleError::UnknownArray { cycle, array: b.array });
            };
            let mut fresh =
                Array::with_encoding(b.array, stored.schema.clone(), config.string_encoding);
            fresh
                .insert_batch_owned(b.into_rows())
                .map_err(|source| CycleError::Materialize { cycle, source })?;
            Ok(fresh)
        };
        batches.into_iter().map(build).collect()
    }

    /// Most nodes one cycle adds, whatever the policy. Generous — the
    /// paper's schedules add 2 — but finite, so a runaway demand signal
    /// (or a restored provisioner history that implies one) cannot
    /// allocate an unbounded roster; hitting the cap is surfaced through
    /// [`CycleReport::scale_saturated`](crate::CycleReport::scale_saturated)
    /// rather than dropped.
    const MAX_STEP_ADD: u64 = 4096;

    /// A scale-out of `add` nodes, held to [`World::MAX_STEP_ADD`].
    fn scale_out_step(add: u64) -> ScaleStep {
        let saturated = add > Self::MAX_STEP_ADD;
        // At most MAX_STEP_ADD: the cast cannot truncate.
        ScaleStep { add: add.min(Self::MAX_STEP_ADD) as usize, remove: 0, saturated }
    }

    /// Phase 4, the verdict. Decide how the roster changes for a
    /// projected `demand_bytes`: nodes to add, nodes to release, and
    /// whether the decision saturated the per-cycle cap. Both counts run
    /// off the *active* roster — retired nodes keep their slot but
    /// contribute no capacity.
    ///
    /// A world with a provisioner asks it (only the staircase ever
    /// shrinks, and only when its `shrink_margin` hysteresis band is
    /// enabled). FixedStep is closed-form integer arithmetic: the
    /// smallest multiple of `add` that brings `trigger × capacity` back
    /// above demand. Either way a scale-out is held to
    /// [`World::MAX_STEP_ADD`].
    pub(crate) fn scale_decision(&self, config: &RunnerConfig, demand_bytes: u64) -> ScaleStep {
        let step = |add, remove| ScaleStep { add, remove, saturated: false };
        if let Some(provisioner) = &self.provisioner {
            return match provisioner.decide(self.cluster.active_node_count(), gb(demand_bytes)) {
                ProvisionDecision::Stay => step(0, 0),
                ProvisionDecision::ScaleOut { add_nodes } => {
                    Self::scale_out_step(u64::try_from(add_nodes).unwrap_or(u64::MAX))
                }
                ProvisionDecision::ScaleIn { remove_nodes } => step(0, remove_nodes),
            };
        }
        let ScalingPolicy::FixedStep { add, trigger } = &config.scaling else {
            return step(0, 0);
        };
        // Usable bytes per node under the trigger fraction. The one
        // f64 rounding happens here, floor-ward, which can only
        // over-provision by at most one step — never under.
        let usable = (trigger * config.node_capacity as f64) as u64;
        if usable == 0 {
            // Degenerate policy (zero trigger or capacity): no node
            // count can ever satisfy demand.
            return ScaleStep { saturated: demand_bytes > 0, ..step(0, 0) };
        }
        let needed = demand_bytes.div_ceil(usable);
        let have = self.cluster.active_node_count() as u64;
        if needed <= have {
            return step(0, 0);
        }
        let stride = (*add).max(1) as u64;
        Self::scale_out_step((needed - have).div_ceil(stride) * stride)
    }

    /// Phase 4, the execution: grow and rebalance, or drain and retire;
    /// then the rebalance-window crashes — after any data movement,
    /// before the ingest — and the repair behind them, whose costs add to
    /// those of the cycle-start repair.
    pub(crate) fn provision(
        &mut self,
        cycle: usize,
        config: &RunnerConfig,
        step: &ScaleStep,
        faults: &CycleFaults,
        report: &mut CycleReport,
    ) -> Result<(), CycleError> {
        if step.add > 0 {
            let new_nodes = self.cluster.add_nodes(step.add, config.node_capacity);
            let plan = self.partitioner.scale_out(&self.cluster, &new_nodes);
            let plan = self.sanitize_rebalance(plan);
            report.moved_bytes += plan.moved_bytes();
            let rejected = |source| CycleError::Reorg { cycle, source };
            let flows = self.cluster.apply_rebalance(&plan).map_err(rejected)?;
            report.phases.reorg_secs += flows.elapsed_secs(&config.cost);
        }
        // Scale-in: drain the highest-id healthy nodes through the flow
        // solver and retire them (the staircase releases its newest steps
        // first, matching the tail-first capacity walk the provisioner
        // priced). Never drops the roster below the replication factor's
        // worth of serving nodes — a deeper shrink request is clamped,
        // not failed. Drain time and bytes count as reorganization.
        if step.remove > 0 {
            let mut healthy = self.nodes_in(NodeState::Healthy);
            healthy.sort_unstable();
            let spare = healthy.len().saturating_sub(config.replication.max(1));
            let mut drain_secs = 0.0;
            let failed = |source| CycleError::ScaleIn { cycle, source };
            for &id in healthy.iter().rev().take(step.remove.min(spare)) {
                let drained = self.cluster.decommission_node(id).map_err(failed)?;
                drain_secs += drained.flows.elapsed_secs(&config.cost);
                report.moved_bytes += drained.drained_bytes;
                report.removed_nodes += 1;
            }
            report.phases.reorg_secs += drain_secs;
        }
        if !faults.rebalance_crashes.is_empty() {
            let refused = |source| CycleError::Fault { cycle, source };
            for &node in &faults.rebalance_crashes {
                self.cluster.crash_node(node).map_err(refused)?;
            }
            self.repair(cycle, config, faults.flaky, None, report)?;
        }
        Ok(())
    }

    /// Rewrite a scale-out rebalance plan against the faulted roster. The
    /// partitioners are deliberately fault-blind — their ring/tree view
    /// stays stable across crashes so fault-free runs stay bit-identical —
    /// which means a plan can move chunks that a crash already promoted
    /// elsewhere, or target a node that no longer accepts
    /// data. Stale sources are dropped (there is nothing left to move);
    /// unavailable destinations are diverted exactly like ingest routes.
    /// Fault-free runs return the plan untouched.
    fn sanitize_rebalance(&self, plan: RebalancePlan) -> RebalancePlan {
        if !self.cluster.has_faulted_nodes() {
            return plan;
        }
        let mut out = RebalancePlan::empty();
        for m in plan.moves {
            if self.cluster.locate(&m.key) != Some(m.from) {
                continue;
            }
            // A diverted move may land on a replica holder; the cluster
            // supersedes that replica with the arriving primary, so any
            // accepting node but the source itself is a legal target.
            match self.accepting(m.to, &m.key) {
                Some(to) if to == m.to || to != m.from => out.push(m.key, m.from, to, m.bytes),
                _ => {}
            }
        }
        out
    }

    /// Phase 5. Place the cycle's descriptors, hand each fresh chunk to
    /// the nodes that own it (§3.4: the coordinator distributes the
    /// incoming chunks; nothing of them stays behind), fold the inserted
    /// cells into the views as `+1` deltas. The insert's simulated
    /// seconds add into `report`.
    pub(crate) fn ingest(
        &mut self,
        cycle: usize,
        config: &RunnerConfig,
        batch: &[ChunkDescriptor],
        arrays: Option<Vec<Array>>,
        report: &mut CycleReport,
    ) -> Result<(), CycleError> {
        let rejected = |source| CycleError::Ingest { cycle, source };
        let flows = self.place_batch(batch).map_err(rejected)?;
        // Attach the chunks to the nodes that just received their
        // descriptors: the primary and every replica take the **same**
        // `Arc<Chunk>` handle — a refcount bump per copy — and rebalances
        // move the handle.
        for fresh in arrays.unwrap_or_default() {
            let id = fresh.id;
            // A fresh array holds exactly this cycle's inserted cells:
            // its +1 delta is read out of it, and folded into the views
            // once the chunks are in the stores.
            self.delta.clear();
            if self.views.reads(id) {
                self.delta.extend_live_cells(&fresh);
            }
            for (coords, chunk) in fresh.shared_chunks() {
                let key = ChunkKey::new(id, *coords);
                self.cluster.attach_payload(key, Arc::clone(chunk)).map_err(rejected)?;
            }
            self.apply_delta(id, report);
        }
        report.phases.insert_secs += flows.elapsed_secs(&config.cost);
        Ok(())
    }

    /// Place a batch of chunks through the route → place → commit
    /// pipeline, returning the coordinator-fed flow set: the whole batch
    /// routes against one epoch, then places in one pass in batch order
    /// ([`Cluster::place_all`]).
    fn place_batch(&mut self, batch: &[ChunkDescriptor]) -> Result<FlowSet, ClusterError> {
        let coordinator = self.cluster.coordinator();
        // Route the whole batch against one epoch snapshot...
        let prefix = batch_prefix_bytes(batch);
        let epoch = RouteEpoch::for_batch(&self.cluster, &prefix);
        let mut routes = route_all(self.partitioner.as_ref(), batch, &epoch);
        // Partitioners route against the full roster; with nodes out of
        // service, divert each such hit to a deterministic accepting node.
        // Fault-free runs skip this pass entirely, keeping the healthy
        // path bit-identical to the pre-fault runner.
        if self.cluster.has_faulted_nodes() {
            for (desc, route) in batch.iter().zip(routes.iter_mut()) {
                *route = self.accepting(*route, &desc.key).ok_or(ClusterError::NoHealthyNodes)?;
            }
        }
        // ...place it (rolls back wholesale on duplicates)...
        self.cluster.place_all(batch, &routes)?;
        // ...then commit the partitioner's table mutations sequentially
        // (diverted routes included, so later lookups agree with the
        // placement).
        self.partitioner.commit(batch, &routes);
        let mut flows = FlowSet::new();
        for (desc, &node) in batch.iter().zip(&routes) {
            flows.push(coordinator, node, desc.bytes);
            // Replica copies cost real bytes too: the coordinator fans the
            // same payload to every holder the placement just installed.
            // Empty at k = 1.
            for &holder in self.cluster.replica_holders(&desc.key) {
                flows.push(coordinator, holder, desc.bytes);
            }
        }
        Ok(flows)
    }

    /// Phase 6. The workload's §3.3 suites over the current placement.
    pub(crate) fn run_queries(&self, workload: &dyn Workload, cycle: usize) -> SuiteReport {
        workload.run_suites(&ExecutionContext::new(&self.cluster, &self.catalog), cycle)
    }

    /// Phase 7. Place the derived (query-product) chunks — the simulated
    /// seconds that took add to the suites' query seconds — then feed the
    /// controller the demand it will see next cycle.
    pub(crate) fn store_derived(
        &mut self,
        cycle: usize,
        config: &RunnerConfig,
        derived: &[ChunkDescriptor],
        report: &mut CycleReport,
    ) -> Result<(), CycleError> {
        if !derived.is_empty() {
            let rejected = |source| CycleError::Derived { cycle, source };
            let flows = self.place_batch(derived).map_err(rejected)?;
            report.phases.query_secs += flows.elapsed_secs(&config.cost);
        }
        if let Some(p) = self.provisioner.as_mut() {
            p.observe(gb(self.cluster.total_used()));
        }
        Ok(())
    }
}

/// The cycle's scheduled faults that fire *inside* a phase (crashes,
/// drains and revivals fire at cycle start, straight off the plan).
#[derive(Default)]
pub(crate) struct CycleFaults {
    /// Nodes felled right after the rebalance phase.
    rebalance_crashes: Vec<NodeId>,
    /// Flow-drop injection threaded through every recovery pass.
    flaky: Option<Flakiness>,
    /// Mid-repair crash threaded through the first recovery pass.
    mid_crash: Option<MidCrash>,
}

impl CycleFaults {
    /// The faults `plan` schedules for `cycle`.
    pub(crate) fn scheduled(plan: Option<&FaultPlan>, cycle: usize) -> CycleFaults {
        let mut out = CycleFaults::default();
        let Some(plan) = plan else { return out };
        for kind in plan.events_at(cycle) {
            match kind {
                FaultKind::Crash(_) | FaultKind::Drain(_) | FaultKind::Revive(_) => {}
                FaultKind::CrashDuringRebalance(n) => out.rebalance_crashes.push(NodeId(n)),
                FaultKind::CrashDuringRecovery { node, after_jobs } => {
                    out.mid_crash = Some(MidCrash { after_jobs, node: NodeId(node) })
                }
                FaultKind::FlakyFlows { p } => {
                    out.flaky = Some(Flakiness { p, seed: plan.cycle_seed(cycle) })
                }
            }
        }
        out
    }
}

/// One cycle's provisioning verdict: nodes to add, nodes to release,
/// and whether the policy saturated its per-cycle cap. `add` and
/// `remove` are never both nonzero — the staircase's hysteresis band
/// guarantees a shrink can't re-trip the scale-out threshold.
pub(crate) struct ScaleStep {
    pub(crate) add: usize,
    pub(crate) remove: usize,
    pub(crate) saturated: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use array_model::{ArraySchema, ChunkCoords, ScalarValue};

    /// One 8 × 8 chunk of `[t, x] → [double, string]`, with the cell
    /// `[0, 1]` inserted twice.
    fn chunk() -> (ArraySchema, Chunk) {
        let schema = ArraySchema::parse("A<v:double, s:string>[t=0:7,8, x=0:7,8]").unwrap();
        let mut chunk = Chunk::new(&schema, ChunkCoords::from_slice(&[0, 0]));
        for (i, cell) in [[0, 0], [0, 1], [1, 1], [0, 1], [2, 3]].into_iter().enumerate() {
            let values =
                vec![ScalarValue::Double(i as f64), ScalarValue::Str(format!("s{}", i % 2))];
            chunk.push_cell(&schema, cell.to_vec(), values).unwrap();
        }
        (schema, chunk)
    }

    /// What retracting `rows` does: the chunk's `Retirement` as (kind,
    /// retracted, residual — or the rebuilt chunk's size) and the
    /// negative delta's rows as a multiset.
    fn outcome(chunk: &Chunk, rows: &[Option<u32>]) -> ((&'static str, u64, u64), Vec<String>) {
        let rows = rows.iter().flatten().copied();
        let mut delta = DeltaSet::new();
        delta.extend_from_chunk(chunk, rows.clone(), -1);
        let mut delta: Vec<String> = delta.rows().map(|r| format!("{r:?}")).collect();
        delta.sort();
        let Retirement { retracted, fate } = Retirement::of(&RunnerConfig::default(), chunk, rows);
        let kind = match fate {
            Fate::Stands => ("stands", retracted, 0),
            Fate::Dropped { residual } => ("dropped", retracted, residual),
            Fate::Rebuilt { chunk, .. } => ("rebuilt", retracted, chunk.byte_size()),
        };
        (kind, delta)
    }

    /// `script`'s matches on `chunk` through the runner's `match_group`
    /// and through the kernel alone.
    fn matches(schema: &ArraySchema, chunk: &Chunk, script: &[[i64; 2]]) -> [Vec<Option<u32>>; 2] {
        let flat: Vec<i64> = script.iter().flatten().copied().collect();
        let groups = ScriptGroups::of(schema, &flat).unwrap();
        let group = groups.groups().next().unwrap();
        let (mut runner, mut kernel) = (Vec::new(), Vec::new());
        match_group(chunk, &group, &mut runner);
        chunk.match_retractions(group.cells(), &mut kernel);
        [runner, kernel]
    }

    #[test]
    fn a_script_that_relists_its_chunk_drops_it_as_the_kernel_would() {
        let (schema, chunk) = chunk();
        let relisted: Vec<[i64; 2]> =
            chunk.coords_flat().chunks_exact(2).map(|c| [c[0], c[1]]).collect();
        let [runner, kernel] = matches(&schema, &chunk, &relisted);
        // Every row once, in row order; the kernel pairs the two `[0, 1]`
        // cells with their rows the other way round.
        assert_eq!(runner, (0..5).map(Some).collect::<Vec<_>>());
        assert_eq!(kernel, [0, 3, 2, 1, 4].map(Some));
        let (retirement, delta) = outcome(&chunk, &runner);
        assert_eq!(retirement.0, "dropped");
        assert_eq!(retirement.1, 5);
        assert!(retirement.2 > 0, "the dictionary outlives the rows");
        assert_eq!((retirement, delta), outcome(&chunk, &kernel));
    }

    #[test]
    fn any_other_script_goes_to_the_kernel() {
        let (schema, chunk) = chunk();
        let relisted: Vec<[i64; 2]> =
            chunk.coords_flat().chunks_exact(2).map(|c| [c[0], c[1]]).collect();
        let mut tombstoned = chunk.clone();
        tombstoned.tombstone_rows([2]);
        let permuted: Vec<[i64; 2]> = relisted.iter().rev().copied().collect();
        let short = &relisted[..4];
        let extra: Vec<[i64; 2]> = relisted.iter().copied().chain([[2, 3]]).collect();
        let cases = [
            ("permuted", &chunk, &permuted[..]),
            ("tombstoned", &tombstoned, &relisted[..]),
            ("one cell short", &chunk, short),
            ("one cell extra", &chunk, &extra[..]),
        ];
        let kinds = cases.map(|(name, chunk, script)| {
            let [runner, kernel] = matches(&schema, chunk, script);
            assert_eq!(runner, kernel, "{name}");
            outcome(chunk, &runner).0 .0
        });
        // The kernel's answers: a permuted script, one that re-lists a
        // tombstoned row too, and one with an extra cell empty the chunk;
        // one cell short leaves a row standing.
        assert_eq!(kinds, ["dropped", "dropped", "rebuilt", "dropped"]);
    }
}
