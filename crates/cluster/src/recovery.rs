//! Deterministic crash recovery: repair planning, costed execution, and
//! bounded retry with exponential backoff.
//!
//! # Lifecycle state machine
//!
//! Every node carries a [`NodeState`](crate::NodeState); the legal
//! transitions, all driven by explicit `Cluster` calls, are:
//!
//! ```text
//!            crash_node                revive_node
//!  Healthy ─────────────▶ Crashed ─────────────────▶ Recovering
//!     │ ▲                    ▲                            │
//!     │ │ mark_recovered     │ crash_node                 │ mark_recovered
//!     ▼ │                    │                            ▼
//!  Draining ─────────────────┘                         Healthy
//! ```
//!
//! The failure model is **fail-stop with total local-storage loss**: a
//! crash strikes the node from every replica set and promotes each of
//! its primaries onto the first surviving holder (both through
//! `Cluster::drop_holder`, which moves the holder's ledger and the census
//! with the index), then wipes the node's store and zeroes its books
//! before it returns. A scale-IN retirement, the last step of
//! `Cluster::decommission_node`, leaves the roster through the same
//! departure step — the same refusals and the same strike — from
//! `Healthy` or `Draining`, and only empty. `Draining` (scale-IN
//! preparation) keeps serving reads but accepts no new data, so every
//! routing path — primary placement diversion, replica rings, repair
//! targets — walks around it.
//! `Recovering` is the inverse: a revived node rejoins empty and accepts
//! data again, which is exactly how repair refills it.
//!
//! # Repair-plan derivation
//!
//! [`Cluster::plan_recovery`] takes the placements in ascending key
//! order, off the placement index's ordered walk, and counts each
//! chunk's **serving copies**: its primary when the record is resident
//! on a serving node, plus every serving holder the replica index names
//! — the ground truth, never a re-derived route. A chunk below the
//! effective target `min(k, data-hosting nodes)` gets one [`RepairJob`]
//! per missing copy: the source is the serving primary (crash-time
//! promotion keeps primaries alive whenever any copy survived), else the
//! first serving replica holder; targets come from the chunk's
//! deterministic replica ring, skipping the primary, current holders,
//! and every node not accepting data. Chunks with zero serving copies are unrecoverable
//! from within the cluster and are reported, not silently dropped.
//!
//! [`Cluster::execute_recovery_with`] replays the plan against live
//! state, with or without injected faults: each job re-validates its
//! source and target (both may have failed since planning — or *during*
//! execution, which its `mid_crash` hook injects deterministically) and
//! falls over to an alternate serving source or the next ring target.
//! A completed copy lands through `Cluster::add_holder`, the replica
//! books' one writer for a new copy: the target becomes a holder in the
//! replica index, its replica ledger takes the chunk's bytes and the
//! census counts the copy. Every transfer is pushed into one [`FlowSet`]
//! so recovery time runs through the same half-duplex/fabric contention
//! solver as rebalance — repair is costed, never free.
//!
//! # Backoff policy
//!
//! A failed attempt — the planned source found dead, or a flow dropped by
//! injected [`Flakiness`] — costs `delay_for(attempt) = base_secs ×
//! factor^attempt` of simulated wall-clock before the retry, bounded by
//! `max_retries`; a job that exhausts its budget is reported
//! unrecovered. Flakiness is a pure function of `(seed, chunk key,
//! attempt)` via the in-tree splitmix64, so every schedule replays
//! bit-identically.

use crate::cluster::Cluster;
use crate::cost::CostModel;
use crate::node::NodeId;
use crate::placement::{key_hash, splitmix64, Slot};
use crate::transfer::FlowSet;
use array_model::ChunkKey;

/// One planned re-replication: copy `key` (`bytes` on the wire) from
/// `source` to `target`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepairJob {
    /// The under-replicated chunk.
    pub key: ChunkKey,
    /// Bytes the copy moves (the descriptor's declared size).
    pub bytes: u64,
    /// Serving node the copy reads from.
    pub source: NodeId,
    /// Node the new replica lands on.
    pub target: NodeId,
}

/// The deterministic output of [`Cluster::plan_recovery`].
#[derive(Debug, Clone, Default)]
pub struct RepairPlan {
    /// One entry per missing copy, in ascending chunk-key order.
    pub jobs: Vec<RepairJob>,
    /// Chunks with **zero** serving copies: nothing inside the cluster
    /// can source a repair (k=1 losses, or deeper failures than `k−1`).
    pub unrecoverable: Vec<ChunkKey>,
}

impl RepairPlan {
    /// No repairs needed and nothing lost.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty() && self.unrecoverable.is_empty()
    }

    /// Total bytes the planned copies would move.
    pub fn total_bytes(&self) -> u64 {
        self.jobs.iter().fold(0u64, |acc, j| acc.saturating_add(j.bytes))
    }
}

/// Exponential-backoff retry budget for repair flows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackoffPolicy {
    /// Simulated seconds charged before the first retry.
    pub base_secs: f64,
    /// Multiplier per successive retry.
    pub factor: f64,
    /// Attempts beyond the first before a job is abandoned.
    pub max_retries: u32,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy { base_secs: 0.5, factor: 2.0, max_retries: 5 }
    }
}

impl BackoffPolicy {
    /// Delay charged after failed attempt number `attempt` (0-based):
    /// `base_secs × factor^attempt`.
    pub fn delay_for(&self, attempt: u32) -> f64 {
        self.base_secs * self.factor.powi(i32::try_from(attempt).unwrap_or(i32::MAX))
    }
}

/// Deterministic flow-failure injection: attempt `a` of chunk `key`
/// fails iff `splitmix64(seed ⊕ hash(key) ⊕ a)` scales below `p`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Flakiness {
    /// Per-attempt failure probability in `[0, 1]`.
    pub p: f64,
    /// Seed decorrelating schedules from each other.
    pub seed: u64,
}

impl Flakiness {
    fn fails(&self, key: &ChunkKey, attempt: u32) -> bool {
        let h = splitmix64(self.seed ^ key_hash(key) ^ (u64::from(attempt) << 32));
        // Exact: both operands are below 2^53, so the ratio lies in [0, 1).
        ((h >> 11) as f64 / (1u64 << 53) as f64) < self.p
    }
}

/// Deterministic mid-repair failure injection: crash `node` after
/// `after_jobs` jobs of the plan have been processed — the "a flow's
/// source also fails mid-repair" scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MidCrash {
    /// Jobs processed before the crash fires.
    pub after_jobs: usize,
    /// The node that fails.
    pub node: NodeId,
}

/// What a recovery pass accomplished and what it cost.
#[derive(Debug, Clone, Default)]
pub struct RecoveryOutcome {
    /// Every completed repair transfer; feed to
    /// [`FlowSet::elapsed_secs`] (or [`RecoveryOutcome::repair_secs`])
    /// for the contention-solved wall clock.
    pub flows: FlowSet,
    /// Copies successfully re-replicated.
    pub repaired: usize,
    /// Jobs skipped because live state no longer needed them (a crash
    /// promotion or an earlier job already restored the copy).
    pub skipped: usize,
    /// Failed attempts that were retried.
    pub retries: u32,
    /// Simulated seconds spent waiting in exponential backoff.
    pub backoff_secs: f64,
    /// Chunks whose repair was abandoned: retry budget exhausted, or no
    /// serving source / eligible target remained.
    pub unrecovered: Vec<ChunkKey>,
}

impl RecoveryOutcome {
    /// Bytes actually moved by completed repairs.
    pub fn repair_bytes(&self) -> u64 {
        self.flows.total_bytes()
    }

    /// Simulated recovery wall clock: the repair flows through the
    /// half-duplex/fabric contention solver, plus backoff waits.
    pub fn repair_secs(&self, cost: &CostModel) -> f64 {
        self.flows.elapsed_secs(cost) + self.backoff_secs
    }
}

impl Cluster {
    /// The nodes serving a copy of `key`: the primary first (a placed
    /// chunk's home serves reads; a lost one has none), then every
    /// serving holder the replica index names, in route order. The one
    /// definition of a *serving copy* — the census counts these, repair
    /// planning sources from the first of them.
    pub(crate) fn serving_nodes(&self, key: &ChunkKey) -> impl Iterator<Item = NodeId> + '_ {
        let serves = |id: &NodeId| self.nodes[id.slot()].state().serves_reads();
        let primary = match self.home(key) {
            Some(Slot::Placed { home, .. }) => Some(*home),
            Some(Slot::Lost { .. }) | None => None,
        };
        primary.into_iter().chain(self.replica_holders(key).iter().copied().filter(serves))
    }

    /// How many serving copies `key` has ([`Cluster::serving_nodes`]).
    pub(crate) fn serving_copies(&self, key: &ChunkKey) -> usize {
        self.serving_nodes(key).count()
    }

    /// Effective per-chunk copy target right now.
    pub(crate) fn effective_target(&self) -> usize {
        let hosts = self.nodes.iter().filter(|n| n.state().accepts_data()).count();
        self.replication.min(hosts.max(1))
    }

    /// Derive the deterministic repair plan for the cluster's current
    /// state (see the module docs for the derivation rules). Read-only;
    /// execute with [`Cluster::execute_recovery_with`] (`None` for both
    /// faults runs it fault-free).
    pub fn plan_recovery(&self) -> RepairPlan {
        let target = self.effective_target();
        let mut plan = RepairPlan::default();
        for (key, _) in self.placements() {
            let mut serving = self.serving_nodes(&key);
            let Some(source) = serving.next() else {
                plan.unrecoverable.push(key);
                continue;
            };
            let copies = 1 + serving.count();
            if copies >= target {
                continue;
            }
            let bytes = self.primary_record(&key).map_or(0, |(.., r)| r.descriptor().bytes);
            let targets = self.replica_ring(&key).take(target - copies);
            plan.jobs.extend(targets.map(|target| RepairJob { key, bytes, source, target }));
        }
        plan
    }

    /// Execute a repair plan under injected faults: optional
    /// [`Flakiness`] dropping individual flow attempts, and an optional
    /// [`MidCrash`] felling a node partway through — after which affected
    /// jobs re-resolve their source (one backoff-charged retry) or
    /// target, exactly as the module docs describe. Infallible by
    /// design: what cannot be repaired is reported in
    /// [`RecoveryOutcome::unrecovered`], and the plan's own
    /// unrecoverable chunks carry over.
    pub fn execute_recovery_with(
        &mut self,
        plan: &RepairPlan,
        policy: &BackoffPolicy,
        flaky: Option<Flakiness>,
        mid_crash: Option<MidCrash>,
    ) -> RecoveryOutcome {
        let mut out = RecoveryOutcome {
            unrecovered: plan.unrecoverable.clone(),
            ..RecoveryOutcome::default()
        };
        for (j, job) in plan.jobs.iter().enumerate() {
            if let Some(mc) = mid_crash {
                if mc.after_jobs == j {
                    // The injected failure may be refused (last serving
                    // node); recovery proceeds against whatever survives.
                    let _ = self.crash_node(mc.node);
                }
            }
            // Live state may have healed this chunk already (a crash
            // promotion consumed the copy, or an earlier job landed it).
            if self.serving_copies(&job.key) >= self.effective_target()
                || self.replica_holders(&job.key).contains(&job.target)
            {
                out.skipped += 1;
                continue;
            }
            let mut attempt: u32 = 0;
            loop {
                let planned_ok = self.source_serves(&job.key, job.source);
                let source =
                    if planned_ok { Some(job.source) } else { self.alternate_source(&job.key) };
                let Some(src) = source else {
                    out.unrecovered.push(job.key);
                    break;
                };
                let flaked = flaky.is_some_and(|f| f.fails(&job.key, attempt));
                if flaked || (!planned_ok && attempt == 0) {
                    // First failure against a dead planned source, or an
                    // injected flow drop: pay backoff and retry.
                    if attempt >= policy.max_retries {
                        out.unrecovered.push(job.key);
                        break;
                    }
                    out.backoff_secs += policy.delay_for(attempt);
                    out.retries += 1;
                    attempt += 1;
                    continue;
                }
                let target = self.resolve_target(&job.key, job.target);
                let Some(tgt) = target else {
                    out.unrecovered.push(job.key);
                    break;
                };
                // `src` serves a copy, so the record is resident: `src`
                // holds it, or holds a replica of it (`verify_replica_books`).
                let (.., record) = self.primary_record(&job.key).expect("a serving copy's record");
                let bytes = record.descriptor().bytes;
                self.add_holder(&job.key, tgt, bytes);
                out.flows.push(src, tgt, bytes);
                out.repaired += 1;
                break;
            }
        }
        out
    }

    /// Does `node` still serve a copy (primary or replica) of `key`?
    fn source_serves(&self, key: &ChunkKey, node: NodeId) -> bool {
        self.serving_nodes(key).any(|n| n == node)
    }

    /// The deterministic fallback source: the serving primary, else the
    /// first serving replica holder in route order.
    fn alternate_source(&self, key: &ChunkKey) -> Option<NodeId> {
        self.serving_nodes(key).next()
    }

    /// The planned target if it still accepts data, else the next
    /// eligible node on the chunk's replica ring.
    fn resolve_target(&self, key: &ChunkKey, planned: NodeId) -> Option<NodeId> {
        // The ring is exactly the nodes eligible right now.
        let mut ring = self.replica_ring(key).peekable();
        let first = *ring.peek()?;
        Some(if ring.any(|n| n == planned) { planned } else { first })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::node::NodeState;
    use array_model::{ArrayId, ChunkCoords, ChunkDescriptor};

    fn desc(i: i64, bytes: u64) -> ChunkDescriptor {
        ChunkDescriptor::new(ChunkKey::new(ArrayId(0), ChunkCoords::new([i])), bytes, 1)
    }

    fn replicated_cluster(nodes: usize, k: usize, chunks: i64) -> Cluster {
        let mut c = Cluster::with_replication(nodes, 1_000_000, CostModel::default(), k).unwrap();
        for i in 0..chunks {
            c.place(desc(i, 100), NodeId((i % nodes as i64) as u32)).unwrap();
        }
        c
    }

    #[test]
    fn k1_cluster_plans_no_repairs_when_healthy() {
        let c = replicated_cluster(4, 1, 16);
        assert!(c.plan_recovery().is_empty());
        assert!(c.replica_census().is_full_strength());
    }

    #[test]
    fn crash_then_recovery_restores_full_strength() {
        let mut c = replicated_cluster(4, 2, 32);
        assert!(c.replica_census().is_full_strength());
        let report = c.crash_node(NodeId(1)).unwrap();
        assert_eq!(report.lost_primaries, 8);
        assert_eq!(report.promoted, 8, "every k=2 chunk has a surviving replica");
        assert!(report.lost.is_empty());
        // Promotion restores primaries; the census is under-replicated
        // until recovery rebuilds the consumed replicas.
        let census = c.replica_census();
        assert!(!census.is_full_strength());
        assert_eq!(census.lost, 0);

        let plan = c.plan_recovery();
        assert!(!plan.jobs.is_empty());
        assert!(plan.unrecoverable.is_empty());
        let outcome = c.execute_recovery_with(&plan, &BackoffPolicy::default(), None, None);
        assert_eq!(outcome.unrecovered, vec![]);
        assert_eq!(outcome.retries, 0);
        assert!(outcome.repair_bytes() > 0, "repair moved real bytes");
        assert!(outcome.repair_secs(&CostModel::default()) > 0.0);
        assert!(c.replica_census().is_full_strength());
        c.verify_replica_books().unwrap();
        assert!(c.plan_recovery().is_empty(), "recovery converges");
    }

    #[test]
    fn k1_crash_orphans_are_reported_not_repaired() {
        let mut c = replicated_cluster(3, 1, 9);
        let report = c.crash_node(NodeId(2)).unwrap();
        assert_eq!(report.promoted, 0);
        assert_eq!(report.lost.len(), 3);
        let plan = c.plan_recovery();
        assert!(plan.jobs.is_empty(), "no source exists for k=1 losses");
        assert_eq!(plan.unrecoverable.len(), 3);
        let outcome = c.execute_recovery_with(&plan, &BackoffPolicy::default(), None, None);
        assert_eq!(outcome.unrecovered.len(), 3);
        assert_eq!(c.replica_census().lost, 3);
    }

    #[test]
    fn mid_repair_source_crash_retries_with_backoff() {
        let mut c = replicated_cluster(4, 3, 24);
        c.crash_node(NodeId(1)).unwrap();
        let plan = c.plan_recovery();
        assert!(!plan.jobs.is_empty());
        // Fell one of the plan's sources right before its first job runs.
        let victim = plan.jobs[0].source;
        let mid = MidCrash { after_jobs: 0, node: victim };
        let policy = BackoffPolicy::default();
        let outcome = c.execute_recovery_with(&plan, &policy, None, Some(mid));
        assert!(outcome.retries > 0, "dead planned source costs a retry");
        assert!(outcome.backoff_secs >= policy.base_secs);
        c.verify_replica_books().unwrap();
        // Converge with follow-up passes (the second crash spawned new
        // deficits that the in-flight plan could not know about).
        for _ in 0..3 {
            let p = c.plan_recovery();
            if p.jobs.is_empty() {
                break;
            }
            c.execute_recovery_with(&p, &policy, None, None);
        }
        assert!(c.replica_census().is_full_strength());
    }

    #[test]
    fn flaky_flows_retry_deterministically() {
        let policy = BackoffPolicy { base_secs: 1.0, factor: 2.0, max_retries: 8 };
        let flaky = Flakiness { p: 0.5, seed: 7 };
        let run = |_: ()| {
            let mut c = replicated_cluster(5, 2, 40);
            c.crash_node(NodeId(2)).unwrap();
            let plan = c.plan_recovery();
            c.execute_recovery_with(&plan, &policy, Some(flaky), None)
        };
        let a = run(());
        let b = run(());
        assert!(a.retries > 0, "p=0.5 over dozens of jobs must drop some attempts");
        assert_eq!(a.retries, b.retries, "flakiness is a pure function of the seed");
        assert_eq!(a.backoff_secs.to_bits(), b.backoff_secs.to_bits());
        assert_eq!(a.repaired, b.repaired);
    }

    #[test]
    fn backoff_policy_is_exponential() {
        let p = BackoffPolicy { base_secs: 0.25, factor: 2.0, max_retries: 4 };
        assert_eq!(p.delay_for(0), 0.25);
        assert_eq!(p.delay_for(1), 0.5);
        assert_eq!(p.delay_for(3), 2.0);
    }

    #[test]
    fn draining_nodes_serve_repairs_but_receive_none() {
        let mut c = replicated_cluster(4, 2, 16);
        c.start_draining(NodeId(3)).unwrap();
        c.crash_node(NodeId(0)).unwrap();
        let plan = c.plan_recovery();
        for job in &plan.jobs {
            assert_ne!(job.target, NodeId(3), "draining nodes accept no repairs");
        }
        let outcome = c.execute_recovery_with(&plan, &BackoffPolicy::default(), None, None);
        assert!(outcome.unrecovered.is_empty());
        c.verify_replica_books().unwrap();
    }

    #[test]
    fn revived_node_refills_through_recovery() {
        let mut c = replicated_cluster(3, 2, 12);
        c.crash_node(NodeId(1)).unwrap();
        let plan = c.plan_recovery();
        let outcome = c.execute_recovery_with(&plan, &BackoffPolicy::default(), None, None);
        assert!(outcome.unrecovered.is_empty());
        // Revive: the node rejoins empty, in Recovering, and subsequent
        // repair passes may land copies on it again.
        c.revive_node(NodeId(1)).unwrap();
        assert_eq!(c.node(NodeId(1)).unwrap().used_bytes(), 0);
        assert!(c.node(NodeId(1)).unwrap().state().accepts_data());
        c.mark_recovered(NodeId(1)).unwrap();
        assert_eq!(c.node(NodeId(1)).unwrap().state(), NodeState::Healthy);
        // Double-revive of a healthy node is a typed error.
        assert!(matches!(
            c.revive_node(NodeId(1)),
            Err(crate::ClusterError::NodeUnavailable { .. })
        ));
    }
}
