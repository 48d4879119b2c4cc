//! Deterministic fault-injection schedules for the workload driver.
//!
//! A [`FaultPlan`] is a seeded list of cycle-indexed [`FaultEvent`]s. The
//! runner executes them at fixed points inside
//! [`run_cycle`](crate::WorkloadRunner::run_cycle) — crashes, drains, and
//! revivals fire before the cycle's scale decision; rebalance- and
//! recovery-interrupting crashes fire at their namesake phase — so a
//! given `(workload, config, plan)` triple replays bit-identically.
//! Randomness enters only through the in-tree `splitmix64`:
//! [`FaultKind::FlakyFlows`] derives its per-attempt draws from
//! [`FaultPlan::cycle_seed`], never from a global RNG.

use cluster_sim::BackoffPolicy;
use elastic_core::hashing::splitmix64;

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Cycle (0-based) at which the fault fires.
    pub cycle: usize,
    /// What happens.
    pub kind: FaultKind,
}

/// The fault vocabulary the runner can inject.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Fail-stop crash of node `n` at the start of the cycle: its local
    /// storage is lost in full and surviving replicas are promoted.
    Crash(u32),
    /// Crash node `n` immediately after the cycle's rebalance phase and
    /// before its ingest — the window where freshly moved chunks are most
    /// exposed. Fires at the same point even when the cycle does not
    /// scale (the rebalance was merely empty).
    CrashDuringRebalance(u32),
    /// Crash `node` after `after_jobs` jobs of the cycle's first
    /// recovery pass have been processed: a repair source failing
    /// mid-repair.
    CrashDuringRecovery {
        /// The node that fails.
        node: u32,
        /// Repair jobs processed before it does.
        after_jobs: usize,
    },
    /// Drop each repair-flow attempt this cycle with probability `p`,
    /// deterministically in `(plan seed, cycle, chunk, attempt)`.
    FlakyFlows {
        /// Per-attempt failure probability in `[0, 1]`.
        p: f64,
    },
    /// Start draining node `n`: it keeps serving reads and repair
    /// sources but accepts no new data (scale-IN preparation).
    Drain(u32),
    /// Revive crashed node `n` into `Recovering`: it accepts data again
    /// and refills through the recovery pass.
    Revive(u32),
}

/// A seeded, cycle-indexed fault schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Decorrelates [`FaultKind::FlakyFlows`] draws across plans that
    /// share a schedule shape.
    pub seed: u64,
    /// The schedule, in no particular order; events are matched by their
    /// `cycle` field.
    pub events: Vec<FaultEvent>,
    /// Retry budget charged when repair flows fail.
    pub backoff: BackoffPolicy,
}

impl FaultPlan {
    /// An empty schedule with the default backoff budget.
    pub fn new(seed: u64) -> Self {
        FaultPlan { seed, events: Vec::new(), backoff: BackoffPolicy::default() }
    }

    /// Builder: schedule `kind` at `cycle`.
    pub fn at(mut self, cycle: usize, kind: FaultKind) -> Self {
        self.events.push(FaultEvent { cycle, kind });
        self
    }

    /// Events scheduled for `cycle`, in insertion order.
    pub fn events_at(&self, cycle: usize) -> impl Iterator<Item = FaultKind> + '_ {
        self.events.iter().filter(move |e| e.cycle == cycle).map(|e| e.kind)
    }

    /// The per-cycle sub-seed flaky-flow draws derive from.
    pub fn cycle_seed(&self, cycle: usize) -> u64 {
        splitmix64(self.seed ^ cycle as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_builder_indexes_events_by_cycle() {
        let plan = FaultPlan::new(42)
            .at(1, FaultKind::Crash(0))
            .at(3, FaultKind::FlakyFlows { p: 0.5 })
            .at(1, FaultKind::Drain(2));
        assert_eq!(
            plan.events_at(1).collect::<Vec<_>>(),
            vec![FaultKind::Crash(0), FaultKind::Drain(2)]
        );
        assert_eq!(plan.events_at(0).count(), 0);
        assert_eq!(plan.events_at(3).collect::<Vec<_>>(), vec![FaultKind::FlakyFlows { p: 0.5 }]);
    }

    #[test]
    fn cycle_seeds_are_deterministic_and_distinct() {
        let plan = FaultPlan::new(7);
        assert_eq!(plan.cycle_seed(0), FaultPlan::new(7).cycle_seed(0));
        assert_ne!(plan.cycle_seed(0), plan.cycle_seed(1));
        assert_ne!(plan.cycle_seed(1), FaultPlan::new(8).cycle_seed(1));
    }
}
