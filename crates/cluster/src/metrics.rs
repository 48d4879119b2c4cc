//! Balance and cost metrics.
//!
//! The paper's two headline metrics live here:
//!
//! * **relative standard deviation** (RSD) of per-node storage — the
//!   balance labels of Figure 4 ("standard deviation divided by the mean,
//!   as a percent of the average host load");
//! * **node hours** — Equation 1's provisioning cost,
//!   `cost = Σ_i N_i (I_i + r_i + w_i)`.

/// Relative standard deviation of node loads, as a *fraction* (0.13 =
/// 13 %). Uses the population standard deviation, matching the paper's
/// per-insert census of every host. Returns 0 for empty or all-zero input.
pub fn relative_std_dev(loads: &[u64]) -> f64 {
    if loads.is_empty() {
        return 0.0;
    }
    let n = loads.len() as f64;
    let mean = loads.iter().map(|&b| b as f64).sum::<f64>() / n;
    if mean == 0.0 {
        return 0.0;
    }
    let var = loads
        .iter()
        .map(|&b| {
            let d = b as f64 - mean;
            d * d
        })
        .sum::<f64>()
        / n;
    var.sqrt() / mean
}

/// The phases of one workload cycle (§3.4), plus crash-repair time —
/// zero in fault-free runs, so Equation 1 is unchanged there, and costed
/// like reorganization when faults are injected (recovery holds the
/// provisioned nodes busy just as a rebalance does).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseBreakdown {
    /// Ingest duration `I_i` (seconds).
    pub insert_secs: f64,
    /// Reorganization duration `r_i` (seconds).
    pub reorg_secs: f64,
    /// Query workload duration `w_i` (seconds).
    pub query_secs: f64,
    /// Crash-repair duration (seconds): recovery flows through the
    /// contention solver plus retry backoff.
    pub repair_secs: f64,
}

impl PhaseBreakdown {
    /// Total seconds across all phases (repair included).
    pub fn total_secs(&self) -> f64 {
        self.insert_secs + self.reorg_secs + self.query_secs + self.repair_secs
    }
}

/// Accumulates Equation 1 over workload cycles.
#[derive(Debug, Clone, Default)]
pub struct NodeHoursLedger {
    cycles: Vec<(usize, PhaseBreakdown)>,
}

impl NodeHoursLedger {
    /// Start an empty ledger.
    pub fn new() -> Self {
        NodeHoursLedger::default()
    }

    /// Record one cycle executed on `nodes` provisioned nodes.
    pub fn record(&mut self, nodes: usize, phases: PhaseBreakdown) {
        self.cycles.push((nodes, phases));
    }

    /// Equation 1: Σ N_i (I_i + r_i + w_i), in node-hours.
    pub fn node_hours(&self) -> f64 {
        self.cycles.iter().map(|(n, p)| *n as f64 * p.total_secs()).sum::<f64>() / 3600.0
    }

    /// Total elapsed seconds regardless of node count.
    pub fn elapsed_secs(&self) -> f64 {
        self.cycles.iter().map(|(_, p)| p.total_secs()).sum()
    }

    /// Per-cycle view for reporting.
    pub fn cycles(&self) -> &[(usize, PhaseBreakdown)] {
        &self.cycles
    }

    /// Sum of each phase across all cycles, in seconds.
    pub fn phase_totals(&self) -> PhaseBreakdown {
        let mut out = PhaseBreakdown::default();
        for (_, p) in &self.cycles {
            out.insert_secs += p.insert_secs;
            out.reorg_secs += p.reorg_secs;
            out.query_secs += p.query_secs;
            out.repair_secs += p.repair_secs;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rsd_of_uniform_loads_is_zero() {
        assert_eq!(relative_std_dev(&[100, 100, 100]), 0.0);
        assert_eq!(relative_std_dev(&[]), 0.0);
        assert_eq!(relative_std_dev(&[0, 0]), 0.0);
    }

    #[test]
    fn rsd_matches_hand_computation() {
        // loads 50,150: mean 100, pop std dev 50 -> RSD 0.5
        let rsd = relative_std_dev(&[50, 150]);
        assert!((rsd - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rsd_grows_with_skew() {
        let balanced = relative_std_dev(&[90, 100, 110, 100]);
        let skewed = relative_std_dev(&[10, 10, 10, 370]);
        assert!(skewed > balanced * 5.0);
    }

    #[test]
    fn ledger_computes_equation_one() {
        let mut ledger = NodeHoursLedger::new();
        // 2 nodes busy for 1800 s each phase sum -> 1 node-hour
        ledger.record(
            2,
            PhaseBreakdown {
                insert_secs: 600.0,
                reorg_secs: 600.0,
                query_secs: 600.0,
                repair_secs: 0.0,
            },
        );
        assert!((ledger.node_hours() - 1.0).abs() < 1e-12);
        ledger.record(
            4,
            PhaseBreakdown {
                insert_secs: 900.0,
                reorg_secs: 0.0,
                query_secs: 900.0,
                repair_secs: 0.0,
            },
        );
        assert!((ledger.node_hours() - 3.0).abs() < 1e-12);
        assert_eq!(ledger.cycles().len(), 2);
        let totals = ledger.phase_totals();
        assert!((totals.insert_secs - 1500.0).abs() < 1e-12);
        assert!((ledger.elapsed_secs() - 3600.0).abs() < 1e-12);
    }

    #[test]
    fn repair_time_is_costed_in_node_hours() {
        let mut ledger = NodeHoursLedger::new();
        ledger.record(
            2,
            PhaseBreakdown {
                insert_secs: 600.0,
                reorg_secs: 600.0,
                query_secs: 0.0,
                repair_secs: 600.0,
            },
        );
        // Repair holds the fleet busy exactly like reorganization does.
        assert!((ledger.node_hours() - 1.0).abs() < 1e-12);
        assert!((ledger.phase_totals().repair_secs - 600.0).abs() < 1e-12);
    }
}
