//! The leading staircase: a PD control loop for cluster scale-out
//! (paper §5.1, Figure 3).
//!
//! At each batch of inserts the controller compares demand against
//! capacity. Its **proportional** term is the provisioning error
//! `p_i = l_i − N·c` (Eq. 2); its **derivative** term is the demand slope
//! over the last `s` workload cycles, `Δ = (l_i − l_{i−s}) / s` (Eq. 3).
//! When the cluster is over capacity it provisions
//! `k = ⌈(p_i + pΔ) / c⌉` new nodes (Eq. 4), raising capacity to serve the
//! next `p` workload iterations.
//!
//! The paper's staircase only ever climbs — scientific stores grow
//! monotonically, so nodes are never coalesced. This reproduction extends
//! the controller with the symmetric **scale-IN** step for retracting
//! workloads: when demand (projected `p` cycles forward with the same
//! derivative term) would still fit under a *shrunken* cluster derated by
//! an extra hysteresis factor [`StaircaseConfig::shrink_margin`], the
//! controller asks to release nodes. The margin keeps the add and remove
//! thresholds strictly apart, so a load sitting exactly at the post-shrink
//! capacity boundary never flaps back into a `ScaleOut`.

use serde::{Deserialize, Serialize};

/// Tunables of the control loop.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StaircaseConfig {
    /// Per-node storage capacity `c` in GB (paper §6.1 uses 100 GB).
    pub node_capacity_gb: f64,
    /// Derivative window `s`: how many past cycles the slope looks at.
    pub samples: usize,
    /// Planning horizon `p`: how many future cycles each step provisions.
    pub plan_ahead: usize,
    /// Capacity fraction at which the proportional term trips. 1.0 is the
    /// paper's behaviour (scale exactly when demand exceeds capacity);
    /// lower values scale out with headroom to spare.
    pub trigger: f64,
    /// Hysteresis band for scale-IN, as a fraction in `[0, 1)` of the
    /// scale-OUT threshold. Nodes are released only while the projected
    /// demand (`l + p·Δ`, the same planning horizon scale-OUT uses) still
    /// fits under the **shrunken** cluster's capacity derated to
    /// `trigger × shrink_margin`. Because the margin is strictly below
    /// 1, every shrink leaves the surviving capacity strictly above the
    /// scale-OUT trip point — the thresholds never coincide, so the
    /// controller cannot flap between adding and removing the same node.
    /// `0.0` disables scale-IN entirely (the paper's climb-only
    /// staircase).
    pub shrink_margin: f64,
}

impl StaircaseConfig {
    /// The paper's experimental defaults (c = 100 GB, s = 4, p = 3), with
    /// scale-IN enabled at a 3/4 hysteresis band.
    pub fn paper_defaults() -> Self {
        StaircaseConfig {
            node_capacity_gb: 100.0,
            samples: 4,
            plan_ahead: 3,
            trigger: 1.0,
            shrink_margin: 0.75,
        }
    }
}

/// The controller's verdict for one insert batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProvisionDecision {
    /// Capacity suffices; no change.
    Stay,
    /// Add this many nodes before ingesting.
    ScaleOut {
        /// Number of nodes to provision (k in Eq. 4).
        add_nodes: usize,
    },
    /// Release this many nodes: projected demand fits under the shrunken
    /// cluster's derated capacity with the hysteresis margin to spare.
    ScaleIn {
        /// Number of nodes to decommission (never the whole cluster).
        remove_nodes: usize,
    },
}

/// Leading-staircase provisioner state: the demand history plus config.
#[derive(Debug, Clone)]
pub struct StaircaseProvisioner {
    config: StaircaseConfig,
    /// Observed storage demand l_1..l_i (GB), one entry per workload cycle.
    history: Vec<f64>,
}

impl StaircaseProvisioner {
    /// Create a controller with the given configuration.
    pub fn new(config: StaircaseConfig) -> Self {
        assert!(config.node_capacity_gb > 0.0, "capacity must be positive");
        assert!(config.samples >= 1, "derivative needs at least one sample");
        assert!(config.trigger > 0.0, "trigger must be positive");
        assert!(
            (0.0..1.0).contains(&config.shrink_margin),
            "shrink margin must sit strictly below the scale-out threshold"
        );
        StaircaseProvisioner { config, history: Vec::new() }
    }

    /// The configuration in force.
    pub fn config(&self) -> &StaircaseConfig {
        &self.config
    }

    /// Record the observed storage demand after a workload cycle completes.
    pub fn observe(&mut self, load_gb: f64) {
        self.history.push(load_gb);
    }

    /// Demand history so far (for tuning).
    pub fn history(&self) -> &[f64] {
        &self.history
    }

    /// The derivative term Δ (Eq. 3) for a prospective demand `load_gb`,
    /// using at most the configured window (shrinks while history is
    /// short).
    pub fn derivative(&self, load_gb: f64) -> f64 {
        if self.history.is_empty() {
            // First cycle: the whole load arrived in one step.
            return load_gb.max(0.0);
        }
        let s = self.config.samples.min(self.history.len());
        let past = self.history[self.history.len() - s];
        (load_gb - past) / s as f64
    }

    /// Evaluate the control loop (Eqs. 2–4) for the demand `load_gb` that
    /// the incoming insert will produce on a cluster of `current_nodes`.
    pub fn decide(&self, current_nodes: usize, load_gb: f64) -> ProvisionDecision {
        let c = self.config.node_capacity_gb;
        let homogeneous = vec![c; current_nodes];
        self.decide_heterogeneous(&homogeneous, c, load_gb)
    }

    /// The paper's §5.1 generalization: "this approach easily generalizes
    /// to a heterogeneous cluster by assigning individual capacities to
    /// the nodes." The proportional term compares demand against the sum
    /// of the existing nodes' capacities; the step is sized in units of
    /// the capacity new nodes will arrive with.
    ///
    /// A demand sitting exactly at the trip point (`p_i == 0`) stays put
    /// — the cluster is full, not over — so a shrink that lands the load
    /// precisely on the surviving capacity can never bounce straight back
    /// into a `ScaleOut`. (With a positive
    /// [`StaircaseConfig::shrink_margin`] the shrink itself already
    /// leaves strict headroom; the `<=` boundary makes the no-flap
    /// guarantee independent of the margin.)
    ///
    /// Scale-IN mirrors the same control terms: nodes are released from
    /// the **tail** of `node_capacities_gb` (join order, the newest
    /// hardware first) while `l + p·Δ` still fits under the remaining
    /// capacity derated to `trigger × shrink_margin`, and at least one
    /// node always survives.
    pub fn decide_heterogeneous(
        &self,
        node_capacities_gb: &[f64],
        new_node_capacity_gb: f64,
        load_gb: f64,
    ) -> ProvisionDecision {
        assert!(new_node_capacity_gb > 0.0, "new nodes must have capacity");
        // Eq. 2: proportional term, against the (possibly derated) capacity.
        let capacity: f64 = node_capacities_gb.iter().sum::<f64>() * self.config.trigger;
        let p_i = load_gb - capacity;
        if p_i > 0.0 {
            // Eq. 3: derivative over the last s cycles.
            let delta = self.derivative(load_gb).max(0.0);
            // Eq. 4: nodes to add, covering the error plus p cycles of growth.
            let k = ((p_i + self.config.plan_ahead as f64 * delta) / new_node_capacity_gb).ceil();
            return ProvisionDecision::ScaleOut { add_nodes: (k as usize).max(1) };
        }
        // Scale-IN: release tail nodes while the demand projected
        // plan_ahead cycles forward still fits under the shrunken,
        // margin-derated capacity. Δ clamps at zero, so a falling demand
        // is judged by where it is now, not where the trough might go.
        let margin = self.config.trigger * self.config.shrink_margin;
        if margin <= 0.0 || node_capacities_gb.len() <= 1 {
            return ProvisionDecision::Stay;
        }
        let delta = self.derivative(load_gb).max(0.0);
        let projected = load_gb + self.config.plan_ahead as f64 * delta;
        let mut remaining: f64 = node_capacities_gb.iter().sum();
        let mut remove = 0usize;
        for &cap in node_capacities_gb.iter().rev() {
            if remove + 1 >= node_capacities_gb.len() {
                break; // the cluster keeps at least one node
            }
            if projected <= (remaining - cap) * margin {
                remaining -= cap;
                remove += 1;
            } else {
                break;
            }
        }
        if remove > 0 {
            ProvisionDecision::ScaleIn { remove_nodes: remove }
        } else {
            ProvisionDecision::Stay
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn provisioner(s: usize, p: usize) -> StaircaseProvisioner {
        StaircaseProvisioner::new(StaircaseConfig {
            node_capacity_gb: 100.0,
            samples: s,
            plan_ahead: p,
            trigger: 1.0,
            shrink_margin: 0.0,
        })
    }

    fn shrinker(s: usize, p: usize, margin: f64) -> StaircaseProvisioner {
        StaircaseProvisioner::new(StaircaseConfig {
            node_capacity_gb: 100.0,
            samples: s,
            plan_ahead: p,
            trigger: 1.0,
            shrink_margin: margin,
        })
    }

    #[test]
    fn stays_under_capacity() {
        let mut pv = provisioner(2, 1);
        pv.observe(50.0);
        assert_eq!(pv.decide(2, 150.0), ProvisionDecision::Stay);
        assert_eq!(pv.decide(2, 200.0), ProvisionDecision::Stay); // exactly at capacity
    }

    #[test]
    fn proportional_term_covers_excess() {
        // 2 nodes (200 GB), demand 250 GB, flat history (Δ from window):
        // history 210, 230 -> s=2: Δ = (250-210)/2 = 20; p=0 -> k = ceil(50/100)=1
        let mut pv = provisioner(2, 0);
        pv.observe(210.0);
        pv.observe(230.0);
        assert_eq!(pv.decide(2, 250.0), ProvisionDecision::ScaleOut { add_nodes: 1 });
    }

    #[test]
    fn derivative_term_scales_with_plan_ahead() {
        // Same state, growing demand 40 GB/cycle; p=6 -> k = ceil((50 + 6*20)/100)=2
        let mut lazy = provisioner(2, 0);
        let mut eager = provisioner(2, 6);
        for pv in [&mut lazy, &mut eager] {
            pv.observe(210.0);
            pv.observe(230.0);
        }
        let ProvisionDecision::ScaleOut { add_nodes: k_lazy } = lazy.decide(2, 250.0) else {
            panic!("must scale")
        };
        let ProvisionDecision::ScaleOut { add_nodes: k_eager } = eager.decide(2, 250.0) else {
            panic!("must scale")
        };
        assert!(k_eager > k_lazy, "eager {k_eager} vs lazy {k_lazy}");
        assert_eq!(k_eager, 2);
    }

    #[test]
    fn eq4_matches_hand_computation() {
        // N=4 (400 GB), l=470, history window s=3 with l_{i-3}=350:
        // Δ = 40, p = 3: k = ceil((70 + 120)/100) = 2.
        let mut pv = provisioner(3, 3);
        for l in [350.0, 390.0, 430.0] {
            pv.observe(l);
        }
        assert_eq!(pv.decide(4, 470.0), ProvisionDecision::ScaleOut { add_nodes: 2 });
    }

    #[test]
    fn short_history_shrinks_the_window() {
        let mut pv = provisioner(4, 1);
        pv.observe(100.0);
        // Only one sample: Δ = (260 - 100) / 1
        assert!((pv.derivative(260.0) - 160.0).abs() < 1e-12);
        // No history at all: Δ = the incoming load
        let fresh = provisioner(4, 1);
        assert!((fresh.derivative(50.0) - 50.0).abs() < 1e-12);
    }

    #[test]
    fn trigger_derates_capacity() {
        let mut pv = StaircaseProvisioner::new(StaircaseConfig {
            node_capacity_gb: 100.0,
            samples: 1,
            plan_ahead: 0,
            trigger: 0.8,
            shrink_margin: 0.0,
        });
        pv.observe(150.0);
        // 2 nodes * 100 GB * 0.8 = 160 GB effective capacity.
        assert!(matches!(pv.decide(2, 170.0), ProvisionDecision::ScaleOut { .. }));
        assert_eq!(pv.decide(2, 155.0), ProvisionDecision::Stay);
    }

    #[test]
    fn heterogeneous_capacities_sum_into_the_proportional_term() {
        let mut pv = provisioner(1, 0);
        pv.observe(100.0);
        // 50 + 150 + 100 = 300 GB of mixed capacity.
        let caps = vec![50.0, 150.0, 100.0];
        assert_eq!(pv.decide_heterogeneous(&caps, 100.0, 290.0), ProvisionDecision::Stay);
        // 310 GB demand: 10 GB over; new nodes come in 25 GB units ->
        // ceil((10 + 0)/25) = 1.
        assert_eq!(
            pv.decide_heterogeneous(&caps, 25.0, 310.0),
            ProvisionDecision::ScaleOut { add_nodes: 1 }
        );
        // Big deficit with small new nodes: ceil(60/25) = 3.
        assert_eq!(
            pv.decide_heterogeneous(&caps, 25.0, 360.0),
            ProvisionDecision::ScaleOut { add_nodes: 3 }
        );
    }

    #[test]
    fn homogeneous_decide_matches_heterogeneous_equivalent() {
        let mut pv = provisioner(2, 3);
        for l in [350.0, 390.0, 430.0] {
            pv.observe(l);
        }
        let direct = pv.decide(4, 470.0);
        let via_hetero = pv.decide_heterogeneous(&[100.0; 4], 100.0, 470.0);
        assert_eq!(direct, via_hetero);
    }

    #[test]
    fn climb_only_staircase_never_asks_to_shrink() {
        // shrink_margin = 0.0 is the paper's monotone staircase.
        let mut pv = provisioner(2, 3);
        for l in [100.0, 90.0, 80.0] {
            pv.observe(l);
        }
        assert_eq!(pv.decide(4, 70.0), ProvisionDecision::Stay);
    }

    #[test]
    fn demand_trough_releases_tail_nodes() {
        let mut pv = shrinker(2, 0, 0.75);
        for l in [90.0, 80.0] {
            pv.observe(l);
        }
        // 4 nodes, load 70: 300·0.75 = 225, 200·0.75 = 150, 100·0.75 = 75
        // all cover it, and the one-node floor stops the walk there.
        assert_eq!(pv.decide(4, 70.0), ProvisionDecision::ScaleIn { remove_nodes: 3 });
        // Load 80 busts the one-node band (75): only two go.
        assert_eq!(pv.decide(4, 80.0), ProvisionDecision::ScaleIn { remove_nodes: 2 });
    }

    /// The satellite boundary: a load sitting exactly at capacity is
    /// "full", not "over" — so a shrink that lands demand on the
    /// surviving capacity can never flap straight back into a ScaleOut.
    #[test]
    fn shrink_never_retriggers_scale_out() {
        let mut pv = shrinker(1, 0, 0.75);
        pv.observe(70.0);
        let ProvisionDecision::ScaleIn { remove_nodes } = pv.decide(4, 70.0) else {
            panic!("the trough must shrink")
        };
        let survivors = 4 - remove_nodes;
        assert!(
            !matches!(pv.decide(survivors, 70.0), ProvisionDecision::ScaleOut { .. }),
            "re-deciding on the shrunken cluster must not add nodes back"
        );
        // Exactly at capacity: Stay. One notch over: ScaleOut.
        assert_eq!(pv.decide(1, 100.0), ProvisionDecision::Stay);
        assert!(matches!(pv.decide(1, 100.1), ProvisionDecision::ScaleOut { .. }));
    }

    #[test]
    fn growth_projection_suppresses_the_shrink() {
        // Same low load; the steep climber projects l + p·Δ over the
        // shrunken band and keeps its nodes, the flat twin lets go.
        let mut climbing = shrinker(1, 3, 0.75);
        climbing.observe(40.0); // Δ = 30, projected = 70 + 90 = 160
        assert_eq!(climbing.decide(2, 70.0), ProvisionDecision::Stay);
        let mut flat = shrinker(1, 3, 0.75);
        flat.observe(70.0); // Δ = 0, projected = 70 ≤ 100·0.75
        assert_eq!(flat.decide(2, 70.0), ProvisionDecision::ScaleIn { remove_nodes: 1 });
    }

    #[test]
    fn heterogeneous_shrink_releases_from_the_tail() {
        let mut pv = shrinker(1, 0, 0.5);
        pv.observe(100.0);
        // Tail-first: dropping the two 50 GB nodes leaves 200·0.5 = 100,
        // which still covers the load (boundary inclusive); the 200 GB
        // head node is the one-node floor.
        assert_eq!(
            pv.decide_heterogeneous(&[200.0, 50.0, 50.0], 100.0, 100.0),
            ProvisionDecision::ScaleIn { remove_nodes: 2 }
        );
    }

    #[test]
    fn scale_in_never_releases_the_last_node() {
        let mut pv = shrinker(1, 0, 0.9);
        pv.observe(0.0);
        // Zero demand on a single node: nothing to release.
        assert_eq!(pv.decide(1, 0.0), ProvisionDecision::Stay);
    }
}
