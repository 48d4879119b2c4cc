//! A configurable synthetic workload for experimentation and testing.
//!
//! The paper's two use cases pin down specific distributions; this module
//! lets a user sweep the space between them — uniform to point-skewed
//! chunk sizes, flat to trending insert volume — while reusing the same
//! cycle driver and a compact query suite.

use crate::rand_util::{lognormal, rng_for, zipf_weight};
use crate::spec::{CellBatch, SuiteReport, Workload};
use array_model::{
    ArrayId, ArraySchema, ChunkCoords, ChunkDescriptor, ChunkKey, Region, ScalarValue,
};
use elastic_core::GridHint;
use query_engine::{ops, Catalog, ExecutionContext, StoredArray};

/// The synthetic array's id.
pub const SYNTHETIC: ArrayId = ArrayId(100);

/// How chunk bytes distribute over the spatial grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpatialDistribution {
    /// Log-normal sizes, no spatial structure (MODIS-like when σ is small).
    Uniform {
        /// Log-space standard deviation (0 = all chunks equal).
        sigma: f64,
    },
    /// Zipf-ranked hotspots (AIS-like when the exponent is steep).
    Zipf {
        /// Number of hotspot cells.
        hotspots: usize,
        /// Zipf exponent over hotspot ranks (≈1.4 reproduces 85-in-5).
        exponent: f64,
    },
}

/// A fully configurable cyclic workload.
#[derive(Debug, Clone)]
pub struct SyntheticWorkload {
    /// Number of workload cycles.
    pub cycles: usize,
    /// Spatial grid (chunks per side); the array is 3-D: (time, x, y).
    pub grid_side: i64,
    /// Bytes inserted per cycle.
    pub bytes_per_cycle: u64,
    /// Per-cycle volume growth factor (1.0 = flat, >1 trending).
    pub growth: f64,
    /// Spatial size distribution.
    pub distribution: SpatialDistribution,
    /// RNG seed.
    pub seed: u64,
    /// Cells emitted per cycle by the materialized (cell-level) ingest
    /// mode; `0` keeps the workload metadata-only. The grid's chunk
    /// interval is 1, so each emitted cell materializes one chunk at the
    /// heaviest-weighted positions of the cycle's spatial field.
    pub cells_per_cycle: u64,
}

impl Default for SyntheticWorkload {
    fn default() -> Self {
        SyntheticWorkload {
            cycles: 8,
            grid_side: 16,
            bytes_per_cycle: 10_000_000_000,
            growth: 1.0,
            distribution: SpatialDistribution::Uniform { sigma: 0.3 },
            seed: 7,
            cells_per_cycle: 0,
        }
    }
}

impl SyntheticWorkload {
    /// The schema: one measure over (time, x, y).
    pub fn schema(&self) -> ArraySchema {
        ArraySchema::parse(&format!(
            "Synthetic<v:double>[t=0:*,1, x=0:{max},1, y=0:{max},1]",
            max = self.grid_side - 1
        ))
        .expect("synthetic schema is valid")
    }

    fn cell_weight(&self, x: i64, y: i64) -> f64 {
        match self.distribution {
            SpatialDistribution::Uniform { sigma } => {
                let mut rng = rng_for(self.seed, &[1, x, y]);
                lognormal(&mut rng, 1.0, sigma.max(0.0))
            }
            SpatialDistribution::Zipf { hotspots, exponent } => {
                // Hotspot cells are pseudo-randomly scattered; everything
                // else gets a small background weight.
                let mut w = 1e-4;
                for rank in 0..hotspots {
                    let mut rng = rng_for(self.seed, &[2, rank as i64]);
                    let hx = (rand::Rng::gen::<u64>(&mut rng) % self.grid_side as u64) as i64;
                    let hy = (rand::Rng::gen::<u64>(&mut rng) % self.grid_side as u64) as i64;
                    if hx == x && hy == y {
                        w += zipf_weight(rank as u64 + 1, exponent);
                    }
                }
                w
            }
        }
    }
}

impl Workload for SyntheticWorkload {
    fn name(&self) -> &'static str {
        "Synthetic"
    }

    fn cycles(&self) -> usize {
        self.cycles
    }

    fn register_arrays(&self, catalog: &mut Catalog) {
        catalog.register(StoredArray::from_descriptors(SYNTHETIC, self.schema(), []));
    }

    fn insert_batch(&self, cycle: usize) -> Vec<ChunkDescriptor> {
        let volume = self.bytes_per_cycle as f64 * self.growth.powi(cycle as i32);
        let mut weights = Vec::with_capacity((self.grid_side * self.grid_side) as usize);
        let mut total = 0.0;
        for x in 0..self.grid_side {
            for y in 0..self.grid_side {
                let w = self.cell_weight(x, y);
                weights.push((x, y, w));
                total += w;
            }
        }
        weights
            .into_iter()
            .map(|(x, y, w)| {
                let bytes = (volume * w / total) as u64;
                ChunkDescriptor::new(
                    ChunkKey::new(SYNTHETIC, ChunkCoords::new([cycle as i64, x, y])),
                    bytes,
                    bytes / 64 + 1,
                )
            })
            .collect()
    }

    fn derived_batch(&self, _cycle: usize) -> Vec<ChunkDescriptor> {
        Vec::new()
    }

    fn cell_batch(&self, cycle: usize) -> Option<Vec<CellBatch>> {
        if self.cells_per_cycle == 0 {
            return None;
        }
        // Rank the cycle's spatial positions by the same weight field the
        // metadata mode samples sizes from, and materialize one cell at
        // each of the heaviest positions — skew carries over into which
        // chunks exist and how large the hot region is.
        let mut weights: Vec<(i64, i64, f64)> = Vec::new();
        for x in 0..self.grid_side {
            for y in 0..self.grid_side {
                weights.push((x, y, self.cell_weight(x, y)));
            }
        }
        weights.sort_by(|a, b| {
            b.2.partial_cmp(&a.2).expect("finite weights").then_with(|| (a.0, a.1).cmp(&(b.0, b.1)))
        });
        let take = (self.cells_per_cycle as usize).min(weights.len());
        let mut batch = CellBatch::new(SYNTHETIC, &self.schema());
        let mut vals: Vec<ScalarValue> = Vec::with_capacity(1);
        for &(x, y, _) in &weights[..take] {
            let mut rng = rng_for(self.seed, &[3, cycle as i64, x, y]);
            let v = lognormal(&mut rng, 100.0, 0.5);
            vals.push(ScalarValue::Double(v));
            batch.push(&[cycle as i64, x, y], &mut vals);
        }
        Some(vec![batch])
    }

    fn grid_hint(&self) -> GridHint {
        GridHint::new(vec![self.cycles as i64, self.grid_side, self.grid_side])
            .with_split_priority(vec![1, 2])
            .with_curve_dims(vec![1, 2])
    }

    fn run_suites(&self, ctx: &ExecutionContext<'_>, cycle: usize) -> SuiteReport {
        let mut report = SuiteReport::default();
        let c = cycle as i64;
        let full = Region::new(vec![0, 0, 0], vec![c, self.grid_side - 1, self.grid_side - 1]);
        if let Ok((_, stats)) = ops::subarray(ctx, SYNTHETIC, &full, &["v"]) {
            report.push("spj/selection", stats);
        }
        let newest = Region::new(vec![c, 0, 0], vec![c, self.grid_side - 1, self.grid_side - 1]);
        let spec = ops::GroupSpec::coarsened(vec![1, 2], vec![4, 4]);
        if let Ok((_, stats)) =
            ops::grid_aggregate(ctx, SYNTHETIC, Some(&newest), "v", &spec, ops::AggFn::Count)
        {
            report.push("science/statistics", stats);
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycle::{RunnerConfig, ScalingPolicy, WorkloadRunner};
    use cluster_sim::CostModel;
    use elastic_core::{PartitionerConfig, PartitionerKind};

    fn config(kind: PartitionerKind) -> RunnerConfig {
        RunnerConfig {
            node_capacity: 25_000_000_000,
            initial_nodes: 2,
            partitioner: kind,
            partitioner_config: PartitionerConfig::default(),
            scaling: ScalingPolicy::FixedStep { add: 2, trigger: 0.8 },
            cost: CostModel::default(),
            run_queries: true,
            ..RunnerConfig::default()
        }
    }

    #[test]
    fn uniform_volume_is_exactly_partitioned() {
        let w = SyntheticWorkload::default();
        let batch = w.insert_batch(0);
        assert_eq!(batch.len(), 256);
        let total: u64 = batch.iter().map(|d| d.bytes).sum();
        let target = w.bytes_per_cycle;
        assert!(
            (total as f64 - target as f64).abs() < target as f64 * 0.01,
            "volume off target: {total} vs {target}"
        );
    }

    #[test]
    fn growth_compounds() {
        let w = SyntheticWorkload { growth: 1.5, ..Default::default() };
        let v0: u64 = w.insert_batch(0).iter().map(|d| d.bytes).sum();
        let v2: u64 = w.insert_batch(2).iter().map(|d| d.bytes).sum();
        let ratio = v2 as f64 / v0 as f64;
        assert!((ratio - 2.25).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn zipf_mode_produces_heavy_skew() {
        let w = SyntheticWorkload {
            distribution: SpatialDistribution::Zipf { hotspots: 8, exponent: 1.4 },
            ..Default::default()
        };
        let mut sizes: Vec<u64> = w.insert_batch(0).iter().map(|d| d.bytes).collect();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = sizes.iter().sum();
        let top8: u64 = sizes[..8].iter().sum();
        assert!(
            top8 as f64 / total as f64 > 0.8,
            "hotspots should dominate: {}",
            top8 as f64 / total as f64
        );
    }

    #[test]
    fn runs_end_to_end_with_the_driver() {
        let w = SyntheticWorkload { cycles: 5, ..Default::default() };
        let report =
            WorkloadRunner::new(&w, config(PartitionerKind::HilbertCurve)).run_all().unwrap();
        assert_eq!(report.cycles.len(), 5);
        assert!(report.cycles.last().unwrap().nodes > 2, "must scale out");
        for c in &report.cycles {
            let suites = c.suites.as_ref().unwrap();
            assert_eq!(suites.queries.len(), 2);
        }
    }

    #[test]
    fn skewed_and_uniform_modes_separate_partitioners() {
        let uniform = SyntheticWorkload { cycles: 5, ..Default::default() };
        let skewed = SyntheticWorkload {
            cycles: 5,
            distribution: SpatialDistribution::Zipf { hotspots: 6, exponent: 1.5 },
            ..Default::default()
        };
        let rsd = |w: &SyntheticWorkload, kind| {
            WorkloadRunner::new(w, config(kind)).run_all().unwrap().mean_rsd()
        };
        // Uniform Range handles the uniform mode fine but collapses on the
        // skewed one (its static tree cannot react to hotspots). A
        // skew-aware splitter copes far better with the same input.
        let ur_uniform = rsd(&uniform, PartitionerKind::UniformRange);
        let ur_skewed = rsd(&skewed, PartitionerKind::UniformRange);
        assert!(ur_skewed > 2.0 * ur_uniform, "UR: {ur_uniform} vs {ur_skewed}");
        let hilbert_skewed = rsd(&skewed, PartitionerKind::HilbertCurve);
        assert!(
            hilbert_skewed < ur_skewed,
            "skew-aware Hilbert ({hilbert_skewed}) should beat static UR ({ur_skewed})"
        );
        // Note: with only ~6 atomic hotspot columns, even fine-grained
        // schemes cannot balance *bytes* — there are fewer heavy units
        // than nodes. That is the paper's point-skew regime.
    }
}
