//! The workloads the differential suites run: a retracting run's
//! never-inserted twin, a demand trough and a churn.

use array_model::{ArrayId, ArraySchema, ChunkCoords, ChunkDescriptor, ChunkKey, ScalarValue};
use elastic_core::{GridHint, PartitionerKind, StaircaseConfig};
use query_engine::{Catalog, ExecutionContext, StoredArray};
use std::collections::{BTreeMap, BTreeSet};
use workloads::{CellBatch, RunnerConfig, ScalingPolicy, SuiteReport, Workload};

/// The never-inserted twin of a retracting workload: the inner
/// generator's cell batches minus every coordinate any cycle of the run
/// retracts, and no retractions. Cells a run retracts are exactly the
/// cells its twin never sees, so once the *last* retraction lands the two
/// runs describe the same arrays.
pub struct SurvivorsOnly<W: Workload> {
    inner: W,
    schemas: BTreeMap<ArrayId, ArraySchema>,
    doomed: BTreeMap<ArrayId, BTreeSet<Vec<i64>>>,
}

impl<W: Workload> SurvivorsOnly<W> {
    /// Replay `inner`'s generator once to collect what it retracts.
    pub fn new(inner: W) -> Self {
        let mut catalog = Catalog::new();
        inner.register_arrays(&mut catalog);
        let schemas = catalog.arrays().map(|a| (a.id, a.schema.clone())).collect();
        let mut doomed: BTreeMap<ArrayId, BTreeSet<Vec<i64>>> = BTreeMap::new();
        for batch in (0..inner.cycles()).flat_map(|c| inner.cell_batch(c).unwrap_or_default()) {
            let set = doomed.entry(batch.array).or_default();
            set.extend(batch.retractions_flat().chunks(batch.rows().ndims()).map(<[i64]>::to_vec));
        }
        SurvivorsOnly { inner, schemas, doomed }
    }

    /// Total retractions the inner run issues — a differential is vacuous
    /// if the generator never retracts.
    pub fn doomed_cells(&self) -> usize {
        self.doomed.values().map(BTreeSet::len).sum()
    }
}

impl<W: Workload> Workload for SurvivorsOnly<W> {
    fn name(&self) -> &'static str {
        "survivors-only"
    }
    fn cycles(&self) -> usize {
        self.inner.cycles()
    }
    fn register_arrays(&self, catalog: &mut Catalog) {
        self.inner.register_arrays(catalog);
    }
    fn insert_batch(&self, cycle: usize) -> Vec<ChunkDescriptor> {
        self.inner.insert_batch(cycle)
    }
    fn cell_batch(&self, cycle: usize) -> Option<Vec<CellBatch>> {
        let survivors = |b: CellBatch| {
            let doomed = self.doomed.get(&b.array);
            let mut out = CellBatch::new(b.array, &self.schemas[&b.array]);
            let mut scratch = Vec::new();
            for (coords, values) in b.cells() {
                if !doomed.is_some_and(|d| d.contains(&coords)) {
                    scratch.extend(values);
                    out.push(&coords, &mut scratch);
                }
            }
            out
        };
        Some(self.inner.cell_batch(cycle)?.into_iter().map(survivors).collect())
    }
    fn derived_batch(&self, cycle: usize) -> Vec<ChunkDescriptor> {
        self.inner.derived_batch(cycle)
    }
    fn grid_hint(&self) -> GridHint {
        self.inner.grid_hint()
    }
    fn quad_plane(&self) -> (usize, usize) {
        self.inner.quad_plane()
    }
    fn run_suites(&self, ctx: &ExecutionContext<'_>, cycle: usize) -> SuiteReport {
        self.inner.run_suites(ctx, cycle)
    }
}

/// A demand trough over one `v:double` dimension `x` in chunks of 64:
/// cycles `0..grow` each insert `cells` cells, cell `x` holding
/// `value(x)`; each later cycle retracts one grown cycle wholesale,
/// oldest first from `first_doomed` on — so the grown cycles before it
/// survive, and `0` drains the array.
pub struct GrowRetract {
    /// The one array.
    pub array: ArrayId,
    /// Cycles in the run.
    pub cycles: usize,
    /// Cycles that insert.
    pub grow: usize,
    /// Cells each growing cycle inserts.
    pub cells: usize,
    /// The first grown cycle retracted.
    pub first_doomed: usize,
    /// The value stored at `x`.
    pub value: fn(i64) -> f64,
}

impl GrowRetract {
    fn schema() -> ArraySchema {
        ArraySchema::parse("T<v:double>[x=0:*,64]").expect("a valid schema")
    }

    /// The config that climbs a trough of 2048-cell cycles and walks back
    /// down it: 16 KB nodes — a cell is 16 B, so a grown cycle fills two
    /// — under a staircase that plans one cycle ahead on two samples and
    /// releases nodes below 75 % of demand.
    pub fn staircase(kind: PartitionerKind) -> RunnerConfig {
        let scaling = ScalingPolicy::Staircase(StaircaseConfig {
            node_capacity_gb: 16_384.0 / 1e9,
            samples: 2,
            plan_ahead: 1,
            trigger: 1.0,
            shrink_margin: 0.75,
        });
        RunnerConfig { scaling, ..crate::config(kind, 16_384) }
    }
}

impl Workload for GrowRetract {
    fn name(&self) -> &'static str {
        "grow-retract"
    }
    fn cycles(&self) -> usize {
        self.cycles
    }
    fn register_arrays(&self, catalog: &mut Catalog) {
        catalog.register(StoredArray::from_descriptors(self.array, Self::schema(), []));
    }
    fn insert_batch(&self, _cycle: usize) -> Vec<ChunkDescriptor> {
        Vec::new()
    }
    fn cell_batch(&self, cycle: usize) -> Option<Vec<CellBatch>> {
        let mut batch = CellBatch::new(self.array, &Self::schema());
        let span = |c: usize| (c * self.cells) as i64..((c + 1) * self.cells) as i64;
        if cycle < self.grow {
            let mut vals = Vec::with_capacity(1);
            for x in span(cycle) {
                vals.push(ScalarValue::Double((self.value)(x)));
                batch.push(&[x], &mut vals);
            }
        } else if cycle - self.grow + self.first_doomed < self.grow {
            span(cycle - self.grow + self.first_doomed).for_each(|x| batch.push_retraction(&[x]));
        }
        Some(vec![batch])
    }
    fn derived_batch(&self, _cycle: usize) -> Vec<ChunkDescriptor> {
        Vec::new()
    }
    fn grid_hint(&self) -> GridHint {
        GridHint::new(vec![1024])
    }
    fn run_suites(&self, _ctx: &ExecutionContext<'_>, _cycle: usize) -> SuiteReport {
        SuiteReport::default()
    }
}

/// The array [`CellChurn`] inserts into and retracts from.
pub const CHURN: ArrayId = ArrayId(0);
/// The array of [`CellChurn`]'s derived metadata chunks.
const DERIVED: ArrayId = ArrayId(1);

/// Materialized churn touching every record type the log knows: each
/// cycle inserts `cells` cells of `C<v:double, s:string>[x=0:*,chunk,
/// y=0:3,2]` — global index `g` at `(g / 4, g % 4)`, holding `g / 4` and
/// one of `tags` strings — retracts every other cell of the previous
/// cycle, and stores one derived metadata chunk of `derived[0] + cycle ×
/// derived[1]` bytes and `derived[2]` cells.
pub struct CellChurn {
    /// Cycles in the run.
    pub cycles: usize,
    /// Cells each cycle inserts.
    pub cells: usize,
    /// Chunk length along `x`.
    pub chunk: i64,
    /// Distinct strings in `s`.
    pub tags: i64,
    /// Chunks along `x` the range partitioners plan for.
    pub grid: i64,
    /// The derived chunk's base bytes, bytes added per cycle, and cells.
    pub derived: [u64; 3],
}

impl CellChurn {
    fn schema(&self) -> ArraySchema {
        let text = format!("C<v:double, s:string>[x=0:*,{}, y=0:3,2]", self.chunk);
        ArraySchema::parse(&text).expect("a valid schema")
    }
}

impl Workload for CellChurn {
    fn name(&self) -> &'static str {
        "churn"
    }
    fn cycles(&self) -> usize {
        self.cycles
    }
    fn register_arrays(&self, catalog: &mut Catalog) {
        catalog.register(StoredArray::from_descriptors(CHURN, self.schema(), []));
        // The base array's dimensionality: the spatial partitioners route
        // derived chunks through the quad plane too.
        let derived = ArraySchema::parse("D<v:double>[x=0:*,1, y=0:0,1]").expect("a valid schema");
        catalog.register(StoredArray::from_descriptors(DERIVED, derived, []));
    }
    fn insert_batch(&self, _cycle: usize) -> Vec<ChunkDescriptor> {
        Vec::new()
    }
    fn cell_batch(&self, cycle: usize) -> Option<Vec<CellBatch>> {
        let mut batch = CellBatch::new(CHURN, &self.schema());
        let first = |c: usize| (c * self.cells) as i64;
        let mut vals = Vec::with_capacity(2);
        for g in first(cycle)..first(cycle + 1) {
            vals.push(ScalarValue::Double(g as f64 * 0.25));
            vals.push(ScalarValue::Str(format!("tag{}", g % self.tags)));
            batch.push(&[g / 4, g % 4], &mut vals);
        }
        if cycle > 0 {
            for g in (first(cycle - 1)..first(cycle)).step_by(2) {
                batch.push_retraction(&[g / 4, g % 4]);
            }
        }
        Some(vec![batch])
    }
    fn derived_batch(&self, cycle: usize) -> Vec<ChunkDescriptor> {
        let [bytes, growth, cells] = self.derived;
        let key = ChunkKey::new(DERIVED, ChunkCoords::new([cycle as i64, 0]));
        vec![ChunkDescriptor::new(key, bytes + cycle as u64 * growth, cells)]
    }
    fn grid_hint(&self) -> GridHint {
        GridHint::new(vec![self.grid, 2])
    }
    fn quad_plane(&self) -> (usize, usize) {
        (0, 1)
    }
    fn run_suites(&self, _ctx: &ExecutionContext<'_>, _cycle: usize) -> SuiteReport {
        SuiteReport::default()
    }
}
