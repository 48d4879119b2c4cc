//! The from-scratch reference every incremental path is held against.

use crate::{num, Row};
use array_model::{Array, ArrayId, ArraySchema, CellBuffer, DeltaSet, Region, ScalarValue};
use durability::RecordReader;
use query_engine::Catalog;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use workloads::{CellBatch, WalEvent, Workload, WorkloadRunner};

type Cells = BTreeMap<Vec<i64>, Vec<ScalarValue>>;

/// Each array's surviving cells in one flat map, keyed by coordinates.
/// It is fed cell batches — a workload's, or the ones a write-ahead log
/// carries — and consults no runner, cluster, catalog or chunk, so what
/// it answers is independent of every path under test.
#[derive(Clone, PartialEq)]
pub struct Oracle {
    arrays: BTreeMap<ArrayId, (ArraySchema, Cells)>,
}

impl Oracle {
    /// One empty array per array `w` registers.
    pub fn new(w: &dyn Workload) -> Oracle {
        let mut catalog = Catalog::new();
        w.register_arrays(&mut catalog);
        let arrays = catalog.arrays().map(|a| (a.id, (a.schema.clone(), Cells::new()))).collect();
        Oracle { arrays }
    }

    /// `w`'s first `cycles` cycles, folded.
    pub fn after(w: &dyn Workload, cycles: usize) -> Oracle {
        let mut oracle = Oracle::new(w);
        (0..cycles).for_each(|c| oracle.cycle(w, c));
        oracle
    }

    /// The cycles a write-ahead log committed: its records decoded one by
    /// one and each cycle's cell batches folded at its `CycleEnd`, so a
    /// cycle the log never committed is never folded.
    pub fn from_log(w: &dyn Workload, log: &[u8]) -> Oracle {
        let mut oracle = Oracle::new(w);
        let mut pending = Vec::new();
        let mut records = RecordReader::new(log);
        while let Some(record) = records.next_record().expect("a well-framed log") {
            match WalEvent::decode(record).expect("a record the runner wrote") {
                WalEvent::CycleStart { .. } => pending.clear(),
                WalEvent::InsertCells { batches } => pending = batches,
                WalEvent::CycleEnd { .. } => oracle.fold(&std::mem::take(&mut pending)),
                _ => {}
            }
        }
        oracle
    }

    /// Fold cycle `cycle` of `w`.
    pub fn cycle(&mut self, w: &dyn Workload, cycle: usize) {
        self.fold(&w.cell_batch(cycle).unwrap_or_default());
    }

    /// Fold one cycle's batches as an `InsertCells` record carries them
    /// and the runner applies them: every retraction, then every insert.
    /// Panics on a retraction of a cell that is not there and on an
    /// insert of one that is.
    fn fold(&mut self, batches: &[CellBatch]) {
        for b in batches {
            let (array, cells) = (b.array, self.cells_mut(b.array));
            for coords in b.retractions_flat().chunks(b.rows().ndims()) {
                let gone = cells.remove(coords).is_some();
                assert!(gone, "{array}: retraction of a never-inserted cell {coords:?}");
            }
        }
        for b in batches {
            let (array, cells) = (b.array, self.cells_mut(b.array));
            for (coords, values) in b.cells() {
                let Entry::Vacant(slot) = cells.entry(coords) else {
                    panic!("{array}: duplicate insert")
                };
                slot.insert(values);
            }
        }
    }

    /// Every surviving cell of `array`, by coordinates.
    pub fn rows(&self, array: ArrayId) -> Vec<Row> {
        self.slot(array).1.iter().map(|(c, v)| (c.clone(), v.clone())).collect()
    }

    /// `array`'s surviving cells as a plain [`Array`] of its schema.
    fn array(&self, array: ArrayId) -> Array {
        let (schema, cells) = self.slot(array);
        let mut rows = CellBuffer::new(schema);
        let mut scratch = Vec::new();
        for (coords, values) in cells {
            scratch.extend_from_slice(values);
            rows.push_row(coords, &mut scratch).expect("cells of the array's schema");
        }
        let mut out = Array::new(array, schema.clone());
        out.insert_batch_owned(rows).expect("cells inside the array");
        out
    }

    /// Panics unless `runner`'s node stores hold exactly the oracle's
    /// cells of `array`, read by a scan of the array's whole extent.
    pub fn assert_stored(&self, runner: &WorkloadRunner<'_>, array: ArrayId, tag: &str) {
        let (schema, cells) = self.slot(array);
        let dims = &schema.dimensions;
        let high = dims.iter().map(|d| d.end.unwrap_or(i64::MAX / 2)).collect();
        let whole = Region::new(dims.iter().map(|d| d.start).collect(), high);
        let stored = crate::scan(runner.cluster(), runner.catalog(), array, &whole);
        let (got, expected) = (stored.len(), cells.len());
        assert!(
            stored.iter().map(|(c, v)| (c, v)).eq(cells),
            "{tag}: {array}'s {got} stored cells differ from the oracle's {expected}"
        );
    }

    /// Panics unless every view `runner` maintains equals its recompute
    /// from scratch: a fresh instance of its definition fed one bulk
    /// delta per input array ([`DeltaSet::from_live_cells`] of a plain
    /// [`Array`] of the oracle's cells). That shares every finalization
    /// path with the maintained view, so the two agree bit for bit or not
    /// at all.
    pub fn assert_views(&self, runner: &WorkloadRunner<'_>, tag: &str) {
        let mut deltas = BTreeMap::new();
        for v in runner.views().views() {
            let mut fresh = v.def().instantiate();
            for id in v.def().inputs() {
                let delta =
                    deltas.entry(id).or_insert_with(|| DeltaSet::from_live_cells(&self.array(id)));
                fresh.apply(id, delta);
            }
            let name = v.name();
            assert_eq!(
                v.snapshot(),
                fresh.snapshot(),
                "{tag}: view '{name}' differs from its recompute"
            );
        }
    }

    fn slot(&self, array: ArrayId) -> &(ArraySchema, Cells) {
        self.arrays.get(&array).unwrap_or_else(|| panic!("{array} is not registered"))
    }

    fn cells_mut(&mut self, array: ArrayId) -> &mut Cells {
        let entry = self.arrays.get_mut(&array);
        &mut entry.unwrap_or_else(|| panic!("{array} is not registered")).1
    }
}

/// Windowed mean by the definition: a point map (a repeated cell keeps
/// its last value) probed once per offset of the window box by an
/// odometer, last dimension fastest. `(outputs, mean bits)`.
pub fn window_oracle(
    rows: &[Row],
    attr: usize,
    region: &Region,
    radius: i64,
) -> (u64, Option<u64>) {
    let grown = Region::new(
        region.low.iter().map(|v| v - radius).collect(),
        region.high.iter().map(|v| v + radius).collect(),
    );
    let points: BTreeMap<&[i64], f64> = rows
        .iter()
        .filter(|(c, _)| grown.contains_cell(c))
        .map(|(c, v)| (c.as_slice(), num(&v[attr])))
        .collect();
    let (mut total, mut outputs) = (0.0, 0u64);
    for cell in points.keys().filter(|c| region.contains_cell(c)) {
        let (mut sum, mut n) = (0.0, 0u64);
        let mut offset = vec![-radius; cell.len()];
        'odometer: loop {
            let probe: Vec<i64> = cell.iter().zip(&offset).map(|(c, o)| c + o).collect();
            if let Some(v) = points.get(probe.as_slice()) {
                sum += v;
                n += 1;
            }
            for d in (0..offset.len()).rev() {
                if offset[d] < radius {
                    offset[d] += 1;
                    continue 'odometer;
                }
                offset[d] = -radius;
            }
            break;
        }
        total += sum / n as f64;
        outputs += 1;
    }
    (outputs, (outputs > 0).then(|| (total / outputs as f64).to_bits()))
}
