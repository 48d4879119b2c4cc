//! Execution context: the cluster + catalog pair every operator runs
//! against, and the one scan path they all share —
//! [`ExecutionContext::plan_scan`] decides which chunks a query touches,
//! and the resulting [`ScanPlan`] charges them to the cost model and
//! hands their selected rows to the operator.
//!
//! A partitioned array is planned off the cluster's placement index
//! alone: one walk of its chunk grid over the query's band
//! ([`Cluster::band`]) gives each chunk's key, home node and record —
//! descriptor and cells — together: the catalog gives its schema, and
//! holds none of its chunks. Only a replicated array, which no node
//! places, is planned from the catalog.

use crate::catalog::{Catalog, StoredArray};
use crate::error::{QueryError, Result};
use crate::ops::keys::{CellBox, CellIndex};
use crate::ops::scan::SelectionMask;
use crate::predicate::Predicate;
use crate::stats::{scaled_bytes, WorkTracker};
use array_model::{ArrayId, Chunk, ChunkCoords, ChunkDescriptor, ChunkKey, Region, MAX_DIMS};
use cluster_sim::{Cluster, CostModel, NodeId, Resident, Slot};
use std::ops::ControlFlow;
use std::sync::Arc;

/// Everything an operator needs to run.
#[derive(Debug)]
pub struct ExecutionContext<'a> {
    /// The cluster whose placement is being queried.
    pub cluster: &'a Cluster,
    /// The arrays.
    pub catalog: &'a Catalog,
    /// Whether [`ExecutionContext::plan_scan`] may skip chunks whose zone
    /// map refutes the query. On by default; the pruning differentials
    /// turn it off to prove pruned answers are bit-identical.
    pruning: bool,
}

/// One operator's scan, planned chunk-by-chunk by
/// [`ExecutionContext::plan_scan`] off one walk of the placement index:
/// the chunks to visit (with payloads pre-fetched when the plan is exact)
/// plus the count of chunks the zone maps refuted. Every intersecting
/// chunk is routed and its record read before the prune decision, so a
/// failure (`NodeLost`) is identical whether pruning is on or off —
/// pruning can only remove work, never change an answer or mask an
/// error. Descriptors are borrowed from the chunks' records (from the
/// catalog for a replicated array), never copied. The plan is also the
/// crate's only way to charge a scan and to read its rows, so tombstones,
/// the region and the pushed-down predicate are honoured in one place.
pub struct ScanPlan<'a> {
    /// Chunks the operator must touch: descriptor, resident node, and the
    /// materialized payload (`None` unless the plan is exact).
    pub visit: Vec<(&'a ChunkDescriptor, NodeId, Option<&'a Chunk>)>,
    /// Chunks skipped because their zone map refuted the region or
    /// predicate (or they held no live cells). Zero when pruning is off
    /// or the plan is not exact.
    pub pruned: u64,
    /// Whether every chunk this plan reaches — visited or pruned — holds
    /// cells, i.e. whether the operator may answer cell-exactly. A plan
    /// that reaches no chunk is. One that reaches a chunk placed as a bare
    /// descriptor (a metadata-only run, or a cycle ingested without
    /// cells) is not: its operator returns a cost-model-only estimate
    /// rather than answer over a subset of the cells it names. Decided
    /// from the records the plan read, never from the rest of the array.
    pub exact: bool,
    /// The pruned chunks (`pruned` counts them), for operators that must
    /// also count the chunk-to-chunk pulls pruning removed.
    pub(crate) dead: Vec<(&'a ChunkDescriptor, NodeId)>,
    /// What the plan was made for; the row driver filters by both.
    region: Option<&'a Region>,
    pred: Option<(usize, &'a Predicate)>,
}

/// A chunk a plan visits: its descriptor, resident node and cells.
pub(crate) type Visit<'a> = (&'a ChunkDescriptor, NodeId, Option<&'a Chunk>);

impl<'a> ScanPlan<'a> {
    /// A plan over chunks the operator picked itself (kNN's ring
    /// exploration is not a region scan), read unfiltered: exact when
    /// every one of them holds cells.
    pub(crate) fn over(mut visit: Vec<Visit<'a>>) -> Self {
        let exact = settle(&mut visit);
        ScanPlan { visit, pruned: 0, exact, dead: Vec::new(), region: None, pred: None }
    }

    /// Charge the scan: every visited chunk is read where it lives
    /// (`fraction` of its bytes — vertical partitioning), every pruned
    /// chunk is only counted. `also` runs right after each chunk's scan
    /// with the bytes charged, so an operator's further per-chunk costs
    /// accumulate on the node in chunk order.
    pub(crate) fn charge(
        &self,
        tracker: &mut WorkTracker<'_>,
        fraction: f64,
        mut also: impl FnMut(&mut WorkTracker<'_>, &ChunkDescriptor, NodeId, u64),
    ) {
        for &(desc, node, _) in &self.visit {
            let bytes = scaled_bytes(desc.bytes, fraction);
            tracker.scan_chunk(node, bytes);
            also(tracker, desc, node, bytes);
        }
        tracker.prune_chunks(self.pruned);
    }

    /// Every chunk of the scan by position, visited and pruned: a
    /// [`ChunkIndex`].
    pub(crate) fn homes(&self) -> ChunkIndex<'a> {
        let live = self.visit.iter().map(|&(d, n, _)| (d, n, true));
        let dead = self.dead.iter().map(|&(d, n)| (d, n, false));
        ChunkIndex::new(live.chain(dead).collect())
    }

    /// A box holding every cell the row driver can select: the visited
    /// chunks' zone boxes, each clipped to the planned region. A zone box
    /// covers its chunk's live rows even when stale, so this is a superset
    /// of the scan — the data's own box, as tight as metadata makes it.
    /// Empty unless the plan is exact.
    pub(crate) fn cell_box(&self, ndims: usize) -> CellBox {
        let mut all = CellBox::empty(ndims);
        let payloads = self.visit.iter().filter_map(|(_, _, payload)| *payload);
        for chunk in payloads.filter(|_| self.exact) {
            let (mut low, mut high) = ([0; MAX_DIMS], [0; MAX_DIMS]);
            let zone = chunk.zone().dims();
            debug_assert_eq!(zone.len(), ndims);
            let selects = zone.iter().enumerate().all(|(d, z)| {
                let (rlow, rhigh) =
                    self.region.map_or((i64::MIN, i64::MAX), |r| (r.low[d], r.high[d]));
                (low[d], high[d]) = (z.min.max(rlow), z.max.min(rhigh));
                low[d] <= high[d]
            });
            if selects {
                all.include(&low[..ndims], &high[..ndims]);
            }
        }
        all
    }

    /// The row driver: for each visited chunk, in row-major chunk order,
    /// `f` gets the chunk and the mask of its rows that are live, inside
    /// the planned region, and satisfy the pushed-down predicate. Masks
    /// drain in ascending physical (insertion) order. Yields nothing
    /// unless the plan is exact.
    pub(crate) fn for_each_chunk(&self, mut f: impl FnMut(&'a Chunk, SelectionMask)) -> Result<()> {
        if !self.exact {
            return Ok(());
        }
        for (_, _, payload) in &self.visit {
            let Some(chunk) = *payload else { continue };
            let mut mask = SelectionMask::live(chunk);
            if let Some(region) = self.region {
                mask.retain_region(chunk, region);
            }
            if let Some((attr, pred)) = self.pred {
                mask.retain_predicate(chunk, attr, pred)?;
            }
            f(chunk, mask);
        }
        Ok(())
    }
}

/// Every chunk of one scan by position ([`ScanPlan::homes`]): what the
/// operators that look a chunk's neighbours up — window halo, trajectory
/// hand-off, rolling predecessor, join pairing — probe once to six times
/// per chunk. A chunk is one integer here (`ops/keys.rs`): its row-major
/// ordinal in the box of the plan's chunk coordinates, or its padded
/// coordinates when that box is too large to number, filed in a
/// [`CellIndex`] at the position of its home.
pub(crate) struct ChunkIndex<'p> {
    /// The plan's arity (its schema's); a probe of another finds nothing.
    nd: usize,
    positions: CellIndex,
    /// By position: descriptor, resident node, and whether the chunk is
    /// visited (`false`: pruned).
    homes: Vec<(&'p ChunkDescriptor, NodeId, bool)>,
}

impl<'p> ChunkIndex<'p> {
    /// Index `homes`, distinct chunks.
    fn new(mut homes: Vec<(&'p ChunkDescriptor, NodeId, bool)>) -> Self {
        let nd = homes.first().map_or(0, |(d, ..)| d.key.coords.ndims());
        // Every chunk of a plan has its array's arity; a descriptor set
        // built by hand against another schema loses its strays here
        // rather than panicking in the box.
        debug_assert!(homes.iter().all(|(d, ..)| d.key.coords.ndims() == nd));
        homes.retain(|(d, ..)| d.key.coords.ndims() == nd);
        let coords = || homes.iter().map(|(d, ..)| d.key.coords.as_slice());
        let mut bounds = CellBox::empty(nd);
        coords().for_each(|c| bounds.include(c, c));
        ChunkIndex { nd, positions: CellIndex::new(&bounds, homes.len(), coords()), homes }
    }

    /// The chunk at `coords`, if the scan planned it.
    #[inline]
    pub(crate) fn get(&self, coords: &ChunkCoords) -> Option<(&'p ChunkDescriptor, NodeId, bool)> {
        if coords.ndims() != self.nd {
            return None;
        }
        self.positions.position(coords.as_slice()).map(|at| self.homes[at])
    }

    /// The chunk `step` chunks from `coords` along `dim`, if the scan
    /// planned it. Checked: past either end of chunk-index space there is
    /// no position, so no chunk.
    #[inline]
    pub(crate) fn neighbour(
        &self,
        coords: &ChunkCoords,
        dim: usize,
        step: i64,
    ) -> Option<(&'p ChunkDescriptor, NodeId, bool)> {
        let mut at = *coords;
        at[dim] = coords[dim].checked_add(step)?;
        self.get(&at)
    }
}

impl<'a> ExecutionContext<'a> {
    /// Bundle a cluster and catalog.
    pub fn new(cluster: &'a Cluster, catalog: &'a Catalog) -> Self {
        ExecutionContext { cluster, catalog, pruning: true }
    }

    /// Disable zone-map chunk pruning: the differential suites' reference
    /// path — they run every query both ways and require bit-identical
    /// answers. Not a tuning knob; production contexts always prune.
    #[doc(hidden)]
    pub fn with_pruning(mut self, on: bool) -> Self {
        self.pruning = on;
        self
    }

    /// The cost model in force.
    pub fn cost(&self) -> &CostModel {
        self.cluster.cost_model()
    }

    /// Which node serves this chunk: the one holding its primary.
    /// Replicated arrays are "held" by every node; callers pass the node
    /// that wants to read, and get it back.
    ///
    /// A lost chunk ([`Slot::Lost`]) is a typed [`QueryError::NodeLost`]
    /// — never a panic, never a silent wrong answer.
    pub fn node_of(
        &self,
        array: &StoredArray,
        coords: &ChunkCoords,
        reader: Option<NodeId>,
    ) -> Result<NodeId> {
        if array.replicated {
            return Ok(reader.unwrap_or_else(|| self.cluster.coordinator()));
        }
        Ok(self.serving_home(array.key_for(coords))?.0)
    }

    /// The node serving a partitioned array's chunk and the chunk's
    /// record there — one probe of the placement index. `ChunkKey` is
    /// `Copy`, so even the miss branch builds no string — the error
    /// renders itself lazily at display time. This lookup runs once per
    /// chunk per operator; the healthy path must stay allocation-free
    /// (pinned by `tests/alloc_free_routing.rs`).
    #[inline]
    fn serving_home(&self, key: ChunkKey) -> Result<(NodeId, &'a Resident)> {
        placed(self.cluster.home(&key).ok_or(QueryError::Unplaced(key))?, || key)
    }

    /// The materialized cells of one chunk, from the one place they
    /// live. A replicated array lives whole on every node — its cells are
    /// the catalog's `data`, read locally. Every other array's cells are
    /// its record's, on the node holding its primary
    /// ([`Cluster::home`]). `None` when that node does not hold them — the
    /// chunk is metadata only, or lost.
    pub fn chunk_payload(&self, array: &'a StoredArray, coords: &ChunkCoords) -> Option<&'a Chunk> {
        if array.replicated {
            return array.data.as_ref()?.chunk(coords);
        }
        let key = array.key_for(coords);
        placed(self.cluster.home(&key)?, || key).ok().and_then(|(_, record)| cells(record))
    }

    /// The chunk at `coords`, for an operator that reads chunks by
    /// position rather than by region (kNN's ring): its descriptor, the
    /// node holding it (`None` for a replicated array: every node does)
    /// and its cells. One probe of the placement index for a partitioned
    /// array. `None` when no chunk is there; a lost chunk is
    /// [`QueryError::NodeLost`], as in [`ExecutionContext::plan_scan`].
    pub(crate) fn chunk_at(
        &self,
        array: &'a StoredArray,
        coords: &ChunkCoords,
    ) -> Result<Option<Reading<'a>>> {
        if array.replicated {
            let payload = self.chunk_payload(array, coords);
            return Ok(array.descriptors.get(coords).map(|desc| (desc, None, payload)));
        }
        let key = array.key_for(coords);
        let Some(slot) = self.cluster.home(&key) else { return Ok(None) };
        let (home, record) = placed(slot, || key)?;
        Ok(Some((record.descriptor(), Some(home), cells(record))))
    }

    /// Whether pruning may drop `chunk` from a scan of `region` under
    /// `pred`: it has no live cells, its zone map refutes the region, or
    /// the predicate refutes its value summary / dictionary. Such a chunk
    /// contributes zero rows, so answers are bit-identical either way.
    pub(crate) fn refuted(
        &self,
        chunk: &Chunk,
        region: Option<&Region>,
        pred: Option<(usize, &Predicate)>,
    ) -> bool {
        self.pruning
            && (chunk.cell_count() == 0
                || region.is_some_and(|r| chunk.zone().refutes_region(r))
                || pred.is_some_and(|(attr, p)| p.refutes_chunk(chunk, attr)))
    }

    /// Plan a scan of `array_id` over `region` (all chunks when `None`),
    /// optionally pushing down a predicate on attribute `pred.0`. Every
    /// operator plans through here:
    ///
    /// 1. a partitioned array's chunks come from one walk of the
    ///    cluster's placement index over the region's chunk band
    ///    ([`Cluster::band`], [`Region::chunk_band`]), in row-major chunk
    ///    order: each step yields a chunk's key and slot — home node and
    ///    record — together, so planning costs what the query names, not
    ///    what the array has accumulated, and reads no catalog
    ///    descriptor. Every intersecting chunk is routed, so a lost chunk
    ///    ([`QueryError::NodeLost`]) surfaces exactly as it would
    ///    unpruned. A replicated array is planned by filtering the
    ///    catalog's descriptors, each read locally;
    /// 2. the plan is exact when every chunk it reaches holds cells; then
    ///    each chunk's payload comes off the same record, shared by the
    ///    cost and answer loops. Otherwise no payload is kept and every
    ///    chunk is visited, in walk order;
    /// 3. with pruning enabled, an exact plan drops each chunk the query
    ///    refutes (`ExecutionContext::refuted`) from the visit list and
    ///    counts it as pruned.
    pub fn plan_scan<'p>(
        &self,
        array_id: ArrayId,
        region: Option<&'p Region>,
        pred: Option<(usize, &'p Predicate)>,
    ) -> Result<ScanPlan<'p>>
    where
        'a: 'p,
    {
        let array = self.catalog.array(array_id)?;
        if let Some(r) = region {
            if r.ndims() != array.schema.ndims() {
                return Err(QueryError::RegionArity {
                    expected: array.schema.ndims(),
                    got: r.ndims(),
                });
            }
        }
        let mut visit = Vec::new();
        let mut plan = |desc, node, payload| visit.push((desc, node, payload));
        let meets =
            |coords: &ChunkCoords| region.is_none_or(|r| r.intersects_chunk(&array.schema, coords));
        if array.replicated {
            let reader = self.cluster.coordinator();
            for (coords, desc) in array.descriptors.iter().filter(|(c, _)| meets(c)) {
                plan(desc, reader, self.chunk_payload(array, coords));
            }
        } else {
            let (first, last) =
                region.map_or_else(|| whole_band(array), |r| r.chunk_band(&array.schema));
            // On each dimension the chunk indexes that meet the region
            // are a run (both ends of a chunk's range grow with its
            // index) inside the band. When both corners of the band meet
            // it, that run is the whole band: no chunk needs the test.
            let tight = meets(&first) && meets(&last);
            let walk = self.cluster.band(array.id, &first, &last, |coords, slot| {
                if !tight && !meets(coords) {
                    return ControlFlow::Continue(());
                }
                match placed(slot, || array.key_for(coords)) {
                    Ok((home, record)) => plan(record.descriptor(), home, cells(record)),
                    Err(lost) => return ControlFlow::Break(lost),
                }
                ControlFlow::Continue(())
            });
            if let ControlFlow::Break(lost) = walk {
                return Err(lost);
            }
        }
        let exact = settle(&mut visit);
        let mut dead = Vec::new();
        if exact && self.pruning {
            visit.retain(|&(desc, node, payload)| {
                let refuted = payload.is_some_and(|chunk| self.refuted(chunk, region, pred));
                if refuted {
                    dead.push((desc, node));
                }
                !refuted
            });
        }
        Ok(ScanPlan { visit, pruned: dead.len() as u64, exact, dead, region, pred })
    }

    /// The byte fraction of a chunk occupied by the named attributes —
    /// vertical partitioning means an operator reading two of seven
    /// attributes scans only their columns. Coordinates always come along
    /// (they are the chunk's positional index).
    ///
    /// The estimate weights each attribute by `fixed_width()`; strings
    /// count their 4 B dictionary code (the column's dictionary bytes
    /// amortize toward zero at low cardinality). Against dictionary-
    /// encoded AIS payloads the estimate lands within a few percent of
    /// the true column bytes; against plain-encoded payloads it
    /// undercounts the string columns' per-value payloads and lands
    /// within the ±25 % bound documented (and re-derived) in
    /// `tests/materialized_queries.rs`.
    pub fn attr_fraction(&self, array: &StoredArray, attrs: &[&str]) -> Result<f64> {
        let coord_bytes = (array.schema.ndims() * 8) as f64;
        let total: f64 = coord_bytes
            + array.schema.attributes.iter().map(|a| a.ty.fixed_width() as f64).sum::<f64>();
        let mut wanted = coord_bytes;
        for name in attrs {
            let idx = array.attribute_index(name)?;
            wanted += array.schema.attributes[idx].ty.fixed_width() as f64;
        }
        Ok((wanted / total).clamp(0.0, 1.0))
    }
}

/// What [`ExecutionContext::chunk_at`] finds at a position: descriptor,
/// holder and cells.
pub(crate) type Reading<'a> = (&'a ChunkDescriptor, Option<NodeId>, Option<&'a Chunk>);

/// A placed chunk's home and record: the one place a read decides a
/// lost chunk, as [`QueryError::NodeLost`] naming `key()`.
fn placed(slot: &Slot, key: impl FnOnce() -> ChunkKey) -> Result<(NodeId, &Resident)> {
    match slot {
        Slot::Placed { home, record } => Ok((*home, record)),
        Slot::Lost { .. } => Err(QueryError::NodeLost(key())),
    }
}

/// Whether every chunk of `visit` holds cells. When one does not, the
/// plan is the cost model's alone: every payload is dropped, so no
/// operator can answer over a subset of the cells it reached.
fn settle(visit: &mut [Visit<'_>]) -> bool {
    let exact = visit.iter().all(|(_, _, payload)| payload.is_some());
    if !exact {
        visit.iter_mut().for_each(|(_, _, payload)| *payload = None);
    }
    exact
}

/// A record's cells, when they are materialized.
fn cells(record: &Resident) -> Option<&Chunk> {
    record.payload().map(Arc::as_ref)
}

/// The box of every chunk position of `array`'s arity.
fn whole_band(array: &StoredArray) -> (ChunkCoords, ChunkCoords) {
    let n = array.schema.ndims();
    (ChunkCoords::new(&[i64::MIN; MAX_DIMS][..n]), ChunkCoords::new(&[i64::MAX; MAX_DIMS][..n]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::StoredArray;
    use array_model::{Array, ArraySchema, ScalarValue};
    use cluster_sim::CostModel;
    use std::collections::BTreeMap;

    /// 8 x 8 cells in sixteen 2 x 2 chunks.
    fn grid() -> Array {
        let schema = ArraySchema::parse("A<v:int32, w:double>[x=0:7,2, y=0:7,2]").unwrap();
        let mut a = Array::new(ArrayId(0), schema);
        for x in 0..8 {
            for y in 0..8 {
                a.insert_cell(vec![x, y], vec![ScalarValue::Int32(1), ScalarValue::Double(0.5)])
                    .unwrap();
            }
        }
        a
    }

    /// [`grid`], its chunks alternating across two nodes.
    fn setup() -> (Cluster, Catalog) {
        let mut cluster = Cluster::new(2, u64::MAX, CostModel::default()).unwrap();
        let mut cat = Catalog::new();
        cat.place_array(&mut cluster, &grid(), |_, i, _| NodeId((i % 2) as u32)).unwrap();
        (cluster, cat)
    }

    #[test]
    fn plan_scan_region_filters_and_locates() {
        let (cluster, cat) = setup();
        let ctx = ExecutionContext::new(&cluster, &cat);
        let all = ctx.plan_scan(ArrayId(0), None, None).unwrap();
        assert_eq!(all.visit.len(), 16);
        let corner = Region::new(vec![0, 0], vec![1, 1]);
        let some = ctx.plan_scan(ArrayId(0), Some(&corner), None).unwrap();
        assert_eq!(some.visit.len(), 1);
        let bad = Region::new(vec![0], vec![1]);
        assert!(matches!(
            ctx.plan_scan(ArrayId(0), Some(&bad), None),
            Err(QueryError::RegionArity { .. })
        ));
    }

    /// Rows the plan's driver hands out, per visited chunk.
    fn driven_rows(plan: &ScanPlan<'_>) -> Vec<u64> {
        let mut rows = Vec::new();
        plan.for_each_chunk(|_, mask| rows.push(mask.count())).unwrap();
        rows
    }

    #[test]
    fn partially_materialized_arrays_fail_the_cells_gate() {
        let mut cluster = Cluster::new(1, u64::MAX, CostModel::default()).unwrap();
        let schema = ArraySchema::parse("P<v:int32>[x=0:7,2]").unwrap();
        let mk = |x: i64| {
            let mut c = Chunk::new(&schema, ChunkCoords::new([x / 2]));
            c.push_cell(&schema, vec![x], vec![ScalarValue::Int32(x as i32)]).unwrap();
            c
        };
        let (c0, c1) = (mk(0), mk(2));
        let (d0, d1) = (c0.descriptor(ArrayId(5)), c1.descriptor(ArrayId(5)));
        cluster.place(d0, NodeId(0)).unwrap();
        cluster.place(d1, NodeId(0)).unwrap();
        // Only the first chunk gets its payload: the gate must close so
        // operators fall back to model-only answers instead of silently
        // computing over half the cells.
        cluster.attach_payload(d0.key, c0).unwrap();
        let mut cat = Catalog::new();
        cat.register(StoredArray::from_descriptors(ArrayId(5), schema.clone(), [d0, d1]));
        {
            let ctx = ExecutionContext::new(&cluster, &cat);
            let array = cat.array(ArrayId(5)).unwrap();
            assert!(ctx.chunk_payload(array, &ChunkCoords::new([0])).is_some());
            assert!(ctx.chunk_payload(array, &ChunkCoords::new([1])).is_none());
            let plan = ctx.plan_scan(ArrayId(5), None, None).unwrap();
            assert!(!plan.exact, "half-materialized must fail the gate");
            assert_eq!(plan.visit.len(), 2, "both chunks are still routed and costed");
            assert!(driven_rows(&plan).is_empty(), "an inexact plan must yield no rows");
            // A plan that reaches only the materialized chunk answers it.
            let first = Region::new(vec![0], vec![1]);
            let plan = ctx.plan_scan(ArrayId(5), Some(&first), None).unwrap();
            assert!(plan.exact, "a plan reaching only cells is exact");
            assert_eq!(driven_rows(&plan), vec![1]);
        }
        // Attaching the missing payload opens the gate.
        cluster.attach_payload(d1.key, c1).unwrap();
        let ctx = ExecutionContext::new(&cluster, &cat);
        let array = cat.array(ArrayId(5)).unwrap();
        assert!(ctx.chunk_payload(array, &ChunkCoords::new([1])).is_some());
        let plan = ctx.plan_scan(ArrayId(5), None, None).unwrap();
        assert!(plan.exact);
        assert_eq!(driven_rows(&plan), vec![1, 1]);
    }

    #[test]
    fn attr_fraction_reflects_vertical_partitioning() {
        let (cluster, cat) = setup();
        let ctx = ExecutionContext::new(&cluster, &cat);
        let array = cat.array(ArrayId(0)).unwrap();
        // coords 16B + int32 4B + double 8B = 28B total
        let just_v = ctx.attr_fraction(array, &["v"]).unwrap();
        assert!((just_v - 20.0 / 28.0).abs() < 1e-9);
        let both = ctx.attr_fraction(array, &["v", "w"]).unwrap();
        assert!((both - 1.0).abs() < 1e-9);
        assert!(ctx.attr_fraction(array, &["nope"]).is_err());
    }

    /// At k = 2 a crash promotes a holder before it returns, so every
    /// chunk is read from its (new) primary: there is no state in which
    /// a replica serves for a primary that is down.
    #[test]
    fn k2_crash_promotes_before_any_read() {
        let mut cluster = Cluster::with_replication(3, u64::MAX, CostModel::default(), 2).unwrap();
        let mut cat = Catalog::new();
        cat.place_array(&mut cluster, &grid(), |_, _, _| NodeId(0)).unwrap();
        cluster.crash_node(NodeId(0)).unwrap();
        let ctx = ExecutionContext::new(&cluster, &cat);
        let array = cat.array(ArrayId(0)).unwrap();
        for (coords, _) in grid().shared_chunks() {
            assert_ne!(ctx.node_of(array, coords, None).unwrap(), NodeId(0));
            assert!(ctx.chunk_payload(array, coords).is_some());
        }
        assert!(ctx.plan_scan(ArrayId(0), None, None).unwrap().exact);
    }

    #[test]
    fn k1_crash_yields_typed_node_lost_not_wrong_answers() {
        let mut cluster = Cluster::new(2, u64::MAX, CostModel::default()).unwrap();
        let schema = ArraySchema::parse("L<v:int32>[x=0:3,2]").unwrap();
        let mk = |x: i64| {
            let mut c = Chunk::new(&schema, ChunkCoords::new([x / 2]));
            c.push_cell(&schema, vec![x], vec![ScalarValue::Int32(x as i32)]).unwrap();
            c
        };
        let (c0, c1) = (mk(0), mk(2));
        let (d0, d1) = (c0.descriptor(ArrayId(11)), c1.descriptor(ArrayId(11)));
        cluster.place(d0, NodeId(0)).unwrap();
        cluster.place(d1, NodeId(1)).unwrap();
        cluster.attach_payload(d0.key, c0).unwrap();
        cluster.attach_payload(d1.key, c1).unwrap();
        cluster.crash_node(NodeId(0)).unwrap();
        let mut cat = Catalog::new();
        cat.register(StoredArray::from_descriptors(ArrayId(11), schema, [d0, d1]));
        let ctx = ExecutionContext::new(&cluster, &cat);
        let array = cat.array(ArrayId(11)).unwrap();
        assert!(matches!(
            ctx.node_of(array, &ChunkCoords::new([0]), None),
            Err(QueryError::NodeLost(k)) if k == d0.key
        ));
        assert!(ctx.chunk_payload(array, &ChunkCoords::new([0])).is_none());
        // The surviving chunk is untouched.
        assert_eq!(ctx.node_of(array, &ChunkCoords::new([1]), None).unwrap(), NodeId(1));
        assert!(ctx.chunk_payload(array, &ChunkCoords::new([1])).is_some());
        // A plan over the surviving chunk reaches no lost one: it answers.
        let survivor = Region::new(vec![2], vec![3]);
        let plan = ctx.plan_scan(ArrayId(11), Some(&survivor), None).unwrap();
        assert!(plan.exact, "the survivor's plan reaches only cells");
        assert_eq!(driven_rows(&plan), vec![1]);
        // Planning routes every chunk, so the lost one is a typed refusal.
        assert!(matches!(
            ctx.plan_scan(ArrayId(11), None, None),
            Err(QueryError::NodeLost(k)) if k == d0.key
        ));
    }

    /// A whole-array copy in the catalog answers nothing for a
    /// partitioned array: with node 0's chunks lost at k = 1 the scan is
    /// refused.
    #[test]
    fn a_catalog_copy_does_not_backstop_crashed_k1_primaries() {
        let (mut cluster, mut cat) = setup();
        // The copy the runner used to keep beside the node stores.
        cat.array_mut(ArrayId(0)).unwrap().data = Some(grid());
        cluster.crash_node(NodeId(0)).unwrap();
        let ctx = ExecutionContext::new(&cluster, &cat);
        let array = cat.array(ArrayId(0)).unwrap();
        // setup() places even-indexed chunks on node 0: eight are lost.
        let oracle = grid();
        let coords: Vec<_> = oracle.shared_chunks().map(|(c, _)| *c).collect();
        let lost = coords.iter().filter(|c| ctx.chunk_payload(array, c).is_none());
        assert_eq!(lost.count(), 8);
        // A surviving chunk answers from its node store alone.
        let survivor = coords.iter().find(|c| ctx.chunk_payload(array, c).is_some()).unwrap();
        let (x, y) = (survivor[0] * 2, survivor[1] * 2);
        let its_box = Region::new(vec![x, y], vec![x + 1, y + 1]);
        let plan = ctx.plan_scan(ArrayId(0), Some(&its_box), None).unwrap();
        assert!(plan.exact);
        assert_eq!(driven_rows(&plan), vec![4]);
        assert!(matches!(ctx.plan_scan(ArrayId(0), None, None), Err(QueryError::NodeLost(_))));
        assert!(matches!(ctx.node_of(array, &coords[0], None), Err(QueryError::NodeLost(_))));
    }

    #[test]
    fn subarray_reaches_the_chunk_that_ends_at_i64_max() {
        // `chunk_range` of the last chunk of `x=0:*,1000` used to wrap:
        // release planned 0 chunks and answered 0 rows, debug aborted.
        let schema = ArraySchema::parse("A<v:int32>[x=0:*,1000]").unwrap();
        let mut a = Array::new(ArrayId(4), schema);
        a.insert_cell(vec![i64::MAX], vec![ScalarValue::Int32(7)]).unwrap();
        a.insert_cell(vec![5], vec![ScalarValue::Int32(1)]).unwrap();
        let mut cluster = Cluster::new(2, u64::MAX, CostModel::default()).unwrap();
        let mut cat = Catalog::new();
        cat.place_array(&mut cluster, &a, |_, _, _| NodeId(1)).unwrap();
        let ctx = ExecutionContext::new(&cluster, &cat);
        let tail = Region::new(vec![i64::MAX - 5], vec![i64::MAX]);
        let (cells, stats) = crate::ops::subarray(&ctx, ArrayId(4), &tail, &[]).unwrap();
        assert_eq!(stats.chunks_visited, 1);
        let rows: Vec<_> = cells.cells.iter().collect();
        assert_eq!(rows, vec![(&[i64::MAX][..], &[ScalarValue::Int32(7)][..])]);
        let all = Region::new(vec![i64::MIN], vec![i64::MAX]);
        assert_eq!(ctx.plan_scan(ArrayId(4), Some(&all), None).unwrap().visit.len(), 2);
    }

    /// A seeded draw for the generators below (splitmix64): regions are
    /// derived from the schema and chunks drawn before them, which a
    /// strategy tuple cannot express.
    struct Draw(u64);

    impl Draw {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> i64 {
            (self.next() % n) as i64
        }

        /// Near either end of `i64`, around zero, or anywhere.
        fn edge(&mut self) -> i64 {
            match self.below(4) {
                0 => i64::MIN + self.below(3_000),
                1 => i64::MAX - self.below(3_000),
                2 => self.below(6_000) - 3_000,
                _ => self.next() as i64,
            }
        }
    }

    /// What the plan must equal: every chunk of `array` the cluster
    /// places — read off its records, not the catalog — filtered by
    /// `Region::intersects_chunk`, in key order.
    fn walked<'s>(
        cluster: &'s Cluster,
        array: &StoredArray,
        region: Option<&Region>,
    ) -> Vec<&'s ChunkDescriptor> {
        cluster
            .residents()
            .map(Resident::descriptor)
            .filter(|d| d.key.array == array.id)
            .filter(|d| region.is_none_or(|r| r.intersects_chunk(&array.schema, &d.key.coords)))
            .collect()
    }

    /// One to four dimensions with starts at the ends of `i64` as often
    /// as not, bounded and `*`, intervals from 1 to most of the type.
    fn edge_schema(draw: &mut Draw) -> ArraySchema {
        use array_model::{AttributeDef, AttributeType, DimensionDef};
        let dims = (0..1 + draw.below(4))
            .map(|d| {
                let start = draw.edge();
                let interval = match draw.below(4) {
                    0 => 1,
                    1 => 1 + draw.below(50),
                    2 => 1 + draw.below(1 << 40),
                    _ => i64::MAX - draw.below(3),
                };
                let reach = if draw.below(2) == 0 { draw.below(500) } else { draw.edge() };
                match draw.below(2) {
                    0 => DimensionDef::unbounded(format!("d{d}"), start, interval),
                    _ => DimensionDef::bounded(
                        format!("d{d}"),
                        start,
                        start.saturating_add(reach.saturating_abs()),
                        interval,
                    ),
                }
            })
            .collect();
        ArraySchema::new("E", vec![AttributeDef::new("v", AttributeType::Int32)], dims).unwrap()
    }

    /// One draw of the plan property. Band vs walk, metadata only: over
    /// schemas, sparse chunk sets (indexes no cell could file under
    /// included) and regions at the ends of `i64` — inside, straddling,
    /// wholly outside, inverted, absent — the plan visits exactly the
    /// chunks the filter of the placed chunks keeps, in key order, on the
    /// nodes that hold them, with their records' descriptors; a
    /// descriptor only the catalog holds is not planned; the wrong arity
    /// is `RegionArity`.
    fn check_plan(seed: u64) {
        let mut draw = Draw(seed);
        let schema = edge_schema(&mut draw);
        let n = schema.ndims();
        // Chunk indexes cluster near 0 (so regions hit them), with
        // strays: negative, past a bounded end, at the type's ends.
        let index = |draw: &mut Draw, dim: &array_model::DimensionDef| match draw.below(8) {
            0 => -1 - draw.below(3),
            1 => dim.chunk_index(dim.end.unwrap_or(i64::MAX)).saturating_add(draw.below(3)),
            2 => draw.edge(),
            _ => draw.below(6),
        };
        let mut descs = Vec::new();
        for i in 0..draw.below(40) {
            let mut coords = ChunkCoords::zeros(n);
            for (d, dim) in schema.dimensions.iter().enumerate() {
                coords[d] = index(&mut draw, dim);
            }
            let key = array_model::ChunkKey::new(ArrayId(2), coords);
            descs.push(ChunkDescriptor::new(key, 100 + i as u64, 1));
        }
        let array = StoredArray::from_descriptors(ArrayId(2), schema.clone(), descs);
        let mut cluster = Cluster::new(3, u64::MAX, CostModel::default()).unwrap();
        let unplaced = match draw.below(3) {
            0 => array.descriptors.keys().nth(draw.below(40) as usize).copied(),
            _ => None,
        };
        for (i, (coords, d)) in array.descriptors.iter().enumerate() {
            if Some(*coords) != unplaced {
                cluster.place(*d, NodeId((i % 3) as u32)).unwrap();
            }
        }
        let mut cat = Catalog::new();
        cat.register(array);
        let array = cat.array(ArrayId(2)).unwrap();
        let ctx = ExecutionContext::new(&cluster, &cat);

        let mut regions = vec![None];
        for _ in 0..24 {
            // A corner: an end of some nearby chunk, nudged, or an
            // end of the type.
            let corner = |draw: &mut Draw, dim: &array_model::DimensionDef| {
                let (lo, hi) = dim.chunk_range(draw.below(9) - 2);
                match draw.below(8) {
                    0 => i64::MIN,
                    1 => i64::MAX,
                    2 => draw.edge(),
                    3 | 4 => lo.saturating_add(draw.below(5) - 2),
                    _ => hi.saturating_add(draw.below(5) - 2),
                }
            };
            let (mut low, mut high) = (Vec::new(), Vec::new());
            for dim in &schema.dimensions {
                let (a, b) = (corner(&mut draw, dim), corner(&mut draw, dim));
                // One corner pair in eight stays inverted.
                let (a, b) =
                    if draw.below(8) == 0 { (a.max(b), a.min(b)) } else { (a.min(b), a.max(b)) };
                low.push(a);
                high.push(b);
            }
            regions.push(Some(Region::new(low, high)));
        }
        for region in &regions {
            let region = region.as_ref();
            let expect = walked(&cluster, array, region);
            assert!(expect.iter().all(|d| Some(d.key.coords) != unplaced));
            let plan = ctx.plan_scan(ArrayId(2), region, None).unwrap();
            assert!(plan.dead.is_empty() && plan.pruned == 0);
            let got: Vec<_> = plan.visit.iter().map(|&(d, node, _)| (d, node)).collect();
            let want: Vec<_> = expect
                .iter()
                .map(|d| (*d, cluster.locate(&d.key).expect("placed above")))
                .collect();
            assert_eq!(got, want, "{schema} over {region:?}");
            assert!(got.iter().all(|(d, _)| std::ptr::eq(*d, cluster.descriptor(&d.key).unwrap())));
        }
        let bad = Region::new(vec![0; n + 1], vec![9; n + 1]);
        assert!(matches!(
            ctx.plan_scan(ArrayId(2), Some(&bad), None),
            Err(QueryError::RegionArity { expected, got }) if expected == n && got == n + 1
        ));
    }

    proptest::proptest! {
        #[test]
        fn plan_scan_equals_the_filter_of_the_whole_map(seed in proptest::prelude::any::<u64>()) {
            check_plan(seed);
        }

        /// Band vs walk over real cells: `visit` and `dead` together are
        /// the filter of the placed chunks, each in key order — pruning
        /// only moves a chunk from one list to the other.
        #[test]
        fn visit_and_dead_partition_the_filter_of_the_whole_map(seed in proptest::prelude::any::<u64>()) {
            use array_model::{AttributeDef, AttributeType, DimensionDef};
            let mut draw = Draw(seed);
            let dims: Vec<DimensionDef> = (0..1 + draw.below(3))
                .map(|d| {
                    let (start, interval) = (draw.below(100) - 50, 1 + draw.below(8));
                    match draw.below(2) {
                        0 => DimensionDef::unbounded(format!("d{d}"), start, interval),
                        _ => DimensionDef::bounded(format!("d{d}"), start, start + 40, interval),
                    }
                })
                .collect();
            let attrs = vec![AttributeDef::new("v", AttributeType::Int32)];
            let schema = ArraySchema::new("M", attrs, dims).unwrap();
            let mut a = Array::new(ArrayId(3), schema.clone());
            for i in 0..draw.below(80) {
                let cell = schema.dimensions.iter().map(|d| d.start + draw.below(41)).collect();
                a.insert_cell(cell, vec![ScalarValue::Int32(i as i32)]).unwrap();
            }
            let mut cluster = Cluster::new(2, u64::MAX, CostModel::default()).unwrap();
            let mut cat = Catalog::new();
            cat.place_array(&mut cluster, &a, |_, i, _| NodeId((i % 2) as u32)).unwrap();
            let array = cat.array(ArrayId(3)).unwrap();
            for _ in 0..16 {
                let (mut low, mut high) = (Vec::new(), Vec::new());
                for d in &schema.dimensions {
                    let (a, b) = (d.start + draw.below(60) - 10, d.start + draw.below(60) - 10);
                    low.push(a.min(b));
                    high.push(a.max(b));
                }
                let region = Region::new(low, high);
                let expect = walked(&cluster, array, Some(&region));
                let ctx = ExecutionContext::new(&cluster, &cat);
                let plan = ctx.plan_scan(ArrayId(3), Some(&region), None).unwrap();
                assert_eq!(plan.dead.len() as u64, plan.pruned);
                let mut got: Vec<_> =
                    plan.visit.iter().map(|&(d, ..)| d).chain(plan.dead.iter().map(|&(d, _)| d)).collect();
                assert!(plan.visit.windows(2).all(|w| w[0].0.key < w[1].0.key));
                assert!(plan.dead.windows(2).all(|w| w[0].0.key < w[1].0.key));
                got.sort_by_key(|d| d.key);
                assert_eq!(got, expect, "{schema} over {region:?}");
                let unpruned = ExecutionContext::new(&cluster, &cat).with_pruning(false);
                let plan = unpruned.plan_scan(ArrayId(3), Some(&region), None).unwrap();
                assert!(plan.dead.is_empty());
                assert_eq!(plan.visit.iter().map(|&(d, ..)| d).collect::<Vec<_>>(), expect);
            }
        }
    }

    #[test]
    fn replicated_arrays_read_locally() {
        let mut cluster = Cluster::new(3, u64::MAX, CostModel::default()).unwrap();
        cluster.add_nodes(0, 0);
        let schema = ArraySchema::parse("V<t:int32>[id=0:9,10]").unwrap();
        let a = Array::new(ArrayId(7), schema);
        let stored = StoredArray::from_array(a).replicated();
        let mut cat = Catalog::new();
        cat.register(stored);
        let ctx = ExecutionContext::new(&cluster, &cat);
        let arr = cat.array(ArrayId(7)).unwrap();
        let coords = ChunkCoords::new([0]);
        assert_eq!(ctx.node_of(arr, &coords, Some(NodeId(2))).unwrap(), NodeId(2));
        assert_eq!(ctx.node_of(arr, &coords, None).unwrap(), cluster.coordinator());
    }

    // -- the chunk index against the ordered map it replaced --

    /// What `homes` was: every chunk of the scan in one ordered map.
    fn homes_map<'p>(
        plan: &ScanPlan<'p>,
    ) -> BTreeMap<ChunkCoords, (&'p ChunkDescriptor, NodeId, bool)> {
        let live = plan.visit.iter().map(|&(d, n, _)| (d.key.coords, (d, n, true)));
        let dead = plan.dead.iter().map(|&(d, n)| (d.key.coords, (d, n, false)));
        live.chain(dead).collect()
    }

    /// Every probe an operator makes, answered by the index as by the map:
    /// each planned chunk and each of `strays`, the ±1 neighbour of every
    /// one on every dimension (past either end of `i64` there is none),
    /// and a probe of another arity.
    fn assert_index_is_the_map(plan: &ScanPlan<'_>, strays: &[ChunkCoords]) {
        let index = plan.homes();
        let map = homes_map(plan);
        for coords in map.keys().chain(strays) {
            assert_eq!(index.get(coords), map.get(coords).copied(), "{coords:?}");
            for dim in 0..coords.ndims() {
                for step in [-1, 1] {
                    let want = coords[dim].checked_add(step).and_then(|c| {
                        let mut at = *coords;
                        at[dim] = c;
                        map.get(&at).copied()
                    });
                    assert_eq!(index.neighbour(coords, dim, step), want, "{coords:?} {dim} {step}");
                }
            }
            let wider = ChunkCoords::new([coords.as_slice(), &[0]].concat());
            assert_eq!(index.get(&wider), None);
        }
    }

    /// One draw of the chunk-index property. Metadata only: a sparse
    /// chunk set — a dense block at zero or against either end of `i64`,
    /// so neighbours exist and some lie past the type, plus strays
    /// anywhere, so most boxes of two or more dimensions are too large to
    /// number and the index runs on padded keys — planned whole, over an
    /// inverted region (an empty plan) and over regions. Then over real
    /// cells with pruning on and off, so pruned chunks are indexed too.
    ///
    /// Returns whether the whole array's chunk box packs into a `u64`.
    fn check_chunk_index(seed: u64) -> bool {
        use array_model::{AttributeDef, AttributeType, ChunkKey, DimensionDef};
        let mut draw = Draw(seed);
        let schema = edge_schema(&mut draw);
        let n = schema.ndims();
        let block: Vec<i64> = (0..n)
            .map(|_| match draw.below(3) {
                0 => 0,
                1 => i64::MAX - 2,
                _ => i64::MIN,
            })
            .collect();
        let near = |draw: &mut Draw| {
            let mut coords = ChunkCoords::zeros(n);
            for (d, &corner) in block.iter().enumerate() {
                coords[d] = match draw.below(6) {
                    0 => draw.edge(),
                    _ => corner.saturating_add(draw.below(3)),
                };
            }
            coords
        };
        let chosen: std::collections::BTreeSet<ChunkCoords> =
            (0..draw.below(40)).map(|_| near(&mut draw)).collect();
        let strays: Vec<ChunkCoords> = (0..8).map(|_| near(&mut draw)).collect();
        let descs = chosen
            .iter()
            .enumerate()
            .map(|(i, c)| ChunkDescriptor::new(ChunkKey::new(ArrayId(2), *c), 100 + i as u64, 1));
        let array = StoredArray::from_descriptors(ArrayId(2), schema.clone(), descs);
        let mut cluster = Cluster::new(3, u64::MAX, CostModel::default()).unwrap();
        for (i, d) in array.descriptors.values().enumerate() {
            cluster.place(*d, NodeId((i % 3) as u32)).unwrap();
        }
        let mut cat = Catalog::new();
        cat.register(array);
        let ctx = ExecutionContext::new(&cluster, &cat);
        let whole = ctx.plan_scan(ArrayId(2), None, None).unwrap();
        assert_eq!(whole.visit.len(), chosen.len());
        assert_index_is_the_map(&whole, &strays);
        let volume = (0..n).fold(1u128, |v, d| {
            let (low, high) =
                chosen.iter().fold((i64::MAX, i64::MIN), |(l, h), c| (l.min(c[d]), h.max(c[d])));
            v.saturating_mul(u128::from(high.abs_diff(low)) + 1)
        });
        let packs = chosen.is_empty() || volume <= u128::from(u64::MAX);
        // No chunk spans all of `i64`, so none meets this one.
        let inverted = Region::new(vec![i64::MAX; n], vec![i64::MIN; n]);
        let empty = ctx.plan_scan(ArrayId(2), Some(&inverted), None).unwrap();
        assert!(empty.visit.is_empty());
        assert_index_is_the_map(&empty, &strays);
        for _ in 0..4 {
            let (mut low, mut high) = (Vec::new(), Vec::new());
            for _ in 0..n {
                let (a, b) = (draw.edge(), draw.edge());
                low.push(a.min(b));
                high.push(a.max(b));
            }
            let region = Region::new(low, high);
            let plan = ctx.plan_scan(ArrayId(2), Some(&region), None).unwrap();
            assert_index_is_the_map(&plan, &strays);
        }

        // Real cells: regions whose zone maps refute some chunks.
        let dims: Vec<DimensionDef> = (0..1 + draw.below(3))
            .map(|d| DimensionDef::bounded(format!("d{d}"), 0, 23, 1 + draw.below(4)))
            .collect();
        let attrs = vec![AttributeDef::new("v", AttributeType::Int32)];
        let schema = ArraySchema::new("M", attrs, dims).unwrap();
        let mut a = Array::new(ArrayId(3), schema.clone());
        for i in 0..draw.below(120) {
            let cell = schema.dimensions.iter().map(|_| draw.below(24)).collect();
            a.insert_cell(cell, vec![ScalarValue::Int32(i as i32)]).unwrap();
        }
        let mut cluster = Cluster::new(2, u64::MAX, CostModel::default()).unwrap();
        let mut cat = Catalog::new();
        cat.place_array(&mut cluster, &a, |_, i, _| NodeId((i % 2) as u32)).unwrap();
        let strays: Vec<ChunkCoords> = (0..8)
            .map(|_| {
                let coords: Vec<i64> =
                    schema.dimensions.iter().map(|_| draw.below(26) - 1).collect();
                ChunkCoords::new(coords)
            })
            .collect();
        for _ in 0..6 {
            let (mut low, mut high) = (Vec::new(), Vec::new());
            for _ in &schema.dimensions {
                let (a, b) = (draw.below(30) - 3, draw.below(30) - 3);
                low.push(a.min(b));
                high.push(a.max(b));
            }
            let region = Region::new(low, high);
            for pruning in [true, false] {
                let ctx = ExecutionContext::new(&cluster, &cat).with_pruning(pruning);
                let plan = ctx.plan_scan(ArrayId(3), Some(&region), None).unwrap();
                assert!(pruning || plan.dead.is_empty());
                assert_index_is_the_map(&plan, &strays);
            }
        }
        packs
    }

    proptest::proptest! {
        #[test]
        fn the_chunk_index_answers_every_probe_like_the_map(seed in proptest::prelude::any::<u64>()) {
            check_chunk_index(seed);
        }
    }

    #[test]
    #[ignore = "release-scale leg: cargo test --release -p cluster-sim -p query-engine --lib -- --ignored band_smoke"]
    fn plan_band_smoke() {
        (0..20_000).for_each(check_plan);
    }

    #[test]
    #[ignore = "release-scale leg: cargo test --release -p query-engine --lib -- --ignored bookkeeping_smoke"]
    fn chunk_index_bookkeeping_smoke() {
        let packed = (0..20_000).filter(|&seed| check_chunk_index(seed)).count();
        assert!((2_000..18_000).contains(&packed), "{packed} of 20 000 boxes packed");
    }

    #[test]
    fn a_neighbour_outside_the_box_is_not_planned() {
        // Chunks (0, 0) and (1, 0): the box is one chunk wide in y, so
        // (0, 1) lies outside it — where a row-major ordinal that skipped
        // the box check would land on (1, 0).
        let (cluster, cat) = setup();
        let ctx = ExecutionContext::new(&cluster, &cat);
        let corner = Region::new(vec![0, 0], vec![3, 1]);
        let plan = ctx.plan_scan(ArrayId(0), Some(&corner), None).unwrap();
        let index = plan.homes();
        let (desc, node, live) = index.get(&ChunkCoords::new([0, 0])).unwrap();
        assert_eq!((desc.key.coords, node, live), (ChunkCoords::new([0, 0]), NodeId(0), true));
        assert_eq!(index.neighbour(&ChunkCoords::new([0, 0]), 0, 1).map(|h| h.2), Some(true));
        assert_eq!(index.neighbour(&ChunkCoords::new([0, 0]), 0, -1), None);
        assert_eq!(index.neighbour(&ChunkCoords::new([0, 0]), 1, 1), None, "outside the box");
    }
}
