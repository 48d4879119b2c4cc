//! Incremental materialized views: each cycle's delta is folded into
//! kept state instead of re-running the view over the placed array (the
//! delta-propagation layer ISSUE 8 builds on PR 3–7's incremental ingest
//! and retraction paths).
//!
//! A [`MaterializedView`] is a small dataflow over one array's logical
//! change stream ([`array_model::DeltaSet`]): filter/map stages are
//! stateless; a join keeps each side as a Z-set filed by join key; group
//! aggregates keep per-group accumulators (count/sum/avg/min/max exact
//! under retraction — see [`GroupState`]). The [`ViewRegistry`] routes
//! each cycle's deltas to every registered view, so the workload runner
//! updates views *per cycle* instead of re-running them.
//!
//! # One batch apply per shape
//!
//! All state is flat sorted runs (the `state` module docs have the
//! layout), and [`MaterializedView::apply`] folds a delta as **one
//! sorted run**: run every row through the linear stages and the
//! key/value closures, sort what survives once, merge it into the state
//! in one linear pass. There is no row-at-a-time path beside it and no
//! size threshold.
//!
//! * `Select` stages the surviving rows, sorts, and merges them into
//!   the output Z-set.
//! * `Aggregate` stages `(ord_bits(value), weight)` per touched group,
//!   sorts each stage, merges it into the group's multiset and finalizes
//!   the group once.
//! * `Join` stages the surviving rows under their join keys, sorts by
//!   (key, row), walks the *other* side's run with one forward cursor,
//!   collects the emitted rows into a batch, then merges batch → output
//!   and stage → own side.
//!
//! **Cost.** O(|Δ|) closure calls, O(|Δ′| log |Δ′|) comparisons for the
//! |Δ′| ≤ |Δ| rows the filters keep, plus a memmove-speed pass over the
//! touched state: the whole output run and own-side run for
//! select/join, each *touched* group's multiset for aggregates (which
//! the sorted re-fold of that group costs anyway). So an apply is not
//! independent of the state's size — it is linear in it with a small
//! constant, and never a function of the base array's size. That is the
//! right trade for the traffic there is: [`ViewRegistry::apply`] has two
//! callers in the runner, `World::retract` and `World::ingest`, and both
//! hand over a whole cycle's rows for one array (on the benchmark's
//! `modis_churn`, 15k–30k rows against 45k–90k rows of state). A spine of
//! geometrically merged runs would make single-row deltas cheap and is
//! deliberately not built.
//!
//! Determinism is load-bearing: view state depends only on the logical
//! delta stream, never on placement — rebalances, scale-in drains,
//! failovers, and tombstone compactions move bytes without producing a
//! delta — and within a delta not even on row order: weights are
//! integers, and every float fold happens in a fixed sorted order. An
//! incrementally maintained view is therefore **bit-identical** to a
//! from-scratch recompute ([`MaterializedView::snapshot`] is the
//! comparison form the differential suites pin).

mod state;

pub use state::{
    cmp_rows, from_ord_bits, ord_bits, row_key, Entry, GroupState, KeyScalar, Row, RowKey, ZSet,
};

use array_model::{ArrayId, DeltaSet, ScalarValue};
use state::{sort_staged, Staged, StagedRow};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A row predicate: keep or drop.
pub type PredFn = Arc<dyn Fn(&[i64], &[ScalarValue]) -> bool + Send + Sync>;
/// A row transform. Must be a pure function: retractions replay through
/// the same transform to cancel the rows it produced.
pub type MapFn = Arc<dyn Fn(&[i64], &[ScalarValue]) -> Row + Send + Sync>;
/// Grouping key extractor (dimension coarsening, attribute buckets, …).
pub type GroupKeyFn = Arc<dyn Fn(&[i64], &[ScalarValue]) -> Vec<i64> + Send + Sync>;
/// The aggregated value of a row.
pub type ValueFn = Arc<dyn Fn(&[i64], &[ScalarValue]) -> f64 + Send + Sync>;
/// Join-key extractor for one side of a hash join.
pub type JoinKeyFn = Arc<dyn Fn(&[i64], &[ScalarValue]) -> Vec<KeyScalar> + Send + Sync>;
/// Combines one left and one right row into an output row.
pub type EmitFn = Arc<dyn Fn(&Row, &Row) -> Row + Send + Sync>;

/// One linear stage of a view's dataflow.
#[derive(Clone)]
pub enum RowOp {
    /// Keep rows the predicate accepts — O(|Δ|), stateless.
    Filter(PredFn),
    /// Transform each row — O(|Δ|), stateless.
    Map(MapFn),
}

/// The aggregate a grouped view maintains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggKind {
    /// Net row count (integer-exact under retraction).
    Count,
    /// Sum of the value fn, re-folded sorted at finalization.
    Sum,
    /// Mean of the value fn (sorted-fold sum over integer count).
    Avg,
    /// Minimum — the first entry of the group's sorted multiset.
    Min,
    /// Maximum — the last entry of the group's sorted multiset.
    Max,
}

/// The shape of a view's dataflow.
#[derive(Clone)]
pub enum ViewKind {
    /// filter/map pipeline; output is the transformed Z-set.
    Select {
        /// The linear stages, applied in order.
        ops: Vec<RowOp>,
    },
    /// filter/map pipeline feeding grouped accumulators.
    Aggregate {
        /// The linear stages, applied in order.
        ops: Vec<RowOp>,
        /// Grouping key per (transformed) row.
        group_by: GroupKeyFn,
        /// Aggregated value per (transformed) row.
        value: ValueFn,
        /// Which aggregate to maintain.
        agg: AggKind,
    },
    /// Equi-join with both sides kept sorted by join key.
    Join {
        /// Stages on the left (source-array) stream.
        ops: Vec<RowOp>,
        /// The right input array.
        right: ArrayId,
        /// Stages on the right stream.
        right_ops: Vec<RowOp>,
        /// Left join key.
        left_key: JoinKeyFn,
        /// Right join key.
        right_key: JoinKeyFn,
        /// Output-row constructor.
        emit: EmitFn,
    },
}

/// A view definition: a name, the source array, and the dataflow shape.
/// Cloneable (stages are `Arc`s), so the differential suites instantiate
/// a second, fresh copy for from-scratch recompute.
#[derive(Clone)]
pub struct ViewDef {
    /// Registry-unique name.
    pub name: String,
    /// The array whose delta stream drives the view (the *left* input
    /// of a join view).
    pub source: ArrayId,
    /// The dataflow shape.
    pub kind: ViewKind,
}

impl std::fmt::Debug for ViewDef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match &self.kind {
            ViewKind::Select { .. } => "select",
            ViewKind::Aggregate { .. } => "aggregate",
            ViewKind::Join { .. } => "join",
        };
        write!(f, "ViewDef({} over {} [{kind}])", self.name, self.source)
    }
}

impl ViewDef {
    /// A filter/map view.
    pub fn select(name: impl Into<String>, source: ArrayId, ops: Vec<RowOp>) -> Self {
        ViewDef { name: name.into(), source, kind: ViewKind::Select { ops } }
    }

    /// A grouped-aggregate view.
    pub fn aggregate(
        name: impl Into<String>,
        source: ArrayId,
        ops: Vec<RowOp>,
        group_by: GroupKeyFn,
        value: ValueFn,
        agg: AggKind,
    ) -> Self {
        ViewDef {
            name: name.into(),
            source,
            kind: ViewKind::Aggregate { ops, group_by, value, agg },
        }
    }

    /// A hash-join view between `source` (left) and `right`.
    #[allow(clippy::too_many_arguments)]
    pub fn join(
        name: impl Into<String>,
        source: ArrayId,
        right: ArrayId,
        ops: Vec<RowOp>,
        right_ops: Vec<RowOp>,
        left_key: JoinKeyFn,
        right_key: JoinKeyFn,
        emit: EmitFn,
    ) -> Self {
        ViewDef {
            name: name.into(),
            source,
            kind: ViewKind::Join { ops, right, right_ops, left_key, right_key, emit },
        }
    }

    /// A fresh, empty view over this definition.
    pub fn instantiate(&self) -> MaterializedView {
        MaterializedView::new(self.clone())
    }

    /// True when this view consumes `array`'s deltas.
    pub fn reads(&self, array: ArrayId) -> bool {
        array == self.source || self.reads_right(array)
    }

    /// True when `array` is the right input of a join view.
    fn reads_right(&self, array: ArrayId) -> bool {
        matches!(&self.kind, ViewKind::Join { right, .. } if *right == array)
    }

    /// The arrays whose deltas this view consumes.
    pub fn inputs(&self) -> Vec<ArrayId> {
        match &self.kind {
            ViewKind::Join { right, .. } if *right != self.source => vec![self.source, *right],
            _ => vec![self.source],
        }
    }
}

/// One finalized group row of an aggregate view.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggRow {
    /// The finalized aggregate value.
    pub value: f64,
    /// Net rows in the group.
    pub cells: u64,
}

/// Cumulative maintenance counters for one view.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ViewStats {
    /// Delta rows consumed (inserts + retractions).
    pub delta_rows: u64,
    /// Output rows/groups written or removed.
    pub rows_changed: u64,
    /// `apply` invocations.
    pub applies: u64,
}

/// What one `apply` call did, summed across views by the registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ViewApplyStats {
    /// Delta rows consumed.
    pub delta_rows: u64,
    /// Output rows/groups changed.
    pub rows_changed: u64,
}

impl ViewApplyStats {
    fn absorb(&mut self, other: ViewApplyStats) {
        self.delta_rows += other.delta_rows;
        self.rows_changed += other.rows_changed;
    }
}

/// The bit-exact comparison form of a view's output: floats as raw
/// bits, rows in key order. Two views with equal snapshots hold
/// identical state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewSnapshot {
    /// Select/join output rows: (coords, value key image, weight).
    pub rows: Vec<(Vec<i64>, Vec<KeyScalar>, i64)>,
    /// Aggregate output: (group key, value bits, net cells).
    pub groups: Vec<(Vec<i64>, u64, i64)>,
}

enum ViewState {
    Select {
        out: ZSet,
    },
    /// Each group's accumulator beside its finalized output row.
    Aggregate {
        groups: BTreeMap<Vec<i64>, (GroupState, Option<AggRow>)>,
    },
    /// `left` and `right` file each side's rows under their join keys.
    Join {
        left: ZSet,
        right: ZSet,
        out: ZSet,
    },
}

/// A registered incremental view: definition, state, and the
/// materialized output. [`MaterializedView::apply`] folds a delta in as
/// one sorted run (cost: the module docs).
pub struct MaterializedView {
    def: ViewDef,
    state: ViewState,
    stats: ViewStats,
}

/// One group's share of a delta: `(ord_bits(value), weight)` per row.
type Stage = Vec<(u64, i64)>;

/// Run a row through the linear stages; `None` when a filter drops it.
fn apply_ops<'a>(
    ops: &[RowOp],
    coords: &'a [i64],
    values: &'a [ScalarValue],
) -> Option<Staged<'a>> {
    let mut row = Staged::Lent(coords, values);
    for op in ops {
        let (c, v) = row.parts();
        match op {
            RowOp::Filter(p) => {
                if !p(c, v) {
                    return None;
                }
            }
            RowOp::Map(m) => row = Staged::Mapped(m(c, v)),
        }
    }
    Some(row)
}

/// The output row of a group, or `None` when it has none: only a group
/// with a positive net count is visible (on a consistent stream, every
/// group that is not empty).
fn finalize(g: &GroupState, agg: AggKind) -> Option<AggRow> {
    let cells = u64::try_from(g.count).ok().filter(|&cells| cells > 0)?;
    let value = match agg {
        AggKind::Count => g.count as f64,
        AggKind::Sum => g.fold_sum(),
        AggKind::Avg => g.fold_sum() / g.count as f64,
        AggKind::Min => g.min()?,
        AggKind::Max => g.max()?,
    };
    Some(AggRow { value, cells })
}

impl MaterializedView {
    /// A fresh, empty view.
    pub fn new(def: ViewDef) -> Self {
        let state = match &def.kind {
            ViewKind::Select { .. } => ViewState::Select { out: ZSet::default() },
            ViewKind::Aggregate { .. } => ViewState::Aggregate { groups: BTreeMap::new() },
            ViewKind::Join { .. } => ViewState::Join {
                left: ZSet::default(),
                right: ZSet::default(),
                out: ZSet::default(),
            },
        };
        MaterializedView { def, state, stats: ViewStats::default() }
    }

    /// The definition this view maintains.
    pub fn def(&self) -> &ViewDef {
        &self.def
    }

    /// The view's name.
    pub fn name(&self) -> &str {
        &self.def.name
    }

    /// Cumulative maintenance counters.
    pub fn stats(&self) -> ViewStats {
        self.stats
    }

    /// Fold one array's delta into the view as one sorted run — stage,
    /// sort once, merge (cost: the module docs).
    pub fn apply(&mut self, array: ArrayId, delta: &DeltaSet) -> ViewApplyStats {
        let mut stats = ViewApplyStats::default();
        let is_left = array == self.def.source;
        let is_right = self.def.reads_right(array);
        if !is_left && !is_right {
            return stats;
        }
        match (&self.def.kind, &mut self.state) {
            (ViewKind::Select { ops }, ViewState::Select { out }) => {
                let mut staged: Vec<StagedRow<'_>> = delta
                    .rows()
                    .filter_map(|rd| {
                        let row = apply_ops(ops, rd.coords, rd.values)?;
                        Some(StagedRow { key: Vec::new(), row, weight: rd.weight })
                    })
                    .collect();
                stats.delta_rows += delta.len() as u64;
                stats.rows_changed += staged.len() as u64;
                sort_staged(&mut staged);
                out.merge(staged);
            }
            (
                ViewKind::Aggregate { ops, group_by, value, agg },
                ViewState::Aggregate { groups },
            ) => {
                stats.delta_rows += delta.len() as u64;
                // One stage per touched group. Consecutive rows almost
                // always share a group, so the current group's stage is
                // held out of the map and filed back when the key changes.
                let mut stages: BTreeMap<Vec<i64>, Stage> = BTreeMap::new();
                let mut current: Option<(Vec<i64>, Stage)> = None;
                for rd in delta.rows() {
                    let Some(row) = apply_ops(ops, rd.coords, rd.values) else { continue };
                    let (c, v) = row.parts();
                    let gk = group_by(c, v);
                    let entry = (ord_bits(value(c, v)), rd.weight);
                    match &mut current {
                        Some((key, stage)) if *key == gk => stage.push(entry),
                        _ => {
                            let mut stage = stages.remove(&gk).unwrap_or_default();
                            stage.push(entry);
                            if let Some((key, stage)) = current.replace((gk, stage)) {
                                stages.insert(key, stage);
                            }
                        }
                    }
                }
                stages.extend(current);
                for (gk, mut stage) in stages {
                    stats.rows_changed += 1;
                    let (mut group, _) = groups.remove(&gk).unwrap_or_default();
                    group.merge(&mut stage);
                    if !group.is_empty() {
                        let row = finalize(&group, *agg);
                        groups.insert(gk, (group, row));
                    }
                }
            }
            (
                ViewKind::Join { ops, right_ops, left_key, right_key, emit, .. },
                ViewState::Join { left, right, out },
            ) => {
                // Bilinear update: ΔL ⋈ R, fold ΔL into L, then
                // (L+ΔL) ⋈ ΔR, fold ΔR into R. When the same array
                // feeds both sides this ordering computes
                // ΔL⋈R + L'⋈ΔR exactly — no double counting.
                if is_left {
                    stats.rows_changed +=
                        join_side(delta, ops, left_key, left, right, emit, false, out);
                    stats.delta_rows += delta.len() as u64;
                }
                if is_right {
                    stats.rows_changed +=
                        join_side(delta, right_ops, right_key, right, left, emit, true, out);
                    stats.delta_rows += delta.len() as u64;
                }
            }
            _ => unreachable!("state matches the definition by construction"),
        }
        let total = &mut self.stats; // restored totals may be any `u64`: saturate
        total.delta_rows = total.delta_rows.saturating_add(stats.delta_rows);
        total.rows_changed = total.rows_changed.saturating_add(stats.rows_changed);
        total.applies = total.applies.saturating_add(1);
        stats
    }

    /// The bit-exact comparison form of the current output.
    pub fn snapshot(&self) -> ViewSnapshot {
        match &self.state {
            ViewState::Select { out } | ViewState::Join { out, .. } => {
                ViewSnapshot { rows: out.keyed_entries(), groups: Vec::new() }
            }
            ViewState::Aggregate { .. } => ViewSnapshot {
                rows: Vec::new(),
                groups: self
                    .group_rows()
                    .into_iter()
                    .map(|(k, r)| (k, r.value.to_bits(), r.cells as i64))
                    .collect(),
            },
        }
    }

    /// The materialized output of a select/join view (empty for
    /// aggregates — see [`MaterializedView::group_rows`]).
    pub fn output_rows(&self) -> Vec<(Row, i64)> {
        match &self.state {
            ViewState::Select { out } | ViewState::Join { out, .. } => {
                out.entries().map(|e| ((e.coords.to_vec(), e.values.to_vec()), e.weight)).collect()
            }
            ViewState::Aggregate { .. } => Vec::new(),
        }
    }

    /// The finalized group table of an aggregate view.
    pub fn group_rows(&self) -> Vec<(Vec<i64>, AggRow)> {
        match &self.state {
            ViewState::Aggregate { groups } => {
                groups.iter().filter_map(|(k, (_, row))| Some((k.clone(), (*row)?))).collect()
            }
            _ => Vec::new(),
        }
    }
}

/// Copy a lent row into `scratch`, reusing its buffers — an [`EmitFn`]
/// takes whole rows.
fn fill(scratch: &mut Row, coords: &[i64], values: &[ScalarValue]) {
    scratch.0.clear();
    scratch.0.extend_from_slice(coords);
    scratch.1.clear();
    scratch.1.extend_from_slice(values);
}

/// One side's delta against a join: stage the rows that survive the
/// stages under their join keys and sort them, probe the other side's
/// run with one forward cursor, then merge the emitted batch into `out`
/// and the stage into this side. Returns output rows changed.
#[allow(clippy::too_many_arguments)]
fn join_side(
    delta: &DeltaSet,
    ops: &[RowOp],
    key_fn: &JoinKeyFn,
    mine: &mut ZSet,
    other: &ZSet,
    emit: &EmitFn,
    swapped: bool,
    out: &mut ZSet,
) -> u64 {
    let mut staged: Vec<StagedRow<'_>> = delta
        .rows()
        .filter_map(|rd| {
            let row = apply_ops(ops, rd.coords, rd.values)?;
            let (c, v) = row.parts();
            Some(StagedRow { key: key_fn(c, v), row, weight: rd.weight })
        })
        .collect();
    sort_staged(&mut staged);
    let mut emitted: Vec<StagedRow<'_>> = Vec::new();
    let (mut this, mut that) = (Row::default(), Row::default());
    let mut cursor = 0;
    for s in &staged {
        // Staged keys ascend, so the other side is walked once.
        cursor = other.lower_bound(cursor, |e| e.key < &s.key[..]);
        let mut partners = other.entries_from(cursor).take_while(|e| e.key == s.key).peekable();
        if partners.peek().is_some() {
            let (c, v) = s.row.parts();
            fill(&mut this, c, v);
        }
        for partner in partners {
            fill(&mut that, partner.coords, partner.values);
            let (l, r) = if swapped { (&that, &this) } else { (&this, &that) };
            emitted.push(StagedRow {
                key: Vec::new(),
                row: Staged::Mapped(emit(l, r)),
                weight: s.weight * partner.weight,
            });
        }
    }
    let changed = emitted.len() as u64;
    sort_staged(&mut emitted);
    out.merge(emitted);
    mine.merge(staged);
    changed
}

/// The set of views the workload runner maintains: routes each cycle's
/// per-array deltas to every view that reads that array.
#[derive(Default)]
pub struct ViewRegistry {
    views: Vec<MaterializedView>,
}

impl ViewRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        ViewRegistry::default()
    }

    /// Register a view; replaces any existing view with the same name.
    pub fn register(&mut self, def: ViewDef) {
        self.views.retain(|v| v.name() != def.name);
        self.views.push(MaterializedView::new(def));
    }

    /// True when no views are registered.
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }

    /// Registered views, in registration order.
    pub fn views(&self) -> &[MaterializedView] {
        &self.views
    }

    /// Look a view up by name.
    pub fn view(&self, name: &str) -> Option<&MaterializedView> {
        self.views.iter().find(|v| v.name() == name)
    }

    /// True when some view consumes `array`'s deltas — lets the runner
    /// skip delta extraction entirely for unwatched arrays.
    pub fn reads(&self, array: ArrayId) -> bool {
        self.views.iter().any(|v| v.def().reads(array))
    }

    /// Fold one array's delta into every view that reads it.
    pub fn apply(&mut self, array: ArrayId, delta: &DeltaSet) -> ViewApplyStats {
        let mut stats = ViewApplyStats::default();
        for v in &mut self.views {
            stats.absorb(v.apply(array, delta));
        }
        stats
    }
}

// ---------------------------------------------------------------------
// Durable codecs. View *state* serializes; view *definitions* do not
// (stages are closures) — recovery re-supplies the same `ViewDef`s from
// configuration and lays the exported state over them, keyed by name.
// ---------------------------------------------------------------------

use durability::{ascending, ByteReader, ByteWriter, CodecError};

fn put_group_key(w: &mut ByteWriter, key: &[i64]) {
    w.put_list(key, |w, &k| w.put_i64(k));
}

fn read_group_key(r: &mut ByteReader<'_>) -> Result<Vec<i64>, CodecError> {
    r.list("group key len", 8, |r| r.i64("group key part"))
}

impl MaterializedView {
    /// Serialize this view's state and counters (not its definition).
    pub fn export_state(&self, w: &mut ByteWriter) {
        w.put_u64(self.stats.delta_rows);
        w.put_u64(self.stats.rows_changed);
        w.put_u64(self.stats.applies);
        match &self.state {
            ViewState::Select { out } => {
                w.put_u8(0);
                out.encode_into(w);
            }
            ViewState::Aggregate { groups } => {
                w.put_u8(1);
                w.put_list(groups, |w, (key, (state, _))| {
                    put_group_key(w, key);
                    state.encode_into(w);
                });
                let out = || groups.iter().filter_map(|(key, (_, row))| Some((key, (*row)?)));
                w.put_usize(out().count());
                for (key, row) in out() {
                    put_group_key(w, key);
                    w.put_f64(row.value);
                    w.put_u64(row.cells);
                }
            }
            ViewState::Join { left, right, out } => {
                w.put_u8(2);
                left.encode_index_into(w);
                right.encode_index_into(w);
                out.encode_into(w);
            }
        }
    }

    /// Rebuild a view from `def` plus state exported by
    /// [`MaterializedView::export_state`]. The state tag must match the
    /// definition's shape — a mismatch is a typed error, not a guess.
    pub fn import_state(def: ViewDef, r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let stats = ViewStats {
            delta_rows: r.u64("view delta rows")?,
            rows_changed: r.u64("view rows changed")?,
            applies: r.u64("view applies")?,
        };
        let tag = r.u8("view state tag")?;
        let state = match (tag, &def.kind) {
            (0, ViewKind::Select { .. }) => ViewState::Select { out: ZSet::decode_from(r)? },
            (1, ViewKind::Aggregate { .. }) => {
                // Both lists are written in key order, and an output row
                // is only ever written beside its group.
                let mut groups = BTreeMap::new();
                for _ in 0..r.count("view group count", 8 + GroupState::MIN_ENCODED_LEN)? {
                    let key = read_group_key(r)?;
                    ascending("group key order", groups.keys().next_back(), &key)?;
                    groups.insert(key, (GroupState::decode_from(r)?, None));
                }
                let mut last = None;
                for _ in 0..r.count("view agg row count", 8 + 8 + 8)? {
                    let key = read_group_key(r)?;
                    ascending("group key order", last.as_ref(), &key)?;
                    let value = r.f64("agg row value")?;
                    let cells = r.u64("agg row cells")?;
                    let Some((_, row)) = groups.get_mut(&key) else {
                        let detail = "an output row without its group";
                        return Err(CodecError::invalid("agg row key", detail));
                    };
                    *row = Some(AggRow { value, cells });
                    last = Some(key);
                }
                ViewState::Aggregate { groups }
            }
            (2, ViewKind::Join { .. }) => ViewState::Join {
                left: ZSet::decode_index_from(r)?,
                right: ZSet::decode_index_from(r)?,
                out: ZSet::decode_from(r)?,
            },
            (tag @ 0..=2, _) => {
                let detail = format!("state tag {tag} does not match the shape of {def:?}");
                return Err(CodecError::invalid("view state tag", detail));
            }
            (tag, _) => {
                return Err(CodecError::invalid("view state tag", format!("unknown tag {tag}")))
            }
        };
        Ok(MaterializedView { def, state, stats })
    }
}

impl ViewRegistry {
    /// Serialize every view's name and state, in registration order.
    pub fn export_states(&self, w: &mut ByteWriter) {
        w.put_list(&self.views, |w, view| {
            w.put_str(view.name());
            view.export_state(w);
        });
    }

    /// Rebuild a registry from re-supplied definitions plus states
    /// exported by [`ViewRegistry::export_states`]. Every serialized
    /// state must find its definition by name and vice versa — a missing
    /// or extra definition is a typed error (the recovered run would
    /// silently diverge otherwise).
    pub fn import_states(defs: Vec<ViewDef>, r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let n = r.count("registry view count", 4 + 3 * 8 + 1)?;
        if n != defs.len() {
            let detail = format!("snapshot holds {n} views, caller supplied {} defs", defs.len());
            return Err(CodecError::invalid("registry view count", detail));
        }
        let mut defs: Vec<Option<ViewDef>> = defs.into_iter().map(Some).collect();
        let mut views = Vec::with_capacity(n);
        for _ in 0..n {
            let name = r.str("registry view name")?;
            let def = defs
                .iter_mut()
                .find(|d| d.as_ref().is_some_and(|d| d.name == name))
                .and_then(Option::take)
                .ok_or_else(|| {
                    CodecError::invalid("registry view name", format!("no definition for {name:?}"))
                })?;
            views.push(MaterializedView::import_state(def, r)?);
        }
        Ok(ViewRegistry { views })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: ArrayId = ArrayId(1);
    const B: ArrayId = ArrayId(2);

    fn delta(rows: &[(i64, f64, i64)]) -> DeltaSet {
        let mut d = DeltaSet::new();
        for &(x, v, w) in rows {
            d.push(vec![x], vec![ScalarValue::Double(v)], w);
        }
        d
    }

    fn speed_filter() -> ViewDef {
        let pred: PredFn = Arc::new(|_, v| matches!(v[0], ScalarValue::Double(d) if d >= 10.0));
        ViewDef::select("fast", A, vec![RowOp::Filter(pred)])
    }

    #[test]
    fn filter_view_tracks_inserts_and_retractions() {
        let mut view = speed_filter().instantiate();
        view.apply(A, &delta(&[(1, 5.0, 1), (2, 12.0, 1), (3, 30.0, 1)]));
        assert_eq!(view.output_rows().len(), 2);
        view.apply(A, &delta(&[(2, 12.0, -1)]));
        assert_eq!(view.output_rows().len(), 1);
        // A delta for some other array is ignored.
        let s = view.apply(B, &delta(&[(9, 99.0, 1)]));
        assert_eq!(s, ViewApplyStats::default());
    }

    #[test]
    fn aggregate_views_are_exact_under_retraction() {
        let group: GroupKeyFn = Arc::new(|c, _| vec![c[0].div_euclid(10)]);
        let value: ValueFn =
            Arc::new(|_, v| if let ScalarValue::Double(d) = v[0] { d } else { 0.0 });
        for agg in [AggKind::Count, AggKind::Sum, AggKind::Avg, AggKind::Min, AggKind::Max] {
            let def = ViewDef::aggregate("g", A, Vec::new(), group.clone(), value.clone(), agg);
            let mut inc = def.instantiate();
            inc.apply(A, &delta(&[(1, 4.0, 1), (2, -1.0, 1), (11, 7.0, 1), (3, 9.0, 1)]));
            inc.apply(A, &delta(&[(2, -1.0, -1), (11, 7.0, -1)]));
            inc.apply(A, &delta(&[(12, 2.0, 1), (4, 9.0, 1)]));
            // From-scratch over the surviving rows, single batch.
            let mut scratch = def.instantiate();
            scratch.apply(A, &delta(&[(1, 4.0, 1), (3, 9.0, 1), (12, 2.0, 1), (4, 9.0, 1)]));
            assert_eq!(inc.snapshot(), scratch.snapshot(), "{agg:?}");
        }
    }

    #[test]
    fn min_rescan_survives_extremum_retraction() {
        let group: GroupKeyFn = Arc::new(|_, _| vec![0]);
        let value: ValueFn =
            Arc::new(|_, v| if let ScalarValue::Double(d) = v[0] { d } else { 0.0 });
        let def = ViewDef::aggregate("m", A, Vec::new(), group, value, AggKind::Min);
        let mut view = def.instantiate();
        view.apply(A, &delta(&[(1, 3.0, 1), (2, -5.0, 1), (3, 8.0, 1)]));
        assert_eq!(view.group_rows()[0].1.value, -5.0);
        view.apply(A, &delta(&[(2, -5.0, -1)]));
        assert_eq!(view.group_rows()[0].1.value, 3.0);
    }

    #[test]
    fn join_views_multiply_weights_and_cancel() {
        let key: JoinKeyFn = Arc::new(|c, _| vec![KeyScalar::Int(c[0])]);
        let emit: EmitFn = Arc::new(|l, r| (l.0.clone(), vec![l.1[0].clone(), r.1[0].clone()]));
        let def = ViewDef::join("j", A, B, Vec::new(), Vec::new(), key.clone(), key.clone(), emit);
        let mut view = def.instantiate();
        view.apply(A, &delta(&[(1, 1.5, 1), (2, 2.5, 1)]));
        assert!(view.output_rows().is_empty(), "no right side yet");
        view.apply(B, &delta(&[(1, 10.0, 1)]));
        assert_eq!(view.output_rows().len(), 1);
        // Retract the left partner: the joined row cancels.
        view.apply(A, &delta(&[(1, 1.5, -1)]));
        assert!(view.output_rows().is_empty());
        // Late left arrival joins the indexed right state.
        view.apply(A, &delta(&[(1, 9.0, 1)]));
        assert_eq!(view.output_rows().len(), 1);
    }

    /// One of each view shape, with history that exercises cancelled
    /// rows, retracted extrema, and indexed join state.
    fn eventful_registry() -> (ViewRegistry, Vec<ViewDef>) {
        let group: GroupKeyFn = Arc::new(|c, _| vec![c[0].div_euclid(10)]);
        let value: ValueFn =
            Arc::new(|_, v| if let ScalarValue::Double(d) = v[0] { d } else { 0.0 });
        let key: JoinKeyFn = Arc::new(|c, _| vec![KeyScalar::Int(c[0])]);
        let emit: EmitFn = Arc::new(|l, r| (l.0.clone(), vec![l.1[0].clone(), r.1[0].clone()]));
        let defs = vec![
            speed_filter(),
            ViewDef::aggregate("sums", A, Vec::new(), group, value, AggKind::Min),
            ViewDef::join("j", A, B, Vec::new(), Vec::new(), key.clone(), key, emit),
        ];
        let mut reg = ViewRegistry::new();
        for def in &defs {
            reg.register(def.clone());
        }
        reg.apply(A, &delta(&[(1, 4.0, 1), (2, -1.0, 1), (11, 7.0, 1), (3, 30.0, 1)]));
        reg.apply(B, &delta(&[(1, 10.0, 1), (3, 20.0, 1)]));
        reg.apply(A, &delta(&[(2, -1.0, -1), (11, 7.0, -1)]));
        (reg, defs)
    }

    #[test]
    fn registry_state_round_trips_and_continues_bit_identically() {
        let (mut reg, defs) = eventful_registry();
        let mut w = durability::ByteWriter::new();
        reg.export_states(&mut w);
        let bytes = w.into_bytes();

        let mut r = durability::ByteReader::new(&bytes);
        let mut restored = ViewRegistry::import_states(defs, &mut r).expect("import");
        assert!(r.is_empty(), "state fully consumed");
        for (a, b) in reg.views().iter().zip(restored.views()) {
            assert_eq!(a.snapshot(), b.snapshot(), "{}: snapshot diverged", a.name());
            assert_eq!(a.stats(), b.stats(), "{}: stats diverged", a.name());
        }
        // The restored registry keeps evolving identically — including
        // join-index hits and a min-extremum retraction.
        for (array, rows) in
            [(A, vec![(3, 30.0, -1), (12, 2.0, 1)]), (B, vec![(1, 10.0, -1), (12, 5.0, 1)])]
        {
            let d = delta(&rows);
            reg.apply(array, &d);
            restored.apply(array, &d);
        }
        for (a, b) in reg.views().iter().zip(restored.views()) {
            assert_eq!(a.snapshot(), b.snapshot(), "{}: diverged after resume", a.name());
        }
        // Re-export of the restored registry is byte-identical... only
        // before the extra deltas; assert on a fresh export pair instead.
        let (mut w1, mut w2) = (durability::ByteWriter::new(), durability::ByteWriter::new());
        reg.export_states(&mut w1);
        restored.export_states(&mut w2);
        assert_eq!(w1.into_bytes(), w2.into_bytes(), "exports diverged after resume");
    }

    fn export(reg: &ViewRegistry) -> Vec<u8> {
        let mut w = durability::ByteWriter::new();
        reg.export_states(&mut w);
        w.into_bytes()
    }

    /// The benchmark's two views over three days of six pixels in two
    /// bands, the first day expired again — join sides with several
    /// rows, a multiset per day, cancelled history.
    fn modis_shaped_registry() -> (ViewRegistry, Vec<ViewDef>) {
        let belt: PredFn = Arc::new(|c, _| c[2].abs() <= 10);
        let key: JoinKeyFn = Arc::new(|c, _| c.iter().map(|&x| KeyScalar::Int(x)).collect());
        let num = |v: &ScalarValue| v.as_f64().unwrap_or(0.0);
        let emit: EmitFn = Arc::new(move |l, r| {
            let (b1, b2) = (num(&l.1[1]), num(&r.1[1]));
            (l.0.clone(), vec![ScalarValue::Double((b2 - b1) / (b2 + b1 + 1e-9))])
        });
        let belt = || vec![RowOp::Filter(belt.clone())];
        let day: GroupKeyFn = Arc::new(|c, _| vec![c[0].div_euclid(1440)]);
        let radiance: ValueFn = Arc::new(move |_, v| num(&v[1]));
        let defs = vec![
            ViewDef::join("ndvi", A, B, belt(), belt(), key.clone(), key, emit),
            ViewDef::aggregate("daily-radiance", A, Vec::new(), day, radiance, AggKind::Avg),
        ];
        let mut reg = ViewRegistry::new();
        defs.iter().for_each(|def| reg.register(def.clone()));
        let day_of = |day: i64, band: i64, weight: i64| {
            let mut d = DeltaSet::new();
            for pixel in 0..6i64 {
                let coords = vec![day * 1440 + pixel * 7, pixel * 3 - 4, pixel * 5 - 12];
                let radiance = (day * 100 + pixel * 13 + band * 17) as f64 * 0.25;
                d.push(coords, vec![ScalarValue::Int32(7), ScalarValue::Double(radiance)], weight);
            }
            d
        };
        for day in 0..3 {
            reg.apply(A, &day_of(day, 0, 1));
            reg.apply(B, &day_of(day, 1, 1));
        }
        reg.apply(A, &day_of(0, 0, -1));
        reg.apply(B, &day_of(0, 1, -1));
        (reg, defs)
    }

    /// Import answers any bytes with a typed error or with a state whose
    /// export is exactly the bytes it consumed — it never panics, and it
    /// never accepts bytes the encoder would not have written.
    #[test]
    fn import_is_total_and_canonical_under_mutation_and_truncation() {
        for (reg, defs) in [eventful_registry(), modis_shaped_registry()] {
            let bytes = export(&reg);
            let import = |bytes: &[u8]| {
                let mut r = durability::ByteReader::new(bytes);
                let reg = ViewRegistry::import_states(defs.clone(), &mut r)?;
                Ok::<_, CodecError>((export(&reg), bytes.len() - r.remaining()))
            };
            assert_eq!(import(&bytes).expect("clean bytes import"), (bytes.clone(), bytes.len()));
            let (mut refused, mut accepted) = (0, 0);
            let mut check = |bad: &[u8], what: &str| match import(bad) {
                Ok((again, consumed)) => {
                    accepted += 1;
                    assert_eq!(again, bad[..consumed], "{what}: accepted, but not what it exports");
                }
                Err(_) => refused += 1,
            };
            for at in 0..bytes.len() {
                for flip in [0x01, 0x80, 0xff] {
                    let mut bad = bytes.clone();
                    bad[at] ^= flip;
                    check(&bad, &format!("byte {at} ^ {flip:#04x}"));
                }
                check(&bytes[..at], &format!("cut at {at}"));
            }
            assert!(refused > 0 && accepted > 0, "{refused} refused, {accepted} accepted");
        }
    }

    /// What the map-based decoders let through — a repeated value or row
    /// silently merged, a zero multiplicity, extrema that are not the
    /// multiset's ends, an empty or repeated join slot — is a typed error.
    #[test]
    fn decoders_refuse_what_no_encoder_writes() {
        fn context<T>(result: Result<T, CodecError>) -> &'static str {
            match result {
                Err(CodecError::Invalid { context, .. }) => context,
                Err(other) => panic!("expected Invalid, got {other:?}"),
                Ok(_) => panic!("nonsense accepted"),
            }
        }
        let group = |count: i64, multiset: &[(u64, i64)], ends: [Option<u64>; 2]| {
            let mut w = durability::ByteWriter::new();
            w.put_i64(count);
            w.put_usize(multiset.len());
            for &(bits, mult) in multiset {
                w.put_u64(bits);
                w.put_i64(mult);
            }
            for end in ends {
                w.put_bool(end.is_some());
                end.into_iter().for_each(|bits| w.put_u64(bits));
            }
            let bytes = w.into_bytes();
            GroupState::decode_from(&mut durability::ByteReader::new(&bytes))
        };
        assert_eq!(group(3, &[(5, 1), (9, 2)], [Some(5), Some(9)]).expect("well-formed").count, 3);
        assert!(group(0, &[], [None, None]).expect("empty").is_empty());
        assert_eq!(context(group(3, &[(5, 1), (5, 2)], [Some(5), Some(5)])), "group value bits");
        assert_eq!(context(group(3, &[(9, 2), (5, 1)], [Some(5), Some(9)])), "group value bits");
        assert_eq!(context(group(1, &[(5, 1), (9, 0)], [Some(5), Some(9)])), "group multiplicity");
        assert_eq!(context(group(4, &[(5, 1), (9, 2)], [Some(5), Some(9)])), "group count");
        assert_eq!(context(group(3, &[(5, 1), (9, 2)], [Some(4), Some(9)])), "group extremum bits");
        assert_eq!(context(group(3, &[(5, 1), (9, 2)], [Some(5), None])), "group extremum bits");
        assert_eq!(context(group(0, &[], [Some(5), None])), "group extremum bits");

        type Rows = [(i64, f64, i64)];
        let put_rows = |w: &mut durability::ByteWriter, rows: &Rows| {
            w.put_usize(rows.len());
            for &(x, v, weight) in rows {
                w.put_usize(1);
                w.put_i64(x);
                w.put_usize(1);
                ScalarValue::Double(v).encode_into(w);
                w.put_i64(weight);
            }
        };
        let zset = |rows: &Rows| {
            let mut w = durability::ByteWriter::new();
            put_rows(&mut w, rows);
            let bytes = w.into_bytes();
            ZSet::decode_from(&mut durability::ByteReader::new(&bytes))
        };
        assert_eq!(zset(&[(1, 2.0, 1), (1, 3.0, -2), (4, 0.5, 1)]).expect("well-formed").len(), 3);
        assert_eq!(context(zset(&[(1, 2.0, 1), (1, 2.0, 1)])), "zset row order");
        assert_eq!(context(zset(&[(4, 0.5, 1), (1, 2.0, 1)])), "zset row order");
        assert_eq!(context(zset(&[(1, 2.0, 0)])), "zset weight");

        let index = |slots: &[(i64, &Rows)]| {
            let mut w = durability::ByteWriter::new();
            w.put_usize(slots.len());
            for &(key, rows) in slots {
                w.put_usize(1);
                KeyScalar::Int(key).encode_into(&mut w);
                put_rows(&mut w, rows);
            }
            let bytes = w.into_bytes();
            ZSet::decode_index_from(&mut durability::ByteReader::new(&bytes))
        };
        let rows: &Rows = &[(1, 2.0, 1), (2, 2.0, 1)];
        assert_eq!(index(&[(7, rows), (8, &rows[..1])]).expect("well-formed").len(), 3);
        assert_eq!(context(index(&[(7, rows), (8, &[])])), "join index slot");
        assert_eq!(context(index(&[(7, &rows[..1]), (7, &rows[1..])])), "join key order");
        assert_eq!(context(index(&[(8, rows), (7, rows)])), "join key order");
        assert_eq!(context(index(&[(7, &[rows[1], rows[0]])])), "zset row order");
    }

    #[test]
    fn registry_import_rejects_corruption_and_def_mismatch_typed() {
        let (reg, defs) = eventful_registry();
        let mut w = durability::ByteWriter::new();
        reg.export_states(&mut w);
        let bytes = w.into_bytes();

        // Every strict prefix fails typed, never panics.
        for cut in 0..bytes.len() {
            let mut r = durability::ByteReader::new(&bytes[..cut]);
            assert!(
                ViewRegistry::import_states(defs.clone(), &mut r).is_err(),
                "truncation at {cut} accepted"
            );
        }
        // A def-set that does not match the snapshot is rejected.
        let mut r = durability::ByteReader::new(&bytes);
        assert!(ViewRegistry::import_states(defs[..2].to_vec(), &mut r).is_err());
        let mut renamed = defs.clone();
        renamed[0].name = "somebody-else".to_string();
        let mut r = durability::ByteReader::new(&bytes);
        assert!(ViewRegistry::import_states(renamed, &mut r).is_err());
        // A state tag laid over the wrong shape is rejected: feed the
        // aggregate view's state to the select definition by swapping
        // names in the def set.
        let mut swapped = defs.clone();
        let (a, b) = (swapped[0].name.clone(), swapped[1].name.clone());
        swapped[0].name = b;
        swapped[1].name = a;
        let mut r = durability::ByteReader::new(&bytes);
        assert!(ViewRegistry::import_states(swapped, &mut r).is_err());
    }

    /// SplitMix64, inline: the golden stream must not depend on any
    /// generator that could change under it.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// One of each shape (all five aggregates) over rows with a string
    /// attribute, driven by a seeded 4-cycle insert/retract stream with
    /// duplicate rows, a row inserted and retracted in one delta, and
    /// NaN / -0.0 / +0.0 values; a two-part join key with a string part.
    fn golden_registry() -> ViewRegistry {
        let num = |v: &ScalarValue| if let ScalarValue::Double(d) = v { *d } else { 0.0 };
        let pred: PredFn = Arc::new(move |c, _| c[0] % 3 != 0);
        let project: MapFn =
            Arc::new(|c, v| (vec![c[0], c[0] % 4], vec![v[1].clone(), v[0].clone()]));
        let group: GroupKeyFn = Arc::new(|c, _| vec![c[0].div_euclid(8)]);
        let value: ValueFn = Arc::new(move |_, v| num(&v[0]));
        let key: JoinKeyFn = Arc::new(|c, v| vec![KeyScalar::Int(c[0] % 5), KeyScalar::of(&v[1])]);
        let emit: EmitFn = Arc::new(|l, r| {
            (vec![l.0[0], r.0[0]], vec![l.1[0].clone(), r.1[0].clone(), l.1[1].clone()])
        });
        let mut reg = ViewRegistry::new();
        reg.register(ViewDef::select("sel", A, vec![RowOp::Filter(pred), RowOp::Map(project)]));
        for agg in [AggKind::Count, AggKind::Sum, AggKind::Avg, AggKind::Min, AggKind::Max] {
            let name = format!("agg-{agg:?}");
            reg.register(ViewDef::aggregate(
                name,
                A,
                Vec::new(),
                group.clone(),
                value.clone(),
                agg,
            ));
        }
        reg.register(ViewDef::join("j", A, B, Vec::new(), Vec::new(), key.clone(), key, emit));

        let pool = [f64::NAN, -0.0, 0.0, 1.5, -2.25, 1.0e16, 0.1, 7.0];
        let names = ["ash", "birch", "cedar"];
        let mut rng = 0x5eed_0018_u64;
        let mut live: [Vec<Row>; 2] = [Vec::new(), Vec::new()];
        for cycle in 0..4 {
            for (side, array) in [A, B].into_iter().enumerate() {
                let mut d = DeltaSet::new();
                // Retract about a third of what is live, oldest first.
                let mut kept = Vec::new();
                for row in std::mem::take(&mut live[side]) {
                    if splitmix(&mut rng).is_multiple_of(3) {
                        d.push(row.0, row.1, -1);
                    } else {
                        kept.push(row);
                    }
                }
                live[side] = kept;
                for _ in 0..12 {
                    let r = splitmix(&mut rng);
                    let row: Row = match live[side].first() {
                        // A second copy of a live row.
                        Some(dup) if r.is_multiple_of(4) => dup.clone(),
                        _ => (
                            vec![(r >> 8) as i64 % 24],
                            vec![
                                ScalarValue::Double(pool[(r >> 16) as usize % pool.len()]),
                                ScalarValue::Str(
                                    names[(r >> 24) as usize % names.len()].to_string(),
                                ),
                            ],
                        ),
                    };
                    d.push(row.0.clone(), row.1.clone(), 1);
                    live[side].push(row);
                }
                // A row that comes and goes inside one delta.
                let blip = vec![ScalarValue::Double(-0.0), ScalarValue::Str("blip".to_string())];
                d.push(vec![cycle], blip.clone(), 1);
                d.push(vec![cycle], blip, -1);
                reg.apply(array, &d);
            }
        }
        reg
    }

    /// Cross-version golden: the CRC-32 of `export_states`, computed at
    /// the commit before view state became sorted runs. Both sides of
    /// every "view == recompute" check run the same code; this pins the
    /// bytes to what the per-row `BTreeMap` implementation wrote.
    #[test]
    fn export_bytes_match_the_map_based_implementation() {
        let crc = |reg: &ViewRegistry| durability::crc32(&export(reg));
        assert_eq!(crc(&eventful_registry().0), 0x3de4_104d, "eventful registry");
        let golden = golden_registry();
        for v in golden.views() {
            let snap = v.snapshot();
            assert!(!snap.rows.is_empty() || !snap.groups.is_empty(), "{}: vacuous", v.name());
        }
        assert_eq!(crc(&golden), 0x8f97_2090, "seeded three-shape registry");
    }

    #[test]
    fn registry_routes_by_array_and_replaces_by_name() {
        let mut reg = ViewRegistry::new();
        reg.register(speed_filter());
        assert!(reg.reads(A));
        assert!(!reg.reads(B));
        let s = reg.apply(A, &delta(&[(1, 11.0, 1)]));
        assert_eq!(s.delta_rows, 1);
        assert_eq!(reg.view("fast").unwrap().output_rows().len(), 1);
        // Re-registering under the same name resets state.
        reg.register(speed_filter());
        assert!(reg.view("fast").unwrap().output_rows().is_empty());
        assert_eq!(reg.views().len(), 1);
    }
}
