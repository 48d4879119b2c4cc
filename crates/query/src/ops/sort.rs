//! Sort-flavoured operators: sampled quantiles and sorted distinct values
//! (the paper's SPJ "Sort" benchmarks, §3.3.1).
//!
//! Both run a parallel local pass, ship compact per-node summaries to the
//! coordinator, and finish with a serial merge — "non-trivial aggregation"
//! whose cost follows the balance of the scan plus a small serial tail.
//!
//! The materialized answers are cheaper than that shape. `distinct_sorted`
//! files every scanned key in one seen-table ([`SeenKeys`]) — a probe per
//! row, none for a row that repeats the key before it — and sorts only
//! the distinct keys at the end; `quantile` selects the answer rank
//! instead of sorting the sample. Neither adds floats, so — unlike the
//! window and group sums — no evaluation order is part of these answers:
//! each is a function of the values gathered, and equals the ordered-set
//! / full-sort definition bit for bit however it is computed.

use super::scan::{int_key, integer_attr, numeric_attr, NumericSlice};
use crate::error::Result;
use crate::exec::ExecutionContext;
use crate::stats::{scaled_bytes, QueryStats, WorkTracker};
use array_model::{ArrayId, Region};
use cluster_sim::gb;

/// A sampled quantile estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileResult {
    /// The estimated quantile value (`None` when metadata-only).
    pub value: Option<f64>,
    /// Cells that contributed to the sample.
    pub sampled_cells: u64,
}

/// Estimate quantile `q` (0..=1) of `attr` over `region` from a uniform
/// sample of `sample_fraction` of the cells.
///
/// `attr` must be numeric (a typed [`crate::QueryError::AttributeType`]
/// otherwise). The sample is ordered with [`f64::total_cmp`], so NaN
/// cells rank at the extremes instead of panicking the sort: negative
/// NaNs below `-inf`, positive NaNs above `+inf` (IEEE 754 total order).
/// A NaN can therefore only be *the answer* when `q` lands on a NaN rank
/// — it never perturbs the order of the finite values around it.
pub fn quantile(
    ctx: &ExecutionContext<'_>,
    array_id: ArrayId,
    region: Option<&Region>,
    attr: &str,
    q: f64,
    sample_fraction: f64,
) -> Result<(QuantileResult, QueryStats)> {
    let array = ctx.catalog.array(array_id)?;
    let fraction = ctx.attr_fraction(array, &[attr])?;
    let attr_idx = numeric_attr(array, attr)?;
    let mut tracker = WorkTracker::new(ctx.cost());
    let coordinator = ctx.cluster.coordinator();

    let plan = ctx.plan_scan(array_id, region, None)?;
    let mut sample_bytes_total = 0u64;
    // Charged by hand, not through `ScanPlan::charge`: sampling pushes
    // down into the scan, so only the sampled pages of the column are
    // read (a second rounding-up scale), then each node ships its sample
    // to the coordinator.
    for (desc, node, _) in &plan.visit {
        let col_bytes = scaled_bytes(desc.bytes, fraction);
        let sample_bytes = scaled_bytes(col_bytes, sample_fraction.clamp(0.0, 1.0));
        tracker.scan_chunk(*node, sample_bytes);
        tracker.shuffle(*node, coordinator, sample_bytes);
        sample_bytes_total += sample_bytes;
    }
    tracker.prune_chunks(plan.pruned);
    // Serial sort of the sample at the coordinator: n log n over the
    // sampled bytes, priced as CPU work (an estimate: `n` may round).
    let n = (sample_bytes_total / 8).max(1) as f64;
    tracker
        .coordinator(gb(sample_bytes_total) * ctx.cost().cpu_secs_per_gb * n.log2().max(1.0) / 8.0);

    // Materialized answer: deterministic "sample" = every ceil(1/f)-th cell.
    // The stride counter advances only on region-selected live rows, so a
    // pruned chunk (zero such rows) never shifts which cells later chunks
    // contribute — sampling is pruning-invariant by construction.
    // The clamp bounds the stride to 1..=1e6, which `usize` holds exactly.
    let stride = (1.0 / sample_fraction.clamp(1e-6, 1.0)).round().max(1.0) as usize;
    let mut sample: Vec<f64> = Vec::new();
    let mut i = 0usize;
    plan.for_each_chunk(|chunk, mask| {
        let col = NumericSlice::of(chunk, attr_idx);
        mask.for_each(|row| {
            if i.is_multiple_of(stride) {
                sample.push(col.get(row));
            }
            i += 1;
        });
    })?;
    let mut value = None;
    if !sample.is_empty() {
        // The value a full `total_cmp` sort would leave at the answer
        // rank, by selection: O(n), and the same bits, because values that
        // compare equal under the total order are the same bits.
        // A rank in `0..=len - 1`: `q` is clamped to the unit interval (a
        // NaN `q` casts to rank 0) and `len - 1` is exact below 2^53.
        let idx = ((sample.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        value = Some(*sample.select_nth_unstable_by(idx, f64::total_cmp).1);
    }
    // `usize` to `u64` is lossless on every supported target.
    Ok((QuantileResult { value, sampled_cells: sample.len() as u64 }, tracker.finish()))
}

/// Sorted distinct integer values of `attr` over `region` (the AIS
/// "sorted log of distinct ship identifiers"). `attr` must be an
/// integer-valued attribute (`int32`/`int64`/`char`); floats and strings
/// are a typed [`crate::QueryError::AttributeType`] — historically they were
/// silently skipped, answering `[]`.
pub fn distinct_sorted(
    ctx: &ExecutionContext<'_>,
    array_id: ArrayId,
    region: Option<&Region>,
    attr: &str,
) -> Result<(Vec<i64>, QueryStats)> {
    let array = ctx.catalog.array(array_id)?;
    let fraction = ctx.attr_fraction(array, &[attr])?;
    let attr_idx = integer_attr(array, attr)?;
    let mut tracker = WorkTracker::new(ctx.cost());
    let coordinator = ctx.cluster.coordinator();

    let plan = ctx.plan_scan(array_id, region, None)?;
    plan.charge(&mut tracker, fraction, |tracker, _, node, col_bytes| {
        // Local distinct compresses heavily before the exchange.
        tracker.shuffle(node, coordinator, col_bytes / 20);
    });
    tracker.coordinator(0.5); // final merge of per-node distinct sets

    // Materialized answer: a function of the key *set*, so the keys go
    // through one table over the whole scan and only the distinct ones are
    // sorted. A run of rows repeating one key (a ship reports many times
    // in a row) probes the table once.
    let mut seen = SeenKeys::new();
    let mut previous = None;
    plan.for_each_chunk(|chunk, mask| {
        // A stored chunk carries one column per schema attribute.
        let col = chunk.column(attr_idx).expect("schema-shaped chunk");
        mask.for_each(|row| {
            let key = int_key(col, row);
            if previous != Some(key) {
                seen.insert(key);
                previous = Some(key);
            }
        });
    })?;
    Ok((seen.into_sorted(), tracker.finish()))
}

/// The distinct `i64` keys of a scan: an open-addressed, linearly probed
/// table that doubles at half load — the shape of `keys::KeySlots` without
/// a slot per key, which is measurably cheaper for a pure set (the
/// numbers are on `KeySlots`).
///
/// The hash is one multiplication (Fibonacci hashing), not `HashSet`'s
/// SipHash: the probe is the whole per-row cost of `distinct_sorted`, and
/// the keys are stored attribute values, not a protocol surface — keys
/// crafted to collide can only slow a query down (a longer probe run),
/// never change its answer.
struct SeenKeys {
    /// A power of two slots, at most half of them taken; [`Self::VACANT`]
    /// marks a free one.
    slots: Vec<i64>,
    /// Taken slots.
    len: usize,
    /// Whether the key equal to [`Self::VACANT`] was inserted — the one
    /// key the slots cannot hold.
    vacant_key_seen: bool,
}

impl SeenKeys {
    const VACANT: i64 = i64::MIN;
    const INITIAL_SLOTS: usize = 1 << 10;

    fn new() -> Self {
        SeenKeys { slots: vec![Self::VACANT; Self::INITIAL_SLOTS], len: 0, vacant_key_seen: false }
    }

    /// Where `key` is held in `slots` (a power of two ≥ 2 of them, at
    /// least one vacant, so the probe terminates), or the vacant slot that
    /// ends its probe run. The run starts at the top `log2(len)` bits of a
    /// Fibonacci product.
    #[inline]
    fn slot_for(slots: &[i64], key: i64) -> usize {
        // Both casts are bit-level by intent: the key's two's-complement
        // bits are the hash input, and the shifted product is < `len`.
        let product = (key as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut at = (product >> (u64::BITS - slots.len().trailing_zeros())) as usize;
        while slots[at] != Self::VACANT && slots[at] != key {
            at = (at + 1) & (slots.len() - 1);
        }
        at
    }

    fn insert(&mut self, key: i64) {
        if key == Self::VACANT {
            self.vacant_key_seen = true;
            return;
        }
        let at = Self::slot_for(&self.slots, key);
        if self.slots[at] == key {
            return;
        }
        self.slots[at] = key;
        self.len += 1;
        if self.len > self.slots.len() / 2 {
            self.grow();
        }
    }

    /// Double the table and re-file every key.
    fn grow(&mut self) {
        // Cannot overflow: a `Vec<i64>` holds at most `isize::MAX / 8` slots.
        let doubled = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, vec![Self::VACANT; doubled]);
        for key in old.into_iter().filter(|&k| k != Self::VACANT) {
            let at = Self::slot_for(&self.slots, key);
            self.slots[at] = key;
        }
    }

    /// The keys, ascending.
    fn into_sorted(self) -> Vec<i64> {
        let mut keys = self.slots;
        keys.retain(|&k| k != Self::VACANT);
        if self.vacant_key_seen {
            keys.push(Self::VACANT);
        }
        keys.sort_unstable();
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::QueryError;
    use array_model::{Array, ArraySchema, ScalarValue};
    use cluster_sim::{Cluster, CostModel, NodeId};

    fn setup() -> (Cluster, Catalog) {
        let mut cluster = Cluster::new(2, u64::MAX, CostModel::default()).unwrap();
        let schema = ArraySchema::parse("A<v:double, id:int64>[x=0:9,2, y=0:9,2]").unwrap();
        let mut a = Array::new(ArrayId(0), schema);
        for x in 0..10 {
            for y in 0..10 {
                a.insert_cell(
                    vec![x, y],
                    vec![ScalarValue::Double((x * 10 + y) as f64), ScalarValue::Int64(x % 3)],
                )
                .unwrap();
            }
        }
        let mut cat = Catalog::new();
        cat.place_array(&mut cluster, &a, |_, i, _| NodeId((i % 2) as u32)).unwrap();
        (cluster, cat)
    }

    #[test]
    fn full_sample_median_is_exact() {
        let (cluster, cat) = setup();
        let ctx = ExecutionContext::new(&cluster, &cat);
        let (result, stats) = quantile(&ctx, ArrayId(0), None, "v", 0.5, 1.0).unwrap();
        // Values are 0..=99; the median is 49 or 50 depending on rounding.
        let v = result.value.unwrap();
        assert!((49.0..=50.0).contains(&v), "median {v}");
        assert_eq!(result.sampled_cells, 100);
        assert!(stats.bytes_shuffled > 0, "sample must travel to the coordinator");
    }

    #[test]
    fn sparse_sample_still_approximates() {
        let (cluster, cat) = setup();
        let ctx = ExecutionContext::new(&cluster, &cat);
        let (result, _) = quantile(&ctx, ArrayId(0), None, "v", 0.5, 0.25).unwrap();
        let v = result.value.unwrap();
        assert!((30.0..=70.0).contains(&v), "rough median {v}");
        assert!(result.sampled_cells < 100);
    }

    #[test]
    fn extremes_hit_min_and_max() {
        let (cluster, cat) = setup();
        let ctx = ExecutionContext::new(&cluster, &cat);
        let (lo, _) = quantile(&ctx, ArrayId(0), None, "v", 0.0, 1.0).unwrap();
        let (hi, _) = quantile(&ctx, ArrayId(0), None, "v", 1.0, 1.0).unwrap();
        assert_eq!(lo.value, Some(0.0));
        assert_eq!(hi.value, Some(99.0));
    }

    #[test]
    fn nan_cells_no_longer_panic_the_sort() {
        let mut cluster = Cluster::new(1, u64::MAX, CostModel::default()).unwrap();
        let schema = ArraySchema::parse("N<v:double>[x=0:9,10]").unwrap();
        let mut a = Array::new(ArrayId(4), schema);
        for x in 0..8 {
            a.insert_cell(vec![x], vec![ScalarValue::Double(x as f64)]).unwrap();
        }
        a.insert_cell(vec![8], vec![ScalarValue::Double(f64::NAN)]).unwrap();
        let mut cat = Catalog::new();
        cat.place_array(&mut cluster, &a, |_, _, _| NodeId(0)).unwrap();
        let ctx = ExecutionContext::new(&cluster, &cat);
        // The historical code panicked here ("no NaN measurements").
        let (median, _) = quantile(&ctx, ArrayId(4), None, "v", 0.5, 1.0).unwrap();
        assert_eq!(median.sampled_cells, 9);
        // Positive NaN ranks above +inf in total order, so mid-quantiles
        // still answer from the finite values...
        assert_eq!(median.value, Some(4.0));
        // ...and only the extreme rank lands on the NaN itself.
        let (top, _) = quantile(&ctx, ArrayId(4), None, "v", 1.0, 1.0).unwrap();
        assert!(top.value.unwrap().is_nan());
    }

    #[test]
    fn distinct_matches_naive() {
        let (cluster, cat) = setup();
        let ctx = ExecutionContext::new(&cluster, &cat);
        let (values, stats) = distinct_sorted(&ctx, ArrayId(0), None, "id").unwrap();
        assert_eq!(values, vec![0, 1, 2]);
        assert!(stats.elapsed_secs > 0.0);
    }

    #[test]
    fn non_numeric_inputs_are_typed_errors() {
        let (cluster, cat) = setup();
        let ctx = ExecutionContext::new(&cluster, &cat);
        // distinct over a double column used to silently answer [].
        let err = distinct_sorted(&ctx, ArrayId(0), None, "v").unwrap_err();
        assert_eq!(
            err,
            QueryError::AttributeType { attribute: "v".into(), expected: "integer", got: "double" }
        );
    }

    #[test]
    fn region_restricts_both_operators() {
        let (cluster, cat) = setup();
        let ctx = ExecutionContext::new(&cluster, &cat);
        let region = Region::new(vec![0, 0], vec![0, 9]); // x == 0 only -> id == 0
        let (values, _) = distinct_sorted(&ctx, ArrayId(0), Some(&region), "id").unwrap();
        assert_eq!(values, vec![0]);
        let (q, _) = quantile(&ctx, ArrayId(0), Some(&region), "v", 1.0, 1.0).unwrap();
        assert_eq!(q.value, Some(9.0));
    }

    #[test]
    fn seen_keys_hold_the_extremes_and_survive_growth() {
        use std::collections::BTreeSet;
        let mut seen = SeenKeys::new();
        let mut oracle = BTreeSet::new();
        // Both ends of `i64` (one of them is the vacant marker), their
        // neighbours, zero and negatives; then enough distinct keys —
        // spread by a multiplier so probe runs collide and wrap — to
        // double the table more than twice, each inserted twice.
        let edges = [i64::MIN, i64::MAX, i64::MIN + 1, i64::MAX - 1, 0, -1, 1, -77, i64::MIN];
        let spread = (0..3_000i64).map(|i| (i - 1_500).wrapping_mul(0x1234_5678_9abc_def1));
        let dense = -40..40i64;
        for key in edges.into_iter().chain(spread.clone()).chain(dense).chain(spread) {
            seen.insert(key);
            oracle.insert(key);
        }
        assert!(seen.slots.len() >= 4 * SeenKeys::INITIAL_SLOTS, "grew at least twice");
        assert_eq!(seen.len + 1, oracle.len(), "every key but the vacant marker holds a slot");
        assert_eq!(seen.into_sorted(), oracle.into_iter().collect::<Vec<_>>());
        assert_eq!(SeenKeys::new().into_sorted(), Vec::<i64>::new());
    }

    #[test]
    fn distinct_spans_chunks_extremes_and_tombstones() {
        // Keys repeat inside a chunk (runs of one key), across chunks,
        // and include both ends of `i64`; one key lives only in rows that
        // are retracted, so it must not be reported.
        let mut cluster = Cluster::new(2, u64::MAX, CostModel::default()).unwrap();
        let schema = ArraySchema::parse("D<id:int64>[x=0:4095,64]").unwrap();
        let mut a = Array::new(ArrayId(5), schema);
        let key_of = |x: i64| match x % 97 {
            0 => i64::MIN,
            1 => i64::MAX,
            2 => -5,
            _ => (x / 3) * 1_000_003 - 2_000_000_000,
        };
        for x in 0..4096i64 {
            let key = if x == 100 || x == 2_000 { 424_242 } else { key_of(x) };
            a.insert_cell(vec![x], vec![ScalarValue::Int64(key)]).unwrap();
        }
        a.delete_cells(&[100, 2_000]).unwrap();
        let mut cat = Catalog::new();
        cat.place_array(&mut cluster, &a, |_, i, _| NodeId((i % 2) as u32)).unwrap();
        let ctx = ExecutionContext::new(&cluster, &cat);
        let live = |x: &i64| *x != 100 && *x != 2_000;
        for region in [None, Some(Region::new(vec![50], vec![3_000]))] {
            let inside = |x: &i64| region.as_ref().is_none_or(|r| r.contains_cell(&[*x]));
            let oracle: std::collections::BTreeSet<i64> =
                (0..4096i64).filter(live).filter(inside).map(key_of).collect();
            let (got, _) = distinct_sorted(&ctx, ArrayId(5), region.as_ref(), "id").unwrap();
            assert!(got.len() > SeenKeys::INITIAL_SLOTS / 2, "enough keys to grow the table");
            assert!(!got.contains(&424_242), "a retracted row's key is not an answer");
            assert_eq!(got, oracle.into_iter().collect::<Vec<_>>());
        }
    }
}
