//! Join operators (paper §3.3.1).
//!
//! * [`positional_join`] — the MODIS vegetation-index join: two arrays
//!   joined where both have a cell at the same position. Chunk pairs that
//!   are **co-located** join locally; otherwise the smaller chunk ships to
//!   its partner's node. Placement schemes that co-locate equal chunk
//!   coordinates (the range partitioners and SciDB-style coordinate
//!   hashing) pay nothing here; Append's concentration of the newest day
//!   on one or two hosts serializes the probe work.
//! * [`lookup_join`] — the AIS Broadcast ⋈ Vessel join: the build side is
//!   a small array replicated on every node, so the join is embarrassingly
//!   parallel over the probe side.
//!
//! `positional_join`'s materialized answer is a build and a probe of one
//! flat table: every selected right row is filed under its cell's key
//! (`ops/keys.rs` — the cell's `u64` ordinal inside the right scan's box,
//! or padded coordinates when that box is too large to number), the left
//! rows probe it in scan order, and a probe counts when the row it finds
//! belongs to the right chunk at the left chunk's position.

use super::keys::{BoxEncoding, Encoding, KeySlots};
use super::scan::{int_key, integer_attr, numeric_attr, NumericSlice};
use crate::error::Result;
use crate::exec::{ExecutionContext, ScanPlan};
use crate::stats::{scaled_bytes, QueryStats, WorkTracker};
use array_model::{ArrayId, Region};
use cluster_sim::NodeId;
use std::collections::BTreeMap;

/// Outcome of a join.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JoinResult {
    /// Matched cell pairs (or probe matches).
    pub matches: u64,
    /// Sum of the combiner over all matches (e.g. ΣNDVI); `0` when
    /// metadata-only.
    pub combined_sum: f64,
}

/// Join `left` and `right` where both arrays store a cell at the same
/// position inside `region`. `combine(left_value, right_value)` folds a
/// matched pair into a number (e.g. NDVI from two radiances); both
/// attributes must be numeric.
pub fn positional_join(
    ctx: &ExecutionContext<'_>,
    left: ArrayId,
    right: ArrayId,
    region: &Region,
    left_attr: &str,
    right_attr: &str,
    combine: impl Fn(f64, f64) -> f64,
) -> Result<(JoinResult, QueryStats)> {
    let la = ctx.catalog.array(left)?;
    let ra = ctx.catalog.array(right)?;
    let lfrac = ctx.attr_fraction(la, &[left_attr])?;
    let rfrac = ctx.attr_fraction(ra, &[right_attr])?;
    let lidx = numeric_attr(la, left_attr)?;
    let ridx = numeric_attr(ra, right_attr)?;
    let mut tracker = WorkTracker::new(ctx.cost());

    // Pair up chunks by position. A chunk with no partner costs nothing
    // (no output, refuted by metadata alone); a pair with a pruned side
    // has no output either, so neither side is read.
    let lplan = ctx.plan_scan(left, Some(region), None)?;
    let rplan = ctx.plan_scan(right, Some(region), None)?;
    let left_chunks = lplan.homes();
    for (rdesc, rnode, _) in &rplan.visit {
        let Some((ldesc, lnode, llive)) = left_chunks.get(&rdesc.key.coords) else { continue };
        if !llive {
            tracker.prune_chunks(2);
            continue;
        }
        let lbytes = scaled_bytes(ldesc.bytes, lfrac);
        let rbytes = scaled_bytes(rdesc.bytes, rfrac);
        // Both sides are scanned where they live.
        tracker.scan_chunk(lnode, lbytes);
        tracker.scan_chunk(*rnode, rbytes);
        // Ship the smaller side to the larger side's node.
        if lbytes <= rbytes {
            tracker.shuffle(lnode, *rnode, lbytes);
        } else {
            tracker.shuffle(*rnode, lnode, rbytes);
        }
    }
    let dead_pairs = rplan.dead.iter().filter(|(d, _)| left_chunks.get(&d.key.coords).is_some());
    // `usize` to `u64` is lossless on every supported target.
    tracker.prune_chunks(2 * dead_pairs.count() as u64);

    // Materialized answer, computed only when both sides' cells are there.
    let mut result = JoinResult::default();
    if lplan.exact && rplan.exact {
        // The right side's selected cells live in the right scan's box.
        result = match rplan.cell_box(ra.schema.ndims()).encoding() {
            BoxEncoding::Packed(e) => probe_pairs(&e, &lplan, &rplan, lidx, ridx, combine)?,
            BoxEncoding::Padded(e) => probe_pairs(&e, &lplan, &rplan, lidx, ridx, combine)?,
        };
    }
    Ok((result, tracker.finish()))
}

/// The join proper: file every selected right row under its cell's key in
/// one table (the last-inserted row wins a shared cell), then probe it
/// with the left rows in scan order — `combined_sum` adds in that order.
/// Chunks pair by position, as in the cost model above: a probe counts
/// only when the row it finds sits in the right chunk whose coordinates
/// equal the left chunk's.
fn probe_pairs<E: Encoding>(
    encoding: &E,
    lplan: &ScanPlan<'_>,
    rplan: &ScanPlan<'_>,
    lidx: usize,
    ridx: usize,
    combine: impl Fn(f64, f64) -> f64,
) -> Result<JoinResult> {
    let mut right = Vec::new();
    rplan.for_each_chunk(|chunk, mask| right.push((chunk, mask)))?;
    // The driver visits chunks in row-major order, which finds a partner.
    debug_assert!(right.windows(2).all(|w| w[0].0.coords < w[1].0.coords));
    let selected: u64 = right.iter().map(|(_, mask)| mask.count()).sum();
    // A count of rows held in memory fits `usize`; were it ever not to,
    // the table starts smaller and grows.
    let mut cells = KeySlots::with_room_for(usize::try_from(selected).unwrap_or(0));
    // By slot: the right chunk (as an index into `right`) and row that
    // hold the cell.
    let mut holders: Vec<(usize, usize)> = Vec::new();
    for (at, (chunk, mask)) in right.iter().enumerate() {
        mask.for_each_cell(chunk, |row, cell| {
            // A selected row is live and inside the region, so inside
            // the box the encoding was made for.
            let key = encoding.pack(cell).expect("a selected row is inside the scan's box");
            let slot = cells.slot_of(key);
            if slot == holders.len() {
                holders.push((at, row));
            } else {
                holders[slot] = (at, row);
            }
        });
    }
    let columns: Vec<_> = right.iter().map(|(chunk, _)| NumericSlice::of(chunk, ridx)).collect();
    let mut result = JoinResult::default();
    lplan.for_each_chunk(|lchunk, lmask| {
        let Ok(partner) = right.binary_search_by(|(chunk, _)| chunk.coords.cmp(&lchunk.coords))
        else {
            return;
        };
        let lcol = NumericSlice::of(lchunk, lidx);
        lmask.for_each_cell(lchunk, |lrow, cell| {
            // A left cell outside the right side's box matches nothing.
            let held = encoding.pack(cell).and_then(|key| cells.get(key));
            if let Some((at, rrow)) = held.map(|slot| holders[slot]) {
                if at == partner {
                    result.matches += 1;
                    result.combined_sum += combine(lcol.get(lrow), columns[at].get(rrow));
                }
            }
        });
    })?;
    Ok(result)
}

/// Probe-side join against a replicated build array keyed on an integer
/// attribute: every probe chunk joins locally against the local replica.
/// Both keys must be integer-valued (`int32`/`int64`/`char`).
pub fn lookup_join(
    ctx: &ExecutionContext<'_>,
    probe: ArrayId,
    build: ArrayId,
    region: Option<&Region>,
    probe_key: &str,
    build_key: &str,
) -> Result<(JoinResult, QueryStats)> {
    let pa = ctx.catalog.array(probe)?;
    let ba = ctx.catalog.array(build)?;
    let pfrac = ctx.attr_fraction(pa, &[probe_key])?;
    let pidx = integer_attr(pa, probe_key)?;
    let bidx = integer_attr(ba, build_key)?;
    let mut tracker = WorkTracker::new(ctx.cost());

    let build_bytes = ba.byte_size();
    // Per node id (ids are dense join-order indices): whether the node
    // has been seen yet.
    let mut seen: Vec<bool> = Vec::new();
    let mut first_sight = |node: NodeId| {
        let i = node.0 as usize;
        if i >= seen.len() {
            seen.resize(i + 1, false);
        }
        !std::mem::replace(&mut seen[i], true)
    };
    let pplan = ctx.plan_scan(probe, region, None)?;
    pplan.charge(&mut tracker, pfrac, |tracker, _, node, _| {
        // Each participating node reads its local replica of the build
        // side once.
        if first_sight(node) {
            tracker.scan_chunk(node, build_bytes);
        }
    });
    // A node all of whose probe chunks were pruned never reads its replica.
    for (_, node) in &pplan.dead {
        if first_sight(*node) {
            tracker.prune_chunks(1);
        }
    }

    // Materialized answer: hash the build side once, probe all cells.
    let mut result = JoinResult::default();
    let mut build_keys: BTreeMap<i64, u64> = BTreeMap::new();
    if pplan.exact {
        // A stored chunk carries one column per schema attribute, and
        // both indices were resolved against the schemas above.
        ctx.plan_scan(build, None, None)?.for_each_chunk(|chunk, mask| {
            let col = chunk.column(bidx).expect("schema-shaped chunk");
            mask.for_each(|row| *build_keys.entry(int_key(col, row)).or_default() += 1);
        })?;
    }
    if !build_keys.is_empty() {
        pplan.for_each_chunk(|chunk, mask| {
            let col = chunk.column(pidx).expect("schema-shaped chunk");
            mask.for_each(|row| {
                if let Some(&mult) = build_keys.get(&int_key(col, row)) {
                    result.matches += mult;
                }
            });
        })?;
    }
    Ok((result, tracker.finish()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Catalog, StoredArray};
    use array_model::{Array, ArraySchema, ChunkCoords, ScalarValue};
    use cluster_sim::{Cluster, CostModel, NodeId};

    /// Two 8x8 single-attribute arrays; `colocated` controls whether equal
    /// chunk coords share a node.
    fn setup(colocated: bool) -> (Cluster, Catalog) {
        let mut cluster = Cluster::new(4, u64::MAX, CostModel::default()).unwrap();
        let mut cat = Catalog::new();
        for (id, base) in [(0u32, 1.0f64), (1u32, 2.0f64)] {
            let schema = ArraySchema::parse("B<r:double>[x=0:7,2, y=0:7,2]").unwrap();
            let mut a = Array::new(ArrayId(id), schema);
            for x in 0..8 {
                for y in 0..8 {
                    // band2 cells exist only on even x so some positions miss
                    if id == 1 && x % 2 == 1 {
                        continue;
                    }
                    a.insert_cell(vec![x, y], vec![ScalarValue::Double(base + (x + y) as f64)])
                        .unwrap();
                }
            }
            let shift = if colocated { 0 } else { id as usize };
            cat.place_array(&mut cluster, &a, |_, i, _| NodeId(((i + shift) % 4) as u32)).unwrap();
        }
        (cluster, cat)
    }

    #[test]
    fn join_matches_only_shared_positions() {
        let (cluster, cat) = setup(true);
        let ctx = ExecutionContext::new(&cluster, &cat);
        let region = Region::new(vec![0, 0], vec![7, 7]);
        let (result, _) =
            positional_join(&ctx, ArrayId(0), ArrayId(1), &region, "r", "r", |a, b| b - a).unwrap();
        // band2 has cells only on even x: 4 * 8 = 32 matches, each b-a = 1.
        assert_eq!(result.matches, 32);
        assert!((result.combined_sum - 32.0).abs() < 1e-9);
    }

    #[test]
    fn colocated_join_ships_nothing() {
        let region = Region::new(vec![0, 0], vec![7, 7]);
        let (cluster, cat) = setup(true);
        let ctx = ExecutionContext::new(&cluster, &cat);
        let (_, stats) =
            positional_join(&ctx, ArrayId(0), ArrayId(1), &region, "r", "r", |a, b| b - a).unwrap();
        assert_eq!(stats.bytes_shuffled, 0);

        let (cluster2, cat2) = setup(false);
        let ctx2 = ExecutionContext::new(&cluster2, &cat2);
        let (_, stats2) =
            positional_join(&ctx2, ArrayId(0), ArrayId(1), &region, "r", "r", |a, b| b - a)
                .unwrap();
        assert!(stats2.bytes_shuffled > 0, "misaligned placement must shuffle");
        assert!(stats2.elapsed_secs > stats.elapsed_secs);
    }

    #[test]
    fn lookup_join_counts_multiplicity() {
        let mut cluster = Cluster::new(2, u64::MAX, CostModel::default()).unwrap();
        let mut cat = Catalog::new();
        // Probe: 4 cells with keys 1,1,2,3
        let pschema = ArraySchema::parse("P<k:int64>[x=0:3,2]").unwrap();
        let mut probe = Array::new(ArrayId(0), pschema);
        for (x, k) in [(0i64, 1i64), (1, 1), (2, 2), (3, 3)] {
            probe.insert_cell(vec![x], vec![ScalarValue::Int64(k)]).unwrap();
        }
        cat.place_array(&mut cluster, &probe, |_, i, _| NodeId((i % 2) as u32)).unwrap();
        // Build (replicated): keys 1,2,2 -> key 2 has multiplicity 2.
        let bschema = ArraySchema::parse("V<id:int64>[vid=0:2,3]").unwrap();
        let mut build = Array::new(ArrayId(1), bschema);
        for (v, id) in [(0i64, 1i64), (1, 2), (2, 2)] {
            build.insert_cell(vec![v], vec![ScalarValue::Int64(id)]).unwrap();
        }
        cat.register(StoredArray::from_array(build).replicated());

        let ctx = ExecutionContext::new(&cluster, &cat);
        let (result, stats) = lookup_join(&ctx, ArrayId(0), ArrayId(1), None, "k", "id").unwrap();
        // probes: 1->1, 1->1, 2->2 (multiplicity 2), 3->0 = 1+1+2 = 4
        assert_eq!(result.matches, 4);
        assert_eq!(stats.bytes_shuffled, 0, "replicated build side never ships");
    }

    /// Place every chunk of `array` on node 0 and register it.
    fn register(cluster: &mut Cluster, cat: &mut Catalog, array: Array) {
        cat.place_array(cluster, &array, |_, _, _| NodeId(0)).unwrap();
    }

    #[test]
    fn positional_join_over_a_non_numeric_attribute_is_a_typed_error() {
        // Used to skip every row through `get_f64() == None` and answer
        // "0 matches" — indistinguishable from an honestly empty join.
        let (mut cluster, mut cat) = setup(true);
        let schema = ArraySchema::parse("T<tag:string>[x=0:7,2, y=0:7,2]").unwrap();
        let mut tagged = Array::new(ArrayId(2), schema);
        tagged.insert_cell(vec![0, 0], vec![ScalarValue::Str("a".into())]).unwrap();
        register(&mut cluster, &mut cat, tagged);
        let ctx = ExecutionContext::new(&cluster, &cat);
        let region = Region::new(vec![0, 0], vec![7, 7]);
        for (l, r, la, ra) in [(2, 0, "tag", "r"), (0, 2, "r", "tag")] {
            let err = positional_join(&ctx, ArrayId(l), ArrayId(r), &region, la, ra, |a, _| a)
                .unwrap_err();
            assert!(matches!(err, crate::QueryError::AttributeType { .. }), "{err}");
        }
    }

    #[test]
    fn lookup_join_over_a_non_integer_key_is_a_typed_error() {
        // Used to skip every row through `as_i64() == None`: 0 matches.
        let mut cluster = Cluster::new(1, u64::MAX, CostModel::default()).unwrap();
        let mut cat = Catalog::new();
        let mut probe =
            Array::new(ArrayId(0), ArraySchema::parse("P<k:double, i:int64>[x=0:3,2]").unwrap());
        probe.insert_cell(vec![0], vec![ScalarValue::Double(1.0), ScalarValue::Int64(1)]).unwrap();
        register(&mut cluster, &mut cat, probe);
        let mut build =
            Array::new(ArrayId(1), ArraySchema::parse("V<id:double, i:int64>[v=0:3,4]").unwrap());
        build.insert_cell(vec![0], vec![ScalarValue::Double(1.0), ScalarValue::Int64(1)]).unwrap();
        cat.register(StoredArray::from_array(build).replicated());
        let ctx = ExecutionContext::new(&cluster, &cat);
        for (pk, bk) in [("k", "i"), ("i", "id")] {
            let err = lookup_join(&ctx, ArrayId(0), ArrayId(1), None, pk, bk).unwrap_err();
            assert!(matches!(err, crate::QueryError::AttributeType { .. }), "{err}");
        }
        let (ok, _) = lookup_join(&ctx, ArrayId(0), ArrayId(1), None, "i", "i").unwrap();
        assert_eq!(ok.matches, 1);
    }

    #[test]
    fn missing_partner_chunks_are_pruned() {
        let (mut cluster, mut cat) = setup(true);
        // An array whose only chunk position (4,4) has no partner in
        // array 0 (which spans chunk positions (0..4, 0..4)).
        let schema = ArraySchema::parse("C<r:double>[x=0:9,2, y=0:9,2]").unwrap();
        let mut extra = Array::new(ArrayId(2), schema);
        extra.insert_cell(vec![9, 9], vec![ScalarValue::Double(1.0)]).unwrap();
        register(&mut cluster, &mut cat, extra);
        let only = cat.array(ArrayId(2)).unwrap().descriptors.keys().next();
        assert_eq!(only, Some(&ChunkCoords::new([4, 4])));
        let ctx = ExecutionContext::new(&cluster, &cat);
        let region = Region::new(vec![8, 8], vec![9, 9]);
        let (result, stats) =
            positional_join(&ctx, ArrayId(0), ArrayId(2), &region, "r", "r", |a, _| a).unwrap();
        // Array 0 has no chunk at (4,4): metadata pruning skips the scan
        // entirely and the join is empty.
        assert_eq!(result.matches, 0);
        assert_eq!(stats.chunks_visited, 0);
        assert_eq!(stats.bytes_scanned, 0);
    }
}
