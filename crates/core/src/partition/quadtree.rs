//! Incremental Quadtree partitioner (paper §4.2, citing Finkel & Bentley [20]).
//!
//! A quadtree recursively quarters a 2-D plane of the array (lon/lat in
//! both of the paper's schemas). A *classical* quadtree cannot scale out
//! incrementally — splitting a host would need three new machines — so the
//! paper's variant assigns each host a partition that lives at exactly one
//! tree level:
//!
//! * if the most loaded host owns a single region, the region is
//!   **quartered** and the quarter or edge-adjacent pair of quarters whose
//!   bytes are closest to half of the host's storage moves to the new node;
//! * if the host already owns a set of quarters, the adjacent pair (or
//!   single quarter) closest to halving its storage moves instead, with no
//!   further subdivision.

use super::{GridHint, Partitioner, PartitionerKind, RouteEpoch};
use array_model::{ChunkDescriptor, ChunkKey};
use cluster_sim::{Cluster, NodeId, RebalancePlan};
use durability::CodecError;
use std::collections::BTreeMap;

/// One quad cell: at `level`, the plane is a 2^level × 2^level grid and
/// this region is cell `(x, y)` of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct QuadRegion {
    level: u32,
    x: u64,
    y: u64,
}

impl QuadRegion {
    /// The four children one level down.
    fn quarters(self) -> [QuadRegion; 4] {
        let QuadRegion { level, x, y } = self;
        [
            QuadRegion { level: level + 1, x: x * 2, y: y * 2 },
            QuadRegion { level: level + 1, x: x * 2 + 1, y: y * 2 },
            QuadRegion { level: level + 1, x: x * 2, y: y * 2 + 1 },
            QuadRegion { level: level + 1, x: x * 2 + 1, y: y * 2 + 1 },
        ]
    }

    /// Does this region contain plane point `(px, py)` of a `side`-sized
    /// embedding (side = 2^max_bits)?
    fn contains(&self, px: u64, py: u64, max_bits: u32) -> bool {
        let shift = max_bits - self.level;
        (px >> shift) == self.x && (py >> shift) == self.y
    }

    /// Edge adjacency at equal level.
    fn adjacent(&self, other: &QuadRegion) -> bool {
        self.level == other.level && self.x.abs_diff(other.x) + self.y.abs_diff(other.y) == 1
    }
}

/// Incremental Quadtree partitioner state.
#[derive(Debug, Clone)]
pub struct IncrementalQuadtree {
    /// Which two dimensions form the quartered plane.
    plane: (usize, usize),
    /// The plane is embedded in a 2^max_bits square.
    max_bits: u32,
    /// Actual grid extents on the plane (the embedding square is padded
    /// beyond them; padded space holds no data and must not count as
    /// splittable area).
    extent: (u64, u64),
    /// Disjoint region cover; a host may own several regions (its
    /// "partition"), all at a single level.
    regions: Vec<(QuadRegion, NodeId)>,
}

impl IncrementalQuadtree {
    /// Build for the initial nodes over `grid`, quartering on `plane`.
    pub fn new(nodes: &[NodeId], grid: &GridHint, plane: (usize, usize)) -> Self {
        assert!(!nodes.is_empty(), "need at least one node");
        assert!(plane.0 != plane.1, "plane dimensions must differ");
        assert!(
            plane.0 < grid.ndims() && plane.1 < grid.ndims(),
            "plane dimensions must exist in the grid"
        );
        let ex = grid.chunk_counts[plane.0].max(1) as u64;
        let ey = grid.chunk_counts[plane.1].max(1) as u64;
        let longest = ex.max(ey).max(2);
        let max_bits = 64 - (longest - 1).leading_zeros();
        let root = QuadRegion { level: 0, x: 0, y: 0 };
        let mut qt = IncrementalQuadtree {
            plane,
            max_bits,
            extent: (ex, ey),
            regions: vec![(root, nodes[0])],
        };
        // Bootstrap additional initial nodes with area-weighted splits
        // (no data exists yet, so bytes degenerate to areas).
        for &fresh in &nodes[1..] {
            let victim = qt.largest_area_host();
            qt.split_host(victim, fresh, &[]);
        }
        qt
    }

    fn plane_point(&self, key: &ChunkKey) -> (u64, u64) {
        let limit = if self.max_bits >= 64 { u64::MAX } else { (1u64 << self.max_bits) - 1 };
        let px = (key.coords.index(self.plane.0).max(0) as u64).min(limit);
        let py = (key.coords.index(self.plane.1).max(0) as u64).min(limit);
        (px, py)
    }

    fn owner_of(&self, key: &ChunkKey) -> NodeId {
        let (px, py) = self.plane_point(key);
        // Regions are disjoint and cover the plane: exactly one matches.
        self.regions
            .iter()
            .find(|(r, _)| r.contains(px, py, self.max_bits))
            .expect("region cover is complete")
            .1
    }

    fn host_regions(&self, host: NodeId) -> Vec<QuadRegion> {
        self.regions.iter().filter(|(_, n)| *n == host).map(|(r, _)| *r).collect()
    }

    /// The data-bearing cells a region covers: intersection of the quad
    /// cell with the real grid extents.
    fn occupied_area(&self, r: &QuadRegion) -> u128 {
        let side = 1u64 << (self.max_bits - r.level);
        let x0 = r.x * side;
        let y0 = r.y * side;
        let ox = self.extent.0.saturating_sub(x0).min(side);
        let oy = self.extent.1.saturating_sub(y0).min(side);
        u128::from(ox) * u128::from(oy)
    }

    fn largest_area_host(&self) -> NodeId {
        let mut area: BTreeMap<NodeId, u128> = BTreeMap::new();
        for (r, n) in &self.regions {
            *area.entry(*n).or_default() += self.occupied_area(r);
        }
        *area.iter().max_by(|a, b| a.1.cmp(b.1).then(b.0 .0.cmp(&a.0 .0))).expect("regions exist").0
    }

    /// Split `victim`, moving the chosen regions to `fresh`. `chunks` are
    /// the victim's resident chunks as `(plane_x, plane_y, bytes)`; when
    /// empty (bootstrap), occupied area stands in for bytes. Returns the
    /// regions that changed hands.
    ///
    /// The selection follows §4.2: a single-region partition is quartered
    /// and the quarter or edge-adjacent pair closest to half the storage
    /// moves; a multi-region partition gives up its best quarter/pair.
    /// When no subset at the current level comes anywhere near halving the
    /// victim (one region dominates — "areas of skew"), the whole
    /// partition is pushed one level deeper and the selection repeats, so
    /// each host's partition still resides at exactly one tree level.
    fn split_host(
        &mut self,
        victim: NodeId,
        fresh: NodeId,
        chunks: &[(u64, u64, u64)],
    ) -> Vec<QuadRegion> {
        debug_assert!(!self.host_regions(victim).is_empty(), "victim must own regions");
        loop {
            let owned = self.host_regions(victim);

            // Candidates: the four children when a single region remains,
            // otherwise the current quarters.
            let candidates: Vec<QuadRegion> = if owned.len() == 1 {
                let parent = owned[0];
                if parent.level >= self.max_bits {
                    // Cannot subdivide further; hand over the whole region.
                    self.reassign(&[parent], fresh);
                    return vec![parent];
                }
                self.refine(victim, &[parent]);
                parent.quarters().to_vec()
            } else {
                owned.clone()
            };

            let weight = |r: &QuadRegion| -> u128 {
                if chunks.is_empty() {
                    self.occupied_area(r)
                } else {
                    chunks
                        .iter()
                        .filter(|&&(px, py, _)| r.contains(px, py, self.max_bits))
                        .map(|&(_, _, b)| u128::from(b))
                        .sum()
                }
            };
            let total: u128 = candidates.iter().map(weight).sum();
            let half = total / 2;

            // Enumerate singles and edge-adjacent pairs; keep at least one
            // candidate with the victim. Ties on closeness-to-half break
            // toward moving fewer bytes — cheaper, and under point skew it
            // sheds the light quarters first.
            let mut best: Option<(u128, u128, Vec<QuadRegion>)> = None;
            let mut consider = |subset: Vec<QuadRegion>| {
                if subset.len() >= candidates.len() {
                    return; // victim must keep something
                }
                let w: u128 = subset.iter().map(&weight).sum();
                let score = w.abs_diff(half);
                match &best {
                    Some((s, bw, _)) if (*s, *bw) <= (score, w) => {}
                    _ => best = Some((score, w, subset)),
                }
            };
            for (i, a) in candidates.iter().enumerate() {
                consider(vec![*a]);
                for b in candidates.iter().skip(i + 1) {
                    if a.adjacent(b) {
                        consider(vec![*a, *b]);
                    }
                }
            }
            let Some((score, _, chosen)) = best else {
                return Vec::new();
            };
            // Accept anything within 35 % of a perfect halving, or when the
            // partition cannot be pushed deeper.
            let can_refine = candidates.iter().all(|r| r.level < self.max_bits);
            if total == 0 || score * 20 <= total * 7 || !can_refine {
                self.reassign(&chosen, fresh);
                return chosen;
            }
            // One region dominates: refine the whole partition one level
            // and re-select among the children.
            self.refine(victim, &candidates);
        }
    }

    /// Replace each of `victim`'s listed regions with its four quarters.
    fn refine(&mut self, victim: NodeId, regions: &[QuadRegion]) {
        for r in regions {
            debug_assert!(r.level < self.max_bits);
            self.regions.retain(|(existing, _)| existing != r);
            for q in r.quarters() {
                self.regions.push((q, victim));
            }
        }
    }

    fn reassign(&mut self, regions: &[QuadRegion], to: NodeId) {
        for (r, n) in &mut self.regions {
            if regions.contains(r) {
                *n = to;
            }
        }
    }
}

impl Partitioner for IncrementalQuadtree {
    fn kind(&self) -> PartitionerKind {
        PartitionerKind::IncrementalQuadtree
    }

    fn table_snapshot(&self) -> Vec<u8> {
        // Plane, max_bits, and extent are config-derived; the region
        // cover mutates on every refine/reassign.
        let mut w = durability::ByteWriter::new();
        w.put_list(&self.regions, |w, &(r, node)| {
            w.put_u32(r.level);
            w.put_u64(r.x);
            w.put_u64(r.y);
            w.put_u32(node.0);
        });
        w.into_bytes()
    }

    fn table_restore(&mut self, bytes: &[u8], roster: &[NodeId]) -> Result<(), CodecError> {
        let mut r = durability::ByteReader::new(bytes);
        let regions = r.list("quad region count", 4 + 8 + 8 + 4, |r| {
            let level = r.u32("quad region level")?;
            if level > self.max_bits {
                let detail = format!("level {level} exceeds max_bits {}", self.max_bits);
                return Err(CodecError::invalid("quad region level", detail));
            }
            let region =
                QuadRegion { level, x: r.u64("quad region x")?, y: r.u64("quad region y")? };
            if region.x >> level != 0 || region.y >> level != 0 {
                let detail = format!("{region:?} is off the plane");
                return Err(CodecError::invalid("quad region", detail));
            }
            Ok((region, super::read_node(r, roster, "quad region owner")?))
        })?;
        // Exactly one region holds each plane point: along the Z-order
        // curve a region's points are one span of the plane, and the spans
        // tile it.
        let span = |(r, _): &(QuadRegion, NodeId)| {
            let bit = |v: u64, b: u32| u128::from((v >> b) & 1);
            let z = (0..r.level)
                .fold(0, |z, b| z | bit(r.x, b) << (2 * b) | bit(r.y, b) << (2 * b + 1));
            let shift = 2 * (self.max_bits - r.level);
            (z << shift, 1u128 << shift)
        };
        if !super::tiles(regions.iter().map(span).collect(), 1 << (2 * self.max_bits)) {
            let detail = "regions overlap or leave the plane bare";
            return Err(CodecError::invalid("quad region", detail));
        }
        r.finish("quad snapshot tail")?;
        self.regions = regions;
        Ok(())
    }

    fn route(&self, desc: &ChunkDescriptor, _ordinal: usize, _epoch: &RouteEpoch<'_>) -> NodeId {
        self.owner_of(&desc.key)
    }

    fn locate(&self, key: &ChunkKey) -> Option<NodeId> {
        Some(self.owner_of(key))
    }

    fn scale_out(&mut self, cluster: &Cluster, new_nodes: &[NodeId]) -> RebalancePlan {
        super::split_heaviest(cluster, new_nodes, |victim, fresh, residents| {
            if self.host_regions(victim).is_empty() {
                // A maximally-subdivided victim handed over its last region
                // earlier; it cannot be split again.
                return Vec::new();
            }
            let points: Vec<(u64, u64, u64)> = residents
                .iter()
                .map(|d| {
                    let (px, py) = self.plane_point(&d.key);
                    (px, py, d.bytes)
                })
                .collect();
            let moved = self.split_host(victim, fresh, &points);
            let on_moved = |&(px, py, _): &(u64, u64, u64)| {
                moved.iter().any(|r| r.contains(px, py, self.max_bits))
            };
            residents
                .into_iter()
                .zip(&points)
                .filter(|(_, p)| on_moved(p))
                .map(|(d, _)| d)
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use array_model::{ArrayId, ChunkCoords};
    use cluster_sim::CostModel;

    fn grid() -> GridHint {
        // (time, lon, lat) like the paper's schemas; plane = (1, 2).
        GridHint::new(vec![4, 16, 16])
    }

    fn desc(t: i64, x: i64, y: i64, bytes: u64) -> ChunkDescriptor {
        ChunkDescriptor::new(ChunkKey::new(ArrayId(0), ChunkCoords::new([t, x, y])), bytes, 1)
    }

    fn insert_grid(
        p: &mut IncrementalQuadtree,
        cluster: &mut Cluster,
        weight: impl Fn(i64, i64) -> u64,
    ) {
        for x in 0..16 {
            for y in 0..16 {
                let d = desc(0, x, y, weight(x, y));
                let n = p.place(&d, cluster);
                cluster.place(d, n).unwrap();
            }
        }
    }

    #[test]
    fn bootstrap_partitions_whole_plane() {
        let cluster = Cluster::new(2, u64::MAX, CostModel::default()).unwrap();
        let p = IncrementalQuadtree::new(&cluster.node_ids(), &grid(), (1, 2));
        let mut owners = std::collections::BTreeSet::new();
        for x in 0..16 {
            for y in 0..16 {
                owners.insert(p.locate(&desc(0, x, y, 0).key).unwrap());
            }
        }
        assert_eq!(owners.len(), 2, "both initial nodes own plane regions");
    }

    #[test]
    fn time_dimension_is_ignored_by_the_plane() {
        let cluster = Cluster::new(4, u64::MAX, CostModel::default()).unwrap();
        let p = IncrementalQuadtree::new(&cluster.node_ids(), &grid(), (1, 2));
        for t in 0..4 {
            assert_eq!(
                p.locate(&desc(t, 3, 7, 0).key),
                p.locate(&desc(0, 3, 7, 0).key),
                "same lon/lat must colocate across time"
            );
        }
    }

    #[test]
    fn repeated_splits_zoom_into_the_hotspot() {
        // Point skew in one corner, like a port. A single high-level split
        // cannot halve it (the paper notes the quadtree "starts with a
        // high-level split, putting it on par with Uniform Range"), but
        // successive skew-aware splits subdivide the hot quarter and
        // balance improves.
        let mut cluster = Cluster::new(1, u64::MAX, CostModel::default()).unwrap();
        let mut p = IncrementalQuadtree::new(&cluster.node_ids(), &grid(), (1, 2));
        insert_grid(&mut p, &mut cluster, |x, y| if x < 4 && y < 4 { 1000 } else { 1 });

        for round in 0..4 {
            let new = cluster.add_nodes(1, u64::MAX);
            let plan = p.scale_out(&cluster, &new);
            assert!(plan.is_incremental(&new), "round {round}");
            cluster.apply_rebalance(&plan).unwrap();
            for (key, node) in cluster.placements() {
                assert_eq!(p.locate(&key), Some(node));
            }
            if round == 0 {
                // The refinement loop zooms straight into the hotspot: the
                // very first split already halves the loaded host.
                let rsd = cluster_sim::relative_std_dev(&cluster.loads());
                assert!(rsd < 0.2, "first split should nearly halve: rsd {rsd}");
            }
        }
        // The hot 4x4 corner must now span more than one owner.
        let mut hot_owners = std::collections::BTreeSet::new();
        for x in 0..4 {
            for y in 0..4 {
                hot_owners.insert(p.locate(&desc(0, x, y, 0).key).unwrap());
            }
        }
        assert!(hot_owners.len() > 1, "hotspot was never subdivided");
        // Residual imbalance is bounded by the non-power-of-two effect the
        // paper describes (some partitions are the result of fewer splits).
        let rsd_final = cluster_sim::relative_std_dev(&cluster.loads());
        assert!(rsd_final < 0.45, "final rsd {rsd_final}");
    }

    #[test]
    fn partitions_stay_at_one_level() {
        // After several splits every host's regions share a single level —
        // the invariant §4.2 calls out.
        let mut cluster = Cluster::new(2, u64::MAX, CostModel::default()).unwrap();
        let mut p = IncrementalQuadtree::new(&cluster.node_ids(), &grid(), (1, 2));
        insert_grid(&mut p, &mut cluster, |x, y| 1 + (x * y) as u64);
        for _ in 0..3 {
            let new = cluster.add_nodes(2, u64::MAX);
            let plan = p.scale_out(&cluster, &new);
            cluster.apply_rebalance(&plan).unwrap();
        }
        for node in cluster.nodes() {
            let regions = p.host_regions(node.id);
            if regions.is_empty() {
                continue;
            }
            let level = regions[0].level;
            assert!(regions.iter().all(|r| r.level == level), "host {} spans levels", node.id);
        }
    }

    #[test]
    fn pair_selection_prefers_half_split() {
        // One region with 3 quarters heavy and 1 light: the best halving is
        // a pair. Weights: q0=40, q1=40, q2=10, q3=10 (total 100, half 50):
        // best single = 40 (off 10), pair (q0,q2)=50 (off 0) -> pair wins.
        let mut cluster = Cluster::new(1, u64::MAX, CostModel::default()).unwrap();
        let mut p = IncrementalQuadtree::new(&cluster.node_ids(), &grid(), (1, 2));
        // q0 = sw (x<8,y<8), q1 = se (x>=8,y<8), q2 = nw, q3 = ne
        let weight = |x: i64, y: i64| match (x < 8, y < 8) {
            (true, true) => 40u64,
            (false, true) => 40,
            (true, false) => 10,
            (false, false) => 10,
        };
        // One chunk per quadrant keeps arithmetic exact.
        for (x, y) in [(0, 0), (15, 0), (0, 15), (15, 15)] {
            let d = desc(0, x, y, weight(x, y));
            let n = p.place(&d, &cluster);
            cluster.place(d, n).unwrap();
        }
        let new = cluster.add_nodes(1, u64::MAX);
        let plan = p.scale_out(&cluster, &new);
        cluster.apply_rebalance(&plan).unwrap();
        let loads = cluster.loads();
        assert_eq!(loads[0], 50, "victim keeps exactly half");
        assert_eq!(loads[1], 50, "newcomer receives exactly half");
    }
}
