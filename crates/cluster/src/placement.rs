//! The cluster's placement index: every placed chunk's [`Slot`], and the
//! key → slot map that finds it.
//!
//! **The slot slab.** Every placed chunk has one slot in one
//! cluster-wide slab: [`Slot::Placed`] — the node holding its primary and
//! its record, descriptor and cells ([`Resident`]) — or [`Slot::Lost`]. A
//! node keeps no map of its own: which chunks it holds is read off the
//! slab, so a rebalance move or a crash promotion rewrites one `NodeId`
//! and never moves a record between maps. A slot freed by an eviction is
//! reused before the slab grows. Every walk that hands out chunks goes in
//! key order through the key map, so where a slot sits in the slab is
//! never observable.
//!
//! **The key map.** A registered array has a dense grid, which makes
//! insert and lookup O(1): its row-major cells, cut into at most
//! [`GRID_PIECES`] pieces, each hold a chunk's slab slot or [`VACANT`].
//! One spill map holds everything that cannot live in a grid:
//! coordinates past the registered extents or of another arity,
//! unregistered arrays, and array ids beyond the indexed range. The
//! spill map is ordered by key (`(array, coords)`), so a box of one array
//! can be sought in it.
//!
//! **The ordered walk.** One streaming walk hands out chunks in ascending
//! key order, with no per-call buffer and no sort: each grid's cells of a
//! box, one contiguous run of the inner dimension at a time (cut where a
//! piece ends, an empty piece skipped whole), merged with the spilled
//! keys in key order. [`PlacementIndex::band`] walks one array's box: it
//! costs the box ∩ the registered grid cells, plus the spilled keys in
//! the box and one seek (and one per run of spilled keys it skips) —
//! never every spilled key. [`PlacementIndex::walk`] walks every grid
//! whole and every spilled key, whatever its array or arity; every list
//! of the placed chunks is read off it.
//!
//! Placing files keys into the map one batch at a time: the batch
//! reserves its slab slots up front and files its keys in batch order
//! ([`PlacementIndex::file`]); a refused key rolls the batch back.

use crate::node::{NodeId, Resident};
use array_model::{ArrayId, ChunkCoords, ChunkKey, MAX_DIMS};
use std::collections::{btree_map, BTreeMap};
use std::ops::ControlFlow;

/// Vacant-slot sentinel in the dense grids (slab slots are indices into
/// vectors that never reach 4 billion entries).
const VACANT: u32 = u32::MAX;

/// Record-slab slots per page, as a power of two. A page is allocated once
/// and stays where it is, so the slab grows without copying a record and
/// without freeing a large block: a doubling `Vec` frees ever larger
/// buffers as it grows, and glibc answers each such free by raising its
/// mmap threshold, which moves every later large allocation — the cells
/// of the next store to load — from fresh mappings onto the heap. A page
/// (≈ 60 KB) stays below the initial threshold.
const PAGE_BITS: u32 = 9;
const PAGE: usize = 1 << PAGE_BITS;

/// A placed chunk's one slot in the placement index: where its cells
/// are, or that they are gone. [`crate::Cluster::home`] and
/// [`crate::Cluster::band`] hand it out by reference.
#[derive(Debug, Clone)]
pub enum Slot {
    /// The chunk's one record, on `home`, the node holding its primary.
    /// `home` serves reads: only a crash takes a node out of service
    /// while it holds records, and it promotes or loses every one first.
    Placed {
        /// The node holding the primary.
        home: NodeId,
        /// The chunk's descriptor and cells.
        record: Resident,
    },
    /// A crash took every copy of the chunk (`k = 1`, or more failures
    /// than `k − 1`). The key stays placed so that every operation that
    /// reaches it refuses typed — a read `NodeLost`, a write
    /// `ChunkLost` — and `wreck`, the node whose crash lost it, keeps
    /// naming it whatever becomes of that node. No serving copy, no
    /// replica holder, no ledger, and no book keeps its size: that went
    /// with the node.
    /// A view keeps the contribution of the cells it saw before the
    /// crash; taking them out would need the values that are gone.
    Lost {
        /// The node whose crash lost the chunk.
        wreck: NodeId,
    },
}

/// One slab slot: `None` while free (or reserved for a batch not yet
/// settled).
type Entry = Option<Slot>;

/// The node a slot names: its home, or its wreck.
fn named(slot: &Slot) -> NodeId {
    match slot {
        Slot::Placed { home, .. } => *home,
        Slot::Lost { wreck } => *wreck,
    }
}

/// Largest dense grid we will allocate, in slots (16M slots = 64 MB).
/// Bigger registrations silently stay sparse.
const DENSE_SLOT_CAP: u128 = 1 << 24;

/// Highest `ArrayId` that gets its own indexed slot; stranger ids live in
/// the spill map.
const ARRAY_ID_CAP: u32 = 4096;

/// Most pieces a dense grid is cut into. Each piece is its own row-major
/// run of cells, a power of two long (the last may be shorter), so
/// - a grid of up to 256 Ki cells needs no allocation of 128 KiB or more,
///   which glibc would map, and answer on free by raising its mmap
///   threshold (see [`PAGE`]);
/// - the ordered walk skips an empty piece whole.
const GRID_PIECES: usize = 16;

/// SplitMix64 finalizer, local so `cluster-sim` stays dependency-free.
/// Shared with replica routing and deterministic fault injection.
#[inline]
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Full 64-bit deterministic hash of a chunk key. Replica routing and
/// fault injection derive their per-chunk decisions from this, so every
/// secondary placement is a pure function of the key and the roster.
#[inline]
pub(crate) fn key_hash(key: &ChunkKey) -> u64 {
    let mut h = splitmix64(u64::from(key.array.0) ^ (key.coords.ndims() as u64) << 32);
    for &c in key.coords.as_slice() {
        h = splitmix64(h ^ c as u64);
    }
    h
}

/// One registered array's dense grid. Its geometry is fixed at
/// registration.
#[derive(Debug, Clone)]
struct Grid {
    /// Chunk-count extents per dimension.
    extents: [i64; MAX_DIMS],
    ndims: u8,
    /// Piece `p` holds the cells `[p << piece_shift, (p+1) << piece_shift)`
    /// of the row-major order.
    piece_shift: u32,
    pieces: Vec<Piece>,
}

/// A row-major run of a grid's cells.
#[derive(Debug, Clone)]
struct Piece {
    /// Record-slab slot per grid cell, or [`VACANT`].
    slots: Vec<u32>,
    /// Occupied entries in `slots`.
    resident: usize,
}

impl Grid {
    /// Row-major linearization of `coords`, or `None` when outside the
    /// registered extents.
    #[inline]
    fn linearize(&self, coords: &ChunkCoords) -> Option<usize> {
        if coords.ndims() != self.ndims as usize {
            return None;
        }
        let mut lin: usize = 0;
        for (d, &c) in coords.iter().enumerate() {
            let extent = self.extents[d];
            if c < 0 || c >= extent {
                return None;
            }
            lin = lin * extent as usize + c as usize;
        }
        Some(lin)
    }

    /// Inverse of [`Grid::linearize`] (reporting paths, and the band walk
    /// past an empty piece).
    fn delinearize(&self, mut lin: usize) -> ChunkCoords {
        let ndims = self.ndims as usize;
        let mut out = ChunkCoords::zeros(ndims);
        for d in (0..ndims).rev() {
            let extent = self.extents[d] as usize;
            out[d] = (lin % extent) as i64;
            lin /= extent;
        }
        out
    }

    /// The piece holding `coords`' cell and the cell's offset in it, or
    /// `None` outside the registered extents.
    #[inline]
    fn locate(&self, coords: &ChunkCoords) -> Option<(usize, usize)> {
        let lin = self.linearize(coords)?;
        Some((lin >> self.piece_shift, lin & ((1usize << self.piece_shift) - 1)))
    }

    /// The ordered walk's grid part, for `array`'s grid: the box clipped
    /// to the extents, row by row, each row's inner run read off the
    /// pieces it crosses; spilled keys below each hit go first.
    fn walk<B>(
        &self,
        array: ArrayId,
        first: &ChunkCoords,
        last: &ChunkCoords,
        spilled: &mut Spilled<'_>,
        visit: &mut impl FnMut(&ChunkKey, usize) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        let n = self.ndims as usize;
        let (mut low, mut high) = (*first, *last);
        for d in 0..n {
            (low[d], high[d]) = (low[d].max(0), high[d].min(self.extents[d] - 1));
            if low[d] > high[d] {
                return ControlFlow::Continue(());
            }
        }
        let volume: usize = self.extents[..n].iter().map(|&e| e as usize).product();
        let inner = n - 1;
        let mut pos = low;
        loop {
            let lin = self.linearize(&pos).expect("the clipped box lies in the grid");
            let p = lin >> self.piece_shift;
            let piece = &self.pieces[p];
            let start = p << self.piece_shift;
            let end = start + piece.slots.len();
            if piece.resident == 0 {
                // Skip the piece whole: on at the first box position past it.
                if end >= volume {
                    return ControlFlow::Continue(());
                }
                let past = self.delinearize(end);
                match seek(&low, &high, &past) {
                    Ok(()) => pos = past,
                    Err(Some(next)) => pos = next,
                    Err(None) => return ControlFlow::Continue(()),
                }
                continue;
            }
            // The rest of this row, cut where the piece ends.
            let row_end = lin + (high[inner] - pos[inner]) as usize;
            let piece_end = row_end.min(end - 1);
            let mut at = ChunkKey::new(array, pos);
            for (i, &slot) in piece.slots[lin - start..=piece_end - start].iter().enumerate() {
                if slot == VACANT {
                    continue;
                }
                at.coords[inner] = pos[inner] + i as i64;
                if spilled.head.is_some() {
                    spilled.drain(Some(&at), visit)?;
                }
                visit(&at, slot as usize)?;
            }
            if piece_end < row_end {
                pos[inner] += (piece_end + 1 - lin) as i64;
                continue;
            }
            // The next row: an odometer over the outer dimensions.
            pos[inner] = low[inner];
            let mut d = inner;
            loop {
                if d == 0 {
                    return ControlFlow::Continue(());
                }
                d -= 1;
                pos[d] += 1;
                if pos[d] <= high[d] {
                    break;
                }
                pos[d] = low[d];
            }
        }
    }
}

/// Where an ascending walk of the box `first..=last` goes from `coords`:
/// `Ok(())` when `coords` lies in the box on every dimension both have;
/// otherwise the smallest in-box position above `coords`
/// (`Err(Some(next))`), or `Err(None)` when no position above it lies in
/// the box. That position keeps `coords`' prefix up to the first
/// dimension that leaves the box, then takes the box's first corner —
/// after a carry into the nearest earlier dimension with room when
/// `coords` ran past the box rather than short of it.
fn seek(
    first: &ChunkCoords,
    last: &ChunkCoords,
    coords: &ChunkCoords,
) -> Result<(), Option<ChunkCoords>> {
    let dims = first.ndims().min(coords.ndims());
    let Some(d) = (0..dims).find(|&d| coords[d] < first[d] || coords[d] > last[d]) else {
        return Ok(());
    };
    let mut next = *first;
    let keep = if coords[d] < first[d] {
        d
    } else {
        let Some(carry) = (0..d).rev().find(|&j| coords[j] < last[j]) else {
            return Err(None);
        };
        next[carry] = coords[carry] + 1;
        carry
    };
    next.as_mut_slice()[..keep].copy_from_slice(&coords.as_slice()[..keep]);
    Err(Some(next))
}

/// The spilled keys in key order, each with its slab slot: every key, or
/// those of one array inside a box — the spill map sought at the box's
/// first corner and re-sought past every run of keys outside the box
/// ([`seek`]). The next key to hand out is held.
struct Spilled<'a> {
    map: &'a BTreeMap<ChunkKey, u32>,
    run: btree_map::Range<'a, ChunkKey, u32>,
    /// The array and the box `first..=last` the keys must lie in (and
    /// whose arity they must have); `None` for every key.
    within: Option<(ArrayId, ChunkCoords, ChunkCoords)>,
    /// The next key and its slab slot, while any is left.
    head: Option<(&'a ChunkKey, u32)>,
}

impl<'a> Spilled<'a> {
    fn open(
        map: &'a BTreeMap<ChunkKey, u32>,
        within: Option<(ArrayId, ChunkCoords, ChunkCoords)>,
    ) -> Self {
        let run = match within {
            Some((array, first, _)) => map.range(ChunkKey::new(array, first)..),
            None => map.range(..),
        };
        let mut spilled = Spilled { map, run, within, head: None };
        spilled.head = spilled.advance();
        spilled
    }

    /// The next key to hand out past the head; `None` once there is none
    /// (not to be called again).
    fn advance(&mut self) -> Option<(&'a ChunkKey, u32)> {
        loop {
            let (key, &slot) = self.run.next()?;
            let Some((array, first, last)) = &self.within else { return Some((key, slot)) };
            if key.array != *array {
                return None;
            }
            match seek(first, last, &key.coords) {
                Ok(()) if key.coords.ndims() == first.ndims() => return Some((key, slot)),
                Ok(()) => {}
                Err(Some(next)) => self.run = self.map.range(ChunkKey::new(*array, next)..),
                Err(None) => return None,
            }
        }
    }

    /// Hand `visit` every key left below `bound` (all that are left when
    /// `None`), in key order.
    fn drain<B>(
        &mut self,
        bound: Option<&ChunkKey>,
        visit: &mut impl FnMut(&ChunkKey, usize) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        while let Some((key, slot)) = self.head {
            if bound.is_some_and(|b| key > b) {
                break;
            }
            visit(key, slot as usize)?;
            self.head = self.advance();
        }
        ControlFlow::Continue(())
    }
}

/// The authoritative chunk → slot map across all arrays, and the slot
/// slab it points into.
#[derive(Debug, Clone, Default)]
pub(crate) struct PlacementIndex {
    /// The dense grid per array id below [`ARRAY_ID_CAP`]; `None` for
    /// unregistered (sparse) arrays.
    grids: Vec<Option<Grid>>,
    /// Every key without a grid cell, in key order: key → slab slot.
    spill: BTreeMap<ChunkKey, u32>,
    /// The slot slab, [`PAGE`] slots a page.
    pages: Vec<Vec<Entry>>,
    /// Slots in the slab, free ones included.
    slots: usize,
    /// Slots no key names, reused (last freed first) before the slab grows.
    free: Vec<u32>,
    /// The buffer [`PlacementIndex::reserve`] hands a batch its slots in,
    /// taken back when the batch settles or rolls back: once it has grown,
    /// placing a batch allocates nothing.
    batch: Vec<u32>,
}

impl PlacementIndex {
    pub(crate) fn new() -> Self {
        PlacementIndex::default()
    }

    fn grid(&self, array: ArrayId) -> Option<&Grid> {
        self.grids.get(array.0 as usize).and_then(Option::as_ref)
    }

    /// Register the chunk-grid extents of `array`, giving it a dense
    /// grid. Returns `true` when the grid was installed (extent product
    /// within the allocation cap, id in range). Existing placements are
    /// migrated. Unbounded dimensions should pass their expected
    /// chunk-count hint; coordinates beyond it stay in the spill map, so
    /// the hint affects only performance.
    pub(crate) fn register_dense(&mut self, array: ArrayId, extents: &[i64]) -> bool {
        assert!(
            !extents.is_empty() && extents.len() <= MAX_DIMS,
            "extents must cover 1..={MAX_DIMS} dimensions"
        );
        assert!(extents.iter().all(|&e| e >= 1), "extents must be positive");
        if array.0 >= ARRAY_ID_CAP {
            return false;
        }
        let volume: u128 = extents.iter().map(|&e| e as u128).product();
        if volume > DENSE_SLOT_CAP {
            return false;
        }
        if self.grid(array).is_some() {
            // Already dense: keep the existing grid (re-registration with
            // different extents would have to re-linearize; no caller
            // needs that).
            return false;
        }
        let volume = volume as usize;
        let mut ext = [1i64; MAX_DIMS];
        ext[..extents.len()].copy_from_slice(extents);
        // Piece length: the smallest power of two that covers the volume
        // in at most GRID_PIECES pieces.
        let piece_shift = volume.div_ceil(GRID_PIECES).next_power_of_two().trailing_zeros();
        let pieces = (0..volume).step_by(1 << piece_shift);
        let pieces = pieces.map(|start| {
            let len = (volume - start).min(1 << piece_shift);
            Piece { slots: vec![VACANT; len], resident: 0 }
        });
        let ndims = extents.len() as u8;
        let mut grid = Grid { extents: ext, ndims, piece_shift, pieces: pieces.collect() };
        // Move this array's in-extent keys out of the spill map into the
        // grid. Their records stay in their slab slots.
        self.spill.retain(|key, &mut slot| {
            let cell = (key.array == array).then(|| grid.locate(&key.coords)).flatten();
            let Some((p, off)) = cell else { return true };
            grid.pieces[p].slots[off] = slot;
            grid.pieces[p].resident += 1;
            false
        });
        let idx = array.0 as usize;
        if idx >= self.grids.len() {
            self.grids.resize(idx + 1, None);
        }
        self.grids[idx] = Some(grid);
        true
    }

    /// File `key` under slab slot `slot`: in its grid cell, or in the
    /// spill map. Never overwrites: a key already filed keeps its entry,
    /// and `Err` names that entry's slot.
    pub(crate) fn file(&mut self, key: ChunkKey, slot: u32) -> Result<(), u32> {
        if let Some((piece, off)) = self.cell_mut(&key) {
            let prev = piece.slots[off];
            if prev != VACANT {
                return Err(prev);
            }
            piece.slots[off] = slot;
            piece.resident += 1;
            return Ok(());
        }
        match self.spill.entry(key) {
            btree_map::Entry::Occupied(prior) => Err(*prior.get()),
            btree_map::Entry::Vacant(vacant) => {
                vacant.insert(slot);
                Ok(())
            }
        }
    }

    /// Clear `key`'s entry; the slab slot it named, if any. The slot
    /// itself is left as it is.
    fn unfile(&mut self, key: &ChunkKey) -> Option<u32> {
        let Some((piece, off)) = self.cell_mut(key) else {
            return self.spill.remove(key);
        };
        let prev = std::mem::replace(&mut piece.slots[off], VACANT);
        if prev == VACANT {
            return None;
        }
        piece.resident -= 1;
        Some(prev)
    }

    /// The grid piece holding `key`'s cell and the cell's offset in it,
    /// or `None` when `key` has no grid cell.
    #[inline]
    fn cell_mut(&mut self, key: &ChunkKey) -> Option<(&mut Piece, usize)> {
        let grid = self.grids.get_mut(key.array.0 as usize)?.as_mut()?;
        let (p, off) = grid.locate(&key.coords)?;
        Some((&mut grid.pieces[p], off))
    }

    #[inline]
    fn entry_mut(&mut self, slot: usize) -> &mut Entry {
        &mut self.pages[slot >> PAGE_BITS][slot & (PAGE - 1)]
    }

    /// The slot at slab index `slot`, which a key names.
    #[inline]
    pub(crate) fn at(&self, slot: usize) -> &Slot {
        let entry = self.pages[slot >> PAGE_BITS][slot & (PAGE - 1)].as_ref();
        entry.expect("a key names a filled slot")
    }

    /// [`PlacementIndex::at`], to write through.
    pub(crate) fn at_mut(&mut self, slot: usize) -> &mut Slot {
        self.entry_mut(slot).as_mut().expect("a key names a filled slot")
    }

    /// Take a free slab slot, or grow the slab by one (by a page when the
    /// last is full).
    fn alloc(&mut self) -> u32 {
        if let Some(slot) = self.free.pop() {
            return slot;
        }
        let slot = u32::try_from(self.slots).ok().filter(|&s| s != VACANT);
        let slot = slot.expect("fewer than 2^32 - 1 placed chunks");
        if self.slots.is_multiple_of(PAGE) {
            self.pages.push(Vec::with_capacity(PAGE));
        }
        self.pages.last_mut().expect("a page with room").push(None);
        self.slots += 1;
        slot
    }

    /// Reserve `n` slab slots for a batch, in batch order, whose keys are
    /// then filed under them ([`PlacementIndex::file`]);
    /// [`PlacementIndex::settle`] fills them, and
    /// [`PlacementIndex::rollback`] hands them back.
    pub(crate) fn reserve(&mut self, n: usize) -> Vec<u32> {
        let mut slots = std::mem::take(&mut self.batch);
        slots.clear();
        slots.extend((0..n).map(|_| self.alloc()));
        slots
    }

    /// Fill the reserved `slots`, whose keys are filed: `slots[i]`
    /// becomes `filled[i]`.
    pub(crate) fn settle(&mut self, slots: Vec<u32>, filled: impl Iterator<Item = Slot>) {
        for (&slot, filled) in slots.iter().zip(filled) {
            *self.entry_mut(slot as usize) = Some(filled);
        }
        self.batch = slots;
    }

    /// Undo a refused batch: unfile `filed`, the keys it filed before the
    /// refusal, and release its reserved `slots`: the slab shrinks back
    /// over those at its end, the rest are free again.
    pub(crate) fn rollback<'k>(
        &mut self,
        filed: impl IntoIterator<Item = &'k ChunkKey>,
        slots: Vec<u32>,
    ) {
        for key in filed {
            self.unfile(key);
        }
        for &slot in slots.iter().rev() {
            if slot as usize + 1 != self.slots {
                self.free.push(slot);
                continue;
            }
            self.slots -= 1;
            if let Some(page) = self.pages.last_mut() {
                page.pop();
                if page.is_empty() {
                    self.pages.pop();
                }
            }
        }
        self.batch = slots;
    }

    /// The slab index of `key`'s slot, if it is placed.
    #[inline]
    pub(crate) fn slot(&self, key: &ChunkKey) -> Option<usize> {
        let cell = self.grid(key.array).and_then(|grid| {
            let (p, off) = grid.locate(&key.coords)?;
            Some(grid.pieces[p].slots[off])
        });
        let slot = match cell {
            Some(slot) => slot,
            None => *self.spill.get(key)?,
        };
        (slot != VACANT).then_some(slot as usize)
    }

    /// `key`'s slot, if it is placed.
    #[inline]
    pub(crate) fn get(&self, key: &ChunkKey) -> Option<&Slot> {
        self.slot(key).map(|slot| self.at(slot))
    }

    /// The node `key`'s slot names — its home, or its wreck — if placed.
    pub(crate) fn node(&self, key: &ChunkKey) -> Option<NodeId> {
        self.get(key).map(named)
    }

    /// Point slot `slot`, placed, at a new home (a rebalance move, a
    /// promotion).
    pub(crate) fn rehome(&mut self, slot: usize, to: NodeId) {
        match self.at_mut(slot) {
            Slot::Placed { home, .. } => *home = to,
            Slot::Lost { .. } => debug_assert!(false, "a lost chunk has no record to move"),
        }
    }

    /// Remove `key`'s slot entirely (an eviction): the grid cell goes
    /// back to [`VACANT`] or the spill entry leaves its map, and the slab
    /// slot is freed — the inverse of filing and settling it.
    pub(crate) fn remove(&mut self, key: &ChunkKey) -> Option<Slot> {
        let slot = self.unfile(key)?;
        self.free.push(slot);
        self.entry_mut(slot as usize).take()
    }

    /// The records of the placed slots — on `node` only, when given — in
    /// ascending key order: a node's chunks, read off the ordered walk.
    /// O(placed chunks); reorganization, crash, checkpoint and reporting
    /// paths, not the per-chunk hot path.
    pub(crate) fn placed(&self, node: Option<NodeId>) -> Vec<&Resident> {
        self.collect(|_, slot| match slot {
            Slot::Placed { home, record } if node.is_none_or(|n| *home == n) => Some(record),
            Slot::Placed { .. } | Slot::Lost { .. } => None,
        })
    }

    /// Registered dense grids as `(array, extents)` pairs, in array-id
    /// order. Checkpointing serializes these so recovery can re-run
    /// [`PlacementIndex::register_dense`] before replaying placements —
    /// the grid geometry itself is derived, not stored.
    pub(crate) fn dense_registrations(&self) -> Vec<(ArrayId, Vec<i64>)> {
        self.grids
            .iter()
            .enumerate()
            .filter_map(|(idx, grid)| {
                let grid = grid.as_ref()?;
                Some((ArrayId(idx as u32), grid.extents[..grid.ndims as usize].to_vec()))
            })
            .collect()
    }

    /// Every placed chunk of `array` whose coordinates lie in the box
    /// `first..=last` (and have its arity), in ascending key order: its
    /// coordinates and slot, handed to `visit` until it breaks.
    /// Streams — nothing is collected — at the cost the module docs give.
    pub(crate) fn band<'s, B>(
        &'s self,
        array: ArrayId,
        first: &ChunkCoords,
        last: &ChunkCoords,
        mut visit: impl FnMut(&ChunkCoords, &'s Slot) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        let n = first.ndims();
        if last.ndims() != n || (0..n).any(|d| first[d] > last[d]) {
            return ControlFlow::Continue(());
        }
        let mut visit = |key: &ChunkKey, slot: usize| visit(&key.coords, self.at(slot));
        let mut spilled = Spilled::open(&self.spill, Some((array, *first, *last)));
        if let Some(grid) = self.grid(array).filter(|g| g.ndims as usize == n) {
            grid.walk(array, first, last, &mut spilled, &mut visit)?;
        }
        spilled.drain(None, &mut visit)
    }

    /// Every placed chunk, in ascending key order: its key and slot,
    /// handed to `visit` until it breaks. The grids whole, in array-id
    /// order, merged with the whole spill map — keys past a grid's
    /// extents or of another arity than its array's included. Streams;
    /// O(the registered grid cells + the placed chunks).
    pub(crate) fn walk<'s, B>(
        &'s self,
        mut visit: impl FnMut(&ChunkKey, &'s Slot) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        let mut visit = |key: &ChunkKey, slot: usize| visit(key, self.at(slot));
        let mut spilled = Spilled::open(&self.spill, None);
        for (idx, grid) in self.grids.iter().enumerate() {
            let Some(grid) = grid else { continue };
            // The box of the whole grid: from its first cell to its last.
            let n = grid.ndims as usize;
            let mut last = ChunkCoords::from_slice(&grid.extents[..n]);
            last.as_mut_slice().iter_mut().for_each(|e| *e -= 1);
            grid.walk(
                ArrayId(idx as u32),
                &ChunkCoords::zeros(n),
                &last,
                &mut spilled,
                &mut visit,
            )?;
        }
        spilled.drain(None, &mut visit)
    }

    /// What `pick` makes of each placed chunk, in ascending key order
    /// ([`PlacementIndex::walk`]).
    fn collect<'s, T>(&'s self, mut pick: impl FnMut(&ChunkKey, &'s Slot) -> Option<T>) -> Vec<T> {
        // Room for every placed chunk: each fills one slab slot.
        let mut out = Vec::with_capacity(self.slots - self.free.len());
        let _ = self.walk(|key, slot| {
            out.extend(pick(key, slot));
            ControlFlow::<()>::Continue(())
        });
        out
    }

    /// Every `(key, node)` pair in ascending key order, the node being
    /// the one each slot names ([`PlacementIndex::walk`]).
    pub(crate) fn entries(&self) -> Vec<(ChunkKey, NodeId)> {
        self.collect(|key, slot| Some((*key, named(slot))))
    }

    /// The home of every placed slot, in slab order.
    pub(crate) fn homes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.pages.iter().flatten().filter_map(|entry| match entry {
            Some(Slot::Placed { home, .. }) => Some(*home),
            Some(Slot::Lost { .. }) | None => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use array_model::ChunkDescriptor;

    fn key(array: u32, coords: &[i64]) -> ChunkKey {
        ChunkKey::new(ArrayId(array), ChunkCoords::new(coords))
    }

    /// How many keys are placed, by the ordered walk.
    fn len(idx: &PlacementIndex) -> usize {
        idx.entries().len()
    }

    /// File `key` on `node` with a record, as a batch of one: its slab
    /// slot, or the slot of the key already placed (changing nothing).
    fn put(idx: &mut PlacementIndex, key: ChunkKey, node: u32) -> Result<usize, usize> {
        let slots = idx.reserve(1);
        if let Err(held) = idx.file(key, slots[0]) {
            idx.rollback(&[], slots);
            return Err(held as usize);
        }
        let (slot, record) =
            (slots[0] as usize, Resident::new(ChunkDescriptor::new(key, 1, 1), None));
        idx.settle(slots, std::iter::once(Slot::Placed { home: NodeId(node), record }));
        Ok(slot)
    }

    /// The one slot fits where the old `(NodeId, Option<Resident>)` pair
    /// did, so a page stays below glibc's initial mmap threshold.
    #[test]
    fn a_slot_is_no_larger_than_the_pair_it_replaced() {
        assert!(std::mem::size_of::<Entry>() <= 120);
        assert!(std::mem::size_of::<Entry>() * PAGE <= 60 * 1024);
    }

    #[test]
    fn sparse_roundtrip() {
        let mut idx = PlacementIndex::new();
        assert_eq!(idx.node(&key(0, &[1, 2])), None);
        assert!(put(&mut idx, key(0, &[1, 2]), 3).is_ok());
        assert_eq!(idx.node(&key(0, &[1, 2])), Some(NodeId(3)));
        let slot = idx.slot(&key(0, &[1, 2]));
        assert_eq!(put(&mut idx, key(0, &[1, 2]), 5).err(), slot, "refused, unchanged");
        assert_eq!(idx.node(&key(0, &[1, 2])), Some(NodeId(3)));
        assert_eq!(len(&idx), 1);
    }

    #[test]
    fn dense_registration_migrates_existing_entries() {
        let mut idx = PlacementIndex::new();
        let slot = put(&mut idx, key(0, &[1, 1]), 7).unwrap();
        assert!(idx.register_dense(ArrayId(0), &[4, 4]));
        assert_eq!(idx.node(&key(0, &[1, 1])), Some(NodeId(7)));
        assert_eq!(idx.slot(&key(0, &[1, 1])), Some(slot), "the record stays in its slot");
        put(&mut idx, key(0, &[3, 2]), 1).unwrap();
        assert_eq!(idx.node(&key(0, &[3, 2])), Some(NodeId(1)));
        assert_eq!(len(&idx), 2);
    }

    #[test]
    fn dense_spills_beyond_extents() {
        let mut idx = PlacementIndex::new();
        assert!(idx.register_dense(ArrayId(1), &[4, 4]));
        put(&mut idx, key(1, &[100, 0]), 2).unwrap(); // beyond the hint
        put(&mut idx, key(1, &[-1, 0]), 4).unwrap(); // negative -> spill
        assert_eq!(idx.node(&key(1, &[100, 0])), Some(NodeId(2)));
        assert_eq!(idx.node(&key(1, &[-1, 0])), Some(NodeId(4)));
        assert_eq!(len(&idx), 2);
    }

    #[test]
    fn oversized_grids_stay_sparse() {
        let mut idx = PlacementIndex::new();
        assert!(!idx.register_dense(ArrayId(0), &[1 << 20, 1 << 20]));
        put(&mut idx, key(0, &[9, 9]), 0).unwrap();
        assert_eq!(idx.node(&key(0, &[9, 9])), Some(NodeId(0)));
    }

    #[test]
    fn huge_array_ids_use_the_spill_maps() {
        let mut idx = PlacementIndex::new();
        let k = key(u32::MAX - 1, &[0]);
        assert!(!idx.register_dense(ArrayId(u32::MAX - 1), &[8]));
        assert!(put(&mut idx, k, 1).is_ok());
        assert_eq!(idx.node(&k), Some(NodeId(1)));
        assert_eq!(len(&idx), 1);
    }

    #[test]
    fn remove_clears_dense_and_sparse_entries() {
        let mut idx = PlacementIndex::new();
        idx.register_dense(ArrayId(0), &[4, 4]);
        put(&mut idx, key(0, &[1, 1]), 2).unwrap();
        put(&mut idx, key(0, &[9, 9]), 3).unwrap(); // spill
        let gone = idx.remove(&key(0, &[1, 1]));
        assert!(matches!(gone, Some(Slot::Placed { home: NodeId(2), record })
                if record.descriptor().key == key(0, &[1, 1])));
        assert_eq!(idx.node(&key(0, &[1, 1])), None);
        assert!(idx.remove(&key(0, &[1, 1])).is_none(), "double remove is a no-op");
        assert_eq!(idx.remove(&key(0, &[9, 9])).as_ref().map(named), Some(NodeId(3)));
        assert_eq!(len(&idx), 0);
        // The vacated grid cell is reusable, and so is the slab slot.
        assert!(put(&mut idx, key(0, &[1, 1]), 5).is_ok());
        assert_eq!(len(&idx), 1);
        assert_eq!(idx.slots, 2, "the slab did not grow");
        assert!(idx.slot(&key(0, &[1, 1])).is_some_and(|s| s < 2));
    }

    #[test]
    fn a_lost_record_keeps_its_entry() {
        let mut idx = PlacementIndex::new();
        let slot = put(&mut idx, key(0, &[1]), 4).unwrap();
        *idx.at_mut(slot) = Slot::Lost { wreck: NodeId(4) };
        assert!(matches!(idx.get(&key(0, &[1])), Some(Slot::Lost { wreck: NodeId(4) })));
        assert!(idx.placed(Some(NodeId(4))).is_empty(), "no record, not the node's");
        assert!(idx.placed(None).is_empty());
        assert_eq!(len(&idx), 1, "still placed");
    }

    #[test]
    fn the_slab_grows_a_page_at_a_time_and_shrinks_back() {
        let mut idx = PlacementIndex::new();
        for i in 0..PAGE as i64 {
            put(&mut idx, key(0, &[i]), 0).unwrap();
        }
        assert_eq!((idx.pages.len(), idx.slots), (1, PAGE));
        let keys: Vec<ChunkKey> = (0..3).map(|i| key(1, &[i])).collect();
        let slots = idx.reserve(keys.len());
        assert_eq!((idx.pages.len(), idx.slots), (2, PAGE + 3));
        idx.rollback(&[], slots);
        assert_eq!((idx.pages.len(), idx.slots), (1, PAGE), "the emptied page goes");
        assert!((0..PAGE as i64).all(|i| idx.node(&key(0, &[i])) == Some(NodeId(0))));
    }

    #[test]
    fn placed_slots_are_in_key_order_per_node() {
        let mut idx = PlacementIndex::new();
        idx.register_dense(ArrayId(1), &[4]);
        for (k, node) in [
            (key(1, &[3]), 0),
            (key(0, &[7]), 1),
            (key(1, &[0]), 0),
            (key(0, &[2]), 0),
            (key(1, &[0, 5]), 0), // another arity: between [0] and [3]
        ] {
            put(&mut idx, k, node).unwrap();
        }
        let keys = |node: Option<NodeId>| -> Vec<ChunkKey> {
            idx.placed(node).iter().map(|record| record.descriptor().key).collect()
        };
        let on_0 = vec![key(0, &[2]), key(1, &[0]), key(1, &[0, 5]), key(1, &[3])];
        assert_eq!(keys(Some(NodeId(0))), on_0);
        assert_eq!(keys(Some(NodeId(1))), vec![key(0, &[7])]);
        assert_eq!(keys(None).len(), 5);
        assert!(keys(None).windows(2).all(|w| w[0] < w[1]));
    }

    /// The ordered walk merges the grid with the spill map in key order:
    /// spilled keys of the grid's array (past its extents, below zero, of
    /// another arity) fall between its cells, and other arrays' keys
    /// before and after them.
    #[test]
    fn collect_sorted_is_globally_ordered() {
        let mut idx = PlacementIndex::new();
        idx.register_dense(ArrayId(1), &[4, 4]);
        put(&mut idx, key(1, &[2, 1]), 0).unwrap();
        put(&mut idx, key(1, &[0, 3]), 1).unwrap();
        put(&mut idx, key(1, &[9, 9]), 2).unwrap(); // spill
        put(&mut idx, key(1, &[1]), 2).unwrap(); // another arity: spill
        put(&mut idx, key(1, &[2, 1, 0]), 2).unwrap(); // another arity: spill
        put(&mut idx, key(1, &[-1, 2]), 2).unwrap(); // below zero: spill
        put(&mut idx, key(0, &[5]), 3).unwrap(); // sparse array
        put(&mut idx, key(u32::MAX - 1, &[1]), 4).unwrap(); // overflow id
        let all = idx.entries();
        let keys: Vec<ChunkKey> = all.iter().map(|e| e.0).collect();
        let want = [
            key(0, &[5]),
            key(1, &[-1, 2]),
            key(1, &[0, 3]),
            key(1, &[1]),
            key(1, &[2, 1]),
            key(1, &[2, 1, 0]),
            key(1, &[9, 9]),
            key(u32::MAX - 1, &[1]),
        ];
        assert_eq!(keys, want, "unsorted: {all:?}");
    }

    /// One draw of the band property: a cluster whose arrays cover every
    /// way a key is filed — a registered 1–3 dimensional grid (cells in
    /// it, keys past its extents and below zero, keys of another arity),
    /// an unregistered array, an id at or past [`ARRAY_ID_CAP`] — with
    /// some chunks evicted again, walked over boxes near the grid, at the
    /// ends of `i64`, inverted and of the wrong arity. Each band equals
    /// the box filter of the whole ordered walk (node included), and a
    /// band that breaks after `m` chunks has handed out exactly its first
    /// `m`; the whole walk is in strictly ascending key order.
    /// `scale` multiplies the chunk and box counts.
    fn check_band(seed: u64, scale: u64) {
        use crate::{Cluster, CostModel};
        use array_model::ChunkDescriptor;
        let mut state = seed;
        let mut below = |n: u64| {
            state = splitmix64(state);
            (state % n) as i64
        };
        let grid_dims = 1 + below(3) as usize;
        let extents: Vec<i64> = (0..grid_dims).map(|_| 1 + below(7)).collect();
        let big = ARRAY_ID_CAP + below(3) as u32;
        let arrays = [(0, grid_dims), (1, 1 + below(3) as usize), (big, 2)];
        let mut cluster = Cluster::new(3, u64::MAX, CostModel::default()).unwrap();
        assert!(cluster.register_array(ArrayId(0), &extents));
        assert!(!cluster.register_array(ArrayId(big), &[4, 4]), "past the indexed ids");
        // A position near the grid, or at an end of the type.
        let coord = |below: &mut dyn FnMut(u64) -> i64, d: usize| match below(10) {
            0 => i64::MIN + below(2),
            1 => i64::MAX - below(2),
            2 => -1 - below(2),
            _ => below(extents.get(d).map_or(6, |&e| e as u64 + 2)),
        };
        let mut placed = Vec::new();
        for _ in 0..below(40 * scale) {
            let (id, mut n) = arrays[below(3) as usize];
            if below(12) == 0 {
                n = 1 + (n % 3); // another arity under the same id
            }
            let coords: Vec<i64> = (0..n).map(|d| coord(&mut below, d)).collect();
            let key = ChunkKey::new(ArrayId(id), ChunkCoords::new(coords));
            let node = NodeId(below(3) as u32);
            if cluster.place(ChunkDescriptor::new(key, 1 + below(9) as u64, 1), node).is_ok() {
                placed.push(key);
            }
        }
        for _ in 0..below(1 + placed.len() as u64 / 2) {
            let key = placed.swap_remove(below(placed.len() as u64) as usize);
            cluster.evict_chunk(&key).unwrap();
        }
        let all = cluster.placements().collect::<Vec<_>>();
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0), "the walk is out of order");
        for _ in 0..8 * scale {
            let (id, mut n) = arrays[below(3) as usize];
            let id = if below(10) == 0 { 2 } else { id }; // nothing placed
            if below(10) == 0 {
                n = 1 + (n % 3);
            }
            let (mut first, mut last) = (ChunkCoords::zeros(n), ChunkCoords::zeros(n));
            for d in 0..n {
                let (a, b) = (coord(&mut below, d), coord(&mut below, d));
                // One corner pair in eight stays inverted.
                (first[d], last[d]) =
                    if below(8) == 0 { (a.max(b), a.min(b)) } else { (a.min(b), a.max(b)) };
            }
            let inside = |c: &ChunkCoords| {
                c.ndims() == n && (0..n).all(|d| first[d] <= c[d] && c[d] <= last[d])
            };
            let expect: Vec<(ChunkCoords, NodeId)> = all
                .iter()
                .filter(|(key, _)| key.array == ArrayId(id) && inside(&key.coords))
                .map(|&(key, node)| (key.coords, node))
                .collect();
            let mut got = Vec::new();
            let flow = cluster.band(ArrayId(id), &first, &last, |coords, slot| {
                let Slot::Placed { home, record } = slot else {
                    panic!("no crash, so no chunk is lost: {slot:?}")
                };
                assert_eq!(record.descriptor().key, ChunkKey::new(ArrayId(id), *coords));
                got.push((*coords, *home));
                ControlFlow::<()>::Continue(())
            });
            assert!(flow.is_continue());
            assert_eq!(got, expect, "array {id} over {first:?}..={last:?} on {extents:?}");
            let stop = below(1 + expect.len() as u64) as usize;
            let mut head = Vec::new();
            let flow = cluster.band(ArrayId(id), &first, &last, |coords, _| {
                if head.len() == stop {
                    return ControlFlow::Break(head.len());
                }
                head.push(*coords);
                ControlFlow::Continue(())
            });
            let stopped = (stop < expect.len()).then_some(stop);
            assert_eq!(flow.break_value(), stopped);
            assert!(head.iter().eq(expect[..stop].iter().map(|(c, _)| c)));
        }
    }

    proptest::proptest! {
        #[test]
        fn band_equals_the_box_filter_of_collect_sorted(seed in proptest::prelude::any::<u64>()) {
            check_band(seed, 1);
        }
    }

    #[test]
    #[ignore = "release-scale leg: cargo test --release -p cluster-sim -p query-engine --lib -- --ignored band_smoke"]
    fn band_smoke() {
        for seed in 0..20_000 {
            check_band(seed, 8);
        }
    }

    #[test]
    fn try_insert_reports_duplicates_and_rollback_restores() {
        let mut idx = PlacementIndex::new();
        assert!(idx.register_dense(ArrayId(0), &[8, 8]));
        let held = put(&mut idx, key(0, &[1, 1]), 9).unwrap();
        let spare = put(&mut idx, key(0, &[7, 7]), 9).unwrap();
        idx.remove(&key(0, &[7, 7])); // one free slot to reuse
        let keys = [key(0, &[1, 2]), key(0, &[1, 1]), key(0, &[1, 3])];
        let slots = idx.reserve(keys.len());
        assert_eq!(slots[0] as usize, spare, "the free slot goes first");
        assert!(idx.file(keys[0], slots[0]).is_ok());
        assert_eq!(idx.file(keys[1], slots[1]), Err(held as u32));
        idx.rollback(&keys[..1], slots);
        assert_eq!(idx.node(&keys[0]), None, "rolled back");
        assert_eq!(idx.node(&keys[1]), Some(NodeId(9)), "original survives");
        assert_eq!(idx.slots - idx.free.len(), len(&idx), "no slab slot leaked");
    }
}
