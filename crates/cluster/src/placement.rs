//! The cluster's placement index: every placed chunk's [`Slot`], and the
//! key → slot map that finds it.
//!
//! **The slot slab.** Every placed chunk has one slot in one
//! cluster-wide slab: [`Slot::Placed`] — the node holding its primary and
//! its record, descriptor and cells ([`Resident`]) — or [`Slot::Lost`]. A
//! node keeps no map of its own: which chunks it holds is read off the
//! slab, so a rebalance move or a crash promotion rewrites one `NodeId`
//! and never moves a record between maps. A slot freed by an eviction is
//! reused before the slab grows. Nothing iterates the slab in slot order:
//! every ordered walk sorts by key, so where a slot sits in the slab is
//! never observable.
//!
//! **The key map.** A per-array dense grid (flat row-major `Vec<u32>`)
//! makes insert and lookup O(1). Every dense grid is split into
//! **coordinate-range shards**: shard `s` owns the disjoint row-major
//! slab `[s << slab_shift, (s+1) << slab_shift)` of the slot vector, plus
//! its own spill map for everything that cannot live in a grid
//! (coordinates past the registered extents, unregistered arrays, and
//! array ids beyond the indexed range, which hash onto a shard). A grid
//! cell holds the chunk's slab slot. A spill map is ordered by key
//! (`(array, coords)`), so a box of one array can be sought in it.
//!
//! **The band walk.** [`PlacementIndex::band`] hands out every placed
//! chunk of one array inside a box of chunk positions, in ascending key
//! order, with no per-call buffer: the grid cells of the box, one
//! contiguous run of the inner dimension at a time (cut where a slab
//! ends, an empty slab skipped whole), merged with each shard's spilled
//! keys in the box. It costs the box ∩ the registered grid cells, plus
//! the spilled keys in the box and one seek per shard (and per run of
//! spilled keys it skips) — never every spilled key.
//!
//! Because a chunk's shard is a pure function of its key
//! ([`PlacementIndex::shard_of`]), a batch of placements can be
//! partitioned by shard and executed by one thread per shard group with
//! no synchronization: every key-map write lands in shard-owned state,
//! and the slab slots are reserved up front. The sequential API routes
//! through the same shards, so single-chunk and batched placement see one
//! authoritative map.

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

/// Highest `ArrayId` that gets its own indexed slot; stranger ids share
/// the sharded spill maps.
const ARRAY_ID_CAP: u32 = 4096;

/// Number of coordinate-range shards. A power of two so spill hashing is
/// a mask; also the upper bound on useful placement-phase parallelism.
pub(crate) const SHARD_COUNT: usize = 16;

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

/// Deterministic shard hash for keys with no dense slab.
#[inline]
fn spill_shard(key: &ChunkKey) -> usize {
    (key_hash(key) as usize) & (SHARD_COUNT - 1)
}

/// Registered dense-grid geometry for one array. Immutable after
/// registration, so the parallel phase shares it read-only.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DenseMeta {
    /// Chunk-count extents per dimension.
    extents: [i64; MAX_DIMS],
    ndims: u8,
    /// Shard `s` owns linear slots `[s << slab_shift, (s+1) << slab_shift)`.
    slab_shift: u32,
}

impl DenseMeta {
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

    /// Inverse of [`DenseMeta::linearize`] (reporting paths, and the band
    /// walk past an empty slab).
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

    #[inline]
    fn shard_of_lin(&self, lin: usize) -> usize {
        lin >> self.slab_shift
    }

    #[inline]
    fn slab_offset(&self, lin: usize) -> usize {
        lin & ((1usize << self.slab_shift) - 1)
    }
}

/// One shard's slab of an array's row-major grid.
#[derive(Debug, Clone)]
struct Slab {
    /// Record-slab slot per owned grid cell, or [`VACANT`].
    slots: Vec<u32>,
    /// Occupied entries in `slots`.
    resident: usize,
}

/// One coordinate-range shard: disjoint slabs of every registered dense
/// grid plus a spill map for sparse keys hashed here. A shard is the unit
/// of single-writer ownership during parallel batch placement.
#[derive(Debug, Clone, Default)]
pub(crate) struct PlacementShard {
    /// Slab per array id; present iff the array is registered dense and
    /// this shard's slot range intersects its volume.
    slabs: Vec<Option<Slab>>,
    /// Sparse entries hashed to this shard, in key order: key →
    /// record-slab slot.
    spill: BTreeMap<ChunkKey, u32>,
}

impl PlacementShard {
    fn slab_mut(&mut self, array: ArrayId) -> Option<&mut Slab> {
        self.slabs.get_mut(array.0 as usize).and_then(Option::as_mut)
    }

    /// Check-then-insert for batch placement: never overwrites, so a
    /// duplicate leaves the original untouched. `Err` reports the prior
    /// occupant's record slot. The caller guarantees this shard owns
    /// `key`.
    #[inline]
    pub(crate) fn try_insert(
        &mut self,
        dense: &[Option<DenseMeta>],
        key: ChunkKey,
        slot: u32,
    ) -> Result<(), u32> {
        if let Some(meta) = dense.get(key.array.0 as usize).and_then(Option::as_ref) {
            if let Some(lin) = meta.linearize(&key.coords) {
                let off = meta.slab_offset(lin);
                let slab = self.slab_mut(key.array).expect("dense meta implies a slab");
                let prev = slab.slots[off];
                if prev != VACANT {
                    return Err(prev);
                }
                slab.slots[off] = slot;
                slab.resident += 1;
                return Ok(());
            }
        }
        match self.spill.entry(key) {
            btree_map::Entry::Occupied(prior) => Err(*prior.get()),
            btree_map::Entry::Vacant(vacant) => {
                vacant.insert(slot);
                Ok(())
            }
        }
    }

    /// Clear `key`'s entry here; the record-slab slot it named, if any.
    fn remove(&mut self, dense: &[Option<DenseMeta>], key: &ChunkKey) -> Option<u32> {
        if let Some(meta) = dense.get(key.array.0 as usize).and_then(Option::as_ref) {
            if let Some(lin) = meta.linearize(&key.coords) {
                let off = meta.slab_offset(lin);
                let slab = self.slab_mut(key.array).expect("dense meta implies a slab");
                let prev = std::mem::replace(&mut slab.slots[off], VACANT);
                if prev == VACANT {
                    return None;
                }
                slab.resident -= 1;
                return Some(prev);
            }
        }
        self.spill.remove(key)
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

/// One shard's spilled keys of one array inside a box, in key order: its
/// spill map sought at the box's first corner and re-sought past every
/// run of keys outside the box ([`seek`]).
struct SpillRun<'a> {
    map: &'a BTreeMap<ChunkKey, u32>,
    run: btree_map::Range<'a, ChunkKey, u32>,
    array: ArrayId,
}

impl<'a> SpillRun<'a> {
    /// The next key in the box and its slab slot; `None` once there is
    /// none (not to be called again).
    fn next(&mut self, first: &ChunkCoords, last: &ChunkCoords) -> Option<(&'a ChunkCoords, u32)> {
        loop {
            let (key, &slot) = self.run.next()?;
            if key.array != self.array {
                return None;
            }
            match seek(first, last, &key.coords) {
                Ok(()) if key.coords.ndims() == first.ndims() => return Some((&key.coords, slot)),
                Ok(()) => {}
                Err(Some(next)) => self.run = self.map.range(ChunkKey::new(self.array, next)..),
                Err(None) => return None,
            }
        }
    }
}

/// Every shard's [`SpillRun`] over one box, merged into key order: each
/// shard's next key, and which of them is the least.
struct Spilled<'a> {
    runs: [SpillRun<'a>; SHARD_COUNT],
    heads: [Option<(&'a ChunkCoords, u32)>; SHARD_COUNT],
    /// The shard whose head is the least, while any is left.
    next: Option<usize>,
}

impl<'a> Spilled<'a> {
    fn open(
        shards: &'a [PlacementShard],
        array: ArrayId,
        first: &ChunkCoords,
        last: &ChunkCoords,
    ) -> Self {
        let mut runs: [SpillRun<'a>; SHARD_COUNT] = std::array::from_fn(|s| {
            let map = &shards[s].spill;
            SpillRun { map, run: map.range(ChunkKey::new(array, *first)..), array }
        });
        let heads = std::array::from_fn(|s| runs[s].next(first, last));
        let mut spilled = Spilled { runs, heads, next: None };
        spilled.next = spilled.least();
        spilled
    }

    fn least(&self) -> Option<usize> {
        let heads = self.heads.iter().enumerate();
        heads.filter_map(|(s, head)| Some((head.as_ref()?.0, s))).min().map(|(_, s)| s)
    }

    /// Hand `visit` every spilled key below `bound` (all that are left
    /// when `None`), in key order.
    fn drain<B>(
        &mut self,
        bound: Option<&ChunkCoords>,
        first: &ChunkCoords,
        last: &ChunkCoords,
        visit: &mut impl FnMut(&ChunkCoords, usize) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        while let Some(s) = self.next {
            let (coords, slot) = self.heads[s].expect("the least shard has a head");
            if bound.is_some_and(|b| coords > b) {
                break;
            }
            visit(coords, slot as usize)?;
            self.heads[s] = self.runs[s].next(first, last);
            self.next = self.least();
        }
        ControlFlow::Continue(())
    }
}

/// The authoritative chunk → slot map across all arrays, sharded by
/// coordinate range, and the slot slab it points into.
#[derive(Debug, Clone)]
pub(crate) struct PlacementIndex {
    /// Dense geometry per array id below [`ARRAY_ID_CAP`]; `None` for
    /// unregistered (sparse) arrays.
    dense: Vec<Option<DenseMeta>>,
    /// The coordinate-range shards ([`SHARD_COUNT`] of them).
    shards: Vec<PlacementShard>,
    /// The slot slab, [`PAGE`] slots a page.
    pages: Vec<Vec<Entry>>,
    /// Slots in the slab, free ones included.
    slots: usize,
    /// Slots no key names, reused (last freed first) before the slab grows.
    free: Vec<u32>,
    len: usize,
}

impl Default for PlacementIndex {
    fn default() -> Self {
        PlacementIndex {
            dense: Vec::new(),
            shards: (0..SHARD_COUNT).map(|_| PlacementShard::default()).collect(),
            pages: Vec::new(),
            slots: 0,
            free: Vec::new(),
            len: 0,
        }
    }
}

impl PlacementIndex {
    pub(crate) fn new() -> Self {
        PlacementIndex::default()
    }

    fn meta(&self, array: ArrayId) -> Option<&DenseMeta> {
        self.dense.get(array.0 as usize).and_then(Option::as_ref)
    }

    /// Register the chunk-grid extents of `array`, switching it to the
    /// sharded dense representation. Returns `true` when the slabs were
    /// installed (extent product within the allocation cap, id in range).
    /// Existing placements are migrated. Unbounded dimensions should pass
    /// their expected chunk-count hint; coordinates beyond it spill to
    /// the spill maps, so the hint affects only performance.
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
        if self.meta(array).is_some() {
            // Already dense: keep the existing slabs (re-registration with
            // different extents would have to re-linearize; no caller
            // needs that).
            return false;
        }
        let volume = volume as usize;
        let mut ext = [1i64; MAX_DIMS];
        ext[..extents.len()].copy_from_slice(extents);
        // Slab size: the smallest power of two that covers the volume in
        // at most SHARD_COUNT slabs (so every shard owns one contiguous
        // coordinate range and spill hashing stays a mask).
        let slab_shift = volume.div_ceil(SHARD_COUNT).next_power_of_two().trailing_zeros();
        let meta = DenseMeta { extents: ext, ndims: extents.len() as u8, slab_shift };
        let idx = array.0 as usize;
        if idx >= self.dense.len() {
            self.dense.resize(idx + 1, None);
        }
        self.dense[idx] = Some(meta);
        for (s, shard) in self.shards.iter_mut().enumerate() {
            let start = s << slab_shift;
            if start >= volume {
                break;
            }
            let len = (volume - start).min(1usize << slab_shift);
            if idx >= shard.slabs.len() {
                shard.slabs.resize(idx + 1, None);
            }
            shard.slabs[idx] = Some(Slab { slots: vec![VACANT; len], resident: 0 });
        }
        // Migrate sparse entries of this array out of the spill maps: the
        // in-extent ones move to their slab (and possibly to a different
        // shard, since sparse placement hashes while dense slices). Their
        // records stay in their slab slots.
        let mut migrate: Vec<(ChunkKey, u32)> = Vec::new();
        for shard in &mut self.shards {
            shard.spill.retain(|key, slot| {
                if key.array == array && meta.linearize(&key.coords).is_some() {
                    migrate.push((*key, *slot));
                    false
                } else {
                    true
                }
            });
        }
        for (key, slot) in migrate {
            let s = self.shard_of(&key);
            let (dense, shards) = self.parts_mut();
            let moved = shards[s].try_insert(dense, key, slot);
            debug_assert!(moved.is_ok(), "migration cannot collide");
        }
        true
    }

    /// The shard that owns `key`: its row-major slab for registered
    /// in-extent coordinates, a deterministic hash shard otherwise. Pure
    /// in `key`, so batches can be partitioned by shard up front.
    #[inline]
    pub(crate) fn shard_of(&self, key: &ChunkKey) -> usize {
        match self.meta(key.array).and_then(|m| m.linearize(&key.coords).map(|l| (m, l))) {
            Some((meta, lin)) => meta.shard_of_lin(lin),
            None => spill_shard(key),
        }
    }

    /// Split borrow for the parallel placement phase: read-only dense
    /// geometry plus single-writer access to each shard.
    pub(crate) fn parts_mut(&mut self) -> (&[Option<DenseMeta>], &mut [PlacementShard]) {
        (&self.dense, &mut self.shards)
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

    /// Reserve `n` slab slots for a batch whose key-map entries the shard
    /// workers write; [`PlacementIndex::settle`] fills them, and
    /// [`PlacementIndex::rollback`] hands them back.
    pub(crate) fn reserve(&mut self, n: usize) -> Vec<u32> {
        (0..n).map(|_| self.alloc()).collect()
    }

    /// Fill the reserved `slots`: `slots[i]` becomes `records[i]`'s, on
    /// `homes[i]`.
    pub(crate) fn settle(
        &mut self,
        slots: &[u32],
        homes: &[NodeId],
        records: impl Iterator<Item = Resident>,
    ) {
        for ((&slot, &home), record) in slots.iter().zip(homes).zip(records) {
            *self.entry_mut(slot as usize) = Some(Slot::Placed { home, record });
        }
        self.len += slots.len();
    }

    /// Undo the first `done` insertions of each listed shard's `bucket`
    /// (indices into `keys`) after a failed parallel batch, and release
    /// its reserved `slots`: the slab shrinks back over those at its end,
    /// the rest are free again.
    pub(crate) fn rollback(
        &mut self,
        keys: &[ChunkKey],
        buckets: &[Vec<u32>],
        progress: &[(usize, usize)],
        slots: &[u32],
    ) {
        for &(s, done) in progress {
            for &i in &buckets[s][..done] {
                let key = keys[i as usize];
                debug_assert_eq!(self.shard_of(&key), s);
                let (dense, shards) = self.parts_mut();
                shards[s].remove(dense, &key);
            }
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
    }

    /// The slab index of `key`'s slot, if it is placed.
    #[inline]
    pub(crate) fn slot(&self, key: &ChunkKey) -> Option<usize> {
        let slot = match self.meta(key.array).and_then(|m| m.linearize(&key.coords).map(|l| (m, l)))
        {
            Some((meta, lin)) => {
                let shard = &self.shards[meta.shard_of_lin(lin)];
                shard.slabs[key.array.0 as usize].as_ref()?.slots[meta.slab_offset(lin)]
            }
            None => *self.shards[spill_shard(key)].spill.get(key)?,
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

    /// File `key` in a new slot. Refuses a key already placed, changing
    /// nothing, and names the slab index of the slot it has.
    pub(crate) fn insert(&mut self, key: ChunkKey, filed: Slot) -> Result<usize, usize> {
        if let Some(slot) = self.slot(&key) {
            return Err(slot);
        }
        let slot = self.alloc();
        let s = self.shard_of(&key);
        let (dense, shards) = self.parts_mut();
        let vacant = shards[s].try_insert(dense, key, slot);
        debug_assert!(vacant.is_ok(), "the key was vacant");
        let at = slot as usize;
        *self.entry_mut(at) = Some(filed);
        self.len += 1;
        Ok(at)
    }

    /// Remove `key`'s slot entirely (an eviction): the grid cell goes
    /// back to [`VACANT`] or the spill entry leaves its map, the slab
    /// slot is freed, and the length decrements exactly — the inverse of
    /// [`PlacementIndex::insert`].
    pub(crate) fn remove(&mut self, key: &ChunkKey) -> Option<Slot> {
        let s = self.shard_of(key);
        let (dense, shards) = self.parts_mut();
        let slot = shards[s].remove(dense, key)?;
        self.free.push(slot);
        self.len -= 1;
        self.entry_mut(slot as usize).take()
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The records of the placed slots — on `node` only, when given — in
    /// ascending key order: a node's chunks, read off the slab. O(slab +
    /// m log m) for `m` matches; reorganization, crash, checkpoint and
    /// reporting paths, not the per-chunk hot path.
    pub(crate) fn placed(&self, node: Option<NodeId>) -> Vec<&Resident> {
        let mut placed: Vec<&Resident> = (self.pages.iter().flatten())
            .filter_map(|entry| match entry {
                Some(Slot::Placed { home, record }) if node.is_none_or(|n| *home == n) => {
                    Some(record)
                }
                Some(Slot::Placed { .. } | Slot::Lost { .. }) | None => None,
            })
            .collect();
        placed.sort_unstable_by_key(|record| record.descriptor().key);
        placed
    }

    /// Registered dense grids as `(array, extents)` pairs, in array-id
    /// order. Checkpointing serializes these so recovery can re-run
    /// [`PlacementIndex::register_dense`] before replaying placements —
    /// the slab geometry itself is derived, not stored.
    pub(crate) fn dense_registrations(&self) -> Vec<(ArrayId, Vec<i64>)> {
        self.dense
            .iter()
            .enumerate()
            .filter_map(|(idx, meta)| {
                let meta = meta.as_ref()?;
                Some((ArrayId(idx as u32), meta.extents[..meta.ndims as usize].to_vec()))
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
        let mut visit = |coords: &ChunkCoords, slot: usize| visit(coords, self.at(slot));
        let mut spilled = Spilled::open(&self.shards, array, first, last);
        let meta = self.meta(array).filter(|m| m.ndims as usize == n);
        if let Some(meta) = meta {
            self.walk_grid(array, meta, first, last, &mut spilled, &mut visit)?;
        }
        spilled.drain(None, first, last, &mut visit)
    }

    /// [`PlacementIndex::band`]'s grid part: the box clipped to the
    /// registered extents, row by row, each row's inner run read off the
    /// slabs it crosses; spilled keys below each hit go first.
    fn walk_grid<B>(
        &self,
        array: ArrayId,
        meta: &DenseMeta,
        first: &ChunkCoords,
        last: &ChunkCoords,
        spilled: &mut Spilled<'_>,
        visit: &mut impl FnMut(&ChunkCoords, usize) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        let n = meta.ndims as usize;
        let (mut low, mut high) = (*first, *last);
        for d in 0..n {
            (low[d], high[d]) = (low[d].max(0), high[d].min(meta.extents[d] - 1));
            if low[d] > high[d] {
                return ControlFlow::Continue(());
            }
        }
        let volume: usize = meta.extents[..n].iter().map(|&e| e as usize).product();
        let inner = n - 1;
        let mut pos = low;
        loop {
            let lin = meta.linearize(&pos).expect("the clipped box lies in the grid");
            let s = meta.shard_of_lin(lin);
            let slab = self.shards[s].slabs[array.0 as usize].as_ref();
            let slab = slab.expect("every grid cell has a slab");
            let start = s << meta.slab_shift;
            let end = start + slab.slots.len();
            if slab.resident == 0 {
                // Skip the slab whole: on at the first box position past it.
                if end >= volume {
                    return ControlFlow::Continue(());
                }
                let past = meta.delinearize(end);
                match seek(&low, &high, &past) {
                    Ok(()) => pos = past,
                    Err(Some(next)) => pos = next,
                    Err(None) => return ControlFlow::Continue(()),
                }
                continue;
            }
            // The rest of this row, cut where the slab ends.
            let row_end = lin + (high[inner] - pos[inner]) as usize;
            let piece_end = row_end.min(end - 1);
            let mut at = pos;
            for (i, &slot) in slab.slots[lin - start..=piece_end - start].iter().enumerate() {
                if slot == VACANT {
                    continue;
                }
                at[inner] = pos[inner] + i as i64;
                if spilled.next.is_some() {
                    spilled.drain(Some(&at), first, last, visit)?;
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

    /// Every `(key, node)` pair in ascending key order, the node being
    /// the one each slot names. O(n) over dense slabs plus O(s log s)
    /// over sparse entries; intended for reorganization and reporting,
    /// not the per-chunk hot path.
    pub(crate) fn collect_sorted(&self) -> Vec<(ChunkKey, NodeId)> {
        // Dense arrays in id order, slabs in shard order: ascending
        // row-major linear index is ascending lexicographic coordinates.
        let mut out: Vec<(ChunkKey, NodeId)> = Vec::with_capacity(self.len);
        for (idx, meta) in self.dense.iter().enumerate() {
            let Some(meta) = meta else { continue };
            for (s, shard) in self.shards.iter().enumerate() {
                let Some(Some(slab)) = shard.slabs.get(idx) else { continue };
                // Stop at the slab's last resident: its tail may be long.
                let mut left = slab.resident;
                let mut cur = meta.delinearize(s << meta.slab_shift);
                for &slot in &slab.slots {
                    if left == 0 {
                        break;
                    }
                    if slot != VACANT {
                        let key = ChunkKey::new(ArrayId(idx as u32), cur);
                        out.push((key, named(self.at(slot as usize))));
                        left -= 1;
                    }
                    // Odometer over the extents, row-major.
                    for d in (0..meta.ndims as usize).rev() {
                        cur[d] += 1;
                        if cur[d] < meta.extents[d] {
                            break;
                        }
                        cur[d] = 0;
                    }
                }
            }
        }
        // Sparse entries from every shard, sorted, then the two sorted
        // runs merged (a stable sort finds the runs and merges them).
        let dense = out.len();
        let spilled = self.shards.iter().flat_map(|s| s.spill.iter());
        out.extend(spilled.map(|(&k, &slot)| (k, named(self.at(slot as usize)))));
        if dense < out.len() {
            out[dense..].sort_unstable_by_key(|e| e.0);
            out.sort_by_key(|e| e.0);
        }
        out
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

    /// File `key` on `node` with a record.
    fn put(idx: &mut PlacementIndex, key: ChunkKey, node: u32) -> Result<usize, usize> {
        let record = Resident::new(ChunkDescriptor::new(key, 1, 1), None);
        idx.insert(key, Slot::Placed { home: NodeId(node), record })
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
        assert_eq!(idx.len(), 1);
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
        assert_eq!(idx.len(), 2);
    }

    #[test]
    fn dense_spills_beyond_extents() {
        let mut idx = PlacementIndex::new();
        assert!(idx.register_dense(ArrayId(1), &[4, 4]));
        put(&mut idx, key(1, &[100, 0]), 2).unwrap(); // beyond the hint
        put(&mut idx, key(1, &[-1, 0]), 4).unwrap(); // negative -> spill
        assert_eq!(idx.node(&key(1, &[100, 0])), Some(NodeId(2)));
        assert_eq!(idx.node(&key(1, &[-1, 0])), Some(NodeId(4)));
        assert_eq!(idx.len(), 2);
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
        assert_eq!(idx.len(), 1);
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
        assert_eq!(idx.len(), 0);
        // The vacated grid cell is reusable, and so is the slab slot.
        assert!(put(&mut idx, key(0, &[1, 1]), 5).is_ok());
        assert_eq!(idx.len(), 1);
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
        assert_eq!(idx.len(), 1, "still placed");
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
        idx.rollback(&keys, &vec![Vec::new(); SHARD_COUNT], &[], &slots);
        assert_eq!((idx.pages.len(), idx.slots), (1, PAGE), "the emptied page goes");
        assert!((0..PAGE as i64).all(|i| idx.node(&key(0, &[i])) == Some(NodeId(0))));
    }

    #[test]
    fn placed_slots_are_in_key_order_per_node() {
        let mut idx = PlacementIndex::new();
        idx.register_dense(ArrayId(1), &[4]);
        for (k, node) in
            [(key(1, &[3]), 0), (key(0, &[7]), 1), (key(1, &[0]), 0), (key(0, &[2]), 0)]
        {
            put(&mut idx, k, node).unwrap();
        }
        let keys = |node: Option<NodeId>| -> Vec<ChunkKey> {
            idx.placed(node).iter().map(|record| record.descriptor().key).collect()
        };
        assert_eq!(keys(Some(NodeId(0))), vec![key(0, &[2]), key(1, &[0]), key(1, &[3])]);
        assert_eq!(keys(Some(NodeId(1))), vec![key(0, &[7])]);
        assert_eq!(keys(None).len(), 4);
        assert!(keys(None).windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn collect_sorted_is_globally_ordered() {
        let mut idx = PlacementIndex::new();
        idx.register_dense(ArrayId(1), &[4, 4]);
        put(&mut idx, key(1, &[2, 1]), 0).unwrap();
        put(&mut idx, key(1, &[0, 3]), 1).unwrap();
        put(&mut idx, key(1, &[9, 9]), 2).unwrap(); // spill
        put(&mut idx, key(0, &[5]), 3).unwrap(); // sparse array
        put(&mut idx, key(u32::MAX - 1, &[1]), 4).unwrap(); // overflow id
        let all = idx.collect_sorted();
        assert_eq!(all.len(), idx.len());
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0), "unsorted: {all:?}");
    }

    #[test]
    fn shard_of_is_stable_and_partitions_dense_grids_by_range() {
        let mut idx = PlacementIndex::new();
        assert!(idx.register_dense(ArrayId(0), &[64, 64])); // 4096 slots
                                                            // Row-major slabs: consecutive linear indices share shards, and
                                                            // shards are visited in ascending order.
        let mut last = 0usize;
        for x in 0..64 {
            let s = idx.shard_of(&key(0, &[x, 0]));
            assert!(s >= last, "shards must ascend with row-major order");
            last = s;
        }
        assert_eq!(last, SHARD_COUNT - 1, "a full grid uses every shard");
        // Sparse keys hash deterministically.
        let k = key(7, &[3, 3]);
        assert_eq!(idx.shard_of(&k), idx.shard_of(&k));
        assert!(idx.shard_of(&k) < SHARD_COUNT);
    }

    /// One draw of the band property: a cluster whose arrays cover every
    /// way a key is filed — a registered 1–3 dimensional grid (cells in
    /// it, keys past its extents and below zero, keys of another arity),
    /// an unregistered array, an id at or past [`ARRAY_ID_CAP`] — with
    /// some chunks evicted again, walked over boxes near the grid, at the
    /// ends of `i64`, inverted and of the wrong arity. Each walk equals
    /// the box filter of `collect_sorted` (node included), and a walk
    /// that breaks after `m` chunks has handed out exactly its first `m`.
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
        let shard = idx.shard_of(&keys[0]);
        let buckets: Vec<Vec<u32>> = {
            let mut b = vec![Vec::new(); SHARD_COUNT];
            for (i, k) in keys.iter().enumerate() {
                b[idx.shard_of(k)].push(i as u32);
            }
            b
        };
        // All three land in the same slab shard (same row).
        assert!(buckets[shard].len() == 3);
        let slots = idx.reserve(keys.len());
        assert_eq!(slots[0] as usize, spare, "the free slot goes first");
        let (dense, shards) = idx.parts_mut();
        assert!(shards[shard].try_insert(dense, keys[0], slots[0]).is_ok());
        assert_eq!(shards[shard].try_insert(dense, keys[1], slots[1]), Err(held as u32));
        idx.rollback(&keys, &buckets, &[(shard, 1)], &slots);
        assert_eq!(idx.node(&keys[0]), None, "rolled back");
        assert_eq!(idx.node(&keys[1]), Some(NodeId(9)), "original survives");
        assert_eq!(idx.slots - idx.free.len(), idx.len(), "no slab slot leaked");
    }
}
