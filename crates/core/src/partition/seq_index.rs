//! Dense per-array **sequence grids** for the arrival-order partitioners.
//!
//! Append and Round Robin both key their partitioning tables by insert
//! sequence number and must map a chunk key back to its sequence on every
//! lookup and scale-out. They used to keep that map in a
//! `BTreeMap<ChunkKey, u64>` — a tree descent plus amortized node splits
//! per placed chunk, the reason both trailed the table-free schemes by
//! ~2× on the ingest bench. This mirrors the cluster's dense placement
//! index instead: per array, a flat row-major `Vec<u64>` of sequence
//! numbers sized from the workload's grid hint, lazily allocated on the
//! array's first insert, with a hash-map spill for out-of-hint
//! coordinates, mismatched dimensionality, and oversized or out-of-range
//! arrays. Insert and lookup are O(1) array reads on the hot path.

use array_model::{ChunkCoords, ChunkKey, MAX_DIMS};
use durability::{ascending, ByteReader, CodecError};
use std::collections::HashMap;

/// Vacant-slot sentinel: sequence numbers are placement counters and
/// cannot plausibly reach 2^64 − 1.
const VACANT: u64 = u64::MAX;

/// Largest dense grid we will allocate, in slots (16M slots = 128 MB).
const DENSE_SLOT_CAP: i128 = 1 << 24;

/// Highest `ArrayId` that gets its own lazily allocated grid.
const ARRAY_ID_CAP: u32 = 4096;

/// Chunk-key → insert-sequence map, dense over the hinted grid.
#[derive(Debug, Clone)]
pub(super) struct SeqIndex {
    /// Hinted extents shared by every array this workload routes.
    extents: [i64; MAX_DIMS],
    ndims: u8,
    /// Slot volume of the hinted grid, or `None` when the hint is too
    /// large to back densely (everything spills).
    volume: Option<usize>,
    /// Lazily allocated per-array grids, indexed by `ArrayId.0`.
    grids: Vec<Option<Vec<u64>>>,
    /// Everything that cannot live in a grid.
    spill: HashMap<ChunkKey, u64>,
}

impl SeqIndex {
    /// Build for a workload's hinted chunk counts.
    pub(super) fn new(chunk_counts: &[i64]) -> Self {
        let mut extents = [1i64; MAX_DIMS];
        let ndims = chunk_counts.len().min(MAX_DIMS);
        extents[..ndims].copy_from_slice(&chunk_counts[..ndims]);
        let volume: i128 = chunk_counts.iter().map(|&e| i128::from(e.max(1))).product();
        let volume = (chunk_counts.len() <= MAX_DIMS
            && !chunk_counts.is_empty()
            && chunk_counts.iter().all(|&e| e >= 1)
            && volume <= DENSE_SLOT_CAP)
            .then_some(volume as usize);
        SeqIndex { extents, ndims: ndims as u8, volume, grids: Vec::new(), spill: HashMap::new() }
    }

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

    /// Where `key` lives densely — `(array slot, linear index)` — or
    /// `None` when it spills.
    #[inline]
    fn dense_slot(&self, key: &ChunkKey) -> Option<(usize, usize)> {
        if key.array.0 >= ARRAY_ID_CAP {
            return None;
        }
        self.volume?;
        Some((key.array.0 as usize, self.linearize(&key.coords)?))
    }

    /// The grid of array slot `idx`, allocated on first use.
    fn grid_mut(&mut self, idx: usize, volume: usize) -> &mut Vec<u64> {
        if idx >= self.grids.len() {
            self.grids.resize(idx + 1, None);
        }
        self.grids[idx].get_or_insert_with(|| vec![VACANT; volume])
    }

    /// Record `seq` for `key`. O(1); allocates only on an array's first
    /// dense insert (the grid) or on spill-map growth.
    pub(super) fn insert(&mut self, key: ChunkKey, seq: u64) {
        match (self.volume, self.dense_slot(&key)) {
            (Some(volume), Some((idx, lin))) => self.grid_mut(idx, volume)[lin] = seq,
            _ => {
                self.spill.insert(key, seq);
            }
        }
    }

    /// Serialize the **occupied** entries (dense grids are written
    /// sparsely — slot index + sequence — so an almost-empty 16M-slot
    /// grid costs bytes proportional to what it holds). The grid shape
    /// itself is config-derived and not written; restore targets a fresh
    /// index built from the same chunk counts.
    pub(super) fn snapshot_into(&self, w: &mut durability::ByteWriter) {
        let occupied: Vec<(usize, &Vec<u64>)> =
            self.grids.iter().enumerate().filter_map(|(i, g)| g.as_ref().map(|g| (i, g))).collect();
        w.put_list(occupied, |w, (idx, grid)| {
            w.put_usize(idx);
            let live = grid.iter().filter(|&&s| s != VACANT).count();
            w.put_usize(live);
            for (lin, &seq) in grid.iter().enumerate().filter(|(_, &s)| s != VACANT) {
                w.put_usize(lin);
                w.put_u64(seq);
            }
        });
        // Deterministic spill order: sort by key.
        let mut spill: Vec<(&ChunkKey, &u64)> = self.spill.iter().collect();
        spill.sort_by_key(|(k, _)| **k);
        w.put_list(spill, |w, (key, &seq)| {
            key.encode_into(w);
            w.put_u64(seq);
        });
    }

    /// Restore entries from [`SeqIndex::snapshot_into`] onto this index,
    /// which must have been built with the same chunk counts (so grid
    /// volumes agree). Every sequence number is below `next_seq`, the
    /// table's counter; slots, linear indices and spilled keys ascend as
    /// they were written, and no spilled key is one a grid holds.
    pub(super) fn restore_from(
        &mut self,
        r: &mut ByteReader<'_>,
        next_seq: u64,
    ) -> Result<(), CodecError> {
        // No run counts past 2^63 placements (centuries at 10^9 a second),
        // and counting on from a counter near 2^64 would overflow.
        if next_seq > 1 << 63 {
            return Err(CodecError::invalid("placement counter", format!("{next_seq}")));
        }
        let read_seq = |r: &mut ByteReader<'_>, context| match r.u64(context)? {
            seq if seq < next_seq => Ok(seq),
            seq => Err(CodecError::invalid(context, format!("{seq} is not below {next_seq}"))),
        };
        let mut last_slot = None;
        for _ in 0..r.count("seq index grid count", 8 + 8)? {
            let idx = r.usize("seq index array slot")?;
            ascending("seq index array slot", last_slot.as_ref(), &idx)?;
            last_slot = Some(idx);
            let Some(volume) = self.volume else {
                let detail = "snapshot has dense grids, this hint backs none";
                return Err(CodecError::invalid("seq index array slot", detail));
            };
            if idx >= ARRAY_ID_CAP as usize {
                let detail = format!("slot {idx} exceeds the array id cap");
                return Err(CodecError::invalid("seq index array slot", detail));
            }
            self.grid_mut(idx, volume);
            let mut last_lin = None;
            for _ in 0..r.count("seq index entry count", 8 + 8)? {
                let lin = r.usize("seq index slot")?;
                ascending("seq index slot", last_lin.as_ref(), &lin)?;
                last_lin = Some(lin);
                let seq = read_seq(r, "seq index seq")?;
                if lin >= volume {
                    let detail = format!("slot {lin} outside grid volume {volume}");
                    return Err(CodecError::invalid("seq index slot", detail));
                }
                self.grid_mut(idx, volume)[lin] = seq;
            }
        }
        let mut last_key = None;
        for _ in 0..r.count("seq index spill count", ChunkKey::MIN_ENCODED_LEN + 8)? {
            let key = ChunkKey::decode_from(r)?;
            ascending("seq index spill key", last_key.as_ref(), &key)?;
            last_key = Some(key);
            if self.dense_slot(&key).is_some() {
                let detail = format!("{key} has a grid slot");
                return Err(CodecError::invalid("seq index spill key", detail));
            }
            self.spill.insert(key, read_seq(r, "seq index spill seq")?);
        }
        Ok(())
    }

    /// The sequence recorded for `key`, if any. O(1).
    pub(super) fn get(&self, key: &ChunkKey) -> Option<u64> {
        let Some((idx, lin)) = self.dense_slot(key) else {
            return self.spill.get(key).copied();
        };
        match self.grids.get(idx)?.as_ref()?[lin] {
            VACANT => None,
            seq => Some(seq),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use array_model::ArrayId;

    fn key(array: u32, coords: &[i64]) -> ChunkKey {
        ChunkKey::new(ArrayId(array), ChunkCoords::new(coords))
    }

    #[test]
    fn dense_roundtrip_and_vacancy() {
        let mut idx = SeqIndex::new(&[8, 8]);
        assert_eq!(idx.get(&key(0, &[3, 4])), None);
        idx.insert(key(0, &[3, 4]), 17);
        idx.insert(key(1, &[3, 4]), 99); // second array, own grid
        assert_eq!(idx.get(&key(0, &[3, 4])), Some(17));
        assert_eq!(idx.get(&key(1, &[3, 4])), Some(99));
        assert_eq!(idx.get(&key(2, &[3, 4])), None, "unallocated array");
    }

    #[test]
    fn out_of_hint_coordinates_spill() {
        let mut idx = SeqIndex::new(&[4, 4]);
        idx.insert(key(0, &[100, 0]), 1);
        idx.insert(key(0, &[-1, 2]), 2);
        idx.insert(key(0, &[1]), 3); // wrong arity
        assert_eq!(idx.get(&key(0, &[100, 0])), Some(1));
        assert_eq!(idx.get(&key(0, &[-1, 2])), Some(2));
        assert_eq!(idx.get(&key(0, &[1])), Some(3));
    }

    #[test]
    fn oversized_hints_and_huge_array_ids_spill() {
        let mut big = SeqIndex::new(&[1 << 20, 1 << 20]);
        big.insert(key(0, &[5, 5]), 7);
        assert_eq!(big.get(&key(0, &[5, 5])), Some(7));

        let mut idx = SeqIndex::new(&[8]);
        idx.insert(key(u32::MAX - 1, &[2]), 4);
        assert_eq!(idx.get(&key(u32::MAX - 1, &[2])), Some(4));
    }
}
