//! Cell-coordinate keys as one flat buffer, for the operators whose
//! answer needs the scanned cells in *key* order rather than scan order
//! (`window_aggregate`'s sorted sweep, `trajectory`'s landing census).
//!
//! One `Vec<i64>` of stride `ndims` replaces a heap key per cell, and one
//! stable lexicographic sort replaces an ordered-map insert per cell.

/// Keys of equal arity, stored back to back in push order.
pub(super) struct FlatKeys {
    nd: usize,
    flat: Vec<i64>,
}

impl FlatKeys {
    /// An empty buffer of `nd`-dimensional keys (`nd ≥ 1`: every schema
    /// has a dimension).
    pub fn new(nd: usize) -> Self {
        debug_assert!(nd > 0);
        FlatKeys { nd, flat: Vec::new() }
    }

    /// Append `key`, returning its slot so the caller can adjust it in
    /// place.
    pub fn push(&mut self, key: &[i64]) -> &mut [i64] {
        debug_assert_eq!(key.len(), self.nd);
        let at = self.flat.len();
        self.flat.extend_from_slice(key);
        &mut self.flat[at..]
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.flat.len() / self.nd
    }

    /// The `i`-th key pushed.
    #[inline]
    pub fn get(&self, i: usize) -> &[i64] {
        &self.flat[i * self.nd..(i + 1) * self.nd]
    }

    /// The keys as fixed-arity cells, for a caller that has matched `ND`
    /// against the arity the buffer was made with.
    pub fn as_cells<const ND: usize>(&self) -> &[[i64; ND]] {
        debug_assert_eq!(ND, self.nd);
        self.flat.as_chunks::<ND>().0
    }

    /// Visit each distinct key once, in ascending lexicographic order,
    /// with the push indices that hold it in ascending (push) order — the
    /// sort is stable, so `run.last()` is the entry a map insert would
    /// have kept and `run.len()` the count a map entry would have reached.
    pub fn for_each_run(&self, mut f: impl FnMut(&[usize])) {
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.sort_by(|&a, &b| self.get(a).cmp(self.get(b)));
        order.chunk_by(|&a, &b| self.get(a) == self.get(b)).for_each(&mut f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_come_out_in_key_order_with_push_order_inside() {
        let mut keys = FlatKeys::new(2);
        for k in [[2, 1], [0, 9], [2, 1], [-1, 5], [0, 9], [2, 1]] {
            keys.push(&k);
        }
        keys.push(&[7, 7])[1] = -7;
        let mut runs = Vec::new();
        keys.for_each_run(|run| runs.push((keys.get(run[0]).to_vec(), run.to_vec())));
        assert_eq!(
            runs,
            vec![
                (vec![-1, 5], vec![3]),
                (vec![0, 9], vec![1, 4]),
                (vec![2, 1], vec![0, 2, 5]),
                (vec![7, -7], vec![6]),
            ]
        );
    }
}
