//! A permutation of `0..n` kept sorted by `(key, index)` and repaired from
//! dirty sets — the one order-repair implementation behind both the SCD
//! dispatch table ([`ScdTable`](crate::ScdTable), Corollary 1 keys) and the
//! water-filling load order (`scd_core::iwl::LoadOrder`, loads `q/µ`).
//!
//! Keys are finite and non-negative, so their IEEE-754 bit patterns order
//! exactly like the values; the order compares `(key bits, index)` pairs.
//! Those composite keys are distinct, so every key vector has a *unique*
//! sorted permutation: a repaired order is identical — not merely
//! equivalent — to a full re-sort, and everything derived from it is
//! bit-identical.

/// A `(key, index)`-sorted permutation with an `O(n + k log k)` repair.
///
/// # Example
/// ```
/// use scd_model::KeyOrder;
/// let mut keys = vec![3.0, 1.0, 2.0];
/// let mut order = KeyOrder::new();
/// order.rebuild(keys.len(), |s| keys[s]);
/// assert_eq!(order.order(), &[1, 2, 0]);
/// keys[0] = 0.5;
/// assert!(order.repair(&[0], |s| keys[s]), "one moved key is merged back");
/// assert_eq!(order.order(), &[0, 1, 2]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct KeyOrder {
    /// Indices sorted by `(keys[s], s)`.
    order: Vec<usize>,
    /// Per-index key bit patterns the order is sorted by.
    keys: Vec<u64>,
    /// Repair scratch: which indices moved this repair.
    marks: Vec<bool>,
    /// Repair scratch: the moved indices.
    moved: Vec<usize>,
    /// Repair scratch: the merge output.
    merged: Vec<usize>,
    /// Sort scratch: `(key bits << 64) | index`, so a sort compares plain
    /// integers instead of looking keys up.
    packed: Vec<u128>,
}

impl KeyOrder {
    /// Creates an empty order; call [`rebuild`](KeyOrder::rebuild) first.
    pub fn new() -> Self {
        KeyOrder::default()
    }

    /// Number of indices the order covers.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True before the first rebuild.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The indices in non-decreasing `(key, index)` order.
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// The key the order currently holds for index `s`.
    pub(crate) fn key(&self, s: usize) -> f64 {
        f64::from_bits(self.keys[s])
    }

    /// Full sort of `0..n` by `(key(s), s)`, reusing every buffer.
    pub fn rebuild(&mut self, n: usize, key: impl Fn(usize) -> f64) {
        self.keys.clear();
        self.keys.extend((0..n).map(|s| key_bits(key(s))));
        self.order.clear();
        self.order.extend(0..n);
        sort_indices(&mut self.order, &self.keys, &mut self.packed);
        self.marks.clear();
        self.marks.resize(n, false);
    }

    /// Re-reads the key of every index in `dirty` and restores the order:
    /// the indices whose key changed are filtered out, sorted among
    /// themselves and merged back — `O(n + k log k)` for `k` moved indices.
    /// When more than half of the indices moved, the whole order is
    /// re-sorted instead. Returns `true` for an in-place repair (including
    /// one where nothing moved) and `false` for a re-sort.
    ///
    /// `dirty` must list every index whose key changed since the last
    /// rebuild or repair; duplicates and unchanged indices are harmless.
    ///
    /// # Panics
    /// Panics if a dirty index is out of range (in particular before the
    /// first rebuild).
    pub fn repair(&mut self, dirty: &[u32], key: impl Fn(usize) -> f64) -> bool {
        let n = self.order.len();
        self.moved.clear();
        for &s in dirty {
            let s = s as usize;
            let bits = key_bits(key(s));
            // A duplicate sees its already-updated key and is skipped.
            if bits != self.keys[s] {
                self.keys[s] = bits;
                self.marks[s] = true;
                self.moved.push(s);
            }
        }
        let keys = &self.keys;
        let merge = self.moved.len() * 2 <= n;
        if !merge {
            sort_indices(&mut self.order, keys, &mut self.packed);
        } else if !self.moved.is_empty() {
            let marks = &self.marks;
            self.order.retain(|&s| !marks[s]);
            sort_indices(&mut self.moved, keys, &mut self.packed);
            self.merged.clear();
            let (mut i, mut j) = (0, 0);
            while i < self.order.len() && j < self.moved.len() {
                let (a, b) = (self.order[i], self.moved[j]);
                if (keys[a], a) < (keys[b], b) {
                    self.merged.push(a);
                    i += 1;
                } else {
                    self.merged.push(b);
                    j += 1;
                }
            }
            self.merged.extend_from_slice(&self.order[i..]);
            self.merged.extend_from_slice(&self.moved[j..]);
            std::mem::swap(&mut self.order, &mut self.merged);
        }
        for &s in &self.moved {
            self.marks[s] = false;
        }
        merge
    }
}

/// Sorts `indices` by `(keys[s], s)` through packed integer sort keys.
fn sort_indices(indices: &mut [usize], keys: &[u64], packed: &mut Vec<u128>) {
    packed.clear();
    packed.extend(
        indices
            .iter()
            .map(|&s| (u128::from(keys[s]) << 64) | s as u128),
    );
    packed.sort_unstable();
    for (slot, &p) in indices.iter_mut().zip(packed.iter()) {
        *slot = p as u64 as usize;
    }
}

/// The order-preserving bit pattern of a finite, non-negative key (`-0.0`
/// is folded onto `+0.0`).
fn key_bits(key: f64) -> u64 {
    debug_assert!(
        key.is_finite() && key >= 0.0,
        "keys must be finite and non-negative, got {key}"
    );
    (key + 0.0).to_bits()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use rand::SeedableRng;

    fn cold(keys: &[f64]) -> Vec<usize> {
        let mut order: Vec<usize> = (0..keys.len()).collect();
        order.sort_by(|&a, &b| keys[a].partial_cmp(&keys[b]).unwrap().then(a.cmp(&b)));
        order
    }

    #[test]
    fn repairs_match_the_cold_sort_at_every_density() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x0DE2);
        for case in 0..40 {
            let n = rng.gen_range(1..80);
            let mut keys: Vec<f64> = (0..n).map(|_| rng.gen_range(0..6) as f64).collect();
            let mut order = KeyOrder::new();
            order.rebuild(n, |s| keys[s]);
            for round in 0..60 {
                // Sparse and dense dirty sets, duplicates and unchanged
                // entries included; ties are frequent (six distinct keys).
                let k = rng.gen_range(0..=n);
                let mut dirty: Vec<u32> = (0..k).map(|_| rng.gen_range(0..n) as u32).collect();
                for &s in &dirty {
                    if rng.gen_range(0..3) != 0 {
                        keys[s as usize] = rng.gen_range(0..6) as f64;
                    }
                }
                if k > 0 {
                    dirty.push(dirty[0]);
                }
                order.repair(&dirty, |s| keys[s]);
                assert_eq!(order.order(), &cold(&keys)[..], "case {case} round {round}");
            }
        }
    }

    #[test]
    fn sparse_moves_merge_and_dense_moves_re_sort() {
        let mut keys = [2.0, 0.0, 1.0];
        let mut order = KeyOrder::new();
        order.rebuild(3, |s| keys[s]);
        assert!(order.repair(&[0, 1, 2], |s| keys[s]), "nothing moved");
        assert_eq!(order.order(), &[1, 2, 0]);
        keys = [0.5, 3.0, 1.0];
        assert!(!order.repair(&[0, 1], |s| keys[s]), "two of three moved");
        assert_eq!(order.order(), &[0, 2, 1]);
        assert_eq!(order.key(0), 0.5);
        assert_eq!(order.len(), 3);
        assert!(!order.is_empty());
    }
}
