//! `(rate, queue-length)` equivalence classes — the grouped snapshot behind
//! the SCD dispatch table at mean-field scale.
//!
//! The optimal SCD distribution `p_s ∝ µ_s·(c − key_s)⁺` is a pure function
//! of the pair `(q_s, µ_s)`: every two servers with the same queue length
//! and the same rate carry *exactly* the same probability. Real clusters
//! have a handful of hardware generations (a handful of distinct rates `R`)
//! and bounded queue lengths, so the number of **distinct** `(q, µ)` pairs
//! `C` is tiny compared to `n` — typically `O(R·q_max) ≈ 10^1..10^3`.
//!
//! A [`ClassPartition`] groups the round's servers into those classes once
//! (`O(n)` counting sort over a dense `(q, rate-class)` cell table). The
//! SCD table ([`ScdTable`](crate::ScdTable)) then sorts and sums `C`
//! classes instead of `n` servers, and sampling a destination is one draw
//! over the classes plus one uniform member pick inside the chosen class.
//! Because members of one class are exactly interchangeable, the two-level
//! draw samples *the same* per-server distribution as single-server
//! groups.
//!
//! # Canonical class order
//!
//! Classes are emitted in `(q ascending, rate ascending)` order and members
//! are scattered in server-index order, so the partition is a pure function
//! of the snapshot: delta-repaired and cold rounds, sharded and unsharded
//! runs all build bit-identical partitions.
//!
//! # Viability
//!
//! The dense cell table has `R·(q_max + 1)` entries. When rates are
//! all-distinct (e.g. a continuous `Uniform` rate profile, `R = n`) or
//! queues are extremely deep, the table would dwarf `n` and the grouping
//! buys nothing — [`ClassPartition::build`] (and
//! [`build_within`](ClassPartition::build_within) with the caller's own
//! ceiling; the SCD table uses `n/4`) then reports the round as not viable
//! and callers fall back to single-server groups. The predicate is a pure
//! function of the snapshot, so the decision is deterministic and identical
//! across delta/full/sharded replays.

/// Maximum dense-cell-table size, as a multiple of `n` (plus a small
/// constant floor so tiny clusters always compress): beyond this the
/// counting sort's `O(R·q_max)` scan would dominate the `O(n)` passes it
/// replaces.
const CELL_BUDGET_FACTOR: usize = 4;
/// Constant floor added to the cell budget (lets small clusters with
/// moderately deep queues still compress).
const CELL_BUDGET_FLOOR: usize = 64;

/// The per-round `(rate-class, queue-length)` partition of a cluster
/// snapshot. See the module docs for the full story.
///
/// All buffers are reused across rounds; after the first round at a given
/// cluster size a rebuild performs no heap allocations (the dense cell
/// table grows monotonically to the deepest snapshot seen).
#[derive(Debug, Clone, Default)]
pub struct ClassPartition {
    /// The rates the rate-class table was computed for (change detector;
    /// rates are static per run, so this almost never changes).
    rates_snapshot: Vec<f64>,
    /// Sorted distinct rate values (ascending).
    unique_rates: Vec<f64>,
    /// Reciprocals `1/µ` of `unique_rates`, computed with the workspace's
    /// canonical `1.0/µ` expression.
    unique_inv: Vec<f64>,
    /// Per-server rate-class index into `unique_rates`.
    rate_class: Vec<u32>,
    /// Whether the last `build` produced a usable partition.
    built: bool,
    /// Number of live classes `C`.
    num_classes: usize,
    /// Per-class queue length.
    class_q: Vec<u64>,
    /// Per-class service rate `µ`.
    class_mu: Vec<f64>,
    /// Per-class member count.
    class_count: Vec<u32>,
    /// Per-class Corollary 1 key `(2q + 1)·(1/µ)`.
    class_key: Vec<f64>,
    /// Per-class aggregate rate `count·µ`.
    class_cmu: Vec<f64>,
    /// Start offset of each class's members in `members`.
    offsets: Vec<u32>,
    /// Server indices grouped by class (server-index order within a class).
    members: Vec<u32>,
    /// Dense `(q·R + rate_class)` scratch table (counts, then cursors).
    cells: Vec<u32>,
}

impl ClassPartition {
    /// Creates an empty partition; call [`build`](ClassPartition::build)
    /// before reading it.
    pub fn new() -> Self {
        ClassPartition::default()
    }

    /// Refreshes the static rate-class table when `rates` changed since the
    /// last call (rates are fixed per run, so this is a one-time cost of
    /// `O(n log n)`).
    fn refresh_rate_classes(&mut self, rates: &[f64]) {
        if self.rates_snapshot == rates {
            return;
        }
        self.rates_snapshot.clear();
        self.rates_snapshot.extend_from_slice(rates);
        self.unique_rates.clear();
        self.unique_rates.extend_from_slice(rates);
        self.unique_rates
            .sort_unstable_by(|a, b| a.partial_cmp(b).expect("rates are finite"));
        self.unique_rates.dedup();
        self.unique_inv.clear();
        self.unique_inv
            .extend(self.unique_rates.iter().map(|&mu| 1.0 / mu));
        self.rate_class.clear();
        self.rate_class.extend(rates.iter().map(|&mu| {
            // partition_point over the sorted distinct values gives the
            // exact slot: rates are finite and positive, so `<` is total.
            self.unique_rates.partition_point(|&u| u < mu) as u32
        }));
    }

    /// (Re)builds the partition for one round's queue snapshot. Returns
    /// `true` when the snapshot is viable (see the module docs); on `false`
    /// the partition holds no classes and callers must take the dense
    /// per-server path. Either way the outcome is a pure function of
    /// `(queues, rates)`.
    ///
    /// # Panics
    /// Panics if `queues` and `rates` differ in length.
    pub fn build(&mut self, queues: &[u64], rates: &[f64]) -> bool {
        let budget = CELL_BUDGET_FACTOR * queues.len() + CELL_BUDGET_FLOOR;
        self.build_within(queues, rates, budget)
    }

    /// Like [`build`](ClassPartition::build) with an explicit ceiling on
    /// the `R·(q_max + 1)` cell table: the snapshot is viable only when the
    /// table has at most `max_cells` cells.
    ///
    /// # Panics
    /// Panics if `queues` and `rates` differ in length.
    pub fn build_within(&mut self, queues: &[u64], rates: &[f64], max_cells: usize) -> bool {
        assert_eq!(
            queues.len(),
            rates.len(),
            "queue-length and rate vectors must describe the same cluster"
        );
        self.built = false;
        self.num_classes = 0;
        let n = queues.len();
        if n == 0 || n > u32::MAX as usize {
            return false;
        }
        self.refresh_rate_classes(rates);
        let r = self.unique_rates.len();
        let qmax = queues.iter().copied().max().unwrap_or(0);
        let cells_len = (qmax as u128 + 1) * r as u128;
        if cells_len > max_cells as u128 {
            return false;
        }
        let cells_len = cells_len as usize;
        self.cells.clear();
        self.cells.resize(cells_len, 0);
        // Pass 1: count members per (q, rate-class) cell.
        for (&q, &rc) in queues.iter().zip(&self.rate_class) {
            self.cells[q as usize * r + rc as usize] += 1;
        }
        // Pass 2: compact the non-empty cells, in cell order (q ascending,
        // rate ascending — the canonical class order), replacing each
        // cell's count with its members' start cursor.
        self.class_q.clear();
        self.class_mu.clear();
        self.class_count.clear();
        self.class_key.clear();
        self.class_cmu.clear();
        self.offsets.clear();
        let mut cursor = 0u32;
        for cell in 0..cells_len {
            let count = self.cells[cell];
            if count == 0 {
                continue;
            }
            let q = (cell / r) as u64;
            let rc = cell % r;
            let mu = self.unique_rates[rc];
            let inv = self.unique_inv[rc];
            let qf = q as f64;
            self.class_q.push(q);
            self.class_mu.push(mu);
            self.class_count.push(count);
            self.class_key.push((2.0 * qf + 1.0) * inv);
            self.class_cmu.push(count as f64 * mu);
            self.offsets.push(cursor);
            self.cells[cell] = cursor;
            cursor += count;
        }
        debug_assert_eq!(cursor as usize, n);
        // Pass 3: scatter the members in server-index order.
        self.members.clear();
        self.members.resize(n, 0);
        for (s, (&q, &rc)) in queues.iter().zip(&self.rate_class).enumerate() {
            let cell = q as usize * r + rc as usize;
            let at = self.cells[cell];
            self.members[at as usize] = s as u32;
            self.cells[cell] = at + 1;
        }
        self.num_classes = self.class_q.len();
        self.built = true;
        true
    }

    /// Whether the last [`build`](ClassPartition::build) produced a usable
    /// partition.
    pub fn is_built(&self) -> bool {
        self.built
    }

    /// Number of live classes `C` (0 when not built).
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Number of distinct rates `R` of the current rate table.
    pub fn num_rate_classes(&self) -> usize {
        self.unique_rates.len()
    }

    /// Per-class queue lengths, in canonical class order.
    pub fn qs(&self) -> &[u64] {
        &self.class_q[..self.num_classes]
    }

    /// Per-class service rates `µ`.
    pub fn mus(&self) -> &[f64] {
        &self.class_mu[..self.num_classes]
    }

    /// Per-class member counts.
    pub fn counts(&self) -> &[u32] {
        &self.class_count[..self.num_classes]
    }

    /// Per-class Corollary 1 keys `(2q + 1)/µ`.
    pub fn keys(&self) -> &[f64] {
        &self.class_key[..self.num_classes]
    }

    /// Per-class aggregate rates `count·µ`.
    pub fn cmu(&self) -> &[f64] {
        &self.class_cmu[..self.num_classes]
    }

    /// The members of one class, in server-index order.
    ///
    /// # Panics
    /// Panics if `class >= num_classes()`.
    pub fn class_members(&self, class: usize) -> &[u32] {
        assert!(class < self.num_classes, "class {class} out of range");
        let start = self.offsets[class] as usize;
        let end = start + self.class_count[class] as usize;
        &self.members[start..end]
    }

    /// Picks a uniformly random member of `class` from one `u64` draw,
    /// using the same high-32-bit fixed-point reduction
    /// [`AliasSampler::sample`](crate::AliasSampler::sample) uses for its
    /// column pick.
    ///
    /// # Panics
    /// Debug builds panic if `class >= num_classes()`.
    #[inline]
    pub fn member(&self, class: usize, draw: u64) -> u32 {
        debug_assert!(class < self.num_classes, "class {class} out of range");
        let count = self.class_count[class] as u64;
        let idx = ((draw >> 32) * count) >> 32;
        self.members[self.offsets[class] as usize + idx as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitions_a_bimodal_cluster_canonically() {
        // Two rates, queue depths 0..=2: classes come out in
        // (q asc, rate asc) order with members in server-index order.
        let rates = [4.0, 1.0, 4.0, 1.0, 1.0, 4.0];
        let queues = [0u64, 2, 1, 0, 2, 0];
        let mut part = ClassPartition::new();
        assert!(part.build(&queues, &rates));
        assert_eq!(part.num_rate_classes(), 2);
        // Present (q, µ) pairs: (0,1) {3}, (0,4) {0,5}, (1,4) {2},
        // (2,1) {1,4}.
        assert_eq!(part.num_classes(), 4);
        assert_eq!(part.qs(), &[0, 0, 1, 2]);
        assert_eq!(part.mus(), &[1.0, 4.0, 4.0, 1.0]);
        assert_eq!(part.counts(), &[1, 2, 1, 2]);
        assert_eq!(part.class_members(0), &[3]);
        assert_eq!(part.class_members(1), &[0, 5]);
        assert_eq!(part.class_members(2), &[2]);
        assert_eq!(part.class_members(3), &[1, 4]);
        // Derived tables use the canonical reciprocal arithmetic.
        assert_eq!(part.keys()[2], (2.0 * 1.0 + 1.0) * (1.0 / 4.0));
        assert_eq!(part.cmu(), &[1.0, 8.0, 4.0, 2.0]);
    }

    #[test]
    fn all_distinct_rates_are_not_viable_at_depth() {
        // R = n distinct rates with deep queues blows the cell budget.
        let n = 64usize;
        let rates: Vec<f64> = (0..n).map(|i| 1.0 + i as f64 * 0.01).collect();
        let queues: Vec<u64> = (0..n).map(|i| i as u64 * 7).collect();
        let mut part = ClassPartition::new();
        assert!(!part.build(&queues, &rates));
        assert!(!part.is_built());
        assert_eq!(part.num_classes(), 0);
    }

    #[test]
    fn homogeneous_rates_stay_viable_at_any_width() {
        let n = 10_000usize;
        let rates = vec![2.0; n];
        let queues: Vec<u64> = (0..n).map(|i| (i % 17) as u64).collect();
        let mut part = ClassPartition::new();
        assert!(part.build(&queues, &rates));
        assert_eq!(part.num_classes(), 17);
        let total: u32 = part.counts().iter().sum();
        assert_eq!(total as usize, n);
        // Every server appears exactly once across the member lists.
        let mut seen = vec![false; n];
        for c in 0..part.num_classes() {
            for &s in part.class_members(c) {
                assert!(!seen[s as usize]);
                seen[s as usize] = true;
                assert_eq!(queues[s as usize], part.qs()[c]);
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn rebuilds_reuse_the_rate_table_and_follow_the_snapshot() {
        let rates = [1.0, 2.0, 1.0, 2.0];
        let mut part = ClassPartition::new();
        assert!(part.build(&[0, 0, 0, 0], &rates));
        assert_eq!(part.num_classes(), 2);
        assert!(part.build(&[3, 0, 0, 1], &rates));
        assert_eq!(part.qs(), &[0, 0, 1, 3]);
        assert_eq!(part.mus(), &[1.0, 2.0, 2.0, 1.0]);
        assert_eq!(part.class_members(3), &[0]);
    }

    #[test]
    fn member_draw_is_in_range_and_uniformish() {
        let rates = vec![1.0; 8];
        let queues = vec![5u64; 8];
        let mut part = ClassPartition::new();
        assert!(part.build(&queues, &rates));
        assert_eq!(part.num_classes(), 1);
        let mut hits = [0u32; 8];
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..8000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let m = part.member(0, x);
            hits[m as usize] += 1;
        }
        assert!(
            hits.iter().all(|&h| h > 700),
            "draws badly skewed: {hits:?}"
        );
    }

    #[test]
    #[should_panic(expected = "same cluster")]
    fn mismatched_lengths_panic() {
        ClassPartition::new().build(&[1, 2], &[1.0]);
    }
}
