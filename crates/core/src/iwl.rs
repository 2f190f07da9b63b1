//! The ideally balanced assignment and the ideal workload (Section 3.1,
//! Algorithm 3 of the paper).
//!
//! Given the current queue lengths `q_s`, the service rates `µ_s` and the
//! total number of incoming jobs `a`, the *ideal workload* (IWL) is the
//! max-min-fair post-assignment load level: the value of
//!
//! ```text
//!   max min_s (q_s + ā_s) / µ_s    s.t.  Σ_s ā_s = a,  ā_s ≥ 0
//! ```
//!
//! if the incoming work were infinitely divisible. The corresponding
//! *ideally balanced assignment* is `ā_s = µ_s · max(q_s/µ_s, iwl) − q_s`
//! (Eq. 2). SCD measures every realizable (integral, randomized) assignment
//! against this ideal.

use scd_model::KeyOrder;

/// Computes the ideal workload by sorting servers by their current load
/// `q_s / µ_s` and then water-filling the `a` units of incoming work
/// (Algorithm 3).
///
/// Runs in `O(n log n)`; use [`compute_iwl_with_order`] when the caller
/// already maintains the sorted order.
///
/// # Panics
/// Panics if `queues` and `rates` have different lengths, if `rates` is
/// empty, or if `arrivals` is negative or not finite. Rates must be strictly
/// positive (guaranteed by [`scd_model::ClusterSpec`]); a non-positive rate
/// makes the load `q/µ` meaningless and triggers a debug assertion.
///
/// # Example
/// ```
/// use scd_core::iwl::compute_iwl;
/// // Figure 1: rates [5,2,1,1], queues [2,1,3,1], 7 new jobs → IWL = 1.375.
/// let iwl = compute_iwl(&[2, 1, 3, 1], &[5.0, 2.0, 1.0, 1.0], 7.0);
/// assert!((iwl - 1.375).abs() < 1e-12);
/// ```
pub fn compute_iwl(queues: &[u64], rates: &[f64], arrivals: f64) -> f64 {
    let order = sorted_by_load(queues, rates);
    compute_iwl_with_order(queues, rates, arrivals, &order)
}

/// Returns the server indices sorted in non-decreasing order of load
/// `q_s / µ_s` — the order required by [`compute_iwl_with_order`].
///
/// The sort is stable, so equal loads keep index order: the result is the
/// unique permutation sorted by the composite key `(load, index)` — the
/// invariant [`LoadOrder`] maintains incrementally.
pub fn sorted_by_load(queues: &[u64], rates: &[f64]) -> Vec<usize> {
    let mut order = Vec::new();
    sorted_by_load_into(queues, rates, &mut order);
    order
}

/// Buffer-reusing variant of [`sorted_by_load`]: fills `order` (cleared
/// first) with the sorted indices instead of allocating a fresh vector, so
/// per-round callers pay no per-solve heap allocation.
pub fn sorted_by_load_into(queues: &[u64], rates: &[f64], order: &mut Vec<usize>) {
    assert_eq!(
        queues.len(),
        rates.len(),
        "queues and rates must have equal length"
    );
    order.clear();
    order.extend(0..queues.len());
    order.sort_by(|&a, &b| {
        let la = queues[a] as f64 / rates[a];
        let lb = queues[b] as f64 / rates[b];
        la.partial_cmp(&lb).expect("loads are finite")
    });
}

/// A persistent sorted-by-load permutation, repaired incrementally from the
/// engine's round-to-round dirty sets.
///
/// Algorithm 3-style consumers need the servers in non-decreasing load
/// order every round ([`compute_iwl_with_order`] — the water-filling scan
/// proper). Re-sorting costs `O(n log n)` per round even though, between
/// consecutive rounds, only the dirty servers (dispatch targets ∪ servers
/// with completions) moved. A `LoadOrder` keeps the permutation across
/// rounds and repairs it with the SCD dispatch table's order repair
/// ([`scd_model::KeyOrder`]): filter the moved servers out, sort them by
/// their new loads, merge them back — `O(n + k log k)` for `k` moved
/// servers, with the full sort as the cold path.
///
/// # Invariant and exactness
///
/// The permutation is kept sorted by the composite key `(q_s/µ_s, s)` —
/// exactly the output of the stable [`sorted_by_load`] sort. Because the
/// composite keys are distinct, every state has a *unique* valid
/// permutation, so an incrementally repaired order is **identical** (not
/// merely equivalent) to a cold re-sort, and everything derived from it
/// (e.g. the Algorithm 3 scan) is bit-identical. Loads are recomputed only
/// for dirty servers, with the same `q as f64 / µ` expression the cold sort
/// uses.
///
/// # Example
/// ```
/// use scd_core::iwl::{sorted_by_load, LoadOrder};
/// let rates = [2.0, 1.0, 4.0];
/// let mut queues = [4u64, 1, 2];
/// let mut order = LoadOrder::new();
/// order.rebuild(&queues, &rates);
/// assert_eq!(order.order(), &sorted_by_load(&queues, &rates)[..]);
/// queues[0] = 0; // server 0 drained
/// order.repair(&queues, &rates, &[0]);
/// assert_eq!(order.order(), &sorted_by_load(&queues, &rates)[..]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LoadOrder {
    /// Server indices sorted by `(load, index)`.
    order: KeyOrder,
}

impl LoadOrder {
    /// Creates an empty order; call [`rebuild`](LoadOrder::rebuild) before
    /// reading it.
    pub fn new() -> Self {
        LoadOrder::default()
    }

    /// Number of servers the order covers.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True before the first rebuild.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The server indices in non-decreasing `(load, index)` order — directly
    /// consumable by [`compute_iwl_with_order`].
    pub fn order(&self) -> &[usize] {
        self.order.order()
    }

    /// Cold path: full sort, reusing all buffers (`O(n log n)`).
    pub fn rebuild(&mut self, queues: &[u64], rates: &[f64]) {
        assert_eq!(
            queues.len(),
            rates.len(),
            "queues and rates must have equal length"
        );
        self.order
            .rebuild(queues.len(), |s| queues[s] as f64 / rates[s]);
    }

    /// Warm path: re-reads the load of every server in `dirty` and merges
    /// the servers whose load changed back into place (see
    /// [`KeyOrder::repair`]).
    ///
    /// `dirty` must list every server whose queue length changed since the
    /// last `rebuild`/`repair` (the engine's dirty set satisfies this);
    /// duplicates and unchanged servers are harmless. Falls back to
    /// [`rebuild`](LoadOrder::rebuild) when the order is uninitialized or
    /// the cluster size changed.
    ///
    /// # Panics
    /// Panics if `queues` and `rates` differ in length or a dirty index is
    /// out of range while the incremental path runs.
    pub fn repair(&mut self, queues: &[u64], rates: &[f64], dirty: &[u32]) {
        assert_eq!(
            queues.len(),
            rates.len(),
            "queues and rates must have equal length"
        );
        if self.order.len() != queues.len() {
            self.rebuild(queues, rates);
            return;
        }
        self.order.repair(dirty, |s| queues[s] as f64 / rates[s]);
    }
}

/// Computes the ideal workload given a pre-sorted order (Algorithm 3 proper,
/// `O(n)`).
///
/// `order` must list all server indices in non-decreasing order of
/// `q_s / µ_s`, e.g. as produced by [`sorted_by_load`].
///
/// # Panics
/// Panics on inconsistent input lengths, an empty cluster, a negative or
/// non-finite arrival count, or an `order` that is not a permutation of
/// `0..n` (checked with debug assertions).
pub fn compute_iwl_with_order(
    queues: &[u64],
    rates: &[f64],
    arrivals: f64,
    order: &[usize],
) -> f64 {
    let n = queues.len();
    assert_eq!(n, rates.len(), "queues and rates must have equal length");
    assert_eq!(n, order.len(), "order must cover every server");
    assert!(n > 0, "cluster must contain at least one server");
    assert!(
        arrivals.is_finite() && arrivals >= 0.0,
        "arrivals must be a finite non-negative number, got {arrivals}"
    );
    debug_assert!(
        {
            let mut seen = vec![false; n];
            order.iter().all(|&i| {
                let fresh = i < n && !seen[i];
                if i < n {
                    seen[i] = true;
                }
                fresh
            })
        },
        "order must be a permutation of 0..n"
    );

    let load = |i: usize| queues[i] as f64 / rates[i];

    let mut remaining = arrivals;
    let mut mu_tot = 0.0;
    let mut iwl = load(order[0]);
    let mut idx = 0usize;

    while remaining > 0.0 {
        let r = order[idx];
        mu_tot += rates[r];
        idx += 1;
        if idx == n {
            return iwl + remaining / mu_tot;
        }
        let next_load = load(order[idx]);
        let delta = next_load - iwl;
        if delta * mu_tot >= remaining {
            return iwl + remaining / mu_tot;
        }
        remaining -= delta * mu_tot;
        iwl = next_load;
    }
    iwl
}

/// The ideally balanced (fractional) assignment `ā_s` implied by an ideal
/// workload (Eq. 2): `ā_s = µ_s · max(q_s/µ_s, iwl) − q_s`.
///
/// The returned amounts are non-negative and — when `iwl` was produced by
/// [`compute_iwl`] for the same inputs — sum to the total number of arrivals
/// (up to floating-point round-off).
///
/// # Panics
/// Panics if `queues` and `rates` have different lengths.
///
/// # Example
/// ```
/// use scd_core::iwl::{compute_iwl, ideal_assignment};
/// let queues = [2u64, 1, 3, 1];
/// let rates = [5.0, 2.0, 1.0, 1.0];
/// let iwl = compute_iwl(&queues, &rates, 7.0);
/// let assignment = ideal_assignment(&queues, &rates, iwl);
/// // Figure 1b of the paper: [4.875, 1.75, 0, 0.375].
/// assert!((assignment[0] - 4.875).abs() < 1e-9);
/// assert!((assignment[2] - 0.0).abs() < 1e-9);
/// ```
pub fn ideal_assignment(queues: &[u64], rates: &[f64], iwl: f64) -> Vec<f64> {
    assert_eq!(
        queues.len(),
        rates.len(),
        "queues and rates must have equal length"
    );
    queues
        .iter()
        .zip(rates)
        .map(|(&q, &mu)| {
            let load = q as f64 / mu;
            mu * load.max(iwl) - q as f64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-9;

    #[test]
    fn figure1_ideal_workload_and_assignment() {
        let queues = [2u64, 1, 3, 1];
        let rates = [5.0, 2.0, 1.0, 1.0];
        let iwl = compute_iwl(&queues, &rates, 7.0);
        assert!((iwl - 1.375).abs() < EPS);

        let assignment = ideal_assignment(&queues, &rates, iwl);
        let expected = [4.875, 1.75, 0.0, 0.375];
        for (got, want) in assignment.iter().zip(expected) {
            assert!((got - want).abs() < EPS, "got {got}, want {want}");
        }
        let total: f64 = assignment.iter().sum();
        assert!((total - 7.0).abs() < EPS);
    }

    #[test]
    fn figure2_ideal_workload() {
        // One fast server (µ=10) with 9 queued jobs, eight idle slow servers
        // (µ=1), 7 incoming jobs → IWL = 0.875.
        let mut queues = vec![9u64];
        queues.extend(std::iter::repeat_n(0, 8));
        let mut rates = vec![10.0];
        rates.extend(std::iter::repeat_n(1.0, 8));
        let iwl = compute_iwl(&queues, &rates, 7.0);
        assert!((iwl - 0.875).abs() < EPS);
    }

    #[test]
    fn zero_arrivals_keep_minimum_load() {
        let queues = [4u64, 2, 0];
        let rates = [2.0, 2.0, 1.0];
        let iwl = compute_iwl(&queues, &rates, 0.0);
        assert!((iwl - 0.0).abs() < EPS);
        let assignment = ideal_assignment(&queues, &rates, iwl);
        assert!(assignment.iter().all(|&a| a.abs() < EPS));
    }

    #[test]
    fn single_server_gets_everything() {
        let iwl = compute_iwl(&[3], &[2.0], 5.0);
        assert!((iwl - 4.0).abs() < EPS, "(3 + 5) / 2 = 4");
        let assignment = ideal_assignment(&[3], &[2.0], iwl);
        assert!((assignment[0] - 5.0).abs() < EPS);
    }

    #[test]
    fn homogeneous_empty_cluster_splits_evenly() {
        let queues = [0u64; 4];
        let rates = [1.0; 4];
        let iwl = compute_iwl(&queues, &rates, 8.0);
        assert!((iwl - 2.0).abs() < EPS);
        let assignment = ideal_assignment(&queues, &rates, iwl);
        assert!(assignment.iter().all(|&a| (a - 2.0).abs() < EPS));
    }

    #[test]
    fn heavily_loaded_servers_receive_nothing() {
        let queues = [100u64, 0, 0];
        let rates = [1.0, 1.0, 1.0];
        let iwl = compute_iwl(&queues, &rates, 10.0);
        assert!((iwl - 5.0).abs() < EPS);
        let assignment = ideal_assignment(&queues, &rates, iwl);
        assert!((assignment[0] - 0.0).abs() < EPS);
        assert!((assignment[1] - 5.0).abs() < EPS);
        assert!((assignment[2] - 5.0).abs() < EPS);
    }

    #[test]
    fn fractional_arrivals_are_supported() {
        // The SCD policy feeds the *estimated* arrivals, which can be any
        // positive real number.
        let iwl = compute_iwl(&[0, 0], &[1.0, 3.0], 2.5);
        assert!((iwl - 0.625).abs() < EPS);
    }

    #[test]
    fn conservation_holds_on_random_instances() {
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(2021);
        for _ in 0..200 {
            let n = rng.gen_range(1..40);
            let queues: Vec<u64> = (0..n).map(|_| rng.gen_range(0..50)).collect();
            let rates: Vec<f64> = (0..n).map(|_| rng.gen_range(0.5..20.0)).collect();
            let arrivals = rng.gen_range(0..200) as f64;
            let iwl = compute_iwl(&queues, &rates, arrivals);
            let assignment = ideal_assignment(&queues, &rates, iwl);
            let total: f64 = assignment.iter().sum();
            assert!(
                (total - arrivals).abs() < 1e-6 * (1.0 + arrivals),
                "conservation violated: assigned {total}, arrived {arrivals}"
            );
            assert!(assignment.iter().all(|&a| a >= -1e-9));
            // IWL is at least the pre-assignment minimum load.
            let min_load = queues
                .iter()
                .zip(&rates)
                .map(|(&q, &mu)| q as f64 / mu)
                .fold(f64::INFINITY, f64::min);
            assert!(iwl >= min_load - 1e-9);
        }
    }

    #[test]
    fn presorted_variant_matches_sorting_variant() {
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..100 {
            let n = rng.gen_range(1..30);
            let queues: Vec<u64> = (0..n).map(|_| rng.gen_range(0..20)).collect();
            let rates: Vec<f64> = (0..n).map(|_| rng.gen_range(0.5..10.0)).collect();
            let arrivals = rng.gen_range(0.0..50.0);
            let order = sorted_by_load(&queues, &rates);
            let a = compute_iwl(&queues, &rates, arrivals);
            let b = compute_iwl_with_order(&queues, &rates, arrivals, &order);
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn iwl_is_monotone_in_arrivals() {
        let queues = [5u64, 1, 0, 7];
        let rates = [2.0, 1.0, 4.0, 3.0];
        let mut last = 0.0;
        for a in 0..60 {
            let iwl = compute_iwl(&queues, &rates, a as f64);
            assert!(
                iwl + 1e-12 >= last,
                "IWL must not decrease as arrivals grow"
            );
            last = iwl;
        }
    }

    #[test]
    fn sorted_by_load_into_matches_the_allocating_sort() {
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(88);
        let mut scratch = Vec::new();
        for _ in 0..50 {
            let n = rng.gen_range(1..40);
            let queues: Vec<u64> = (0..n).map(|_| rng.gen_range(0..10)).collect();
            let rates: Vec<f64> = (0..n).map(|_| rng.gen_range(0.5..8.0)).collect();
            sorted_by_load_into(&queues, &rates, &mut scratch);
            assert_eq!(scratch, sorted_by_load(&queues, &rates));
        }
    }

    /// The incremental order's core guarantee: across long random drifting
    /// trajectories (including homogeneous clusters with many exact load
    /// ties), `repair` from the round's dirty set reproduces the cold stable
    /// sort **exactly** — same permutation, not merely an equivalent one —
    /// so Algorithm 3 over it is bit-identical to the cold path.
    #[test]
    fn repaired_order_is_identical_to_the_cold_sort() {
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x10AD);
        for case in 0..40 {
            let n = rng.gen_range(1..60);
            let rates: Vec<f64> = if case % 3 == 0 {
                vec![rng.gen_range(1..4) as f64; n]
            } else {
                (0..n).map(|_| rng.gen_range(0.5..10.0)).collect()
            };
            let mut queues: Vec<u64> = (0..n).map(|_| rng.gen_range(0..8)).collect();
            let mut order = LoadOrder::new();
            order.rebuild(&queues, &rates);
            for round in 0..120 {
                // Dirty a few servers (duplicates + unchanged allowed); every
                // changed server must be listed.
                let k = rng.gen_range(0..=n.min(6));
                let mut dirty: Vec<u32> = (0..k).map(|_| rng.gen_range(0..n) as u32).collect();
                for &s in dirty.clone().iter() {
                    if rng.gen_range(0..4) != 0 {
                        queues[s as usize] = rng.gen_range(0..8);
                    }
                }
                if k > 0 {
                    dirty.push(dirty[0]);
                }
                order.repair(&queues, &rates, &dirty);
                assert_eq!(
                    order.order(),
                    &sorted_by_load(&queues, &rates)[..],
                    "case {case} round {round}"
                );
                let arrivals = rng.gen_range(0.0..40.0);
                let warm = compute_iwl_with_order(&queues, &rates, arrivals, order.order());
                let cold = compute_iwl(&queues, &rates, arrivals);
                assert_eq!(
                    warm.to_bits(),
                    cold.to_bits(),
                    "case {case} round {round}: IWL over the repaired order diverged"
                );
            }
        }
    }

    #[test]
    fn repair_falls_back_to_rebuild_on_dense_or_stale_input() {
        let rates = [1.0, 2.0, 4.0, 8.0, 1.0, 2.0, 4.0, 8.0];
        let mut queues = [5u64, 4, 3, 2, 1, 0, 7, 6];
        let mut order = LoadOrder::new();
        // Uninitialized → rebuild despite the empty dirty set.
        order.repair(&queues, &rates, &[]);
        assert_eq!(order.order(), &sorted_by_load(&queues, &rates)[..]);
        assert_eq!(order.len(), 8);
        assert!(!order.is_empty());
        // Dense dirty set → re-sort path; result identical anyway.
        for (s, q) in queues.iter_mut().enumerate() {
            *q = (s as u64 * 3 + 1) % 7;
        }
        order.repair(&queues, &rates, &[0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(order.order(), &sorted_by_load(&queues, &rates)[..]);
        // Cluster-size change → rebuild.
        order.repair(&[1, 0], &[1.0, 1.0], &[]);
        assert_eq!(order.order(), &[1, 0]);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn load_order_rejects_mismatched_inputs() {
        LoadOrder::new().rebuild(&[1, 2], &[1.0]);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_inputs_panic() {
        compute_iwl(&[1, 2], &[1.0], 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn empty_cluster_panics() {
        compute_iwl(&[], &[], 1.0);
    }

    #[test]
    #[should_panic(expected = "finite non-negative")]
    fn negative_arrivals_panic() {
        compute_iwl(&[1], &[1.0], -1.0);
    }
}
