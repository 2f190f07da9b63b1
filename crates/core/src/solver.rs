//! Solvers for the stochastic-coordination optimization problem (Eq. 10 of
//! the paper).
//!
//! Given queue lengths `q_s`, rates `µ_s`, an (estimated) total number of
//! arrivals `a` and the ideal workload `iwl`, the problem is
//!
//! ```text
//!   minimize_P  f(P) = (a−1) Σ_s p_s²/µ_s + Σ_s (2(q_s − µ_s·iwl) + 1)/µ_s · p_s
//!   subject to  Σ_s p_s = 1,  p_s ≥ 0
//! ```
//!
//! The KKT analysis of Section 4 shows that the *probable set* `S⁺` (servers
//! with positive probability) is always a prefix of the servers sorted by
//! `(2q_s + 1)/µ_s` (Lemma 1 / Corollary 1), and that for a known `S⁺` the
//! solution is closed-form (Eq. 14–16). Two solvers exploit this:
//!
//! * [`compute_probabilities_quadratic`] — Algorithm 1: evaluates every
//!   prefix from scratch, `O(n²)`.
//! * [`compute_probabilities_fast`] — Algorithm 4: maintains running sums so
//!   each prefix costs `O(1)` (Lemma 2), `O(n log n)` total (or `O(n)` when
//!   the caller supplies the sorted order).
//!
//! Both return identical results (verified against each other and against an
//! exhaustive subset search in this module's tests and in `qp.rs`).
//!
//! Neither runs on the engine's dispatch path. Because `Σ_s p_s = 1`, the
//! IWL term of the objective, `−2·iwl·Σ_s p_s`, is a constant: `P*` depends
//! only on the Corollary 1 key order, and the dispatch kernel
//! ([`scd_model::ScdTable`]) finds it with one binary search over per-round
//! key-sorted prefix sums. Algorithms 1 and 4 (with the IWL of Algorithm 3)
//! and the single-job closed form stay as the kernel's test oracles and as
//! the per-decision baselines of Figures 5 and 8.

use crate::iwl::compute_iwl;
use scd_model::{ScdTable, SINGLE_JOB_THRESHOLD};
use std::error::Error;
use std::fmt;

/// Numerical slack used when testing primal feasibility (`p_s ≥ 0`).
const FEASIBILITY_TOLERANCE: f64 = 1e-9;

/// Which algorithm computes the dispatching probabilities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolverKind {
    /// The `O(log n)`-per-dispatcher kernel over the round's key-sorted
    /// table ([`scd_model::ScdTable`]) — the default used by SCD. The
    /// allocating [`solve`] entry point runs Algorithm 4 for this kind.
    Fast,
    /// Algorithm 1 — `O(n²)`; kept for the run-time comparison of Fig. 5/8.
    Quadratic,
}

impl fmt::Display for SolverKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolverKind::Fast => write!(f, "algorithm-4"),
            SolverKind::Quadratic => write!(f, "algorithm-1"),
        }
    }
}

/// Errors produced by the probability solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum SolverError {
    /// `queues` and `rates` differ in length, or the cluster is empty.
    InvalidCluster {
        /// Number of queue-length entries.
        queues: usize,
        /// Number of rate entries.
        rates: usize,
    },
    /// The arrival count was not a finite number `≥ 1`.
    InvalidArrivals(f64),
    /// No prefix of the candidate ordering was primal-feasible. This cannot
    /// happen for valid inputs (Corollary 1 guarantees a feasible prefix) and
    /// indicates catastrophic floating-point trouble.
    NoFeasiblePrefix,
}

impl fmt::Display for SolverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolverError::InvalidCluster { queues, rates } => write!(
                f,
                "invalid cluster description: {queues} queue lengths vs {rates} rates (both must be equal and non-zero)"
            ),
            SolverError::InvalidArrivals(a) => {
                write!(f, "estimated arrivals must be a finite number >= 1, got {a}")
            }
            SolverError::NoFeasiblePrefix => {
                write!(f, "no feasible prefix found; inputs are numerically degenerate")
            }
        }
    }
}

impl Error for SolverError {}

/// The full output of solving the SCD optimization problem for one round.
#[derive(Debug, Clone, PartialEq)]
pub struct ScdSolution {
    /// The optimal dispatching probabilities `P* = [p_1, …, p_n]`.
    pub probabilities: Vec<f64>,
    /// The ideal workload used as the balancing target.
    pub iwl: f64,
    /// The Lagrange multiplier `Λ₀` of the equality constraint; `None` when
    /// the single-job closed form (Eq. 9) was used.
    pub lambda0: Option<f64>,
    /// Size of the probable set `S⁺` (servers with positive probability).
    pub probable_set_size: usize,
    /// The value of the objective `f(P*)` (Eq. 10); 0.0 for the single-job
    /// closed form, whose objective is a different linear function.
    pub objective: f64,
}

/// Returns the server indices sorted in non-decreasing order of the key
/// `(2q_s + 1)/µ_s` — the candidate order of Corollary 1.
///
/// The keys are computed once and cached before sorting (the comparator
/// previously recomputed both keys on every comparison, i.e. `O(n log n)`
/// divisions instead of `O(n)`).
pub fn sorted_by_key(queues: &[u64], rates: &[f64]) -> Vec<usize> {
    let keys: Vec<f64> = queues
        .iter()
        .zip(rates)
        .map(|(&q, &mu)| (2.0 * q as f64 + 1.0) / mu)
        .collect();
    let mut order: Vec<usize> = (0..queues.len()).collect();
    order.sort_unstable_by(|&a, &b| keys[a].partial_cmp(&keys[b]).expect("keys are finite"));
    order
}

/// Reusable buffers for the cache-less SCD solve: a private dispatch table
/// ([`ScdTable`]), rebuilt from each call's snapshot.
#[derive(Debug, Clone, Default)]
pub struct ScdScratch {
    table: ScdTable,
}

/// Solves one SCD round without a shared cache, writing the distribution
/// into `probabilities` and reusing the scratch's buffers.
///
/// [`SolverKind::Fast`] runs the dispatch kernel ([`ScdTable`]) on a
/// private table, so the result is exactly the distribution an engine
/// dispatch samples; [`SolverKind::Quadratic`] runs Algorithm 1 after
/// Algorithm 3 (the run-time comparison baseline, which allocates).
///
/// # Errors
/// See [`SolverError`].
pub fn solve_round_into(
    queues: &[u64],
    rates: &[f64],
    arrivals: f64,
    kind: SolverKind,
    scratch: &mut ScdScratch,
    probabilities: &mut Vec<f64>,
) -> Result<(), SolverError> {
    validate(queues, rates, arrivals)?;
    match kind {
        SolverKind::Fast => {
            scratch.table.refresh(queues, rates, None);
            scratch.table.probabilities_into(arrivals, probabilities);
        }
        SolverKind::Quadratic => {
            let solution = solve(queues, rates, arrivals, kind)?;
            probabilities.clear();
            probabilities.extend_from_slice(&solution.probabilities);
        }
    }
    Ok(())
}

fn validate(queues: &[u64], rates: &[f64], arrivals: f64) -> Result<(), SolverError> {
    if queues.is_empty() || queues.len() != rates.len() {
        return Err(SolverError::InvalidCluster {
            queues: queues.len(),
            rates: rates.len(),
        });
    }
    if !arrivals.is_finite() || arrivals < 1.0 {
        return Err(SolverError::InvalidArrivals(arrivals));
    }
    Ok(())
}

/// Solves the full per-round problem: computes the IWL (Algorithm 3) and then
/// the optimal probabilities with the requested solver.
///
/// # Errors
/// See [`SolverError`].
pub fn solve(
    queues: &[u64],
    rates: &[f64],
    arrivals: f64,
    kind: SolverKind,
) -> Result<ScdSolution, SolverError> {
    validate(queues, rates, arrivals)?;
    let iwl = compute_iwl(queues, rates, arrivals);
    solve_with_iwl(queues, rates, arrivals, iwl, kind)
}

/// Like [`solve`] but with a caller-supplied ideal workload (useful when the
/// IWL is computed once and reused, as Algorithm 2 does).
///
/// # Errors
/// See [`SolverError`].
pub fn solve_with_iwl(
    queues: &[u64],
    rates: &[f64],
    arrivals: f64,
    iwl: f64,
    kind: SolverKind,
) -> Result<ScdSolution, SolverError> {
    validate(queues, rates, arrivals)?;
    if arrivals <= SINGLE_JOB_THRESHOLD {
        return Ok(single_job_solution(queues, rates, iwl));
    }
    match kind {
        SolverKind::Fast => {
            let order = sorted_by_key(queues, rates);
            fast_with_order(queues, rates, arrivals, iwl, &order)
        }
        SolverKind::Quadratic => quadratic(queues, rates, arrivals, iwl),
    }
}

/// Computes only the probability vector (convenience wrapper over
/// [`solve_with_iwl`]).
///
/// # Errors
/// See [`SolverError`].
///
/// # Example
/// ```
/// use scd_core::solver::{compute_probabilities, SolverKind};
/// use scd_core::iwl::compute_iwl;
/// let queues = [9u64, 0, 0, 0, 0, 0, 0, 0, 0];
/// let rates = [10.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
/// let iwl = compute_iwl(&queues, &rates, 7.0);
/// let p = compute_probabilities(&queues, &rates, 7.0, iwl, SolverKind::Fast).unwrap();
/// // Figure 2b: the fast server is above the IWL yet keeps probability ≈ 0.222.
/// assert!((p[0] - 2.0 / 9.0).abs() < 1e-6);
/// ```
pub fn compute_probabilities(
    queues: &[u64],
    rates: &[f64],
    arrivals: f64,
    iwl: f64,
    kind: SolverKind,
) -> Result<Vec<f64>, SolverError> {
    solve_with_iwl(queues, rates, arrivals, iwl, kind).map(|s| s.probabilities)
}

/// Algorithm 1: evaluates every candidate prefix from scratch (`O(n²)`).
///
/// # Errors
/// See [`SolverError`].
pub fn compute_probabilities_quadratic(
    queues: &[u64],
    rates: &[f64],
    arrivals: f64,
    iwl: f64,
) -> Result<ScdSolution, SolverError> {
    validate(queues, rates, arrivals)?;
    if arrivals <= SINGLE_JOB_THRESHOLD {
        return Ok(single_job_solution(queues, rates, iwl));
    }
    quadratic(queues, rates, arrivals, iwl)
}

/// Algorithm 4: maintains running sums so every prefix costs `O(1)`
/// (`O(n log n)` including the sort).
///
/// # Errors
/// See [`SolverError`].
pub fn compute_probabilities_fast(
    queues: &[u64],
    rates: &[f64],
    arrivals: f64,
    iwl: f64,
) -> Result<ScdSolution, SolverError> {
    validate(queues, rates, arrivals)?;
    if arrivals <= SINGLE_JOB_THRESHOLD {
        return Ok(single_job_solution(queues, rates, iwl));
    }
    let order = sorted_by_key(queues, rates);
    fast_with_order(queues, rates, arrivals, iwl, &order)
}

/// Algorithm 4 given a pre-computed candidate order (`O(n)`), as used by
/// Algorithm 2 when the sorted order is maintained incrementally.
///
/// `order` must list all server indices sorted by `(2q_s + 1)/µ_s`, e.g. as
/// produced by [`sorted_by_key`].
///
/// # Errors
/// See [`SolverError`].
pub fn compute_probabilities_fast_with_order(
    queues: &[u64],
    rates: &[f64],
    arrivals: f64,
    iwl: f64,
    order: &[usize],
) -> Result<ScdSolution, SolverError> {
    validate(queues, rates, arrivals)?;
    if arrivals <= SINGLE_JOB_THRESHOLD {
        return Ok(single_job_solution(queues, rates, iwl));
    }
    fast_with_order(queues, rates, arrivals, iwl, order)
}

/// Eq. 9: with a single arriving job no coordination is needed — all the
/// probability mass goes to the servers minimizing `(2q_s + 1)/µ_s`.
/// The mass may be split arbitrarily among ties; we split it uniformly, which
/// keeps the solution deterministic.
fn single_job_solution(queues: &[u64], rates: &[f64], iwl: f64) -> ScdSolution {
    let mut probabilities = Vec::with_capacity(queues.len());
    let probable_set_size = single_job_probabilities_into(queues, rates, &mut probabilities);
    ScdSolution {
        probabilities,
        iwl,
        lambda0: None,
        probable_set_size,
        objective: 0.0,
    }
}

/// Allocation-free body of the single-job closed form: two passes, one to
/// find the minimal key and count its ties, one to spread the mass.
/// Returns the probable-set size.
fn single_job_probabilities_into(queues: &[u64], rates: &[f64], out: &mut Vec<f64>) -> usize {
    let n = queues.len();
    let key = |i: usize| (2.0 * queues[i] as f64 + 1.0) / rates[i];
    let min_key = (0..n).map(key).fold(f64::INFINITY, f64::min);
    let tie = |i: usize| (key(i) - min_key).abs() <= 1e-12 * (1.0 + min_key.abs());
    let winners = (0..n).filter(|&i| tie(i)).count();
    let share = 1.0 / winners as f64;
    out.clear();
    out.extend((0..n).map(|i| if tie(i) { share } else { 0.0 }));
    winners
}

/// Shared closed-form pieces (Eq. 14 / Eq. 16).
#[inline]
fn probability_numerator(q: u64, mu: f64, iwl: f64, lambda0: f64) -> f64 {
    -2.0 * (q as f64 - mu * iwl) - 1.0 - mu * lambda0
}

fn quadratic(
    queues: &[u64],
    rates: &[f64],
    arrivals: f64,
    iwl: f64,
) -> Result<ScdSolution, SolverError> {
    let n = queues.len();
    let a = arrivals;
    let order = sorted_by_key(queues, rates);

    let mut best_val = f64::INFINITY;
    let mut best: Option<(Vec<f64>, f64, usize)> = None;

    // Candidate set O grows one server at a time in key order (Corollary 1).
    for j in 1..=n {
        let candidate = &order[..j];
        // Λ0 per Eq. 16, computed from scratch (this is what makes the
        // algorithm quadratic).
        let mut num = 0.0;
        let mut den = 0.0;
        for &s in candidate {
            num += 2.0 * (rates[s] * iwl - queues[s] as f64) - 1.0;
            den += rates[s];
        }
        num -= 2.0 * (a - 1.0);
        let lambda0 = num / den;

        // Probabilities per Eq. 14; reject the prefix if any is negative.
        let mut probs = vec![0.0; n];
        let mut feasible = true;
        for &s in candidate {
            let p = probability_numerator(queues[s], rates[s], iwl, lambda0) / (2.0 * (a - 1.0));
            if p < -FEASIBILITY_TOLERANCE {
                feasible = false;
                break;
            }
            probs[s] = p.max(0.0);
        }
        if !feasible {
            continue;
        }

        // Objective per Eq. 10 over the candidate set.
        let mut val = 0.0;
        for &s in candidate {
            let p = probs[s];
            val += (a - 1.0) * p * p / rates[s]
                + (2.0 * (queues[s] as f64 - rates[s] * iwl) + 1.0) / rates[s] * p;
        }
        if val < best_val {
            best_val = val;
            best = Some((probs, lambda0, j));
        }
    }

    let (mut probabilities, lambda0, prefix) = best.ok_or(SolverError::NoFeasiblePrefix)?;
    normalize(&mut probabilities);
    let _ = prefix;
    let probable_set_size = probabilities.iter().filter(|&&p| p > 0.0).count();
    Ok(ScdSolution {
        probabilities,
        iwl,
        lambda0: Some(lambda0),
        probable_set_size,
        objective: best_val,
    })
}

/// The scan of Algorithm 4: returns the optimal `(Λ0, objective)` pair for a
/// pre-sorted candidate order. Performs no heap allocations.
fn fast_lambda0(
    queues: &[u64],
    rates: &[f64],
    arrivals: f64,
    iwl: f64,
    order: &[usize],
) -> Result<(f64, f64), SolverError> {
    let n = queues.len();
    if order.len() != n {
        return Err(SolverError::InvalidCluster {
            queues: n,
            rates: order.len(),
        });
    }
    let a = arrivals;

    // Running sums for Λ0 (numerator / denominator of Eq. 16) and for the
    // objective value via Lemma 2 (v1, v2).
    let mut lambda_num = -2.0 * (a - 1.0);
    let mut lambda_den = 0.0;
    let mut v1 = 0.0;
    let mut v2 = 0.0;

    let mut best_val = f64::INFINITY;
    let mut best_lambda0 = f64::NAN;
    let mut found = false;

    for &r in order {
        let q = queues[r] as f64;
        let mu = rates[r];
        let key = (2.0 * q + 1.0) / mu;

        lambda_num += 2.0 * (mu * iwl - q) - 1.0;
        lambda_den += mu;
        let lambda0 = lambda_num / lambda_den;

        // NOTE: the paper's Algorithm 4 skips the v1/v2 update for infeasible
        // prefixes; that would corrupt the objective of later (feasible)
        // prefixes, so we accumulate unconditionally and only gate the
        // comparison (see DESIGN.md, "Algorithm 4 accumulator fix").
        v1 += mu / (4.0 * (a - 1.0));
        v2 += (2.0 * (q - mu * iwl) + 1.0).powi(2) / (4.0 * mu * (a - 1.0));

        // Primal feasibility needs testing only for the largest-key member of
        // the prefix, i.e. the server just added (Eq. 17, corrected to 2·iwl).
        let feasible = 2.0 * iwl - key >= lambda0 - FEASIBILITY_TOLERANCE;
        if !feasible {
            continue;
        }
        let val = v1 * lambda0 * lambda0 - v2;
        if val < best_val {
            best_val = val;
            best_lambda0 = lambda0;
            found = true;
        }
    }

    if !found {
        return Err(SolverError::NoFeasiblePrefix);
    }
    Ok((best_lambda0, best_val))
}

/// Materializes the probability vector for a known `Λ0` into `out` (cleared
/// first) and returns the probable-set size. Performs no heap allocations
/// beyond growing `out` to the cluster size once.
fn fill_probabilities(
    queues: &[u64],
    rates: &[f64],
    arrivals: f64,
    iwl: f64,
    lambda0: f64,
    out: &mut Vec<f64>,
) -> usize {
    let n = queues.len();
    out.clear();
    let mut probable_set_size = 0;
    for s in 0..n {
        let p = probability_numerator(queues[s], rates[s], iwl, lambda0) / (2.0 * (arrivals - 1.0));
        if p > 0.0 {
            probable_set_size += 1;
            out.push(p);
        } else {
            out.push(0.0);
        }
    }
    normalize(out);
    probable_set_size
}

fn fast_with_order(
    queues: &[u64],
    rates: &[f64],
    arrivals: f64,
    iwl: f64,
    order: &[usize],
) -> Result<ScdSolution, SolverError> {
    let (best_lambda0, best_val) = fast_lambda0(queues, rates, arrivals, iwl, order)?;
    let mut probabilities = Vec::with_capacity(queues.len());
    let probable_set_size = fill_probabilities(
        queues,
        rates,
        arrivals,
        iwl,
        best_lambda0,
        &mut probabilities,
    );
    Ok(ScdSolution {
        probabilities,
        iwl,
        lambda0: Some(best_lambda0),
        probable_set_size,
        objective: best_val,
    })
}

/// Rescales the probabilities so they sum to exactly 1, absorbing
/// floating-point drift. The drift is bounded by solver round-off and is
/// asserted (in debug builds) to be tiny.
fn normalize(probabilities: &mut [f64]) {
    let total: f64 = probabilities.iter().sum();
    debug_assert!(
        (total - 1.0).abs() < 1e-6,
        "solver produced probabilities summing to {total}"
    );
    if total > 0.0 {
        let inv_total = 1.0 / total;
        for p in probabilities.iter_mut() {
            *p *= inv_total;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iwl::compute_iwl;
    use crate::qp::{check_kkt, exhaustive_solution, objective};
    use rand::Rng;
    use rand::SeedableRng;
    use scd_model::RoundCache;

    fn both_solvers(queues: &[u64], rates: &[f64], a: f64) -> (ScdSolution, ScdSolution) {
        let iwl = compute_iwl(queues, rates, a);
        let fast = compute_probabilities_fast(queues, rates, a, iwl).unwrap();
        let quad = compute_probabilities_quadratic(queues, rates, a, iwl).unwrap();
        (fast, quad)
    }

    #[test]
    fn figure2_fast_server_keeps_positive_probability() {
        // One fast (µ=10, q=9) + eight slow (µ=1, q=0) servers, a = 7.
        let mut queues = vec![9u64];
        queues.extend(std::iter::repeat_n(0, 8));
        let mut rates = vec![10.0];
        rates.extend(std::iter::repeat_n(1.0, 8));

        let (fast, quad) = both_solvers(&queues, &rates, 7.0);
        for sol in [&fast, &quad] {
            assert!((sol.iwl - 0.875).abs() < 1e-9);
            // Analytical solution: p_fast = 2/9, p_slow = 7/72 each.
            assert!(
                (sol.probabilities[0] - 2.0 / 9.0).abs() < 1e-9,
                "fast-server probability {} should be 2/9",
                sol.probabilities[0]
            );
            for s in 1..9 {
                assert!((sol.probabilities[s] - 7.0 / 72.0).abs() < 1e-9);
            }
            // The fast server is above the IWL (0.9 > 0.875) yet in S+.
            assert_eq!(sol.probable_set_size, 9);
            // Expected number of jobs it receives ≈ 1.55 (the paper's Figure 2b).
            let expected_jobs = 7.0 * sol.probabilities[0];
            assert!((expected_jobs - 1.5555).abs() < 1e-3);
            // Expected post-dispatch workload of a slow server ≈ 0.68.
            let slow_wl = 7.0 * sol.probabilities[1] / 1.0;
            assert!((slow_wl - 0.68).abs() < 0.01);
        }
    }

    #[test]
    fn homogeneous_probable_set_is_below_iwl_servers() {
        // In a homogeneous system the probable set has the closed form
        // {s : q_s/µ < iwl} whenever those servers can absorb the arrivals.
        let queues = [0u64, 1, 2, 10, 10];
        let rates = [1.0; 5];
        let a = 6.0;
        let iwl = compute_iwl(&queues, &rates, a);
        assert!((iwl - 3.0).abs() < 1e-9);
        let sol = compute_probabilities_fast(&queues, &rates, a, iwl).unwrap();
        assert!(sol.probabilities[3] == 0.0 && sol.probabilities[4] == 0.0);
        assert!(sol.probabilities[0] > sol.probabilities[1]);
        assert!(sol.probabilities[1] > sol.probabilities[2]);
        let total: f64 = sol.probabilities.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_job_goes_to_minimal_key_server() {
        let queues = [5u64, 0, 3];
        let rates = [10.0, 1.0, 4.0];
        // keys: (2*5+1)/10 = 1.1, (2*0+1)/1 = 1.0, (2*3+1)/4 = 1.75.
        let iwl = compute_iwl(&queues, &rates, 1.0);
        let sol = solve_with_iwl(&queues, &rates, 1.0, iwl, SolverKind::Fast).unwrap();
        assert_eq!(sol.probabilities, vec![0.0, 1.0, 0.0]);
        assert_eq!(sol.lambda0, None);
        assert_eq!(sol.probable_set_size, 1);
        // The quadratic path takes the same branch.
        let sol2 = solve_with_iwl(&queues, &rates, 1.0, iwl, SolverKind::Quadratic).unwrap();
        assert_eq!(sol.probabilities, sol2.probabilities);
    }

    #[test]
    fn single_job_ties_are_split_uniformly() {
        let queues = [0u64, 0, 7];
        let rates = [1.0, 1.0, 1.0];
        let iwl = compute_iwl(&queues, &rates, 1.0);
        let sol = solve_with_iwl(&queues, &rates, 1.0, iwl, SolverKind::Fast).unwrap();
        assert!((sol.probabilities[0] - 0.5).abs() < 1e-12);
        assert!((sol.probabilities[1] - 0.5).abs() < 1e-12);
        assert_eq!(sol.probabilities[2], 0.0);
    }

    #[test]
    fn two_jobs_on_empty_homogeneous_pair_split_evenly() {
        let queues = [0u64, 0];
        let rates = [1.0, 1.0];
        let (fast, quad) = both_solvers(&queues, &rates, 2.0);
        for sol in [fast, quad] {
            assert!((sol.probabilities[0] - 0.5).abs() < 1e-12);
            assert!((sol.probabilities[1] - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn fast_and_quadratic_agree_on_random_instances() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        for _ in 0..300 {
            let n = rng.gen_range(1..60);
            let queues: Vec<u64> = (0..n).map(|_| rng.gen_range(0..30)).collect();
            let rates: Vec<f64> = (0..n).map(|_| rng.gen_range(0.5..20.0)).collect();
            let a = rng.gen_range(2..200) as f64;
            let iwl = compute_iwl(&queues, &rates, a);
            let fast = compute_probabilities_fast(&queues, &rates, a, iwl).unwrap();
            let quad = compute_probabilities_quadratic(&queues, &rates, a, iwl).unwrap();
            for (pf, pq) in fast.probabilities.iter().zip(&quad.probabilities) {
                assert!(
                    (pf - pq).abs() < 1e-6,
                    "solvers disagree: {pf} vs {pq} (n={n}, a={a})"
                );
            }
            let of = objective(&fast.probabilities, &queues, &rates, a, iwl);
            let oq = objective(&quad.probabilities, &queues, &rates, a, iwl);
            assert!((of - oq).abs() < 1e-6);
        }
    }

    #[test]
    fn solvers_match_exhaustive_search_on_small_instances() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4242);
        for _ in 0..150 {
            let n = rng.gen_range(1..9);
            let queues: Vec<u64> = (0..n).map(|_| rng.gen_range(0..12)).collect();
            let rates: Vec<f64> = (0..n).map(|_| rng.gen_range(0.5..10.0)).collect();
            let a = rng.gen_range(2..40) as f64;
            let iwl = compute_iwl(&queues, &rates, a);
            let fast = compute_probabilities_fast(&queues, &rates, a, iwl).unwrap();
            let reference = exhaustive_solution(&queues, &rates, a, iwl);
            let fast_obj = objective(&fast.probabilities, &queues, &rates, a, iwl);
            let ref_obj = objective(&reference, &queues, &rates, a, iwl);
            assert!(
                fast_obj <= ref_obj + 1e-7,
                "fast solver is suboptimal: {fast_obj} vs exhaustive {ref_obj}"
            );
            for (pf, pr) in fast.probabilities.iter().zip(&reference) {
                assert!((pf - pr).abs() < 1e-5, "probabilities differ: {pf} vs {pr}");
            }
        }
    }

    #[test]
    fn solutions_satisfy_kkt_conditions() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        for _ in 0..100 {
            let n = rng.gen_range(2..40);
            let queues: Vec<u64> = (0..n).map(|_| rng.gen_range(0..25)).collect();
            let rates: Vec<f64> = (0..n).map(|_| rng.gen_range(0.5..15.0)).collect();
            let a = rng.gen_range(2..100) as f64;
            let iwl = compute_iwl(&queues, &rates, a);
            let sol = compute_probabilities_fast(&queues, &rates, a, iwl).unwrap();
            check_kkt(&sol.probabilities, &queues, &rates, a, iwl, 1e-6)
                .expect("fast solution violates KKT");
        }
    }

    #[test]
    fn probable_set_is_a_prefix_of_the_key_order() {
        // Lemma 1 / Corollary 1: S+ is a prefix of the servers sorted by
        // (2q+1)/µ.
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for _ in 0..100 {
            let n = rng.gen_range(2..30);
            let queues: Vec<u64> = (0..n).map(|_| rng.gen_range(0..20)).collect();
            let rates: Vec<f64> = (0..n).map(|_| rng.gen_range(0.5..10.0)).collect();
            let a = rng.gen_range(2..60) as f64;
            let iwl = compute_iwl(&queues, &rates, a);
            let sol = compute_probabilities_fast(&queues, &rates, a, iwl).unwrap();
            let order = sorted_by_key(&queues, &rates);
            let mut seen_zero = false;
            for &s in &order {
                if sol.probabilities[s] <= 0.0 {
                    seen_zero = true;
                } else {
                    assert!(
                        !seen_zero,
                        "positive probability after a zero in key order — S+ is not a prefix"
                    );
                }
            }
        }
    }

    #[test]
    fn presorted_fast_variant_matches() {
        let queues = [4u64, 0, 2, 9, 1];
        let rates = [2.0, 1.0, 5.0, 3.0, 1.5];
        let a = 11.0;
        let iwl = compute_iwl(&queues, &rates, a);
        let auto = compute_probabilities_fast(&queues, &rates, a, iwl).unwrap();
        let order = sorted_by_key(&queues, &rates);
        let manual =
            compute_probabilities_fast_with_order(&queues, &rates, a, iwl, &order).unwrap();
        assert_eq!(auto.probabilities, manual.probabilities);
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        assert!(matches!(
            solve(&[], &[], 2.0, SolverKind::Fast),
            Err(SolverError::InvalidCluster { .. })
        ));
        assert!(matches!(
            solve(&[1, 2], &[1.0], 2.0, SolverKind::Fast),
            Err(SolverError::InvalidCluster { .. })
        ));
        assert!(matches!(
            solve(&[1], &[1.0], 0.0, SolverKind::Fast),
            Err(SolverError::InvalidArrivals(_))
        ));
        assert!(matches!(
            solve(&[1], &[1.0], f64::NAN, SolverKind::Fast),
            Err(SolverError::InvalidArrivals(_))
        ));
        // Mismatched order length.
        let err = compute_probabilities_fast_with_order(&[1, 2], &[1.0, 1.0], 3.0, 1.0, &[0])
            .unwrap_err();
        assert!(matches!(err, SolverError::InvalidCluster { .. }));
    }

    #[test]
    fn solve_round_into_matches_allocating_path() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(31337);
        let mut scratch = ScdScratch::default();
        let mut probs = Vec::new();
        for case in 0..200 {
            let n = rng.gen_range(1..50);
            let queues: Vec<u64> = (0..n).map(|_| rng.gen_range(0..30)).collect();
            let rates: Vec<f64> = (0..n).map(|_| rng.gen_range(0.5..20.0)).collect();
            // Include the single-job closed form every few cases.
            let a = if case % 5 == 0 {
                1.0
            } else {
                rng.gen_range(2..150) as f64
            };
            for kind in [SolverKind::Fast, SolverKind::Quadratic] {
                let reference = solve(&queues, &rates, a, kind).unwrap();
                solve_round_into(&queues, &rates, a, kind, &mut scratch, &mut probs).unwrap();
                assert_eq!(probs.len(), reference.probabilities.len());
                for (got, want) in probs.iter().zip(&reference.probabilities) {
                    assert!(
                        (got - want).abs() < 1e-12,
                        "case {case} ({kind}): {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn cached_tables_reproduce_the_scratch_path_bit_for_bit() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5EED);
        let mut scratch = ScdScratch::default();
        let mut cache = RoundCache::new();
        let mut probs_scratch = Vec::new();
        let mut probs_cached = Vec::new();
        for case in 0..200 {
            let n = rng.gen_range(1..60);
            let queues: Vec<u64> = (0..n).map(|_| rng.gen_range(0..30)).collect();
            // Every third case draws from three rates, so small shallow
            // snapshots take the class-grouped table.
            let rates: Vec<f64> = if case % 3 == 0 {
                (0..n)
                    .map(|_| [1.0, 2.0, 4.0][rng.gen_range(0..3)])
                    .collect()
            } else {
                (0..n).map(|_| rng.gen_range(0.5..20.0)).collect()
            };
            let a = if case % 7 == 0 {
                1.0
            } else {
                rng.gen_range(2..150) as f64
            };
            cache.begin_round(&queues, &rates);
            solve_round_into(
                &queues,
                &rates,
                a,
                SolverKind::Fast,
                &mut scratch,
                &mut probs_scratch,
            )
            .unwrap();
            cache
                .scd_table()
                .unwrap()
                .probabilities_into(a, &mut probs_cached);
            // Bit-identical, not merely close: both tables are the same
            // pure function of the snapshot.
            assert_eq!(probs_scratch.len(), probs_cached.len());
            for (s, (pa, pb)) in probs_scratch.iter().zip(&probs_cached).enumerate() {
                assert_eq!(
                    pa.to_bits(),
                    pb.to_bits(),
                    "case {case}: p[{s}] {pa} vs {pb}"
                );
            }
        }
    }

    #[test]
    fn one_table_build_serves_every_dispatcher_of_a_round() {
        // m = 10 dispatchers sharing one round snapshot: the first builds
        // the round's table, the other nine are served from it, and every
        // one returns bit-for-bit the private solve's output.
        let queues = [7u64, 0, 3, 1, 0, 9];
        let rates = [4.0, 1.0, 2.5, 1.0, 8.0, 0.5];
        let mut cache = RoundCache::new();
        cache.begin_round(&queues, &rates);
        let a_est = 30.0; // m·a(d) with equal a(d)
        let mut reference = Vec::new();
        solve_round_into(
            &queues,
            &rates,
            a_est,
            SolverKind::Fast,
            &mut ScdScratch::default(),
            &mut reference,
        )
        .unwrap();
        let mut probs = Vec::new();
        for dispatcher in 0..10 {
            cache
                .scd_table()
                .unwrap()
                .probabilities_into(a_est, &mut probs);
            assert_eq!(probs.len(), reference.len());
            for (s, (got, want)) in probs.iter().zip(&reference).enumerate() {
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "dispatcher {dispatcher}: p[{s}]"
                );
            }
        }
        assert_eq!(cache.solver_memo_stats(), (9, 1));
    }

    #[test]
    fn one_table_answers_every_estimate_until_the_next_round() {
        let queues = [4u64, 0, 2];
        let rates = [2.0, 1.0, 5.0];
        let mut cache = RoundCache::new();
        cache.begin_round(&queues, &rates);
        // Three distinct estimates, each solved twice, all from one table;
        // each estimate gets its own distribution.
        let mut seen: Vec<Vec<f64>> = Vec::new();
        for _ in 0..2 {
            for a_est in [5.0, 10.0, 15.0] {
                let mut probs = Vec::new();
                cache
                    .scd_table()
                    .unwrap()
                    .probabilities_into(a_est, &mut probs);
                let reference = solve(&queues, &rates, a_est, SolverKind::Fast).unwrap();
                for (got, want) in probs.iter().zip(&reference.probabilities) {
                    assert!((got - want).abs() < 1e-12, "a = {a_est}");
                }
                seen.push(probs);
            }
        }
        assert_ne!(seen[0], seen[1]);
        assert_ne!(seen[1], seen[2]);
        assert_eq!(seen[0], seen[3]);
        assert_eq!(cache.solver_memo_stats(), (5, 1));
        // A new round rebuilds the table against the fresh snapshot.
        cache.begin_round(&[9, 9, 9], &rates);
        let mut fresh = Vec::new();
        cache
            .scd_table()
            .unwrap()
            .probabilities_into(5.0, &mut fresh);
        assert_eq!(cache.solver_memo_stats(), (5, 2));
        let reference = solve(&[9, 9, 9], &rates, 5.0, SolverKind::Fast).unwrap();
        for (got, want) in fresh.iter().zip(&reference.probabilities) {
            assert!((got - want).abs() < 1e-12);
        }
    }

    #[test]
    fn round_table_covers_the_single_job_closed_form() {
        let queues = [5u64, 0, 3];
        let rates = [10.0, 1.0, 4.0];
        let mut cache = RoundCache::new();
        cache.begin_round(&queues, &rates);
        let mut probs = Vec::new();
        for _ in 0..3 {
            cache
                .scd_table()
                .unwrap()
                .probabilities_into(1.0, &mut probs);
            assert_eq!(probs, vec![0.0, 1.0, 0.0]);
        }
        assert_eq!(cache.solver_memo_stats(), (2, 1));
    }

    #[test]
    fn round_table_describes_its_own_cluster_and_needs_the_solver_demand() {
        // The table describes the cluster the cache was refreshed from.
        let mut cache = RoundCache::new();
        cache.begin_round(&[1, 2], &[1.0, 2.0]);
        assert_eq!(cache.scd_table().unwrap().num_servers(), 2);
        // A cache refreshed without the solver tables has none.
        cache.begin_round_for(&[1, 2], &[1.0, 2.0], scd_model::CacheDemand::None);
        assert!(cache.scd_table().is_none());
    }

    /// A homogeneous state whose probable-set boundary falls exactly on a
    /// key shared by four servers (the servers with q = 5).
    fn boundary_instance() -> (Vec<u64>, Vec<f64>) {
        let queues: Vec<u64> = vec![10, 8, 7, 0, 8, 0, 9, 2, 0, 5, 11, 5, 5, 7, 7, 5, 9, 4, 9, 1];
        (queues, vec![3.0f64; 20])
    }

    #[test]
    fn trimming_terminates_on_boundary_oscillation_instance() {
        // Regression instance of the former iterative solver (its fixpoint
        // bounced between two representable values here); the kernel must
        // match the sorted Algorithm 4 solution.
        let (queues, rates) = boundary_instance();
        let a = 44.0;
        let reference = solve(&queues, &rates, a, SolverKind::Fast).unwrap();
        let mut probs = Vec::new();
        solve_round_into(
            &queues,
            &rates,
            a,
            SolverKind::Fast,
            &mut ScdScratch::default(),
            &mut probs,
        )
        .unwrap();
        for (got, want) in probs.iter().zip(&reference.probabilities) {
            assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        }
    }

    #[test]
    fn scratch_survives_cluster_size_changes() {
        let mut scratch = ScdScratch::default();
        let mut probs = Vec::new();
        for n in [5usize, 12, 3, 12, 40, 1] {
            let queues: Vec<u64> = (0..n as u64).collect();
            let rates: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            let reference = solve(&queues, &rates, 9.0, SolverKind::Fast).unwrap();
            solve_round_into(
                &queues,
                &rates,
                9.0,
                SolverKind::Fast,
                &mut scratch,
                &mut probs,
            )
            .unwrap();
            assert_eq!(probs.len(), n);
            for (got, want) in probs.iter().zip(&reference.probabilities) {
                assert!((got - want).abs() < 1e-12, "n={n}: {got} vs {want}");
            }
        }
    }

    /// The delta-round guarantee at the unit level: over long drifting
    /// queue trajectories (a few servers change per round, like the
    /// engine's rounds), a table repaired from the dirty sets returns
    /// bit-for-bit the distribution of one re-sorted every round, and the
    /// repair path actually engages.
    #[test]
    fn repaired_tables_are_bit_identical_to_resorted_over_drifting_rounds() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5A3D);
        for case in 0..30 {
            let n = rng.gen_range(2..80);
            // Mix of heterogeneous and homogeneous clusters — the latter
            // produce exact key ties and class-grouped rounds.
            let rates: Vec<f64> = if case % 3 == 0 {
                vec![rng.gen_range(1..5) as f64; n]
            } else {
                (0..n).map(|_| rng.gen_range(0.5..20.0)).collect()
            };
            let mut queues: Vec<u64> = (0..n).map(|_| rng.gen_range(0..15)).collect();
            let mut warm_cache = RoundCache::new();
            let mut cold_cache = RoundCache::new();
            let demand = scd_model::CacheDemand::SolverTables;
            warm_cache.begin_round(&queues, &rates);
            let mut warm_probs = Vec::new();
            let mut cold_probs = Vec::new();
            for round in 0..120 {
                // Drift a handful of queues (including occasional spikes).
                let mut dirty = Vec::new();
                for _ in 0..rng.gen_range(0..n.div_ceil(8) + 1) {
                    let s = rng.gen_range(0..n);
                    queues[s] = if rng.gen_range(0..4) == 0 {
                        rng.gen_range(0..30)
                    } else {
                        (queues[s] + rng.gen_range(0..3)).saturating_sub(rng.gen_range(0..3))
                    };
                    dirty.push(s as u32);
                }
                warm_cache.begin_round_delta(&queues, &rates, &dirty, demand);
                cold_cache.begin_round(&queues, &rates);
                // A couple of nearby estimates per round, like m dispatchers
                // whose batch sizes fluctuate.
                for _ in 0..3 {
                    let a = if rng.gen_range(0..10) == 0 {
                        1.0
                    } else {
                        rng.gen_range(2..60) as f64 + f64::from(rng.gen_range(0..2))
                    };
                    let warm = warm_cache.scd_table().unwrap();
                    warm.probabilities_into(a, &mut warm_probs);
                    let cold = cold_cache.scd_table().unwrap();
                    cold.probabilities_into(a, &mut cold_probs);
                    assert_eq!(warm_probs.len(), cold_probs.len());
                    for (s, (w, c)) in warm_probs.iter().zip(&cold_probs).enumerate() {
                        assert_eq!(
                            w.to_bits(),
                            c.to_bits(),
                            "case {case} round {round}: p[{s}] {w} vs {c}"
                        );
                    }
                }
            }
            if case % 3 != 0 {
                let (repairs, _resorts) = warm_cache.warm_seeds().stats();
                assert!(
                    repairs > 0,
                    "case {case}: repair path never engaged over 120 drifting rounds"
                );
            }
        }
    }

    #[test]
    fn warm_scratch_path_matches_cold_scratch_path_bit_for_bit() {
        // A scratch reused across rounds ("warm" buffers) answers exactly
        // like a fresh one.
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xB007);
        let n = 40usize;
        let rates: Vec<f64> = (0..n).map(|_| rng.gen_range(0.5..10.0)).collect();
        let mut queues: Vec<u64> = (0..n).map(|_| rng.gen_range(0..12)).collect();
        let mut warm_scratch = ScdScratch::default();
        let mut warm_probs = Vec::new();
        let mut cold_probs = Vec::new();
        for round in 0..200 {
            let s = rng.gen_range(0..n);
            queues[s] = rng.gen_range(0..12);
            let a = rng.gen_range(2..40) as f64;
            let kind = SolverKind::Fast;
            solve_round_into(&queues, &rates, a, kind, &mut warm_scratch, &mut warm_probs).unwrap();
            let mut cold_scratch = ScdScratch::default();
            solve_round_into(&queues, &rates, a, kind, &mut cold_scratch, &mut cold_probs).unwrap();
            for (w, c) in warm_probs.iter().zip(&cold_probs) {
                assert_eq!(w.to_bits(), c.to_bits(), "round {round}");
            }
        }
    }

    #[test]
    fn repaired_tables_reach_the_boundary_oscillation_instance() {
        // Reach the boundary instance by repairs from nearby states — each
        // repaired table must equal the re-sorted one, bit for bit.
        let (target, rates) = boundary_instance();
        let mut cold = Vec::new();
        solve_round_into(
            &target,
            &rates,
            44.0,
            SolverKind::Fast,
            &mut ScdScratch::default(),
            &mut cold,
        )
        .unwrap();
        for shifted in 0..target.len() {
            let mut start = target.clone();
            start[shifted] += 3;
            let mut cache = RoundCache::new();
            cache.begin_round(&start, &rates);
            cache.scd_table();
            let demand = scd_model::CacheDemand::SolverTables;
            cache.begin_round_delta(&target, &rates, &[shifted as u32], demand);
            let mut warm = Vec::new();
            cache
                .scd_table()
                .unwrap()
                .probabilities_into(44.0, &mut warm);
            for (w, c) in warm.iter().zip(&cold) {
                assert_eq!(w.to_bits(), c.to_bits(), "shifted server {shifted}");
            }
        }
    }

    #[test]
    fn quadratic_kind_ignores_warm_seeds() {
        // The Algorithm 1 baseline solves every decision itself: dispatching
        // from a context that carries the round cache neither builds nor
        // reads the round's table, and samples the quadratic solution.
        use scd_model::{DispatchContext, DispatchPolicy};
        let queues = [4u64, 0, 2];
        let rates = [2.0, 1.0, 5.0];
        let mut cache = RoundCache::new();
        cache.begin_round(&queues, &rates);
        let ctx = DispatchContext::with_cache(&queues, &rates, 1, 0, &cache);
        let mut policy = crate::ScdPolicy::with_options(
            crate::ArrivalEstimator::Constant(7.0),
            SolverKind::Quadratic,
        );
        let reference = solve(&queues, &rates, 7.0, SolverKind::Quadratic).unwrap();
        let probs = policy.distribution(&ctx, 7);
        for (got, want) in probs.iter().zip(&reference.probabilities) {
            assert!((got - want).abs() < 1e-12);
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let picks = policy.dispatch_batch(&ctx, 7, &mut rng);
        assert_eq!(picks.len(), 7);
        for s in picks {
            assert!(reference.probabilities[s.index()] > 0.0);
        }
        assert_eq!(cache.warm_seeds().stats(), (0, 0));
        assert_eq!(cache.solver_memo_stats(), (0, 0));
    }

    #[test]
    fn solver_kind_display_names() {
        assert_eq!(SolverKind::Fast.to_string(), "algorithm-4");
        assert_eq!(SolverKind::Quadratic.to_string(), "algorithm-1");
    }

    #[test]
    fn single_server_cluster_gets_probability_one() {
        let (fast, quad) = both_solvers(&[42], &[3.0], 9.0);
        assert_eq!(fast.probabilities, vec![1.0]);
        assert_eq!(quad.probabilities, vec![1.0]);
    }

    #[test]
    fn extreme_heterogeneity_remains_stable_numerically() {
        let queues = [1000u64, 0, 0];
        let rates = [1000.0, 0.001, 0.001];
        let a = 50.0;
        let iwl = compute_iwl(&queues, &rates, a);
        let sol = compute_probabilities_fast(&queues, &rates, a, iwl).unwrap();
        let total: f64 = sol.probabilities.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(sol.probabilities.iter().all(|&p| (0.0..=1.0).contains(&p)));
        // Virtually all mass must go to the fast server: the slow servers can
        // barely serve anything.
        assert!(sol.probabilities[0] > 0.9);
    }

    /// A compressible heterogeneous snapshot: two hardware generations,
    /// bounded queues — the case class groups exist for.
    fn bimodal_cluster(n: usize) -> (Vec<u64>, Vec<f64>) {
        let queues: Vec<u64> = (0..n).map(|s| ((s * 7 + 3) % 11) as u64).collect();
        let rates: Vec<f64> = (0..n).map(|s| if s % 3 == 0 { 4.0 } else { 1.0 }).collect();
        (queues, rates)
    }

    /// `trials` draws from a freshly built table, as per-server frequencies.
    fn frequencies(table: &ScdTable, a: f64, batch: usize, trials: usize, seed: u64) -> Vec<f64> {
        use rand::rngs::StdRng;
        let mut counts = vec![0u64; table.num_servers()];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut draws = scd_model::DrawScratch::default();
        for _ in 0..trials / batch {
            table.dispatch(a, batch, &mut draws, &mut rng, |s| counts[s] += 1);
        }
        let total: u64 = counts.iter().sum();
        counts.iter().map(|&c| c as f64 / total as f64).collect()
    }

    #[test]
    fn compressed_kernel_samples_the_dense_distribution() {
        let (queues, rates) = bimodal_cluster(120);
        let a = 24.0;
        let mut table = ScdTable::new();
        table.refresh(&queues, &rates, None);
        assert!(table.uses_classes(), "the bimodal snapshot groups by class");
        // The per-server reference: Algorithm 4.
        let dense = solve(&queues, &rates, a, SolverKind::Fast)
            .unwrap()
            .probabilities;
        let (prefix, _) = table.probable_prefix(a);
        // Small batches take the inverse-CDF search, batches beyond the
        // probable prefix the alias table; both sample `dense`.
        for batch in [1, prefix + 1] {
            let freq = frequencies(&table, a, batch, 200_000, 0xC0DE);
            for (s, (&f, &p)) in freq.iter().zip(&dense).enumerate() {
                assert!(
                    (f - p).abs() < 0.01,
                    "batch {batch}, server {s}: {f} vs {p}"
                );
            }
        }
    }

    #[test]
    fn compressed_kernel_memo_hits_replay_the_same_table() {
        use rand::rngs::StdRng;
        let (queues, rates) = bimodal_cluster(40);
        let mut cache = RoundCache::new();
        cache.begin_round(&queues, &rates);
        // Two dispatchers with identical RNG streams draw identical
        // destinations: the first builds the round's table, the second is
        // served from it.
        let mut draws = scd_model::DrawScratch::default();
        let mut runs = Vec::new();
        for _ in 0..2 {
            let mut out = Vec::new();
            let table = cache.scd_table().unwrap();
            table.dispatch(12.0, 500, &mut draws, &mut StdRng::seed_from_u64(9), |s| {
                out.push(s)
            });
            runs.push(out);
        }
        assert_eq!(runs[0], runs[1]);
        assert_eq!(cache.solver_memo_stats(), (1, 1));
    }

    #[test]
    fn compressed_kernel_declines_unviable_and_quadratic_rounds() {
        // All-distinct rates: the cell table R·(q_max + 1) exceeds n/4 even
        // for empty queues, so every server is its own group.
        let n = 64usize;
        let rates: Vec<f64> = (0..n).map(|s| 1.0 + s as f64 * 0.01).collect();
        let mut table = ScdTable::new();
        table.refresh(&vec![0; n], &rates, None);
        assert!(!table.uses_classes());
        assert_eq!(table.num_groups(), n);
        // Two rates with q_max = 7: 2·8 = 16 cells fit in 64/4.
        let (queues, rates) = bimodal_cluster(64);
        let shallow: Vec<u64> = queues.iter().map(|&q| q % 8).collect();
        table.refresh(&shallow, &rates, None);
        assert!(table.uses_classes());
        assert!(table.num_groups() <= 16);
        // q_max = 10: 22 cells do not.
        table.refresh(&queues, &rates, None);
        assert!(!table.uses_classes());
        // The quadratic baseline measures the dense algorithm: it matches
        // the allocating solve and never builds a table.
        let mut scratch = ScdScratch::default();
        let mut probs = Vec::new();
        let kind = SolverKind::Quadratic;
        solve_round_into(&shallow, &rates, 8.0, kind, &mut scratch, &mut probs).unwrap();
        let reference = solve(&shallow, &rates, 8.0, kind).unwrap();
        for (got, want) in probs.iter().zip(&reference.probabilities) {
            assert!((got - want).abs() < 1e-12);
        }
        assert_eq!(scratch.table.num_servers(), 0, "no table was built");
    }

    #[test]
    fn compressed_single_job_spreads_uniformly_over_min_key_ties() {
        // Four idle µ=2 servers share the minimal key; everyone else is
        // excluded by the single-job closed form. Class and per-server
        // groups must agree.
        let queues = [0u64, 3, 0, 1, 0, 3, 0, 1];
        let rates = [2.0, 2.0, 2.0, 1.0, 2.0, 2.0, 2.0, 1.0];
        let winners = [0usize, 2, 4, 6];
        let mut table = ScdTable::new();
        for copies in [1usize, 8] {
            // Eight copies of the cluster make its 2·4 cells fit in n/4.
            let q: Vec<u64> = queues.repeat(copies);
            let r: Vec<f64> = rates.repeat(copies);
            table.refresh(&q, &r, None);
            assert_eq!(table.uses_classes(), copies == 8);
            let freq = frequencies(&table, 1.0, 1, 40_000, 77);
            for (s, &f) in freq.iter().enumerate() {
                if winners.contains(&(s % 8)) {
                    let share = 1.0 / (4 * copies) as f64;
                    assert!((f - share).abs() < 0.01, "winner {s} drew {f}");
                } else {
                    assert_eq!(f, 0.0, "non-minimal server {s} must never be drawn");
                }
            }
        }
    }

    #[test]
    fn grouped_trimming_matches_the_dense_fixpoints() {
        // Class groups and per-server groups solve the same problem; only
        // the summation grouping differs.
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x6E0);
        for case in 0..60 {
            let n = rng.gen_range(48..160);
            let rates: Vec<f64> = (0..n)
                .map(|_| [1.0, 2.0, 4.0][rng.gen_range(0..3)])
                .collect();
            let queues: Vec<u64> = (0..n).map(|_| rng.gen_range(0..4)).collect();
            let arrivals = rng.gen_range(1.5..40.0);
            let mut grouped = ScdTable::new();
            grouped.refresh(&queues, &rates, None);
            assert!(grouped.uses_classes(), "case {case} must group by class");
            let mut p = Vec::new();
            grouped.probabilities_into(arrivals, &mut p);
            let dense = solve(&queues, &rates, arrivals, SolverKind::Fast).unwrap();
            for (s, (got, want)) in p.iter().zip(&dense.probabilities).enumerate() {
                assert!(
                    (got - want).abs() < 1e-12,
                    "case {case}, server {s}: grouped {got} vs dense {want}"
                );
            }
        }
    }
}
