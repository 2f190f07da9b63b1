//! The SCD dispatch kernel (`scd_model::ScdTable`) against its oracles —
//! Algorithm 4, Algorithm 1 (n ≤ 64) and the KKT conditions of Eq. 10
//! (`scd_core::qp::check_kkt`) — on randomized snapshots from both group
//! sources and at the numerical extremes: queues near 2⁴⁰, rate ratios of
//! 10⁶, arrival estimates approaching the single-job boundary `a → 1⁺`, and
//! keys tied exactly at the probable-prefix threshold.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scd_core::iwl::compute_iwl;
use scd_core::qp::check_kkt;
use scd_core::solver::{compute_probabilities_quadratic, solve, SolverKind};
use scd_model::{DrawScratch, ScdTable};

/// The kernel's per-server distribution on a freshly sorted table, and
/// whether the table grouped servers by class.
fn kernel(queues: &[u64], rates: &[f64], a: f64) -> (Vec<f64>, bool) {
    let mut table = ScdTable::new();
    table.refresh(queues, rates, None);
    let mut p = Vec::new();
    table.probabilities_into(a, &mut p);
    (p, table.uses_classes())
}

fn max_gap(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Checks `p` against Algorithm 4 (to `tol`), Algorithm 1 for n ≤ 64 (to
/// `tol`) and the KKT conditions of the `(queues, rates, a)` problem.
fn assert_optimal(p: &[f64], queues: &[u64], rates: &[f64], a: f64, tol: f64, what: &str) {
    let alg4 = solve(queues, rates, a, SolverKind::Fast).unwrap();
    let gap = max_gap(p, &alg4.probabilities);
    assert!(gap <= tol, "{what}: |p − p_Alg4| = {gap:e}");
    if queues.len() <= 64 {
        let iwl = compute_iwl(queues, rates, a);
        let alg1 = compute_probabilities_quadratic(queues, rates, a, iwl).unwrap();
        let gap = max_gap(p, &alg1.probabilities);
        assert!(gap <= tol, "{what}: |p − p_Alg1| = {gap:e}");
    }
    let iwl = compute_iwl(queues, rates, a);
    check_kkt(p, queues, rates, a, iwl, 1e-9).unwrap_or_else(|v| panic!("{what}: {v:?}"));
}

#[test]
fn kernel_matches_the_oracles_on_random_snapshots_from_both_group_sources() {
    let mut rng = StdRng::seed_from_u64(0x4E_7E1);
    let mut seen = [0usize; 2];
    for case in 0..400 {
        let n = rng.gen_range(1..200);
        // Even cases: a few hardware generations and shallow queues, so the
        // cell table fits and classes are the groups (with exact key ties
        // inside every class). Odd cases: continuous rates, single servers,
        // with a homogeneous stretch for exact ties across servers.
        let (queues, rates): (Vec<u64>, Vec<f64>) = if case % 2 == 0 {
            let generations = [1.0, 2.0, 3.0, 4.5];
            (
                (0..n).map(|_| rng.gen_range(0..4)).collect(),
                (0..n).map(|_| generations[rng.gen_range(0..4)]).collect(),
            )
        } else {
            (
                (0..n).map(|_| rng.gen_range(0..30)).collect(),
                (0..n)
                    .map(|s| {
                        if s % 3 == 0 {
                            2.0
                        } else {
                            rng.gen_range(0.5..20.0)
                        }
                    })
                    .collect(),
            )
        };
        let a = if case % 5 == 0 {
            rng.gen_range(1.01..2.0)
        } else {
            rng.gen_range(2.0..500.0)
        };
        let (p, classes) = kernel(&queues, &rates, a);
        seen[classes as usize] += 1;
        assert_optimal(&p, &queues, &rates, a, 1e-12, &format!("case {case}"));
    }
    assert!(
        seen[0] > 100 && seen[1] > 100,
        "group sources seen: {seen:?}"
    );
}

#[test]
fn queues_near_two_to_the_forty_do_not_cancel() {
    // Shifting every queue by µ_s·T shifts every key by the same 2T, which
    // leaves P* unchanged: the deep instance must reproduce the shallow
    // one. Power-of-two rates keep the deep keys exactly representable, so
    // any difference is the kernel's own cancellation.
    let mut rng = StdRng::seed_from_u64(0x2_40);
    let shift = 1u64 << 39;
    for case in 0..100 {
        let n = rng.gen_range(1..120);
        let rates: Vec<f64> = (0..n)
            .map(|_| [0.5, 1.0, 2.0, 4.0][rng.gen_range(0..4)])
            .collect();
        let shallow: Vec<u64> = (0..n).map(|_| rng.gen_range(0..40)).collect();
        let deep: Vec<u64> = shallow
            .iter()
            .zip(&rates)
            .map(|(&q, &mu)| q + (mu * shift as f64) as u64)
            .collect();
        assert!(deep.iter().any(|&q| q >= 1 << 40) || rates.iter().all(|&mu| mu < 2.0));
        let a = rng.gen_range(1.5..300.0);
        let (p, _) = kernel(&deep, &rates, a);
        assert_optimal(&p, &shallow, &rates, a, 1e-12, &format!("case {case}"));
    }
}

#[test]
fn rate_ratios_of_a_million_stay_exact() {
    let mut rng = StdRng::seed_from_u64(0x1E6);
    for case in 0..200 {
        let n = rng.gen_range(2..100);
        let mut rates: Vec<f64> = (0..n)
            .map(|_| 10f64.powf(rng.gen_range(-3.0..3.0)))
            .collect();
        rates[0] = 1e-3;
        rates[1] = 1e3;
        let queues: Vec<u64> = (0..n).map(|_| rng.gen_range(0..50)).collect();
        let a = rng.gen_range(1.5..2_000.0);
        let (p, _) = kernel(&queues, &rates, a);
        assert_optimal(&p, &queues, &rates, a, 1e-12, &format!("case {case}"));
    }
}

#[test]
fn arrivals_approaching_one_converge_to_the_single_job_rule() {
    // Keys (2q+1)/µ = [1, 1.5, 1, 1.25, 4.5, 1], all exact: servers 0, 2
    // and 5 tie at the minimum. As a → 1⁺ the optimum puts p_s ∝ µ_s on the
    // tied servers; at a = 1 exactly (Eq. 9) the mass is split uniformly
    // among them.
    let queues = [0u64, 1, 1, 2, 4, 0];
    let rates = [1.0, 2.0, 3.0, 4.0, 2.0, 1.0];
    let tied = [0usize, 2, 5];
    let tied_mass: f64 = tied.iter().map(|&s| rates[s]).sum();
    for eps in [1e-3, 1e-6, 1e-8, 2e-9] {
        let a = 1.0 + eps;
        let (p, _) = kernel(&queues, &rates, a);
        for (s, &ps) in p.iter().enumerate() {
            let want = if tied.contains(&s) {
                rates[s] / tied_mass
            } else {
                0.0
            };
            assert!((ps - want).abs() < 1e-12, "a = 1 + {eps}: p[{s}] = {ps}");
        }
        let iwl = compute_iwl(&queues, &rates, a);
        check_kkt(&p, &queues, &rates, a, iwl, 1e-9).unwrap();
        // Algorithm 4 divides terms of size µ·iwl by a − 1, so its own
        // error grows like 1e-16/(a − 1); closer to 1 it loses even its
        // normalization, and only the limit above can judge the kernel.
        if eps >= 1e-6 {
            let alg4 = solve(&queues, &rates, a, SolverKind::Fast).unwrap();
            let gap = max_gap(&p, &alg4.probabilities);
            assert!(gap < 1e-14 / eps, "a = 1 + {eps}: |p − p_Alg4| = {gap:e}");
        }
    }
    for a in [1.0, 1.0 + 1e-9] {
        let (p, _) = kernel(&queues, &rates, a);
        let reference = solve(&queues, &rates, a, SolverKind::Fast).unwrap();
        assert_eq!(p, reference.probabilities, "closed form at a = {a}");
        for (s, &ps) in p.iter().enumerate() {
            let want = if tied.contains(&s) { 1.0 / 3.0 } else { 0.0 };
            assert_eq!(ps, want, "a = {a}: p[{s}]");
        }
    }
}

#[test]
fn keys_tied_exactly_at_the_prefix_threshold() {
    // With µ = 1 every quantity is an exact integer. Choose a so that the
    // level c = (Σ_{i<j}(2q_i+1) + 2(a−1))/j lands exactly on the j-th
    // smallest key: the servers on the threshold carry zero mass, and the
    // kernel must agree with the oracles whichever side it puts them on.
    let mut rng = StdRng::seed_from_u64(0x71E);
    let mut exercised = 0;
    let mut seen = [0usize; 2];
    for case in 0..300 {
        let n = rng.gen_range(2..60);
        let copies = if case % 2 == 0 { 1 } else { 8 };
        let base: Vec<u64> = (0..n).map(|_| rng.gen_range(0..6)).collect();
        let queues: Vec<u64> = base.repeat(copies);
        let rates = vec![1.0; queues.len()];
        let mut keys: Vec<u64> = queues.iter().map(|&q| 2 * q + 1).collect();
        keys.sort_unstable();
        let j = rng.gen_range(1..keys.len());
        let head: u64 = keys[..j].iter().sum();
        let target = keys[j] * j as u64;
        if target <= head {
            continue; // the j-th key ties the minimum; no valid a
        }
        let a = 1.0 + (target - head) as f64 / 2.0;
        let (p, classes) = kernel(&queues, &rates, a);
        seen[classes as usize] += 1;
        for (s, &q) in queues.iter().enumerate() {
            if 2 * q + 1 >= keys[j] {
                assert_eq!(
                    p[s], 0.0,
                    "case {case}: server {s} on or past the threshold"
                );
            }
        }
        assert_optimal(&p, &queues, &rates, a, 1e-12, &format!("case {case}"));
        exercised += 1;
    }
    assert!(exercised > 100, "only {exercised} threshold ties exercised");
    assert!(seen[0] > 20 && seen[1] > 20, "group sources seen: {seen:?}");
}

#[test]
fn both_draw_methods_sample_the_reported_distribution() {
    // Per-server groups (continuous rates): batches within the probable
    // prefix search the inverse CDF, larger ones go through an alias table.
    let mut rng = StdRng::seed_from_u64(0xD2A);
    let n = 40;
    let rates: Vec<f64> = (0..n).map(|_| rng.gen_range(1.0..10.0)).collect();
    let queues: Vec<u64> = (0..n).map(|_| rng.gen_range(0..20)).collect();
    let a = 60.0;
    let mut table = ScdTable::new();
    table.refresh(&queues, &rates, None);
    assert!(!table.uses_classes());
    let mut p = Vec::new();
    table.probabilities_into(a, &mut p);
    let (prefix, _) = table.probable_prefix(a);
    assert!(prefix > 2, "the instance must spread over several servers");
    let trials = 400_000;
    for batch in [1, prefix + 1] {
        let mut counts = vec![0u64; n];
        let mut draws = DrawScratch::default();
        let mut rng = StdRng::seed_from_u64(batch as u64);
        for _ in 0..trials / batch {
            table.dispatch(a, batch, &mut draws, &mut rng, |s| counts[s] += 1);
        }
        let total: u64 = counts.iter().sum();
        for s in 0..n {
            let freq = counts[s] as f64 / total as f64;
            assert!(
                (freq - p[s]).abs() < 0.005,
                "batch {batch}, server {s}: {freq} vs {}",
                p[s]
            );
        }
    }
}
