//! Analytic-oracle regression tests for the stationary workload path.
//!
//! The round engine's fair-weather path (inert [`WorkloadSpec`], inert
//! scenario) is a textbook discrete-time queueing system: per-round Poisson
//! arrivals of total rate `Λ = ρ · Σ µ_s`, per-server geometric service
//! capacities `P(C_s = k) = p (1-p)^k` with `p = 1/(1+µ_s)`. Two exact
//! Lindley fixed points sandwich every reasonable dispatching policy on the
//! homogeneous cluster used here:
//!
//! * **Pooled oracle (lower bound).** A fully work-conserving pooled server
//!   with capacity `C = Σ_s C_s` follows `Q' = max(Q + A − C, 0)` exactly,
//!   and can only serve more per round than any real policy (which may idle
//!   one server while another is backed up), so its stationary mean backlog
//!   bounds every policy from below.
//! * **Random-split oracle (upper bound).** Splitting arrivals uniformly at
//!   random gives `n` independent single-server chains `Q' = max(Q + A_s −
//!   C_s, 0)` with `A_s ~ Poisson(Λ/n)`; JSQ and SCD dominate random
//!   splitting on a homogeneous cluster, so `n ×` that chain's mean bounds
//!   them from above (with real margin — both tests assert the policies
//!   beat random splitting by a calibrated factor, not merely match it).
//!
//! Both fixed points are computed below by direct iteration on the
//! truncated probability vector — no simulation, no sampling. On top of the
//! sandwich, Little's law ties the engine's two *independent* measurements
//! together: response times count both end rounds and the backlog tracker
//! samples before arrivals, so `E[RT] = E[Q]/Λ + 1` up to end-of-run
//! censoring.
//!
//! All runs are seeded, so the tolerances absorb only fixed-seed noise.

use scd::prelude::*;

/// Number of homogeneous servers.
const N: usize = 8;
/// Per-server mean service capacity µ (geometric with p = 1/(1+µ)).
const MU: f64 = 2.0;
/// Truncation of the backlog distribution. The slowest-decaying chain
/// solved here (single server at load 0.9) has stationary tail rate
/// `exp(-θq)` with `θ ≈ 2(µ-λ)/σ² ≈ 0.05`, so 512 states leave ~1e-11 of
/// mass out — far below the test tolerances.
const K: usize = 512;

/// Poisson pmf over `0..=max`, computed by the stable recurrence.
fn poisson_pmf(lambda: f64, max: usize) -> Vec<f64> {
    let mut pmf = vec![0.0; max + 1];
    pmf[0] = (-lambda).exp();
    for k in 1..=max {
        pmf[k] = pmf[k - 1] * lambda / k as f64;
    }
    pmf
}

/// pmf of `C = Σ_{s=1..r} Geom(p)` — negative binomial NB(r, p) — over
/// `0..=max`, by the recurrence `P(C=k) = P(C=k-1)·(1-p)·(r+k-1)/k`.
fn capacity_pmf(p: f64, r: usize, max: usize) -> Vec<f64> {
    let mut pmf = vec![0.0; max + 1];
    pmf[0] = p.powi(r as i32);
    for k in 1..=max {
        pmf[k] = pmf[k - 1] * (1.0 - p) * (r as f64 + k as f64 - 1.0) / k as f64;
    }
    pmf
}

/// Stationary mean of the Lindley chain `Q' = max(Q + A − C, 0)` with
/// `A ~ Poisson(lambda)` and `C ~ NB(servers, 1/(1+MU))`, by fixed-point
/// iteration on the truncated distribution vector.
fn lindley_mean_backlog(lambda: f64, servers: usize) -> f64 {
    let p = 1.0 / (1.0 + MU);
    // Bounds chosen so the discarded pmf tails are < 1e-15.
    let a_max = (lambda + 12.0 * lambda.sqrt()).ceil() as usize + 16;
    let c_max = 4 * (servers as f64 * MU) as usize + 64;
    let a_pmf = poisson_pmf(lambda, a_max);
    let c_pmf = capacity_pmf(p, servers, c_max);

    // pmf of the signed increment Δ = A − C, stored at index d = Δ + c_max.
    let mut delta = vec![0.0; a_max + c_max + 1];
    for (a, &pa) in a_pmf.iter().enumerate() {
        for (c, &pc) in c_pmf.iter().enumerate() {
            delta[a + c_max - c] += pa * pc;
        }
    }
    // P(Δ ≤ d − c_max), for the reflecting boundary at zero.
    let mut delta_cdf = vec![0.0; delta.len()];
    let mut acc = 0.0;
    for (d, &pd) in delta.iter().enumerate() {
        acc += pd;
        delta_cdf[d] = acc;
    }

    let mut q = vec![0.0; K];
    q[0] = 1.0;
    let mut next = vec![0.0; K];
    for _ in 0..50_000 {
        next.iter_mut().for_each(|v| *v = 0.0);
        for (i, &qi) in q.iter().enumerate() {
            if qi == 0.0 {
                continue;
            }
            // Mass absorbed at zero: Δ ≤ -i.
            if c_max >= i {
                next[0] += qi * delta_cdf[c_max - i];
            }
            // Mass moved to j = i + Δ for Δ > -i.
            let d_lo = (c_max as isize - i as isize + 1).max(0) as usize;
            for (off, &pd) in delta[d_lo..].iter().enumerate() {
                let j = i + d_lo + off - c_max;
                if j >= K {
                    break;
                }
                next[j] += qi * pd;
            }
        }
        let l1: f64 = q.iter().zip(&next).map(|(a, b)| (a - b).abs()).sum();
        std::mem::swap(&mut q, &mut next);
        if l1 < 1e-9 {
            break;
        }
    }
    let mass: f64 = q.iter().sum();
    assert!(
        (mass - 1.0).abs() < 1e-8,
        "oracle lost probability mass: {mass}"
    );
    q.iter().enumerate().map(|(i, &qi)| i as f64 * qi).sum()
}

/// Memoized oracle pair for a system load: `(pooled, n × random-split)`.
/// Both tests query the same two loads, and the debug-mode fixed-point
/// solves dominate this binary's runtime, so solve each chain once.
fn oracles(rho: f64) -> (f64, f64) {
    use std::sync::Mutex;
    static CACHE: Mutex<Vec<(u64, (f64, f64))>> = Mutex::new(Vec::new());
    let key = rho.to_bits();
    let mut cache = CACHE.lock().unwrap();
    if let Some(&(_, pair)) = cache.iter().find(|(k, _)| *k == key) {
        return pair;
    }
    let lambda = rho * N as f64 * MU;
    let pair = (
        lindley_mean_backlog(lambda, N),
        N as f64 * lindley_mean_backlog(lambda / N as f64, 1),
    );
    cache.push((key, pair));
    pair
}

fn run(rho: f64, factory: &dyn PolicyFactory, workload: WorkloadSpec) -> SimReport {
    let spec = ClusterSpec::from_rates(vec![MU; N]).unwrap();
    let config = SimConfig::builder(spec)
        .dispatchers(2)
        .rounds(4_000)
        .warmup_rounds(1_000)
        .seed(20_210_726) // the paper's PODC publication date
        .arrivals(ArrivalSpec::PoissonOfferedLoad { offered_load: rho })
        .workload(workload)
        .build()
        .unwrap();
    Simulation::new(config).unwrap().run(factory).unwrap()
}

fn check_against_oracles(report: &SimReport, rho: f64, label: &str) {
    let lambda = rho * N as f64 * MU;
    let (pooled, random_split) = oracles(rho);
    assert!(pooled.is_finite() && pooled > 0.0);
    assert!(random_split > pooled, "oracle ordering must hold");

    let sim = report.queues.mean_total_backlog;
    // Pooling is a strict lower bound in expectation; 0.95 absorbs
    // fixed-seed noise. Random splitting is a strict upper bound for JSQ
    // and SCD, and both policies beat it decisively — require at least a
    // 20% improvement so a regression toward random-quality dispatching
    // fails the test even inside the sandwich.
    assert!(
        sim >= 0.95 * pooled,
        "{label} ρ={rho}: simulated backlog {sim:.3} below the pooled \
         lower bound {pooled:.3}"
    );
    assert!(
        sim <= 0.8 * random_split,
        "{label} ρ={rho}: simulated backlog {sim:.3} does not beat random \
         splitting ({random_split:.3}) by the required margin"
    );

    // Little's law: jobs spend `departure − arrival + 1` rounds in the
    // system and the tracker samples the backlog before arrivals, so
    // E[RT] = E[Q]/Λ + 1 up to end-of-run censoring of in-flight jobs.
    let little_rt = sim / lambda + 1.0;
    let sim_rt = report.mean_response_time();
    let relative = (sim_rt - little_rt).abs() / little_rt;
    assert!(
        relative < 0.05,
        "{label} ρ={rho}: mean RT {sim_rt:.4} vs Little's-law prediction \
         {little_rt:.4} (relative error {relative:.4})"
    );
    eprintln!(
        "{label} ρ={rho}: pooled {pooled:.3} ≤ sim {sim:.3} ≤ 0.8 × \
         random-split {random_split:.3}; RT {sim_rt:.3} vs Little {little_rt:.3}"
    );
}

#[test]
fn stationary_runs_sit_inside_the_lindley_oracle_sandwich() {
    for &rho in &[0.5, 0.9] {
        for (label, factory) in [
            (
                "JSQ",
                Box::new(ArgminFactory::jsq()) as Box<dyn PolicyFactory>,
            ),
            ("SCD", Box::new(ScdFactory::new())),
        ] {
            let report = run(rho, factory.as_ref(), WorkloadSpec::default());
            check_against_oracles(&report, rho, label);
        }
    }
}

#[test]
fn an_identity_mmpp_workload_preserves_the_stationary_law() {
    // A single always-on phase is an *active* workload (it exercises the
    // counter-mode sampler path end to end) that is statistically identical
    // to the stationary engine — the oracle sandwich must keep holding.
    let identity = WorkloadSpec {
        modulation: ModulationSpec::Mmpp {
            phases: vec![MmppPhase {
                rate_multiplier: 1.0,
                switch_prob: 0.0,
            }],
        },
        ..WorkloadSpec::default()
    };
    for &rho in &[0.5, 0.9] {
        let report = run(rho, &ArgminFactory::jsq(), identity.clone());
        check_against_oracles(&report, rho, "JSQ/identity-MMPP");
    }
}
