//! Convenience runner: evaluate several policies on *identical* stochastic
//! inputs and collect the results side by side.

use crate::config::SimConfig;
use crate::engine::{SimError, Simulation};
use crate::report::SimReport;
use scd_metrics::Table;
use scd_model::PolicyFactory;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The reports of several policies run on the same configuration and seed.
#[derive(Debug, Clone)]
pub struct ComparisonResult {
    /// One report per policy, in the order the factories were given.
    pub reports: Vec<SimReport>,
}

impl ComparisonResult {
    /// The report for a policy by name, if present.
    pub fn report(&self, policy: &str) -> Option<&SimReport> {
        self.reports.iter().find(|r| r.policy == policy)
    }

    /// Name of the policy with the lowest mean response time.
    pub fn best_by_mean(&self) -> Option<&str> {
        self.best_by(SimReport::mean_response_time)
    }

    /// Name of the policy minimizing an arbitrary report statistic.
    ///
    /// Keys are ordered with [`f64::total_cmp`]; NaN keys are first
    /// normalized to positive NaN, which `total_cmp` orders after every
    /// real number — so a NaN statistic (e.g. a mean derived from a corrupt
    /// deserialized report) can neither panic the comparison (the previous
    /// `partial_cmp(..).expect(..)` comparator did) nor beat a well-formed
    /// report (a raw sign-negative NaN, the default quiet NaN x86 produces
    /// for `0.0 / 0.0`, would order *before* all reals under `total_cmp`).
    pub fn best_by<F: Fn(&SimReport) -> f64>(&self, key: F) -> Option<&str> {
        // Collapse every NaN bit pattern onto positive NaN so "undefined"
        // always loses to "defined", regardless of sign/payload bits.
        let sanitized = |r: &SimReport| {
            let k = key(r);
            if k.is_nan() {
                f64::NAN
            } else {
                k
            }
        };
        self.reports
            .iter()
            .min_by(|a, b| sanitized(a).total_cmp(&sanitized(b)))
            .map(|r| r.policy.as_str())
    }

    /// Name of the policy with the lowest response-time percentile `p`.
    pub fn best_by_percentile(&self, p: f64) -> Option<&str> {
        self.reports
            .iter()
            .min_by_key(|r| r.response_time_percentile(p))
            .map(|r| r.policy.as_str())
    }

    /// Renders the comparison as a text table (policy, mean, p50/p95/p99,
    /// backlog, censored fraction).
    pub fn to_table(&self) -> Table {
        let mut table = Table::with_headers(&[
            "policy",
            "mean",
            "p50",
            "p95",
            "p99",
            "p99.9",
            "max",
            "avg backlog",
            "censored %",
        ]);
        for r in &self.reports {
            let s = r.summary();
            table.add_row(vec![
                r.policy.clone(),
                format!("{:.3}", s.mean),
                s.p50.to_string(),
                s.p95.to_string(),
                s.p99.to_string(),
                s.p999.to_string(),
                s.max.to_string(),
                format!("{:.1}", r.queues.mean_total_backlog),
                format!("{:.3}", 100.0 * r.censored_fraction()),
            ]);
        }
        table
    }
}

/// Runs every factory on the same configuration (hence identical arrival and
/// departure processes) and returns the collected reports.
///
/// # Errors
/// Propagates configuration and policy-violation errors from the engine.
pub fn run_comparison(
    config: &SimConfig,
    factories: &[&dyn PolicyFactory],
) -> Result<ComparisonResult, SimError> {
    let simulation = Simulation::new(config.clone())?;
    let mut reports = Vec::with_capacity(factories.len());
    for factory in factories {
        reports.push(simulation.run(*factory)?);
    }
    Ok(ComparisonResult { reports })
}

/// Like [`run_comparison`] but fans the policies out over up to `threads` OS
/// threads.
///
/// Each run derives every stochastic stream from the configuration seed
/// alone, so a parallel run is **bit-identical** to the sequential one — the
/// reports come back in factory order and match [`run_comparison`] exactly.
/// `threads` of 0 or 1 degrades to the sequential path.
///
/// The one exception is `measure_decision_times`: wall-clock timing samples
/// are nondeterministic by nature (two *sequential* runs differ too), so
/// reports from timed configurations are never comparable with `==`.
///
/// # Errors
/// Propagates configuration and policy-violation errors from the engine.
pub fn run_comparison_parallel(
    config: &SimConfig,
    factories: &[&dyn PolicyFactory],
    threads: usize,
) -> Result<ComparisonResult, SimError> {
    let simulation = Simulation::new(config.clone())?;
    let results = fan_out(factories.len(), threads, |index| {
        simulation.run(factories[index])
    });
    let mut reports = Vec::with_capacity(factories.len());
    for result in results {
        reports.push(result?);
    }
    Ok(ComparisonResult { reports })
}

/// Runs one policy on `seeds.len()` statistically independent replications
/// (the configuration re-seeded with each entry of `seeds`), fanning out over
/// up to `threads` OS threads. Reports come back in seed order, each
/// bit-identical to a sequential run of the same seed.
///
/// This is the building block for confidence intervals over response-time
/// statistics: every replication redraws the arrival/service processes while
/// the cluster and load stay fixed.
///
/// # Errors
/// Propagates configuration and policy-violation errors from the engine.
pub fn run_replications(
    config: &SimConfig,
    factory: &dyn PolicyFactory,
    seeds: &[u64],
    threads: usize,
) -> Result<Vec<SimReport>, SimError> {
    // Validate the base configuration once up front.
    Simulation::new(config.clone())?;
    let results = fan_out(seeds.len(), threads, |index| {
        let mut replication = config.clone();
        replication.seed = seeds[index];
        Simulation::new(replication)?.run(factory)
    });
    results.into_iter().collect()
}

/// Cap on the threads one [`fan_out`] spawns — far above any sensible
/// request, but it bounds the damage of a caller passing e.g. `usize::MAX`.
const MAX_THREADS: usize = 512;

/// Work-stealing index fan-out: runs `worker` for every index in `0..count`
/// on the calling thread plus up to `threads - 1` scoped threads and returns
/// the outputs in index order.
///
/// A `threads` value of 0 or 1 (or a single index) runs everything on the
/// calling thread. This is the one parallelism primitive of the workspace —
/// the policy/seed runners above, the sharded engine and `scd-experiments`'
/// sweep executor are all built on it. Scheduling is invisible in the
/// results: outputs come back in index order and every unit of work derives
/// its behavior from its index alone, so a fan-out is bit-identical to a
/// sequential loop (asserted below and by the engine/sweep determinism
/// tests).
///
/// # Panics
/// Re-raises a panic of any `worker` invocation once every thread stopped.
pub fn fan_out<R, F>(count: usize, threads: usize, worker: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Send + Sync,
{
    if count == 0 {
        return Vec::new();
    }
    let threads = threads.clamp(1, MAX_THREADS).min(count);
    if threads == 1 {
        return (0..count).map(worker).collect();
    }

    // Relaxed suffices: the counter only hands out indices; results travel
    // through the slot mutexes and the scope's join.
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..count).map(|_| Mutex::new(None)).collect();
    let drain = || loop {
        let index = next.fetch_add(1, Ordering::Relaxed);
        if index >= count {
            break;
        }
        let output = worker(index);
        *slots[index].lock().expect("no poisoned locks") = Some(output);
    };
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(drain);
        }
        drain();
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("no poisoned locks")
                .expect("every slot was filled")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::ArrivalSpec;
    use scd_core::policy::ScdFactory;
    use scd_model::ClusterSpec;
    use scd_policies::ArgminFactory;

    fn config() -> SimConfig {
        let spec = ClusterSpec::from_rates(vec![8.0, 4.0, 1.0, 1.0, 1.0, 1.0]).unwrap();
        SimConfig::builder(spec)
            .dispatchers(4)
            .rounds(2_000)
            .warmup_rounds(200)
            .seed(2021)
            .arrivals(ArrivalSpec::PoissonOfferedLoad { offered_load: 0.9 })
            .build()
            .unwrap()
    }

    #[test]
    fn comparison_runs_all_policies_on_identical_inputs() {
        let scd = ScdFactory::new();
        let jsq = ArgminFactory::jsq();
        let sed = ArgminFactory::sed();
        let result = run_comparison(&config(), &[&scd, &jsq, &sed]).unwrap();
        assert_eq!(result.reports.len(), 3);
        // Identical arrival streams → identical dispatched-job counts.
        let dispatched: Vec<u64> = result.reports.iter().map(|r| r.jobs_dispatched).collect();
        assert!(
            dispatched.windows(2).all(|w| w[0] == w[1]),
            "{dispatched:?}"
        );
        assert!(result.report("SCD").is_some());
        assert!(result.report("nope").is_none());
        let table = result.to_table();
        assert_eq!(table.num_rows(), 3);
        assert!(table.to_string().contains("SCD"));
    }

    #[test]
    fn parallel_comparison_is_bit_identical_to_sequential() {
        let scd = ScdFactory::new();
        let jsq = ArgminFactory::jsq();
        let sed = ArgminFactory::sed();
        let factories: [&dyn scd_model::PolicyFactory; 3] = [&scd, &jsq, &sed];
        let sequential = run_comparison(&config(), &factories).unwrap();
        for threads in [1usize, 2, 8] {
            let parallel = run_comparison_parallel(&config(), &factories, threads).unwrap();
            assert_eq!(
                sequential.reports, parallel.reports,
                "threads={threads}: parallel runner diverged from the sequential path"
            );
        }
    }

    #[test]
    fn replications_match_individually_seeded_runs() {
        let scd = ScdFactory::new();
        let seeds = [11u64, 22, 33, 44];
        let reports = run_replications(&config(), &scd, &seeds, 4).unwrap();
        assert_eq!(reports.len(), seeds.len());
        for (i, &seed) in seeds.iter().enumerate() {
            let mut solo_config = config();
            solo_config.seed = seed;
            let solo = Simulation::new(solo_config).unwrap().run(&scd).unwrap();
            assert_eq!(reports[i], solo, "replication {i} (seed {seed}) diverged");
        }
        // Different seeds genuinely redraw the stochastic processes.
        assert_ne!(reports[0].response_times, reports[1].response_times);
    }

    #[test]
    fn best_by_tolerates_nan_statistics() {
        // Regression: `best_by_mean` used to panic via
        // `partial_cmp(..).expect(..)` the moment any report statistic was
        // NaN. With `total_cmp`, positive NaN orders after every real
        // number, so a corrupt report can neither panic the comparison nor
        // beat a well-formed one.
        let scd = ScdFactory::new();
        let jsq = ArgminFactory::jsq();
        let mut quick = config();
        quick.rounds = 200;
        quick.warmup_rounds = 0;
        let result = run_comparison(&quick, &[&scd, &jsq]).unwrap();
        let nan_for_scd = |r: &crate::report::SimReport| {
            if r.policy == "SCD" {
                f64::NAN
            } else {
                r.mean_response_time()
            }
        };
        assert_eq!(
            result.best_by(nan_for_scd),
            Some("JSQ"),
            "a NaN key must lose to every finite key"
        );
        // Sign-negative NaN (what x86 produces for 0.0/0.0) orders *before*
        // all reals under a raw total_cmp — it must also lose.
        let negative_nan = f64::NAN.copysign(-1.0);
        assert_eq!(
            result.best_by(|r| {
                if r.policy == "SCD" {
                    negative_nan
                } else {
                    r.mean_response_time()
                }
            }),
            Some("JSQ"),
            "a negative NaN key must lose to every finite key"
        );
        // All-NaN keys still produce a deterministic (first) winner.
        assert_eq!(result.best_by(|_| f64::NAN), Some("SCD"));
        // And the named helper stays consistent with the generic one.
        assert_eq!(
            result.best_by_mean(),
            result.best_by(crate::report::SimReport::mean_response_time)
        );
        let empty = ComparisonResult {
            reports: Vec::new(),
        };
        assert_eq!(empty.best_by_mean(), None);
    }

    #[test]
    fn empty_fan_outs_are_fine() {
        let result = run_comparison_parallel(&config(), &[], 4).unwrap();
        assert!(result.reports.is_empty());
        let scd = ScdFactory::new();
        let reports = run_replications(&config(), &scd, &[], 4).unwrap();
        assert!(reports.is_empty());
    }

    #[test]
    fn fan_out_matches_sequential() {
        // Index-derived work: parallel and sequential execution must
        // produce identical in-order outputs for every thread count.
        let work = |index: usize| {
            let mut acc = index as u64;
            for _ in 0..50 {
                acc = acc
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
            }
            (index, acc)
        };
        let sequential: Vec<(usize, u64)> = (0..97).map(work).collect();
        for threads in [2usize, 3, 8, 64] {
            assert_eq!(fan_out(97, threads, work), sequential, "{threads} threads");
        }
        assert_eq!(fan_out(97, 1, work), sequential);
        assert!(fan_out(0, 8, work).is_empty());
    }

    #[test]
    fn pool_survives_many_small_fan_outs() {
        // Lots of tiny fan-outs in quick succession (the shape of a sweep
        // over many short cells): each spawns and joins its own threads.
        for round in 0..200usize {
            let out = fan_out(3, 4, |i| i + round);
            assert_eq!(out, vec![round, round + 1, round + 2]);
        }
    }

    #[test]
    fn fan_out_honors_the_thread_cap_despite_a_larger_pool() {
        // A wide call first: nothing it leaves behind may let a later
        // threads=2 call run more than two ways parallel (the caller plus
        // one helper). The bound is structural, not timing-dependent.
        let _ = fan_out(16, 8, |i| i);
        let current = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let _ = fan_out(64, 2, |i| {
            let now = current.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::hint::black_box((0..500).map(|x| x ^ i).sum::<usize>());
            current.fetch_sub(1, Ordering::SeqCst);
            i
        });
        assert!(
            peak.load(Ordering::SeqCst) <= 2,
            "threads=2 ran {} ways parallel",
            peak.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn nested_fan_outs_complete() {
        // A worker posting its own fan-out must not deadlock.
        let out = fan_out(4, 4, |outer| {
            let inner = fan_out(3, 2, move |i| (outer * 10 + i) as u64);
            inner.iter().sum::<u64>()
        });
        let expect: Vec<u64> = (0..4)
            .map(|o| (0..3).map(|i| (o * 10 + i) as u64).sum())
            .collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn worker_panics_propagate_to_the_caller() {
        let result = std::panic::catch_unwind(|| {
            fan_out(8, 4, |index| {
                if index == 5 {
                    panic!("boom at {index}");
                }
                index
            })
        });
        assert!(
            result.is_err(),
            "a worker panic must re-raise in the caller"
        );
        // Fan-outs keep working afterwards.
        assert_eq!(fan_out(4, 4, |i| i * 2), vec![0, 2, 4, 6]);
    }

    #[test]
    fn scd_beats_heterogeneity_oblivious_jsq_under_load() {
        // A heavily heterogeneous cluster with several dispatchers at high
        // load: SCD must achieve a lower mean response time than JSQ (the
        // paper's headline qualitative claim, at reduced scale).
        let scd = ScdFactory::new();
        let jsq = ArgminFactory::jsq();
        let result = run_comparison(&config(), &[&scd, &jsq]).unwrap();
        let scd_mean = result.report("SCD").unwrap().mean_response_time();
        let jsq_mean = result.report("JSQ").unwrap().mean_response_time();
        assert!(
            scd_mean < jsq_mean,
            "SCD mean {scd_mean} should beat JSQ mean {jsq_mean}"
        );
        assert_eq!(result.best_by_mean(), Some("SCD"));
        let best_tail = result.best_by_percentile(0.99).unwrap();
        assert!(best_tail == "SCD" || best_tail == "JSQ");
    }
}
