//! Benchmarks for the probability solvers: Algorithm 4 (`O(n log n)`),
//! Algorithm 1 (`O(n²)`) and the exhaustive reference (`O(2ⁿ)`, tiny n only).
//! This is the algorithmic core behind Figures 5 and 8. The `scd_table`
//! group times the draws of SCD's dispatch kernel (`ScdTable::dispatch`)
//! on tables built from mid-run snapshots.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use scd_bench::bench_instance;
use scd_core::iwl::compute_iwl;
use scd_core::policy::ScdFactory;
use scd_core::qp::exhaustive_solution;
use scd_core::solver::{
    compute_probabilities_fast, compute_probabilities_fast_with_order,
    compute_probabilities_quadratic, sorted_by_key,
};
use scd_model::{
    BoxedPolicy, CacheDemand, ClusterSpec, DispatchContext, DispatchPolicy, DispatcherId,
    DrawScratch, PolicyFactory, RateProfile, ScdTable, ServerId,
};
use scd_sim::{ArrivalSpec, SimConfig, Simulation};
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn bench_solvers(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));

    for &n in &[100usize, 200, 400] {
        let (queues, rates) = bench_instance(n, 1.0, 10.0, 7);
        let arrivals = rates.iter().sum::<f64>() * 0.99 / 10.0;
        let iwl = compute_iwl(&queues, &rates, arrivals);

        group.bench_with_input(BenchmarkId::new("algorithm4", n), &n, |b, _| {
            b.iter(|| {
                compute_probabilities_fast(
                    black_box(&queues),
                    black_box(&rates),
                    black_box(arrivals),
                    black_box(iwl),
                )
                .unwrap()
            })
        });
        let order = sorted_by_key(&queues, &rates);
        group.bench_with_input(BenchmarkId::new("algorithm4_presorted", n), &n, |b, _| {
            b.iter(|| {
                compute_probabilities_fast_with_order(
                    black_box(&queues),
                    black_box(&rates),
                    black_box(arrivals),
                    black_box(iwl),
                    black_box(&order),
                )
                .unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("algorithm1", n), &n, |b, _| {
            b.iter(|| {
                compute_probabilities_quadratic(
                    black_box(&queues),
                    black_box(&rates),
                    black_box(arrivals),
                    black_box(iwl),
                )
                .unwrap()
            })
        });
    }

    // The exhaustive active-set search only makes sense for tiny clusters.
    let (queues, rates) = bench_instance(12, 1.0, 10.0, 7);
    let arrivals = 24.0;
    let iwl = compute_iwl(&queues, &rates, arrivals);
    group.bench_function("exhaustive_n12", |b| {
        b.iter(|| {
            exhaustive_solution(
                black_box(&queues),
                black_box(&rates),
                black_box(arrivals),
                black_box(iwl),
            )
        })
    });
    group.finish();
}

/// An SCD dispatcher that also copies the queue lengths it sees in round
/// `at` into `queues`.
struct Capture {
    scd: BoxedPolicy,
    at: u64,
    queues: Arc<Mutex<Vec<u64>>>,
}

impl DispatchPolicy for Capture {
    fn policy_name(&self) -> &str {
        self.scd.policy_name()
    }

    fn round_cache_demand(&self) -> CacheDemand {
        self.scd.round_cache_demand()
    }

    fn dispatch_into(
        &mut self,
        ctx: &DispatchContext<'_>,
        batch: usize,
        out: &mut Vec<ServerId>,
        rng: &mut dyn RngCore,
    ) {
        if ctx.round() == self.at {
            *self.queues.lock().unwrap() = ctx.queue_lengths().to_vec();
        }
        self.scd.dispatch_into(ctx, batch, out, rng);
    }
}

/// The queue lengths and rates of an SCD run on `n` servers with `m`
/// dispatchers (µ ~ U[1, 10], ρ = 0.99) at round `at`.
fn mid_run_snapshot(n: usize, m: usize, at: u64) -> (Vec<u64>, Vec<f64>) {
    let spec = RateProfile::paper_moderate()
        .materialize(n, &mut StdRng::seed_from_u64(7))
        .expect("valid profile");
    let rates = spec.rates().to_vec();
    let config = SimConfig::builder(spec)
        .dispatchers(m)
        .rounds(at + 1)
        .warmup_rounds(0)
        .seed(7)
        .arrivals(ArrivalSpec::PoissonOfferedLoad { offered_load: 0.99 })
        .build()
        .expect("valid configuration");
    let queues = Arc::new(Mutex::new(Vec::new()));
    let scd = ScdFactory::new();
    let capture = |d: DispatcherId, spec: &ClusterSpec| -> BoxedPolicy {
        Box::new(Capture {
            scd: scd.build(d, spec),
            at,
            queues: Arc::clone(&queues),
        })
    };
    Simulation::new(config)
        .expect("valid configuration")
        .run(&capture)
        .expect("clean run");
    let queues = queues.lock().unwrap().clone();
    (queues, rates)
}

/// `ScdTable::dispatch` for one dispatcher's batch of a round, at the
/// batch and estimate `a = batch·m` of the `dense-n10k` and `paper-n100`
/// workloads. Both tables hold one group per server and a probable prefix
/// longer than the batch, so every draw is an inverse-CDF search.
fn bench_dispatch_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("scd_table");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    for (n, m, at, batch) in [(10_000, 100, 40, 546), (100, 10, 2_000, 55)] {
        let (queues, rates) = mid_run_snapshot(n, m, at);
        let mut table = ScdTable::new();
        table.refresh(&queues, &rates, None);
        let arrivals = (batch * m) as f64;
        let (prefix, _) = table.probable_prefix(arrivals);
        assert!(!table.uses_classes() && batch <= prefix);
        let mut scratch = DrawScratch::default();
        let mut rng = StdRng::seed_from_u64(5);
        let label = format!("n{n}_batch{batch}");
        group.bench_with_input(BenchmarkId::new("dispatch", label), &n, |b, _| {
            b.iter(|| {
                let mut sum = 0;
                table.dispatch(black_box(arrivals), batch, &mut scratch, &mut rng, |s| {
                    sum += s
                });
                sum
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_solvers, bench_dispatch_kernel);
criterion_main!(benches);
