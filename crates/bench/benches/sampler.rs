//! Sampler bench: building an alias table (O(n)) and drawing job
//! destinations from it (O(1) per draw) for a freshly computed probability
//! vector.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use scd_bench::bench_instance;
use scd_core::iwl::compute_iwl;
use scd_core::solver::{compute_probabilities_fast, ScdSolution};
use scd_model::AliasSampler;
use std::hint::black_box;
use std::time::Duration;

fn probabilities_for(n: usize) -> Vec<f64> {
    let (queues, rates) = bench_instance(n, 1.0, 10.0, 11);
    let arrivals = rates.iter().sum::<f64>() * 0.99 / 10.0;
    let iwl = compute_iwl(&queues, &rates, arrivals);
    let ScdSolution { probabilities, .. } =
        compute_probabilities_fast(&queues, &rates, arrivals, iwl).expect("valid instance");
    probabilities
}

fn bench_samplers(c: &mut Criterion) {
    let mut group = c.benchmark_group("sampler");
    group
        .sample_size(30)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));

    for &n in &[100usize, 1000] {
        let probabilities = probabilities_for(n);
        let draws = 64usize;

        group.bench_with_input(BenchmarkId::new("alias_build_and_draw", n), &n, |b, _| {
            let mut rng = StdRng::seed_from_u64(1);
            b.iter(|| {
                let sampler = AliasSampler::new(black_box(&probabilities)).unwrap();
                let mut acc = 0usize;
                for _ in 0..draws {
                    acc += sampler.sample(&mut rng);
                }
                black_box(acc)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_samplers);
criterion_main!(benches);
