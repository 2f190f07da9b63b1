//! End-to-end simulation throughput: how fast the round engine processes a
//! complete (arrivals → dispatching → departures) round under different
//! policies. Useful for sizing the full figure reproductions.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use scd_model::RateProfile;
use scd_policies::factory_by_name;
use scd_sim::{ArrivalSpec, ServiceModel, SimConfig, Simulation};
use std::hint::black_box;
use std::time::Duration;

fn bench_simulation(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulation_200_rounds");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    let profile = RateProfile::paper_moderate();
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(17);
    let spec = profile.materialize(50, &mut rng).expect("valid profile");

    for policy_name in ["SCD", "JSQ", "SED", "hLSQ", "WR"] {
        group.bench_with_input(
            BenchmarkId::new(policy_name, "n50_m5"),
            &policy_name,
            |b, _| {
                let config = SimConfig {
                    spec: spec.clone(),
                    num_dispatchers: 5,
                    rounds: 200,
                    warmup_rounds: 0,
                    seed: 3,
                    arrivals: ArrivalSpec::PoissonOfferedLoad { offered_load: 0.95 },
                    services: ServiceModel::Geometric,
                    measure_decision_times: false,
                    scenario: scd_sim::ScenarioSpec::default(),
                    workload: scd_sim::WorkloadSpec::default(),
                };
                let simulation = Simulation::new(config).expect("valid configuration");
                let factory = factory_by_name(policy_name).expect("registered policy");
                b.iter(|| {
                    let report = simulation.run(factory.as_ref()).expect("clean run");
                    black_box(report.jobs_completed)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_simulation);
criterion_main!(benches);
