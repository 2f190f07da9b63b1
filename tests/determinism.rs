//! Reproducibility guarantees: identical seeds give identical runs, the
//! arrival/departure streams are policy-independent, and different seeds
//! actually differ.

use scd::prelude::*;

fn cluster() -> ClusterSpec {
    ClusterSpec::from_rates(vec![6.0, 4.0, 2.0, 1.0, 1.0]).unwrap()
}

fn config_with_seed(seed: u64) -> SimConfig {
    SimConfig::builder(cluster())
        .dispatchers(3)
        .rounds(2_000)
        .warmup_rounds(200)
        .seed(seed)
        .arrivals(ArrivalSpec::PoissonOfferedLoad { offered_load: 0.9 })
        .build()
        .unwrap()
}

#[test]
fn same_seed_same_everything() {
    let factory = ScdFactory::new();
    let a = Simulation::new(config_with_seed(5))
        .unwrap()
        .run(&factory)
        .unwrap();
    let b = Simulation::new(config_with_seed(5))
        .unwrap()
        .run(&factory)
        .unwrap();
    assert_eq!(a.response_times, b.response_times);
    assert_eq!(a.jobs_dispatched, b.jobs_dispatched);
    assert_eq!(a.jobs_completed, b.jobs_completed);
    assert_eq!(a.queues.max_total_backlog, b.queues.max_total_backlog);
}

#[test]
fn different_seeds_differ() {
    let factory = ScdFactory::new();
    let a = Simulation::new(config_with_seed(5))
        .unwrap()
        .run(&factory)
        .unwrap();
    let b = Simulation::new(config_with_seed(6))
        .unwrap()
        .run(&factory)
        .unwrap();
    assert_ne!(
        a.response_times, b.response_times,
        "different seeds should produce different sample paths"
    );
}

#[test]
fn arrival_and_service_streams_are_policy_independent() {
    // Every policy sees the same arrivals; the number of dispatched jobs in
    // the measured window must therefore be identical across policies.
    let mut dispatched = Vec::new();
    for name in ["SCD", "JSQ", "SED", "WR", "hLSQ", "JIQ", "TWF"] {
        let factory = factory_by_name(name).unwrap();
        let report = Simulation::new(config_with_seed(77))
            .unwrap()
            .run(factory.as_ref())
            .unwrap();
        dispatched.push((name, report.jobs_dispatched));
    }
    let first = dispatched[0].1;
    for (name, count) in &dispatched {
        assert_eq!(
            *count, first,
            "policy {name} saw {count} dispatched jobs, expected {first}"
        );
    }
}

#[test]
fn comparison_runner_matches_individual_runs() {
    let config = config_with_seed(9);
    let scd = ScdFactory::new();
    let sed = ArgminFactory::sed();
    let combined = run_comparison(&config, &[&scd, &sed]).unwrap();
    let solo = Simulation::new(config).unwrap().run(&scd).unwrap();
    assert_eq!(
        combined.report("SCD").unwrap().response_times,
        solo.response_times
    );
}
