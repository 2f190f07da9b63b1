//! Determinism and equivalence guarantees of the scenario layer (PR 6).
//!
//! A [`ScenarioSpec`] adds seeded server crash/repair, dispatcher churn,
//! stale snapshots and probe loss to a run. Every schedule derives from the
//! scenario master seed through dedicated counter-mode streams, so:
//!
//! 1. the **empty** scenario reconstructs the fair-weather engine bit for
//!    bit (the untouched goldens in `engine_golden.rs` are the proof; here
//!    we pin the `Fixed { k: 0 }` staleness contract, which routes through
//!    the scenario code path and must still match the fast path exactly);
//! 2. a fixed `(seed, ScenarioSpec)` replays the identical trajectory on
//!    every in-process repetition;
//! 3. the unsharded and sharded engines agree on the layout-invariant
//!    degradation schedule (`server_down_rounds`,
//!    `dispatcher_offline_rounds`, `stale_decision_rounds`,
//!    `probes_dropped`) for every shard count, because fault draws key on
//!    **global** server/dispatcher ids and are independent of queue state;
//! 4. the engine's delta tracking stays a pure accelerator under active
//!    faults (reports equal with tracking on and off).

use scd::prelude::*;

fn registry_factories() -> Vec<Box<dyn PolicyFactory>> {
    vec![
        Box::new(ScdFactory::new()),
        Box::new(ArgminFactory::jsq()),
        Box::new(ArgminFactory::sed()),
        Box::new(ArgminFactory::lsq()),
        Box::new(ArgminFactory::hlsq()),
        Box::new(ArgminFactory::led()),
        Box::new(TwfFactory::new()),
        Box::new(WeightedRandomFactory::new()),
    ]
}

fn config(n: usize, m: usize, seed: u64, scenario: ScenarioSpec) -> SimConfig {
    let rates: Vec<f64> = (0..n).map(|s| 1.0 + (s % 5) as f64).collect();
    SimConfig::builder(ClusterSpec::from_rates(rates).unwrap())
        .dispatchers(m)
        .rounds(400)
        .warmup_rounds(40)
        .seed(seed)
        .arrivals(ArrivalSpec::PoissonOfferedLoad { offered_load: 0.9 })
        .scenario(scenario)
        .build()
        .unwrap()
}

/// Four qualitatively different degraded regimes (plus combinations) that
/// every cross-layout and replay test sweeps.
fn scenarios() -> Vec<(&'static str, ScenarioSpec)> {
    let crashes = ScenarioSpec {
        server_fail_rate: 0.02,
        server_repair_rate: 0.3,
        ..ScenarioSpec::default()
    };
    let stale = ScenarioSpec {
        staleness: StalenessSpec::Fixed { k: 2 },
        ..ScenarioSpec::default()
    };
    let churn_and_loss = ScenarioSpec {
        dispatcher_fail_rate: 0.05,
        dispatcher_repair_rate: 0.3,
        probe_loss_rate: 0.3,
        ..ScenarioSpec::default()
    };
    let kitchen_sink = ScenarioSpec {
        server_fail_rate: 0.01,
        server_repair_rate: 0.2,
        dispatcher_fail_rate: 0.03,
        dispatcher_repair_rate: 0.25,
        staleness: StalenessSpec::UniformPerRound { max_k: 3 },
        probe_loss_rate: 0.15,
        ..ScenarioSpec::default()
    };
    vec![
        ("crashes", crashes),
        ("stale", stale),
        ("churn+loss", churn_and_loss),
        ("kitchen-sink", kitchen_sink),
    ]
}

/// Strips the degradation block so fair-weather and scenario-path runs of
/// the same trajectory compare equal on everything the dispatchers decided.
fn fair_weather(mut report: SimReport) -> SimReport {
    report.degradation = None;
    report
}

/// `Fixed { k: 0 }` staleness routes every dispatcher through the scenario
/// code path (per-dispatcher contexts reading the depth-0 snapshot ring) but
/// describes a fully fresh view — the trajectory must be bit-identical to
/// the fast path, for all eight registry policies.
#[test]
fn stale_k_zero_is_bit_identical_to_the_fresh_path() {
    let zero_stale = ScenarioSpec {
        staleness: StalenessSpec::Fixed { k: 0 },
        ..ScenarioSpec::default()
    };
    assert!(!zero_stale.is_inert(), "k = 0 exercises the scenario path");
    for factory in registry_factories() {
        let fresh = Simulation::new(config(16, 4, 7, ScenarioSpec::default()))
            .unwrap()
            .run(factory.as_ref())
            .unwrap();
        let routed = Simulation::new(config(16, 4, 7, zero_stale.clone()))
            .unwrap()
            .run(factory.as_ref())
            .unwrap();
        let degradation = routed
            .degradation
            .expect("scenario runs report degradation");
        assert_eq!(degradation.stale_decision_rounds, 0);
        assert_eq!(degradation.server_down_rounds, 0);
        assert_eq!(
            fresh,
            fair_weather(routed),
            "{}: the k = 0 scenario path diverged from the fast path",
            factory.name()
        );
    }
}

/// A fixed `(seed, ScenarioSpec)` replays byte-identically: same report,
/// same degradation schedule, twice in-process — for every scenario and
/// every registry policy.
#[test]
fn fixed_seed_and_scenario_replay_identically() {
    for (name, scenario) in scenarios() {
        for factory in registry_factories() {
            let sim = Simulation::new(config(16, 4, 2021, scenario.clone())).unwrap();
            let first = sim.run(factory.as_ref()).unwrap();
            let second = sim.run(factory.as_ref()).unwrap();
            assert_eq!(
                first,
                second,
                "{name}/{}: scenario replay diverged",
                factory.name()
            );
            assert!(first.degradation.is_some(), "{name}: degradation reported");
        }
    }
}

/// k = 1 sharding pins the **whole** report to the unsharded engine (the
/// single-shard config is the base config); k ∈ {2, 4} must reproduce the
/// layout-invariant degradation schedule exactly, because fault, staleness
/// and probe-loss draws key on global ids under the shared scenario master
/// seed.
#[test]
fn sharded_runs_reproduce_the_global_fault_schedule() {
    for (name, scenario) in scenarios() {
        for factory in registry_factories() {
            let cfg = config(16, 4, 5, scenario.clone());
            let unsharded = Simulation::new(cfg.clone())
                .unwrap()
                .run(factory.as_ref())
                .unwrap();
            let base = unsharded.degradation.expect("scenario runs degrade");
            for k in [1usize, 2, 4] {
                let sharded = ShardedSimulation::new(cfg.clone(), k)
                    .unwrap()
                    .run(factory.as_ref())
                    .unwrap();
                if k == 1 {
                    assert_eq!(
                        unsharded,
                        sharded,
                        "{name}/{}: k=1 is not the base engine",
                        factory.name()
                    );
                    continue;
                }
                let merged = sharded.degradation.expect("sharded scenario runs degrade");
                for (label, mine, theirs) in [
                    (
                        "server_down_rounds",
                        base.server_down_rounds,
                        merged.server_down_rounds,
                    ),
                    (
                        "dispatcher_offline_rounds",
                        base.dispatcher_offline_rounds,
                        merged.dispatcher_offline_rounds,
                    ),
                    (
                        "stale_decision_rounds",
                        base.stale_decision_rounds,
                        merged.stale_decision_rounds,
                    ),
                    ("probes_dropped", base.probes_dropped, merged.probes_dropped),
                ] {
                    assert_eq!(
                        mine,
                        theirs,
                        "{name}/{} k={k}: {label} is not layout-invariant",
                        factory.name()
                    );
                }
            }
        }
    }
}

/// Under active faults the delta-tracked and delta-free round loops must
/// still agree bit for bit: availability masks change *decisions*, dirty
/// sets never do.
#[test]
fn delta_tracking_stays_invisible_under_active_faults() {
    let (_, scenario) = scenarios().remove(3);
    for factory in registry_factories() {
        let cfg = config(20, 5, 11, scenario.clone());
        let with_deltas = Simulation::new(cfg.clone()).unwrap();
        let without = Simulation::new(cfg).unwrap().with_delta_rounds(false);
        let a = with_deltas.run(factory.as_ref()).unwrap();
        let b = without.run(factory.as_ref()).unwrap();
        assert_eq!(
            a,
            b,
            "{}: delta tracking changed a degraded trajectory",
            factory.name()
        );
    }
}

/// Degenerate scenarios are rejected at construction with
/// [`SimError::InvalidConfig`], not discovered mid-run.
#[test]
fn degenerate_scenarios_are_rejected_up_front() {
    let cluster = ClusterSpec::from_rates(vec![1.0, 2.0]).unwrap();
    for bad in [
        ScenarioSpec {
            server_fail_rate: 1.5,
            ..ScenarioSpec::default()
        },
        ScenarioSpec {
            server_repair_rate: -0.1,
            ..ScenarioSpec::default()
        },
        ScenarioSpec {
            probe_loss_rate: f64::NAN,
            ..ScenarioSpec::default()
        },
        ScenarioSpec {
            staleness: StalenessSpec::Fixed {
                k: MAX_STALENESS + 1,
            },
            ..ScenarioSpec::default()
        },
    ] {
        let result = SimConfig::builder(cluster.clone())
            .dispatchers(2)
            .rounds(10)
            .scenario(bad)
            .build();
        let config = match result {
            // Builders that defer scenario checks surface the error at
            // engine construction instead — both count as up-front.
            Ok(config) => config,
            Err(SimError::InvalidConfig(_)) => continue,
            Err(other) => panic!("unexpected error {other}"),
        };
        match Simulation::new(config) {
            Err(SimError::InvalidConfig(_)) => {}
            other => panic!("degenerate scenario accepted: {other:?}"),
        }
    }
}
