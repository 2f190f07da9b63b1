//! Seeded property tests for the time-varying workload layer (PR 7).
//!
//! Every draw in [`WorkloadSpec`] is a counter-mode pure function of the
//! workload master seed, so all of these properties are exact replays — the
//! tolerances below absorb only the statistical noise of a *fixed* seed,
//! never run-to-run jitter:
//!
//! 1. the empirical per-phase arrival rates of an MMPP workload match the
//!    spec's `rate_multiplier`s;
//! 2. a flash-crowd workload's excess arrival mass equals the burst
//!    integral `magnitude × duration × λ` per window;
//! 3. a traced synthetic run replays **bit-identically** from its own
//!    recorded arrival trace, on both the unsharded and the sharded engine;
//! 4. the sharded engine records the **same global arrival trace** as the
//!    unsharded engine for every shard count, because workload draws key on
//!    global dispatcher ids and a pinned master seed;
//! 5. an inert workload (even with a pinned seed or id map) reconstructs
//!    the fair-weather engine bit for bit — the byte-exact goldens in
//!    `engine_golden.rs` are the other half of this proof;
//! 6. the Chrome `trace_event` JSON of a real traced run contains all four
//!    phase types Perfetto needs (`i`, `X`, `B`, `E`).

use scd::prelude::*;

fn base_config(seed: u64, workload: WorkloadSpec) -> SimConfig {
    let rates: Vec<f64> = (0..12).map(|s| 1.0 + (s % 4) as f64).collect();
    SimConfig::builder(ClusterSpec::from_rates(rates).unwrap())
        .dispatchers(4)
        .rounds(400)
        .warmup_rounds(40)
        .seed(seed)
        .arrivals(ArrivalSpec::PoissonOfferedLoad { offered_load: 0.9 })
        .workload(workload)
        .build()
        .unwrap()
}

fn bursty_workload() -> WorkloadSpec {
    WorkloadSpec {
        modulation: ModulationSpec::Mmpp {
            phases: vec![
                MmppPhase {
                    rate_multiplier: 1.0,
                    switch_prob: 0.05,
                },
                MmppPhase {
                    rate_multiplier: 2.5,
                    switch_prob: 0.2,
                },
            ],
        },
        classes: vec![
            JobClass {
                size: 1,
                weight: 3.0,
            },
            JobClass {
                size: 4,
                weight: 1.0,
            },
        ],
        ..WorkloadSpec::default()
    }
}

#[test]
fn mmpp_per_phase_rates_match_the_spec() {
    let multipliers = [1.0, 3.0, 0.25];
    let spec = WorkloadSpec {
        modulation: ModulationSpec::Mmpp {
            phases: multipliers
                .iter()
                .map(|&rate_multiplier| MmppPhase {
                    rate_multiplier,
                    switch_prob: 0.1,
                })
                .collect(),
        },
        ..WorkloadSpec::default()
    };
    let base_rates = [6.0, 2.0];
    let lambda: f64 = base_rates.iter().sum();
    let mut sampler = spec.sampler(0xA11CE, &base_rates);
    let rounds = 60_000u64;
    let mut phase_rounds = [0u64; 3];
    let mut phase_jobs = [0u64; 3];
    let mut out = Vec::new();
    for t in 0..rounds {
        let g = sampler.begin_round(t);
        let phase = sampler.current_phase().expect("MMPP is active");
        assert_eq!(g, multipliers[phase], "g must equal the phase multiplier");
        out.clear();
        sampler.sample_into(t, g, &mut out);
        phase_rounds[phase] += 1;
        phase_jobs[phase] += out.iter().sum::<u64>();
    }
    for (phase, &mult) in multipliers.iter().enumerate() {
        // With switch_prob 0.1 everywhere the chain spends ~1/3 of its time
        // in each phase, so each estimate averages ≥ ~15k rounds.
        assert!(
            phase_rounds[phase] > rounds / 10,
            "phase {phase} starved: {} rounds",
            phase_rounds[phase]
        );
        let empirical = phase_jobs[phase] as f64 / phase_rounds[phase] as f64;
        let expected = lambda * mult;
        let relative = (empirical - expected).abs() / expected;
        assert!(
            relative < 0.03,
            "phase {phase}: empirical rate {empirical:.3} vs expected {expected:.3} \
             (relative error {relative:.4})"
        );
    }
}

#[test]
fn flash_crowd_excess_mass_equals_the_burst_integral() {
    let (every, duration, magnitude) = (100u64, 10u64, 2.0f64);
    let spec = WorkloadSpec {
        modulation: ModulationSpec::FlashCrowd {
            every,
            duration,
            magnitude,
        },
        ..WorkloadSpec::default()
    };
    let base_rates = [4.0, 3.0];
    let lambda: f64 = base_rates.iter().sum();
    let mut sampler = spec.sampler(0xF1A5, &base_rates);
    let rounds = 50_000u64;
    let mut total = 0u64;
    let mut spike_rounds = 0u64;
    let mut out = Vec::new();
    for t in 0..rounds {
        let g = sampler.begin_round(t);
        assert!(
            g == 1.0 || g == 1.0 + magnitude,
            "flash-crowd multiplier must be bimodal, got {g}"
        );
        if g > 1.0 {
            spike_rounds += 1;
        }
        out.clear();
        sampler.sample_into(t, g, &mut out);
        total += out.iter().sum::<u64>();
    }
    // Exactly one `duration`-round spike per window, at a seeded offset.
    assert_eq!(spike_rounds, (rounds / every) * duration);
    let expected = rounds as f64 * lambda + spike_rounds as f64 * magnitude * lambda;
    let relative = (total as f64 - expected).abs() / expected;
    assert!(
        relative < 0.01,
        "total mass {total} vs expected {expected:.0} (relative error {relative:.4})"
    );
}

#[test]
fn synthetic_runs_replay_bit_identically_from_their_own_trace() {
    let config = base_config(97, bursty_workload());
    let factory = ScdFactory::new();
    let plain = Simulation::new(config.clone())
        .unwrap()
        .run(&factory)
        .unwrap();
    let (traced, trace) = Simulation::new(config.clone())
        .unwrap()
        .run_traced(&factory)
        .unwrap();
    assert_eq!(plain, traced, "tracing must not perturb the run");

    let replay = WorkloadSpec {
        replay: Some(trace.arrivals.clone()),
        ..WorkloadSpec::default()
    };
    let replayed = Simulation::new(base_config(97, replay))
        .unwrap()
        .run(&factory)
        .unwrap();
    assert_eq!(
        plain, replayed,
        "replaying the recorded arrival trace must reproduce the run bit for bit"
    );
}

#[test]
fn sharded_runs_record_and_replay_bit_identically() {
    let factory = ArgminFactory::jsq();
    let config = base_config(31, bursty_workload());
    let (_unsharded_report, unsharded_trace) = Simulation::new(config.clone())
        .unwrap()
        .run_traced(&factory)
        .unwrap();

    for k in [1usize, 4] {
        let (report, trace) = ShardedSimulation::new(config.clone(), k)
            .unwrap()
            .run_traced(&factory)
            .unwrap();
        if k == 1 {
            // One shard leaves the config byte-identical, so the recorded
            // trace matches the unsharded engine exactly. (At k > 1 shards
            // are independent load-calibrated subsystems with their own
            // per-dispatcher base rates, so only the modulation *schedule*
            // is shared — see `shards_share_one_global_modulation_schedule`.)
            assert_eq!(trace.arrivals, unsharded_trace.arrivals);
        }

        // Record → replay closes on the sharded engine for every k.
        let replay = WorkloadSpec {
            replay: Some(trace.arrivals.clone()),
            ..WorkloadSpec::default()
        };
        let replayed = ShardedSimulation::new(base_config(31, replay), k)
            .unwrap()
            .run(&factory)
            .unwrap();
        assert_eq!(
            report, replayed,
            "k={k}: replay of the recorded trace diverged from the synthetic run"
        );
    }
}

#[test]
fn shards_share_one_global_modulation_schedule() {
    // The sharded engine pins `seed = resolved master` and maps the shard's
    // local dispatchers to their global ids, then hands the spec a *shard*
    // sub-seed at sampler construction. Because MMPP and flash draws key on
    // the pinned workload seed and system-wide chain indices, every shard —
    // whatever master it is constructed with — must walk the identical
    // multiplier schedule, and a shard's per-dispatcher counts must equal
    // the matching columns of the full system's sampler.
    let master = 31u64;
    let full = bursty_workload();
    let full_rates = [4.0, 3.0, 2.0, 1.0];
    let mut full_sampler = full.sampler(master, &full_rates);

    let shard = WorkloadSpec {
        seed: Some(master),
        dispatcher_ids: Some(vec![1, 3]),
        ..bursty_workload()
    };
    let shard_rates = [full_rates[1], full_rates[3]];
    // 0xBAD5EED stands in for the shard's derived sub-master seed; the
    // pinned workload seed must make it irrelevant.
    let mut shard_sampler = shard.sampler(0xBAD5EED, &shard_rates);

    let mut full_out = Vec::new();
    let mut shard_out = Vec::new();
    for t in 0..2_000u64 {
        let g_full = full_sampler.begin_round(t);
        let g_shard = shard_sampler.begin_round(t);
        assert_eq!(g_full, g_shard, "round {t}: multiplier schedule diverged");
        full_out.clear();
        shard_out.clear();
        full_sampler.sample_into(t, g_full, &mut full_out);
        shard_sampler.sample_into(t, g_shard, &mut shard_out);
        assert_eq!(shard_out, [full_out[1], full_out[3]], "round {t}");
    }
}

#[test]
fn inert_workloads_reconstruct_the_fair_weather_engine() {
    let rates: Vec<f64> = (0..12).map(|s| 1.0 + (s % 4) as f64).collect();
    let bare = SimConfig::builder(ClusterSpec::from_rates(rates).unwrap())
        .dispatchers(4)
        .rounds(400)
        .warmup_rounds(40)
        .seed(7)
        .arrivals(ArrivalSpec::PoissonOfferedLoad { offered_load: 0.9 })
        .build()
        .unwrap();
    let factory = ScdFactory::new();
    let baseline = Simulation::new(bare).unwrap().run(&factory).unwrap();

    // An explicit default spec, and an inert spec with a pinned seed and id
    // map (the shape the sharded engine pins onto shard configs), must all
    // leave the trajectory untouched.
    let pinned = WorkloadSpec {
        seed: Some(0xDEAD),
        dispatcher_ids: Some(vec![0, 1, 2, 3]),
        ..WorkloadSpec::default()
    };
    assert!(pinned.is_inert());
    for workload in [WorkloadSpec::default(), pinned] {
        let report = Simulation::new(base_config(7, workload))
            .unwrap()
            .run(&factory)
            .unwrap();
        assert_eq!(report, baseline);
    }
}

#[test]
fn chrome_trace_json_covers_all_perfetto_phase_types() {
    let config = base_config(5, bursty_workload());
    let (_report, trace) = Simulation::new(config)
        .unwrap()
        .run_traced(&ScdFactory::new())
        .unwrap();
    assert_eq!(trace.dropped, 0, "small run must not hit the event cap");
    let json = chrome_trace_json(&trace);
    for ph in [
        "\"ph\":\"M\"",
        "\"ph\":\"i\"",
        "\"ph\":\"X\"",
        "\"ph\":\"B\"",
        "\"ph\":\"E\"",
    ] {
        assert!(json.contains(ph), "trace JSON is missing {ph}");
    }
    assert!(json.starts_with('{') && json.ends_with('}'));
    assert!(!json.contains(",]") && !json.contains(",}"));
}
