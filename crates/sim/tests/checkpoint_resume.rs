//! The engine-level checkpoint/resume invariant: a run resumed from a
//! checkpoint at **any** round is bit-identical to the uninterrupted run —
//! same report, same RNG consumption — for stateless and stateful (warm
//! argmin, probe-marking, round-robin) policies alike, with and without an
//! active scenario, and surviving a full serialize/deserialize round trip
//! of the checkpoint bytes. Every capture
//! and resume goes through `Simulation::run_with_checkpoints`, the one
//! checkpoint entry point.

use scd_core::policy::ScdFactory;
use scd_model::{ClusterSpec, PolicyFactory};
use scd_policies::{ArgminFactory, RoundRobinFactory, WeightedRandomFactory};
use scd_sim::checkpoint::EngineCheckpoint;
use scd_sim::scenario::{ScenarioSpec, StalenessSpec};
use scd_sim::{ArrivalSpec, SimConfig, SimError, SimReport, Simulation};

fn base_config(seed: u64) -> SimConfig {
    let spec = ClusterSpec::from_rates(vec![4.0, 2.0, 2.0, 1.0, 1.0, 0.5]).unwrap();
    SimConfig::builder(spec)
        .dispatchers(2)
        .rounds(200)
        .warmup_rounds(20)
        .seed(seed)
        .arrivals(ArrivalSpec::PoissonOfferedLoad { offered_load: 0.85 })
        .build()
        .unwrap()
}

fn active_scenario() -> ScenarioSpec {
    ScenarioSpec {
        server_fail_rate: 0.05,
        server_repair_rate: 0.4,
        dispatcher_fail_rate: 0.03,
        dispatcher_repair_rate: 0.5,
        staleness: StalenessSpec::UniformPerRound { max_k: 3 },
        probe_loss_rate: 0.2,
        ..ScenarioSpec::default()
    }
}

fn factories() -> Vec<Box<dyn PolicyFactory>> {
    vec![
        Box::new(ScdFactory::new()),
        Box::new(ArgminFactory::jsq()),
        Box::new(ArgminFactory::sed()),
        Box::new(ArgminFactory::lsq()),
        Box::new(ArgminFactory::led()),
        Box::new(RoundRobinFactory::new()),
        Box::new(WeightedRandomFactory::new()),
    ]
}

/// Checkpoint rounds chosen to straddle warm-up (20) and the warm pickers'
/// 64-batch epoch boundaries.
const CHECKPOINT_ROUNDS: [u64; 6] = [1, 19, 64, 100, 128, 199];

/// The checkpoint a run of `sim` captures before round `at_round`: the
/// first periodic capture, after which the sink stops the run.
fn checkpoint_at(sim: &Simulation, factory: &dyn PolicyFactory, at_round: u64) -> EngineCheckpoint {
    let mut captured = None;
    let stopped = sim.run_with_checkpoints(factory, at_round, None, &mut |ckpt| {
        captured = Some(ckpt);
        Err(SimError::Checkpoint("captured; stop the run".into()))
    });
    assert!(stopped.is_err(), "the sink stops the run");
    captured.expect("the run reaches the checkpoint round")
}

/// Completes the run from `ckpt` without further captures.
fn resume(
    sim: &Simulation,
    factory: &dyn PolicyFactory,
    ckpt: &EngineCheckpoint,
) -> Result<SimReport, SimError> {
    sim.run_with_checkpoints(factory, 0, Some(ckpt), &mut |_| Ok(()))
}

/// Captures at every [`CHECKPOINT_ROUNDS`] entry, pushes the checkpoint
/// through its wire form, resumes, and demands the straight run's report.
fn assert_resumes_bit_identically(sim: &Simulation, factory: &dyn PolicyFactory) {
    let straight = sim.run(factory).unwrap();
    for at_round in CHECKPOINT_ROUNDS {
        let ckpt = checkpoint_at(sim, factory, at_round);
        assert_eq!(ckpt.round(), at_round);
        assert_eq!(
            resume(sim, factory, &ckpt).unwrap(),
            straight,
            "{} resumed at round {at_round} diverged",
            factory.name()
        );
        // The resumed run must be identical after serialization, too.
        let restored = EngineCheckpoint::from_bytes(&ckpt.to_bytes().unwrap()).unwrap();
        assert_eq!(restored, ckpt);
        assert_eq!(
            resume(sim, factory, &restored).unwrap(),
            straight,
            "{} resumed at round {at_round} from decoded bytes diverged",
            factory.name()
        );
    }
}

#[test]
fn resume_at_any_round_is_bit_identical_to_a_straight_run() {
    let sim = Simulation::new(base_config(42)).unwrap();
    for factory in factories() {
        assert_resumes_bit_identically(&sim, factory.as_ref());
    }
}

#[test]
fn resume_is_bit_identical_under_an_active_scenario() {
    let mut config = base_config(7);
    config.scenario = active_scenario();
    let sim = Simulation::new(config).unwrap();
    // LSQ and LED exercise the probe-loss oracle tally; SCD the round
    // cache; JSQ the warm picker + mirror machinery.
    for factory in factories() {
        assert!(
            sim.run(factory.as_ref()).unwrap().degradation.is_some(),
            "scenario must be active"
        );
        assert_resumes_bit_identically(&sim, factory.as_ref());
    }
}

#[test]
fn engine_checkpoints_with_decision_times_round_trip_through_bytes() {
    let mut config = base_config(5);
    config.measure_decision_times = true;
    config.scenario = active_scenario();
    let sim = Simulation::new(config).unwrap();
    let factory = ScdFactory::new();
    let straight = sim.run(&factory).unwrap();
    let timed = straight.decision_times_us.as_ref().unwrap().len();
    for at_round in [19, 100] {
        let ckpt = checkpoint_at(&sim, &factory, at_round);
        let bytes = ckpt.to_bytes().unwrap();
        let restored = EngineCheckpoint::from_bytes(&bytes).unwrap();
        assert_eq!(restored, ckpt, "decoding changed the checkpoint");
        assert_eq!(restored.to_bytes().unwrap(), bytes, "re-encoding drifted");
        // Decision times are wall-clock measurements, so the resumed report
        // matches the straight one everywhere but in their values; the
        // number of timed decisions is deterministic.
        let mut resumed = resume(&sim, &factory, &restored).unwrap();
        let resumed_times = resumed.decision_times_us.take().unwrap();
        assert_eq!(resumed_times.len(), timed);
        let mut expected = straight.clone();
        expected.decision_times_us = None;
        assert_eq!(resumed, expected, "resumed at round {at_round} diverged");
    }
}

#[test]
fn periodic_checkpoints_do_not_perturb_the_run_and_each_resumes() {
    let sim = Simulation::new(base_config(3)).unwrap();
    let factory = ArgminFactory::jsq();
    let straight = sim.run(&factory).unwrap();
    let mut captured: Vec<EngineCheckpoint> = Vec::new();
    let report = sim
        .run_with_checkpoints(&factory, 45, None, &mut |ckpt| {
            captured.push(ckpt);
            Ok(())
        })
        .unwrap();
    assert_eq!(report, straight, "checkpoint capture perturbed the run");
    let rounds: Vec<u64> = captured.iter().map(EngineCheckpoint::round).collect();
    assert_eq!(rounds, vec![45, 90, 135, 180]);
    for ckpt in &captured {
        assert_eq!(resume(&sim, &factory, ckpt).unwrap(), straight);
    }
}

#[test]
fn resuming_with_further_checkpoints_skips_the_resume_round() {
    let sim = Simulation::new(base_config(3)).unwrap();
    let factory = ArgminFactory::jsq();
    let straight = sim.run(&factory).unwrap();
    let ckpt = checkpoint_at(&sim, &factory, 90);
    let mut rounds: Vec<u64> = Vec::new();
    let report = sim
        .run_with_checkpoints(&factory, 45, Some(&ckpt), &mut |c| {
            rounds.push(c.round());
            Ok(())
        })
        .unwrap();
    assert_eq!(report, straight);
    assert_eq!(rounds, vec![135, 180], "round 90 must not be re-emitted");
}

#[test]
fn checkpoints_are_refused_across_configurations_and_bad_rounds() {
    let factory = ArgminFactory::jsq();
    let sim = Simulation::new(base_config(1)).unwrap();
    let other = Simulation::new(base_config(2)).unwrap();
    let ckpt = checkpoint_at(&sim, &factory, 50);
    assert!(matches!(
        resume(&other, &factory, &ckpt).unwrap_err(),
        SimError::Checkpoint(_)
    ));
    // A checkpoint claiming a round outside 1..rounds is refused on
    // resume. The round is the u64 after the version byte and the digest.
    for bad_round in [0u64, 200] {
        let mut bytes = ckpt.to_bytes().unwrap();
        bytes[9..17].copy_from_slice(&bad_round.to_le_bytes());
        let forged = EngineCheckpoint::from_bytes(&bytes).unwrap();
        assert_eq!(forged.round(), bad_round);
        assert!(matches!(
            resume(&sim, &factory, &forged).unwrap_err(),
            SimError::Checkpoint(_)
        ));
    }
    // A checkpoint taken under a scenario cannot resume a fair-weather run.
    let mut scenario_config = base_config(1);
    scenario_config.scenario = ScenarioSpec {
        server_fail_rate: 0.05,
        server_repair_rate: 0.4,
        ..ScenarioSpec::default()
    };
    let scenario_sim = Simulation::new(scenario_config).unwrap();
    let scenario_ckpt = checkpoint_at(&scenario_sim, &factory, 50);
    assert!(matches!(
        resume(&sim, &factory, &scenario_ckpt).unwrap_err(),
        SimError::Checkpoint(_)
    ));
}
