//! The untraced end-to-end run: set-up, then SCD, JSQ and WR in turn on the
//! same inputs, repeated until the time budget is spent.

use crate::json::Obj;
use crate::workload::{build_config, materialize_rates, Mode, Workload, POLICIES};
use scd_model::{DispatcherId, PolicyFactory};
use scd_policies::factory_by_name;
use scd_sim::fabric::{run_fabric, FabricSpec};
use scd_sim::{ShardedSimulation, SimReport, Simulation};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Set-ups measured before the first timed run, at most.
const MAX_SETUPS: usize = 200;
/// Set-ups measured before the first timed run, at least.
const MIN_SETUPS: usize = 5;
/// Full cells (all three policies) run, at least, whatever the budget.
const MIN_REPS: usize = 3;

/// A workload ready to run: what set-up produced.
pub enum Prepared {
    InProcess(Simulation),
    Fabric(ShardedSimulation),
}

/// The benchmark's policies, in [`POLICIES`] order, from the registry the
/// fabric's workers resolve them by.
pub fn factories() -> Vec<Box<dyn PolicyFactory>> {
    POLICIES
        .iter()
        .map(|name| factory_by_name(name).expect("benchmark policies are registered"))
        .collect()
}

/// Set-up: rate materialisation, `SimConfig` build and validation, the
/// (sharded) simulation's construction and every dispatcher's
/// `PolicyFactory::build`.
pub fn setup(
    workload: &Workload,
    seed: u64,
    factories: &[Box<dyn PolicyFactory>],
    measure_decision_times: bool,
) -> Result<Prepared, String> {
    let rates = materialize_rates(workload, seed);
    let config = build_config(
        workload,
        rates,
        seed,
        workload.rounds,
        workload.warmup_rounds,
        measure_decision_times,
    )?;
    let prepared = match workload.mode {
        Mode::InProcess => Prepared::InProcess(Simulation::new(config).map_err(|e| e.to_string())?),
        Mode::Fabric { shards, .. } => {
            Prepared::Fabric(ShardedSimulation::new(config, shards).map_err(|e| e.to_string())?)
        }
    };
    let shard_configs: Vec<_> = match &prepared {
        Prepared::InProcess(sim) => vec![sim.config()],
        Prepared::Fabric(sharded) => (0..sharded.num_shards())
            .map(|j| sharded.shard_config(j))
            .collect(),
    };
    for factory in factories {
        for config in &shard_configs {
            for d in 0..config.num_dispatchers {
                black_box(factory.build(DispatcherId::new(d), &config.spec));
            }
        }
    }
    Ok(prepared)
}

/// What the fabric did during one run (all zero in-process).
#[derive(Default)]
pub struct FabricFacts {
    pub lost_shards: usize,
    pub attempts: usize,
    pub failed_attempts: usize,
    pub checkpoints_taken: u64,
    pub rounds_replayed: u64,
}

/// What one policy run produced, for the output checks.
pub struct RunOutcome {
    pub report: SimReport,
    pub fabric: FabricFacts,
}

pub fn run_policy(
    prepared: &Prepared,
    workload: &Workload,
    policy: usize,
    factories: &[Box<dyn PolicyFactory>],
    worker: &Path,
) -> Result<RunOutcome, String> {
    match (prepared, workload.mode) {
        (Prepared::InProcess(sim), _) => Ok(RunOutcome {
            report: sim
                .run(factories[policy].as_ref())
                .map_err(|e| e.to_string())?,
            fabric: FabricFacts::default(),
        }),
        (
            Prepared::Fabric(sharded),
            Mode::Fabric {
                shards,
                checkpoint_every,
            },
        ) => {
            let mut spec = FabricSpec::new(worker.to_path_buf(), POLICIES[policy], shards);
            spec.checkpoint_every = checkpoint_every;
            let outcome = run_fabric(sharded.config(), &spec).map_err(|e| e.to_string())?;
            let fabric = FabricFacts {
                lost_shards: outcome.lost_shards.len(),
                attempts: outcome.attempts.len(),
                failed_attempts: outcome
                    .attempts
                    .iter()
                    .filter(|a| a.failure.is_some())
                    .count(),
                checkpoints_taken: outcome.checkpoints_taken,
                rounds_replayed: outcome.rounds_replayed,
            };
            Ok(RunOutcome {
                report: outcome.report,
                fabric,
            })
        }
        (Prepared::Fabric(_), Mode::InProcess) => unreachable!("set-up follows the workload mode"),
    }
}

/// The facts of one run the output checks read.
pub fn run_record(
    policy: &str,
    rep: usize,
    seconds: f64,
    rounds: u64,
    outcome: &Result<RunOutcome, String>,
) -> Obj {
    let mut rec = Obj::new();
    rec.str("policy", policy)
        .int("rep", rep as u64)
        .num("seconds", seconds)
        .int("rounds", rounds);
    match outcome {
        Ok(out) => {
            rec.str("error", "")
                .num("mean_response", out.report.mean_response_time())
                .int("dispatched", out.report.jobs_dispatched)
                .int("completed", out.report.jobs_completed)
                .int("in_flight", out.report.jobs_in_flight)
                .int("lost_shards", out.fabric.lost_shards as u64)
                .int("attempts", out.fabric.attempts as u64)
                .int("failed_attempts", out.fabric.failed_attempts as u64)
                .int("checkpoints_taken", out.fabric.checkpoints_taken)
                .int("rounds_replayed", out.fabric.rounds_replayed);
        }
        Err(e) => {
            rec.str("error", e);
        }
    }
    rec
}

pub fn run(workload: &Workload, seed: u64, budget: Duration, worker: &Path) -> Obj {
    let start = Instant::now();
    let factories = factories();
    let mut setup_s = Vec::new();
    let mut runs = Vec::new();
    let mut cells = Vec::new();
    let mut setup_error = None;
    // Set-up alone, several times: it is short next to a run, so one sample
    // per cell would leave its median noisy.
    while setup_s.len() < MAX_SETUPS
        && (setup_s.len() < MIN_SETUPS || start.elapsed() < budget / 20)
    {
        let t = Instant::now();
        match setup(workload, seed, &factories, false) {
            Ok(prepared) => {
                setup_s.push(t.elapsed().as_secs_f64());
                drop(black_box(prepared));
            }
            Err(e) => {
                setup_error = Some(e);
                break;
            }
        }
    }
    let mut rep = 0;
    while setup_error.is_none() && (rep < MIN_REPS || start.elapsed() < budget) {
        let cell = Instant::now();
        let prepared = match setup(workload, seed, &factories, false) {
            Ok(p) => p,
            Err(e) => {
                setup_error = Some(e);
                break;
            }
        };
        setup_s.push(cell.elapsed().as_secs_f64());
        for (i, name) in POLICIES.iter().enumerate() {
            let t = Instant::now();
            let outcome = run_policy(&prepared, workload, i, &factories, worker);
            let seconds = t.elapsed().as_secs_f64();
            runs.push(run_record(name, rep, seconds, workload.rounds, &outcome));
        }
        cells.push(cell.elapsed().as_secs_f64());
        rep += 1;
    }
    let mut out = Obj::new();
    out.str("mode", "e2e")
        .str("workload", workload.name)
        .int("seed", seed)
        .obj("params", crate::workload::params(workload))
        .str("setup_error", setup_error.as_deref().unwrap_or(""))
        .nums("setup_s", &setup_s)
        .nums("cell_s", &cells)
        .objs("runs", runs)
        .num("own_rss_mib", crate::rss::own_peak_mib())
        .num("workers_rss_mib", crate::rss::workers_peak_mib());
    out
}
