//! The four benchmark workloads and the inputs they generate from a seed.
//!
//! The benchmark owns the seed: it draws the cluster's service rates and the
//! engine's master seed itself, and hands the program only the generated
//! `SimConfig`. The same `--seed` therefore always yields the same inputs.

use crate::json::Obj;
use scd_model::ClusterSpec;
use scd_sim::{ArrivalSpec, ServiceModel, SimConfig};

/// The policies every workload runs, in order, under their registry names.
pub const POLICIES: [&str; 3] = ["SCD", "JSQ", "WR"];

/// How a workload's cluster rates are drawn.
#[derive(Debug, Clone, Copy)]
pub enum Rates {
    /// Every server draws µ ~ U[lo, hi] independently (all rates distinct).
    Uniform { lo: f64, hi: f64 },
    /// Equal shares of the listed rates, shuffled across the server indices.
    Generations(&'static [f64]),
}

/// How a workload's runs execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `Simulation::run` in the benchmark's process, on one thread.
    InProcess,
    /// `run_fabric` over `shards` supervised `shard_worker` processes,
    /// streaming a checkpoint every `checkpoint_every` rounds.
    Fabric {
        shards: usize,
        checkpoint_every: u64,
    },
}

/// One benchmark workload: a fixed cluster shape, load and run length.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub servers: usize,
    pub dispatchers: usize,
    pub offered_load: f64,
    pub rates: Rates,
    /// Rounds per run, warm-up included.
    pub rounds: u64,
    pub warmup_rounds: u64,
    pub mode: Mode,
    /// Rounds of the traced window the per-layer replay runs on (from round
    /// 0, so that the window's snapshots can be rebuilt from its events).
    pub window_rounds: u64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "paper-n100",
        servers: 100,
        dispatchers: 10,
        offered_load: 0.99,
        rates: Rates::Uniform { lo: 1.0, hi: 10.0 },
        rounds: 12_000,
        warmup_rounds: 2_000,
        mode: Mode::InProcess,
        window_rounds: 1_200,
    },
    Workload {
        name: "dense-n10k",
        servers: 10_000,
        dispatchers: 100,
        offered_load: 0.99,
        rates: Rates::Uniform { lo: 1.0, hi: 10.0 },
        rounds: 60,
        warmup_rounds: 20,
        mode: Mode::InProcess,
        window_rounds: 24,
    },
    Workload {
        name: "idle-n10k",
        servers: 10_000,
        dispatchers: 100,
        offered_load: 0.01,
        rates: Rates::Uniform { lo: 1.0, hi: 10.0 },
        rounds: 400,
        warmup_rounds: 100,
        mode: Mode::InProcess,
        window_rounds: 200,
    },
    Workload {
        name: "classes-n10k-fabric",
        servers: 10_000,
        dispatchers: 100,
        offered_load: 0.99,
        rates: Rates::Generations(&[1.0, 2.0, 5.0, 10.0]),
        rounds: 400,
        warmup_rounds: 100,
        mode: Mode::Fabric {
            shards: 2,
            checkpoint_every: 100,
        },
        window_rounds: 24,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The workload's parameters, as `design.json` records them.
pub fn params(workload: &Workload) -> Obj {
    let mut out = Obj::new();
    out.int("servers", workload.servers as u64)
        .int("dispatchers", workload.dispatchers as u64)
        .num("offered_load", workload.offered_load);
    match workload.rates {
        Rates::Uniform { lo, hi } => out.str("rates", &format!("uniform {lo:?}..{hi:?}")),
        Rates::Generations(levels) => out.str("rates", &format!("equal shares of {levels:?}")),
    };
    out.int("rounds", workload.rounds)
        .int("warmup_rounds", workload.warmup_rounds)
        .int("window_rounds", workload.window_rounds);
    match workload.mode {
        Mode::InProcess => out.str("mode", "in-process"),
        Mode::Fabric {
            shards,
            checkpoint_every,
        } => out
            .str("mode", "fabric")
            .int("shards", shards as u64)
            .int("checkpoint_every", checkpoint_every),
    };
    out
}

/// splitmix64: the benchmark's own input generator, independent of the
/// program's RNG streams.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Draws the cluster's rates from the workload seed.
pub fn materialize_rates(workload: &Workload, seed: u64) -> Vec<f64> {
    let mut state = seed ^ 0x5241_5445_5300_0000;
    let n = workload.servers;
    match workload.rates {
        Rates::Uniform { lo, hi } => (0..n).map(|_| lo + (hi - lo) * unit(&mut state)).collect(),
        Rates::Generations(levels) => {
            let mut rates: Vec<f64> = (0..n).map(|s| levels[s * levels.len() / n]).collect();
            for i in (1..n).rev() {
                let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
                rates.swap(i, j);
            }
            rates
        }
    }
}

/// The engine's master seed for this workload seed.
pub fn engine_seed(seed: u64) -> u64 {
    let mut state = seed ^ 0x454E_4749_4E45_0000;
    splitmix64(&mut state)
}

/// Builds and validates the run configuration over the given rates.
pub fn build_config(
    workload: &Workload,
    rates: Vec<f64>,
    seed: u64,
    rounds: u64,
    warmup_rounds: u64,
    measure_decision_times: bool,
) -> Result<SimConfig, String> {
    let spec = ClusterSpec::from_rates(rates).map_err(|e| e.to_string())?;
    SimConfig::builder(spec)
        .dispatchers(workload.dispatchers)
        .rounds(rounds)
        .warmup_rounds(warmup_rounds)
        .seed(engine_seed(seed))
        .arrivals(ArrivalSpec::PoissonOfferedLoad {
            offered_load: workload.offered_load,
        })
        .services(ServiceModel::Geometric)
        .measure_decision_times(measure_decision_times)
        .build()
        .map_err(|e| e.to_string())
}
