//! End-to-end engine throughput in absolute terms: rounds/second (and
//! µs/round) of SCD and the baselines on the paper's 100-server /
//! 10-dispatcher cluster at 0.99 offered load, plus SCD on a 4-way sharded
//! split of the same system and on two 10⁴-server clusters — one whose
//! dispatch table groups servers by `(q, rate-class)` class, one where
//! every server is its own group.
//!
//! Run with `cargo bench --bench engine_throughput`. Appends the measurements
//! to the run history in `BENCH_engine.json` at the workspace root; a run is
//! read against the previous recorded run, never against a live baseline
//! engine (see `crates/bench/README.md` for the methodology).

use rand::rngs::StdRng;
use rand::SeedableRng;
use scd_core::policy::ScdFactory;
use scd_model::{ClusterSpec, PolicyFactory, RateProfile};
use scd_policies::{ArgminFactory, WeightedRandomFactory};
use scd_sim::{ArrivalSpec, ShardedSimulation, SimConfig, Simulation};
use std::time::Instant;

const SERVERS: usize = 100;
const DISPATCHERS: usize = 10;
const OFFERED_LOAD: f64 = 0.99;
const ROUNDS: u64 = 2_000;
const SEED: u64 = 7;
/// Identifies this bench definition's run in the recorded history; change
/// it when a row changes meaning, so earlier recordings stay auditable.
const RUN_LABEL: &str = "absolute rounds/s per policy on the paper cell, SCD sharded k=4, \
                         SCD's dispatch kernel at 10^4 servers with class and per-server groups \
                         (no live baselines)";
/// Timed runs per row; `CRITERION_QUICK=1` drops to a single run (CI smoke
/// test).
fn repetitions() -> usize {
    if std::env::var_os("CRITERION_QUICK").is_some() {
        1
    } else {
        9
    }
}

fn bench_config() -> SimConfig {
    let mut cluster_rng = StdRng::seed_from_u64(SEED);
    let spec = RateProfile::paper_moderate()
        .materialize(SERVERS, &mut cluster_rng)
        .expect("valid profile");
    SimConfig::builder(spec)
        .dispatchers(DISPATCHERS)
        .rounds(ROUNDS)
        .warmup_rounds(0)
        .seed(SEED)
        .arrivals(ArrivalSpec::PoissonOfferedLoad {
            offered_load: OFFERED_LOAD,
        })
        .build()
        .expect("valid configuration")
}

/// Best-of-N rounds/second of `run`, which simulates `rounds` rounds and
/// returns a checksum. One untimed warm-up run first; the minimum elapsed
/// time estimates the unloaded cost on a time-shared machine.
fn best_rate(rounds: u64, mut run: impl FnMut() -> u64) -> f64 {
    let mut checksum = run();
    let mut best = f64::INFINITY;
    for _ in 0..repetitions() {
        let start = Instant::now();
        checksum = checksum.wrapping_add(run());
        best = best.min(start.elapsed().as_secs_f64());
    }
    std::hint::black_box(checksum);
    rounds as f64 / best
}

struct Row {
    name: &'static str,
    rounds_per_sec: f64,
}

fn main() {
    let config = bench_config();
    println!(
        "engine throughput: {SERVERS} servers, {DISPATCHERS} dispatchers, load {OFFERED_LOAD}, \
         {ROUNDS} rounds, best of {}",
        repetitions()
    );
    let mut rows: Vec<Row> = Vec::new();
    let mut record = |name: &'static str, rounds_per_sec: f64, note: &str| {
        println!(
            "  {name:<9} {rounds_per_sec:>12.0} rounds/s | {:>10.2} us/round{note}",
            1e6 / rounds_per_sec
        );
        rows.push(Row {
            name,
            rounds_per_sec,
        });
    };

    let simulation = Simulation::new(config.clone()).expect("valid configuration");
    let policies: Vec<(&'static str, Box<dyn PolicyFactory>)> = vec![
        ("SCD", Box::new(ScdFactory::new())),
        ("JSQ", Box::new(ArgminFactory::jsq())),
        ("SED", Box::new(ArgminFactory::sed())),
        ("LSQ", Box::new(ArgminFactory::lsq())),
        ("LED", Box::new(ArgminFactory::led())),
        ("WR", Box::new(WeightedRandomFactory::new())),
    ];
    for (name, factory) in &policies {
        let rate = best_rate(ROUNDS, || {
            simulation
                .run(factory.as_ref())
                .expect("clean run")
                .jobs_completed
        });
        record(name, rate, "");
    }

    // The sharded engine: the same system split 4 ways (servers and
    // dispatchers striped), shards fanned out over 4 threads.
    const SHARDS: usize = 4;
    let split = ShardedSimulation::new(config, SHARDS).expect("valid configuration");
    let scd = ScdFactory::new();
    let rate = best_rate(ROUNDS, || {
        split
            .run_parallel(&scd, SHARDS)
            .expect("clean run")
            .jobs_completed
    });
    record("SHARD", rate, &format!("  (SCD, k={SHARDS})"));

    // SCD's dispatch kernel at 10⁴ servers, once per group source: a
    // **bimodal** cluster (two rate classes, shallow queues) whose table
    // holds `(q, rate-class)` classes, and a continuous U[1,10] profile at
    // 0.99 load where every server is its own group.
    const SCALE_SERVERS: usize = 10_000;
    const SCALE_ROUNDS: u64 = 200;
    let mut bimodal = vec![1.0; SCALE_SERVERS / 2];
    bimodal.resize(SCALE_SERVERS, 4.0);
    let continuous = RateProfile::paper_moderate()
        .materialize(SCALE_SERVERS, &mut StdRng::seed_from_u64(SEED))
        .expect("valid profile");
    for (name, spec, load, note) in [
        (
            "SCD@10K-C",
            ClusterSpec::from_rates(bimodal).expect("valid rates"),
            0.9,
            "bimodal, load 0.9, class groups",
        ),
        (
            "SCD@10K-S",
            continuous,
            0.99,
            "U[1,10], load 0.99, per-server groups",
        ),
    ] {
        let scale_config = SimConfig::builder(spec)
            .dispatchers(DISPATCHERS)
            .rounds(SCALE_ROUNDS)
            .warmup_rounds(0)
            .seed(SEED)
            .arrivals(ArrivalSpec::PoissonOfferedLoad { offered_load: load })
            .build()
            .expect("valid configuration");
        let scale_sim = Simulation::new(scale_config).expect("valid configuration");
        let rate = best_rate(SCALE_ROUNDS, || {
            scale_sim.run(&scd).expect("clean run").jobs_completed
        });
        record(name, rate, &format!("  ({SCALE_SERVERS} servers, {note})"));
    }

    if std::env::var_os("CRITERION_QUICK").is_some() {
        println!("CRITERION_QUICK set: smoke run, not recording BENCH_engine.json");
        return;
    }

    let results: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "        {{\"policy\": \"{}\", \"rounds_per_sec\": {:.1}, \"us_per_round\": {:.3}}}",
                r.name,
                r.rounds_per_sec,
                1e6 / r.rounds_per_sec
            )
        })
        .collect();
    let new_run = format!(
        "    {{\n      \"label\": \"{RUN_LABEL}\",\n      \"config\": {{\"servers\": {SERVERS}, \
         \"dispatchers\": {DISPATCHERS}, \"offered_load\": {OFFERED_LOAD}, \"rounds\": {ROUNDS}, \
         \"seed\": {SEED}, \"rate_profile\": \"U[1,10]\", \"services\": \"geometric\"}},\n      \
         \"repetitions\": {reps},\n      \"results\": [\n{rows}\n      ]\n    }}",
        reps = repetitions(),
        rows = results.join(",\n")
    );

    // Append to the recorded run history (`runs` array), replacing any
    // earlier recording with this run's label so re-runs do not pile up.
    let out_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
    let previous_runs = std::fs::read_to_string(out_path).ok().and_then(|existing| {
        let start = existing.find("\"runs\": [\n")? + "\"runs\": [\n".len();
        let end = existing.rfind("\n  ]")?;
        let mut inner = existing[start..end].to_string();
        if let Some(stale) = inner.find(&format!("\"label\": \"{RUN_LABEL}\"")) {
            // Drop the run object holding the stale label (it starts at the
            // "    {" preceding the label) and everything after it.
            let object_start = inner[..stale].rfind("    {")?;
            inner.truncate(object_start);
            let trimmed = inner.trim_end().trim_end_matches(',').to_string();
            inner = trimmed;
        }
        let inner = inner.trim_end().to_string();
        (!inner.is_empty()).then_some(inner)
    });
    let runs = match previous_runs {
        Some(previous) => format!("{previous},\n{new_run}"),
        None => new_run,
    };
    let json = format!(
        "{{\n  \"benchmark\": \"engine_throughput\",\n  \"unit\": \"rounds_per_sec\",\n  \
         \"runs\": [\n{runs}\n  ]\n}}\n"
    );
    std::fs::write(out_path, &json).expect("write BENCH_engine.json");
    println!("wrote {out_path}");
}
