//! The sharded policy sweep behind the `sweep` binary.
//!
//! Runs a `(system × load × policy × replication)` grid on the **sharded**
//! round engine: every cell simulates its system as `--shards k` independent
//! server shards (striped partition, per-shard RNG sub-streams) and merges
//! the per-shard reports into one system-wide result. With `k = 1` every
//! cell is bit-identical to the unsharded engine, so the binary doubles as
//! an end-to-end smoke test of the shard/merge path in CI (`--quick
//! --shards 4`) and as the harness for shard-count scaling studies.
//!
//! The grid itself rides [`SweepGrid`] — the same unified executor all
//! figure experiments use — so cells are distributed over the fan-out's
//! threads while each cell steps its shards sequentially (no nested
//! oversubscription); results are bit-identical for every thread count.

use crate::cli::{check_split, distinct_systems, CliError, CliOptions};
use crate::output::OutputSink;
use crate::response::{cluster_for_system, replication_seed};
use crate::sweep::{effective_threads, SweepGrid};
use scd_metrics::Table;
use scd_model::RateProfile;
use scd_policies::factory_by_name;
use scd_sim::{
    write_chrome_trace, ArrivalSpec, ScenarioSpec, ServiceModel, ShardedSimulation, SimConfig,
    StalenessSpec, WorkloadSpec,
};
use std::time::Duration;

/// Resolved configuration of one sharded sweep.
#[derive(Debug, Clone)]
pub struct ShardSweepSpec {
    /// Heterogeneity profile used to draw the clusters.
    pub profile: RateProfile,
    /// Policy names (must exist in the registry).
    pub policies: Vec<String>,
    /// `(n, m)` systems to simulate.
    pub systems: Vec<(usize, usize)>,
    /// Offered loads to sweep.
    pub loads: Vec<f64>,
    /// Rounds per run.
    pub rounds: u64,
    /// Warm-up rounds excluded from statistics.
    pub warmup: u64,
    /// Master seed.
    pub seed: u64,
    /// Independent replications per cell (statistics are averaged).
    pub replications: usize,
    /// Number of server shards per simulation.
    pub shards: usize,
    /// When set, run every cell as this many supervised `shard_worker` OS
    /// processes via the fabric orchestrator instead of in-process shards
    /// (`--processes K`; bit-identical to `shards = K` when no worker is
    /// lost). Overrides `shards` and pins the grid to one thread — the
    /// worker processes are the parallel dimension then.
    pub processes: Option<usize>,
    /// Heartbeat deadline per worker in `processes` mode (`--worker-timeout`
    /// in milliseconds): the longest allowed gap between consecutive frames
    /// on a worker's stdout, a per-attempt wall clock without checkpoints.
    pub worker_timeout: Duration,
    /// Retry budget per shard after the first attempt in `processes` mode
    /// (`--max-retries`).
    pub max_retries: u32,
    /// Checkpoint streaming cadence in rounds for `processes` mode
    /// (`--checkpoint-every`; 0 = no checkpoints, retries restart from
    /// seed).
    pub checkpoint_every: u64,
    /// Worker threads for the cell grid.
    pub threads: usize,
    /// Fault/churn/staleness scenario applied to every cell (the default is
    /// inert: fair-weather runs, no degradation columns in the output).
    pub scenario: ScenarioSpec,
    /// Time-varying / trace-driven workload applied to every cell (the
    /// default is inert: stationary Poisson arrivals).
    pub workload: WorkloadSpec,
}

impl ShardSweepSpec {
    /// Resolves CLI options into a sweep specification (scale presets
    /// mirror the figure binaries: `--paper`, default, `--quick`).
    pub fn resolve(options: &CliOptions) -> Self {
        let (rounds, systems, loads) = if options.paper {
            (
                50_000,
                vec![(100, 10), (200, 20)],
                vec![0.5, 0.7, 0.9, 0.95, 0.99],
            )
        } else if options.quick {
            // 4 dispatchers so the CI smoke run (`--quick --shards 4`) can
            // give every shard at least one.
            (400, vec![(16, 4)], vec![0.9])
        } else {
            (4_000, vec![(64, 4)], vec![0.7, 0.9, 0.95])
        };
        let rounds = options.rounds.unwrap_or(rounds);
        let mut systems = options.systems.clone().unwrap_or(systems);
        if let Some(n) = options.servers {
            // The mean-field scale knob: force every system to n servers,
            // keeping its dispatcher count.
            for system in &mut systems {
                system.0 = n;
            }
        }
        ShardSweepSpec {
            profile: RateProfile::paper_moderate(),
            policies: vec!["SCD".into(), "JSQ".into(), "SED".into()],
            systems: distinct_systems(systems),
            loads: options.loads.clone().unwrap_or(loads),
            rounds,
            warmup: rounds / 10,
            seed: options.seed,
            replications: options.replications.max(1),
            shards: options.processes.unwrap_or(options.shards),
            processes: options.processes,
            worker_timeout: Duration::from_millis(options.worker_timeout_ms),
            max_retries: options.max_retries,
            checkpoint_every: options.checkpoint_every,
            threads: if options.processes.is_some() {
                1
            } else {
                effective_threads(options.threads)
            },
            scenario: ScenarioSpec::default(),
            workload: WorkloadSpec::default(),
        }
    }
}

/// Parses the `sweep` command line: [`CliOptions::parse`], then a usage
/// error (exit 2) for a `--shards` or `--processes` count that some
/// resolved system cannot split, naming the first such system.
///
/// # Errors
/// As [`CliOptions::parse`], plus [`CliError::Invalid`] for such a count.
pub fn parse_options<I>(args: I) -> Result<CliOptions, CliError>
where
    I: IntoIterator<Item = String>,
{
    let options = CliOptions::parse(args)?;
    let spec = ShardSweepSpec::resolve(&options);
    let flag = if spec.processes.is_some() {
        "--processes"
    } else {
        "--shards"
    };
    for &system in &spec.systems {
        check_split(flag, spec.shards, system)?;
    }
    Ok(options)
}

/// Resolves the `--scenario` / `--stale-k` / `--fail-rate` flags into one
/// [`ScenarioSpec`]: the scenario file (if any) is the base, the explicit
/// flags override on top. `--fail-rate` alone supplies a default repair rate
/// of 0.1 so crashed servers do not stay down for the rest of the run.
///
/// # Errors
/// Returns a message for unreadable files and malformed scenario keys.
pub fn scenario_from_options(options: &CliOptions) -> Result<ScenarioSpec, String> {
    let mut scenario = match &options.scenario {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read scenario file {}: {e}", path.display()))?;
            ScenarioSpec::from_key_values(&text).map_err(|e| e.to_string())?
        }
        None => ScenarioSpec::default(),
    };
    if let Some(rate) = options.fail_rate {
        scenario.server_fail_rate = rate;
        if rate > 0.0 && scenario.server_repair_rate == 0.0 {
            scenario.server_repair_rate = 0.1;
        }
    }
    if let Some(k) = options.stale_k {
        scenario.staleness = StalenessSpec::Fixed { k };
    }
    Ok(scenario)
}

/// Resolves the `--workload` flag into a [`WorkloadSpec`] (inert when the
/// flag is absent).
///
/// # Errors
/// Returns a message for unreadable files and malformed workload keys.
pub fn workload_from_options(options: &CliOptions) -> Result<WorkloadSpec, String> {
    match &options.workload {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read workload file {}: {e}", path.display()))?;
            WorkloadSpec::from_key_values(&text).map_err(|e| e.to_string())
        }
        None => Ok(WorkloadSpec::default()),
    }
}

/// The averaged statistics of one `(system, load, policy)` cell.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSweepCell {
    /// Number of servers.
    pub n: usize,
    /// Number of dispatchers `m` (split across the shards).
    pub m: usize,
    /// Offered load.
    pub load: f64,
    /// Policy name.
    pub policy: String,
    /// Mean response time (rounds), averaged over replications.
    pub mean: f64,
    /// 99th-percentile response time (rounds), averaged over replications.
    pub p99: f64,
    /// Mean total backlog, averaged over replications.
    pub backlog: f64,
    /// Censored-job fraction, averaged over replications.
    pub censored: f64,
    /// Averaged degradation metrics, present only for non-inert scenarios
    /// (order: server-down rounds, dispatcher-offline rounds, arrivals lost,
    /// probes dropped, stale-decision rounds, herding rounds).
    pub degradation: Option<[f64; 6]>,
}

/// Raw per-replication statistics: `(mean RT, p99 RT, backlog, censored,
/// degradation columns)`.
type CellStats = (f64, f64, f64, f64, Option<[f64; 6]>);

/// Runs the sweep grid and returns one averaged cell per
/// `(system, load, policy)` in row-major order.
///
/// # Errors
/// Returns a message for unknown policies, invalid shard counts (e.g. more
/// shards than servers) and policy violations.
pub fn run_shard_sweep(spec: &ShardSweepSpec) -> Result<Vec<ShardSweepCell>, String> {
    for policy in &spec.policies {
        if factory_by_name(policy).is_none() {
            return Err(format!("unknown policy {policy}"));
        }
    }
    let replications = spec.replications.max(1);
    let grid = SweepGrid::new(spec.systems.len(), spec.loads.len(), spec.policies.len())
        .with_seeds(replications);
    let runs: Vec<Result<CellStats, String>> = grid.run(spec.threads, |pt| {
        let (n, m) = spec.systems[pt.system];
        let cluster = cluster_for_system(&spec.profile, n, spec.seed, pt.system);
        let config = SimConfig {
            spec: cluster,
            num_dispatchers: m,
            rounds: spec.rounds,
            warmup_rounds: spec.warmup,
            seed: replication_seed(spec.seed, pt.system, pt.load, pt.seed),
            arrivals: ArrivalSpec::PoissonOfferedLoad {
                offered_load: spec.loads[pt.load],
            },
            services: ServiceModel::Geometric,
            measure_decision_times: false,
            scenario: spec.scenario.clone(),
            workload: spec.workload.clone(),
        };
        let report = match spec.processes {
            // Fabric mode: the cell fans out over supervised worker
            // processes (the grid runs single-threaded then).
            Some(k) => {
                crate::fabric::fabric_run(
                    &config,
                    &spec.policies[pt.policy],
                    k,
                    spec.worker_timeout,
                    spec.max_retries,
                    spec.checkpoint_every,
                )?
                .report
            }
            None => {
                let factory = factory_by_name(&spec.policies[pt.policy]).expect("validated above");
                // Each cell steps its shards sequentially — the grid is the
                // parallel dimension here (no nested oversubscription).
                ShardedSimulation::new(config, spec.shards)
                    .map_err(|e| e.to_string())?
                    .run(factory.as_ref())
                    .map_err(|e| e.to_string())?
            }
        };
        Ok((
            report.mean_response_time(),
            report.response_time_percentile(0.99) as f64,
            report.queues.mean_total_backlog,
            report.censored_fraction(),
            report.degradation.map(|d| {
                [
                    d.server_down_rounds as f64,
                    d.dispatcher_offline_rounds as f64,
                    d.arrivals_lost as f64,
                    d.probes_dropped as f64,
                    d.stale_decision_rounds as f64,
                    d.herding_rounds as f64,
                ]
            }),
        ))
    });

    // Average the replication dimension (innermost in row-major order).
    let mut cells = Vec::with_capacity(grid.len() / replications);
    for (chunk_index, chunk) in runs.chunks(replications).enumerate() {
        let mut mean = 0.0;
        let mut p99 = 0.0;
        let mut backlog = 0.0;
        let mut censored = 0.0;
        let mut degradation: Option<[f64; 6]> = None;
        for run in chunk {
            let (m, p, b, c, d) = run.clone()?;
            mean += m;
            p99 += p;
            backlog += b;
            censored += c;
            if let Some(d) = d {
                let sums = degradation.get_or_insert([0.0; 6]);
                for (sum, value) in sums.iter_mut().zip(d) {
                    *sum += value;
                }
            }
        }
        let scale = 1.0 / replications as f64;
        let pt = grid.point(chunk_index * replications);
        let (n, m) = spec.systems[pt.system];
        cells.push(ShardSweepCell {
            n,
            m,
            load: spec.loads[pt.load],
            policy: spec.policies[pt.policy].clone(),
            mean: mean * scale,
            p99: p99 * scale,
            backlog: backlog * scale,
            censored: censored * scale,
            degradation: degradation.map(|sums| sums.map(|s| s * scale)),
        });
    }
    Ok(cells)
}

/// Renders the cells of one system as a text table. Under a non-inert
/// scenario six degradation columns are appended after the fair-weather
/// statistics (the CSV header keeps its `load,policy,mean` prefix either
/// way).
pub fn system_table(cells: &[ShardSweepCell], n: usize, m: usize) -> Table {
    let system: Vec<&ShardSweepCell> = cells.iter().filter(|c| c.n == n && c.m == m).collect();
    let degraded = system.iter().any(|c| c.degradation.is_some());
    let mut headers = vec!["load", "policy", "mean", "p99", "backlog", "censored %"];
    if degraded {
        headers.extend([
            "down rounds",
            "offline rounds",
            "arrivals lost",
            "probes dropped",
            "stale rounds",
            "herding rounds",
        ]);
    }
    let mut table = Table::with_headers(&headers);
    for cell in system {
        let mut row = vec![
            format!("{:.2}", cell.load),
            cell.policy.clone(),
            format!("{:.3}", cell.mean),
            format!("{:.1}", cell.p99),
            format!("{:.1}", cell.backlog),
            format!("{:.3}", 100.0 * cell.censored),
        ];
        if degraded {
            let metrics = cell.degradation.unwrap_or([0.0; 6]);
            row.extend(metrics.iter().map(|v| format!("{v:.1}")));
        }
        table.add_row(row);
    }
    table
}

/// The `sweep` binary's entry point: resolve, run, print (and write CSV
/// when `--csv` is given, one `sweep_n{n}m{m}_k{k}.csv` per system).
///
/// # Errors
/// Propagates [`run_shard_sweep`] errors and CSV I/O failures as
/// human-readable messages.
pub fn run_from_options(options: &CliOptions) -> Result<(), String> {
    let mut spec = ShardSweepSpec::resolve(options);
    spec.scenario = scenario_from_options(options)?;
    spec.workload = workload_from_options(options)?;
    let sink = OutputSink::from_option(options.csv.as_deref()).map_err(|e| e.to_string())?;
    sink.note(&format!(
        "[sweep] shards={} rounds={} seed={} replications={} threads={} profile={:?}",
        spec.shards, spec.rounds, spec.seed, spec.replications, spec.threads, spec.profile
    ));
    if let Some(k) = spec.processes {
        sink.note(&format!(
            "[sweep] multi-process fabric: every cell runs as {k} supervised shard_worker \
             processes (timeout={}ms retries={} checkpoint-every={})",
            spec.worker_timeout.as_millis(),
            spec.max_retries,
            spec.checkpoint_every,
        ));
    }
    if !spec.scenario.is_inert() {
        sink.note(&format!(
            "[sweep] scenario: {}",
            spec.scenario.to_key_values().replace('\n', " ")
        ));
    }
    if !spec.workload.is_inert() {
        sink.note(&format!(
            "[sweep] workload: {}",
            spec.workload.to_key_values().replace('\n', " ")
        ));
    }
    if options.tail {
        sink.note("--tail applies to the figure binaries; the sharded sweep reports p99 per cell");
    }
    let cells = run_shard_sweep(&spec)?;
    for &(n, m) in &spec.systems {
        sink.emit_table(
            &format!(
                "sweep: n={n} m={m}, {} shard(s) of ~{} servers",
                spec.shards,
                n.div_ceil(spec.shards)
            ),
            &format!("sweep_n{n}m{m}_k{}", spec.shards),
            &system_table(&cells, n, m),
        )
        .map_err(|e| e.to_string())?;
    }
    if let Some(path) = &options.trace_out {
        let events = write_first_cell_trace(&spec, path)?;
        sink.note(&format!(
            "[sweep] wrote a Chrome/Perfetto trace of the first cell ({events} events) to {}",
            path.display()
        ));
    }
    Ok(())
}

/// Re-runs the sweep's first `(system, load, policy)` cell with event
/// tracing and writes the Chrome `trace_event` JSON to `path` (the
/// `--trace-out` flag). One representative timeline, not one per cell: a
/// trace is an inspection artifact, and the first cell is deterministic.
///
/// # Errors
/// Propagates engine errors and file I/O failures as messages.
fn write_first_cell_trace(spec: &ShardSweepSpec, path: &std::path::Path) -> Result<usize, String> {
    let (n, m) = spec.systems[0];
    let cluster = cluster_for_system(&spec.profile, n, spec.seed, 0);
    let config = SimConfig {
        spec: cluster,
        num_dispatchers: m,
        rounds: spec.rounds,
        warmup_rounds: spec.warmup,
        seed: replication_seed(spec.seed, 0, 0, 0),
        arrivals: ArrivalSpec::PoissonOfferedLoad {
            offered_load: spec.loads[0],
        },
        services: ServiceModel::Geometric,
        measure_decision_times: false,
        scenario: spec.scenario.clone(),
        workload: spec.workload.clone(),
    };
    let factory = factory_by_name(&spec.policies[0]).expect("validated by run_shard_sweep");
    let (_report, trace) = ShardedSimulation::new(config, spec.shards)
        .map_err(|e| e.to_string())?
        .run_traced(factory.as_ref())
        .map_err(|e| e.to_string())?;
    write_chrome_trace(path, &trace)
        .map_err(|e| format!("cannot write trace file {}: {e}", path.display()))?;
    Ok(trace.events.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use scd_sim::Simulation;

    fn quick_spec(shards: usize) -> ShardSweepSpec {
        ShardSweepSpec::resolve(&CliOptions {
            quick: true,
            shards,
            threads: Some(2),
            ..CliOptions::default()
        })
    }

    #[test]
    fn quick_sweep_produces_one_cell_per_coordinate() {
        let spec = quick_spec(2);
        let cells = run_shard_sweep(&spec).unwrap();
        assert_eq!(
            cells.len(),
            spec.systems.len() * spec.loads.len() * spec.policies.len()
        );
        for cell in &cells {
            assert!(cell.mean >= 1.0, "response times are at least one round");
        }
        let table = system_table(&cells, 16, 4);
        assert_eq!(table.num_rows(), spec.policies.len());
    }

    #[test]
    fn single_shard_sweep_matches_the_unsharded_engine() {
        let spec = quick_spec(1);
        let cells = run_shard_sweep(&spec).unwrap();
        // Recompute the first cell directly on the unsharded engine.
        let cluster = cluster_for_system(&spec.profile, 16, spec.seed, 0);
        let config = SimConfig {
            spec: cluster,
            num_dispatchers: 4,
            rounds: spec.rounds,
            warmup_rounds: spec.warmup,
            seed: replication_seed(spec.seed, 0, 0, 0),
            arrivals: ArrivalSpec::PoissonOfferedLoad {
                offered_load: spec.loads[0],
            },
            services: ServiceModel::Geometric,
            measure_decision_times: false,
            scenario: scd_sim::ScenarioSpec::default(),
            workload: scd_sim::WorkloadSpec::default(),
        };
        let factory = factory_by_name(&spec.policies[0]).unwrap();
        let report = Simulation::new(config)
            .unwrap()
            .run(factory.as_ref())
            .unwrap();
        assert_eq!(cells[0].mean, report.mean_response_time());
        assert_eq!(cells[0].p99, report.response_time_percentile(0.99) as f64);
    }

    #[test]
    fn sweep_is_thread_count_invariant() {
        let mut spec = quick_spec(2);
        let a = run_shard_sweep(&spec).unwrap();
        spec.threads = 1;
        let b = run_shard_sweep(&spec).unwrap();
        spec.threads = 8;
        let c = run_shard_sweep(&spec).unwrap();
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn entry_point_writes_per_system_csv_when_requested() {
        let dir = std::env::temp_dir().join(format!("scd-sweep-test-{}", std::process::id()));
        let options = CliOptions {
            quick: true,
            shards: 2,
            threads: Some(2),
            csv: Some(dir.clone()),
            tail: true, // noted and ignored, must not fail
            ..CliOptions::default()
        };
        run_from_options(&options).unwrap();
        let written = std::fs::read_to_string(dir.join("sweep_n16m4_k2.csv")).unwrap();
        assert!(written.starts_with("load,policy,mean"), "{written}");
        assert!(written.contains("SCD"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn degraded_sweep_reports_degradation_columns() {
        let mut spec = quick_spec(2);
        spec.scenario.server_fail_rate = 0.05;
        spec.scenario.server_repair_rate = 0.2;
        spec.scenario.staleness = StalenessSpec::Fixed { k: 2 };
        let cells = run_shard_sweep(&spec).unwrap();
        assert!(cells.iter().all(|c| c.degradation.is_some()));
        let [down, _, _, _, stale, _] = cells[0].degradation.unwrap();
        assert!(down > 0.0, "a 5% fail rate over 400 rounds downs servers");
        assert!(stale > 0.0, "k=2 staleness marks decision rounds");
        let table = system_table(&cells, 16, 4);
        assert_eq!(table.num_rows(), spec.policies.len());
        // Degraded sweeps replay bit-exactly too.
        assert_eq!(cells, run_shard_sweep(&spec).unwrap());
    }

    #[test]
    fn scenario_flags_compose_file_and_overrides() {
        let dir = std::env::temp_dir().join(format!("scd-scn-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("faults.scn");
        std::fs::write(&path, "server_fail_rate = 0.01\nserver_repair_rate = 0.5\n").unwrap();
        let options = CliOptions {
            scenario: Some(path),
            fail_rate: Some(0.05),
            stale_k: Some(2),
            ..CliOptions::default()
        };
        let scenario = scenario_from_options(&options).unwrap();
        assert_eq!(scenario.server_fail_rate, 0.05);
        assert_eq!(scenario.server_repair_rate, 0.5, "file value survives");
        assert_eq!(scenario.staleness, StalenessSpec::Fixed { k: 2 });
        let bare = scenario_from_options(&CliOptions {
            fail_rate: Some(0.05),
            ..CliOptions::default()
        })
        .unwrap();
        assert_eq!(bare.server_repair_rate, 0.1, "default repair is supplied");
        assert!(scenario_from_options(&CliOptions {
            scenario: Some(dir.join("missing.scn")),
            ..CliOptions::default()
        })
        .is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn servers_flag_overrides_n_and_systems_run_once() {
        let spec = ShardSweepSpec::resolve(&CliOptions {
            paper: true,
            servers: Some(50_000),
            ..CliOptions::default()
        });
        // Both paper systems keep their dispatcher counts; n is forced.
        assert_eq!(spec.systems, vec![(50_000, 10), (50_000, 20)]);

        let small = ShardSweepSpec::resolve(&CliOptions {
            quick: true,
            servers: Some(32),
            ..CliOptions::default()
        });
        assert_eq!(small.systems, vec![(32, 4)]);

        // Duplicate systems created by the override collapse.
        let deduped = ShardSweepSpec::resolve(&CliOptions {
            systems: Some(vec![(100, 8), (200, 8)]),
            servers: Some(64),
            ..CliOptions::default()
        });
        assert_eq!(deduped.systems, vec![(64, 8)]);

        // So do non-adjacent ones; the first occurrence keeps its place.
        let apart = ShardSweepSpec::resolve(&CliOptions {
            systems: Some(vec![(16, 4), (32, 2), (48, 4)]),
            servers: Some(20),
            ..CliOptions::default()
        });
        assert_eq!(apart.systems, vec![(20, 4), (20, 2)]);

        // And systems typed twice in `--systems`.
        let typed = ShardSweepSpec::resolve(&CliOptions {
            systems: Some(vec![(16, 4), (32, 2), (16, 4)]),
            ..CliOptions::default()
        });
        assert_eq!(typed.systems, vec![(16, 4), (32, 2)]);
    }

    #[test]
    fn oversharded_systems_report_an_error() {
        let mut spec = quick_spec(64);
        spec.systems = vec![(4, 2)];
        let err = run_shard_sweep(&spec).unwrap_err();
        assert!(err.contains("shards"), "unexpected message: {err}");
    }

    #[test]
    fn shard_counts_no_system_can_split_are_usage_errors() {
        // Each passed parsing and then failed at run time with exit 1.
        for (args, refusal) in [
            (
                "--quick --shards 5",
                "--shards 5 cannot split the 16x4 system",
            ),
            (
                "--quick --processes 5",
                "--processes 5 cannot split the 16x4 system",
            ),
            (
                "--quick --servers 3 --shards 4",
                "--shards 4 cannot split the 3x4 system",
            ),
            (
                "--quick --systems 16x2 --shards 4",
                "--shards 4 cannot split the 16x2 system",
            ),
            (
                "--systems 64x8,8x2 --processes 3",
                "--processes 3 cannot split the 8x2 system",
            ),
        ] {
            let outcome = parse_options(args.split(' ').map(String::from)).unwrap_err();
            assert_eq!(outcome.exit_code(), 2, "{args}");
            assert!(
                outcome.message().starts_with(refusal),
                "{args}: {}",
                outcome.message()
            );
        }
        let fits = parse_options(["--quick", "--shards", "4"].map(String::from)).unwrap();
        assert_eq!(ShardSweepSpec::resolve(&fits).shards, 4);
    }

    #[test]
    fn unknown_policies_are_rejected_up_front() {
        let mut spec = quick_spec(1);
        spec.policies = vec!["NOPE".into()];
        assert!(run_shard_sweep(&spec).unwrap_err().contains("NOPE"));
    }
}
