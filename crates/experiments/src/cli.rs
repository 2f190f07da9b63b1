//! Minimal command-line option parsing shared by all figure binaries.
//!
//! A hand-rolled parser keeps the workspace free of an argument-parsing
//! dependency; the flag surface is tiny and identical across binaries.
//! Its flag lexer (`Flags`) also serves the `orchestrate` and
//! `shard_worker` command lines in [`crate::fabric`].

use crate::sweep::SweepGrid;
use scd_sim::SimConfig;
use std::path::PathBuf;
use std::str::FromStr;

/// Options common to every figure binary.
#[derive(Debug, Clone, PartialEq)]
pub struct CliOptions {
    /// Number of simulated rounds per run (None → the figure's default).
    pub rounds: Option<u64>,
    /// Master seed.
    pub seed: u64,
    /// Offered loads to sweep (None → the figure's default).
    pub loads: Option<Vec<f64>>,
    /// `(n, m)` systems to simulate (None → the figure's default).
    pub systems: Option<Vec<(usize, usize)>>,
    /// Override the server count `n` of every selected system, keeping each
    /// system's dispatcher count `m`. This is the mean-field scale knob: it
    /// composes with `--quick`/`--paper`/`--systems`, so
    /// `sweep --quick --servers 100000` runs the quick grid at n = 10⁵.
    /// Systems the override makes equal run once.
    pub servers: Option<usize>,
    /// Use the paper's full-scale setup (10⁵ rounds, all four systems).
    pub paper: bool,
    /// Use a smoke-test-sized setup (few hundred rounds, one small system).
    pub quick: bool,
    /// Directory to which CSV series are written.
    pub csv: Option<PathBuf>,
    /// Also run the response-time-tail part of the figure.
    pub tail: bool,
    /// Number of worker threads (None → all available cores).
    pub threads: Option<usize>,
    /// Independent replications per sweep cell. Mean-response-time sweeps
    /// average across them; tail sweeps merge the histograms (deeper CCDF
    /// resolution); decision-time and ablation figures note and ignore the
    /// flag.
    pub replications: usize,
    /// Number of server shards `k` per simulation (the `sweep` binary runs
    /// every cell on the sharded round engine and merges the per-shard
    /// reports; `1` is bit-identical to the unsharded engine). Figure
    /// binaries note and ignore the flag.
    pub shards: usize,
    /// Run every simulation as this many supervised `shard_worker` OS
    /// processes instead of in-process shards (the `sweep` binary only;
    /// bit-identical to `--shards K` when no worker is lost). Figure
    /// binaries note and ignore the flag.
    pub processes: Option<usize>,
    /// Heartbeat deadline in milliseconds for `--processes` workers: the
    /// longest allowed gap between consecutive frames on a worker's
    /// stdout (without checkpoints a worker emits exactly one frame, so
    /// this degenerates to a per-attempt wall clock). Figure binaries note
    /// and ignore the flag.
    pub worker_timeout_ms: u64,
    /// Retry budget per shard after the first attempt in `--processes`
    /// mode. Figure binaries note and ignore the flag.
    pub max_retries: u32,
    /// Stream a progress/checkpoint frame pair every this many rounds in
    /// `--processes` mode, letting failed workers restart from their last
    /// verified checkpoint instead of from seed. `0` (the default) streams
    /// no checkpoints. Figure binaries note and ignore the flag.
    pub checkpoint_every: u64,
    /// Scenario file (`key = value` lines) describing faults, churn,
    /// staleness and probe loss for the `sweep` binary. Figure binaries note
    /// and ignore the flag.
    pub scenario: Option<PathBuf>,
    /// Fixed snapshot staleness `k` in rounds (overrides the scenario file's
    /// staleness when both are given).
    pub stale_k: Option<u64>,
    /// Per-round per-server crash probability (overrides the scenario file's
    /// `server_fail_rate`; a default repair rate of 0.1 is supplied when the
    /// scenario would otherwise never repair).
    pub fail_rate: Option<f64>,
    /// Workload file (`key = value` lines) describing MMPP/diurnal/flash
    /// modulation and job-size classes for the `sweep` binary. Figure
    /// binaries note and ignore the flag.
    pub workload: Option<PathBuf>,
    /// File to which the `sweep` binary writes a Chrome/Perfetto
    /// `trace_event` JSON timeline of one representative run.
    pub trace_out: Option<PathBuf>,
}

impl Default for CliOptions {
    fn default() -> Self {
        CliOptions {
            rounds: None,
            seed: 2021,
            loads: None,
            systems: None,
            servers: None,
            paper: false,
            quick: false,
            csv: None,
            tail: false,
            threads: None,
            replications: 1,
            shards: 1,
            processes: None,
            worker_timeout_ms: 120_000,
            max_retries: 2,
            checkpoint_every: 0,
            scenario: None,
            stale_k: None,
            fail_rate: None,
            workload: None,
            trace_out: None,
        }
    }
}

/// Why a binary's flag parser produced no options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// `--help` or `-h`: print this usage to stdout and exit 0.
    Help(String),
    /// An unknown flag or a malformed value: print the message to stderr
    /// and exit 2.
    Invalid(String),
}

impl CliError {
    /// The process exit code for this outcome.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Help(_) => 0,
            CliError::Invalid(_) => 2,
        }
    }

    /// The text to print: the usage for `--help`, the error otherwise.
    pub fn message(&self) -> &str {
        match self {
            CliError::Help(text) | CliError::Invalid(text) => text,
        }
    }

    /// Prints the message — the usage to stdout, an error to stderr — and
    /// exits with [`exit_code`](CliError::exit_code).
    pub fn exit(&self) -> ! {
        match self {
            CliError::Help(text) => println!("{text}"),
            CliError::Invalid(text) => eprintln!("{text}"),
        }
        std::process::exit(self.exit_code())
    }
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError::Invalid(message)
    }
}

impl From<&str> for CliError {
    fn from(message: &str) -> Self {
        CliError::Invalid(message.to_string())
    }
}

/// The one flag lexer under the workspace's command lines
/// ([`CliOptions::parse`], [`OrchestrateOptions::parse`] and
/// [`parse_worker_args`]): it walks the arguments flag by flag and reads
/// each flag's value, with one wording for every error it finds.
///
/// [`OrchestrateOptions::parse`]: crate::fabric::OrchestrateOptions::parse
/// [`parse_worker_args`]: crate::fabric::parse_worker_args
#[derive(Debug)]
pub(crate) struct Flags<I> {
    args: I,
}

impl<I: Iterator<Item = String>> Flags<I> {
    pub(crate) fn new(args: impl IntoIterator<IntoIter = I>) -> Self {
        Flags {
            args: args.into_iter(),
        }
    }

    /// The next flag, or `None` once every argument is read.
    pub(crate) fn next_flag(&mut self) -> Option<String> {
        self.args.next()
    }

    /// The argument after `flag`.
    pub(crate) fn value(&mut self, flag: &str) -> Result<String, String> {
        self.args
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))
    }

    /// The argument after `flag`, parsed.
    pub(crate) fn parse<T: FromStr>(&mut self, flag: &str) -> Result<T, String> {
        let value = self.value(flag)?;
        value
            .parse()
            .map_err(|_| format!("invalid {flag} value: {value}"))
    }

    /// The argument after `flag`, parsed and refused when zero: a count or
    /// a deadline no run can use (zero shards, a worker deadline that
    /// times every attempt out at once).
    pub(crate) fn positive<T: FromStr + Default + PartialEq>(
        &mut self,
        flag: &str,
    ) -> Result<T, String> {
        let value = self.parse(flag)?;
        if value == T::default() {
            return Err(format!("{flag} must be at least 1"));
        }
        Ok(value)
    }
}

impl CliOptions {
    /// Parses options from an iterator of argument strings (without the
    /// program name).
    ///
    /// # Errors
    /// [`CliError::Help`] for `--help`/`-h`; [`CliError::Invalid`] with a
    /// human-readable message for unknown flags or malformed values.
    pub fn parse<I>(args: I) -> Result<Self, CliError>
    where
        I: IntoIterator<Item = String>,
    {
        let mut options = CliOptions::default();
        let mut flags = Flags::new(args);
        while let Some(flag) = flags.next_flag() {
            match flag.as_str() {
                "--rounds" => options.rounds = Some(flags.parse(&flag)?),
                "--seed" => options.seed = flags.parse(&flag)?,
                "--loads" => options.loads = Some(parse_loads(&flags.value(&flag)?)?),
                "--systems" => options.systems = Some(parse_systems(&flags.value(&flag)?)?),
                "--servers" => options.servers = Some(flags.positive(&flag)?),
                "--threads" => options.threads = Some(flags.parse(&flag)?),
                "--replications" => options.replications = flags.positive(&flag)?,
                "--shards" => options.shards = flags.positive(&flag)?,
                "--processes" => options.processes = Some(flags.positive(&flag)?),
                "--worker-timeout" => options.worker_timeout_ms = flags.positive(&flag)?,
                "--max-retries" => options.max_retries = flags.parse(&flag)?,
                "--checkpoint-every" => options.checkpoint_every = flags.parse(&flag)?,
                "--csv" => options.csv = Some(flags.value(&flag)?.into()),
                "--scenario" => options.scenario = Some(flags.value(&flag)?.into()),
                "--workload" => options.workload = Some(flags.value(&flag)?.into()),
                "--trace-out" => options.trace_out = Some(flags.value(&flag)?.into()),
                "--stale-k" => options.stale_k = Some(flags.parse(&flag)?),
                "--fail-rate" => {
                    let rate: f64 = flags.parse(&flag)?;
                    if !(0.0..1.0).contains(&rate) {
                        return Err(format!("--fail-rate must be in [0, 1): {rate}").into());
                    }
                    options.fail_rate = Some(rate);
                }
                "--paper" => options.paper = true,
                "--quick" => options.quick = true,
                "--tail" => options.tail = true,
                "--help" | "-h" => return Err(CliError::Help(usage())),
                other => return Err(format!("unknown flag {other}\n{}", usage()).into()),
            }
        }
        if options.paper && options.quick {
            return Err("--paper and --quick are mutually exclusive".into());
        }
        options.check_sizes()?;
        Ok(options)
    }

    /// Refuses, before any rate is materialised, sizes no run could hold:
    /// every requested system (with `--servers` applied) must pass the
    /// engine's scale check, and the largest sweep the flags can produce
    /// must fit a [`SweepGrid`]. Systems left to a binary's defaults are
    /// checked with one dispatcher, the most permissive case; the engine
    /// re-checks every actual configuration.
    fn check_sizes(&self) -> Result<(), String> {
        let default_system = [(self.servers.unwrap_or(1), 1)];
        let systems = self.systems.as_deref().unwrap_or(&default_system);
        for &(n, m) in systems {
            let n = self.servers.unwrap_or(n);
            SimConfig::check_scale(n, m).map_err(|e| format!("system {n}x{m}: {e}"))?;
        }
        let loads = self.loads.as_ref().map_or(1, Vec::len);
        let cells = SweepGrid::checked_len(
            systems.len(),
            loads,
            SweepGrid::MAX_POLICIES,
            self.replications,
        );
        if cells.is_none() {
            return Err(format!(
                "{} systems x {loads} loads x {} replications exceeds the {}-cell sweep \
                 cap (at up to {} policies per sweep)",
                systems.len(),
                self.replications,
                SweepGrid::MAX_CELLS,
                SweepGrid::MAX_POLICIES
            ));
        }
        Ok(())
    }

    /// Parses the process arguments. `--help` prints the usage to stdout
    /// and exits 0; a bad flag prints the error to stderr and exits 2.
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1)).unwrap_or_else(|outcome| outcome.exit())
    }
}

/// The usage string shared by all binaries.
pub fn usage() -> String {
    "usage: <figure-binary> [--rounds N] [--seed S] [--loads 0.7,0.9,0.99] \
     [--systems 100x10,200x20] [--servers N] [--threads T] [--replications R] [--shards K] \
     [--processes K] [--worker-timeout MS] [--max-retries R] [--checkpoint-every ROUNDS] \
     [--csv DIR] [--scenario FILE] [--stale-k K] [--fail-rate R] \
     [--workload FILE] [--trace-out FILE] [--paper | --quick] [--tail]"
        .to_string()
}

/// `systems` with each `(n, m)` kept at its first occurrence only. Tables
/// select their cells by `(n, m)`, so a repeated system, typed twice or made
/// by `--servers`, would run twice on two cluster draws and mix both runs
/// into one table.
pub fn distinct_systems(systems: Vec<(usize, usize)>) -> Vec<(usize, usize)> {
    let mut unique = Vec::with_capacity(systems.len());
    for system in systems {
        if !unique.contains(&system) {
            unique.push(system);
        }
    }
    unique
}

/// Refuses `flag k`, a shard or process count, that the `(n, m)` system
/// cannot hold: every shard needs at least one server and one dispatcher.
pub(crate) fn check_split(flag: &str, k: usize, (n, m): (usize, usize)) -> Result<(), String> {
    if k > n.min(m) {
        return Err(format!(
            "{flag} {k} cannot split the {n}x{m} system: every shard needs at least one \
             server and one dispatcher"
        ));
    }
    Ok(())
}

fn parse_loads(value: &str) -> Result<Vec<f64>, String> {
    let loads: Result<Vec<f64>, _> = value.split(',').map(|s| s.trim().parse::<f64>()).collect();
    let loads = loads.map_err(|_| format!("invalid --loads value: {value}"))?;
    if loads.is_empty() || loads.iter().any(|&l| !(l > 0.0 && l < 1.5)) {
        return Err(format!("loads must be in (0, 1.5): {value}"));
    }
    Ok(loads)
}

fn parse_systems(value: &str) -> Result<Vec<(usize, usize)>, String> {
    value
        .split(',')
        .map(|pair| {
            let (n, m) = pair
                .trim()
                .split_once(['x', 'X'])
                .ok_or_else(|| format!("invalid --systems entry (expected NxM): {pair}"))?;
            let n = n
                .parse::<usize>()
                .map_err(|_| format!("invalid server count in {pair}"))?;
            let m = m
                .parse::<usize>()
                .map_err(|_| format!("invalid dispatcher count in {pair}"))?;
            if n == 0 || m == 0 {
                return Err(format!("systems must be non-empty: {pair}"));
            }
            Ok((n, m))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<CliOptions, CliError> {
        CliOptions::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_when_no_arguments() {
        let options = parse(&[]).unwrap();
        assert_eq!(options, CliOptions::default());
    }

    #[test]
    fn parses_all_flags() {
        let options = parse(&[
            "--rounds",
            "5000",
            "--seed",
            "7",
            "--loads",
            "0.7,0.9",
            "--systems",
            "100x10,200x20",
            "--servers",
            "100000",
            "--threads",
            "4",
            "--replications",
            "5",
            "--shards",
            "4",
            "--processes",
            "4",
            "--worker-timeout",
            "30000",
            "--max-retries",
            "5",
            "--checkpoint-every",
            "250",
            "--csv",
            "/tmp/out",
            "--scenario",
            "/tmp/faults.scn",
            "--stale-k",
            "3",
            "--fail-rate",
            "0.05",
            "--workload",
            "/tmp/bursty.workload",
            "--trace-out",
            "/tmp/trace.json",
            "--paper",
            "--tail",
        ])
        .unwrap();
        assert_eq!(options.rounds, Some(5000));
        assert_eq!(options.seed, 7);
        assert_eq!(options.loads, Some(vec![0.7, 0.9]));
        assert_eq!(options.systems, Some(vec![(100, 10), (200, 20)]));
        assert_eq!(options.servers, Some(100_000));
        assert_eq!(options.threads, Some(4));
        assert_eq!(options.replications, 5);
        assert_eq!(options.shards, 4);
        assert_eq!(options.processes, Some(4));
        assert_eq!(options.worker_timeout_ms, 30_000);
        assert_eq!(options.max_retries, 5);
        assert_eq!(options.checkpoint_every, 250);
        assert_eq!(options.csv, Some(PathBuf::from("/tmp/out")));
        assert_eq!(options.scenario, Some(PathBuf::from("/tmp/faults.scn")));
        assert_eq!(options.stale_k, Some(3));
        assert_eq!(options.fail_rate, Some(0.05));
        assert_eq!(
            options.workload,
            Some(PathBuf::from("/tmp/bursty.workload"))
        );
        assert_eq!(options.trace_out, Some(PathBuf::from("/tmp/trace.json")));
        assert!(options.paper);
        assert!(options.tail);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&["--rounds"]).is_err());
        assert!(parse(&["--rounds", "abc"]).is_err());
        assert!(parse(&["--loads", "2.7"]).is_err());
        assert!(parse(&["--systems", "100-10"]).is_err());
        assert!(parse(&["--systems", "0x10"]).is_err());
        assert!(parse(&["--replications", "0"]).is_err());
        assert!(parse(&["--replications", "x"]).is_err());
        assert!(parse(&["--servers", "0"]).is_err());
        assert!(parse(&["--servers", "x"]).is_err());
        assert!(parse(&["--shards", "0"]).is_err());
        assert!(parse(&["--shards", "x"]).is_err());
        assert!(parse(&["--processes", "0"]).is_err());
        assert!(parse(&["--processes", "x"]).is_err());
        assert!(parse(&["--worker-timeout", "0"]).is_err());
        assert!(parse(&["--worker-timeout", "x"]).is_err());
        assert!(parse(&["--max-retries", "x"]).is_err());
        assert!(parse(&["--checkpoint-every", "x"]).is_err());
        assert!(parse(&["--scenario"]).is_err());
        assert!(parse(&["--workload"]).is_err());
        assert!(parse(&["--trace-out"]).is_err());
        assert!(parse(&["--stale-k", "x"]).is_err());
        assert!(parse(&["--fail-rate", "1.0"]).is_err());
        assert!(parse(&["--fail-rate", "-0.1"]).is_err());
        assert!(parse(&["--wat"]).is_err());
        assert!(parse(&["--paper", "--quick"]).is_err());
        assert!(parse(&["--help"]).is_err());
    }

    #[test]
    fn nan_loads_are_usage_errors() {
        for bad in ["nan", "0.9,NaN", "-nan"] {
            let outcome = parse(&["--quick", "--loads", bad]).unwrap_err();
            assert_eq!(outcome.exit_code(), 2, "--loads {bad}");
        }
    }

    #[test]
    fn sweeps_past_the_grid_cap_are_usage_errors() {
        for replications in ["100000000000", "18446744073709551615"] {
            let outcome = parse(&["--quick", "--replications", replications]).unwrap_err();
            assert_eq!(outcome.exit_code(), 2, "--replications {replications}");
            assert!(outcome.message().contains("cap"), "{}", outcome.message());
        }
        // Every dimension counts: 1000 loads x 1000 replications too.
        let loads = vec!["0.5"; 1000].join(",");
        assert!(parse(&["--loads", &loads, "--replications", "1000"]).is_err());
        assert!(parse(&["--quick", "--replications", "1000"]).is_ok());
    }

    #[test]
    fn systems_past_the_engine_scale_are_usage_errors() {
        for args in [
            &["--quick", "--servers", "10000000000000"][..],
            &["--quick", "--systems", "1000000000000x1"],
            &["--systems", "100x10", "--servers", "10000000000000"],
            &["--systems", "100000x100000"],
        ] {
            let outcome = parse(args).unwrap_err();
            assert_eq!(outcome.exit_code(), 2, "{args:?}");
            assert!(
                outcome.message().contains("exceeds"),
                "{}",
                outcome.message()
            );
        }
        // The mean-field scale the sweep smoke runs stays accepted.
        assert!(parse(&["--quick", "--servers", "100000", "--shards", "4"]).is_ok());
    }

    #[test]
    fn help_exits_zero_with_the_usage_and_bad_flags_exit_two() {
        for flag in ["--help", "-h"] {
            let outcome = parse(&["--quick", flag]).unwrap_err();
            assert_eq!(outcome, CliError::Help(usage()));
            assert_eq!(outcome.exit_code(), 0);
        }
        let outcome = parse(&["--wat"]).unwrap_err();
        assert_eq!(outcome.exit_code(), 2);
        assert!(outcome.message().starts_with("unknown flag --wat"));
        let outcome = parse(&["--rounds", "x"]).unwrap_err();
        assert_eq!(
            outcome,
            CliError::Invalid("invalid --rounds value: x".into())
        );
        assert_eq!(outcome.exit_code(), 2);
    }
}
