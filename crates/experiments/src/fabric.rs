//! CLI-side wiring of the multi-process shard fabric.
//!
//! The library half of the fabric (frame codec, worker body, supervising
//! orchestrator) lives in [`scd_sim::fabric`] and is policy-agnostic. This
//! module binds it to the experiments crate's policy registry and flag
//! conventions, and is shared by two thin binaries:
//!
//! * `shard_worker` — one shard per process; parses the worker flag set
//!   ([`parse_worker_args`]), reads its configuration (and, under
//!   `--resume-from stdin`, a retained checkpoint frame) from stdin, and
//!   streams checksummed frames on stdout — a progress/checkpoint pair
//!   every `R` rounds under `--checkpoint-every R`, then one final report
//!   frame. Exit codes are
//!   part of the protocol: `0` frame complete, [`EXIT_CONFIG_REJECTED`]
//!   the configuration is unusable (the orchestrator does not retry),
//!   [`EXIT_RESUME_REJECTED`] the resume checkpoint was refused (the
//!   orchestrator drops it and retries from seed), `2` anything else.
//! * `orchestrate` — the supervisor; runs one configuration as
//!   `--processes K` workers with retries, heartbeat timeouts and
//!   optional checkpoint streaming ([`run_orchestrate`]), optionally
//!   injecting faults and verifying the merged result against the
//!   in-process sharded engine.
//!
//! The `sweep` binary's `--processes K` flag reuses [`fabric_run`] to route
//! every grid cell through worker processes instead of in-process shards.

use crate::cli::{check_split, CliError, Flags};
use crate::response::cluster_for_system;
use scd_model::RateProfile;
use scd_policies::factory_by_name;
use scd_sim::fabric::{
    run_fabric, run_worker, FabricOutcome, FabricSpec, InjectedFault, WorkerFaultPlan,
    WorkerOutput, WorkerSpec, EXIT_CONFIG_REJECTED, EXIT_RESUME_REJECTED, RESUME_DELIMITER,
};
use scd_sim::{ArrivalSpec, ShardedSimulation, SimConfig, SimError};
use std::path::PathBuf;
use std::time::Duration;

/// Locates the `shard_worker` binary next to the running executable.
///
/// Binaries land in `target/<profile>/`, integration-test executables in
/// `target/<profile>/deps/`, so the sibling directory and its parent are
/// both probed.
///
/// # Errors
/// Returns a message naming the probed locations when the worker is not
/// found (it is built by any full `cargo build`/`cargo test` of the
/// workspace).
pub fn worker_binary_path() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let name = format!("shard_worker{}", std::env::consts::EXE_SUFFIX);
    let mut probed = Vec::new();
    let mut dir = exe.parent();
    for _ in 0..2 {
        let Some(d) = dir else { break };
        let candidate = d.join(&name);
        if candidate.is_file() {
            return Ok(candidate);
        }
        probed.push(candidate.display().to_string());
        dir = d.parent();
    }
    Err(format!(
        "shard_worker binary not found (probed {}); build it with `cargo build --bins`",
        probed.join(", ")
    ))
}

/// Runs one configuration across `processes` supervised worker processes
/// and returns the fabric outcome — the sweep's per-cell fabric path.
///
/// `timeout` is the heartbeat deadline (per-frame inter-arrival bound;
/// per-attempt wall clock when `checkpoint_every == 0`), `max_retries`
/// the restart budget per shard, and `checkpoint_every` the streaming
/// cadence in rounds (0 = no checkpoints).
///
/// # Errors
/// Propagates worker-location and fabric errors as messages.
pub fn fabric_run(
    config: &SimConfig,
    policy: &str,
    processes: usize,
    timeout: Duration,
    max_retries: u32,
    checkpoint_every: u64,
) -> Result<FabricOutcome, String> {
    let mut spec = FabricSpec::new(worker_binary_path()?, policy, processes);
    spec.timeout = timeout;
    spec.max_retries = max_retries;
    spec.checkpoint_every = checkpoint_every;
    run_fabric(config, &spec).map_err(|e| e.to_string())
}

/// Parses the `shard_worker` flag set: `--shard N --shards K --policy NAME
/// --expect-seed S --digest D`, the streaming flags `--checkpoint-every R`
/// and `--resume-from stdin`, plus the fault-injection flags of
/// [`WorkerFaultPlan`]. Returns the worker spec and the policy name.
///
/// # Errors
/// Returns a human-readable message for unknown flags, malformed values,
/// or missing required flags.
pub fn parse_worker_args<I>(args: I) -> Result<(WorkerSpec, String), String>
where
    I: IntoIterator<Item = String>,
{
    let mut shard: Option<usize> = None;
    let mut shards: Option<usize> = None;
    let mut policy: Option<String> = None;
    let mut expect_seed: Option<u64> = None;
    let mut digest: Option<u64> = None;
    let mut checkpoint_every: u64 = 0;
    let mut resume_from_stdin = false;
    let mut fault = WorkerFaultPlan::default();
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--shard" => shard = Some(flags.parse(&flag)?),
            "--shards" => shards = Some(flags.parse(&flag)?),
            "--policy" => policy = Some(flags.value(&flag)?),
            "--expect-seed" => expect_seed = Some(flags.parse(&flag)?),
            "--digest" => digest = Some(flags.parse(&flag)?),
            "--checkpoint-every" => checkpoint_every = flags.parse(&flag)?,
            "--resume-from" => {
                let v = flags.value(&flag)?;
                if v != "stdin" {
                    return Err(format!(
                        "invalid --resume-from: {v} (only `stdin` is supported)"
                    ));
                }
                resume_from_stdin = true;
            }
            "--fail-after-round" => fault.fail_after_round = Some(flags.parse(&flag)?),
            "--fail-after-checkpoint" => fault.fail_after_checkpoint = Some(flags.parse(&flag)?),
            "--hang" => fault.hang = true,
            "--corrupt-frame" => fault.corrupt_frame = true,
            "--truncate-frame" => fault.truncate_frame = true,
            "--exit-code" => fault.exit_code = Some(flags.parse(&flag)?),
            other => return Err(format!("unknown shard_worker flag {other}")),
        }
    }
    fn require<T>(value: Option<T>, name: &str) -> Result<T, String> {
        value.ok_or_else(|| format!("shard_worker requires {name}"))
    }
    let spec = WorkerSpec {
        shard: require(shard, "--shard")?,
        num_shards: require(shards, "--shards")?,
        expect_seed: require(expect_seed, "--expect-seed")?,
        config_digest: require(digest, "--digest")?,
        checkpoint_every,
        resume_from_stdin,
        fault,
    };
    Ok((spec, require(policy, "--policy")?))
}

/// Exit disposition of the `shard_worker` binary when something goes
/// wrong: the process exit code (part of the orchestrator protocol — see
/// [`EXIT_CONFIG_REJECTED`] and [`EXIT_RESUME_REJECTED`]) plus a
/// stderr message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerExit {
    /// Process exit code the binary should terminate with.
    pub code: i32,
    /// Human-readable cause, for stderr.
    pub message: String,
}

impl WorkerExit {
    /// A launch-level failure (bad flags, unknown policy, broken pipes):
    /// exit 2, the generic verdict the orchestrator retries.
    fn launch(message: String) -> Self {
        WorkerExit { code: 2, message }
    }

    /// Maps a simulation error onto the protocol's exit codes: an
    /// unusable configuration is fatal-no-retry, a refused resume
    /// checkpoint asks the orchestrator to fall back to seed, everything
    /// else is a generic failure.
    fn classify(error: &SimError) -> Self {
        let code = match error {
            SimError::InvalidConfig(_) => EXIT_CONFIG_REJECTED,
            SimError::Checkpoint(_) => EXIT_RESUME_REJECTED,
            _ => 2,
        };
        WorkerExit {
            code,
            message: error.to_string(),
        }
    }
}

/// Splits the worker's stdin into the configuration text and, under
/// `--resume-from stdin`, the raw checkpoint frame that follows the
/// [`RESUME_DELIMITER`] line.
fn split_resume_payload(stdin: &[u8], resume: bool) -> Result<(&[u8], Option<&[u8]>), WorkerExit> {
    if !resume {
        return Ok((stdin, None));
    }
    let delimiter = format!("{RESUME_DELIMITER}\n");
    let needle = delimiter.as_bytes();
    // The delimiter occupies a line of its own: match it at the start of
    // stdin or right after a newline, never mid-line.
    for at in 0..stdin.len().saturating_sub(needle.len() - 1) {
        if stdin[at..].starts_with(needle) && (at == 0 || stdin[at - 1] == b'\n') {
            return Ok((&stdin[..at], Some(&stdin[at + needle.len()..])));
        }
    }
    Err(WorkerExit {
        code: EXIT_RESUME_REJECTED,
        message: format!(
            "--resume-from stdin was given but stdin carries no {RESUME_DELIMITER} delimiter line"
        ),
    })
}

/// The `shard_worker` binary's whole body: parse flags, read the
/// configuration (and optional resume checkpoint) from stdin, run the
/// shard streaming frames to stdout, act on the outcome. Returns the
/// process exit code; [`WorkerOutput::Hang`] never returns.
///
/// # Errors
/// Returns the exit code and stderr message for flag, policy-name,
/// configuration, resume or simulation errors: an unusable configuration
/// maps to [`EXIT_CONFIG_REJECTED`], a refused resume checkpoint to
/// [`EXIT_RESUME_REJECTED`], everything else to 2.
pub fn worker_main<I>(args: I) -> Result<i32, WorkerExit>
where
    I: IntoIterator<Item = String>,
{
    use std::io::{Read, Write};
    let (spec, policy) = parse_worker_args(args).map_err(WorkerExit::launch)?;
    let factory = factory_by_name(&policy)
        .ok_or_else(|| WorkerExit::launch(format!("unknown policy {policy}")))?;
    let mut stdin_bytes = Vec::new();
    std::io::stdin()
        .read_to_end(&mut stdin_bytes)
        .map_err(|e| {
            WorkerExit::launch(format!("cannot read the shard payload from stdin: {e}"))
        })?;
    let (config_bytes, resume_frame) = split_resume_payload(&stdin_bytes, spec.resume_from_stdin)?;
    let config_text = std::str::from_utf8(config_bytes).map_err(|_| WorkerExit {
        code: EXIT_CONFIG_REJECTED,
        message: "the shard configuration on stdin is not valid UTF-8".to_string(),
    })?;
    let mut stdout = std::io::stdout().lock();
    let worker_pid = std::process::id();
    let shard = spec.shard;
    // Each streamed frame is flushed immediately: the orchestrator's
    // heartbeat deadline measures inter-frame gaps, so a buffered
    // checkpoint would read as a dead worker.
    let mut emit = |frame: &[u8]| {
        stdout
            .write_all(frame)
            .and_then(|()| stdout.flush())
            .map_err(|e| SimError::Io {
                worker: worker_pid,
                shard,
                cause: e.to_string(),
            })
    };
    let output = run_worker(
        &spec,
        config_text,
        resume_frame,
        factory.as_ref(),
        &mut emit,
    )
    .map_err(|e| WorkerExit::classify(&e))?;
    match output {
        WorkerOutput::Frame(frame) => {
            stdout
                .write_all(&frame)
                .and_then(|()| stdout.flush())
                .map_err(|e| WorkerExit::launch(format!("cannot write the report frame: {e}")))?;
            Ok(0)
        }
        WorkerOutput::Exit(code) => Ok(code),
        WorkerOutput::Hang => loop {
            std::thread::sleep(Duration::from_secs(3600));
        },
    }
}

/// Options of the `orchestrate` binary.
#[derive(Debug, Clone, PartialEq)]
pub struct OrchestrateOptions {
    /// Worker process count `k` (the shard count).
    pub processes: usize,
    /// Policy name.
    pub policy: String,
    /// Smoke-test-sized run (16×4 system, 400 rounds).
    pub quick: bool,
    /// Rounds override.
    pub rounds: Option<u64>,
    /// Master seed.
    pub seed: u64,
    /// Heartbeat deadline in milliseconds (per-attempt wall clock when
    /// checkpoints are off), `--worker-timeout` as in `sweep`.
    pub worker_timeout_ms: u64,
    /// Retries per shard after the first attempt, `--max-retries` as in
    /// `sweep`.
    pub max_retries: u32,
    /// Stream a progress/checkpoint frame pair every this many rounds
    /// (0 = none; failed shards restart from seed).
    pub checkpoint_every: u64,
    /// Shards whose first attempt is killed by an injected crash.
    pub inject_crash: Vec<usize>,
    /// Shards whose first attempt crashes right after streaming its first
    /// checkpoint — the retry-from-checkpoint path.
    pub inject_crash_after_checkpoint: Vec<usize>,
    /// Shards whose first attempt is an injected hang (killed by timeout).
    pub inject_hang: Vec<usize>,
    /// Shards whose first attempt emits a corrupted frame.
    pub inject_corrupt: Vec<usize>,
    /// Make the injected faults fire on *every* attempt (exhausts retries
    /// and forces the partial merge).
    pub persistent: bool,
    /// Re-run the same configuration on the in-process sharded engine and
    /// fail unless the merged reports are identical.
    pub verify_inprocess: bool,
    /// Explicit worker binary path (default: next to this binary).
    pub worker: Option<PathBuf>,
}

impl Default for OrchestrateOptions {
    fn default() -> Self {
        OrchestrateOptions {
            processes: 4,
            policy: "SCD".into(),
            quick: false,
            rounds: None,
            seed: 2021,
            worker_timeout_ms: 60_000,
            max_retries: 2,
            checkpoint_every: 0,
            inject_crash: Vec::new(),
            inject_crash_after_checkpoint: Vec::new(),
            inject_hang: Vec::new(),
            inject_corrupt: Vec::new(),
            persistent: false,
            verify_inprocess: false,
            worker: None,
        }
    }
}

/// The `orchestrate` binary's usage string.
pub fn orchestrate_usage() -> String {
    "usage: orchestrate [--processes K] [--policy NAME] [--rounds N] [--seed S] \
     [--worker-timeout MS] [--max-retries R] [--checkpoint-every ROUNDS] [--inject-crash SHARD]* \
     [--inject-crash-after-checkpoint SHARD]* [--inject-hang SHARD]* \
     [--inject-corrupt SHARD]* [--persistent] [--verify-inprocess] [--worker PATH] \
     [--quick]"
        .to_string()
}

impl OrchestrateOptions {
    /// Parses the `orchestrate` flag set.
    ///
    /// # Errors
    /// [`CliError::Help`] with the usage for `--help`/`-h`;
    /// [`CliError::Invalid`] with a human-readable message on unknown flags,
    /// malformed values and a `--processes` count the orchestrated system
    /// cannot split.
    pub fn parse<I>(args: I) -> Result<Self, CliError>
    where
        I: IntoIterator<Item = String>,
    {
        let mut options = OrchestrateOptions::default();
        let mut flags = Flags::new(args);
        while let Some(flag) = flags.next_flag() {
            match flag.as_str() {
                "--processes" => options.processes = flags.positive(&flag)?,
                "--policy" => options.policy = flags.value(&flag)?,
                "--rounds" => options.rounds = Some(flags.parse(&flag)?),
                "--seed" => options.seed = flags.parse(&flag)?,
                "--worker-timeout" => options.worker_timeout_ms = flags.positive(&flag)?,
                "--max-retries" => options.max_retries = flags.parse(&flag)?,
                "--checkpoint-every" => options.checkpoint_every = flags.parse(&flag)?,
                "--inject-crash" => options.inject_crash.push(flags.parse(&flag)?),
                "--inject-crash-after-checkpoint" => options
                    .inject_crash_after_checkpoint
                    .push(flags.parse(&flag)?),
                "--inject-hang" => options.inject_hang.push(flags.parse(&flag)?),
                "--inject-corrupt" => options.inject_corrupt.push(flags.parse(&flag)?),
                "--persistent" => options.persistent = true,
                "--verify-inprocess" => options.verify_inprocess = true,
                "--worker" => options.worker = Some(flags.value(&flag)?.into()),
                "--quick" => options.quick = true,
                "--help" | "-h" => return Err(CliError::Help(orchestrate_usage())),
                other => {
                    return Err(format!("unknown flag {other}\n{}", orchestrate_usage()).into())
                }
            }
        }
        let (n, m, _) = options.system();
        check_split("--processes", options.processes, (n, m))?;
        if !options.inject_crash_after_checkpoint.is_empty() && options.checkpoint_every == 0 {
            return Err(
                "--inject-crash-after-checkpoint requires --checkpoint-every > 0 \
                 (no checkpoint ever streams otherwise, so the fault would never fire)"
                    .into(),
            );
        }
        for (flag, shards) in [
            ("--inject-crash", &options.inject_crash),
            (
                "--inject-crash-after-checkpoint",
                &options.inject_crash_after_checkpoint,
            ),
            ("--inject-hang", &options.inject_hang),
            ("--inject-corrupt", &options.inject_corrupt),
        ] {
            if let Some(shard) = shards.iter().find(|&&shard| shard >= options.processes) {
                return Err(format!(
                    "{flag} {shard} names no shard: --processes {} runs shards 0..{}",
                    options.processes, options.processes
                )
                .into());
            }
        }
        Ok(options)
    }

    /// The orchestrated system `(n, m, rounds)`: 16×4/400 rounds under
    /// `--quick`, 64×8/4000 rounds otherwise, with `--rounds` applied.
    fn system(&self) -> (usize, usize, u64) {
        let (n, m, rounds) = if self.quick {
            (16, 4, 400)
        } else {
            (64, 8, 4_000)
        };
        (n, m, self.rounds.unwrap_or(rounds))
    }

    /// The experiment configuration this invocation orchestrates: the
    /// sweep's `paper_moderate` cluster draw at offered load 0.9, sized
    /// 16×4/400 rounds under `--quick` and 64×8/4000 rounds otherwise.
    ///
    /// # Errors
    /// Propagates configuration validation errors as messages.
    pub fn config(&self) -> Result<SimConfig, String> {
        let (n, m, rounds) = self.system();
        let cluster = cluster_for_system(&RateProfile::paper_moderate(), n, self.seed, 0);
        SimConfig::builder(cluster)
            .dispatchers(m)
            .rounds(rounds)
            .warmup_rounds(rounds / 10)
            .seed(self.seed)
            .arrivals(ArrivalSpec::PoissonOfferedLoad { offered_load: 0.9 })
            .build()
            .map_err(|e| e.to_string())
    }

    /// The fabric spec this invocation supervises with.
    ///
    /// # Errors
    /// Propagates worker-location errors as messages.
    pub fn fabric_spec(&self) -> Result<FabricSpec, String> {
        let worker = match &self.worker {
            Some(path) => path.clone(),
            None => worker_binary_path()?,
        };
        let mut spec = FabricSpec::new(worker, self.policy.clone(), self.processes);
        spec.max_retries = self.max_retries;
        spec.timeout = Duration::from_millis(self.worker_timeout_ms);
        spec.checkpoint_every = self.checkpoint_every;
        let inject = |shards: &[usize], fault: WorkerFaultPlan| {
            shards
                .iter()
                .map(|&shard| InjectedFault {
                    shard,
                    fault: fault.clone(),
                    persistent: self.persistent,
                })
                .collect::<Vec<_>>()
        };
        spec.injected.extend(inject(
            &self.inject_crash,
            WorkerFaultPlan {
                fail_after_round: Some(0),
                ..WorkerFaultPlan::default()
            },
        ));
        spec.injected.extend(inject(
            &self.inject_crash_after_checkpoint,
            WorkerFaultPlan {
                fail_after_checkpoint: Some(1),
                ..WorkerFaultPlan::default()
            },
        ));
        spec.injected.extend(inject(
            &self.inject_hang,
            WorkerFaultPlan {
                hang: true,
                ..WorkerFaultPlan::default()
            },
        ));
        spec.injected.extend(inject(
            &self.inject_corrupt,
            WorkerFaultPlan {
                corrupt_frame: true,
                ..WorkerFaultPlan::default()
            },
        ));
        Ok(spec)
    }
}

/// The `orchestrate` binary's entry point: build the configuration and
/// fabric spec, run, report, optionally verify against the in-process
/// engine.
///
/// # Errors
/// Returns a message when the fabric run fails outright (every shard
/// lost), the policy is unknown, or `--verify-inprocess` finds a
/// divergence.
pub fn run_orchestrate(options: &OrchestrateOptions) -> Result<(), String> {
    if factory_by_name(&options.policy).is_none() {
        return Err(format!("unknown policy {}", options.policy));
    }
    let config = options.config()?;
    let spec = options.fabric_spec()?;
    println!(
        "[orchestrate] k={} policy={} rounds={} seed={} retries={} timeout={}ms \
         checkpoint-every={} worker={}",
        spec.num_shards,
        spec.policy,
        config.rounds,
        config.seed,
        spec.max_retries,
        options.worker_timeout_ms,
        spec.checkpoint_every,
        spec.worker.display()
    );
    let outcome = run_fabric(&config, &spec).map_err(|e| e.to_string())?;
    for attempt in &outcome.attempts {
        match &attempt.failure {
            None if attempt.attempt == 0 => {}
            None => println!(
                "[orchestrate] shard {} recovered on attempt {}",
                attempt.shard, attempt.attempt
            ),
            Some(failure) => println!(
                "[orchestrate] shard {} attempt {} failed: {failure}",
                attempt.shard, attempt.attempt
            ),
        }
    }
    if spec.checkpoint_every > 0 {
        println!(
            "[orchestrate] recovery: checkpoints_taken={} rounds_replayed={}",
            outcome.checkpoints_taken, outcome.rounds_replayed
        );
    }
    if outcome.lost_shards.is_empty() {
        println!("[orchestrate] all {} shards merged", spec.num_shards);
    } else {
        println!(
            "[orchestrate] PARTIAL merge: lost shards {:?} ({} of {})",
            outcome.lost_shards,
            outcome.lost_shards.len(),
            spec.num_shards
        );
    }
    println!("{}", outcome.report.one_liner());
    if options.verify_inprocess {
        let factory = factory_by_name(&options.policy).expect("checked above");
        let in_process = ShardedSimulation::new(config, options.processes)
            .map_err(|e| e.to_string())?
            .run(factory.as_ref())
            .map_err(|e| e.to_string())?;
        if !outcome.lost_shards.is_empty() {
            return Err(format!(
                "--verify-inprocess requires a complete merge, but shards {:?} were lost",
                outcome.lost_shards
            ));
        }
        if outcome.report != in_process {
            return Err("orchestrated report DIVERGES from the in-process sharded run".to_string());
        }
        println!("[orchestrate] verified: bit-identical to the in-process sharded run");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<OrchestrateOptions, CliError> {
        OrchestrateOptions::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn worker_args_round_trip_through_the_fault_plan() {
        let fault = WorkerFaultPlan {
            fail_after_round: Some(9),
            fail_after_checkpoint: Some(2),
            corrupt_frame: true,
            ..WorkerFaultPlan::default()
        };
        let mut args = vec![
            "--shard".to_string(),
            "2".to_string(),
            "--shards".to_string(),
            "4".to_string(),
            "--policy".to_string(),
            "SCD".to_string(),
            "--expect-seed".to_string(),
            "77".to_string(),
            "--digest".to_string(),
            "12345".to_string(),
            "--checkpoint-every".to_string(),
            "50".to_string(),
            "--resume-from".to_string(),
            "stdin".to_string(),
        ];
        args.extend(fault.to_args());
        let (spec, policy) = parse_worker_args(args).unwrap();
        assert_eq!(policy, "SCD");
        assert_eq!(spec.shard, 2);
        assert_eq!(spec.num_shards, 4);
        assert_eq!(spec.expect_seed, 77);
        assert_eq!(spec.config_digest, 12345);
        assert_eq!(spec.checkpoint_every, 50);
        assert!(spec.resume_from_stdin);
        assert_eq!(spec.fault, fault);
    }

    #[test]
    fn worker_args_reject_missing_and_unknown_flags() {
        assert!(parse_worker_args(vec!["--shard".into()]).is_err());
        assert!(parse_worker_args(vec!["--wat".into()]).is_err());
        let err = parse_worker_args(vec!["--shard".into(), "0".into()]).unwrap_err();
        assert!(err.contains("--shards"), "{err}");
        // Only the stdin resume channel exists.
        let err = parse_worker_args(vec!["--resume-from".into(), "file.bin".into()]).unwrap_err();
        assert!(err.contains("stdin"), "{err}");
    }

    #[test]
    fn resume_payload_splits_at_the_delimiter_line() {
        let config = b"rounds = 10\nseed = 7\n";
        let frame = [0xABu8, 0xCD, 0x00, b'\n', b'%'];
        let mut stdin = Vec::new();
        stdin.extend_from_slice(config);
        stdin.extend_from_slice(format!("{RESUME_DELIMITER}\n").as_bytes());
        stdin.extend_from_slice(&frame);
        let (text, resume) = split_resume_payload(&stdin, true).unwrap();
        assert_eq!(text, config);
        assert_eq!(resume, Some(&frame[..]));
        // Without the resume flag the same bytes are all configuration.
        let (text, resume) = split_resume_payload(&stdin, false).unwrap();
        assert_eq!(text, &stdin[..]);
        assert!(resume.is_none());
        // A resume request without a delimiter is refused with the
        // protocol's resume-rejected exit code.
        let err = split_resume_payload(config, true).unwrap_err();
        assert_eq!(err.code, EXIT_RESUME_REJECTED);
        // A delimiter in the middle of a line does not count.
        let glued = format!("key = {RESUME_DELIMITER}\n");
        let err = split_resume_payload(glued.as_bytes(), true).unwrap_err();
        assert_eq!(err.code, EXIT_RESUME_REJECTED);
    }

    #[test]
    fn orchestrate_options_parse_and_validate() {
        let options = parse(&[
            "--processes",
            "4",
            "--policy",
            "JSQ",
            "--rounds",
            "200",
            "--seed",
            "5",
            "--worker-timeout",
            "2500",
            "--max-retries",
            "3",
            "--checkpoint-every",
            "25",
            "--inject-crash",
            "1",
            "--inject-crash-after-checkpoint",
            "3",
            "--inject-hang",
            "2",
            "--inject-corrupt",
            "0",
            "--persistent",
            "--verify-inprocess",
            "--worker",
            "/tmp/worker",
            "--quick",
        ])
        .unwrap();
        assert_eq!(options.processes, 4);
        assert_eq!(options.policy, "JSQ");
        assert_eq!(options.rounds, Some(200));
        assert_eq!(options.worker_timeout_ms, 2500);
        assert_eq!(options.max_retries, 3);
        assert_eq!(options.checkpoint_every, 25);
        assert_eq!(options.inject_crash, vec![1]);
        assert_eq!(options.inject_crash_after_checkpoint, vec![3]);
        assert_eq!(options.inject_hang, vec![2]);
        assert_eq!(options.inject_corrupt, vec![0]);
        assert!(options.persistent && options.verify_inprocess && options.quick);
        assert_eq!(options.worker, Some(PathBuf::from("/tmp/worker")));
        assert!(parse(&["--processes", "0"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--help"]).is_err());
        // A checkpoint-crash injection without checkpoint streaming would
        // never fire — refuse the contradiction up front.
        assert!(parse(&["--inject-crash-after-checkpoint", "1"]).is_err());
    }

    #[test]
    fn processes_must_fit_the_orchestrated_system() {
        // A fifth worker of the quick 16x4 system, or a ninth of the 64x8
        // one, would get no dispatcher; both used to fail at run time with
        // exit 1.
        for (args, refusal) in [
            (
                &["--quick", "--processes", "5"][..],
                "--processes 5 cannot split the 16x4 system",
            ),
            (
                &["--processes", "9", "--rounds", "50"][..],
                "--processes 9 cannot split the 64x8 system",
            ),
        ] {
            let outcome = parse(args).unwrap_err();
            assert_eq!(outcome.exit_code(), 2, "{args:?}");
            assert!(
                outcome.message().starts_with(refusal),
                "{}",
                outcome.message()
            );
        }
        assert_eq!(
            parse(&["--quick", "--processes", "4"]).unwrap().processes,
            4
        );
        assert_eq!(parse(&["--processes", "8"]).unwrap().processes, 8);
    }

    #[test]
    fn sweep_and_orchestrate_refuse_a_zero_worker_deadline_alike() {
        // `orchestrate --worker-timeout 0` used to be accepted (as
        // `--timeout-ms 0`), and every worker attempt then timed out at once.
        let args = ["--quick", "--worker-timeout", "0"];
        let sweep = crate::cli::CliOptions::parse(args.map(String::from)).unwrap_err();
        let orchestrate = parse(&args).unwrap_err();
        assert_eq!(orchestrate, sweep);
        assert_eq!(orchestrate.exit_code(), 2);
        assert_eq!(orchestrate.message(), "--worker-timeout must be at least 1");
        // Each knob has one spelling: the dropped ones are unknown flags.
        for dropped in ["--timeout-ms", "--retries"] {
            let outcome = parse(&["--quick", dropped, "2000"]).unwrap_err();
            assert_eq!(outcome.exit_code(), 2, "{dropped}");
            assert!(
                outcome
                    .message()
                    .starts_with(&format!("unknown flag {dropped}\n")),
                "{}",
                outcome.message()
            );
        }
    }

    #[test]
    fn injections_must_name_a_running_shard() {
        for flag in ["--inject-crash", "--inject-hang", "--inject-corrupt"] {
            let outcome = parse(&["--quick", flag, "99"]).unwrap_err();
            assert_eq!(outcome.exit_code(), 2, "{flag} 99");
            assert!(outcome.message().contains("names no shard"), "{flag}");
            // The last shard of the default four is fine; the next is not.
            assert!(parse(&["--quick", flag, "3"]).is_ok(), "{flag} 3");
            assert!(parse(&["--processes", "2", flag, "2"]).is_err(), "{flag} 2");
        }
        let outcome = parse(&[
            "--checkpoint-every",
            "25",
            "--inject-crash-after-checkpoint",
            "4",
        ])
        .unwrap_err();
        assert_eq!(outcome.exit_code(), 2);
    }

    #[test]
    fn fabric_spec_translates_injections() {
        let options = parse(&[
            "--quick",
            "--worker",
            "/tmp/worker",
            "--checkpoint-every",
            "40",
            "--inject-crash",
            "1",
            "--inject-crash-after-checkpoint",
            "0",
            "--inject-hang",
            "2",
        ])
        .unwrap();
        let spec = options.fabric_spec().unwrap();
        assert_eq!(spec.checkpoint_every, 40);
        assert_eq!(spec.injected.len(), 3);
        assert_eq!(spec.injected[0].shard, 1);
        assert_eq!(spec.injected[0].fault.fail_after_round, Some(0));
        assert!(!spec.injected[0].persistent);
        assert_eq!(spec.injected[1].shard, 0);
        assert_eq!(spec.injected[1].fault.fail_after_checkpoint, Some(1));
        assert_eq!(spec.injected[2].shard, 2);
        assert!(spec.injected[2].fault.hang);
        // The config is a valid quick-sized system.
        let config = options.config().unwrap();
        assert_eq!(config.num_servers(), 16);
        assert_eq!(config.num_dispatchers, 4);
        assert_eq!(config.rounds, 400);
    }
}
