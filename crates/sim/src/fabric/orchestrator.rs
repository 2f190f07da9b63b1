//! The fabric supervisor: spawn, watch, classify, retry, merge.
//!
//! [`run_fabric`] drives one sharded experiment across `k` worker
//! *processes*. Each shard's configuration is derived exactly as the
//! in-process [`ShardedSimulation`] derives it —
//! same striping, same sub-master seeds — and shipped to a worker over
//! stdin in the `key = value` wire form. The worker answers with
//! checksummed frames on stdout, the last of which is its report.
//!
//! Supervision is per frame, not per attempt: the deadline
//! ([`FabricSpec::timeout`]) bounds the gap between consecutive stdout
//! events of a worker — a **heartbeat deadline** that detects a stalled
//! worker independently of total run length. A worker that streams no
//! checkpoints emits exactly one event (its report frame), so the deadline
//! degenerates to a per-attempt wall clock there.
//! Every way an attempt can go wrong maps to one [`WorkerFailure`]
//! variant — spawn failure, nonzero exit (crash), frame rejection
//! (truncation/corruption, via [`CodecError`]), a report for the wrong
//! experiment (digest mismatch) or the wrong shard, or a deadline kill.
//!
//! With [`FabricSpec::checkpoint_every`]` = R > 0`, workers stream a
//! progress heartbeat and a checkpoint frame every `R` rounds. The
//! orchestrator verifies each checkpoint frame (envelope checksum, shard
//! coordinates, decodable state) and **retains the newest verified one per
//! shard**; a failed worker restarts *from that checkpoint* instead of
//! from round 0, falling back to retry-from-seed when no checkpoint exists
//! or the replacement worker refuses the shipped state
//! ([`EXIT_RESUME_REJECTED`]). A worker that declares its configuration
//! unusable ([`EXIT_CONFIG_REJECTED`]) is not retried at all — the same
//! configuration would be re-sent. Recovery work is accounted in
//! [`FabricOutcome::checkpoints_taken`] and
//! [`FabricOutcome::rounds_replayed`]; because resume is bit-identical, a
//! recovered run still equals the in-process sharded run exactly.
//!
//! Failed shards are retried up to [`FabricSpec::max_retries`] times with
//! seeded exponential backoff; because a shard's report is a pure function
//! of its (re-sent) configuration — and of any checkpoint, itself a pure
//! function of that configuration — a successful retry is
//! **bit-identical** to a first-try success.
//!
//! When a shard exhausts its retries the run *degrades instead of dying*:
//! the surviving shards merge (the hardened
//! [`merge_shard_reports`] re-checks digests
//! and shard counts), and the loss is recorded in
//! [`DegradationMetrics::shards_lost`](crate::DegradationMetrics) /
//! [`rounds_lost`](crate::DegradationMetrics::rounds_lost) so a partial
//! result can never masquerade as a complete one. Only the loss of *every*
//! shard is an error.

use crate::checkpoint::EngineCheckpoint;
use crate::config::SimConfig;
use crate::engine::SimError;
use crate::fabric::codec::{decode_frame, peek_frame_len, CodecError, Frame};
use crate::fabric::worker::{WorkerFaultPlan, EXIT_CONFIG_REJECTED, EXIT_RESUME_REJECTED};
use crate::report::DegradationMetrics;
use crate::shard::{merge_shard_reports, ShardReport, ShardedSimulation};
use crate::SimReport;
use scd_model::streams::{counter_draw, derive_stream_seed, unit_f64, FABRIC_RETRY_STREAM_TAG};
use std::fmt;
use std::io::Read;
use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::Duration;

/// The line separating the configuration text from the raw resume
/// checkpoint frame on a resumed worker's stdin.
pub const RESUME_DELIMITER: &str = "%%CHECKPOINT%%";

/// A fault the orchestrator injects into a worker's command line — the
/// test/CI handle for exercising the supervision paths on real processes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFault {
    /// The shard whose worker gets the fault.
    pub shard: usize,
    /// The fault flags appended to that worker's arguments.
    pub fault: WorkerFaultPlan,
    /// When false (the default for recovery tests) the fault fires on the
    /// first attempt only, so the retry runs clean and recovers the shard
    /// bit-identically. When true every attempt gets the fault, which
    /// exhausts the retries and forces the partial-merge path.
    pub persistent: bool,
}

/// Everything [`run_fabric`] needs besides the simulation configuration.
#[derive(Debug, Clone)]
pub struct FabricSpec {
    /// Path of the `shard_worker` binary.
    pub worker: PathBuf,
    /// Policy name passed to every worker (resolved there by the policy
    /// registry; the orchestrator itself never instantiates a policy).
    pub policy: String,
    /// Shard count `k`.
    pub num_shards: usize,
    /// Retries per shard after the first attempt.
    pub max_retries: u32,
    /// The heartbeat deadline: the wall-clock bound on the gap between
    /// consecutive stdout events (frame or EOF) of a worker. A worker
    /// silent past the deadline is killed and classified
    /// [`WorkerFailure::Timeout`]. With `checkpoint_every == 0` a worker
    /// emits exactly one event, so this is a per-attempt budget.
    pub timeout: Duration,
    /// Ask every worker to stream a progress heartbeat plus a checkpoint
    /// frame each `checkpoint_every` rounds; failed workers restart from
    /// the newest verified checkpoint. `0` (the default) streams none, and
    /// failed workers restart from seed.
    pub checkpoint_every: u64,
    /// Backoff before retry `r` (counting from 1) starts from
    /// `backoff_base · 2^(r−1)`…
    pub backoff_base: Duration,
    /// …capped here, then scaled by a deterministic jitter factor in
    /// `[0.5, 1.5)` drawn from the `FABRIC_RETRY_STREAM_TAG` stream.
    pub backoff_cap: Duration,
    /// Faults to inject, if any.
    pub injected: Vec<InjectedFault>,
}

impl FabricSpec {
    /// A spec with production defaults: 2 retries, 60 s timeout, 50 ms
    /// base backoff capped at 2 s, no injected faults.
    pub fn new(worker: PathBuf, policy: impl Into<String>, num_shards: usize) -> Self {
        FabricSpec {
            worker,
            policy: policy.into(),
            num_shards,
            max_retries: 2,
            timeout: Duration::from_secs(60),
            checkpoint_every: 0,
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            injected: Vec::new(),
        }
    }

    /// The first injected fault matching this shard and attempt, if any.
    fn fault_for(&self, shard: usize, attempt: u32) -> WorkerFaultPlan {
        self.injected
            .iter()
            .find(|f| f.shard == shard && (attempt == 0 || f.persistent))
            .map(|f| f.fault.clone())
            .unwrap_or_default()
    }
}

/// Why one worker attempt failed. Ordered like the classification itself:
/// process-level verdicts (spawn, exit, timeout) are decided before the
/// output stream is even looked at; frame and identity checks follow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerFailure {
    /// The worker process could not be started at all.
    Spawn(String),
    /// The worker exited with a nonzero status (`None`: killed by a
    /// signal). Whatever it wrote is discarded — an exit code is a
    /// self-declared failure, even if a frame made it out first.
    NonZeroExit(Option<i32>),
    /// The worker exited cleanly but its output is not an intact frame
    /// (truncated, corrupt, wrong version, trailing bytes, …).
    Frame(CodecError),
    /// An intact frame for a *different experiment*: the report's config
    /// digest is not the one the orchestrator distributed.
    DigestMismatch {
        /// Digest of the configuration this orchestrator distributed.
        expected: u64,
        /// Digest the frame carried.
        got: u64,
    },
    /// An intact frame of the right experiment but for the wrong shard
    /// coordinates.
    ShardMismatch {
        /// The shard index the frame claims.
        got_shard: usize,
        /// The shard count the frame claims.
        got_shards: usize,
    },
    /// The attempt outlived [`FabricSpec::timeout`] and was killed.
    Timeout,
}

impl fmt::Display for WorkerFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkerFailure::Spawn(msg) => write!(f, "failed to spawn the worker: {msg}"),
            WorkerFailure::NonZeroExit(Some(code)) => {
                write!(f, "worker exited with status {code}")
            }
            WorkerFailure::NonZeroExit(None) => write!(f, "worker was killed by a signal"),
            WorkerFailure::Frame(e) => write!(f, "report frame rejected: {e}"),
            WorkerFailure::DigestMismatch { expected, got } => write!(
                f,
                "report is for config digest {got:#018x}, expected {expected:#018x}"
            ),
            WorkerFailure::ShardMismatch {
                got_shard,
                got_shards,
            } => write!(
                f,
                "report claims shard {got_shard} of {got_shards}, which is not what was asked"
            ),
            WorkerFailure::Timeout => write!(f, "worker timed out and was killed"),
        }
    }
}

impl WorkerFailure {
    /// The [`SimError`] a terminal (all-shards-lost) outcome surfaces.
    fn into_sim_error(self, shard: usize) -> SimError {
        let worker = shard as u32;
        match self {
            WorkerFailure::Frame(cause) => SimError::Codec { shard, cause },
            WorkerFailure::DigestMismatch { .. } | WorkerFailure::ShardMismatch { .. } => {
                SimError::MergeMismatch(format!("shard {shard}: {self}"))
            }
            other => SimError::Io {
                worker,
                shard,
                cause: other.to_string(),
            },
        }
    }
}

/// One row of the orchestrator's attempt log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardAttempt {
    /// The shard being attempted.
    pub shard: usize,
    /// Attempt number, 0 for the first try.
    pub attempt: u32,
    /// `None` on success, the classified failure otherwise.
    pub failure: Option<WorkerFailure>,
}

/// The result of a fabric run that produced *something*.
#[derive(Debug, Clone, PartialEq)]
pub struct FabricOutcome {
    /// The merged report. Complete when [`lost_shards`](Self::lost_shards)
    /// is empty (and then bit-identical to the in-process sharded run);
    /// otherwise a partial merge whose losses are accounted in
    /// `report.degradation`.
    pub report: SimReport,
    /// Shards whose workers exhausted every retry.
    pub lost_shards: Vec<usize>,
    /// Every attempt made, in shard order then attempt order.
    pub attempts: Vec<ShardAttempt>,
    /// Verified checkpoint frames retained across all shards and attempts.
    pub checkpoints_taken: u64,
    /// Rounds a retry re-executed that a failed attempt had already
    /// computed past its own starting point — the work checkpointing
    /// failed to save. Retry-from-seed after progress to round `p` replays
    /// `p` rounds; resume from a checkpoint at the crash round replays 0.
    pub rounds_replayed: u64,
}

/// The newest verified checkpoint of one shard: the round it resumes at
/// and the intact frame re-shipped verbatim to the replacement worker.
struct RetainedCheckpoint {
    round: u64,
    frame: Vec<u8>,
}

/// What one attempt's frame stream revealed, surviving the attempt's
/// failure: the furthest round the worker provably reached, the newest
/// verified checkpoint, and how many checkpoints verified.
struct AttemptWatch {
    progress_round: u64,
    checkpoint: Option<RetainedCheckpoint>,
    checkpoints_taken: u64,
}

/// Recovery accounting for one shard, summed into the fabric outcome.
#[derive(Default)]
struct ShardRecovery {
    checkpoints_taken: u64,
    rounds_replayed: u64,
}

/// The deterministic pre-retry pause before launching `attempt` (counting
/// from 1; attempt 0 is the first try and never waits): exponential in the
/// retry number, jittered by the shard's `FABRIC_RETRY_STREAM_TAG` stream
/// so simultaneous retries of different shards (or of different masters)
/// spread out — yet any re-run of the same experiment waits the exact same
/// schedule. Total over `u32`: attempt 0 saturates to the first retry's
/// pause instead of underflowing.
fn retry_backoff(spec: &FabricSpec, master: u64, shard: usize, attempt: u32) -> Duration {
    debug_assert!(
        attempt > 0,
        "attempt 0 is the first try and never backs off"
    );
    let retry = attempt.saturating_sub(1);
    let doubled = spec
        .backoff_base
        .checked_mul(1u32 << retry.min(20))
        .unwrap_or(spec.backoff_cap);
    let capped = doubled.min(spec.backoff_cap);
    let stream = derive_stream_seed(master, FABRIC_RETRY_STREAM_TAG, shard as u64);
    let jitter = 0.5 + unit_f64(counter_draw(stream, u64::from(retry)));
    capped.mul_f64(jitter)
}

/// One stdout event of a supervised worker, as produced by the incremental
/// frame reader: a complete frame, an envelope violation that desyncs the
/// stream, or end-of-stream with whatever bytes never formed a frame.
enum Wire {
    Frame(Vec<u8>),
    Malformed(CodecError),
    Eof(Vec<u8>),
}

/// Spawns and supervises one worker attempt under the heartbeat deadline,
/// recording progress and verified checkpoints into `watch` as the stream
/// arrives (they survive the attempt's failure).
// Every argument is genuinely per-attempt state; bundling them into a
// one-shot struct would only move the list.
#[allow(clippy::too_many_arguments)]
fn run_attempt(
    spec: &FabricSpec,
    shard: usize,
    sub_seed: u64,
    digest: u64,
    config_text: &str,
    fault: &WorkerFaultPlan,
    resume: Option<&RetainedCheckpoint>,
    watch: &mut AttemptWatch,
) -> Result<ShardReport, WorkerFailure> {
    let mut command = Command::new(&spec.worker);
    command
        .arg("--shard")
        .arg(shard.to_string())
        .arg("--shards")
        .arg(spec.num_shards.to_string())
        .arg("--policy")
        .arg(&spec.policy)
        .arg("--expect-seed")
        .arg(sub_seed.to_string())
        .arg("--digest")
        .arg(digest.to_string());
    if spec.checkpoint_every > 0 {
        command
            .arg("--checkpoint-every")
            .arg(spec.checkpoint_every.to_string());
    }
    if resume.is_some() {
        command.arg("--resume-from").arg("stdin");
    }
    command
        .args(fault.to_args())
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    let mut child = command
        .spawn()
        .map_err(|e| WorkerFailure::Spawn(e.to_string()))?;
    // Hand the shard its configuration — plus, on a resumed attempt, the
    // delimiter line and the retained checkpoint frame — and close the
    // pipe. A worker that died before reading makes this write fail with
    // EPIPE — ignored here, because the exit status classifies that death
    // more precisely.
    if let Some(mut stdin) = child.stdin.take() {
        let _ = stdin.write_all(config_text.as_bytes());
        if let Some(checkpoint) = resume {
            if !config_text.ends_with('\n') {
                let _ = stdin.write_all(b"\n");
            }
            let _ = stdin.write_all(format!("{RESUME_DELIMITER}\n").as_bytes());
            let _ = stdin.write_all(&checkpoint.frame);
        }
    }
    let mut stdout = child.stdout.take().expect("stdout was piped");
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        let mut pending: Vec<u8> = Vec::new();
        let mut chunk = [0u8; 16 * 1024];
        loop {
            // Drain every complete frame already buffered. Each frame is
            // length-bounded by the envelope (`peek_frame_len` rejects
            // oversized declared lengths), so a misbehaving worker cannot
            // make this buffer grow without bound.
            loop {
                match peek_frame_len(&pending) {
                    Ok(Some(len)) if pending.len() >= len => {
                        let frame: Vec<u8> = pending.drain(..len).collect();
                        if tx.send(Wire::Frame(frame)).is_err() {
                            return;
                        }
                    }
                    Ok(_) => break,
                    Err(e) => {
                        let _ = tx.send(Wire::Malformed(e));
                        return;
                    }
                }
            }
            match stdout.read(&mut chunk) {
                Ok(0) | Err(_) => {
                    let _ = tx.send(Wire::Eof(pending));
                    return;
                }
                Ok(n) => pending.extend_from_slice(&chunk[..n]),
            }
        }
    });
    let kill = |child: &mut std::process::Child| {
        let _ = child.kill();
        let _ = child.wait();
    };
    let mut final_report: Option<ShardReport> = None;
    // Each received event re-arms the deadline: a streaming worker buys
    // time by making progress, a silent one is killed after one period.
    let leftover = loop {
        match rx.recv_timeout(spec.timeout) {
            Ok(Wire::Frame(bytes)) => match decode_frame(&bytes) {
                Ok(Frame::Progress(p)) => {
                    if p.config_digest == digest
                        && p.shard as usize == shard
                        && p.num_shards as usize == spec.num_shards
                    {
                        watch.progress_round = watch.progress_round.max(p.round);
                    }
                }
                Ok(Frame::Checkpoint(frame)) => {
                    // Retain only what provably restarts this shard of this
                    // experiment; anything else is dropped, never fatal —
                    // the worker may still finish, and retry-from-seed
                    // remains the fallback.
                    if frame.config_digest == digest
                        && frame.shard as usize == shard
                        && frame.num_shards as usize == spec.num_shards
                    {
                        if let Ok(state) = EngineCheckpoint::from_bytes(&frame.state) {
                            watch.progress_round = watch.progress_round.max(state.round());
                            watch.checkpoint = Some(RetainedCheckpoint {
                                round: state.round(),
                                frame: bytes,
                            });
                            watch.checkpoints_taken += 1;
                        }
                    }
                }
                Ok(Frame::Final(report)) => final_report = Some(report),
                Err(e) => {
                    kill(&mut child);
                    let _ = reader.join();
                    return Err(WorkerFailure::Frame(e));
                }
            },
            Ok(Wire::Malformed(e)) => {
                kill(&mut child);
                let _ = reader.join();
                return Err(WorkerFailure::Frame(e));
            }
            Ok(Wire::Eof(leftover)) => break leftover,
            Err(_) => {
                kill(&mut child);
                let _ = reader.join();
                return Err(WorkerFailure::Timeout);
            }
        }
    };
    let _ = reader.join();
    let status = match child.wait() {
        Ok(status) => status,
        Err(e) => return Err(WorkerFailure::Spawn(format!("wait failed: {e}"))),
    };
    if !status.success() {
        return Err(WorkerFailure::NonZeroExit(status.code()));
    }
    if !leftover.is_empty() {
        // A clean exit with a torn tail: classify by decoding the tail.
        return Err(WorkerFailure::Frame(
            decode_frame(&leftover).expect_err("an incomplete frame cannot decode"),
        ));
    }
    let report = match final_report {
        Some(report) => report,
        None => {
            return Err(WorkerFailure::Frame(CodecError::Truncated {
                needed: crate::fabric::codec::HEADER_LEN,
                got: 0,
            }))
        }
    };
    if report.config_digest != digest {
        return Err(WorkerFailure::DigestMismatch {
            expected: digest,
            got: report.config_digest,
        });
    }
    if report.shard != shard || report.num_shards != spec.num_shards {
        return Err(WorkerFailure::ShardMismatch {
            got_shard: report.shard,
            got_shards: report.num_shards,
        });
    }
    Ok(report)
}

/// Runs one shard to success or retry exhaustion, logging every attempt,
/// retaining the newest verified checkpoint across attempts and restarting
/// failed workers from it.
fn run_shard_supervised(
    spec: &FabricSpec,
    master: u64,
    shard: usize,
    sub_seed: u64,
    digest: u64,
    config_text: &str,
) -> (
    Result<ShardReport, WorkerFailure>,
    Vec<ShardAttempt>,
    ShardRecovery,
) {
    let mut attempts = Vec::new();
    let mut last_failure = None;
    let mut recovery = ShardRecovery::default();
    let mut retained: Option<RetainedCheckpoint> = None;
    // The furthest round any failed attempt provably reached — the work a
    // retry starting earlier than it has to redo.
    let mut observed_round: u64 = 0;
    for attempt in 0..=spec.max_retries {
        let resume_round = retained.as_ref().map_or(0, |c| c.round);
        if attempt > 0 {
            std::thread::sleep(retry_backoff(spec, master, shard, attempt));
            recovery.rounds_replayed = recovery
                .rounds_replayed
                .saturating_add(observed_round.saturating_sub(resume_round));
        }
        let fault = spec.fault_for(shard, attempt);
        let mut watch = AttemptWatch {
            progress_round: resume_round,
            checkpoint: None,
            checkpoints_taken: 0,
        };
        let result = run_attempt(
            spec,
            shard,
            sub_seed,
            digest,
            config_text,
            &fault,
            retained.as_ref(),
            &mut watch,
        );
        recovery.checkpoints_taken = recovery
            .checkpoints_taken
            .saturating_add(watch.checkpoints_taken);
        if let Some(checkpoint) = watch.checkpoint.take() {
            retained = Some(checkpoint);
        }
        match result {
            Ok(report) => {
                attempts.push(ShardAttempt {
                    shard,
                    attempt,
                    failure: None,
                });
                return (Ok(report), attempts, recovery);
            }
            Err(failure) => {
                observed_round = observed_round.max(watch.progress_round);
                attempts.push(ShardAttempt {
                    shard,
                    attempt,
                    failure: Some(failure.clone()),
                });
                let fatal = matches!(
                    failure,
                    WorkerFailure::NonZeroExit(Some(EXIT_CONFIG_REJECTED))
                );
                if matches!(
                    failure,
                    WorkerFailure::NonZeroExit(Some(EXIT_RESUME_REJECTED))
                ) {
                    // The worker refused the shipped checkpoint (stricter
                    // validation than ours); drop it and retry from seed.
                    retained = None;
                }
                last_failure = Some(failure);
                if fatal {
                    // The worker declared the configuration itself
                    // unusable; re-sending it cannot succeed.
                    break;
                }
            }
        }
    }
    (
        Err(last_failure.expect("at least one attempt ran")),
        attempts,
        recovery,
    )
}

/// Runs the configuration as `spec.num_shards` supervised worker
/// processes and merges what survives.
///
/// Shard derivation is delegated to
/// [`ShardedSimulation`], so everything that
/// holds for in-process sharded runs (validation, striping, sub-master
/// seeds, global scenario/workload pinning) holds verbatim here — and a
/// run in which every shard eventually succeeded returns a report
/// bit-identical to [`ShardedSimulation::run`] at the same `k`.
///
/// # Errors
/// Returns the base configuration's validation errors, the wire form's
/// [`SimError::InvalidConfig`] for configurations that cannot be shipped
/// (replay traces), and — only when **every** shard exhausted its retries —
/// the first lost shard's classified failure as a [`SimError::Io`] /
/// [`SimError::Codec`] / [`SimError::MergeMismatch`]. Losing some but not
/// all shards is *not* an error; it is a partial [`FabricOutcome`].
pub fn run_fabric(config: &SimConfig, spec: &FabricSpec) -> Result<FabricOutcome, SimError> {
    let sharded = ShardedSimulation::new(config.clone(), spec.num_shards)?;
    let digest = config.digest();
    let k = spec.num_shards;
    let texts: Vec<String> = (0..k)
        .map(|j| sharded.shard_config(j).to_key_values())
        .collect::<Result<_, _>>()?;
    type ShardOutcome = (
        Result<ShardReport, WorkerFailure>,
        Vec<ShardAttempt>,
        ShardRecovery,
    );
    let mut outcomes: Vec<Option<ShardOutcome>> = (0..k).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(k);
        for (j, text) in texts.iter().enumerate() {
            let sub_seed = sharded.shard_config(j).seed;
            let spec = &spec;
            handles.push(
                scope.spawn(move || {
                    run_shard_supervised(spec, config.seed, j, sub_seed, digest, text)
                }),
            );
        }
        for (j, handle) in handles.into_iter().enumerate() {
            outcomes[j] = Some(handle.join().expect("shard supervisor panicked"));
        }
    });
    let mut survivors = Vec::with_capacity(k);
    let mut lost_shards = Vec::new();
    let mut attempts = Vec::new();
    let mut first_loss: Option<WorkerFailure> = None;
    let mut checkpoints_taken: u64 = 0;
    let mut rounds_replayed: u64 = 0;
    for (j, outcome) in outcomes.into_iter().enumerate() {
        let (result, shard_attempts, recovery) = outcome.expect("every shard ran");
        attempts.extend(shard_attempts);
        checkpoints_taken = checkpoints_taken.saturating_add(recovery.checkpoints_taken);
        rounds_replayed = rounds_replayed.saturating_add(recovery.rounds_replayed);
        match result {
            Ok(report) => survivors.push(report),
            Err(failure) => {
                if first_loss.is_none() {
                    first_loss = Some(failure);
                }
                lost_shards.push(j);
            }
        }
    }
    if survivors.is_empty() {
        let shard = lost_shards[0];
        return Err(first_loss
            .expect("a lost shard has a failure")
            .into_sim_error(shard));
    }
    let mut report = merge_shard_reports(&survivors)?;
    report.offered_load = config.offered_load();
    if !lost_shards.is_empty() {
        // A partial merge already diverges from the in-process run, so the
        // recovery counters ride along in its degradation block. A *fully
        // recovered* run stays bit-identical — its counters live only on
        // the outcome.
        let d = report
            .degradation
            .get_or_insert(DegradationMetrics::default());
        d.shards_lost = d.shards_lost.saturating_add(lost_shards.len() as u64);
        d.rounds_lost = d
            .rounds_lost
            .saturating_add((lost_shards.len() as u64).saturating_mul(config.rounds));
        d.checkpoints_taken = d.checkpoints_taken.saturating_add(checkpoints_taken);
        d.rounds_replayed = d.rounds_replayed.saturating_add(rounds_replayed);
    }
    Ok(FabricOutcome {
        report,
        lost_shards,
        attempts,
        checkpoints_taken,
        rounds_replayed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::ArrivalSpec;
    use scd_model::ClusterSpec;

    fn base_config() -> SimConfig {
        SimConfig::builder(ClusterSpec::from_rates(vec![2.0, 1.0, 1.0, 2.0]).unwrap())
            .dispatchers(2)
            .rounds(50)
            .seed(5)
            .arrivals(ArrivalSpec::PoissonOfferedLoad { offered_load: 0.7 })
            .build()
            .unwrap()
    }

    #[test]
    fn backoff_is_deterministic_exponential_and_jitter_bounded() {
        let spec = FabricSpec::new(PathBuf::from("worker"), "SCD", 4);
        for shard in 0..4usize {
            for attempt in 1..=6u32 {
                let a = retry_backoff(&spec, 9, shard, attempt);
                let b = retry_backoff(&spec, 9, shard, attempt);
                assert_eq!(a, b, "backoff must be reproducible");
                let nominal = spec
                    .backoff_base
                    .checked_mul(1 << (attempt - 1))
                    .unwrap_or(spec.backoff_cap)
                    .min(spec.backoff_cap);
                assert!(a >= nominal.mul_f64(0.5), "shard {shard} attempt {attempt}");
                assert!(a < nominal.mul_f64(1.5), "shard {shard} attempt {attempt}");
            }
        }
        // Different shards (and different masters) jitter differently.
        let j0 = retry_backoff(&spec, 9, 0, 1);
        let j1 = retry_backoff(&spec, 9, 1, 1);
        let j2 = retry_backoff(&spec, 10, 0, 1);
        assert!(j0 != j1 || j0 != j2, "jitter should depend on shard/master");
    }

    #[test]
    fn backoff_is_total_over_u32() {
        let spec = FabricSpec::new(PathBuf::from("worker"), "SCD", 4);
        // Huge attempt numbers neither panic nor overflow: the exponent
        // saturates and the cap (times the jitter bound) still holds.
        for attempt in [7u32, 20, 21, 1 << 16, u32::MAX] {
            let pause = retry_backoff(&spec, 9, 0, attempt);
            assert!(pause < spec.backoff_cap.mul_f64(1.5), "attempt {attempt}");
            assert!(pause >= spec.backoff_cap.mul_f64(0.5), "attempt {attempt}");
        }
    }

    #[test]
    fn injected_faults_select_by_shard_attempt_and_persistence() {
        let mut spec = FabricSpec::new(PathBuf::from("worker"), "SCD", 4);
        spec.injected = vec![
            InjectedFault {
                shard: 1,
                fault: WorkerFaultPlan {
                    exit_code: Some(9),
                    ..WorkerFaultPlan::default()
                },
                persistent: false,
            },
            InjectedFault {
                shard: 2,
                fault: WorkerFaultPlan {
                    hang: true,
                    ..WorkerFaultPlan::default()
                },
                persistent: true,
            },
        ];
        assert!(spec.fault_for(0, 0).is_clean());
        assert_eq!(spec.fault_for(1, 0).exit_code, Some(9));
        assert!(
            spec.fault_for(1, 1).is_clean(),
            "one-shot fault retries clean"
        );
        assert!(spec.fault_for(2, 0).hang);
        assert!(spec.fault_for(2, 3).hang, "persistent fault never clears");
    }

    #[test]
    fn unspawnable_worker_loses_every_shard_and_errors() {
        let mut spec = FabricSpec::new(PathBuf::from("/nonexistent/scd-shard-worker"), "SCD", 2);
        spec.max_retries = 1;
        spec.backoff_base = Duration::from_millis(1);
        spec.backoff_cap = Duration::from_millis(2);
        let err = run_fabric(&base_config(), &spec).unwrap_err();
        match err {
            SimError::Io {
                shard, ref cause, ..
            } => {
                assert_eq!(shard, 0);
                assert!(cause.contains("spawn"), "{cause}");
            }
            other => panic!("expected Io spawn error, got {other}"),
        }
    }

    #[test]
    fn failure_display_and_error_mapping_cover_every_variant() {
        let cases: Vec<(WorkerFailure, &str)> = vec![
            (WorkerFailure::Spawn("no such file".into()), "spawn"),
            (WorkerFailure::NonZeroExit(Some(101)), "101"),
            (WorkerFailure::NonZeroExit(None), "signal"),
            (
                WorkerFailure::Frame(CodecError::Truncated { needed: 9, got: 2 }),
                "truncated",
            ),
            (
                WorkerFailure::DigestMismatch {
                    expected: 1,
                    got: 2,
                },
                "digest",
            ),
            (
                WorkerFailure::ShardMismatch {
                    got_shard: 3,
                    got_shards: 4,
                },
                "shard 3",
            ),
            (WorkerFailure::Timeout, "timed out"),
        ];
        for (failure, needle) in cases {
            let shown = failure.to_string();
            assert!(shown.contains(needle), "{shown} should contain {needle}");
            // Every failure maps into some SimError whose Display carries
            // the shard index.
            let err = failure.into_sim_error(7);
            assert!(err.to_string().contains('7'), "{err}");
        }
    }
}
