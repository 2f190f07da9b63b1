//! The in-process body of the `shard_worker` binary.
//!
//! A worker is intentionally dumb: it receives one *already derived* shard
//! configuration (the `key = value` wire form of
//! [`SimConfig`], produced by
//! [`ShardedSimulation::shard_config`](crate::ShardedSimulation) on the
//! orchestrator side) on stdin, cross-checks it against the orchestrator's
//! expectations, runs the shard exactly like the in-process engine would,
//! and answers on stdout: with `checkpoint_every = R > 0` a `Progress`
//! heartbeat plus a `Checkpoint` frame every `R` rounds, and always one
//! `Final` report frame at the end. A worker launched with a retained
//! checkpoint (`--resume-from stdin`) restores it and continues the run
//! bit-identically. Everything operational — supervision, heartbeat
//! deadlines, retries, merging — lives with the orchestrator; a worker
//! that dies mid-run leaves nothing behind but a classifiable failure and
//! whatever verified checkpoints it already streamed.
//!
//! The [`WorkerFaultPlan`] makes the failure modes *deterministic and
//! injectable*: a crash before the frame or right after the N-th
//! checkpoint, a hang, a corrupted or truncated final frame, an arbitrary
//! exit code. The fault-tolerance tests and the CI smoke job drive the
//! orchestrator through every classification branch with these flags, on
//! the real process boundary.
//!
//! Exit codes are part of the protocol: [`EXIT_CONFIG_REJECTED`] declares
//! the configuration itself unusable (retrying cannot help), and
//! [`EXIT_RESUME_REJECTED`] declares the shipped resume checkpoint
//! unusable (the orchestrator falls back to retry-from-seed).

use crate::checkpoint::EngineCheckpoint;
use crate::config::SimConfig;
use crate::engine::{SimError, Simulation};
use crate::fabric::codec::{
    decode_frame, encode_checkpoint_frame, encode_final_frame, encode_progress_frame,
    CheckpointFrame, Frame, ProgressFrame, HEADER_LEN,
};
use crate::shard::ShardReport;
use scd_model::PolicyFactory;

/// Exit code for a configuration the worker cannot run (malformed
/// `key = value` stream, unknown fields, failed validation). The
/// orchestrator treats it as fatal for the shard: the same configuration
/// would be re-sent on retry, so retrying cannot succeed.
pub const EXIT_CONFIG_REJECTED: i32 = 3;

/// Exit code for a resume checkpoint the worker refuses (undecodable
/// frame, wrong shard coordinates, digest mismatch, rejected state). The
/// orchestrator drops the retained checkpoint and retries from seed.
pub const EXIT_RESUME_REJECTED: i32 = 4;

/// Deterministic fault injection for one worker invocation. The default
/// plan is fault-free.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerFaultPlan {
    /// Crash (exit code 101, no frame) once the run would have passed this
    /// round. A value at or beyond the configured round count never fires,
    /// so the same flag is safe on re-runs with longer horizons.
    pub fail_after_round: Option<u64>,
    /// Crash (exit code 101) immediately after streaming the N-th
    /// checkpoint frame (counting from 1) — the mid-stream death the
    /// retry-from-checkpoint path recovers. Never fires when fewer
    /// checkpoints are emitted (in particular with `checkpoint_every` 0).
    pub fail_after_checkpoint: Option<u64>,
    /// Never produce output and never exit — simulate a wedged process.
    /// The orchestrator's wall-clock timeout is the only way out.
    pub hang: bool,
    /// Emit the frame with one payload byte flipped, so the checksum
    /// rejects it.
    pub corrupt_frame: bool,
    /// Emit only the first half of the frame.
    pub truncate_frame: bool,
    /// Exit with this code immediately, before reading the configuration —
    /// simulate a worker that dies on startup.
    pub exit_code: Option<i32>,
}

impl WorkerFaultPlan {
    /// Whether this plan injects anything at all.
    pub fn is_clean(&self) -> bool {
        *self == WorkerFaultPlan::default()
    }

    /// Renders the plan as `shard_worker` command-line flags — the form
    /// the orchestrator appends to an injected attempt's argument list.
    pub fn to_args(&self) -> Vec<String> {
        let mut args = Vec::new();
        if let Some(round) = self.fail_after_round {
            args.push("--fail-after-round".into());
            args.push(round.to_string());
        }
        if let Some(nth) = self.fail_after_checkpoint {
            args.push("--fail-after-checkpoint".into());
            args.push(nth.to_string());
        }
        if self.hang {
            args.push("--hang".into());
        }
        if self.corrupt_frame {
            args.push("--corrupt-frame".into());
        }
        if self.truncate_frame {
            args.push("--truncate-frame".into());
        }
        if let Some(code) = self.exit_code {
            args.push("--exit-code".into());
            args.push(code.to_string());
        }
        args
    }
}

/// Everything a worker invocation is told on its command line (the shard
/// configuration itself arrives separately, on stdin).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerSpec {
    /// Index of the shard this worker runs.
    pub shard: usize,
    /// Total shard count `k` of the run.
    pub num_shards: usize,
    /// The sub-master seed the orchestrator derived for this shard
    /// ([`shard_master_seed`](scd_model::streams::shard_master_seed)). The
    /// worker refuses a configuration whose seed disagrees — the
    /// retry-from-seed guarantee hinges on running the exact seed the
    /// orchestrator distributed.
    pub expect_seed: u64,
    /// Structural digest of the **base** configuration
    /// ([`SimConfig::digest`](crate::SimConfig::digest)), echoed verbatim
    /// into the report frame so the orchestrator can tie the report back
    /// to the experiment it belongs to.
    pub config_digest: u64,
    /// Stream a `Progress` + `Checkpoint` frame pair every this many
    /// rounds; `0` streams none, so the final frame is the only output.
    pub checkpoint_every: u64,
    /// Whether stdin carries, after the configuration text and a
    /// `%%CHECKPOINT%%` delimiter line, a raw checkpoint frame to resume
    /// from (`--resume-from stdin`).
    pub resume_from_stdin: bool,
    /// Injected faults, if any.
    pub fault: WorkerFaultPlan,
}

/// What the worker binary should do after [`run_worker`] returns — kept as
/// data so the whole decision procedure (including every injected fault)
/// is testable without a process boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerOutput {
    /// Write these bytes to stdout and exit 0.
    Frame(Vec<u8>),
    /// Exit with this code without writing anything.
    Exit(i32),
    /// Park forever; the supervisor's timeout will kill the process.
    Hang,
}

/// Decodes and cross-checks the resume checkpoint frame shipped on stdin.
/// Every rejection maps to [`SimError::Checkpoint`], which the binary
/// turns into [`EXIT_RESUME_REJECTED`] — the orchestrator's cue to retry
/// from seed instead of from this checkpoint.
fn decode_resume(
    spec: &WorkerSpec,
    config: &SimConfig,
    frame: &[u8],
) -> Result<EngineCheckpoint, SimError> {
    let refuse = |msg: String| SimError::Checkpoint(msg);
    let decoded = decode_frame(frame)
        .map_err(|e| refuse(format!("resume checkpoint frame rejected: {e}")))?;
    let Frame::Checkpoint(frame) = decoded else {
        return Err(refuse("the resume frame is not a checkpoint frame".into()));
    };
    if frame.shard as usize != spec.shard || frame.num_shards as usize != spec.num_shards {
        return Err(refuse(format!(
            "resume checkpoint is for shard {} of {}, not shard {} of {}",
            frame.shard, frame.num_shards, spec.shard, spec.num_shards
        )));
    }
    if frame.config_digest != spec.config_digest {
        return Err(refuse(format!(
            "resume checkpoint envelope carries config digest {:#018x}, expected {:#018x}",
            frame.config_digest, spec.config_digest
        )));
    }
    let checkpoint = EngineCheckpoint::from_bytes(&frame.state)
        .map_err(|e| refuse(format!("resume checkpoint state rejected: {e}")))?;
    if checkpoint.config_digest() != config.digest() {
        return Err(refuse(
            "resume checkpoint state was taken under a different shard configuration".into(),
        ));
    }
    Ok(checkpoint)
}

/// Runs one worker invocation: parse and cross-check the configuration,
/// apply the fault plan, simulate the shard — streaming progress and
/// checkpoint frames through `emit` every `checkpoint_every` rounds — and
/// encode the final frame.
///
/// # Errors
/// Returns [`SimError::InvalidConfig`] for an inconsistent spec (shard
/// index out of range, stdin seed disagreeing with `expect_seed`) or any
/// parse error of the configuration text (the binary exits
/// [`EXIT_CONFIG_REJECTED`]); [`SimError::Checkpoint`] for a refused
/// resume checkpoint (the binary exits [`EXIT_RESUME_REJECTED`]); and
/// whatever the shard's own [`Simulation`] run or the `emit` sink report.
/// The binary maps other errors to stderr plus exit 2, which the
/// orchestrator classifies like any other crash.
pub fn run_worker(
    spec: &WorkerSpec,
    config_text: &str,
    resume_frame: Option<&[u8]>,
    factory: &dyn PolicyFactory,
    emit: &mut dyn FnMut(&[u8]) -> Result<(), SimError>,
) -> Result<WorkerOutput, SimError> {
    if let Some(code) = spec.fault.exit_code {
        return Ok(WorkerOutput::Exit(code));
    }
    if spec.shard >= spec.num_shards {
        return Err(SimError::InvalidConfig(format!(
            "worker told to run shard {} of a {}-shard run",
            spec.shard, spec.num_shards
        )));
    }
    let config = SimConfig::from_key_values(config_text)?;
    if config.seed != spec.expect_seed {
        return Err(SimError::InvalidConfig(format!(
            "shard {} received a configuration seeded {:#018x}, but the \
             orchestrator distributed sub-master {:#018x} — refusing to run \
             a shard the retry contract could not reproduce",
            spec.shard, config.seed, spec.expect_seed
        )));
    }
    if spec.fault.hang {
        return Ok(WorkerOutput::Hang);
    }
    if let Some(round) = spec.fault.fail_after_round {
        if round < config.rounds {
            // The injected crash kills the process before any output; how
            // many rounds were actually computed is unobservable, so none
            // are — byte-for-byte the same failure, without the wasted CPU.
            return Ok(WorkerOutput::Exit(101));
        }
    }
    let resume = match resume_frame {
        None => None,
        Some(frame) => Some(decode_resume(spec, &config, frame)?),
    };
    let num_servers = config.num_servers();
    let rounds_total = config.rounds;
    let sim = Simulation::new(config)?;
    let codec_err = |cause| SimError::Codec {
        shard: spec.shard,
        cause,
    };
    let mut emitted = 0u64;
    let mut injected_crash = false;
    let run = sim.run_with_checkpoints(
        factory,
        spec.checkpoint_every,
        resume.as_ref(),
        &mut |ckpt| {
            let progress = encode_progress_frame(&ProgressFrame {
                shard: spec.shard as u32,
                num_shards: spec.num_shards as u32,
                config_digest: spec.config_digest,
                round: ckpt.round(),
                rounds_total,
                jobs_dispatched: ckpt.jobs_dispatched(),
            })
            .map_err(codec_err)?;
            emit(&progress)?;
            let frame = encode_checkpoint_frame(&CheckpointFrame {
                shard: spec.shard as u32,
                num_shards: spec.num_shards as u32,
                config_digest: spec.config_digest,
                state: ckpt.to_bytes().map_err(codec_err)?,
            })
            .map_err(codec_err)?;
            emit(&frame)?;
            emitted += 1;
            if spec.fault.fail_after_checkpoint == Some(emitted) {
                injected_crash = true;
                return Err(SimError::Checkpoint(
                    "injected crash after the checkpoint".into(),
                ));
            }
            Ok(())
        },
    );
    let report = match run {
        Ok(report) => report,
        Err(_) if injected_crash => return Ok(WorkerOutput::Exit(101)),
        Err(e) => return Err(e),
    };
    let shard_report = ShardReport {
        shard: spec.shard,
        num_shards: spec.num_shards,
        num_servers,
        config_digest: spec.config_digest,
        report,
    };
    let mut frame = encode_final_frame(&shard_report).map_err(codec_err)?;
    if spec.fault.corrupt_frame {
        // Flip a bit in the first payload byte: past the header, so the
        // envelope still parses and the *checksum* is what catches it.
        frame[HEADER_LEN] ^= 0x01;
    }
    if spec.fault.truncate_frame {
        frame.truncate(frame.len() / 2);
    }
    Ok(WorkerOutput::Frame(frame))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::ArrivalSpec;
    use crate::fabric::codec::decode_shard_report;
    use crate::shard::ShardedSimulation;
    use scd_model::ClusterSpec;
    use scd_policies::ArgminFactory;

    fn base_config() -> SimConfig {
        let rates: Vec<f64> = (0..8).map(|s| 1.0 + (s % 3) as f64).collect();
        SimConfig::builder(ClusterSpec::from_rates(rates).unwrap())
            .dispatchers(4)
            .rounds(200)
            .warmup_rounds(20)
            .seed(11)
            .arrivals(ArrivalSpec::PoissonOfferedLoad { offered_load: 0.8 })
            .build()
            .unwrap()
    }

    fn worker_spec(sharded: &ShardedSimulation, shard: usize) -> WorkerSpec {
        WorkerSpec {
            shard,
            num_shards: sharded.num_shards(),
            expect_seed: sharded.shard_config(shard).seed,
            config_digest: sharded.config().digest(),
            checkpoint_every: 0,
            resume_from_stdin: false,
            fault: WorkerFaultPlan::default(),
        }
    }

    /// `run_worker` with a sink that rejects intermediate frames — a worker
    /// without a checkpoint cadence must never emit any.
    fn run_oneshot(
        spec: &WorkerSpec,
        text: &str,
        factory: &dyn PolicyFactory,
    ) -> Result<WorkerOutput, SimError> {
        run_worker(spec, text, None, factory, &mut |_| {
            panic!("a worker without a checkpoint cadence must not stream frames")
        })
    }

    #[test]
    fn worker_reproduces_the_in_process_shard_bit_for_bit() {
        let sharded = ShardedSimulation::new(base_config(), 2).unwrap();
        let factory = ArgminFactory::jsq();
        let in_process = sharded.run_shards(&factory, 1).unwrap();
        for (shard, expected) in in_process.iter().enumerate() {
            let text = sharded.shard_config(shard).to_key_values().unwrap();
            let spec = worker_spec(&sharded, shard);
            match run_oneshot(&spec, &text, &factory).unwrap() {
                WorkerOutput::Frame(frame) => {
                    assert_eq!(&decode_shard_report(&frame).unwrap(), expected);
                }
                other => panic!("clean worker produced {other:?}"),
            }
        }
    }

    #[test]
    fn streaming_worker_checkpoints_resume_and_the_final_matches() {
        let sharded = ShardedSimulation::new(base_config(), 2).unwrap();
        let factory = ArgminFactory::jsq();
        let expected = &sharded.run_shards(&factory, 1).unwrap()[0];
        let text = sharded.shard_config(0).to_key_values().unwrap();
        let mut spec = worker_spec(&sharded, 0);
        spec.checkpoint_every = 60;
        let mut streamed: Vec<Vec<u8>> = Vec::new();
        let out = run_worker(&spec, &text, None, &factory, &mut |frame| {
            streamed.push(frame.to_vec());
            Ok(())
        })
        .unwrap();
        let WorkerOutput::Frame(final_frame) = out else {
            panic!("streaming worker must end with a final frame");
        };
        assert_eq!(&decode_shard_report(&final_frame).unwrap(), expected);
        // Rounds 60, 120 and 180, each as a progress + checkpoint pair.
        assert_eq!(streamed.len(), 6);
        let mut checkpoint_frames = Vec::new();
        for (i, frame) in streamed.iter().enumerate() {
            match decode_frame(frame).unwrap() {
                Frame::Progress(p) if i % 2 == 0 => {
                    assert_eq!(p.round, (i as u64 / 2 + 1) * 60);
                    assert_eq!(p.rounds_total, 200);
                    assert_eq!((p.shard, p.num_shards), (0, 2));
                }
                Frame::Checkpoint(c) if i % 2 == 1 => {
                    assert_eq!((c.shard, c.num_shards), (0, 2));
                    checkpoint_frames.push(frame.clone());
                }
                other => panic!("frame {i} has unexpected kind {other:?}"),
            }
        }
        // Resuming from each streamed checkpoint reproduces the final
        // report bit-identically — the worker-level resume contract.
        for ckpt_frame in &checkpoint_frames {
            let mut resume_spec = worker_spec(&sharded, 0);
            resume_spec.resume_from_stdin = true;
            let out = run_worker(&resume_spec, &text, Some(ckpt_frame), &factory, &mut |_| {
                Ok(())
            })
            .unwrap();
            let WorkerOutput::Frame(frame) = out else {
                panic!("resumed worker must produce a final frame");
            };
            assert_eq!(&decode_shard_report(&frame).unwrap(), expected);
        }
    }

    #[test]
    fn fail_after_checkpoint_crashes_mid_stream() {
        let sharded = ShardedSimulation::new(base_config(), 2).unwrap();
        let factory = ArgminFactory::jsq();
        let text = sharded.shard_config(1).to_key_values().unwrap();
        let mut spec = worker_spec(&sharded, 1);
        spec.checkpoint_every = 50;
        spec.fault.fail_after_checkpoint = Some(2);
        let mut streamed = 0usize;
        let out = run_worker(&spec, &text, None, &factory, &mut |_| {
            streamed += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(out, WorkerOutput::Exit(101));
        // Two progress + checkpoint pairs made it out before the crash.
        assert_eq!(streamed, 4);
    }

    #[test]
    fn bad_resume_frames_are_refused_as_checkpoint_errors() {
        let sharded = ShardedSimulation::new(base_config(), 2).unwrap();
        let factory = ArgminFactory::jsq();
        let text = sharded.shard_config(0).to_key_values().unwrap();
        let mut spec = worker_spec(&sharded, 0);
        spec.checkpoint_every = 80;
        let mut ckpt_frame = None;
        let _ = run_worker(&spec, &text, None, &factory, &mut |frame| {
            if let Ok(Frame::Checkpoint(_)) = decode_frame(frame) {
                ckpt_frame.get_or_insert_with(|| frame.to_vec());
            }
            Ok(())
        })
        .unwrap();
        let good = ckpt_frame.expect("a checkpoint was streamed");
        let refuse = |frame: &[u8], spec: &WorkerSpec, text: &str| {
            let err = run_worker(spec, text, Some(frame), &factory, &mut |_| Ok(())).unwrap_err();
            assert!(matches!(err, SimError::Checkpoint(_)), "{err}");
        };
        // Garbage bytes, a truncated frame, and shard 0's checkpoint
        // shipped to shard 1 (whose own configuration parses fine).
        refuse(b"not a frame at all", &spec, &text);
        refuse(&good[..good.len() / 2], &spec, &text);
        let wrong_shard = worker_spec(&sharded, 1);
        let wrong_text = sharded.shard_config(1).to_key_values().unwrap();
        refuse(&good, &wrong_shard, &wrong_text);
        // A JSQ blob chained to the resume round whose own placements name a
        // server past the 4-server shard: refused by the policy's restore
        // instead of indexing out of bounds in the first resumed round.
        let Ok(Frame::Checkpoint(mut forged)) = decode_frame(&good) else {
            panic!("the streamed frame is a checkpoint");
        };
        let mut ckpt = EngineCheckpoint::from_bytes(&forged.state).unwrap();
        let mut blob = scd_model::StateWriter::new();
        blob.u64s(&[0; 4]);
        blob.opt_u64(Some(ckpt.round() - 1));
        blob.u32s(&[99]);
        blob.u8(0);
        ckpt.policy_state[0] = blob.into_bytes();
        forged.state = ckpt.to_bytes().unwrap();
        refuse(&encode_checkpoint_frame(&forged).unwrap(), &spec, &text);
        // The good frame with the right spec still resumes cleanly.
        let out = run_worker(&spec, &text, Some(&good), &factory, &mut |_| Ok(())).unwrap();
        assert!(matches!(out, WorkerOutput::Frame(_)));
    }

    #[test]
    fn seed_disagreement_is_refused() {
        let sharded = ShardedSimulation::new(base_config(), 2).unwrap();
        let text = sharded.shard_config(0).to_key_values().unwrap();
        let mut spec = worker_spec(&sharded, 0);
        spec.expect_seed ^= 1;
        let err = run_oneshot(&spec, &text, &ArgminFactory::jsq()).unwrap_err();
        assert!(err.to_string().contains("sub-master"), "{err}");
        let mut bad_index = worker_spec(&sharded, 0);
        bad_index.shard = 5;
        assert!(run_oneshot(&bad_index, &text, &ArgminFactory::jsq()).is_err());
    }

    #[test]
    fn fault_plan_controls_the_output() {
        let sharded = ShardedSimulation::new(base_config(), 2).unwrap();
        let factory = ArgminFactory::jsq();
        let text = sharded.shard_config(1).to_key_values().unwrap();
        let with = |fault: WorkerFaultPlan| {
            let mut spec = worker_spec(&sharded, 1);
            spec.fault = fault;
            run_oneshot(&spec, &text, &factory).unwrap()
        };
        assert_eq!(
            with(WorkerFaultPlan {
                exit_code: Some(7),
                ..WorkerFaultPlan::default()
            }),
            WorkerOutput::Exit(7)
        );
        assert_eq!(
            with(WorkerFaultPlan {
                hang: true,
                ..WorkerFaultPlan::default()
            }),
            WorkerOutput::Hang
        );
        assert_eq!(
            with(WorkerFaultPlan {
                fail_after_round: Some(50),
                ..WorkerFaultPlan::default()
            }),
            WorkerOutput::Exit(101)
        );
        // A crash point beyond the horizon never fires.
        let clean = with(WorkerFaultPlan {
            fail_after_round: Some(10_000),
            ..WorkerFaultPlan::default()
        });
        let WorkerOutput::Frame(clean_frame) = clean else {
            panic!("late crash point must not fire");
        };
        decode_shard_report(&clean_frame).unwrap();
        // Corruption keeps the length but breaks the checksum; truncation
        // cuts the frame short. Both must be rejected by the codec.
        let WorkerOutput::Frame(corrupt) = with(WorkerFaultPlan {
            corrupt_frame: true,
            ..WorkerFaultPlan::default()
        }) else {
            panic!("corrupt-frame still emits bytes");
        };
        assert_eq!(corrupt.len(), clean_frame.len());
        assert!(decode_shard_report(&corrupt).is_err());
        let WorkerOutput::Frame(truncated) = with(WorkerFaultPlan {
            truncate_frame: true,
            ..WorkerFaultPlan::default()
        }) else {
            panic!("truncate-frame still emits bytes");
        };
        assert!(truncated.len() < clean_frame.len());
        assert!(decode_shard_report(&truncated).is_err());
    }

    #[test]
    fn fault_plan_round_trips_through_args() {
        let plan = WorkerFaultPlan {
            fail_after_round: Some(3),
            fail_after_checkpoint: Some(1),
            hang: true,
            corrupt_frame: true,
            truncate_frame: true,
            exit_code: Some(-2),
        };
        assert_eq!(
            plan.to_args(),
            vec![
                "--fail-after-round",
                "3",
                "--fail-after-checkpoint",
                "1",
                "--hang",
                "--corrupt-frame",
                "--truncate-frame",
                "--exit-code",
                "-2"
            ]
        );
        assert!(WorkerFaultPlan::default().is_clean());
        assert!(WorkerFaultPlan::default().to_args().is_empty());
        assert!(!plan.is_clean());
    }
}
