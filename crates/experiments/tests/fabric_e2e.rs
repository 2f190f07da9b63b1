//! End-to-end tests of the multi-process shard fabric, on real OS
//! processes.
//!
//! Everything below spawns the actual `shard_worker` binary (resolved via
//! the `CARGO_BIN_EXE_shard_worker` env var Cargo sets for integration
//! tests) and drives it through the orchestrator: the headline
//! retry-from-seed bit-identity, exhausted retries degrading to a partial
//! merge, and timeout/corruption classification on the process boundary.

use scd_policies::factory_by_name;
use scd_sim::fabric::{
    encode_final_frame, run_fabric, FabricSpec, InjectedFault, WorkerFailure, WorkerFaultPlan,
    EXIT_CONFIG_REJECTED, EXIT_RESUME_REJECTED,
};
use scd_sim::{ArrivalSpec, ShardedSimulation, SimConfig};
use std::path::PathBuf;
use std::time::Duration;

const POLICY: &str = "JSQ";

fn worker() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_shard_worker"))
}

fn base_config(rounds: u64) -> SimConfig {
    let rates: Vec<f64> = (0..8).map(|s| 1.0 + (s % 3) as f64).collect();
    SimConfig::builder(scd_model::ClusterSpec::from_rates(rates).unwrap())
        .dispatchers(4)
        .rounds(rounds)
        .warmup_rounds(rounds / 10)
        .seed(2021)
        .arrivals(ArrivalSpec::PoissonOfferedLoad { offered_load: 0.85 })
        .build()
        .unwrap()
}

fn quick_spec(k: usize) -> FabricSpec {
    let mut spec = FabricSpec::new(worker(), POLICY, k);
    spec.backoff_base = Duration::from_millis(5);
    spec.backoff_cap = Duration::from_millis(20);
    spec
}

fn in_process(config: &SimConfig, k: usize) -> scd_sim::SimReport {
    ShardedSimulation::new(config.clone(), k)
        .unwrap()
        .run(factory_by_name(POLICY).unwrap().as_ref())
        .unwrap()
}

fn crash() -> WorkerFaultPlan {
    WorkerFaultPlan {
        fail_after_round: Some(0),
        ..WorkerFaultPlan::default()
    }
}

/// The headline invariant: an orchestrated k=4 run that suffered one
/// injected crash, retried from its seed, is **bit-identical** to the
/// in-process `ShardedSimulation` at k=4.
#[test]
fn crash_retried_from_seed_is_bit_identical_to_in_process() {
    let config = base_config(150);
    let mut spec = quick_spec(4);
    spec.injected.push(InjectedFault {
        shard: 1,
        fault: crash(),
        persistent: false,
    });
    let outcome = run_fabric(&config, &spec).unwrap();
    assert!(outcome.lost_shards.is_empty(), "{:?}", outcome.lost_shards);
    // The crash was observed and classified...
    let failed: Vec<_> = outcome
        .attempts
        .iter()
        .filter(|a| a.failure.is_some())
        .collect();
    assert_eq!(failed.len(), 1);
    assert_eq!(failed[0].shard, 1);
    assert_eq!(failed[0].attempt, 0);
    assert!(matches!(
        failed[0].failure,
        Some(WorkerFailure::NonZeroExit(Some(101)))
    ));
    // ...the retry succeeded...
    assert!(outcome
        .attempts
        .iter()
        .any(|a| a.shard == 1 && a.attempt == 1 && a.failure.is_none()));
    // ...and recovery left no trace in the merged statistics.
    let reference = in_process(&config, 4);
    assert_eq!(outcome.report, reference);
    assert!(outcome.report.degradation.is_none(), "clean merge");
}

/// A clean orchestrated run (no faults at all) is equally bit-identical —
/// the trivial corollary, pinned separately so a regression in the happy
/// path is not misattributed to retry logic.
#[test]
fn clean_run_matches_in_process_at_k2() {
    let config = base_config(120);
    let outcome = run_fabric(&config, &quick_spec(2)).unwrap();
    assert!(outcome.lost_shards.is_empty());
    assert!(outcome.attempts.iter().all(|a| a.failure.is_none()));
    assert_eq!(outcome.report, in_process(&config, 2));
}

/// A persistently crashing shard exhausts its retries and the run degrades
/// to a partial merge with explicit loss accounting.
#[test]
fn exhausted_retries_degrade_to_a_partial_merge() {
    let config = base_config(150);
    let rounds = config.rounds;
    let mut spec = quick_spec(4);
    spec.max_retries = 1;
    spec.injected.push(InjectedFault {
        shard: 2,
        fault: crash(),
        persistent: true,
    });
    let outcome = run_fabric(&config, &spec).unwrap();
    assert_eq!(outcome.lost_shards, vec![2]);
    // Initial attempt + 1 retry, both failed.
    let shard2: Vec<_> = outcome.attempts.iter().filter(|a| a.shard == 2).collect();
    assert_eq!(shard2.len(), 2);
    assert!(shard2.iter().all(|a| a.failure.is_some()));
    let degradation = outcome
        .report
        .degradation
        .expect("partial merges account losses");
    assert_eq!(degradation.shards_lost, 1);
    assert_eq!(degradation.rounds_lost, rounds);
    // The surviving statistics are exactly the other shards' in-process
    // reports merged — not resynthesized, not rescaled.
    let reference = in_process(&config, 4);
    assert!(outcome.report.jobs_dispatched < reference.jobs_dispatched);
}

/// A hung worker is killed by the wall-clock timeout, classified as such,
/// and its retry still restores bit-identity.
#[test]
fn hang_is_classified_as_timeout_and_recovered() {
    let config = base_config(100);
    let mut spec = quick_spec(2);
    spec.timeout = Duration::from_secs(2);
    spec.injected.push(InjectedFault {
        shard: 0,
        fault: WorkerFaultPlan {
            hang: true,
            ..WorkerFaultPlan::default()
        },
        persistent: false,
    });
    let outcome = run_fabric(&config, &spec).unwrap();
    assert!(outcome.lost_shards.is_empty());
    assert!(outcome
        .attempts
        .iter()
        .any(|a| a.shard == 0 && matches!(a.failure, Some(WorkerFailure::Timeout))));
    assert_eq!(outcome.report, in_process(&config, 2));
}

/// A corrupted frame is caught by the checksum (classified as a frame
/// rejection, not an exit failure) and retried into a clean merge.
#[test]
fn corrupt_frame_is_rejected_by_checksum_and_recovered() {
    let config = base_config(100);
    let mut spec = quick_spec(2);
    spec.injected.push(InjectedFault {
        shard: 1,
        fault: WorkerFaultPlan {
            corrupt_frame: true,
            ..WorkerFaultPlan::default()
        },
        persistent: false,
    });
    let outcome = run_fabric(&config, &spec).unwrap();
    assert!(outcome.lost_shards.is_empty());
    assert!(outcome.attempts.iter().any(|a| a.shard == 1
        && matches!(
            &a.failure,
            Some(WorkerFailure::Frame(
                scd_sim::CodecError::ChecksumMismatch { .. }
            ))
        )));
    assert_eq!(outcome.report, in_process(&config, 2));
}

/// The checkpoint/resume invariant: a k=4 run whose shard crashes
/// mid-stream right after its second checkpoint, restarted **from that
/// checkpoint**, is bit-identical to the in-process `ShardedSimulation` —
/// and replays zero rounds, because the crash site and the resume point
/// coincide.
#[test]
fn crash_after_checkpoint_resumes_bit_identically() {
    let config = base_config(150);
    let mut spec = quick_spec(4);
    spec.checkpoint_every = 25;
    spec.injected.push(InjectedFault {
        shard: 1,
        fault: WorkerFaultPlan {
            fail_after_checkpoint: Some(2),
            ..WorkerFaultPlan::default()
        },
        persistent: false,
    });
    let outcome = run_fabric(&config, &spec).unwrap();
    assert!(outcome.lost_shards.is_empty(), "{:?}", outcome.lost_shards);
    // The mid-stream crash was observed and classified as the injected
    // exit...
    assert!(outcome.attempts.iter().any(|a| a.shard == 1
        && a.attempt == 0
        && matches!(a.failure, Some(WorkerFailure::NonZeroExit(Some(101))))));
    // ...the retry succeeded...
    assert!(outcome
        .attempts
        .iter()
        .any(|a| a.shard == 1 && a.attempt == 1 && a.failure.is_none()));
    // ...checkpoints streamed, and resuming exactly at the last verified
    // one re-executed nothing.
    assert!(outcome.checkpoints_taken > 0, "checkpoints streamed");
    assert_eq!(outcome.rounds_replayed, 0, "resume point == crash site");
    // Recovery left no trace in the merged statistics.
    assert_eq!(outcome.report, in_process(&config, 4));
    assert!(outcome.report.degradation.is_none(), "clean merge");
}

/// A checkpointing run with no faults is also bit-identical: streaming
/// progress/checkpoint pairs must not perturb the simulation itself.
#[test]
fn clean_checkpointing_run_matches_in_process() {
    let config = base_config(120);
    let mut spec = quick_spec(2);
    spec.checkpoint_every = 30;
    let outcome = run_fabric(&config, &spec).unwrap();
    assert!(outcome.lost_shards.is_empty());
    assert!(outcome.attempts.iter().all(|a| a.failure.is_none()));
    assert!(outcome.checkpoints_taken > 0);
    assert_eq!(outcome.rounds_replayed, 0);
    assert_eq!(outcome.report, in_process(&config, 2));
}

/// Exit code 3 (configuration rejected) is fatal for the shard: the
/// orchestrator must not retry a config that can never work. The fault is
/// injected non-persistently, so a retry *would* have succeeded — the
/// shard being lost proves no retry was launched.
#[test]
fn config_rejected_exit_is_not_retried() {
    let config = base_config(100);
    let mut spec = quick_spec(2);
    spec.max_retries = 3;
    spec.injected.push(InjectedFault {
        shard: 0,
        fault: WorkerFaultPlan {
            exit_code: Some(EXIT_CONFIG_REJECTED),
            ..WorkerFaultPlan::default()
        },
        persistent: false,
    });
    let outcome = run_fabric(&config, &spec).unwrap();
    assert_eq!(outcome.lost_shards, vec![0]);
    let shard0: Vec<_> = outcome.attempts.iter().filter(|a| a.shard == 0).collect();
    assert_eq!(shard0.len(), 1, "exactly one attempt, no retries");
    assert!(matches!(
        shard0[0].failure,
        Some(WorkerFailure::NonZeroExit(Some(EXIT_CONFIG_REJECTED)))
    ));
    let degradation = outcome.report.degradation.expect("partial merge");
    assert_eq!(degradation.shards_lost, 1);
}

/// Without `--checkpoint-every` a worker streams nothing but its result:
/// its entire stdout is **byte-for-byte** the final frame of the report the
/// in-process shard produces.
#[test]
fn worker_without_checkpoints_writes_exactly_one_final_frame() {
    use std::io::Write;
    let config = base_config(120);
    let k = 2;
    let sharded = ShardedSimulation::new(config.clone(), k).unwrap();
    let expected = sharded
        .run_shards(factory_by_name(POLICY).unwrap().as_ref(), 1)
        .unwrap();
    for (shard, expected_report) in expected.iter().enumerate() {
        let sub = sharded.shard_config(shard);
        let mut child = std::process::Command::new(worker())
            .args([
                "--shard",
                &shard.to_string(),
                "--shards",
                &k.to_string(),
                "--policy",
                POLICY,
                "--expect-seed",
                &sub.seed.to_string(),
                "--digest",
                &config.digest().to_string(),
            ])
            .stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::piped())
            .spawn()
            .unwrap();
        child
            .stdin
            .take()
            .unwrap()
            .write_all(sub.to_key_values().unwrap().as_bytes())
            .unwrap();
        let output = child.wait_with_output().unwrap();
        assert!(output.status.success());
        assert_eq!(
            output.stdout,
            encode_final_frame(expected_report).unwrap(),
            "shard {shard}: stdout is not exactly the final frame"
        );
    }
}

/// The worker's protocol exit codes on the real process boundary: garbage
/// configuration text exits 3, a resume request without the checkpoint
/// delimiter exits 4.
#[test]
fn worker_binary_exit_codes_classify_bad_stdin() {
    use std::io::Write;
    let spawn = |extra: &[&str], stdin_text: &str| {
        let mut child = std::process::Command::new(worker())
            .args([
                "--shard",
                "0",
                "--shards",
                "1",
                "--policy",
                POLICY,
                "--expect-seed",
                "1",
                "--digest",
                "1",
            ])
            .args(extra)
            .stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .unwrap();
        child
            .stdin
            .take()
            .unwrap()
            .write_all(stdin_text.as_bytes())
            .unwrap();
        child.wait_with_output().unwrap()
    };
    let garbage = spawn(&[], "this is not a configuration\n");
    assert_eq!(garbage.status.code(), Some(EXIT_CONFIG_REJECTED));
    let no_delimiter = spawn(&["--resume-from", "stdin"], "rounds = 10\n");
    assert_eq!(no_delimiter.status.code(), Some(EXIT_RESUME_REJECTED));
}

/// The `orchestrate` binary end to end: clean run and injected-fault run,
/// both `--verify-inprocess` (the CI smoke job runs the same commands).
#[test]
fn orchestrate_binary_verifies_against_the_in_process_engine() {
    let orchestrate = env!("CARGO_BIN_EXE_orchestrate");
    let run = |extra: &[&str]| {
        let mut cmd = std::process::Command::new(orchestrate);
        cmd.args([
            "--processes",
            "4",
            "--quick",
            "--rounds",
            "120",
            "--verify-inprocess",
            "--worker",
        ])
        .arg(env!("CARGO_BIN_EXE_shard_worker"))
        .args(extra);
        cmd.output().expect("orchestrate binary runs")
    };
    let clean = run(&[]);
    assert!(
        clean.status.success(),
        "clean orchestrate failed:\n{}{}",
        String::from_utf8_lossy(&clean.stdout),
        String::from_utf8_lossy(&clean.stderr)
    );
    let stdout = String::from_utf8_lossy(&clean.stdout);
    assert!(stdout.contains("bit-identical"), "{stdout}");

    let faulty = run(&[
        "--inject-crash",
        "1",
        "--inject-hang",
        "2",
        "--worker-timeout",
        "2000",
    ]);
    assert!(
        faulty.status.success(),
        "faulty orchestrate failed:\n{}{}",
        String::from_utf8_lossy(&faulty.stdout),
        String::from_utf8_lossy(&faulty.stderr)
    );
    let stdout = String::from_utf8_lossy(&faulty.stdout);
    assert!(stdout.contains("recovered"), "{stdout}");
    assert!(stdout.contains("bit-identical"), "{stdout}");

    // The kill-mid-run smoke: a checkpoint-streaming run whose shard dies
    // right after its first checkpoint, resumed from it, still verifies.
    let resumed = run(&[
        "--checkpoint-every",
        "25",
        "--inject-crash-after-checkpoint",
        "1",
    ]);
    assert!(
        resumed.status.success(),
        "checkpoint-resume orchestrate failed:\n{}{}",
        String::from_utf8_lossy(&resumed.stdout),
        String::from_utf8_lossy(&resumed.stderr)
    );
    let stdout = String::from_utf8_lossy(&resumed.stdout);
    assert!(stdout.contains("recovered"), "{stdout}");
    assert!(stdout.contains("checkpoints_taken"), "{stdout}");
    assert!(stdout.contains("bit-identical"), "{stdout}");
}
