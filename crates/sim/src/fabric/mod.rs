//! The fault-tolerant multi-process shard fabric.
//!
//! [`ShardedSimulation`](crate::ShardedSimulation) splits a run into `k`
//! independent sub-systems whose only cross-shard operation is the final
//! report merge. This module takes the next step: run those shards in
//! **separate OS processes** — supervised workers that can crash, hang, or
//! corrupt their output without taking the experiment down — and merge
//! whatever survives.
//!
//! Three layers, mirroring the classic supervisor tree:
//!
//! * [`codec`] — a versioned, length-prefixed, checksummed binary frame
//!   envelope whose kind byte selects `Progress` heartbeats, restartable
//!   `Checkpoint` state or the `Final`
//!   [`ShardReport`](crate::ShardReport). Everything a worker sends is either a provably intact frame or a
//!   classified rejection ([`CodecError`]); a torn pipe can never smuggle
//!   half a histogram — or half a checkpoint — into a run.
//! * [`worker`] — the in-process body of the `shard_worker` binary: parse
//!   one shard's configuration (the `key = value` wire form of
//!   [`SimConfig`](crate::SimConfig) on stdin), check it against the
//!   orchestrator's expectations (sub-master seed, config digest), run the
//!   shard, and stream frames on stdout — a progress/checkpoint pair every
//!   `R` rounds (`--checkpoint-every R`; none without the flag), then one
//!   final frame. `--resume-from stdin` restores a retained checkpoint and
//!   continues bit-identically.
//!   A deterministic [`WorkerFaultPlan`] injects crashes (including
//!   mid-stream, right after the N-th checkpoint), hangs and corruption
//!   for the fault-tolerance tests — the faults are part of the observable
//!   contract, not test-only hacks.
//! * [`orchestrator`] — spawn `k` workers, supervise them under a
//!   **heartbeat deadline** (the per-frame inter-arrival bound, which
//!   degenerates to a per-attempt wall clock when nothing but the final
//!   frame streams), classify every failure ([`WorkerFailure`]), retain each
//!   shard's last verified checkpoint, restart failed workers **from that
//!   checkpoint** — falling back to retry-from-seed when none exists or
//!   the worker refuses it — with seeded exponential backoff, and degrade
//!   to a **partial merge** (lost shards accounted in
//!   [`DegradationMetrics::shards_lost`](crate::DegradationMetrics)) when
//!   retries run out.
//!
//! # Determinism
//!
//! A shard's report is a pure function of its derived configuration, and
//! a checkpoint fully determines the remainder of a run (every RNG draw is
//! counter-mode in `(seed, stream, ids, round)`) — so a retried crash,
//! whether restarted from seed or resumed from a checkpoint, is
//! indistinguishable from a run that never crashed, and a clean or
//! recovered orchestrated run is **bit-identical** to the in-process
//! [`ShardedSimulation`](crate::ShardedSimulation) at the same `k` (pinned
//! by `crates/experiments/tests/fabric_e2e.rs`). Backoff jitter draws from
//! the dedicated `FABRIC_RETRY_STREAM_TAG` stream of
//! [`scd_model::streams`], so even the retry schedule is reproducible.

pub mod codec;
pub mod orchestrator;
pub mod worker;

pub use codec::{
    decode_frame, decode_shard_report, encode_checkpoint_frame, encode_final_frame,
    encode_progress_frame, peek_frame_len, CheckpointFrame, CodecError, Frame, FrameKind,
    ProgressFrame, FRAME_VERSION,
};
pub use orchestrator::{
    run_fabric, FabricOutcome, FabricSpec, InjectedFault, ShardAttempt, WorkerFailure,
    RESUME_DELIMITER,
};
pub use worker::{
    run_worker, WorkerFaultPlan, WorkerOutput, WorkerSpec, EXIT_CONFIG_REJECTED,
    EXIT_RESUME_REJECTED,
};
