//! The fabric frame codec: the only bytes that cross a fabric process
//! boundary.
//!
//! Every frame shares one envelope:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"SCDF"
//! 4       1     format version (FRAME_VERSION = 3)
//! 5       1     frame kind (1 = Progress, 2 = Checkpoint, 3 = Final)
//! 6       8     config digest (LE u64, SimConfig::digest of the base run)
//! 14      4     payload length (LE u32)
//! 18      len   payload (kind-specific, LE)
//! 18+len  8     FNV-1a 64 checksum (LE u64) over bytes 4 .. 18+len
//! ```
//!
//! The `Final` payload is the [`ShardReport`], field by field, recovery
//! counters (`checkpoints_taken`, `rounds_replayed`) included; `Progress`
//! carries a fixed-width heartbeat and `Checkpoint` an opaque serialized
//! [`EngineCheckpoint`](crate::checkpoint::EngineCheckpoint) blob. Worker
//! and orchestrator ship in one build, so the decoder speaks exactly the
//! version the encoder writes; earlier versions are refused.
//!
//! The payload encodes every field explicitly with the workspace's one
//! byte codec ([`scd_model::StateWriter`] / [`scd_model::StateReader`],
//! `u32` length prefixes) — counters and lengths as LE integers, floats by
//! their IEEE-754 bit patterns (`to_bits`/`from_bits`, so the
//! empty-histogram `±∞` sentinels and every shortest-repr-hostile value
//! survive verbatim), strings and bucket arrays length-prefixed,
//! `Option`s as a `0`/`1` tag byte. This module keeps what is the fabric's
//! own: the envelope, the checksum, and the one encoder of each metrics
//! type that both `Final` frames and engine checkpoints carry. Decoding is
//! **strict**: wrong magic, unknown version, bad checksum, truncated
//! input, trailing bytes, over-long declared lengths and histogram shapes
//! the metrics types reject all map to a distinct [`CodecError`] — the
//! orchestrator's failure classification is built directly on these.
//!
//! The checksum is FNV-1a 64: not cryptographic (the fabric trusts its own
//! workers; it defends against *torn pipes*, not adversaries), dependency-
//! free, and strong enough that the corruption-injection tests can flip
//! any single payload byte and be caught.

use crate::report::{DegradationMetrics, QueueSummary, SimReport};
use crate::shard::ShardReport;
use scd_metrics::{DecisionTimeHistogram, QueueLengthTracker, ResponseTimeHistogram};
use scd_model::{ByteError, StateReader, StateWriter};
use std::error::Error;
use std::fmt;

/// The 4-byte frame preamble.
pub const FRAME_MAGIC: [u8; 4] = *b"SCDF";

/// The frame-format version; bumped on any envelope or payload layout
/// change.
pub const FRAME_VERSION: u8 = 3;

/// Upper bound on a frame's declared payload length. The largest legal
/// payload (a saturated response-time histogram plus a decision-time
/// histogram) is under 9 MiB; anything claiming more is rejected before a
/// single payload byte is read, so a corrupt length field cannot trigger a
/// giant allocation.
pub const MAX_PAYLOAD_LEN: u32 = 32 << 20;

/// Why a byte sequence was rejected as a shard-report frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the decoder read everything it needed.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes the input actually held.
        got: usize,
    },
    /// The first four bytes are not [`FRAME_MAGIC`] — the stream does not
    /// carry a frame at all (e.g. a worker's stray print on stdout).
    BadMagic {
        /// The four bytes found instead.
        got: [u8; 4],
    },
    /// The version byte names a format this decoder does not speak.
    UnsupportedVersion {
        /// The version byte found.
        got: u8,
    },
    /// The kind byte names no known frame kind.
    UnknownKind {
        /// The kind byte found.
        got: u8,
    },
    /// The declared payload length exceeds [`MAX_PAYLOAD_LEN`].
    Oversized {
        /// The declared length.
        len: u32,
    },
    /// Frame bytes extend past the declared end — two concatenated frames,
    /// or garbage after a valid frame. One worker sends exactly one frame.
    TrailingBytes {
        /// Count of unexpected extra bytes.
        extra: usize,
    },
    /// The stored checksum does not match the received bytes.
    ChecksumMismatch {
        /// Checksum recomputed from the received bytes.
        computed: u64,
        /// Checksum stored in the frame.
        stored: u64,
    },
    /// The envelope was intact but the payload violates the layout (bad
    /// option tag, non-UTF-8 policy name, histogram shape rejected by the
    /// metrics types, …).
    Malformed(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { needed, got } => {
                write!(f, "truncated frame: needed {needed} bytes, got {got}")
            }
            CodecError::BadMagic { got } => {
                write!(
                    f,
                    "bad frame magic {got:02x?} (expected {FRAME_MAGIC:02x?})"
                )
            }
            CodecError::UnsupportedVersion { got } => {
                write!(
                    f,
                    "unsupported frame version {got} (this decoder speaks {FRAME_VERSION})"
                )
            }
            CodecError::UnknownKind { got } => {
                write!(f, "unknown frame kind byte {got}")
            }
            CodecError::Oversized { len } => {
                write!(
                    f,
                    "declared payload of {len} bytes exceeds the {MAX_PAYLOAD_LEN}-byte cap"
                )
            }
            CodecError::TrailingBytes { extra } => {
                write!(f, "{extra} unexpected bytes after the frame")
            }
            CodecError::ChecksumMismatch { computed, stored } => {
                write!(
                    f,
                    "checksum mismatch: frame stores {stored:#018x}, bytes hash to {computed:#018x}"
                )
            }
            CodecError::Malformed(msg) => write!(f, "malformed payload: {msg}"),
        }
    }
}

impl Error for CodecError {}

/// FNV-1a 64 over a byte slice — the frame's integrity check.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

impl From<ByteError> for CodecError {
    fn from(error: ByteError) -> Self {
        match error {
            ByteError::Truncated { needed, got } => CodecError::Truncated { needed, got },
            ByteError::Malformed(msg) => CodecError::Malformed(msg),
        }
    }
}

/// A response-time histogram: total, exact sum, dense bucket counts.
pub(crate) fn write_response_times(w: &mut StateWriter, hist: &ResponseTimeHistogram) {
    w.u64(hist.count());
    w.u128(hist.raw_sum());
    w.u64s(hist.bucket_counts());
}

/// The inverse of [`write_response_times`], validated by the metrics type.
pub(crate) fn read_response_times(
    r: &mut StateReader<'_>,
) -> Result<ResponseTimeHistogram, CodecError> {
    let total = r.u64()?;
    let sum = r.u128()?;
    let counts = r.u64s()?;
    ResponseTimeHistogram::from_raw_parts(counts, total, sum).map_err(CodecError::Malformed)
}

/// An optional decision-time histogram: the option flag, then count, sum,
/// min, max (raw sentinels included) and the bucket counts.
pub(crate) fn write_decision_times(w: &mut StateWriter, hist: Option<&DecisionTimeHistogram>) {
    w.flag(hist.is_some());
    if let Some(hist) = hist {
        let (count, sum, min, max) = hist.raw_parts();
        w.u64(count);
        w.f64(sum);
        w.f64(min);
        w.f64(max);
        w.u64s(hist.bucket_counts());
    }
}

/// The inverse of [`write_decision_times`], validated by the metrics type.
pub(crate) fn read_decision_times(
    r: &mut StateReader<'_>,
) -> Result<Option<DecisionTimeHistogram>, CodecError> {
    if !r.flag()? {
        return Ok(None);
    }
    let parts = (r.u64()?, r.f64()?, r.f64()?, r.f64()?);
    let counts = r.u64s()?;
    DecisionTimeHistogram::from_raw_parts(counts, parts)
        .map(Some)
        .map_err(CodecError::Malformed)
}

/// The ten degradation counters, in declaration order.
pub(crate) fn write_degradation(w: &mut StateWriter, d: &DegradationMetrics) {
    for v in [
        d.server_down_rounds,
        d.dispatcher_offline_rounds,
        d.arrivals_lost,
        d.probes_dropped,
        d.stale_decision_rounds,
        d.herding_rounds,
        d.shards_lost,
        d.rounds_lost,
        d.checkpoints_taken,
        d.rounds_replayed,
    ] {
        w.u64(v);
    }
}

/// The inverse of [`write_degradation`].
pub(crate) fn read_degradation(r: &mut StateReader<'_>) -> Result<DegradationMetrics, ByteError> {
    Ok(DegradationMetrics {
        server_down_rounds: r.u64()?,
        dispatcher_offline_rounds: r.u64()?,
        arrivals_lost: r.u64()?,
        probes_dropped: r.u64()?,
        stale_decision_rounds: r.u64()?,
        herding_rounds: r.u64()?,
        shards_lost: r.u64()?,
        rounds_lost: r.u64()?,
        checkpoints_taken: r.u64()?,
        rounds_replayed: r.u64()?,
    })
}

/// A queue-length tracker. The server count precedes the per-server
/// vectors, whose lengths the decoder checks against it.
pub(crate) fn write_tracker(w: &mut StateWriter, tracker: &QueueLengthTracker) {
    let (num_servers, sums, maxes, idle, occupancy, total_sum, total_max, rounds) =
        tracker.raw_parts();
    w.len(num_servers);
    w.seq(sums, |w, &sum| w.u128(sum));
    w.u64s(maxes);
    w.u64s(idle);
    w.u64s(occupancy);
    w.u128(total_sum);
    w.u64(total_max);
    w.u64(rounds);
}

/// The inverse of [`write_tracker`], validated by the metrics type.
pub(crate) fn read_tracker(r: &mut StateReader<'_>) -> Result<QueueLengthTracker, CodecError> {
    QueueLengthTracker::from_raw_parts(
        r.usize()?,
        r.seq(StateReader::u128)?,
        r.u64s()?,
        r.u64s()?,
        r.u64s()?,
        r.u128()?,
        r.u64()?,
        r.u64()?,
    )
    .map_err(CodecError::Malformed)
}

/// The three kinds a frame can carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// A liveness heartbeat: the worker is alive and at a given round.
    Progress = 1,
    /// A serialized [`EngineCheckpoint`](crate::checkpoint::EngineCheckpoint)
    /// the orchestrator can restart the shard from.
    Checkpoint = 2,
    /// The shard's final [`ShardReport`].
    Final = 3,
}

impl FrameKind {
    fn from_byte(b: u8) -> Result<Self, CodecError> {
        match b {
            1 => Ok(FrameKind::Progress),
            2 => Ok(FrameKind::Checkpoint),
            3 => Ok(FrameKind::Final),
            got => Err(CodecError::UnknownKind { got }),
        }
    }
}

/// A heartbeat: emitted by a worker at every checkpoint boundary so the
/// orchestrator's liveness deadline measures *progress*, not wall clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgressFrame {
    /// This worker's shard index.
    pub shard: u32,
    /// Total shards in the plan.
    pub num_shards: u32,
    /// Digest of the base (unsharded) `SimConfig`.
    pub config_digest: u64,
    /// The next round the worker is about to execute.
    pub round: u64,
    /// Total rounds in the run, so consumers can render progress.
    pub rounds_total: u64,
    /// Jobs dispatched so far on this shard.
    pub jobs_dispatched: u64,
}

/// A checkpoint frame: an opaque serialized engine checkpoint, retained
/// by the orchestrator and shipped back to a replacement worker on retry.
///
/// The envelope checksum is the orchestrator's verification; the blob is
/// only decoded by the worker that resumes from it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointFrame {
    /// This worker's shard index.
    pub shard: u32,
    /// Total shards in the plan.
    pub num_shards: u32,
    /// Digest of the base (unsharded) `SimConfig`.
    pub config_digest: u64,
    /// The serialized [`EngineCheckpoint`](crate::checkpoint::EngineCheckpoint).
    pub state: Vec<u8>,
}

/// One decoded fabric frame.
// The size skew is deliberate: exactly one `Final` is decoded per worker
// attempt, so boxing it would tax the common (streaming) path's match arms
// for no allocation win.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// A worker heartbeat.
    Progress(ProgressFrame),
    /// A restartable engine checkpoint.
    Checkpoint(CheckpointFrame),
    /// The shard's final report.
    Final(ShardReport),
}

fn encode_payload(report: &ShardReport) -> Result<Vec<u8>, CodecError> {
    let mut w = StateWriter::with_u32_lengths();
    w.len(report.shard);
    w.len(report.num_shards);
    w.len(report.num_servers);
    let r = &report.report;
    w.blob(r.policy.as_bytes());
    w.u64(r.rounds);
    w.u64(r.warmup_rounds);
    w.f64(r.offered_load);
    w.u64(r.jobs_dispatched);
    w.u64(r.jobs_completed);
    w.u64(r.jobs_in_flight);
    write_response_times(&mut w, &r.response_times);
    w.f64(r.queues.mean_total_backlog);
    w.f64(r.queues.max_total_backlog);
    w.f64(r.queues.worst_mean_queue);
    w.f64(r.queues.mean_idle_fraction);
    w.u64s(&r.queue_occupancy);
    write_decision_times(&mut w, r.decision_times_us.as_ref());
    w.flag(r.degradation.is_some());
    if let Some(d) = &r.degradation {
        write_degradation(&mut w, d);
    }
    Ok(w.finish()?)
}

fn decode_payload(payload: &[u8], config_digest: u64) -> Result<ShardReport, CodecError> {
    let mut r = StateReader::with_u32_lengths(payload);
    let shard = r.usize()?;
    let num_shards = r.usize()?;
    let num_servers = r.usize()?;
    let policy = String::from_utf8(r.blob()?.to_vec())
        .map_err(|_| CodecError::Malformed("policy name is not UTF-8".into()))?;
    let rounds = r.u64()?;
    let warmup_rounds = r.u64()?;
    let offered_load = r.f64()?;
    let jobs_dispatched = r.u64()?;
    let jobs_completed = r.u64()?;
    let jobs_in_flight = r.u64()?;
    let response_times = read_response_times(&mut r)?;
    let queues = QueueSummary {
        mean_total_backlog: r.f64()?,
        max_total_backlog: r.f64()?,
        worst_mean_queue: r.f64()?,
        mean_idle_fraction: r.f64()?,
    };
    let queue_occupancy = r.u64s()?;
    let decision_times_us = read_decision_times(&mut r)?;
    let degradation = if r.flag()? {
        Some(read_degradation(&mut r)?)
    } else {
        None
    };
    r.finish()?;
    Ok(ShardReport {
        shard,
        num_shards,
        num_servers,
        config_digest,
        report: SimReport {
            policy,
            rounds,
            warmup_rounds,
            offered_load,
            jobs_dispatched,
            jobs_completed,
            jobs_in_flight,
            response_times,
            queues,
            queue_occupancy,
            decision_times_us,
            degradation,
        },
    })
}

/// Fixed header length of a frame (magic, version, kind, digest, len).
pub(crate) const HEADER_LEN: usize = 4 + 1 + 1 + 8 + 4;

/// Wraps a payload in a complete frame: header, payload, checksum.
fn seal_frame(kind: FrameKind, digest: u64, payload: Vec<u8>) -> Result<Vec<u8>, CodecError> {
    if payload.len() > MAX_PAYLOAD_LEN as usize {
        return Err(CodecError::Oversized {
            len: u32::try_from(payload.len()).unwrap_or(u32::MAX),
        });
    }
    let mut frame = Vec::with_capacity(HEADER_LEN + payload.len() + 8);
    frame.extend_from_slice(&FRAME_MAGIC);
    frame.push(FRAME_VERSION);
    frame.push(kind as u8);
    frame.extend_from_slice(&digest.to_le_bytes());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&payload);
    let checksum = fnv1a64(&frame[4..]);
    frame.extend_from_slice(&checksum.to_le_bytes());
    Ok(frame)
}

/// Encodes one [`ShardReport`] into a `Final` frame, recovery counters
/// included. The header digest is the report's own
/// [`config_digest`](ShardReport::config_digest).
///
/// # Errors
/// Returns [`CodecError::Malformed`] only if a length field exceeds the
/// u32 wire width — impossible for reports produced by the engine.
pub fn encode_final_frame(report: &ShardReport) -> Result<Vec<u8>, CodecError> {
    seal_frame(
        FrameKind::Final,
        report.config_digest,
        encode_payload(report)?,
    )
}

/// Encodes a heartbeat into a `Progress` frame.
///
/// # Errors
/// Infallible in practice; the signature matches its siblings.
pub fn encode_progress_frame(progress: &ProgressFrame) -> Result<Vec<u8>, CodecError> {
    let mut w = StateWriter::with_u32_lengths();
    w.u32(progress.shard);
    w.u32(progress.num_shards);
    w.u64(progress.round);
    w.u64(progress.rounds_total);
    w.u64(progress.jobs_dispatched);
    seal_frame(FrameKind::Progress, progress.config_digest, w.finish()?)
}

/// Encodes a serialized engine checkpoint into a `Checkpoint` frame.
///
/// # Errors
/// Returns [`CodecError::Oversized`] if the state blob exceeds
/// [`MAX_PAYLOAD_LEN`], or [`CodecError::Malformed`] if it is empty —
/// the decoder rejects stateless checkpoints, so refusing to build one
/// keeps the failure at the producer, where it is debuggable.
pub fn encode_checkpoint_frame(checkpoint: &CheckpointFrame) -> Result<Vec<u8>, CodecError> {
    if checkpoint.state.is_empty() {
        return Err(CodecError::Malformed(
            "refusing to encode a checkpoint frame with no state".into(),
        ));
    }
    let mut w = StateWriter::with_u32_lengths();
    w.u32(checkpoint.shard);
    w.u32(checkpoint.num_shards);
    w.bytes(&checkpoint.state);
    seal_frame(FrameKind::Checkpoint, checkpoint.config_digest, w.finish()?)
}

/// Checks the envelope fields a frame prefix exposes — magic, version and
/// kind, as far as `bytes` reaches — and returns the kind once readable.
/// Shared by [`open_frame`] and [`peek_frame_len`], so a stream reader and
/// the strict decoder classify a bad header identically.
fn check_header(bytes: &[u8]) -> Result<Option<FrameKind>, CodecError> {
    if bytes.len() >= 4 {
        let magic: [u8; 4] = bytes[0..4].try_into().expect("4 bytes");
        if magic != FRAME_MAGIC {
            return Err(CodecError::BadMagic { got: magic });
        }
    }
    match bytes.get(4) {
        Some(&FRAME_VERSION) | None => {}
        Some(&got) => return Err(CodecError::UnsupportedVersion { got }),
    }
    bytes.get(5).map(|&b| FrameKind::from_byte(b)).transpose()
}

/// The payload length a complete header declares, refusing oversized
/// declarations before a single payload byte is awaited or read.
fn declared_payload_len(header: &[u8]) -> Result<usize, CodecError> {
    let len = u32::from_le_bytes(header[14..HEADER_LEN].try_into().expect("4 bytes"));
    if len > MAX_PAYLOAD_LEN {
        return Err(CodecError::Oversized { len });
    }
    Ok(len as usize)
}

/// Splits a validated envelope into its parts: the frame kind, config
/// digest, and payload slice.
fn open_frame(bytes: &[u8]) -> Result<(FrameKind, u64, &[u8]), CodecError> {
    if bytes.len() < HEADER_LEN {
        return Err(CodecError::Truncated {
            needed: HEADER_LEN,
            got: bytes.len(),
        });
    }
    let kind = check_header(bytes)?.expect("a complete header carries a kind byte");
    let config_digest = u64::from_le_bytes(bytes[6..14].try_into().expect("8 bytes"));
    let frame_len = HEADER_LEN + declared_payload_len(bytes)? + 8;
    if bytes.len() < frame_len {
        return Err(CodecError::Truncated {
            needed: frame_len,
            got: bytes.len(),
        });
    }
    if bytes.len() > frame_len {
        return Err(CodecError::TrailingBytes {
            extra: bytes.len() - frame_len,
        });
    }
    let stored = u64::from_le_bytes(bytes[frame_len - 8..frame_len].try_into().expect("8 bytes"));
    let computed = fnv1a64(&bytes[4..frame_len - 8]);
    if computed != stored {
        return Err(CodecError::ChecksumMismatch { computed, stored });
    }
    Ok((kind, config_digest, &bytes[HEADER_LEN..frame_len - 8]))
}

/// Inspects a (possibly incomplete) frame prefix and reports the total
/// frame length once the header is readable. Returns `Ok(None)` while the
/// prefix is too short to know; envelope violations visible in the prefix
/// (bad magic, unknown version or kind, oversized declared length) are
/// rejected immediately, so a stream reader fails fast instead of waiting
/// on garbage.
///
/// # Errors
/// [`CodecError::BadMagic`], [`CodecError::UnsupportedVersion`],
/// [`CodecError::UnknownKind`] or [`CodecError::Oversized`].
pub fn peek_frame_len(bytes: &[u8]) -> Result<Option<usize>, CodecError> {
    check_header(bytes)?;
    if bytes.len() < HEADER_LEN {
        return Ok(None);
    }
    Ok(Some(HEADER_LEN + declared_payload_len(bytes)? + 8))
}

/// Decodes one complete frame, verifying magic, version, kind, declared
/// length, checksum and payload layout. Strict: the slice must contain
/// exactly one frame and nothing else.
///
/// # Errors
/// Every rejection is a distinct [`CodecError`] variant; see the type.
pub fn decode_frame(bytes: &[u8]) -> Result<Frame, CodecError> {
    let (kind, config_digest, payload) = open_frame(bytes)?;
    match kind {
        FrameKind::Final => Ok(Frame::Final(decode_payload(payload, config_digest)?)),
        FrameKind::Progress => {
            let mut r = StateReader::with_u32_lengths(payload);
            let frame = ProgressFrame {
                shard: r.u32()?,
                num_shards: r.u32()?,
                config_digest,
                round: r.u64()?,
                rounds_total: r.u64()?,
                jobs_dispatched: r.u64()?,
            };
            r.finish()?;
            Ok(Frame::Progress(frame))
        }
        FrameKind::Checkpoint => {
            let mut r = StateReader::with_u32_lengths(payload);
            let shard = r.u32()?;
            let num_shards = r.u32()?;
            let state = r.take(r.remaining())?.to_vec();
            if state.is_empty() {
                return Err(CodecError::Malformed(
                    "checkpoint frame carries no state".into(),
                ));
            }
            Ok(Frame::Checkpoint(CheckpointFrame {
                shard,
                num_shards,
                config_digest,
                state,
            }))
        }
    }
}

/// Decodes one complete `Final` frame back into a [`ShardReport`]; a
/// `Progress` or `Checkpoint` frame is rejected as
/// [`CodecError::Malformed`].
///
/// # Errors
/// Every rejection is a distinct [`CodecError`] variant; see the type.
pub fn decode_shard_report(bytes: &[u8]) -> Result<ShardReport, CodecError> {
    match decode_frame(bytes)? {
        Frame::Final(report) => Ok(report),
        Frame::Progress(_) => Err(CodecError::Malformed(
            "expected a final-report frame, got a progress heartbeat".into(),
        )),
        Frame::Checkpoint(_) => Err(CodecError::Malformed(
            "expected a final-report frame, got a checkpoint".into(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report(shard: usize) -> ShardReport {
        let mut hist = ResponseTimeHistogram::new();
        for rt in [1u64, 2, 2, 7, 900] {
            hist.record(rt);
        }
        let mut decisions = DecisionTimeHistogram::new();
        decisions.record(0.25);
        decisions.record(1500.0);
        ShardReport {
            shard,
            num_shards: 4,
            num_servers: 16,
            config_digest: 0x0123_4567_89AB_CDEF,
            report: SimReport {
                policy: "SCD".into(),
                rounds: 400,
                warmup_rounds: 50,
                offered_load: 0.85,
                jobs_dispatched: 1000,
                jobs_completed: 995,
                jobs_in_flight: 5,
                response_times: hist,
                queues: QueueSummary {
                    mean_total_backlog: 4.25,
                    max_total_backlog: 19.0,
                    worst_mean_queue: 2.5,
                    mean_idle_fraction: 0.125,
                },
                queue_occupancy: vec![200, 120, 55, 0, u64::MAX],
                decision_times_us: Some(decisions),
                degradation: Some(DegradationMetrics {
                    server_down_rounds: 3,
                    rounds_lost: u64::MAX,
                    ..DegradationMetrics::default()
                }),
            },
        }
    }

    #[test]
    fn frame_round_trips_bit_for_bit() {
        let report = sample_report(2);
        let frame = encode_final_frame(&report).unwrap();
        assert_eq!(decode_shard_report(&frame).unwrap(), report);
    }

    #[test]
    fn every_truncation_is_rejected() {
        let frame = encode_final_frame(&sample_report(0)).unwrap();
        for len in 0..frame.len() {
            let err = decode_shard_report(&frame[..len]).unwrap_err();
            assert!(
                matches!(err, CodecError::Truncated { .. } | CodecError::Malformed(_)),
                "prefix of {len} bytes gave {err}"
            );
        }
    }

    #[test]
    fn any_single_flipped_payload_byte_is_caught() {
        let frame = encode_final_frame(&sample_report(1)).unwrap();
        // Flip one bit in every payload byte (skip the magic: flipping it
        // is a BadMagic, tested separately).
        for i in 4..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x40;
            assert!(
                decode_shard_report(&bad).is_err(),
                "flipped byte {i} went undetected"
            );
        }
    }

    #[test]
    fn envelope_violations_are_classified() {
        let frame = encode_final_frame(&sample_report(3)).unwrap();
        let mut wrong_magic = frame.clone();
        wrong_magic[0] = b'X';
        assert!(matches!(
            decode_shard_report(&wrong_magic).unwrap_err(),
            CodecError::BadMagic { .. }
        ));
        let mut wrong_version = frame.clone();
        wrong_version[4] = FRAME_VERSION + 1;
        assert!(matches!(
            decode_shard_report(&wrong_version).unwrap_err(),
            CodecError::UnsupportedVersion { got } if got == FRAME_VERSION + 1
        ));
        // Version 2 — the retired single-report envelope — is refused too.
        let mut retired = frame.clone();
        retired[4] = 2;
        assert!(matches!(
            decode_shard_report(&retired).unwrap_err(),
            CodecError::UnsupportedVersion { got: 2 }
        ));
        let mut oversized = frame.clone();
        oversized[14..18].copy_from_slice(&(MAX_PAYLOAD_LEN + 1).to_le_bytes());
        assert!(matches!(
            decode_shard_report(&oversized).unwrap_err(),
            CodecError::Oversized { .. }
        ));
        let mut trailing = frame.clone();
        trailing.push(0);
        assert!(matches!(
            decode_shard_report(&trailing).unwrap_err(),
            CodecError::TrailingBytes { extra: 1 }
        ));
        let mut corrupt = frame;
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0xFF;
        assert!(matches!(
            decode_shard_report(&corrupt).unwrap_err(),
            CodecError::ChecksumMismatch { .. } | CodecError::Malformed(_)
        ));
    }

    fn sample_report_with_recovery(shard: usize) -> ShardReport {
        let mut report = sample_report(shard);
        let d = report.report.degradation.as_mut().unwrap();
        d.checkpoints_taken = 7;
        d.rounds_replayed = 123;
        report
    }

    #[test]
    fn v3_final_frame_round_trips_recovery_counters() {
        let report = sample_report_with_recovery(2);
        let frame = encode_final_frame(&report).unwrap();
        assert_eq!(frame[4], FRAME_VERSION);
        assert_eq!(frame[5], FrameKind::Final as u8);
        assert_eq!(decode_frame(&frame).unwrap(), Frame::Final(report.clone()));
        assert_eq!(decode_shard_report(&frame).unwrap(), report);
    }

    #[test]
    fn progress_and_checkpoint_frames_round_trip() {
        let progress = ProgressFrame {
            shard: 3,
            num_shards: 4,
            config_digest: 0xDEAD_BEEF,
            round: 250,
            rounds_total: 1000,
            jobs_dispatched: 4321,
        };
        let frame = encode_progress_frame(&progress).unwrap();
        assert_eq!(decode_frame(&frame).unwrap(), Frame::Progress(progress));

        let checkpoint = CheckpointFrame {
            shard: 1,
            num_shards: 4,
            config_digest: 0xDEAD_BEEF,
            state: (0..=255u8).collect(),
        };
        let frame = encode_checkpoint_frame(&checkpoint).unwrap();
        assert_eq!(decode_frame(&frame).unwrap(), Frame::Checkpoint(checkpoint));
    }

    #[test]
    fn decode_shard_report_rejects_non_final_kinds() {
        let progress = ProgressFrame {
            shard: 0,
            num_shards: 1,
            config_digest: 9,
            round: 1,
            rounds_total: 2,
            jobs_dispatched: 3,
        };
        let frame = encode_progress_frame(&progress).unwrap();
        assert!(matches!(
            decode_shard_report(&frame).unwrap_err(),
            CodecError::Malformed(_)
        ));
    }

    #[test]
    fn unknown_kind_bytes_are_classified() {
        let checkpoint = CheckpointFrame {
            shard: 0,
            num_shards: 1,
            config_digest: 9,
            state: vec![1, 2, 3],
        };
        let mut frame = encode_checkpoint_frame(&checkpoint).unwrap();
        frame[5] = 77;
        assert!(matches!(
            decode_frame(&frame).unwrap_err(),
            CodecError::UnknownKind { got: 77 }
        ));
        assert!(matches!(
            peek_frame_len(&frame).unwrap_err(),
            CodecError::UnknownKind { got: 77 }
        ));
    }

    #[test]
    fn every_v3_truncation_and_payload_flip_is_rejected() {
        let frame = encode_final_frame(&sample_report_with_recovery(3)).unwrap();
        for len in 0..frame.len() {
            let err = decode_frame(&frame[..len]).unwrap_err();
            assert!(
                matches!(err, CodecError::Truncated { .. } | CodecError::Malformed(_)),
                "prefix of {len} bytes gave {err}"
            );
        }
        for i in 4..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x40;
            assert!(decode_frame(&bad).is_err(), "flipped byte {i} undetected");
        }
    }

    #[test]
    fn peek_frame_len_is_incremental_and_fails_fast() {
        let progress = ProgressFrame {
            shard: 0,
            num_shards: 2,
            config_digest: 1,
            round: 10,
            rounds_total: 20,
            jobs_dispatched: 30,
        };
        for frame in [
            encode_progress_frame(&progress).unwrap(),
            encode_final_frame(&sample_report(0)).unwrap(),
        ] {
            for len in 0..frame.len() {
                match peek_frame_len(&frame[..len]).unwrap() {
                    Some(total) => assert_eq!(total, frame.len()),
                    None => assert!(len < 18, "header readable at {len} but peek deferred"),
                }
            }
            assert_eq!(peek_frame_len(&frame).unwrap(), Some(frame.len()));
        }
        assert!(matches!(
            peek_frame_len(b"XCDF....").unwrap_err(),
            CodecError::BadMagic { .. }
        ));
        assert!(matches!(
            peek_frame_len(&[b'S', b'C', b'D', b'F', 99]).unwrap_err(),
            CodecError::UnsupportedVersion { got: 99 }
        ));
    }
}
