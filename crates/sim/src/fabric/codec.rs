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
//! The payload encodes every field explicitly — counters and lengths as
//! LE integers, floats by their IEEE-754 bit patterns (`to_bits`/
//! `from_bits`, so the empty-histogram `±∞` sentinels and every
//! shortest-repr-hostile value survive verbatim), strings and bucket
//! arrays length-prefixed, `Option`s as a `0`/`1` tag byte. Decoding is
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

/// Little-endian payload writer, shared with the engine-checkpoint
/// serializer in [`crate::checkpoint`]; it also holds the one encoder of
/// each metrics type both payloads carry.
pub(crate) struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    pub(crate) fn new() -> Self {
        ByteWriter { buf: Vec::new() }
    }

    /// Consumes the writer, yielding the accumulated bytes.
    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// `usize` narrowed to the wire's u32; all encoded quantities (shard
    /// indices, bucket counts, name lengths) are far below `u32::MAX`.
    pub(crate) fn len(&mut self, v: usize) -> Result<(), CodecError> {
        let v = u32::try_from(v)
            .map_err(|_| CodecError::Malformed(format!("length {v} exceeds the u32 wire width")))?;
        self.u32(v);
        Ok(())
    }

    pub(crate) fn str(&mut self, s: &str) -> Result<(), CodecError> {
        self.len(s.len())?;
        self.buf.extend_from_slice(s.as_bytes());
        Ok(())
    }

    pub(crate) fn counts(&mut self, counts: &[u64]) -> Result<(), CodecError> {
        self.len(counts.len())?;
        for &c in counts {
            self.u64(c);
        }
        Ok(())
    }

    pub(crate) fn bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// A response-time histogram: total, exact sum, dense bucket counts.
    pub(crate) fn response_times(
        &mut self,
        hist: &ResponseTimeHistogram,
    ) -> Result<(), CodecError> {
        self.u64(hist.count());
        self.u128(hist.raw_sum());
        self.counts(hist.bucket_counts())
    }

    /// An optional decision-time histogram: the option tag, then count,
    /// sum, min, max (raw sentinels included) and the bucket counts.
    pub(crate) fn decision_times(
        &mut self,
        hist: Option<&DecisionTimeHistogram>,
    ) -> Result<(), CodecError> {
        let Some(hist) = hist else {
            self.u8(0);
            return Ok(());
        };
        self.u8(1);
        let (count, sum, min, max) = hist.raw_parts();
        self.u64(count);
        self.f64(sum);
        self.f64(min);
        self.f64(max);
        self.counts(hist.bucket_counts())
    }

    /// The ten degradation counters, in declaration order.
    pub(crate) fn degradation(&mut self, d: &DegradationMetrics) {
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
            self.u64(v);
        }
    }

    /// A queue-length tracker. The server count precedes the per-server
    /// vectors, whose lengths the decoder checks against it.
    pub(crate) fn tracker(&mut self, tracker: &QueueLengthTracker) -> Result<(), CodecError> {
        let (num_servers, sums, maxes, idle, occupancy, total_sum, total_max, rounds) =
            tracker.raw_parts();
        self.len(num_servers)?;
        self.len(sums.len())?;
        for &sum in sums {
            self.u128(sum);
        }
        self.counts(maxes)?;
        self.counts(idle)?;
        self.counts(occupancy)?;
        self.u128(total_sum);
        self.u64(total_max);
        self.u64(rounds);
        Ok(())
    }
}

/// Little-endian payload reader over a borrowed slice, shared with
/// [`crate::checkpoint`]; it also holds the one decoder of each metrics
/// type, which validates what it decodes through the metrics type.
pub(crate) struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        ByteReader { bytes, pos: 0 }
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).ok_or(CodecError::Truncated {
            needed: usize::MAX,
            got: self.bytes.len(),
        })?;
        if end > self.bytes.len() {
            return Err(CodecError::Truncated {
                needed: end,
                got: self.bytes.len(),
            });
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    pub(crate) fn u128(&mut self) -> Result<u128, CodecError> {
        Ok(u128::from_le_bytes(
            self.take(16)?.try_into().expect("16 bytes"),
        ))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub(crate) fn len(&mut self) -> Result<usize, CodecError> {
        Ok(self.u32()? as usize)
    }

    pub(crate) fn str(&mut self) -> Result<String, CodecError> {
        let len = self.len()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| CodecError::Malformed("policy name is not UTF-8".into()))
    }

    pub(crate) fn counts(&mut self) -> Result<Vec<u64>, CodecError> {
        let len = self.len()?;
        // The envelope already bounds the payload, so `len` can at worst
        // overstate what is left in the slice — caught by `take`.
        let mut out = Vec::with_capacity(len.min(self.bytes.len() / 8 + 1));
        for _ in 0..len {
            out.push(self.u64()?);
        }
        Ok(out)
    }

    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// An option tag byte: `0` is absent, `1` present, anything else is
    /// malformed (`what` names the option in the error).
    pub(crate) fn flag(&mut self, what: &str) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(CodecError::Malformed(format!(
                "{what} option tag must be 0 or 1, got {tag}"
            ))),
        }
    }

    /// The inverse of [`ByteWriter::response_times`].
    pub(crate) fn response_times(&mut self) -> Result<ResponseTimeHistogram, CodecError> {
        let total = self.u64()?;
        let sum = self.u128()?;
        let counts = self.counts()?;
        ResponseTimeHistogram::from_raw_parts(counts, total, sum).map_err(CodecError::Malformed)
    }

    /// The inverse of [`ByteWriter::decision_times`].
    pub(crate) fn decision_times(&mut self) -> Result<Option<DecisionTimeHistogram>, CodecError> {
        if !self.flag("decision-time")? {
            return Ok(None);
        }
        let parts = (self.u64()?, self.f64()?, self.f64()?, self.f64()?);
        let counts = self.counts()?;
        DecisionTimeHistogram::from_raw_parts(counts, parts)
            .map(Some)
            .map_err(CodecError::Malformed)
    }

    /// The inverse of [`ByteWriter::degradation`].
    pub(crate) fn degradation(&mut self) -> Result<DegradationMetrics, CodecError> {
        Ok(DegradationMetrics {
            server_down_rounds: self.u64()?,
            dispatcher_offline_rounds: self.u64()?,
            arrivals_lost: self.u64()?,
            probes_dropped: self.u64()?,
            stale_decision_rounds: self.u64()?,
            herding_rounds: self.u64()?,
            shards_lost: self.u64()?,
            rounds_lost: self.u64()?,
            checkpoints_taken: self.u64()?,
            rounds_replayed: self.u64()?,
        })
    }

    /// The inverse of [`ByteWriter::tracker`].
    pub(crate) fn tracker(&mut self) -> Result<QueueLengthTracker, CodecError> {
        let num_servers = self.len()?;
        let num_sums = self.len()?;
        let mut sums = Vec::with_capacity(num_sums.min(self.remaining() / 16));
        for _ in 0..num_sums {
            sums.push(self.u128()?);
        }
        QueueLengthTracker::from_raw_parts(
            num_servers,
            sums,
            self.counts()?,
            self.counts()?,
            self.counts()?,
            self.u128()?,
            self.u64()?,
            self.u64()?,
        )
        .map_err(CodecError::Malformed)
    }
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
    let mut w = ByteWriter::new();
    w.len(report.shard)?;
    w.len(report.num_shards)?;
    w.len(report.num_servers)?;
    let r = &report.report;
    w.str(&r.policy)?;
    w.u64(r.rounds);
    w.u64(r.warmup_rounds);
    w.f64(r.offered_load);
    w.u64(r.jobs_dispatched);
    w.u64(r.jobs_completed);
    w.u64(r.jobs_in_flight);
    w.response_times(&r.response_times)?;
    w.f64(r.queues.mean_total_backlog);
    w.f64(r.queues.max_total_backlog);
    w.f64(r.queues.worst_mean_queue);
    w.f64(r.queues.mean_idle_fraction);
    w.counts(&r.queue_occupancy)?;
    w.decision_times(r.decision_times_us.as_ref())?;
    match &r.degradation {
        None => w.u8(0),
        Some(d) => {
            w.u8(1);
            w.degradation(d);
        }
    }
    Ok(w.into_bytes())
}

fn decode_payload(payload: &[u8], config_digest: u64) -> Result<ShardReport, CodecError> {
    let mut r = ByteReader::new(payload);
    let shard = r.len()?;
    let num_shards = r.len()?;
    let num_servers = r.len()?;
    let policy = r.str()?;
    let rounds = r.u64()?;
    let warmup_rounds = r.u64()?;
    let offered_load = r.f64()?;
    let jobs_dispatched = r.u64()?;
    let jobs_completed = r.u64()?;
    let jobs_in_flight = r.u64()?;
    let response_times = r.response_times()?;
    let queues = QueueSummary {
        mean_total_backlog: r.f64()?,
        max_total_backlog: r.f64()?,
        worst_mean_queue: r.f64()?,
        mean_idle_fraction: r.f64()?,
    };
    let queue_occupancy = r.counts()?;
    let decision_times_us = r.decision_times()?;
    let degradation = if r.flag("degradation")? {
        Some(r.degradation()?)
    } else {
        None
    };
    if r.remaining() != 0 {
        return Err(CodecError::Malformed(format!(
            "{} unread bytes after the last payload field",
            r.remaining()
        )));
    }
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
    let mut w = ByteWriter::new();
    w.u32(progress.shard);
    w.u32(progress.num_shards);
    w.u64(progress.round);
    w.u64(progress.rounds_total);
    w.u64(progress.jobs_dispatched);
    seal_frame(FrameKind::Progress, progress.config_digest, w.into_bytes())
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
    let mut w = ByteWriter::new();
    w.u32(checkpoint.shard);
    w.u32(checkpoint.num_shards);
    w.bytes(&checkpoint.state);
    seal_frame(
        FrameKind::Checkpoint,
        checkpoint.config_digest,
        w.into_bytes(),
    )
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
            let mut r = ByteReader::new(payload);
            let frame = ProgressFrame {
                shard: r.u32()?,
                num_shards: r.u32()?,
                config_digest,
                round: r.u64()?,
                rounds_total: r.u64()?,
                jobs_dispatched: r.u64()?,
            };
            if r.remaining() != 0 {
                return Err(CodecError::Malformed(format!(
                    "{} unread bytes after the progress payload",
                    r.remaining()
                )));
            }
            Ok(Frame::Progress(frame))
        }
        FrameKind::Checkpoint => {
            let mut r = ByteReader::new(payload);
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
