//! Property-style round-trip and rejection suite for the process-fabric
//! frame codec.
//!
//! The unit tests in `crates/sim/src/fabric/codec.rs` pin the envelope
//! rules on one representative report; this suite sweeps a deterministic
//! family of *randomized* reports — saturated histograms, empty shards,
//! maxed-out degradation counters, every optional section present and
//! absent — and asserts that every one survives `encode → decode`
//! byte-for-byte, while mutated frames are always classified rejections,
//! never silent misdecodes.

use scd::metrics::{DecisionTimeHistogram, ResponseTimeHistogram};
use scd::model::streams::{counter_draw, derive_stream_seed, unit_f64};
use scd::sim::fabric::{
    decode_frame, decode_shard_report, encode_checkpoint_frame, encode_final_frame,
    encode_progress_frame, peek_frame_len, CheckpointFrame, CodecError, Frame, ProgressFrame,
    FRAME_VERSION,
};
use scd::sim::{DegradationMetrics, QueueSummary, ShardReport, SimReport};

/// A tiny deterministic generator on top of the model's counter streams —
/// the same splitmix machinery the engine uses, so the suite needs no RNG
/// dependency and replays bit-exactly.
struct Gen {
    seed: u64,
    step: u64,
}

impl Gen {
    fn new(case: u64) -> Self {
        Gen {
            seed: derive_stream_seed(0xC0DE_C0DE_C0DE_C0DE, 0x46_41_42_43_4F_44_45_43, case),
            step: 0,
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.step += 1;
        counter_draw(self.seed, self.step)
    }

    fn next_f64(&mut self) -> f64 {
        unit_f64(self.next_u64()) * 1e4
    }

    fn next_in(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

fn random_report(case: u64) -> ShardReport {
    let mut g = Gen::new(case);
    let mut response_times = ResponseTimeHistogram::new();
    for _ in 0..g.next_in(200) {
        // Bounded support keeps the dense counts vector (and hence every
        // frame) small enough for the quadratic mutation sweeps below; the
        // 8 MiB overflow-bucket layout gets its own linear-time test.
        response_times.record_many(g.next_in(5000), 1 + g.next_in(1_000_000));
    }
    let decision_times_us = if g.next_in(2) == 0 {
        let mut hist = DecisionTimeHistogram::new();
        for _ in 0..g.next_in(100) {
            hist.record(unit_f64(g.next_u64()) * 1e6);
        }
        Some(hist)
    } else {
        None
    };
    let degradation = match g.next_in(3) {
        0 => None,
        1 => Some(DegradationMetrics {
            server_down_rounds: g.next_u64(),
            dispatcher_offline_rounds: g.next_u64(),
            arrivals_lost: g.next_u64(),
            probes_dropped: g.next_u64(),
            stale_decision_rounds: g.next_u64(),
            herding_rounds: g.next_u64(),
            shards_lost: g.next_in(16),
            rounds_lost: g.next_u64(),
            checkpoints_taken: g.next_u64(),
            rounds_replayed: g.next_u64(),
        }),
        // Saturated counters — the merge's saturating discipline must
        // survive the wire unclamped.
        _ => Some(DegradationMetrics {
            server_down_rounds: u64::MAX,
            dispatcher_offline_rounds: u64::MAX,
            arrivals_lost: u64::MAX,
            probes_dropped: u64::MAX,
            stale_decision_rounds: u64::MAX,
            herding_rounds: u64::MAX,
            shards_lost: u64::MAX,
            rounds_lost: u64::MAX,
            checkpoints_taken: u64::MAX,
            rounds_replayed: u64::MAX,
        }),
    };
    let num_shards = 1 + g.next_in(8) as usize;
    ShardReport {
        shard: g.next_in(num_shards as u64) as usize,
        num_shards,
        num_servers: g.next_in(512) as usize,
        config_digest: g.next_u64(),
        report: SimReport {
            policy: format!("P{}", g.next_in(1 << 20)),
            rounds: g.next_u64(),
            warmup_rounds: g.next_u64(),
            offered_load: g.next_f64(),
            jobs_dispatched: g.next_u64(),
            jobs_completed: g.next_u64(),
            jobs_in_flight: g.next_u64(),
            response_times,
            queues: QueueSummary {
                mean_total_backlog: g.next_f64(),
                max_total_backlog: g.next_f64(),
                worst_mean_queue: g.next_f64(),
                mean_idle_fraction: unit_f64(g.next_u64()),
            },
            queue_occupancy: (0..g.next_in(64)).map(|_| g.next_u64()).collect(),
            decision_times_us,
            degradation,
        },
    }
}

#[test]
fn randomized_reports_round_trip_bit_for_bit() {
    for case in 0..64 {
        let report = random_report(case);
        let frame = encode_final_frame(&report).unwrap();
        let decoded = decode_shard_report(&frame).unwrap();
        assert_eq!(decoded, report, "case {case} did not survive the wire");
        // Encoding is deterministic: the same report yields the same bytes.
        assert_eq!(frame, encode_final_frame(&decoded).unwrap());
    }
}

#[test]
fn saturated_overflow_bucket_round_trips() {
    // Recording at the clamp value inflates the dense counts vector to its
    // ~8 MiB worst case and saturates the top bucket — the largest legal
    // frame the codec can meet. Round-trip only: the mutation sweeps above
    // would be quadratic in this frame's size.
    let mut report = random_report(99);
    report
        .report
        .response_times
        .record_many(ResponseTimeHistogram::MAX_RESPONSE_TIME + 12345, u64::MAX);
    let frame = encode_final_frame(&report).unwrap();
    assert!(frame.len() > 8 << 20, "overflow layout is the big one");
    assert_eq!(decode_shard_report(&frame).unwrap(), report);
}

#[test]
fn empty_shard_report_round_trips() {
    // A shard that dispatched nothing: empty histogram, zero counters.
    let report = ShardReport {
        shard: 0,
        num_shards: 1,
        num_servers: 0,
        config_digest: 0,
        report: SimReport {
            policy: String::new(),
            rounds: 0,
            warmup_rounds: 0,
            offered_load: 0.0,
            jobs_dispatched: 0,
            jobs_completed: 0,
            jobs_in_flight: 0,
            response_times: ResponseTimeHistogram::new(),
            queues: QueueSummary {
                mean_total_backlog: 0.0,
                max_total_backlog: 0.0,
                worst_mean_queue: 0.0,
                mean_idle_fraction: 0.0,
            },
            queue_occupancy: Vec::new(),
            decision_times_us: None,
            degradation: None,
        },
    };
    let frame = encode_final_frame(&report).unwrap();
    assert_eq!(decode_shard_report(&frame).unwrap(), report);
}

#[test]
fn nonfinite_payload_floats_survive_the_wire() {
    // min()/max() of an empty decision histogram are ±∞ sentinels; the
    // codec ships raw bits, so they must come back exactly.
    let mut report = random_report(7);
    report.report.decision_times_us = Some(DecisionTimeHistogram::new());
    report.report.offered_load = f64::INFINITY;
    let frame = encode_final_frame(&report).unwrap();
    let decoded = decode_shard_report(&frame).unwrap();
    assert_eq!(decoded.report.offered_load, f64::INFINITY);
    let decoded_hist = decoded.report.decision_times_us.as_ref().unwrap();
    assert!(decoded_hist.is_empty());
    assert_eq!(
        decoded_hist.raw_parts(),
        DecisionTimeHistogram::new().raw_parts()
    );
}

#[test]
fn every_prefix_of_every_frame_is_rejected() {
    for case in [0u64, 3, 11] {
        let frame = encode_final_frame(&random_report(case)).unwrap();
        for len in 0..frame.len() {
            assert!(
                decode_shard_report(&frame[..len]).is_err(),
                "case {case}: prefix of length {len} decoded"
            );
        }
    }
}

#[test]
fn single_byte_mutations_never_misdecode() {
    let report = random_report(42);
    let frame = encode_final_frame(&report).unwrap();
    for index in 0..frame.len() {
        let mut mutated = frame.clone();
        mutated[index] ^= 0x10;
        match decode_shard_report(&mutated) {
            // Every mutation must either be rejected...
            Err(_) => {}
            // ...or (never, given the checksum) decode to the original.
            Ok(decoded) => panic!(
                "mutated byte {index} decoded silently (equal to original: {})",
                decoded == report
            ),
        }
    }
}

#[test]
fn envelope_violations_are_classified_not_lumped() {
    let frame = encode_final_frame(&random_report(1)).unwrap();

    let mut wrong_magic = frame.clone();
    wrong_magic[0] = b'X';
    assert!(matches!(
        decode_shard_report(&wrong_magic),
        Err(CodecError::BadMagic { .. })
    ));

    let mut wrong_version = frame.clone();
    wrong_version[4] = 99;
    assert!(matches!(
        decode_shard_report(&wrong_version),
        Err(CodecError::UnsupportedVersion { got: 99 })
    ));

    let mut oversized = frame.clone();
    oversized[14..18].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        decode_shard_report(&oversized),
        Err(CodecError::Oversized { .. })
    ));

    let mut trailing = frame.clone();
    trailing.push(0);
    assert!(matches!(
        decode_shard_report(&trailing),
        Err(CodecError::TrailingBytes { extra: 1 })
    ));

    let mut corrupt = frame;
    let payload_start = 18;
    corrupt[payload_start] ^= 0xFF;
    assert!(matches!(
        decode_shard_report(&corrupt),
        Err(CodecError::ChecksumMismatch { .. })
    ));
}

// ---------------------------------------------------------------------------
// The streaming frame kinds: progress heartbeats, checkpoint frames and
// recovery-counter-bearing final frames.
// ---------------------------------------------------------------------------

/// Header layout: magic 0..4, version @4, kind @5, digest 6..14, payload
/// length 14..18.
const VERSION_AT: usize = 4;
const KIND_AT: usize = 5;
const LEN_AT: usize = 14;
const HEADER_LEN: usize = 18;

fn random_progress(case: u64) -> ProgressFrame {
    let mut g = Gen::new(0x5050_0000 | case);
    let num_shards = 1 + g.next_in(32) as u32;
    ProgressFrame {
        shard: g.next_in(u64::from(num_shards)) as u32,
        num_shards,
        config_digest: g.next_u64(),
        round: g.next_u64(),
        rounds_total: g.next_u64(),
        jobs_dispatched: g.next_u64(),
    }
}

fn random_checkpoint(case: u64) -> CheckpointFrame {
    let mut g = Gen::new(0xC4EC_0000 | case);
    let num_shards = 1 + g.next_in(32) as u32;
    CheckpointFrame {
        shard: g.next_in(u64::from(num_shards)) as u32,
        num_shards,
        config_digest: g.next_u64(),
        state: (0..1 + g.next_in(4096))
            .map(|_| g.next_u64() as u8)
            .collect(),
    }
}

/// A report of a partial merge whose recovery counters are nonzero.
fn recovered_report(case: u64) -> ShardReport {
    let mut report = random_report(case);
    report.report.degradation = Some(DegradationMetrics {
        shards_lost: 1,
        rounds_lost: 4_000,
        checkpoints_taken: 7,
        rounds_replayed: 123,
        ..DegradationMetrics::default()
    });
    report
}

#[test]
fn streaming_frames_round_trip_bit_for_bit() {
    for case in 0..32 {
        let progress = random_progress(case);
        let frame = encode_progress_frame(&progress).unwrap();
        assert_eq!(peek_frame_len(&frame).unwrap(), Some(frame.len()));
        match decode_frame(&frame).unwrap() {
            Frame::Progress(decoded) => assert_eq!(decoded, progress),
            other => panic!("case {case}: progress decoded as {other:?}"),
        }
        assert_eq!(frame, encode_progress_frame(&progress).unwrap());

        let checkpoint = random_checkpoint(case);
        let frame = encode_checkpoint_frame(&checkpoint).unwrap();
        assert_eq!(peek_frame_len(&frame).unwrap(), Some(frame.len()));
        match decode_frame(&frame).unwrap() {
            Frame::Checkpoint(decoded) => assert_eq!(decoded, checkpoint),
            other => panic!("case {case}: checkpoint decoded as {other:?}"),
        }
    }
    // A final frame with live recovery counters survives the wire.
    let report = recovered_report(5);
    let frame = encode_final_frame(&report).unwrap();
    assert_eq!(decode_shard_report(&frame).unwrap(), report);
    match decode_frame(&frame).unwrap() {
        Frame::Final(decoded) => assert_eq!(decoded, report),
        other => panic!("final decoded as {other:?}"),
    }
}

#[test]
fn streaming_frames_are_not_final_reports() {
    // The one-shot entry point must never mistake a heartbeat or a
    // checkpoint for a result.
    let progress = encode_progress_frame(&random_progress(0)).unwrap();
    assert!(matches!(
        decode_shard_report(&progress),
        Err(CodecError::Malformed(_))
    ));
    let checkpoint = encode_checkpoint_frame(&random_checkpoint(0)).unwrap();
    assert!(matches!(
        decode_shard_report(&checkpoint),
        Err(CodecError::Malformed(_))
    ));
}

#[test]
fn every_prefix_of_every_streaming_frame_is_rejected_or_incomplete() {
    let frames = [
        encode_progress_frame(&random_progress(3)).unwrap(),
        encode_checkpoint_frame(&random_checkpoint(3)).unwrap(),
        encode_final_frame(&recovered_report(3)).unwrap(),
    ];
    for frame in &frames {
        for len in 0..frame.len() {
            // Strict decode never accepts a prefix...
            assert!(
                decode_frame(&frame[..len]).is_err(),
                "prefix of length {len} decoded"
            );
            // ...and the stream peeker either keeps waiting or reports the
            // exact total length — a valid prefix is never an error.
            match peek_frame_len(&frame[..len]).unwrap() {
                None => assert!(len < HEADER_LEN),
                Some(total) => assert_eq!(total, frame.len()),
            }
        }
    }
}

#[test]
fn single_byte_mutations_of_streaming_frames_never_misdecode() {
    let frames = [
        encode_progress_frame(&random_progress(11)).unwrap(),
        encode_checkpoint_frame(&random_checkpoint(11)).unwrap(),
    ];
    for frame in &frames {
        for index in 0..frame.len() {
            let mut mutated = frame.clone();
            mutated[index] ^= 0x10;
            assert!(
                decode_frame(&mutated).is_err(),
                "mutated byte {index} decoded silently"
            );
        }
    }
}

#[test]
fn length_prefix_lies_are_classified() {
    let frame = encode_progress_frame(&random_progress(21)).unwrap();
    let declared = u32::from_le_bytes(frame[LEN_AT..LEN_AT + 4].try_into().unwrap());

    // An inflated length makes the frame look incomplete, never panics.
    let mut inflated = frame.clone();
    inflated[LEN_AT..LEN_AT + 4].copy_from_slice(&(declared + 4).to_le_bytes());
    assert!(matches!(
        decode_frame(&inflated),
        Err(CodecError::Truncated { .. })
    ));

    // A deflated length leaves trailing bytes behind the declared frame.
    let mut deflated = frame.clone();
    deflated[LEN_AT..LEN_AT + 4].copy_from_slice(&(declared - 4).to_le_bytes());
    assert!(matches!(
        decode_frame(&deflated),
        Err(CodecError::TrailingBytes { .. })
    ));

    // An absurd length is rejected before any allocation, by the peeker
    // too — a stream reader must not wait 4 GiB for garbage.
    let mut absurd = frame;
    absurd[LEN_AT..LEN_AT + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        decode_frame(&absurd),
        Err(CodecError::Oversized { .. })
    ));
    assert!(matches!(
        peek_frame_len(&absurd),
        Err(CodecError::Oversized { .. })
    ));
}

#[test]
fn version_and_kind_skew_is_rejected_not_misread() {
    let frame = encode_progress_frame(&random_progress(31)).unwrap();

    // Any other version — a future one, or the retired version 2 — is
    // refused outright, by the peeker too.
    for version in [FRAME_VERSION + 1, 2] {
        let mut skewed = frame.clone();
        skewed[VERSION_AT] = version;
        assert!(matches!(
            decode_frame(&skewed),
            Err(CodecError::UnsupportedVersion { got }) if got == version
        ));
        assert!(matches!(
            peek_frame_len(&skewed),
            Err(CodecError::UnsupportedVersion { got }) if got == version
        ));
    }

    // An unknown kind byte fails fast in both entry points.
    let mut unknown = frame.clone();
    unknown[KIND_AT] = 0x7F;
    assert!(matches!(
        decode_frame(&unknown),
        Err(CodecError::UnknownKind { .. })
    ));
    assert!(matches!(
        peek_frame_len(&unknown),
        Err(CodecError::UnknownKind { .. })
    ));

    // Relabeling a valid kind as another re-types the payload, so the
    // checksum must catch it — a classified error, never a silent
    // misdecode or a panic.
    let mut relabeled = frame;
    relabeled[KIND_AT] = 3;
    assert!(matches!(
        decode_frame(&relabeled),
        Err(CodecError::ChecksumMismatch { .. })
    ));
}

#[test]
fn empty_checkpoint_state_is_rejected_at_both_ends() {
    let mut checkpoint = random_checkpoint(1);
    checkpoint.state.clear();
    // The encoder refuses to build the degenerate frame...
    let encoded = encode_checkpoint_frame(&checkpoint);
    assert!(matches!(encoded, Err(CodecError::Malformed(_))));
    // ...and a hand-forged empty-state frame is refused by the decoder:
    // keep the envelope intact but empty the payload down to the
    // coordinates. Build it from a 1-byte-state frame by shrinking the
    // declared length — the checksum then mismatches, which is exactly
    // the point: there is no way to smuggle an empty checkpoint through.
    let mut tiny = random_checkpoint(2);
    tiny.state = vec![0xAB];
    let forged = encode_checkpoint_frame(&tiny).unwrap();
    let declared = u32::from_le_bytes(forged[LEN_AT..LEN_AT + 4].try_into().unwrap());
    let mut shrunk = forged;
    shrunk[LEN_AT..LEN_AT + 4].copy_from_slice(&(declared - 1).to_le_bytes());
    assert!(decode_frame(&shrunk).is_err());
}
