//! Engine checkpoints: a serializable snapshot of a mid-run simulation.
//!
//! A checkpoint captures everything the round loop cannot re-derive at a
//! round boundary: the round counter, the RLE segment queues, the previous
//! round's snapshot (the delta baseline), the exact positions of the three
//! RNG stream families, every metrics accumulator, the scenario layer's
//! fault/staleness state, and one opaque state blob per dispatcher policy
//! (see [`DispatchPolicy::save_state`](scd_model::DispatchPolicy::save_state)).
//! Warm caches and argmin trees are deliberately **not** captured — they
//! are pure accelerators, rebuilt on restore from the captured state.
//!
//! The contract, pinned by the resume tests: a run resumed from a
//! checkpoint produces a report **bit-identical** to the uninterrupted
//! run, including every RNG draw after the checkpoint round.
//!
//! The wire form ([`EngineCheckpoint::to_bytes`]) is written with the
//! workspace's one byte codec ([`scd_model::StateWriter`], `u32` length
//! prefixes) and the fabric codec's metrics encoders, and is what a v3
//! `Checkpoint` frame carries as its state blob. Decoding is strict:
//! truncation, lying lengths, bad tag bytes and trailing bytes are all
//! classified [`CodecError`]s, never panics.

use crate::fabric::codec::{
    read_decision_times, read_degradation, read_response_times, read_tracker, write_decision_times,
    write_degradation, write_response_times, write_tracker, CodecError,
};
use crate::report::DegradationMetrics;
use scd_metrics::{DecisionTimeHistogram, QueueLengthTracker, ResponseTimeHistogram};
use scd_model::{ByteError, StateReader, StateWriter};

/// Layout version of the serialized checkpoint; bumped on any change.
const CHECKPOINT_VERSION: u8 = 3;

/// Mid-run state of the scenario layer (present iff the run's scenario is
/// active); see [`ScenarioRuntime`](crate::scenario::ScenarioRuntime).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ScenarioState {
    pub(crate) server_up: Vec<bool>,
    pub(crate) dispatcher_up: Vec<bool>,
    pub(crate) k_effs: Vec<u64>,
    pub(crate) ring: Option<Vec<Vec<u64>>>,
    pub(crate) degradation: DegradationMetrics,
    pub(crate) oracle_dropped: u64,
}

/// A serializable snapshot of a [`Simulation`](crate::Simulation) run at a
/// round boundary, sufficient to resume it bit-identically.
///
/// Produced and consumed by
/// [`Simulation::run_with_checkpoints`](crate::Simulation::run_with_checkpoints),
/// which refuses to resume from a checkpoint whose
/// [`config_digest`](EngineCheckpoint::config_digest) does not match the
/// resuming configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineCheckpoint {
    pub(crate) config_digest: u64,
    pub(crate) round: u64,
    pub(crate) num_servers: usize,
    pub(crate) num_dispatchers: usize,
    pub(crate) queues: Vec<Vec<(u64, u64)>>,
    pub(crate) snapshot: Vec<u64>,
    pub(crate) arrival_rng: [u64; 4],
    pub(crate) service_rng: [u64; 4],
    pub(crate) policy_rngs: Vec<[u64; 4]>,
    pub(crate) response_times: ResponseTimeHistogram,
    pub(crate) tracker: QueueLengthTracker,
    pub(crate) decision_times: Option<DecisionTimeHistogram>,
    pub(crate) jobs_dispatched: u64,
    pub(crate) jobs_completed: u64,
    pub(crate) scenario: Option<ScenarioState>,
    pub(crate) policy_state: Vec<Vec<u8>>,
}

impl EngineCheckpoint {
    /// The round the checkpoint was taken at: the first round a resumed
    /// run executes.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Digest of the `SimConfig` the checkpointed run was configured with;
    /// resuming under any other configuration is refused.
    pub fn config_digest(&self) -> u64 {
        self.config_digest
    }

    /// Jobs dispatched on this shard so far — what a worker advertises in
    /// the progress heartbeat accompanying each checkpoint frame.
    pub fn jobs_dispatched(&self) -> u64 {
        self.jobs_dispatched
    }

    /// Serializes the checkpoint into the strict little-endian layout a v3
    /// `Checkpoint` frame carries. The metrics use the same encoders as a
    /// `Final` frame.
    ///
    /// # Errors
    /// Returns [`CodecError::Malformed`] only if a length exceeds the u32
    /// wire width — impossible for checkpoints produced by the engine.
    pub fn to_bytes(&self) -> Result<Vec<u8>, CodecError> {
        let mut w = StateWriter::with_u32_lengths();
        w.u8(CHECKPOINT_VERSION);
        w.u64(self.config_digest);
        w.u64(self.round);
        w.len(self.num_servers);
        w.len(self.num_dispatchers);
        w.seq(&self.queues, |w, segments| {
            w.seq(segments, |w, &(arrival_round, count)| {
                w.u64(arrival_round);
                w.u64(count);
            });
        });
        w.u64s(&self.snapshot);
        write_rng(&mut w, &self.arrival_rng);
        write_rng(&mut w, &self.service_rng);
        w.seq(&self.policy_rngs, write_rng);
        write_response_times(&mut w, &self.response_times);
        write_tracker(&mut w, &self.tracker);
        write_decision_times(&mut w, self.decision_times.as_ref());
        w.u64(self.jobs_dispatched);
        w.u64(self.jobs_completed);
        w.flag(self.scenario.is_some());
        if let Some(s) = &self.scenario {
            w.bools(&s.server_up);
            w.bools(&s.dispatcher_up);
            w.u64s(&s.k_effs);
            w.flag(s.ring.is_some());
            if let Some(ring) = &s.ring {
                w.seq(ring, |w, row| w.u64s(row));
            }
            write_degradation(&mut w, &s.degradation);
            w.u64(s.oracle_dropped);
        }
        w.seq(&self.policy_state, |w, blob| w.blob(blob));
        Ok(w.finish()?)
    }

    /// Deserializes a checkpoint produced by
    /// [`to_bytes`](EngineCheckpoint::to_bytes).
    ///
    /// Strict: unknown layout versions, truncation, invalid tag bytes,
    /// metrics the metrics types reject and trailing bytes are all
    /// refused. Cross-field consistency (vector widths against the
    /// resuming configuration) is checked when a run resumes, not here.
    ///
    /// # Errors
    /// A classified [`CodecError`]; never panics on any input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = StateReader::with_u32_lengths(bytes);
        let version = r.u8()?;
        if version != CHECKPOINT_VERSION {
            return Err(CodecError::UnsupportedVersion { got: version });
        }
        let config_digest = r.u64()?;
        let round = r.u64()?;
        let num_servers = r.usize()?;
        let num_dispatchers = r.usize()?;
        let queues = r.seq(|r| r.seq(|r| Ok((r.u64()?, r.u64()?))))?;
        let snapshot = r.u64s()?;
        let arrival_rng = read_rng(&mut r)?;
        let service_rng = read_rng(&mut r)?;
        let policy_rngs = r.seq(read_rng)?;
        let response_times = read_response_times(&mut r)?;
        let tracker = read_tracker(&mut r)?;
        let decision_times = read_decision_times(&mut r)?;
        let jobs_dispatched = r.u64()?;
        let jobs_completed = r.u64()?;
        let scenario = if r.flag()? {
            Some(ScenarioState {
                server_up: r.bools()?,
                dispatcher_up: r.bools()?,
                k_effs: r.u64s()?,
                ring: r.flag()?.then(|| r.seq(StateReader::u64s)).transpose()?,
                degradation: read_degradation(&mut r)?,
                oracle_dropped: r.u64()?,
            })
        } else {
            None
        };
        let policy_state = r.seq(|r| Ok(r.blob()?.to_vec()))?;
        r.finish()?;
        Ok(EngineCheckpoint {
            config_digest,
            round,
            num_servers,
            num_dispatchers,
            queues,
            snapshot,
            arrival_rng,
            service_rng,
            policy_rngs,
            response_times,
            tracker,
            decision_times,
            jobs_dispatched,
            jobs_completed,
            scenario,
            policy_state,
        })
    }
}

/// An xoshiro state: four words, no length prefix.
fn write_rng(w: &mut StateWriter, state: &[u64; 4]) {
    state.iter().for_each(|&word| w.u64(word));
}

fn read_rng(r: &mut StateReader<'_>) -> Result<[u64; 4], ByteError> {
    Ok([r.u64()?, r.u64()?, r.u64()?, r.u64()?])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_checkpoint() -> EngineCheckpoint {
        let mut decisions = DecisionTimeHistogram::new();
        for us in [0.25, 1.0, 3.25] {
            decisions.record(us);
        }
        let (count, sum, min, _) = decisions.raw_parts();
        EngineCheckpoint {
            config_digest: 0xFEED_FACE_CAFE_BEEF,
            round: 120,
            num_servers: 3,
            num_dispatchers: 2,
            queues: vec![vec![(100, 2), (119, 1)], vec![], vec![(118, 5)]],
            snapshot: vec![3, 0, 5],
            arrival_rng: [1, 2, 3, 4],
            service_rng: [5, 6, 7, 8],
            policy_rngs: vec![[9, 10, 11, 12], [13, 14, 15, 16]],
            response_times: ResponseTimeHistogram::from_raw_parts(vec![10, 4, 1], 15, 1u128 << 70)
                .unwrap(),
            tracker: QueueLengthTracker::from_raw_parts(
                3,
                vec![100, 0, 77],
                vec![9, 0, 6],
                vec![1, 120, 0],
                vec![50, 40, 30],
                177,
                15,
                120,
            )
            .unwrap(),
            decision_times: Some(
                DecisionTimeHistogram::from_raw_parts(
                    decisions.bucket_counts().to_vec(),
                    (count, sum, min, f64::NAN),
                )
                .unwrap(),
            ),
            jobs_dispatched: 240,
            jobs_completed: 232,
            scenario: Some(ScenarioState {
                server_up: vec![true, false, true],
                dispatcher_up: vec![true, true],
                k_effs: vec![0, 2],
                ring: Some(vec![vec![1, 2, 3], vec![4, 5, 6]]),
                degradation: DegradationMetrics {
                    server_down_rounds: 40,
                    arrivals_lost: 7,
                    ..DegradationMetrics::default()
                },
                oracle_dropped: 11,
            }),
            policy_state: vec![vec![1, 2, 3], vec![]],
        }
    }

    #[test]
    fn checkpoint_round_trips_bit_for_bit() {
        let ckpt = sample_checkpoint();
        let bytes = ckpt.to_bytes().unwrap();
        let back = EngineCheckpoint::from_bytes(&bytes).unwrap();
        // NaN in the decision histogram breaks derived PartialEq, so
        // compare through a second encode instead.
        assert_eq!(bytes, back.to_bytes().unwrap());
        assert_eq!(back.round(), 120);
        assert_eq!(back.config_digest(), 0xFEED_FACE_CAFE_BEEF);
        assert!(back.decision_times.unwrap().raw_parts().3.is_nan());
    }

    #[test]
    fn minimal_checkpoint_round_trips() {
        let mut ckpt = sample_checkpoint();
        ckpt.decision_times = None;
        ckpt.scenario = None;
        let bytes = ckpt.to_bytes().unwrap();
        assert_eq!(EngineCheckpoint::from_bytes(&bytes).unwrap(), ckpt);
    }

    #[test]
    fn every_truncation_is_rejected_not_panicked() {
        let bytes = sample_checkpoint().to_bytes().unwrap();
        for len in 0..bytes.len() {
            assert!(
                EngineCheckpoint::from_bytes(&bytes[..len]).is_err(),
                "prefix of {len} bytes decoded"
            );
        }
    }

    #[test]
    fn version_skew_and_tag_garbage_are_classified() {
        let mut bytes = sample_checkpoint().to_bytes().unwrap();
        let original = bytes.clone();
        bytes[0] = 99;
        assert!(matches!(
            EngineCheckpoint::from_bytes(&bytes).unwrap_err(),
            CodecError::UnsupportedVersion { got: 99 }
        ));
        let mut trailing = original;
        trailing.push(0);
        assert!(matches!(
            EngineCheckpoint::from_bytes(&trailing).unwrap_err(),
            CodecError::Malformed(_)
        ));
    }

    #[test]
    fn a_tracker_without_per_server_vectors_is_malformed() {
        // The tracker of the sample checkpoint, re-encoded with empty
        // per-server vectors under its nonzero server count.
        let ckpt = sample_checkpoint();
        let bytes = ckpt.to_bytes().unwrap();
        let mut full = StateWriter::with_u32_lengths();
        write_tracker(&mut full, &ckpt.tracker);
        let full = full.finish().unwrap();
        let (n, _, _, _, occupancy, total_sum, total_max, rounds) = ckpt.tracker.raw_parts();
        let mut slim = StateWriter::with_u32_lengths();
        slim.len(n);
        slim.len(0);
        slim.u64s(&[]);
        slim.u64s(&[]);
        slim.u64s(occupancy);
        slim.u128(total_sum);
        slim.u64(total_max);
        slim.u64(rounds);
        let at = bytes.windows(full.len()).position(|w| w == full).unwrap();
        let mut forged = bytes[..at].to_vec();
        forged.extend_from_slice(&slim.finish().unwrap());
        forged.extend_from_slice(&bytes[at + full.len()..]);
        assert!(matches!(
            EngineCheckpoint::from_bytes(&forged).unwrap_err(),
            CodecError::Malformed(_)
        ));
    }

    #[test]
    fn lying_length_prefixes_do_not_allocate_or_panic() {
        let ckpt = sample_checkpoint();
        let bytes = ckpt.to_bytes().unwrap();
        // The queue count is the first length field after the fixed
        // header (1 + 8 + 8 + 4 + 4 bytes in).
        let mut lying = bytes;
        lying[25..29].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(EngineCheckpoint::from_bytes(&lying).is_err());
    }
}
