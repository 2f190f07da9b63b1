//! Per-server queue-length tracking.
//!
//! The strong-stability analysis (Appendix D of the paper) is about the
//! long-run time average of the total queue length,
//! `1/T · Σ_t Σ_s E[q_s(t)]`. [`QueueLengthTracker`] records exactly that
//! quantity (plus per-server maxima and idle fractions) so the stability
//! integration tests and the herding demonstrations can make quantitative
//! assertions.
//!
//! At mean-field scale (`n = 10⁵ .. 10⁶` servers) the per-server vectors
//! dominate the simulator's memory and the queue-length *distribution* is
//! the quantity of interest (it is what the mean-field fixed point
//! predicts), so the tracker also maintains a dense **occupancy histogram**
//! — `occupancy[k]` = number of (server, round) observations with queue
//! length exactly `k` — and offers a histogram-only mode that keeps *only*
//! that histogram plus the scalar totals, dropping every per-server vector.

use serde::{Deserialize, Serialize};

/// Tracks queue-length statistics over the course of a simulation.
///
/// Queue lengths are integers, so the tracker accumulates exact integer sums
/// and maxima instead of running floating-point statistics: `observe` is on
/// the simulation engine's per-round hot path (one update per server per
/// round) and integer adds are both faster and exact. Means are derived on
/// demand.
///
/// Two modes:
///
/// * **Full** ([`QueueLengthTracker::new`]) — per-server sums, maxima and
///   idle counts plus the occupancy histogram. `O(n)` memory.
/// * **Histogram-only** ([`QueueLengthTracker::histogram_only`]) — only the
///   occupancy histogram and the scalar totals. `O(max queue length)`
///   memory (capped by [`Self::OCCUPANCY_CLAMP`]), independent of `n`; the
///   per-server accessors are unavailable and [`Self::worst_mean_queue`]
///   degrades to the across-server mean.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueueLengthTracker {
    /// Number of servers being tracked (the per-server vectors below are
    /// empty in histogram-only mode, so the width is kept separately).
    num_servers: usize,
    /// Per-server sum of observed queue lengths (`u128`: a u64 queue length
    /// summed over arbitrarily many rounds cannot overflow). Empty in
    /// histogram-only mode.
    per_server_sum: Vec<u128>,
    /// Per-server maximum observed queue length. Empty in histogram-only
    /// mode.
    per_server_max: Vec<u64>,
    /// Per-server count of rounds in which the server was idle (empty
    /// queue). Empty in histogram-only mode.
    idle_rounds: Vec<u64>,
    /// `occupancy[k]` = number of (server, round) observations with queue
    /// length exactly `k` (clamped at [`Self::OCCUPANCY_CLAMP`]). Grows
    /// lazily to the largest observed length, so short queues cost a few
    /// dozen entries regardless of the clamp.
    #[serde(default)]
    occupancy: Vec<u64>,
    /// Sum over rounds of the total backlog.
    total_sum: u128,
    /// Largest observed total backlog.
    total_max: u64,
    /// Number of observed rounds.
    rounds: u64,
}

impl QueueLengthTracker {
    /// Queue lengths at or above this value share the top occupancy bucket.
    /// A stable run's queues sit far below it; the clamp only bounds the
    /// histogram against a diverging (unstable) configuration, where the
    /// pinned top bucket makes the truncation detectable rather than silent.
    pub const OCCUPANCY_CLAMP: u64 = 4096;

    /// Creates a full-mode tracker for `num_servers` servers.
    pub fn new(num_servers: usize) -> Self {
        QueueLengthTracker {
            num_servers,
            per_server_sum: vec![0; num_servers],
            per_server_max: vec![0; num_servers],
            idle_rounds: vec![0; num_servers],
            occupancy: Vec::new(),
            total_sum: 0,
            total_max: 0,
            rounds: 0,
        }
    }

    /// Creates a histogram-only tracker: no per-server state is allocated,
    /// so memory is independent of `num_servers` — the mode the engine uses
    /// for mean-field-scale runs (`n = 10⁵ .. 10⁶`).
    pub fn histogram_only(num_servers: usize) -> Self {
        QueueLengthTracker {
            num_servers,
            per_server_sum: Vec::new(),
            per_server_max: Vec::new(),
            idle_rounds: Vec::new(),
            occupancy: Vec::new(),
            total_sum: 0,
            total_max: 0,
            rounds: 0,
        }
    }

    /// True when this tracker keeps only the occupancy histogram (no
    /// per-server vectors).
    pub fn is_histogram_only(&self) -> bool {
        self.num_servers > 0 && self.per_server_sum.is_empty()
    }

    /// Records the queue lengths observed at the beginning of one round.
    ///
    /// # Panics
    /// Panics if `queue_lengths.len()` differs from the number of servers the
    /// tracker was created for.
    pub fn observe(&mut self, queue_lengths: &[u64]) {
        assert_eq!(
            queue_lengths.len(),
            self.num_servers,
            "tracker was created for a different cluster size"
        );
        let full = !self.is_histogram_only();
        let mut sum = 0u64;
        for (s, &q) in queue_lengths.iter().enumerate() {
            let bucket = q.min(Self::OCCUPANCY_CLAMP) as usize;
            if bucket >= self.occupancy.len() {
                self.occupancy.resize(bucket + 1, 0);
            }
            self.occupancy[bucket] = self.occupancy[bucket].saturating_add(1);
            if full {
                self.per_server_sum[s] += u128::from(q);
                if q > self.per_server_max[s] {
                    self.per_server_max[s] = q;
                }
                if q == 0 {
                    self.idle_rounds[s] += 1;
                }
            }
            sum += q;
        }
        self.total_sum += u128::from(sum);
        if sum > self.total_max {
            self.total_max = sum;
        }
        self.rounds += 1;
    }

    /// Number of servers being tracked.
    pub fn num_servers(&self) -> usize {
        self.num_servers
    }

    /// Number of observed rounds.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// The dense occupancy histogram: `occupancy()[k]` = number of
    /// (server, round) observations with queue length exactly `k`, with
    /// everything at or above [`Self::OCCUPANCY_CLAMP`] sharing the top
    /// bucket. The slice only extends to the largest observed length. The
    /// total mass is `rounds() · num_servers()` (modulo saturation), and
    /// normalizing by it yields the empirical steady-state queue-length
    /// distribution the mean-field oracle checks against.
    pub fn occupancy(&self) -> &[u64] {
        &self.occupancy
    }

    /// Consumes the tracker and returns the occupancy histogram without
    /// copying it (for reports that outlive the tracker).
    pub fn into_occupancy(self) -> Vec<u64> {
        self.occupancy
    }

    /// Time-average of the total backlog `Σ_s q_s(t)` — the quantity bounded
    /// by the strong-stability theorem.
    pub fn mean_total_backlog(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.total_sum as f64 / self.rounds as f64
        }
    }

    /// Largest total backlog seen in any round.
    pub fn max_total_backlog(&self) -> f64 {
        self.total_max as f64
    }

    /// Time-average queue length of one server.
    ///
    /// # Panics
    /// Panics if the server index is out of range or the tracker is
    /// histogram-only (no per-server state exists).
    pub fn mean_queue(&self, server: usize) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.per_server_sum[server] as f64 / self.rounds as f64
        }
    }

    /// Maximum queue length of one server across all observed rounds.
    ///
    /// # Panics
    /// Panics if the server index is out of range or the tracker is
    /// histogram-only (no per-server state exists).
    pub fn max_queue(&self, server: usize) -> f64 {
        self.per_server_max[server] as f64
    }

    /// Fraction of rounds in which the server's queue was empty — a proxy for
    /// wasted capacity on fast servers (the instability mode described in the
    /// paper's footnote 1).
    ///
    /// # Panics
    /// Panics if the server index is out of range or the tracker is
    /// histogram-only (no per-server state exists).
    pub fn idle_fraction(&self, server: usize) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.idle_rounds[server] as f64 / self.rounds as f64
        }
    }

    /// Mean fraction of (server, round) observations with an empty queue —
    /// equal to the across-server average of [`Self::idle_fraction`], but
    /// computed from the occupancy histogram's exact integer zero-bucket, so
    /// it is available (and identical) in both modes.
    pub fn mean_idle_fraction(&self) -> f64 {
        let observations = self.rounds as u128 * self.num_servers as u128;
        if observations == 0 {
            0.0
        } else {
            self.occupancy.first().copied().unwrap_or(0) as f64 / observations as f64
        }
    }

    /// The raw accumulator fields, exposed for wire codecs:
    /// `(num_servers, per_server_sum, per_server_max, idle_rounds, occupancy,
    /// total_sum, total_max, rounds)`. The inverse of
    /// [`Self::from_raw_parts`].
    #[allow(clippy::type_complexity)]
    pub fn raw_parts(&self) -> (usize, &[u128], &[u64], &[u64], &[u64], u128, u64, u64) {
        (
            self.num_servers,
            &self.per_server_sum,
            &self.per_server_max,
            &self.idle_rounds,
            &self.occupancy,
            self.total_sum,
            self.total_max,
            self.rounds,
        )
    }

    /// Rebuilds a tracker from accumulators captured by
    /// [`Self::raw_parts`]. Mid-run state round-trips exactly, including the
    /// full/histogram-only mode distinction (empty per-server vectors with a
    /// nonzero `num_servers` mean histogram-only).
    ///
    /// # Errors
    /// Returns a message when the per-server vectors are inconsistent: they
    /// must all have length `num_servers` (full mode) or all be empty
    /// (histogram-only mode).
    #[allow(clippy::too_many_arguments)]
    pub fn from_raw_parts(
        num_servers: usize,
        per_server_sum: Vec<u128>,
        per_server_max: Vec<u64>,
        idle_rounds: Vec<u64>,
        occupancy: Vec<u64>,
        total_sum: u128,
        total_max: u64,
        rounds: u64,
    ) -> Result<Self, String> {
        let widths = [
            per_server_sum.len(),
            per_server_max.len(),
            idle_rounds.len(),
        ];
        let full = widths == [num_servers; 3];
        let slim = widths == [0; 3];
        if !(full || slim) {
            return Err(format!(
                "queue tracker parts are inconsistent: num_servers={num_servers}, \
                 per-server vector lengths {widths:?}"
            ));
        }
        Ok(QueueLengthTracker {
            num_servers,
            per_server_sum,
            per_server_max,
            idle_rounds,
            occupancy,
            total_sum,
            total_max,
            rounds,
        })
    }

    /// The largest per-server time-average queue length — useful for spotting
    /// a single unstable queue in an otherwise healthy system.
    ///
    /// In histogram-only mode the per-server sums do not exist, so this
    /// **degrades to the across-server mean queue length**
    /// (`mean_total_backlog / num_servers`, a lower bound on the true
    /// worst): at mean-field scale no single server is individually
    /// interesting, and the distribution tail is read off
    /// [`Self::occupancy`] instead.
    pub fn worst_mean_queue(&self) -> f64 {
        if self.is_histogram_only() {
            return self.mean_total_backlog() / self.num_servers as f64;
        }
        (0..self.per_server_sum.len())
            .map(|s| self.mean_queue(s))
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observes_and_averages() {
        let mut t = QueueLengthTracker::new(3);
        t.observe(&[0, 2, 4]);
        t.observe(&[2, 2, 0]);
        assert_eq!(t.rounds(), 2);
        assert_eq!(t.num_servers(), 3);
        assert!(!t.is_histogram_only());
        assert!((t.mean_total_backlog() - 5.0).abs() < 1e-12);
        assert_eq!(t.max_total_backlog(), 6.0);
        assert!((t.mean_queue(0) - 1.0).abs() < 1e-12);
        assert!((t.mean_queue(2) - 2.0).abs() < 1e-12);
        assert_eq!(t.max_queue(2), 4.0);
        assert!((t.worst_mean_queue() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn idle_fraction_counts_empty_rounds() {
        let mut t = QueueLengthTracker::new(2);
        t.observe(&[0, 1]);
        t.observe(&[0, 0]);
        t.observe(&[3, 0]);
        assert!((t.idle_fraction(0) - 2.0 / 3.0).abs() < 1e-12);
        assert!((t.idle_fraction(1) - 2.0 / 3.0).abs() < 1e-12);
        assert!((t.mean_idle_fraction() - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn occupancy_histogram_counts_server_rounds() {
        let mut t = QueueLengthTracker::new(3);
        t.observe(&[0, 2, 4]);
        t.observe(&[2, 2, 0]);
        // Lengths seen: 0×2, 2×3, 4×1.
        assert_eq!(t.occupancy(), &[2, 0, 3, 0, 1]);
        let mass: u64 = t.occupancy().iter().sum();
        assert_eq!(mass, t.rounds() * t.num_servers() as u64);
    }

    #[test]
    fn histogram_only_mode_matches_full_mode_statistics() {
        let rows: Vec<Vec<u64>> = vec![vec![0, 5, 2, 2], vec![1, 4, 0, 2], vec![0, 3, 1, 1]];
        let mut full = QueueLengthTracker::new(4);
        let mut slim = QueueLengthTracker::histogram_only(4);
        for row in &rows {
            full.observe(row);
            slim.observe(row);
        }
        assert!(slim.is_histogram_only());
        assert_eq!(slim.occupancy(), full.occupancy());
        assert_eq!(slim.mean_total_backlog(), full.mean_total_backlog());
        assert_eq!(slim.max_total_backlog(), full.max_total_backlog());
        assert_eq!(slim.mean_idle_fraction(), full.mean_idle_fraction());
        // The shared idle fraction equals the across-server average of the
        // full tracker's per-server fractions.
        let per_server: f64 = (0..4).map(|s| full.idle_fraction(s)).sum::<f64>() / 4.0;
        assert!((slim.mean_idle_fraction() - per_server).abs() < 1e-12);
        // worst_mean_queue degrades to the across-server mean.
        assert!((slim.worst_mean_queue() - full.mean_total_backlog() / 4.0).abs() < 1e-12);
        assert!(full.worst_mean_queue() >= slim.worst_mean_queue());
    }

    #[test]
    fn pathological_lengths_share_the_clamped_top_bucket() {
        let mut t = QueueLengthTracker::histogram_only(2);
        t.observe(&[u64::MAX, 0]);
        t.observe(&[QueueLengthTracker::OCCUPANCY_CLAMP + 7, 0]);
        assert_eq!(
            t.occupancy().len(),
            QueueLengthTracker::OCCUPANCY_CLAMP as usize + 1,
            "the histogram must stay bounded"
        );
        assert_eq!(
            t.occupancy()[QueueLengthTracker::OCCUPANCY_CLAMP as usize],
            2
        );
    }

    #[test]
    fn empty_tracker_is_zeroed() {
        let t = QueueLengthTracker::new(4);
        assert_eq!(t.rounds(), 0);
        assert_eq!(t.mean_total_backlog(), 0.0);
        assert_eq!(t.max_total_backlog(), 0.0);
        assert_eq!(t.idle_fraction(0), 0.0);
        assert_eq!(t.mean_idle_fraction(), 0.0);
        assert_eq!(t.worst_mean_queue(), 0.0);
        assert!(t.occupancy().is_empty());
    }

    #[test]
    #[should_panic(expected = "different cluster size")]
    fn wrong_width_observation_panics() {
        let mut t = QueueLengthTracker::new(2);
        t.observe(&[1, 2, 3]);
    }

    #[test]
    fn raw_parts_round_trip_preserves_mid_run_state() {
        for mut t in [
            QueueLengthTracker::new(3),
            QueueLengthTracker::histogram_only(3),
        ] {
            t.observe(&[0, 2, 4]);
            t.observe(&[1, 2, 0]);
            let (n, sums, maxes, idles, occ, total, max, rounds) = t.raw_parts();
            let mut back = QueueLengthTracker::from_raw_parts(
                n,
                sums.to_vec(),
                maxes.to_vec(),
                idles.to_vec(),
                occ.to_vec(),
                total,
                max,
                rounds,
            )
            .unwrap();
            assert_eq!(back, t);
            // Continuing both trackers keeps them in lockstep.
            t.observe(&[5, 0, 1]);
            back.observe(&[5, 0, 1]);
            assert_eq!(back.occupancy(), t.occupancy());
            assert_eq!(back.mean_total_backlog(), t.mean_total_backlog());
            assert_eq!(back.max_total_backlog(), t.max_total_backlog());
            assert_eq!(back.rounds(), t.rounds());
            if !t.is_histogram_only() {
                for s in 0..3 {
                    assert_eq!(back.mean_queue(s), t.mean_queue(s));
                    assert_eq!(back.max_queue(s), t.max_queue(s));
                    assert_eq!(back.idle_fraction(s), t.idle_fraction(s));
                }
            }
        }
    }

    #[test]
    fn from_raw_parts_rejects_inconsistent_vectors() {
        let err = QueueLengthTracker::from_raw_parts(
            3,
            vec![0; 2],
            vec![0; 3],
            vec![0; 3],
            Vec::new(),
            0,
            0,
            0,
        );
        assert!(err.is_err());
    }
}
