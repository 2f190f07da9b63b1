//! Per-server queue-length tracking.
//!
//! The strong-stability analysis (Appendix D of the paper) is about the
//! long-run time average of the total queue length,
//! `1/T · Σ_t Σ_s E[q_s(t)]`. [`QueueLengthTracker`] records exactly that
//! quantity (plus per-server maxima and idle fractions) so the stability
//! integration tests and the herding demonstrations can make quantitative
//! assertions.
//!
//! At mean-field scale (`n = 10⁵ .. 10⁶` servers) the queue-length
//! *distribution* is the quantity of interest (it is what the mean-field
//! fixed point predicts), so the tracker also maintains a dense
//! **occupancy histogram** — `occupancy[k]` = number of (server, round)
//! observations with queue length exactly `k`.

/// Tracks queue-length statistics over the course of a simulation.
///
/// Queue lengths are integers, so the tracker accumulates exact integer sums
/// and maxima instead of running floating-point statistics: `observe` is on
/// the simulation engine's per-round hot path (one update per server per
/// round) and integer adds are both faster and exact. Means are derived on
/// demand.
///
/// Memory is 32 bytes per server (sum, maximum and idle count) plus the
/// occupancy histogram, whose length is capped by
/// [`Self::OCCUPANCY_CLAMP`].
#[derive(Debug, Clone, PartialEq)]
pub struct QueueLengthTracker {
    /// Per-server sum of observed queue lengths (`u128`: a u64 queue length
    /// summed over arbitrarily many rounds cannot overflow). Its length is
    /// the number of servers tracked.
    per_server_sum: Vec<u128>,
    /// Per-server maximum observed queue length.
    per_server_max: Vec<u64>,
    /// Per-server count of rounds in which the server was idle (empty
    /// queue).
    idle_rounds: Vec<u64>,
    /// `occupancy[k]` = number of (server, round) observations with queue
    /// length exactly `k` (clamped at [`Self::OCCUPANCY_CLAMP`]). Grows
    /// lazily to the largest observed length, so short queues cost a few
    /// dozen entries regardless of the clamp.
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

    /// Creates a tracker for `num_servers` servers.
    pub fn new(num_servers: usize) -> Self {
        QueueLengthTracker {
            per_server_sum: vec![0; num_servers],
            per_server_max: vec![0; num_servers],
            idle_rounds: vec![0; num_servers],
            occupancy: Vec::new(),
            total_sum: 0,
            total_max: 0,
            rounds: 0,
        }
    }

    /// Records the queue lengths observed at the beginning of one round.
    ///
    /// # Panics
    /// Panics if `queue_lengths.len()` differs from the number of servers the
    /// tracker was created for.
    pub fn observe(&mut self, queue_lengths: &[u64]) {
        assert_eq!(
            queue_lengths.len(),
            self.num_servers(),
            "tracker was created for a different cluster size"
        );
        let mut sum = 0u64;
        for (s, &q) in queue_lengths.iter().enumerate() {
            let bucket = q.min(Self::OCCUPANCY_CLAMP) as usize;
            if bucket >= self.occupancy.len() {
                self.occupancy.resize(bucket + 1, 0);
            }
            self.occupancy[bucket] = self.occupancy[bucket].saturating_add(1);
            self.per_server_sum[s] += u128::from(q);
            if q > self.per_server_max[s] {
                self.per_server_max[s] = q;
            }
            if q == 0 {
                self.idle_rounds[s] += 1;
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
        self.per_server_sum.len()
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
    /// Panics if the server index is out of range.
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
    /// Panics if the server index is out of range.
    pub fn max_queue(&self, server: usize) -> f64 {
        self.per_server_max[server] as f64
    }

    /// Fraction of rounds in which the server's queue was empty — a proxy for
    /// wasted capacity on fast servers (the instability mode described in the
    /// paper's footnote 1).
    ///
    /// # Panics
    /// Panics if the server index is out of range.
    pub fn idle_fraction(&self, server: usize) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.idle_rounds[server] as f64 / self.rounds as f64
        }
    }

    /// Mean fraction of (server, round) observations with an empty queue —
    /// equal to the across-server average of [`Self::idle_fraction`], but
    /// computed from the occupancy histogram's exact integer zero-bucket.
    pub fn mean_idle_fraction(&self) -> f64 {
        let observations = self.rounds as u128 * self.num_servers() as u128;
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
            self.num_servers(),
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
    /// [`Self::raw_parts`]. Mid-run state round-trips exactly.
    ///
    /// # Errors
    /// Returns a message when a per-server vector's length is not
    /// `num_servers`.
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
        if widths != [num_servers; 3] {
            return Err(format!(
                "queue tracker parts are inconsistent: num_servers={num_servers}, \
                 per-server vector lengths {widths:?}"
            ));
        }
        Ok(QueueLengthTracker {
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
    pub fn worst_mean_queue(&self) -> f64 {
        (0..self.num_servers())
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
    fn pathological_lengths_share_the_clamped_top_bucket() {
        let mut t = QueueLengthTracker::new(2);
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
        let mut t = QueueLengthTracker::new(3);
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
        assert_eq!(back, t);
    }

    #[test]
    fn from_raw_parts_rejects_inconsistent_vectors() {
        let parts = |sums: usize, maxes: usize, idles: usize| {
            QueueLengthTracker::from_raw_parts(
                3,
                vec![0; sums],
                vec![0; maxes],
                vec![0; idles],
                Vec::new(),
                0,
                0,
                0,
            )
        };
        assert!(parts(3, 3, 3).is_ok());
        assert!(parts(2, 3, 3).is_err());
        assert!(parts(3, 3, 4).is_err());
        // Empty per-server vectors under a nonzero width are refused too.
        assert!(parts(0, 0, 0).is_err());
    }
}
