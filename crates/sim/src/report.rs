//! Results produced by a simulation run.

use scd_metrics::{DecisionTimeHistogram, HistogramSummary, ResponseTimeHistogram};

/// Aggregate queue-length statistics of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueSummary {
    /// Time-average of the total backlog `Σ_s q_s(t)` (post-warm-up rounds).
    pub mean_total_backlog: f64,
    /// Largest total backlog observed in any round.
    pub max_total_backlog: f64,
    /// Largest per-server time-average queue length.
    pub worst_mean_queue: f64,
    /// Mean fraction of rounds in which a server was idle, averaged over
    /// servers (wasted capacity indicator).
    pub mean_idle_fraction: f64,
}

impl QueueSummary {
    /// Folds the summary of a **disjoint** set of servers (observed over the
    /// same rounds) into this one — the merge rule of the sharded engine's
    /// report merge.
    ///
    /// * `mean_total_backlog` adds exactly: the time-average of a sum over
    ///   disjoint server sets is the sum of the per-set time-averages.
    /// * `max_total_backlog` adds per-shard maxima. The per-round global
    ///   total is unavailable after shards run independently, so the merged
    ///   value is an **upper bound** on the true instantaneous maximum
    ///   (exact for a single shard, and exact whenever the shard maxima
    ///   coincide in time).
    /// * `worst_mean_queue` is a per-server maximum, so disjoint sets merge
    ///   by `max`.
    /// * `mean_idle_fraction` is a per-server average, so disjoint sets
    ///   merge by a server-count-weighted mean (`self_servers` is the number
    ///   of servers already folded into `self`).
    pub fn fold_disjoint(
        &mut self,
        other: &QueueSummary,
        self_servers: usize,
        other_servers: usize,
    ) {
        self.mean_total_backlog += other.mean_total_backlog;
        self.max_total_backlog += other.max_total_backlog;
        self.worst_mean_queue = self.worst_mean_queue.max(other.worst_mean_queue);
        let total = self_servers + other_servers;
        if total > 0 {
            self.mean_idle_fraction = (self.mean_idle_fraction * self_servers as f64
                + other.mean_idle_fraction * other_servers as f64)
                / total as f64;
        }
    }
}

/// Degradation statistics of a run under an active fault/churn/staleness
/// scenario (see `crates/sim/src/scenario.rs`). Counted over **all** rounds
/// (warm-up included — the scenario does not pause while statistics do),
/// with the same saturating, mergeable discipline as the run counters: the
/// sharded engine merges per-shard metrics by saturating addition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DegradationMetrics {
    /// Total server-rounds spent down (summed over servers).
    pub server_down_rounds: u64,
    /// Total dispatcher-rounds spent offline (summed over dispatchers).
    pub dispatcher_offline_rounds: u64,
    /// Jobs that arrived at an offline dispatcher (or while no server was
    /// up) and were lost.
    pub arrivals_lost: u64,
    /// Probes of the probe-marking policies (LSQ, LED) lost to the
    /// scenario's probe-loss process.
    pub probes_dropped: u64,
    /// Dispatcher-rounds in which an online dispatcher decided on a stale
    /// (at least one round old) queue view.
    pub stale_decision_rounds: u64,
    /// Rounds in which one server received a strict majority of the round's
    /// dispatched jobs (of at least two) — the herding indicator the stale-
    /// information experiments track.
    pub herding_rounds: u64,
    /// Shards of a process-fabric run whose workers exhausted their retries
    /// and contributed nothing to the merged report. Zero for in-process
    /// runs and clean fabric runs; nonzero marks a **partial** merge whose
    /// statistics cover only the surviving sub-systems.
    pub shards_lost: u64,
    /// Simulated rounds forfeited with the lost shards (`shards_lost ×
    /// rounds per shard`) — the work a rerun from the same seeds would have
    /// to redo to complete the experiment.
    pub rounds_lost: u64,
    /// Checkpoint frames taken and verified across the run's workers (zero
    /// for in-process runs and for fabric runs with checkpointing off).
    pub checkpoints_taken: u64,
    /// Simulated rounds re-executed after crash recoveries: for each retry,
    /// the rounds between the resume point (the last verified checkpoint,
    /// or round 0 for a retry-from-seed) and the furthest progress the dead
    /// worker had reported. Measures the work checkpointing saved — or, for
    /// seed retries, the work it would have saved.
    pub rounds_replayed: u64,
}

impl DegradationMetrics {
    /// Accumulates another disjoint slice of the run (saturating, like the
    /// shard merge of the run counters).
    pub fn merge(&mut self, other: &DegradationMetrics) {
        self.server_down_rounds = self
            .server_down_rounds
            .saturating_add(other.server_down_rounds);
        self.dispatcher_offline_rounds = self
            .dispatcher_offline_rounds
            .saturating_add(other.dispatcher_offline_rounds);
        self.arrivals_lost = self.arrivals_lost.saturating_add(other.arrivals_lost);
        self.probes_dropped = self.probes_dropped.saturating_add(other.probes_dropped);
        self.stale_decision_rounds = self
            .stale_decision_rounds
            .saturating_add(other.stale_decision_rounds);
        self.herding_rounds = self.herding_rounds.saturating_add(other.herding_rounds);
        self.shards_lost = self.shards_lost.saturating_add(other.shards_lost);
        self.rounds_lost = self.rounds_lost.saturating_add(other.rounds_lost);
        self.checkpoints_taken = self
            .checkpoints_taken
            .saturating_add(other.checkpoints_taken);
        self.rounds_replayed = self.rounds_replayed.saturating_add(other.rounds_replayed);
    }
}

/// The result of simulating one policy on one configuration.
///
/// `PartialEq` compares every collected statistic, which is what the
/// parallel-runner equivalence guarantees ("bit-identical reports") are
/// asserted with.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Display name of the policy that produced this report.
    pub policy: String,
    /// Number of simulated rounds.
    pub rounds: u64,
    /// Warm-up rounds excluded from statistics.
    pub warmup_rounds: u64,
    /// The offered load of the configuration.
    pub offered_load: f64,
    /// Number of jobs dispatched during measured (post-warm-up) rounds.
    pub jobs_dispatched: u64,
    /// Number of measured jobs that completed before the run ended.
    pub jobs_completed: u64,
    /// Jobs still queued at the end of the run (censored response times).
    pub jobs_in_flight: u64,
    /// Exact distribution of job response times, in rounds.
    pub response_times: ResponseTimeHistogram,
    /// Queue-length statistics.
    pub queues: QueueSummary,
    /// Dense queue-length occupancy histogram: `queue_occupancy[k]` =
    /// number of (server, round) observations with queue length exactly
    /// `k` over the measured rounds, lengths at or above
    /// [`QueueLengthTracker::OCCUPANCY_CLAMP`](scd_metrics::QueueLengthTracker::OCCUPANCY_CLAMP)
    /// sharing the top bucket. Normalizing
    /// ([`Self::queue_length_distribution`]) yields the empirical
    /// steady-state distribution the mean-field oracle checks against.
    pub queue_occupancy: Vec<u64>,
    /// Wall-clock times (in microseconds) of individual dispatching
    /// decisions, present when the run was configured with
    /// `measure_decision_times`. Recorded into a fixed log-bucketed
    /// histogram so the measured hot path stays allocation-free.
    pub decision_times_us: Option<DecisionTimeHistogram>,
    /// Degradation statistics, present exactly when the run's scenario was
    /// active (`None` on the fair-weather fast path).
    pub degradation: Option<DegradationMetrics>,
}

impl SimReport {
    /// Mean response time in rounds.
    pub fn mean_response_time(&self) -> f64 {
        self.response_times.mean()
    }

    /// A quantile of the response-time distribution.
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 1]`.
    pub fn response_time_percentile(&self, p: f64) -> u64 {
        self.response_times.percentile(p)
    }

    /// Compact summary of the response-time distribution.
    pub fn summary(&self) -> HistogramSummary {
        self.response_times.summary()
    }

    /// The empirical queue-length distribution: [`Self::queue_occupancy`]
    /// normalized by its total mass, so `queue_length_distribution()[k]` is
    /// the fraction of (server, round) observations at queue length `k`.
    /// Empty when no rounds were measured.
    pub fn queue_length_distribution(&self) -> Vec<f64> {
        let mass = self
            .queue_occupancy
            .iter()
            .fold(0u128, |acc, &c| acc + u128::from(c));
        if mass == 0 {
            return Vec::new();
        }
        self.queue_occupancy
            .iter()
            .map(|&c| c as f64 / mass as f64)
            .collect()
    }

    /// Fraction of measured jobs that were still queued when the simulation
    /// ended (their response times are censored and not part of the
    /// histogram). Large values indicate an unstable or overloaded system.
    pub fn censored_fraction(&self) -> f64 {
        if self.jobs_dispatched == 0 {
            0.0
        } else {
            self.jobs_in_flight as f64 / self.jobs_dispatched as f64
        }
    }

    /// One-line human-readable description used by examples and binaries.
    pub fn one_liner(&self) -> String {
        format!(
            "{:<10} load={:.2} mean={:.3} p99={:<4} backlog(avg)={:.1} censored={:.3}%",
            self.policy,
            self.offered_load,
            self.mean_response_time(),
            self.response_time_percentile(0.99),
            self.queues.mean_total_backlog,
            100.0 * self.censored_fraction(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_report() -> SimReport {
        let mut hist = ResponseTimeHistogram::new();
        for rt in [1u64, 2, 2, 3, 50] {
            hist.record(rt);
        }
        SimReport {
            policy: "TEST".into(),
            rounds: 100,
            warmup_rounds: 10,
            offered_load: 0.9,
            jobs_dispatched: 10,
            jobs_completed: 5,
            jobs_in_flight: 5,
            response_times: hist,
            queues: QueueSummary {
                mean_total_backlog: 4.0,
                max_total_backlog: 9.0,
                worst_mean_queue: 2.5,
                mean_idle_fraction: 0.25,
            },
            queue_occupancy: vec![6, 3, 1],
            decision_times_us: None,
            degradation: None,
        }
    }

    #[test]
    fn degradation_metrics_merge_saturating() {
        let mut a = DegradationMetrics {
            server_down_rounds: 5,
            dispatcher_offline_rounds: 2,
            arrivals_lost: 7,
            probes_dropped: 1,
            stale_decision_rounds: 3,
            herding_rounds: u64::MAX,
            shards_lost: 1,
            rounds_lost: u64::MAX - 3,
            checkpoints_taken: 2,
            rounds_replayed: u64::MAX - 1,
        };
        let b = DegradationMetrics {
            server_down_rounds: 1,
            dispatcher_offline_rounds: 0,
            arrivals_lost: 3,
            probes_dropped: 9,
            stale_decision_rounds: 0,
            herding_rounds: 1,
            shards_lost: 2,
            rounds_lost: 800,
            checkpoints_taken: 3,
            rounds_replayed: 400,
        };
        a.merge(&b);
        assert_eq!(a.server_down_rounds, 6);
        assert_eq!(a.arrivals_lost, 10);
        assert_eq!(a.probes_dropped, 10);
        assert_eq!(a.herding_rounds, u64::MAX, "merge must saturate");
        assert_eq!(a.shards_lost, 3);
        assert_eq!(a.rounds_lost, u64::MAX, "lost-round accounting saturates");
        assert_eq!(a.checkpoints_taken, 5);
        assert_eq!(a.rounds_replayed, u64::MAX, "replay accounting saturates");
        assert_eq!(DegradationMetrics::default(), DegradationMetrics::default());
    }

    #[test]
    fn derived_statistics_are_consistent() {
        let report = dummy_report();
        assert!((report.mean_response_time() - 11.6).abs() < 1e-9);
        assert_eq!(report.response_time_percentile(1.0), 50);
        assert_eq!(report.summary().count, 5);
        assert!((report.censored_fraction() - 0.5).abs() < 1e-12);
        let line = report.one_liner();
        assert!(line.contains("TEST"));
        assert!(line.contains("p99"));
    }

    #[test]
    fn fold_disjoint_applies_the_documented_merge_rules() {
        let mut a = QueueSummary {
            mean_total_backlog: 4.0,
            max_total_backlog: 9.0,
            worst_mean_queue: 2.5,
            mean_idle_fraction: 0.25,
        };
        let b = QueueSummary {
            mean_total_backlog: 6.0,
            max_total_backlog: 1.0,
            worst_mean_queue: 1.0,
            mean_idle_fraction: 0.75,
        };
        a.fold_disjoint(&b, 3, 1);
        assert!((a.mean_total_backlog - 10.0).abs() < 1e-12);
        assert!((a.max_total_backlog - 10.0).abs() < 1e-12);
        assert!((a.worst_mean_queue - 2.5).abs() < 1e-12);
        // (0.25 · 3 + 0.75 · 1) / 4 = 0.375.
        assert!((a.mean_idle_fraction - 0.375).abs() < 1e-12);
    }

    #[test]
    fn censored_fraction_handles_empty_runs() {
        let mut report = dummy_report();
        report.jobs_dispatched = 0;
        report.jobs_in_flight = 0;
        assert_eq!(report.censored_fraction(), 0.0);
    }
}
