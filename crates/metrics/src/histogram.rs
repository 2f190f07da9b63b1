//! Exact integer-valued response-time histogram.
//!
//! Response times in the paper's model are measured in whole rounds (a job
//! arrives at a dispatcher in round `t0` and departs from its server at the
//! end of round `t1 ≥ t0`; its response time is `t1 - t0 + 1`). Because the
//! support is small integers, we can afford to store the *exact* distribution
//! as a dense vector of counts, which makes means, arbitrary percentiles and
//! CCDF extraction exact rather than approximate — important when the paper
//! compares policies at the 1e-4 .. 1e-6 tail probabilities.

/// Exact histogram of integer response times (in rounds).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResponseTimeHistogram {
    /// `counts[r]` = number of jobs whose response time was exactly `r` rounds.
    counts: Vec<u64>,
    /// Total number of recorded jobs.
    total: u64,
    /// Sum of all recorded response times (for the exact mean).
    sum: u128,
}

impl ResponseTimeHistogram {
    /// Largest individually tracked response time, in rounds. Anything at or
    /// above this value is clamped into the capped overflow bucket at index
    /// `MAX_RESPONSE_TIME` (and contributes the clamped value to the mean);
    /// [`Self::count_at`]`(MAX_RESPONSE_TIME)` exposes the clamped mass.
    ///
    /// The dense `counts` vector used to be resized to `response_time + 1`,
    /// so a single pathological censored response time (e.g. `u64::MAX` from
    /// an upstream arithmetic bug) would try to allocate gigabytes. The cap
    /// bounds the vector at ~8 MiB in the worst case (it still grows only
    /// to the largest value actually recorded). A completed job's response
    /// time is bounded by the run length, and paper-scale runs are `10⁵`
    /// rounds — an order of magnitude below the cap — so at those scales
    /// only corrupt values are clamped. Runs longer than the cap *can*
    /// censor legitimate extreme tails into the overflow bucket;
    /// [`Self::overflow_count`] exposes the clamped mass so that case is
    /// detectable rather than silent.
    pub const MAX_RESPONSE_TIME: u64 = 1 << 20;

    /// Creates an empty histogram.
    pub fn new() -> Self {
        ResponseTimeHistogram::default()
    }

    /// Records one job with the given response time (in rounds).
    ///
    /// Response times at or above [`Self::MAX_RESPONSE_TIME`] are clamped
    /// into the overflow bucket; counts saturate instead of wrapping
    /// (matching the [`DecisionTimeHistogram`](crate::DecisionTimeHistogram)
    /// merge convention), so a pathological input can pin the top of the
    /// range but never corrupt the distribution below it.
    pub fn record(&mut self, response_time: u64) {
        self.record_many(response_time, 1);
    }

    /// Records `count` jobs with the same response time (same clamping and
    /// saturation rules as [`Self::record`]).
    pub fn record_many(&mut self, response_time: u64, count: u64) {
        if count == 0 {
            return;
        }
        let clamped = response_time.min(Self::MAX_RESPONSE_TIME);
        let idx = clamped as usize;
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] = self.counts[idx].saturating_add(count);
        self.total = self.total.saturating_add(count);
        self.sum = self
            .sum
            .saturating_add(u128::from(clamped) * u128::from(count));
    }

    /// Number of recorded jobs.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// True when no job has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Exact mean response time; 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Largest recorded response time; 0 when empty.
    pub fn max(&self) -> u64 {
        self.counts
            .iter()
            .enumerate()
            .rev()
            .find(|(_, &c)| c > 0)
            .map(|(r, _)| r as u64)
            .unwrap_or(0)
    }

    /// Smallest recorded response time; 0 when empty.
    pub fn min(&self) -> u64 {
        self.counts
            .iter()
            .enumerate()
            .find(|(_, &c)| c > 0)
            .map(|(r, _)| r as u64)
            .unwrap_or(0)
    }

    /// Number of jobs clamped into the capped overflow bucket (response
    /// times at or above [`Self::MAX_RESPONSE_TIME`]). Nonzero means the
    /// recorded `max`/percentiles/mean under-report the true tail — either
    /// a corrupt input or a run longer than the cap.
    pub fn overflow_count(&self) -> u64 {
        self.count_at(Self::MAX_RESPONSE_TIME)
    }

    /// Number of jobs whose response time was exactly `response_time`.
    pub fn count_at(&self, response_time: u64) -> u64 {
        self.counts
            .get(response_time as usize)
            .copied()
            .unwrap_or(0)
    }

    /// The `p`-quantile (`p` in `[0, 1]`) of the recorded response times,
    /// using the "smallest value with CDF ≥ p" convention so that
    /// `percentile(1.0) == max()`.
    ///
    /// Returns 0 for an empty histogram.
    ///
    /// # Panics
    /// Panics if `p` is not within `[0, 1]`.
    pub fn percentile(&self, p: f64) -> u64 {
        assert!((0.0..=1.0).contains(&p), "percentile {p} must be in [0, 1]");
        if self.total == 0 {
            return 0;
        }
        let threshold = (p * self.total as f64).ceil().max(1.0) as u64;
        let mut acc = 0u64;
        for (r, &c) in self.counts.iter().enumerate() {
            // Saturating: a bucket pinned at u64::MAX by the record/merge
            // saturation rules must not wrap the running rank (a wrapped
            // accumulator skips past the heavy bucket and mis-reports the
            // percentile; debug builds would panic).
            acc = acc.saturating_add(c);
            if acc >= threshold {
                return r as u64;
            }
        }
        self.max()
    }

    /// The complementary cumulative distribution function evaluated at `r`:
    /// `P[response time > r]`. Returns 0.0 for an empty histogram.
    pub fn ccdf_at(&self, r: u64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let above = self
            .counts
            .iter()
            .enumerate()
            .filter(|(v, _)| *v as u64 > r)
            .fold(0u64, |acc, (_, &c)| acc.saturating_add(c));
        above as f64 / self.total as f64
    }

    /// The full CCDF as `(response time, P[RT > response time])` pairs for
    /// every response time value in the support, in increasing order. This is
    /// exactly the series plotted in Figures 3b, 4b, 6b and 7b of the paper.
    pub fn ccdf(&self) -> Vec<(u64, f64)> {
        if self.total == 0 {
            return Vec::new();
        }
        let mut out = Vec::new();
        let mut above = self.total;
        for (r, &c) in self.counts.iter().enumerate() {
            // Saturating: once counters have saturated, `total` may be
            // smaller than the sum of buckets — clamp at zero rather than
            // underflowing.
            above = above.saturating_sub(c);
            if c > 0 || r == 0 {
                out.push((r as u64, above as f64 / self.total as f64));
            }
        }
        out
    }

    /// Merges another histogram into this one.
    ///
    /// Bucket and total counts saturate at `u64::MAX` instead of wrapping —
    /// the sharded engine and the `--replications` sweeps merge one
    /// histogram per shard/replication, and a wrapped counter would silently
    /// corrupt every percentile of the merged distribution.
    pub fn merge(&mut self, other: &ResponseTimeHistogram) {
        crate::counts::merge_saturating_counts(&mut self.counts, &other.counts);
        self.total = self.total.saturating_add(other.total);
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// The dense per-value bucket counts (`counts[r]` = jobs with response
    /// time exactly `r`), exposed for wire codecs. The slice only extends to
    /// the largest recorded value.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// The exact sum of all recorded (clamped) response times, exposed for
    /// wire codecs — `record_many` cannot reconstruct a saturated histogram,
    /// so a codec must transport the accumulator verbatim.
    pub fn raw_sum(&self) -> u128 {
        self.sum
    }

    /// Reassembles a histogram from the raw parts a wire codec transports:
    /// the dense bucket counts, the total job count and the response-time
    /// sum. The inverse of reading [`Self::bucket_counts`], [`Self::count`]
    /// and [`Self::raw_sum`] — `from_raw_parts(h.bucket_counts().to_vec(),
    /// h.count(), h.raw_sum()) == h` bit for bit, saturated counters
    /// included.
    ///
    /// # Errors
    /// Returns a message when the counts vector extends beyond the
    /// [`Self::MAX_RESPONSE_TIME`] overflow bucket (a well-formed histogram
    /// can never grow past it, so longer input is corrupt, not merely
    /// unusual).
    pub fn from_raw_parts(counts: Vec<u64>, total: u64, sum: u128) -> Result<Self, String> {
        if counts.len() > Self::MAX_RESPONSE_TIME as usize + 1 {
            return Err(format!(
                "response-time histogram has {} buckets, beyond the overflow cap {}",
                counts.len(),
                Self::MAX_RESPONSE_TIME + 1
            ));
        }
        Ok(ResponseTimeHistogram { counts, total, sum })
    }

    /// A compact numeric summary (mean, p50, p95, p99, p999, max, count).
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.total,
            mean: self.mean(),
            p50: self.percentile(0.50),
            p95: self.percentile(0.95),
            p99: self.percentile(0.99),
            p999: self.percentile(0.999),
            max: self.max(),
        }
    }
}

/// A compact summary of a [`ResponseTimeHistogram`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Number of jobs recorded.
    pub count: u64,
    /// Mean response time (rounds).
    pub mean: f64,
    /// Median response time.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
    /// Maximum recorded response time.
    pub max: u64,
}

impl std::fmt::Display for HistogramSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} mean={:.3} p50={} p95={} p99={} p99.9={} max={}",
            self.count, self.mean, self.p50, self.p95, self.p99, self.p999, self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist_from(values: &[u64]) -> ResponseTimeHistogram {
        let mut h = ResponseTimeHistogram::new();
        for &v in values {
            h.record(v);
        }
        h
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = ResponseTimeHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h.ccdf_at(3), 0.0);
        assert!(h.ccdf().is_empty());
    }

    #[test]
    fn mean_and_extremes_are_exact() {
        let h = hist_from(&[1, 1, 2, 3, 10]);
        assert_eq!(h.count(), 5);
        assert!((h.mean() - 3.4).abs() < 1e-12);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 10);
        assert_eq!(h.count_at(1), 2);
        assert_eq!(h.count_at(7), 0);
    }

    #[test]
    fn percentiles_match_naive_definition() {
        let values = [3u64, 1, 4, 1, 5, 9, 2, 6, 5, 3];
        let h = hist_from(&values);
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        for &(p, _) in &[(0.0, 0usize), (0.1, 0), (0.5, 4), (0.9, 8), (1.0, 9)] {
            let expected = {
                let rank = ((p * values.len() as f64).ceil().max(1.0) as usize) - 1;
                sorted[rank.min(values.len() - 1)]
            };
            assert_eq!(h.percentile(p), expected, "p = {p}");
        }
    }

    #[test]
    fn percentile_one_equals_max() {
        let h = hist_from(&[2, 2, 100]);
        assert_eq!(h.percentile(1.0), 100);
        assert_eq!(h.percentile(0.99), 100);
        assert_eq!(h.percentile(0.5), 2);
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1]")]
    fn percentile_out_of_range_panics() {
        hist_from(&[1]).percentile(1.5);
    }

    #[test]
    fn ccdf_is_a_proper_tail_function() {
        let h = hist_from(&[1, 1, 2, 4]);
        assert!((h.ccdf_at(0) - 1.0).abs() < 1e-12);
        assert!((h.ccdf_at(1) - 0.5).abs() < 1e-12);
        assert!((h.ccdf_at(2) - 0.25).abs() < 1e-12);
        assert!((h.ccdf_at(3) - 0.25).abs() < 1e-12);
        assert!((h.ccdf_at(4) - 0.0).abs() < 1e-12);

        let series = h.ccdf();
        // Monotonically non-increasing tail probabilities.
        for w in series.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        // Last point has zero tail mass.
        assert_eq!(series.last().unwrap().1, 0.0);
    }

    #[test]
    fn record_many_matches_repeated_record() {
        let mut a = ResponseTimeHistogram::new();
        a.record_many(5, 1000);
        a.record_many(2, 0);
        let mut b = ResponseTimeHistogram::new();
        for _ in 0..1000 {
            b.record(5);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn merge_combines_counts_and_sums() {
        let mut a = hist_from(&[1, 2, 3]);
        let b = hist_from(&[3, 4, 100]);
        a.merge(&b);
        assert_eq!(a.count(), 6);
        assert_eq!(a.count_at(3), 2);
        assert_eq!(a.max(), 100);
        let expected_mean = (1 + 2 + 3 + 3 + 4 + 100) as f64 / 6.0;
        assert!((a.mean() - expected_mean).abs() < 1e-12);
    }

    #[test]
    fn pathological_response_times_land_in_the_overflow_bucket() {
        // A censored/corrupted response time used to resize the dense counts
        // vector to `response_time + 1` entries — `u64::MAX` meant an
        // instant multi-gigabyte allocation. It must clamp instead.
        let mut h = ResponseTimeHistogram::new();
        h.record(u64::MAX);
        h.record(ResponseTimeHistogram::MAX_RESPONSE_TIME + 123);
        h.record_many(u64::MAX - 7, 3);
        assert_eq!(h.count(), 5);
        assert_eq!(
            h.count_at(ResponseTimeHistogram::MAX_RESPONSE_TIME),
            5,
            "all pathological values share the capped overflow bucket"
        );
        assert_eq!(h.max(), ResponseTimeHistogram::MAX_RESPONSE_TIME);
        assert_eq!(h.overflow_count(), 5, "clamped mass must be detectable");
        assert!(
            h.counts.len() <= ResponseTimeHistogram::MAX_RESPONSE_TIME as usize + 1,
            "the dense vector must stay bounded"
        );
        // The clamped values contribute the cap to the (clamped) mean.
        assert!((h.mean() - ResponseTimeHistogram::MAX_RESPONSE_TIME as f64).abs() < 1e-9);
        // Ordinary values below the cap are untouched.
        h.record(5);
        assert_eq!(h.count_at(5), 1);
        assert_eq!(h.min(), 5, "values below the cap are exact");
    }

    #[test]
    fn record_saturates_instead_of_wrapping() {
        // Debug builds used to panic (and release builds to wrap) when a
        // bucket or the total crossed `u64::MAX`. Both must saturate now,
        // matching the DecisionTimeHistogram merge convention.
        let mut h = ResponseTimeHistogram::new();
        h.record_many(2, u64::MAX - 1);
        h.record_many(2, 5);
        assert_eq!(h.count_at(2), u64::MAX);
        assert_eq!(h.count(), u64::MAX);
        // The distribution stays ordered and usable after saturation.
        assert_eq!(h.percentile(0.5), 2);
        assert_eq!(h.max(), 2);
    }

    #[test]
    fn queries_survive_a_saturated_bucket_after_a_nonzero_one() {
        // Regression: percentile()/ccdf_at()/ccdf() accumulated bucket
        // counts with unchecked adds, so a saturated bucket *after* an
        // earlier nonzero bucket overflowed the accumulator (debug panic,
        // release wrap → wrong percentile).
        let mut h = ResponseTimeHistogram::new();
        h.record(1);
        h.record_many(3, u64::MAX);
        assert_eq!(h.count_at(3), u64::MAX);
        assert_eq!(h.percentile(0.99), 3, "the heavy bucket holds the tail");
        assert_eq!(h.percentile(0.5), 3);
        assert!(h.ccdf_at(0) > 0.99);
        assert_eq!(h.ccdf_at(3), 0.0);
        let series = h.ccdf();
        assert_eq!(series.last().unwrap().1, 0.0);
        for w in series.windows(2) {
            assert!(w[0].1 >= w[1].1, "CCDF must stay monotone");
        }
    }

    #[test]
    fn merge_saturates_instead_of_wrapping() {
        let mut a = ResponseTimeHistogram::new();
        let mut b = ResponseTimeHistogram::new();
        a.record_many(3, u64::MAX - 1);
        b.record_many(3, 10);
        b.record(7);
        a.merge(&b);
        assert_eq!(a.count_at(3), u64::MAX, "bucket count must saturate");
        assert_eq!(a.count(), u64::MAX, "total must saturate");
        assert_eq!(a.max(), 7);
        assert_eq!(a.percentile(0.5), 3, "median must not wrap toward zero");
    }

    #[test]
    fn raw_parts_round_trip_bit_for_bit() {
        let mut h = hist_from(&[1, 2, 2, 50]);
        h.record_many(3, u64::MAX); // saturate a bucket and the total
        let copy = ResponseTimeHistogram::from_raw_parts(
            h.bucket_counts().to_vec(),
            h.count(),
            h.raw_sum(),
        )
        .unwrap();
        assert_eq!(copy, h);
        // The empty histogram round-trips too.
        let empty = ResponseTimeHistogram::new();
        assert_eq!(
            ResponseTimeHistogram::from_raw_parts(Vec::new(), 0, 0).unwrap(),
            empty
        );
        // Counts beyond the overflow cap are corrupt, not merely large.
        let too_long = vec![0u64; ResponseTimeHistogram::MAX_RESPONSE_TIME as usize + 2];
        assert!(ResponseTimeHistogram::from_raw_parts(too_long, 0, 0).is_err());
    }

    #[test]
    fn summary_fields_are_consistent() {
        let h = hist_from(&(1..=1000u64).collect::<Vec<_>>());
        let s = h.summary();
        assert_eq!(s.count, 1000);
        assert_eq!(s.p50, 500);
        assert_eq!(s.p99, 990);
        assert_eq!(s.p999, 999);
        assert_eq!(s.max, 1000);
        assert!((s.mean - 500.5).abs() < 1e-9);
        let text = s.to_string();
        assert!(text.contains("p99=990"));
    }
}
