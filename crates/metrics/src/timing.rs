//! Count-bucketed timing histogram for decision-time measurement.
//!
//! The decision-time experiments (Figures 5 and 8) time every dispatching
//! decision of a live simulation. Recording those wall-clock samples into a
//! growable raw-sample vector would make the *measured* engine configuration
//! allocate on the hot path — exactly the overhead the measurement is
//! supposed to observe, not introduce. A [`DecisionTimeHistogram`] records
//! into a fixed-size log-scale bucket array instead: recording is a
//! subtraction, a couple of shifts and two adds — `O(1)`, allocation-free,
//! and independent of how many samples arrive.
//!
//! # Bucket layout
//!
//! Values are microseconds. Each power of two between `2⁻¹⁰ µs` (≈ 1 ns) and
//! `2²³ µs` (≈ 8.4 s) is split into 8 geometric sub-buckets (3 mantissa
//! bits), giving ≤ ~9 % relative quantization error per bucket — far below
//! the run-to-run noise of wall-clock timing. Out-of-range values land in
//! dedicated underflow/overflow buckets. The exact minimum, maximum, sum and
//! count are tracked on the side, so `mean()`, `min()` and `max()` are exact;
//! only interior percentiles are quantized to bucket representatives.

/// Mantissa bits per bucket: 2³ = 8 sub-buckets per octave.
const SUB_BITS: u32 = 3;
/// Smallest bucketed exponent: values below `2^MIN_EXP` µs underflow.
const MIN_EXP: i32 = -10;
/// Largest bucketed exponent: values at or above `2^MAX_EXP` µs overflow.
const MAX_EXP: i32 = 23;
/// Interior buckets (octaves × sub-buckets).
const INTERIOR: usize = ((MAX_EXP - MIN_EXP) as usize) << SUB_BITS;
/// Total buckets: underflow + interior + overflow.
const BUCKETS: usize = INTERIOR + 2;

/// Fixed-size log-bucketed histogram of non-negative `f64` timings
/// (microseconds).
///
/// # Example
/// ```
/// use scd_metrics::DecisionTimeHistogram;
/// let mut h = DecisionTimeHistogram::new();
/// for t in [1.0, 2.0, 4.0, 100.0] {
///     h.record(t);
/// }
/// assert_eq!(h.len(), 4);
/// assert!((h.mean() - 26.75).abs() < 1e-12);
/// assert_eq!(h.max(), 100.0);
/// // Percentiles are quantized to <= ~9% by the bucket width.
/// assert!((h.percentile(0.5) - 2.0).abs() / 2.0 < 0.1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTimeHistogram {
    /// Bucket occupancy: `[underflow, interior..., overflow]`.
    counts: Vec<u64>,
    /// Total number of recorded samples.
    count: u64,
    /// Exact sum of all samples (for the exact mean).
    sum: f64,
    /// Exact minimum sample (`+∞` while empty).
    min: f64,
    /// Exact maximum sample (`-∞` while empty).
    max: f64,
}

impl Default for DecisionTimeHistogram {
    fn default() -> Self {
        DecisionTimeHistogram::new()
    }
}

impl DecisionTimeHistogram {
    /// Creates an empty histogram (one fixed allocation, ~2 KiB).
    pub fn new() -> Self {
        DecisionTimeHistogram {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The bucket index of a non-negative sample.
    #[inline]
    fn bucket_of(sample: f64) -> usize {
        if sample < (2.0f64).powi(MIN_EXP) {
            return 0;
        }
        if sample >= (2.0f64).powi(MAX_EXP) {
            return BUCKETS - 1;
        }
        let bits = sample.to_bits();
        let exp = ((bits >> 52) & 0x7FF) as i32 - 1023;
        let sub = ((bits >> (52 - SUB_BITS)) & ((1 << SUB_BITS) - 1)) as usize;
        1 + ((((exp - MIN_EXP) as usize) << SUB_BITS) | sub)
    }

    /// The representative value (geometric bucket midpoint) of a bucket.
    fn representative(bucket: usize) -> f64 {
        if bucket == 0 {
            return 0.0;
        }
        if bucket == BUCKETS - 1 {
            return (2.0f64).powi(MAX_EXP);
        }
        let interior = bucket - 1;
        let exp = MIN_EXP + (interior >> SUB_BITS) as i32;
        let sub = (interior & ((1 << SUB_BITS) - 1)) as f64;
        (2.0f64).powi(exp) * (1.0 + (sub + 0.5) / (1 << SUB_BITS) as f64)
    }

    /// Records one timing sample, `O(1)` and allocation-free.
    ///
    /// # Panics
    /// Panics on NaN or negative samples — both indicate a harness bug.
    pub fn record(&mut self, sample: f64) {
        assert!(
            sample >= 0.0,
            "timing samples must be non-negative, got {sample}"
        );
        self.counts[Self::bucket_of(sample)] += 1;
        self.count += 1;
        self.sum += sample;
        self.min = self.min.min(sample);
        self.max = self.max.max(sample);
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact mean of the samples; 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Exact minimum sample; 0.0 when empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Exact maximum sample; 0.0 when empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// The `p`-quantile (`p ∈ [0, 1]`, nearest-rank), quantized to the
    /// containing bucket's representative and clamped to the exact observed
    /// `[min, max]` range; the extremes `p = 0` and `p = 1` return the exact
    /// minimum/maximum. Returns 0.0 for an empty histogram.
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 1]`.
    pub fn percentile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "percentile {p} must be in [0, 1]");
        if self.count == 0 {
            return 0.0;
        }
        if p == 0.0 {
            return self.min;
        }
        if p == 1.0 {
            return self.max;
        }
        let rank = ((p * self.count as f64).ceil().max(1.0)) as u64;
        let mut seen = 0u64;
        for (bucket, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::representative(bucket).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Extracts `points` evenly spaced CDF points `(value, P[X ≤ value])` —
    /// the series plotted in Figures 5 and 8. Empty when no samples were
    /// recorded.
    pub fn cdf(&self, points: usize) -> Vec<(f64, f64)> {
        if self.count == 0 || points == 0 {
            return Vec::new();
        }
        (1..=points)
            .map(|i| {
                let q = i as f64 / points as f64;
                (self.percentile(q), q)
            })
            .collect()
    }

    /// The fixed-size bucket occupancy (`[underflow, interior...,
    /// overflow]`), exposed for wire codecs.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// The exact side-band accumulators `(count, sum, min, max)`, exposed
    /// for wire codecs. `min`/`max` are the raw sentinel values (`+∞`/`-∞`
    /// while empty), not the 0.0 the public `min()`/`max()` report for an
    /// empty histogram — a codec must transport them verbatim to reassemble
    /// the histogram bit for bit.
    pub fn raw_parts(&self) -> (u64, f64, f64, f64) {
        (self.count, self.sum, self.min, self.max)
    }

    /// Reassembles a histogram from the raw parts a wire codec transports.
    /// The inverse of [`Self::bucket_counts`] + [`Self::raw_parts`]:
    /// `from_raw_parts(h.bucket_counts().to_vec(), h.raw_parts()) == h` bit
    /// for bit, empty-histogram sentinels and saturated counters included.
    ///
    /// # Errors
    /// Returns a message when the counts vector does not have exactly the
    /// fixed bucket layout length — the layout is a compile-time constant,
    /// so any other length is a corrupt or incompatible frame.
    pub fn from_raw_parts(
        counts: Vec<u64>,
        (count, sum, min, max): (u64, f64, f64, f64),
    ) -> Result<Self, String> {
        if counts.len() != BUCKETS {
            return Err(format!(
                "decision-time histogram has {} buckets, expected the fixed layout of {BUCKETS}",
                counts.len()
            ));
        }
        Ok(DecisionTimeHistogram {
            counts,
            count,
            sum,
            min,
            max,
        })
    }

    /// Merges another histogram into this one.
    ///
    /// Bucket and sample counts saturate at `u64::MAX` instead of wrapping:
    /// the `--replications` tail sweeps merge one histogram per replication,
    /// and a wrapped counter would silently corrupt every percentile of the
    /// merged tail, whereas a saturated one only pins the (astronomically
    /// unreachable) top of the range.
    pub fn merge(&mut self, other: &DecisionTimeHistogram) {
        crate::counts::merge_saturating_counts(&mut self.counts, &other.counts);
        self.count = self.count.saturating_add(other.count);
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_harmless() {
        let h = DecisionTimeHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.len(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.percentile(0.5), 0.0);
        assert!(h.cdf(10).is_empty());
    }

    #[test]
    fn mean_min_max_are_exact() {
        let mut h = DecisionTimeHistogram::new();
        for t in [0.37, 12.25, 3.5, 1000.125] {
            h.record(t);
        }
        assert_eq!(h.len(), 4);
        assert!((h.mean() - (0.37 + 12.25 + 3.5 + 1000.125) / 4.0).abs() < 1e-12);
        assert_eq!(h.min(), 0.37);
        assert_eq!(h.max(), 1000.125);
    }

    #[test]
    fn percentiles_stay_within_bucket_resolution() {
        let mut h = DecisionTimeHistogram::new();
        // 1..=1000 µs uniformly.
        for i in 1..=1000 {
            h.record(i as f64);
        }
        for (p, exact) in [(0.1, 100.0), (0.5, 500.0), (0.9, 900.0), (0.99, 990.0)] {
            let got = h.percentile(p);
            let rel = (got - exact).abs() / exact;
            assert!(rel < 0.10, "p{p}: got {got}, exact {exact} (rel {rel})");
        }
        assert_eq!(h.percentile(0.0), 1.0);
        assert_eq!(h.percentile(1.0), 1000.0);
    }

    #[test]
    fn out_of_range_samples_land_in_sentinel_buckets() {
        let mut h = DecisionTimeHistogram::new();
        h.record(0.0); // underflow bucket
        h.record(1e12); // overflow bucket (≫ 2^23 µs)
        assert_eq!(h.len(), 2);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 1e12);
        // Percentiles clamp to the exact observed range.
        assert_eq!(h.percentile(0.0), 0.0);
        assert_eq!(h.percentile(1.0), 1e12);
    }

    #[test]
    fn cdf_points_are_monotone_and_cover_the_range() {
        let mut h = DecisionTimeHistogram::new();
        for i in 1..=200 {
            h.record(i as f64 * 0.5);
        }
        let cdf = h.cdf(20);
        assert_eq!(cdf.len(), 20);
        for w in cdf.windows(2) {
            assert!(w[1].0 >= w[0].0);
            assert!(w[1].1 > w[0].1);
        }
        assert_eq!(cdf.last().unwrap().0, 100.0);
    }

    #[test]
    fn merge_accumulates_counts_and_extremes() {
        let mut a = DecisionTimeHistogram::new();
        let mut b = DecisionTimeHistogram::new();
        a.record(1.0);
        a.record(2.0);
        b.record(50.0);
        a.merge(&b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.max(), 50.0);
        assert!((a.mean() - 53.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn merge_saturates_instead_of_wrapping_on_count_overflow() {
        let mut a = DecisionTimeHistogram::new();
        let mut b = DecisionTimeHistogram::new();
        a.record(2.0);
        b.record(2.0);
        b.record(4.0);
        // Forge near-overflow counters (fields are module-visible): one more
        // merge used to wrap them back to ~0 and corrupt every percentile.
        let bucket = DecisionTimeHistogram::bucket_of(2.0);
        a.counts[bucket] = u64::MAX - 1;
        a.count = u64::MAX - 1;
        a.merge(&b);
        assert_eq!(a.counts[bucket], u64::MAX, "bucket count must saturate");
        assert_eq!(a.count, u64::MAX, "sample count must saturate");
        // The histogram stays ordered and usable after saturation: the
        // median lands in the (bucket-quantized) 2 µs bucket, not near zero
        // as it would after a wrap.
        let p50 = a.percentile(0.5);
        assert!(
            (p50 - 2.0).abs() / 2.0 < 0.1,
            "median {p50} should be ~2 µs"
        );
        assert_eq!(a.max(), 4.0);
    }

    #[test]
    fn raw_parts_round_trip_bit_for_bit() {
        let mut h = DecisionTimeHistogram::new();
        for t in [0.0, 0.37, 12.25, 1e12] {
            h.record(t);
        }
        let copy = DecisionTimeHistogram::from_raw_parts(h.bucket_counts().to_vec(), h.raw_parts())
            .unwrap();
        assert_eq!(copy, h);
        // The empty histogram round-trips, infinite min/max sentinels and
        // all — from_raw_parts must not normalize them to 0.0.
        let empty = DecisionTimeHistogram::new();
        let (count, sum, min, max) = empty.raw_parts();
        assert_eq!(count, 0);
        assert_eq!(sum, 0.0);
        assert_eq!(min, f64::INFINITY);
        assert_eq!(max, f64::NEG_INFINITY);
        assert_eq!(
            DecisionTimeHistogram::from_raw_parts(
                empty.bucket_counts().to_vec(),
                empty.raw_parts()
            )
            .unwrap(),
            empty
        );
        // Any other bucket count is an incompatible layout.
        assert!(DecisionTimeHistogram::from_raw_parts(vec![0; 7], (0, 0.0, 0.0, 0.0)).is_err());
    }

    #[test]
    fn equal_recordings_compare_equal() {
        let mut a = DecisionTimeHistogram::new();
        let mut b = DecisionTimeHistogram::new();
        for t in [3.0, 7.0, 9.5] {
            a.record(t);
            b.record(t);
        }
        assert_eq!(a, b);
        b.record(1.0);
        assert_ne!(a, b);
        assert_eq!(DecisionTimeHistogram::new(), DecisionTimeHistogram::new());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_samples_are_rejected() {
        DecisionTimeHistogram::new().record(-1.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn nan_samples_are_rejected() {
        // NaN fails the >= 0.0 comparison, same assertion.
        DecisionTimeHistogram::new().record(f64::NAN);
    }
}
