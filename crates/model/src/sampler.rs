//! Weighted sampling of server indices.
//!
//! Stochastic-coordination policies draw the destination of every arriving
//! job from a freshly computed probability vector. With hundreds of servers
//! and potentially hundreds of jobs per dispatcher per round, the sampling
//! step itself matters for the "SCD is as cheap as JSQ" claim of the paper
//! (Section 6.3). [`AliasSampler`] is the Walker/Vose alias method: `O(n)`
//! construction, `O(1)` per draw. It is used by WR, by the SCD table for
//! batches larger than the probable prefix, and by the Algorithm 1
//! baseline.

use crate::error::ModelError;
use rand::RngCore;

/// Walker/Vose alias-method sampler over `0..n`.
///
/// # Example
/// ```
/// use scd_model::AliasSampler;
/// use rand::SeedableRng;
/// let sampler = AliasSampler::new(&[0.7, 0.2, 0.1]).unwrap();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let draw = sampler.sample(&mut rng);
/// assert!(draw < 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct AliasSampler {
    /// Probability of keeping column `i` (as opposed to its alias).
    keep: Vec<f64>,
    /// Alias column for each slot.
    alias: Vec<usize>,
    /// Construction scratch (kept so [`rebuild`](AliasSampler::rebuild) is
    /// allocation-free once the table has reached its steady-state size).
    remaining: Vec<f64>,
    small: Vec<usize>,
    large: Vec<usize>,
}

impl AliasSampler {
    /// Builds the alias table from non-negative weights (not necessarily
    /// normalized). The table keeps no construction scratch, only what
    /// draws read; a later [`rebuild`](AliasSampler::rebuild) allocates
    /// the scratch again.
    ///
    /// # Errors
    /// * [`ModelError::EmptyCluster`] for an empty weight vector;
    /// * [`ModelError::InvalidProbability`] for negative or non-finite weights;
    /// * [`ModelError::DegenerateWeights`] when every weight is zero.
    pub fn new(weights: &[f64]) -> Result<Self, ModelError> {
        let mut sampler = AliasSampler::default();
        sampler.rebuild(weights)?;
        Ok(AliasSampler {
            keep: sampler.keep,
            alias: sampler.alias,
            ..AliasSampler::default()
        })
    }

    /// Rebuilds the alias table in place from fresh weights, reusing the
    /// existing buffers. After the first round at a given cluster size this
    /// performs no heap allocations — it is the hot path of probability-based
    /// policies (SCD, TWF) that redraw their distribution every round.
    ///
    /// On error the sampler is left unchanged.
    ///
    /// # Errors
    /// Same conditions as [`AliasSampler::new`].
    pub fn rebuild(&mut self, weights: &[f64]) -> Result<(), ModelError> {
        if weights.is_empty() {
            return Err(ModelError::EmptyCluster);
        }
        for (index, &w) in weights.iter().enumerate() {
            if !w.is_finite() || w < 0.0 {
                return Err(ModelError::InvalidProbability { index, value: w });
            }
        }
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return Err(ModelError::DegenerateWeights);
        }
        self.rebuild_scaled(weights, total);
        Ok(())
    }

    /// Like [`rebuild`](AliasSampler::rebuild) for a caller that already
    /// knows the weights are valid **and** knows their sum: skips the
    /// validation and summation passes. The resulting table is
    /// **bit-identical** to `rebuild(weights)`'s provided `total` equals
    /// `weights.iter().sum::<f64>()` bit-for-bit — e.g. a sum accumulated
    /// in index order while the weights were being written (the SCD
    /// solver's normalization pass does exactly that). Both contracts are
    /// checked in debug builds.
    pub fn rebuild_with_total(&mut self, weights: &[f64], total: f64) {
        debug_assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "rebuild_with_total requires validated weights"
        );
        debug_assert_eq!(
            total.to_bits(),
            weights.iter().sum::<f64>().to_bits(),
            "rebuild_with_total requires the exact index-order sum"
        );
        assert!(
            !weights.is_empty() && total > 0.0,
            "rebuild_with_total requires a non-empty, non-degenerate weight vector"
        );
        let n = weights.len();
        // One fused pass: scale to mean 1.0 and classify small/large. The
        // table slots are resized without zeroing — the pairing and
        // leftover loops below write every slot exactly once (each index
        // exits the worklists through exactly one of them).
        let scale = n as f64 / total;
        self.remaining.clear();
        self.small.clear();
        self.large.clear();
        self.keep.resize(n, 0.0);
        self.alias.resize(n, 0);
        for (i, &w) in weights.iter().enumerate() {
            let p = w * scale;
            self.remaining.push(p);
            if p < 1.0 {
                self.small.push(i);
            } else {
                self.large.push(i);
            }
        }
        // Register-held pairing: [`pair_and_finish`] pops the active large
        // column and pushes it back every iteration (it usually survives
        // several pairings); holding it in a local until it drains performs
        // the *identical pairing sequence* — the popped small is always the
        // small stack's top, the active large is always what the large
        // stack's top would have been — so the finished table is
        // bit-identical, at a fraction of the stack traffic. The leftover
        // writes are independent (`keep = 1`, self-alias), so their order
        // does not matter either.
        let mut large_top = self.large.len();
        let mut active: Option<usize> = None;
        while let Some(&s) = self.small.last() {
            let l = match active {
                Some(l) => l,
                None => {
                    if large_top == 0 {
                        break;
                    }
                    large_top -= 1;
                    self.large[large_top]
                }
            };
            self.small.pop();
            self.keep[s] = self.remaining[s];
            self.alias[s] = l;
            self.remaining[l] = (self.remaining[l] + self.remaining[s]) - 1.0;
            if self.remaining[l] < 1.0 {
                active = None;
                self.small.push(l);
            } else {
                active = Some(l);
            }
        }
        if let Some(l) = active {
            self.keep[l] = 1.0;
            self.alias[l] = l;
        }
        for &l in &self.large[..large_top] {
            self.keep[l] = 1.0;
            self.alias[l] = l;
        }
        for &s in self.small.iter() {
            self.keep[s] = 1.0;
            self.alias[s] = s;
        }
    }

    /// The construction body shared by [`rebuild`](AliasSampler::rebuild)
    /// and [`rebuild_with_total`](AliasSampler::rebuild_with_total):
    /// everything after input validation and summation.
    fn rebuild_scaled(&mut self, weights: &[f64], total: f64) {
        let n = weights.len();

        // Scaled probabilities: mean 1.0.
        let scale = n as f64 / total;
        self.remaining.clear();
        self.remaining.extend(weights.iter().map(|w| w * scale));

        self.keep.clear();
        self.keep.resize(n, 0.0);
        self.alias.clear();
        self.alias.resize(n, 0);
        self.small.clear();
        self.large.clear();
        for (i, &p) in self.remaining.iter().enumerate() {
            if p < 1.0 {
                self.small.push(i);
            } else {
                self.large.push(i);
            }
        }
        self.pair_and_finish();
    }

    /// Walker/Vose pairing over the prepared `remaining`/`small`/`large`
    /// state; writes every `keep`/`alias` slot exactly once.
    fn pair_and_finish(&mut self) {
        while let (Some(&s), Some(&l)) = (self.small.last(), self.large.last()) {
            self.small.pop();
            self.large.pop();
            self.keep[s] = self.remaining[s];
            self.alias[s] = l;
            self.remaining[l] = (self.remaining[l] + self.remaining[s]) - 1.0;
            if self.remaining[l] < 1.0 {
                self.small.push(l);
            } else {
                self.large.push(l);
            }
        }
        // Whatever is left (numerically ~1.0) keeps itself with certainty.
        for &l in self.large.iter() {
            self.keep[l] = 1.0;
            self.alias[l] = l;
        }
        for &s in self.small.iter() {
            self.keep[s] = 1.0;
            self.alias[s] = s;
        }
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.keep.len()
    }

    /// True when the sampler has no categories (cannot happen for a
    /// successfully constructed sampler).
    pub fn is_empty(&self) -> bool {
        self.keep.is_empty()
    }

    /// Draws one index in `O(1)` from a **single** 64-bit RNG draw.
    ///
    /// The draw is split into the two quantities the alias method needs: the
    /// high 32 bits pick the column via Lemire's multiply-shift reduction
    /// (`(hi·n) >> 32`, bias ≤ `n/2³²` — immaterial for cluster-sized `n`),
    /// the low 32 bits become the keep/alias toss on `[0, 1)` with `2⁻³²`
    /// resolution. The previous implementation drew twice per job
    /// (`gen_range` + `gen::<f64>()`); destination sampling is the RNG-bound
    /// inner loop of SCD/TWF/WR dispatch, so halving the draws measurably
    /// trims the dispatch phase.
    pub fn sample(&self, rng: &mut dyn RngCore) -> usize {
        let n = self.keep.len() as u64;
        let r = rng.next_u64();
        let column = (((r >> 32) * n) >> 32) as usize;
        let toss = (r & 0xFFFF_FFFF) as f64 * (1.0 / 4_294_967_296.0);
        if toss < self.keep[column] {
            column
        } else {
            self.alias[column]
        }
    }

    /// Draws `count` indices, reusing the table.
    pub fn sample_many(&self, count: usize, rng: &mut dyn RngCore) -> Vec<usize> {
        (0..count).map(|_| self.sample(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn empirical_distribution(
        sampler: &dyn Fn(&mut StdRng) -> usize,
        n: usize,
        draws: usize,
        seed: u64,
    ) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut counts = vec![0usize; n];
        for _ in 0..draws {
            counts[sampler(&mut rng)] += 1;
        }
        counts.iter().map(|&c| c as f64 / draws as f64).collect()
    }

    #[test]
    fn alias_rejects_bad_input() {
        assert!(AliasSampler::new(&[]).is_err());
        assert!(AliasSampler::new(&[0.0, 0.0]).is_err());
        assert!(AliasSampler::new(&[1.0, -2.0]).is_err());
        assert!(AliasSampler::new(&[1.0, f64::NAN]).is_err());
    }

    #[test]
    fn alias_matches_weights_empirically() {
        let weights = [0.5, 0.3, 0.15, 0.05];
        let sampler = AliasSampler::new(&weights).unwrap();
        let freq = empirical_distribution(&|rng| sampler.sample(rng), 4, 200_000, 11);
        for (i, &w) in weights.iter().enumerate() {
            assert!(
                (freq[i] - w).abs() < 0.01,
                "category {i}: expected {w}, observed {}",
                freq[i]
            );
        }
    }

    #[test]
    fn zero_weight_categories_are_never_drawn() {
        let weights = [0.0, 1.0, 0.0, 2.0];
        let alias = AliasSampler::new(&weights).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let a = alias.sample(&mut rng);
            assert!(a == 1 || a == 3, "alias drew zero-weight category {a}");
        }
    }

    #[test]
    fn single_category_always_drawn() {
        let alias = AliasSampler::new(&[7.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..100 {
            assert_eq!(alias.sample(&mut rng), 0);
        }
        assert_eq!(alias.len(), 1);
        assert!(!alias.is_empty());
    }

    #[test]
    fn sample_many_length_and_range() {
        let alias = AliasSampler::new(&[1.0, 1.0, 1.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let draws = alias.sample_many(500, &mut rng);
        assert_eq!(draws.len(), 500);
        assert!(draws.iter().all(|&d| d < 3));
    }

    #[test]
    fn sample_consumes_exactly_one_u64_draw() {
        // Halved RNG traffic is part of the dispatch-phase budget: one alias
        // draw must advance the generator by exactly one 64-bit output.
        let alias = AliasSampler::new(&[0.3, 0.5, 0.2]).unwrap();
        let mut sampling_rng = StdRng::seed_from_u64(5);
        let mut counting_rng = StdRng::seed_from_u64(5);
        for _ in 0..100 {
            let _ = alias.sample(&mut sampling_rng);
            let _ = counting_rng.next_u64();
        }
        assert_eq!(sampling_rng.next_u64(), counting_rng.next_u64());
    }

    #[test]
    fn deterministic_given_seed() {
        let alias = AliasSampler::new(&[0.2, 0.8]).unwrap();
        let a: Vec<usize> = alias.sample_many(50, &mut StdRng::seed_from_u64(4));
        let b: Vec<usize> = alias.sample_many(50, &mut StdRng::seed_from_u64(4));
        assert_eq!(a, b);
    }

    #[test]
    fn rebuild_matches_fresh_construction() {
        let mut sampler = AliasSampler::new(&[1.0, 1.0]).unwrap();
        let weights = [0.5, 0.3, 0.15, 0.05];
        sampler.rebuild(&weights).unwrap();
        let fresh = AliasSampler::new(&weights).unwrap();
        // Identical tables → identical draws for identical RNG streams.
        let a: Vec<usize> = sampler.sample_many(200, &mut StdRng::seed_from_u64(8));
        let b: Vec<usize> = fresh.sample_many(200, &mut StdRng::seed_from_u64(8));
        assert_eq!(a, b);
        assert_eq!(sampler.len(), 4);
        // Errors leave the previous table intact.
        assert!(sampler.rebuild(&[]).is_err());
        assert!(sampler.rebuild(&[0.0, 0.0]).is_err());
        assert!(sampler.rebuild(&[1.0, -1.0]).is_err());
        assert_eq!(sampler.len(), 4);
        let c: Vec<usize> = sampler.sample_many(200, &mut StdRng::seed_from_u64(8));
        assert_eq!(a, c);
    }

    #[test]
    fn rebuild_with_total_matches_rebuild_bit_for_bit() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(0xA11A5);
        let mut fast = AliasSampler::default();
        let mut reference = AliasSampler::default();
        for case in 0..300 {
            let n = rng.gen_range(1..80);
            let weights: Vec<f64> = (0..n)
                .map(|_| {
                    if rng.gen_range(0..4) == 0 {
                        0.0
                    } else {
                        rng.gen_range(0.0..2.0f64)
                    }
                })
                .collect();
            let total: f64 = weights.iter().sum();
            if total <= 0.0 {
                continue;
            }
            reference.rebuild(&weights).unwrap();
            fast.rebuild_with_total(&weights, total);
            // Identical tables → identical draws for identical RNG streams.
            let a = reference.sample_many(64, &mut StdRng::seed_from_u64(case));
            let b = fast.sample_many(64, &mut StdRng::seed_from_u64(case));
            assert_eq!(a, b, "case {case}: tables diverged");
        }
    }

    #[test]
    fn unnormalized_weights_are_accepted() {
        // Weights that sum to 100, not 1.
        let alias = AliasSampler::new(&[30.0, 70.0]).unwrap();
        let freq = empirical_distribution(&|rng| alias.sample(rng), 2, 100_000, 2);
        assert!((freq[1] - 0.7).abs() < 0.01);
    }
}
