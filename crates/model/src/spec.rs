//! Static description of a heterogeneous cluster: the per-server service
//! rates `µ_s` of the paper's model (Section 2) and helpers for generating
//! the heterogeneity profiles used in the evaluation (Section 6.2).

use crate::error::ModelError;
use crate::ids::ServerId;
use crate::sampler::AliasSampler;
use rand::Rng;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// The static configuration of a cluster: one processing rate per server.
///
/// A rate `µ_s` is the *expected* number of jobs server `s` completes per
/// round (`E[c_s(t)] = µ_s` in the paper). Rates must be finite and strictly
/// positive; the constructor validates this so that downstream algorithms can
/// divide by `µ_s` without checks.
///
/// # Example
/// ```
/// use scd_model::ClusterSpec;
/// let spec = ClusterSpec::from_rates(vec![5.0, 2.0, 1.0, 1.0]).unwrap();
/// assert_eq!(spec.num_servers(), 4);
/// assert_eq!(spec.total_rate(), 9.0);
/// assert_eq!(spec.rate(scd_model::ServerId::new(0)), 5.0);
/// ```
#[derive(Clone)]
pub struct ClusterSpec {
    rates: Vec<f64>,
    /// The µ-proportional alias table over `rates`, built on first use by
    /// [`rate_sampler`](ClusterSpec::rate_sampler). The cell itself is
    /// shared, so every clone reads one table whichever builds it.
    rate_table: Arc<OnceLock<Arc<AliasSampler>>>,
}

/// Equality, like the config digest and the wire text, sees the rates
/// only: the table is derived from them.
impl PartialEq for ClusterSpec {
    fn eq(&self, other: &Self) -> bool {
        self.rates == other.rates
    }
}

impl fmt::Debug for ClusterSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClusterSpec")
            .field("rates", &self.rates)
            .finish()
    }
}

impl ClusterSpec {
    /// Builds a cluster specification from explicit per-server rates.
    ///
    /// # Errors
    /// Returns [`ModelError::EmptyCluster`] if `rates` is empty and
    /// [`ModelError::InvalidRate`] if any rate is not finite and strictly
    /// positive.
    pub fn from_rates(rates: Vec<f64>) -> Result<Self, ModelError> {
        if rates.is_empty() {
            return Err(ModelError::EmptyCluster);
        }
        for (server, &rate) in rates.iter().enumerate() {
            if !rate.is_finite() || rate <= 0.0 {
                return Err(ModelError::InvalidRate { server, rate });
            }
        }
        Ok(ClusterSpec {
            rates,
            rate_table: Arc::default(),
        })
    }

    /// Builds a homogeneous cluster of `n` servers, all with rate `rate`.
    ///
    /// # Errors
    /// Returns an error if `n == 0` or the rate is invalid.
    pub fn homogeneous(n: usize, rate: f64) -> Result<Self, ModelError> {
        Self::from_rates(vec![rate; n])
    }

    /// Number of servers `n` in the cluster.
    pub fn num_servers(&self) -> usize {
        self.rates.len()
    }

    /// The rate `µ_s` of a particular server.
    ///
    /// # Panics
    /// Panics if the server index is out of range.
    pub fn rate(&self, server: ServerId) -> f64 {
        self.rates[server.index()]
    }

    /// All rates, indexed by server.
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// The alias table drawing server `s` with probability `µ_s / Σ µ`,
    /// built on first use and shared by every clone of this specification.
    /// WR, hJSQ(d), hJIQ's fallback and the probes of hLSQ and hLED read
    /// it, so a run holds one table, not one per dispatcher.
    pub fn rate_sampler(&self) -> Arc<AliasSampler> {
        Arc::clone(self.rate_table.get_or_init(|| {
            Arc::new(AliasSampler::new(&self.rates).expect("cluster rates are strictly positive"))
        }))
    }

    /// Total processing capacity `Σ_s µ_s` of the cluster.
    pub fn total_rate(&self) -> f64 {
        self.rates.iter().sum()
    }

    /// Smallest rate in the cluster (`µ_min` in the stability analysis).
    pub fn min_rate(&self) -> f64 {
        self.rates.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Largest rate in the cluster.
    pub fn max_rate(&self) -> f64 {
        self.rates.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Ratio between the fastest and the slowest server — a convenient scalar
    /// measure of how heterogeneous the cluster is (1.0 means homogeneous).
    pub fn heterogeneity_ratio(&self) -> f64 {
        self.max_rate() / self.min_rate()
    }

    /// Iterates over `(ServerId, rate)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ServerId, f64)> + '_ {
        self.rates
            .iter()
            .enumerate()
            .map(|(i, &r)| (ServerId::new(i), r))
    }

    /// The sub-cluster containing exactly the given servers, in the given
    /// order — how the sharded engine splits one cluster into per-shard
    /// specifications (each shard simulates the sub-cluster it owns).
    ///
    /// # Errors
    /// Returns [`ModelError::EmptyCluster`] for an empty selection.
    ///
    /// # Panics
    /// Panics if any index is out of range.
    pub fn subset(&self, servers: &[usize]) -> Result<ClusterSpec, ModelError> {
        ClusterSpec::from_rates(servers.iter().map(|&s| self.rates[s]).collect())
    }

    /// Returns a copy of this specification with every rate replaced by 1.0.
    ///
    /// This is how the heterogeneity-oblivious TWF policy of the companion
    /// paper is expressed in this workspace: the same stochastic-coordination
    /// pipeline, run as if the cluster were homogeneous.
    pub fn rate_oblivious(&self) -> ClusterSpec {
        ClusterSpec {
            rates: vec![1.0; self.rates.len()],
            rate_table: Arc::default(),
        }
    }
}

/// A recipe for drawing the per-server rates of a cluster.
///
/// The paper evaluates two heterogeneity levels: rates drawn uniformly from
/// `[1, 10]` (moderate, different CPU generations) and from `[1, 100]` (high,
/// accelerators present). [`RateProfile`] captures those plus a few additional
/// profiles that are useful for tests and examples.
#[derive(Debug, Clone, PartialEq)]
pub enum RateProfile {
    /// Every server has the same rate.
    Homogeneous {
        /// The common service rate.
        rate: f64,
    },
    /// Each rate is drawn independently and uniformly from `[low, high]`.
    Uniform {
        /// Lower bound of the rate interval.
        low: f64,
        /// Upper bound of the rate interval.
        high: f64,
    },
    /// A two-class cluster: a fraction of fast servers and the rest slow.
    Bimodal {
        /// Rate of the fast class.
        fast_rate: f64,
        /// Rate of the slow class.
        slow_rate: f64,
        /// Fraction of servers (0..=1) that belong to the fast class.
        fast_fraction: f64,
    },
    /// Explicit rates; the cluster size must match the vector length.
    Explicit {
        /// The explicit per-server rates.
        rates: Vec<f64>,
    },
}

impl RateProfile {
    /// The moderate-heterogeneity profile of the paper: `µ_s ~ U[1, 10]`.
    pub fn paper_moderate() -> Self {
        RateProfile::Uniform {
            low: 1.0,
            high: 10.0,
        }
    }

    /// The high-heterogeneity profile of the paper: `µ_s ~ U[1, 100]`.
    pub fn paper_high() -> Self {
        RateProfile::Uniform {
            low: 1.0,
            high: 100.0,
        }
    }

    /// Materializes a [`ClusterSpec`] with `n` servers using the supplied RNG
    /// for any random draws.
    ///
    /// # Errors
    /// Returns an error if the profile produces invalid rates (e.g. an
    /// explicit vector of the wrong length is reported as
    /// [`ModelError::EmptyCluster`] / [`ModelError::InvalidRate`] as
    /// appropriate) or if `n == 0`.
    pub fn materialize<R: Rng + ?Sized>(
        &self,
        n: usize,
        rng: &mut R,
    ) -> Result<ClusterSpec, ModelError> {
        if n == 0 {
            return Err(ModelError::EmptyCluster);
        }
        let rates = match self {
            RateProfile::Homogeneous { rate } => vec![*rate; n],
            RateProfile::Uniform { low, high } => {
                (0..n).map(|_| rng.gen_range(*low..=*high)).collect()
            }
            RateProfile::Bimodal {
                fast_rate,
                slow_rate,
                fast_fraction,
            } => {
                let fast_count = ((n as f64) * fast_fraction).round() as usize;
                let fast_count = fast_count.min(n);
                let mut rates = vec![*fast_rate; fast_count];
                rates.extend(std::iter::repeat_n(*slow_rate, n - fast_count));
                rates
            }
            RateProfile::Explicit { rates } => {
                if rates.len() != n {
                    // Surface a mismatch as an invalid-rate error on the first
                    // missing/extra position so the caller gets a precise hint.
                    return Err(ModelError::ProbabilityLength {
                        got: rates.len(),
                        expected: n,
                    });
                }
                rates.clone()
            }
        };
        ClusterSpec::from_rates(rates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_empty_cluster() {
        assert_eq!(
            ClusterSpec::from_rates(vec![]),
            Err(ModelError::EmptyCluster)
        );
    }

    #[test]
    fn rejects_non_positive_and_non_finite_rates() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = ClusterSpec::from_rates(vec![1.0, bad, 2.0]).unwrap_err();
            match err {
                ModelError::InvalidRate { server, .. } => assert_eq!(server, 1),
                other => panic!("unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn aggregates_match_figure_one_cluster() {
        // Figure 1 of the paper: rates [5, 2, 1, 1].
        let spec = ClusterSpec::from_rates(vec![5.0, 2.0, 1.0, 1.0]).unwrap();
        assert_eq!(spec.num_servers(), 4);
        assert_eq!(spec.total_rate(), 9.0);
        assert_eq!(spec.min_rate(), 1.0);
        assert_eq!(spec.max_rate(), 5.0);
        assert_eq!(spec.heterogeneity_ratio(), 5.0);
    }

    #[test]
    fn homogeneous_constructor_and_rate_oblivious() {
        let spec = ClusterSpec::homogeneous(3, 4.0).unwrap();
        assert_eq!(spec.rates(), &[4.0, 4.0, 4.0]);
        let flat = spec.rate_oblivious();
        assert_eq!(flat.rates(), &[1.0, 1.0, 1.0]);

        let hetero = ClusterSpec::from_rates(vec![10.0, 1.0]).unwrap();
        assert_eq!(hetero.rate_oblivious().rates(), &[1.0, 1.0]);
    }

    #[test]
    fn subset_selects_servers_in_order() {
        let spec = ClusterSpec::from_rates(vec![5.0, 2.0, 1.0, 3.0]).unwrap();
        let sub = spec.subset(&[3, 0]).unwrap();
        assert_eq!(sub.rates(), &[3.0, 5.0]);
        assert_eq!(spec.subset(&[]), Err(ModelError::EmptyCluster));
        // A striped 2-way split covers every server exactly once.
        let even = spec.subset(&[0, 2]).unwrap();
        let odd = spec.subset(&[1, 3]).unwrap();
        assert_eq!(even.total_rate() + odd.total_rate(), spec.total_rate());
    }

    #[test]
    fn rate_sampler_is_built_once_and_shared_by_clones() {
        let spec = ClusterSpec::from_rates(vec![5.0, 2.0, 1.0, 3.0]).unwrap();
        let clone = spec.clone();
        let table = spec.rate_sampler();
        assert!(Arc::ptr_eq(&table, &spec.rate_sampler()));
        assert!(Arc::ptr_eq(&table, &clone.rate_sampler()));
        // A sub-cluster draws over its own rates, from its own table.
        let sub = spec.subset(&[3, 0]).unwrap();
        let sub_table = sub.rate_sampler();
        assert!(!Arc::ptr_eq(&table, &sub_table));
        assert_eq!(sub_table.len(), 2);
        // The shared table draws exactly what a private one would.
        for (spec, table) in [(&spec, table), (&sub, sub_table)] {
            let private = AliasSampler::new(spec.rates()).unwrap();
            let shared = table.sample_many(1_000, &mut StdRng::seed_from_u64(21));
            assert_eq!(
                shared,
                private.sample_many(1_000, &mut StdRng::seed_from_u64(21))
            );
        }
        // The table is not part of a specification's identity.
        assert_eq!(
            spec,
            ClusterSpec::from_rates(vec![5.0, 2.0, 1.0, 3.0]).unwrap()
        );
        assert_eq!(
            format!("{spec:?}"),
            "ClusterSpec { rates: [5.0, 2.0, 1.0, 3.0] }"
        );
    }

    #[test]
    fn iter_yields_ids_in_order() {
        let spec = ClusterSpec::from_rates(vec![3.0, 1.0]).unwrap();
        let collected: Vec<(usize, f64)> = spec.iter().map(|(id, r)| (id.index(), r)).collect();
        assert_eq!(collected, vec![(0, 3.0), (1, 1.0)]);
    }

    #[test]
    fn uniform_profile_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(42);
        let spec = RateProfile::paper_moderate()
            .materialize(200, &mut rng)
            .unwrap();
        assert_eq!(spec.num_servers(), 200);
        for (_, rate) in spec.iter() {
            assert!((1.0..=10.0).contains(&rate), "rate {rate} out of bounds");
        }
        let spec_high = RateProfile::paper_high().materialize(50, &mut rng).unwrap();
        assert!(spec_high.max_rate() <= 100.0);
        assert!(spec_high.min_rate() >= 1.0);
    }

    #[test]
    fn uniform_profile_is_deterministic_per_seed() {
        let a = RateProfile::paper_moderate()
            .materialize(32, &mut StdRng::seed_from_u64(7))
            .unwrap();
        let b = RateProfile::paper_moderate()
            .materialize(32, &mut StdRng::seed_from_u64(7))
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn bimodal_profile_splits_classes() {
        let mut rng = StdRng::seed_from_u64(1);
        let spec = RateProfile::Bimodal {
            fast_rate: 10.0,
            slow_rate: 1.0,
            fast_fraction: 0.25,
        }
        .materialize(8, &mut rng)
        .unwrap();
        let fast = spec.rates().iter().filter(|&&r| r == 10.0).count();
        assert_eq!(fast, 2);
        assert_eq!(spec.num_servers(), 8);
    }

    #[test]
    fn explicit_profile_checks_length() {
        let mut rng = StdRng::seed_from_u64(1);
        let profile = RateProfile::Explicit {
            rates: vec![1.0, 2.0],
        };
        assert!(profile.materialize(2, &mut rng).is_ok());
        assert!(profile.materialize(3, &mut rng).is_err());
    }

    #[test]
    fn zero_sized_cluster_is_rejected_by_profiles() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(
            RateProfile::Homogeneous { rate: 1.0 }.materialize(0, &mut rng),
            Err(ModelError::EmptyCluster)
        );
    }

    #[test]
    fn paper_profiles_have_expected_bounds() {
        assert_eq!(
            RateProfile::paper_moderate(),
            RateProfile::Uniform {
                low: 1.0,
                high: 10.0
            }
        );
        assert_eq!(
            RateProfile::paper_high(),
            RateProfile::Uniform {
                low: 1.0,
                high: 100.0
            }
        );
    }
}
