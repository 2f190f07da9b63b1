//! Arrival processes: how many jobs reach each dispatcher per round.
//!
//! The paper's evaluation draws each dispatcher's per-round arrivals from a
//! Poisson distribution whose mean is chosen so that the system-wide offered
//! load `ρ = Σ_d λ_d / Σ_s µ_s` hits a target value, with the load split
//! equally across dispatchers. Deterministic arrivals are provided for unit
//! tests and worked examples.

use crate::engine::SimError;
use rand::Rng;
use rand_distr::{Distribution, Poisson};

/// Declarative description of the arrival process (stored in experiment
/// configurations).
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalSpec {
    /// Poisson arrivals at every dispatcher, calibrated to a system-wide
    /// offered load: `λ_d = ρ · Σ_s µ_s / m`.
    PoissonOfferedLoad {
        /// The target offered load `ρ` (must be positive; admissible systems
        /// have `ρ < 1`).
        offered_load: f64,
    },
    /// Poisson arrivals with an explicit per-dispatcher rate vector.
    PoissonRates {
        /// One `λ_d` per dispatcher.
        rates: Vec<f64>,
    },
    /// Every dispatcher receives exactly this many jobs every round.
    Deterministic {
        /// The fixed per-round batch size.
        jobs_per_round: u64,
    },
}

impl ArrivalSpec {
    /// Validates the specification against the dispatcher count without
    /// resolving rates (sugar over
    /// [`per_dispatcher_rates`](ArrivalSpec::per_dispatcher_rates) with a
    /// unit capacity — every rejection is capacity-independent).
    ///
    /// # Errors
    /// Returns [`SimError::InvalidConfig`] under the same conditions as
    /// [`per_dispatcher_rates`](ArrivalSpec::per_dispatcher_rates).
    pub fn validate(&self, num_dispatchers: usize) -> Result<(), SimError> {
        self.per_dispatcher_rates(num_dispatchers, 1.0).map(|_| ())
    }

    /// Resolves the specification into per-dispatcher mean arrival rates.
    ///
    /// # Errors
    /// Returns [`SimError::InvalidConfig`] if the offered load is not
    /// positive and finite, the explicit rate vector length does not match
    /// the number of dispatchers, or any rate is negative/non-finite.
    pub fn per_dispatcher_rates(
        &self,
        num_dispatchers: usize,
        total_capacity: f64,
    ) -> Result<Vec<f64>, SimError> {
        let rates = match self {
            ArrivalSpec::PoissonOfferedLoad { offered_load } => {
                if !offered_load.is_finite() || *offered_load <= 0.0 {
                    return Err(SimError::InvalidConfig(format!(
                        "offered load must be positive and finite, got {offered_load}"
                    )));
                }
                vec![offered_load * total_capacity / num_dispatchers as f64; num_dispatchers]
            }
            ArrivalSpec::PoissonRates { rates } => {
                if rates.len() != num_dispatchers {
                    return Err(SimError::InvalidConfig(format!(
                        "arrival rate vector must have one entry per dispatcher \
                         ({num_dispatchers}), got {}",
                        rates.len()
                    )));
                }
                rates.clone()
            }
            ArrivalSpec::Deterministic { jobs_per_round } => {
                vec![*jobs_per_round as f64; num_dispatchers]
            }
        };
        for (d, &r) in rates.iter().enumerate() {
            if !r.is_finite() || r < 0.0 {
                return Err(SimError::InvalidConfig(format!(
                    "arrival rates must be finite and non-negative, dispatcher {d} has {r}"
                )));
            }
        }
        Ok(rates)
    }

    /// Instantiates the per-dispatcher samplers.
    ///
    /// # Errors
    /// Returns [`SimError::InvalidConfig`] under the same conditions as
    /// [`per_dispatcher_rates`](ArrivalSpec::per_dispatcher_rates).
    pub fn build(
        &self,
        num_dispatchers: usize,
        total_capacity: f64,
    ) -> Result<Vec<ArrivalProcess>, SimError> {
        match self {
            ArrivalSpec::Deterministic { jobs_per_round } => Ok(vec![
                ArrivalProcess::Deterministic {
                    jobs_per_round: *jobs_per_round
                };
                num_dispatchers
            ]),
            _ => Ok(self
                .per_dispatcher_rates(num_dispatchers, total_capacity)?
                .into_iter()
                .map(ArrivalProcess::poisson)
                .collect()),
        }
    }

    /// The offered load this specification induces on a cluster with the
    /// given total capacity.
    ///
    /// # Errors
    /// Returns [`SimError::InvalidConfig`] under the same conditions as
    /// [`per_dispatcher_rates`](ArrivalSpec::per_dispatcher_rates).
    pub fn offered_load(
        &self,
        num_dispatchers: usize,
        total_capacity: f64,
    ) -> Result<f64, SimError> {
        Ok(self
            .per_dispatcher_rates(num_dispatchers, total_capacity)?
            .iter()
            .sum::<f64>()
            / total_capacity)
    }
}

/// A per-dispatcher sampler of round arrivals.
#[derive(Debug, Clone)]
pub enum ArrivalProcess {
    /// `a(d)(t) ~ Poisson(λ)`.
    ///
    /// The distribution (and therefore its inverted-CDF sampling table) is
    /// prepared once at construction — the engine samples it every round, so
    /// per-draw setup would dominate the arrival phase. `None` encodes a
    /// zero rate.
    Poisson {
        /// The prepared distribution; `None` for `λ = 0` (no arrivals).
        dist: Option<Poisson>,
    },
    /// Exactly `jobs_per_round` arrivals every round.
    Deterministic {
        /// The fixed batch size.
        jobs_per_round: u64,
    },
}

impl ArrivalProcess {
    /// A Poisson process with the given mean (a mean of zero yields no
    /// arrivals).
    ///
    /// # Panics
    /// Panics if `lambda` is negative or not finite.
    pub fn poisson(lambda: f64) -> Self {
        assert!(
            lambda.is_finite() && lambda >= 0.0,
            "arrival rate must be finite and non-negative, got {lambda}"
        );
        let dist = if lambda > 0.0 {
            Some(Poisson::new(lambda).expect("lambda is positive and finite"))
        } else {
            None
        };
        ArrivalProcess::Poisson { dist }
    }

    /// The mean number of arrivals per round.
    pub fn mean(&self) -> f64 {
        match self {
            ArrivalProcess::Poisson { dist } => dist.as_ref().map_or(0.0, Poisson::lambda),
            ArrivalProcess::Deterministic { jobs_per_round } => *jobs_per_round as f64,
        }
    }

    /// Draws the number of arrivals for one round.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        match self {
            ArrivalProcess::Poisson { dist } => {
                dist.as_ref().map_or(0, |dist| dist.sample(rng) as u64)
            }
            ArrivalProcess::Deterministic { jobs_per_round } => *jobs_per_round,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn offered_load_spec_splits_rate_equally() {
        let spec = ArrivalSpec::PoissonOfferedLoad { offered_load: 0.9 };
        let rates = spec.per_dispatcher_rates(5, 100.0).unwrap();
        assert_eq!(rates.len(), 5);
        for r in &rates {
            assert!((r - 18.0).abs() < 1e-12);
        }
        assert!((spec.offered_load(5, 100.0).unwrap() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn explicit_rates_are_used_verbatim() {
        let spec = ArrivalSpec::PoissonRates {
            rates: vec![1.0, 2.0],
        };
        assert_eq!(spec.per_dispatcher_rates(2, 10.0).unwrap(), vec![1.0, 2.0]);
        assert!((spec.offered_load(2, 10.0).unwrap() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn explicit_rates_must_match_dispatcher_count() {
        let err = ArrivalSpec::PoissonRates { rates: vec![1.0] }
            .per_dispatcher_rates(2, 10.0)
            .unwrap_err();
        assert!(
            err.to_string().contains("one entry per dispatcher"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn non_finite_and_negative_rates_are_rejected() {
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            let err = ArrivalSpec::PoissonRates {
                rates: vec![1.0, bad],
            }
            .per_dispatcher_rates(2, 10.0)
            .unwrap_err();
            assert!(
                err.to_string().contains("finite and non-negative"),
                "rate {bad}: unexpected error {err}"
            );
            assert!(ArrivalSpec::PoissonRates {
                rates: vec![1.0, bad]
            }
            .validate(2)
            .is_err());
            assert!(ArrivalSpec::PoissonRates {
                rates: vec![1.0, bad]
            }
            .build(2, 10.0)
            .is_err());
        }
    }

    #[test]
    fn deterministic_spec_is_exact() {
        let spec = ArrivalSpec::Deterministic { jobs_per_round: 4 };
        let procs = spec.build(3, 10.0).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        for p in &procs {
            assert_eq!(p.sample(&mut rng), 4);
            assert_eq!(p.mean(), 4.0);
        }
        assert!((spec.offered_load(3, 10.0).unwrap() - 1.2).abs() < 1e-12);
    }

    #[test]
    fn poisson_sample_mean_is_close_to_lambda() {
        let process = ArrivalProcess::poisson(7.5);
        let mut rng = StdRng::seed_from_u64(42);
        let draws = 40_000;
        let total: u64 = (0..draws).map(|_| process.sample(&mut rng)).sum();
        let mean = total as f64 / draws as f64;
        assert!((mean - 7.5).abs() < 0.1, "empirical mean {mean}");
    }

    #[test]
    fn zero_lambda_never_produces_arrivals() {
        let process = ArrivalProcess::poisson(0.0);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(process.sample(&mut rng), 0);
        }
    }

    #[test]
    fn non_positive_offered_load_is_rejected() {
        for bad in [0.0, -0.5, f64::NAN, f64::INFINITY] {
            let err = ArrivalSpec::PoissonOfferedLoad { offered_load: bad }
                .per_dispatcher_rates(2, 10.0)
                .unwrap_err();
            assert!(
                err.to_string().contains("positive and finite"),
                "load {bad}: unexpected error {err}"
            );
        }
    }
}
