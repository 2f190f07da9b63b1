//! Randomized property tests for the model crate's sampler and cluster types.
//!
//! Cases are generated from a seeded [`StdRng`] (the build environment is
//! offline, so no proptest); every failure message includes the case index so
//! a failing instance can be reproduced deterministically.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scd_model::{AliasSampler, ClusterSpec, RateProfile};

const CASES: usize = 96;

/// A random vector of non-negative weights with at least one strictly
/// positive entry.
fn random_weights(rng: &mut StdRng) -> Vec<f64> {
    loop {
        let n = rng.gen_range(1..40usize);
        let weights: Vec<f64> = (0..n)
            .map(|_| {
                if rng.gen_bool(0.25) {
                    0.0
                } else {
                    rng.gen_range(0.0..10.0)
                }
            })
            .collect();
        if weights.iter().any(|&w| w > 1e-9) {
            return weights;
        }
    }
}

#[test]
fn alias_sampler_only_draws_positive_weight_categories() {
    let mut rng = StdRng::seed_from_u64(0xB0B);
    for case in 0..CASES {
        let weights = random_weights(&mut rng);
        let sampler = AliasSampler::new(&weights).unwrap();
        for _ in 0..256 {
            let draw = sampler.sample(&mut rng);
            assert!(draw < weights.len(), "case {case}");
            assert!(
                weights[draw] > 0.0,
                "case {case}: alias sampler drew zero-weight category {draw} from {weights:?}"
            );
        }
    }
}

#[test]
fn cluster_spec_aggregates_are_consistent() {
    let mut rng = StdRng::seed_from_u64(0xC1);
    for case in 0..CASES {
        let n = rng.gen_range(1..64usize);
        let rates: Vec<f64> = (0..n).map(|_| rng.gen_range(0.01..100.0)).collect();
        let spec = ClusterSpec::from_rates(rates.clone()).unwrap();
        assert_eq!(spec.num_servers(), rates.len(), "case {case}");
        let total: f64 = rates.iter().sum();
        assert!((spec.total_rate() - total).abs() < 1e-9, "case {case}");
        assert!(spec.min_rate() <= spec.max_rate(), "case {case}");
        assert!(spec.heterogeneity_ratio() >= 1.0 - 1e-12, "case {case}");
    }
}

#[test]
fn uniform_profile_materializes_within_bounds() {
    let mut rng = StdRng::seed_from_u64(0xFACADE);
    for case in 0..CASES {
        let n = rng.gen_range(1..128usize);
        let low = rng.gen_range(0.5..2.0);
        let high = low + rng.gen_range(0.1..50.0);
        let seed = rng.gen::<u64>();
        let mut cluster_rng = StdRng::seed_from_u64(seed);
        let spec = RateProfile::Uniform { low, high }
            .materialize(n, &mut cluster_rng)
            .unwrap();
        assert_eq!(spec.num_servers(), n, "case {case}");
        for (_, rate) in spec.iter() {
            assert!(
                rate >= low && rate <= high,
                "case {case}: rate {rate} outside [{low}, {high}]"
            );
        }
    }
}
