//! Power-of-d-choices dispatching: `JSQ(d)` and its heterogeneity-aware
//! variant `hJSQ(d)`.
//!
//! For every arriving job the dispatcher samples `d` servers and applies the
//! JSQ/SED rule to the sampled set only. Subsampling breaks the symmetry
//! between dispatchers and thus mitigates herding, at the price of often
//! missing the genuinely least-loaded servers. In heterogeneous clusters the
//! uniform-sampling variant can even be unstable (Section 1.1), which is why
//! the paper also evaluates `hJSQ(d)`: sampling proportional to the service
//! rates and ranking by expected delay (footnote 6).

use crate::common::{argmin_random_ties, sample_distinct_into};
use rand::RngCore;
use scd_model::{
    AliasSampler, Availability, BoxedPolicy, ClusterSpec, DispatchContext, DispatchPolicy,
    DispatcherId, PolicyFactory, ServerId,
};
use std::sync::Arc;

/// How candidate servers are sampled and ranked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PowerOfDVariant {
    /// `JSQ(d)`: sample `d` distinct servers uniformly, rank by queue length.
    Uniform,
    /// `hJSQ(d)`: sample `d` servers proportionally to their rates, rank by
    /// expected delay `(q + 1)/µ`.
    Heterogeneous,
}

/// The power-of-d policy.
#[derive(Debug, Clone)]
pub struct PowerOfDPolicy {
    d: usize,
    variant: PowerOfDVariant,
    name: String,
    /// The cluster's shared rate-proportional table (only for the
    /// heterogeneous variant).
    rate_sampler: Option<Arc<AliasSampler>>,
    /// Local copy of the queue lengths for intra-batch updates.
    local: Vec<u64>,
    /// Reusable per-job candidate buffer.
    candidates: Vec<usize>,
}

impl PowerOfDPolicy {
    /// Creates a `JSQ(d)` policy.
    ///
    /// # Panics
    /// Panics if `d == 0`.
    pub fn uniform(d: usize) -> Self {
        assert!(d > 0, "power-of-d requires d >= 1");
        PowerOfDPolicy {
            d,
            variant: PowerOfDVariant::Uniform,
            name: format!("JSQ({d})"),
            rate_sampler: None,
            local: Vec::new(),
            candidates: Vec::new(),
        }
    }

    /// Creates an `hJSQ(d)` policy for a given cluster (the rate-proportional
    /// sampler is the cluster specification's shared table).
    ///
    /// # Panics
    /// Panics if `d == 0`.
    pub fn heterogeneous(d: usize, spec: &ClusterSpec) -> Self {
        assert!(d > 0, "power-of-d requires d >= 1");
        PowerOfDPolicy {
            d,
            variant: PowerOfDVariant::Heterogeneous,
            name: format!("hJSQ({d})"),
            rate_sampler: Some(spec.rate_sampler()),
            local: Vec::new(),
            candidates: Vec::new(),
        }
    }

    /// The number of probes per job.
    pub fn d(&self) -> usize {
        self.d
    }

    /// The sampling/ranking variant.
    pub fn variant(&self) -> PowerOfDVariant {
        self.variant
    }

    /// Fills `self.candidates` with this job's probe set, reusing the buffer.
    /// Under an active availability mask only up servers are probed: the
    /// uniform variant samples distinct positions of the up list, the
    /// heterogeneous variant rejection-samples until the draw is up (rates
    /// are strictly positive, so this terminates).
    fn sample_candidates(&mut self, n: usize, mask: Option<&Availability>, rng: &mut dyn RngCore) {
        match self.variant {
            PowerOfDVariant::Uniform => match mask {
                Some(avail) => {
                    sample_distinct_into(avail.num_up(), self.d, &mut self.candidates, rng);
                    for slot in &mut self.candidates {
                        *slot = avail.up_list()[*slot] as usize;
                    }
                }
                None => sample_distinct_into(n, self.d, &mut self.candidates, rng),
            },
            PowerOfDVariant::Heterogeneous => {
                // Rate-proportional sampling with replacement (duplicates are
                // harmless: the ranking step treats them as one candidate).
                let sampler = self
                    .rate_sampler
                    .as_ref()
                    .expect("heterogeneous variant always carries a sampler");
                self.candidates.clear();
                for _ in 0..self.d {
                    let pick = match mask {
                        Some(avail) => loop {
                            let s = sampler.sample(rng);
                            if avail.is_up(s) {
                                break s;
                            }
                        },
                        None => sampler.sample(rng),
                    };
                    self.candidates.push(pick);
                }
            }
        }
    }
}

impl DispatchPolicy for PowerOfDPolicy {
    fn policy_name(&self) -> &str {
        &self.name
    }

    fn dispatch_into(
        &mut self,
        ctx: &DispatchContext<'_>,
        batch: usize,
        out: &mut Vec<ServerId>,
        rng: &mut dyn RngCore,
    ) {
        self.local.clear();
        self.local.extend_from_slice(ctx.queue_lengths());
        let rates = ctx.rates();
        let n = self.local.len();
        let mask = ctx.active_mask();
        for _ in 0..batch {
            self.sample_candidates(n, mask, rng);
            let candidates = &self.candidates;
            let local = &self.local;
            let variant = self.variant;
            let score = |i: usize| -> f64 {
                let s = candidates[i];
                match variant {
                    PowerOfDVariant::Uniform => local[s] as f64,
                    PowerOfDVariant::Heterogeneous => (local[s] as f64 + 1.0) / rates[s],
                }
            };
            let winner_pos = argmin_random_ties(candidates.len(), score, rng);
            let target = candidates[winner_pos];
            self.local[target] += 1;
            out.push(ServerId::new(target));
        }
    }
}

/// Factory for [`PowerOfDPolicy`].
#[derive(Debug, Clone)]
pub struct PowerOfDFactory {
    d: usize,
    variant: PowerOfDVariant,
    name: String,
}

impl PowerOfDFactory {
    /// `JSQ(d)` factory.
    ///
    /// # Panics
    /// Panics if `d == 0`.
    pub fn uniform(d: usize) -> Self {
        assert!(d > 0, "power-of-d requires d >= 1");
        PowerOfDFactory {
            d,
            variant: PowerOfDVariant::Uniform,
            name: format!("JSQ({d})"),
        }
    }

    /// `hJSQ(d)` factory.
    ///
    /// # Panics
    /// Panics if `d == 0`.
    pub fn heterogeneous(d: usize) -> Self {
        assert!(d > 0, "power-of-d requires d >= 1");
        PowerOfDFactory {
            d,
            variant: PowerOfDVariant::Heterogeneous,
            name: format!("hJSQ({d})"),
        }
    }
}

impl PolicyFactory for PowerOfDFactory {
    fn name(&self) -> &str {
        &self.name
    }

    fn build(&self, _dispatcher: DispatcherId, spec: &ClusterSpec) -> BoxedPolicy {
        match self.variant {
            PowerOfDVariant::Uniform => Box::new(PowerOfDPolicy::uniform(self.d)),
            PowerOfDVariant::Heterogeneous => Box::new(PowerOfDPolicy::heterogeneous(self.d, spec)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ctx<'a>(queues: &'a [u64], rates: &'a [f64]) -> DispatchContext<'a> {
        DispatchContext::new(queues, rates, 1, 0)
    }

    #[test]
    fn d_equal_to_n_behaves_like_jsq() {
        let queues = vec![5u64, 0, 3];
        let rates = vec![1.0; 3];
        let c = ctx(&queues, &rates);
        let mut rng = StdRng::seed_from_u64(1);
        let mut policy = PowerOfDPolicy::uniform(3);
        let out = policy.dispatch_batch(&c, 1, &mut rng);
        assert_eq!(out[0].index(), 1);
        assert_eq!(policy.d(), 3);
        assert_eq!(policy.variant(), PowerOfDVariant::Uniform);
    }

    #[test]
    fn d_one_is_uniform_random() {
        let queues = vec![1000u64, 0];
        let rates = vec![1.0, 1.0];
        let c = ctx(&queues, &rates);
        let mut rng = StdRng::seed_from_u64(5);
        let mut policy = PowerOfDPolicy::uniform(1);
        let picks = policy.dispatch_batch(&c, 10_000, &mut rng);
        // Local increments do not matter for d = 1; the split must be ~50/50
        // even though server 0 has a huge queue.
        let to_zero = picks.iter().filter(|s| s.index() == 0).count();
        assert!((to_zero as f64 / 10_000.0 - 0.5).abs() < 0.03);
    }

    #[test]
    fn heterogeneous_variant_prefers_fast_servers() {
        let queues = vec![0u64, 0];
        let rates = vec![9.0, 1.0];
        let spec = ClusterSpec::from_rates(rates.clone()).unwrap();
        let c = ctx(&queues, &rates);
        let mut rng = StdRng::seed_from_u64(6);
        let mut policy = PowerOfDPolicy::heterogeneous(2, &spec);
        assert_eq!(policy.policy_name(), "hJSQ(2)");
        let picks = policy.dispatch_batch(&c, 5_000, &mut rng);
        let to_fast = picks.iter().filter(|s| s.index() == 0).count() as f64 / 5_000.0;
        // With rate-proportional sampling and expected-delay ranking the fast
        // server receives the overwhelming majority of the jobs.
        assert!(to_fast > 0.8, "fast server share {to_fast}");
    }

    #[test]
    fn uniform_variant_ignores_rates() {
        let queues = vec![0u64, 0];
        let rates = vec![9.0, 1.0];
        let c = ctx(&queues, &rates);
        let mut rng = StdRng::seed_from_u64(6);
        let mut policy = PowerOfDPolicy::uniform(2);
        let picks = policy.dispatch_batch(&c, 4_000, &mut rng);
        let to_fast = picks.iter().filter(|s| s.index() == 0).count() as f64 / 4_000.0;
        // With d = n = 2 and queue-length ranking, the local counter forces an
        // exact 50/50 split regardless of rates.
        assert!((to_fast - 0.5).abs() < 0.05, "fast server share {to_fast}");
    }

    #[test]
    fn factories_build_the_right_variants() {
        let spec = ClusterSpec::from_rates(vec![2.0, 1.0]).unwrap();
        let u = PowerOfDFactory::uniform(2);
        assert_eq!(u.name(), "JSQ(2)");
        assert_eq!(u.build(DispatcherId::new(0), &spec).policy_name(), "JSQ(2)");
        let h = PowerOfDFactory::heterogeneous(2);
        assert_eq!(h.name(), "hJSQ(2)");
        assert_eq!(
            h.build(DispatcherId::new(0), &spec).policy_name(),
            "hJSQ(2)"
        );
        assert_eq!(PowerOfDFactory::uniform(3).name(), "JSQ(3)");
    }

    #[test]
    #[should_panic(expected = "d >= 1")]
    fn zero_probes_is_rejected() {
        PowerOfDPolicy::uniform(0);
    }
}
