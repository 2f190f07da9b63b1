//! Join-the-Idle-Queue (JIQ) and its heterogeneity-aware variant `hJIQ`.
//!
//! JIQ sends every job to an idle server (empty queue) when one exists, and
//! to a random server otherwise. It excels at low load (there is almost
//! always an idle server) and degrades towards random dispatching — possibly
//! becoming unstable — at high load (Section 1.1). The `hJIQ` variant samples
//! both the idle server and the fallback server proportionally to the service
//! rates (footnote 6).

use rand::Rng;
use rand::RngCore;
use scd_model::{
    AliasSampler, Availability, BoxedPolicy, ClusterSpec, DispatchContext, DispatchPolicy,
    DispatcherId, PolicyFactory, ServerId,
};
use std::sync::Arc;

/// Sampling flavour for JIQ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JiqVariant {
    /// Uniform sampling of idle servers and of the random fallback.
    Uniform,
    /// Rate-proportional sampling of idle servers and of the fallback.
    Heterogeneous,
}

/// The JIQ policy.
#[derive(Debug, Clone)]
pub struct JiqPolicy {
    variant: JiqVariant,
    name: &'static str,
    /// Local queue view for intra-batch updates (a server stops being idle
    /// once this dispatcher sends it a job in the current round).
    local: Vec<u64>,
    /// Reusable per-job idle-set buffer.
    idle: Vec<usize>,
    /// Reusable idle-weight buffer and alias table (heterogeneous variant).
    idle_weights: Vec<f64>,
    idle_sampler: AliasSampler,
    /// The cluster's shared rate-proportional table, the fallback of the
    /// heterogeneous variant.
    fallback_sampler: Option<Arc<AliasSampler>>,
}

impl JiqPolicy {
    /// Classic JIQ (uniform sampling).
    pub fn uniform() -> Self {
        JiqPolicy {
            variant: JiqVariant::Uniform,
            name: "JIQ",
            local: Vec::new(),
            idle: Vec::new(),
            idle_weights: Vec::new(),
            idle_sampler: AliasSampler::default(),
            fallback_sampler: None,
        }
    }

    /// Heterogeneity-aware JIQ (rate-proportional sampling).
    pub fn heterogeneous(spec: &ClusterSpec) -> Self {
        JiqPolicy {
            variant: JiqVariant::Heterogeneous,
            name: "hJIQ",
            local: Vec::new(),
            idle: Vec::new(),
            idle_weights: Vec::new(),
            idle_sampler: AliasSampler::default(),
            fallback_sampler: Some(spec.rate_sampler()),
        }
    }

    /// The sampling variant.
    pub fn variant(&self) -> JiqVariant {
        self.variant
    }

    fn pick_idle(&mut self, rates: &[f64], rng: &mut dyn RngCore) -> usize {
        match self.variant {
            JiqVariant::Uniform => self.idle[rng.gen_range(0..self.idle.len())],
            JiqVariant::Heterogeneous => {
                self.idle_weights.clear();
                self.idle_weights
                    .extend(self.idle.iter().map(|&s| rates[s]));
                self.idle_sampler
                    .rebuild(&self.idle_weights)
                    .expect("idle set is non-empty with positive rates");
                self.idle[self.idle_sampler.sample(rng)]
            }
        }
    }

    fn pick_fallback(&self, n: usize, mask: Option<&Availability>, rng: &mut dyn RngCore) -> usize {
        match &self.fallback_sampler {
            None => match mask {
                Some(avail) => avail.up_list()[rng.gen_range(0..avail.num_up())] as usize,
                None => rng.gen_range(0..n),
            },
            // Rejection sampling keeps the fallback ∝ µ over the up set;
            // rates are strictly positive, so this terminates.
            Some(sampler) => match mask {
                Some(avail) => loop {
                    let s = sampler.sample(rng);
                    if avail.is_up(s) {
                        break s;
                    }
                },
                None => sampler.sample(rng),
            },
        }
    }
}

impl DispatchPolicy for JiqPolicy {
    fn policy_name(&self) -> &str {
        self.name
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
        let n = self.local.len();
        if let Some(sampler) = &self.fallback_sampler {
            assert_eq!(sampler.len(), n, "hJIQ was built for another cluster");
        }
        // Down servers are neither idle candidates nor fallback targets when
        // an availability mask is active.
        let mask = ctx.active_mask();
        for _ in 0..batch {
            self.idle.clear();
            match mask {
                Some(avail) => {
                    for &s in avail.up_list() {
                        if self.local[s as usize] == 0 {
                            self.idle.push(s as usize);
                        }
                    }
                }
                None => {
                    for s in 0..n {
                        if self.local[s] == 0 {
                            self.idle.push(s);
                        }
                    }
                }
            }
            let target = if self.idle.is_empty() {
                self.pick_fallback(n, mask, rng)
            } else {
                self.pick_idle(ctx.rates(), rng)
            };
            self.local[target] += 1;
            out.push(ServerId::new(target));
        }
    }
}

/// Factory for [`JiqPolicy`].
#[derive(Debug, Clone)]
pub struct JiqFactory {
    variant: JiqVariant,
}

impl JiqFactory {
    /// Classic JIQ.
    pub fn new() -> Self {
        JiqFactory {
            variant: JiqVariant::Uniform,
        }
    }

    /// Heterogeneity-aware JIQ.
    pub fn heterogeneous() -> Self {
        JiqFactory {
            variant: JiqVariant::Heterogeneous,
        }
    }
}

impl Default for JiqFactory {
    fn default() -> Self {
        JiqFactory::new()
    }
}

impl PolicyFactory for JiqFactory {
    fn name(&self) -> &str {
        match self.variant {
            JiqVariant::Uniform => "JIQ",
            JiqVariant::Heterogeneous => "hJIQ",
        }
    }

    fn build(&self, _dispatcher: DispatcherId, spec: &ClusterSpec) -> BoxedPolicy {
        match self.variant {
            JiqVariant::Uniform => Box::new(JiqPolicy::uniform()),
            JiqVariant::Heterogeneous => Box::new(JiqPolicy::heterogeneous(spec)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn prefers_idle_servers() {
        let queues = vec![4u64, 0, 7, 0];
        let rates = vec![1.0; 4];
        let ctx = DispatchContext::new(&queues, &rates, 1, 0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut policy = JiqPolicy::uniform();
        for _ in 0..100 {
            let out = policy.dispatch_batch(&ctx, 1, &mut rng);
            let s = out[0].index();
            assert!(s == 1 || s == 3, "JIQ must pick an idle server, got {s}");
        }
    }

    #[test]
    fn batch_exhausts_idle_servers_before_falling_back() {
        let queues = vec![3u64, 0, 0];
        let rates = vec![1.0; 3];
        let ctx = DispatchContext::new(&queues, &rates, 1, 0);
        let mut rng = StdRng::seed_from_u64(2);
        let mut policy = JiqPolicy::uniform();
        let out = policy.dispatch_batch(&ctx, 2, &mut rng);
        let mut targets: Vec<usize> = out.iter().map(|s| s.index()).collect();
        targets.sort_unstable();
        assert_eq!(
            targets,
            vec![1, 2],
            "both idle servers get exactly one job first"
        );
    }

    #[test]
    fn falls_back_to_random_when_no_server_is_idle() {
        let queues = vec![5u64, 9];
        let rates = vec![1.0, 1.0];
        let ctx = DispatchContext::new(&queues, &rates, 1, 0);
        let mut rng = StdRng::seed_from_u64(3);
        let mut policy = JiqPolicy::uniform();
        let picks = policy.dispatch_batch(&ctx, 5_000, &mut rng);
        let to_zero = picks.iter().filter(|s| s.index() == 0).count() as f64 / 5_000.0;
        assert!(
            (to_zero - 0.5).abs() < 0.05,
            "fallback is uniform, got {to_zero}"
        );
    }

    #[test]
    fn heterogeneous_fallback_is_rate_proportional() {
        let queues = vec![5u64, 9];
        let rates = vec![4.0, 1.0];
        let spec = ClusterSpec::from_rates(rates.clone()).unwrap();
        let ctx = DispatchContext::new(&queues, &rates, 1, 0);
        let mut rng = StdRng::seed_from_u64(4);
        let mut policy = JiqPolicy::heterogeneous(&spec);
        assert_eq!(policy.policy_name(), "hJIQ");
        assert_eq!(policy.variant(), JiqVariant::Heterogeneous);
        let picks = policy.dispatch_batch(&ctx, 5_000, &mut rng);
        let to_fast = picks.iter().filter(|s| s.index() == 0).count() as f64 / 5_000.0;
        assert!(
            (to_fast - 0.8).abs() < 0.05,
            "fallback should be ∝ µ, got {to_fast}"
        );
    }

    #[test]
    fn heterogeneous_idle_choice_is_rate_proportional() {
        let queues = vec![0u64, 0, 10];
        let rates = vec![9.0, 1.0, 1.0];
        let spec = ClusterSpec::from_rates(rates.clone()).unwrap();
        let ctx = DispatchContext::new(&queues, &rates, 1, 0);
        let mut rng = StdRng::seed_from_u64(5);
        let mut policy = JiqPolicy::heterogeneous(&spec);
        let mut to_fast = 0usize;
        let trials = 5_000;
        for _ in 0..trials {
            let out = policy.dispatch_batch(&ctx, 1, &mut rng);
            if out[0].index() == 0 {
                to_fast += 1;
            }
        }
        let share = to_fast as f64 / trials as f64;
        assert!(
            (share - 0.9).abs() < 0.03,
            "idle choice should be ∝ µ, got {share}"
        );
    }

    #[test]
    fn factories_build_the_right_variant() {
        let spec = ClusterSpec::from_rates(vec![1.0, 2.0]).unwrap();
        let f = JiqFactory::new();
        assert_eq!(f.name(), "JIQ");
        assert_eq!(f.build(DispatcherId::new(0), &spec).policy_name(), "JIQ");
        let h = JiqFactory::heterogeneous();
        assert_eq!(h.name(), "hJIQ");
        assert_eq!(h.build(DispatcherId::new(0), &spec).policy_name(), "hJIQ");
    }
}
