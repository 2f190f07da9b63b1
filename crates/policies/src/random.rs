//! Load-oblivious policies: weighted random (`WR`), uniform random and round
//! robin.
//!
//! `WR` sends each job to server `s` with probability `µ_s / Σ µ_s`,
//! independent of the queue state. It is trivially herd-free and stable, but
//! ignores queue-length information entirely and therefore cannot exploit
//! transient imbalances (Appendix E.1 of the paper shows it is far from
//! competitive). Uniform random and round robin are included as the weakest
//! baselines for tests and examples.

use rand::Rng;
use rand::RngCore;
use scd_model::{
    AliasSampler, BoxedPolicy, ClusterSpec, DispatchContext, DispatchPolicy, DispatcherId,
    PolicyFactory, ServerId, StateReader, StateWriter,
};
use std::sync::Arc;

/// Weighted-random dispatching: `p_s ∝ µ_s`.
#[derive(Debug, Clone)]
pub struct WeightedRandomPolicy {
    /// The cluster's shared µ-proportional table.
    sampler: Arc<AliasSampler>,
}

impl WeightedRandomPolicy {
    /// Builds the policy for a given cluster.
    pub fn new(spec: &ClusterSpec) -> Self {
        WeightedRandomPolicy {
            sampler: spec.rate_sampler(),
        }
    }
}

impl DispatchPolicy for WeightedRandomPolicy {
    fn policy_name(&self) -> &str {
        "WR"
    }

    fn dispatch_into(
        &mut self,
        ctx: &DispatchContext<'_>,
        batch: usize,
        out: &mut Vec<ServerId>,
        rng: &mut dyn RngCore,
    ) {
        match ctx.active_mask() {
            // Rejection sampling keeps `p_s ∝ µ_s` over the up set; rates are
            // strictly positive, so this terminates.
            Some(avail) => out.extend((0..batch).map(|_| {
                ServerId::new(loop {
                    let s = self.sampler.sample(rng);
                    if avail.is_up(s) {
                        break s;
                    }
                })
            })),
            None => out.extend((0..batch).map(|_| ServerId::new(self.sampler.sample(rng)))),
        }
    }
}

/// Factory for [`WeightedRandomPolicy`].
#[derive(Debug, Clone, Default)]
pub struct WeightedRandomFactory;

impl WeightedRandomFactory {
    /// Creates the factory.
    pub fn new() -> Self {
        WeightedRandomFactory
    }
}

impl PolicyFactory for WeightedRandomFactory {
    fn name(&self) -> &str {
        "WR"
    }

    fn build(&self, _dispatcher: DispatcherId, spec: &ClusterSpec) -> BoxedPolicy {
        Box::new(WeightedRandomPolicy::new(spec))
    }
}

/// Uniform-random dispatching (ignores both queues and rates).
#[derive(Debug, Clone, Default)]
pub struct UniformRandomPolicy;

impl UniformRandomPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        UniformRandomPolicy
    }
}

impl DispatchPolicy for UniformRandomPolicy {
    fn policy_name(&self) -> &str {
        "Random"
    }

    fn dispatch_into(
        &mut self,
        ctx: &DispatchContext<'_>,
        batch: usize,
        out: &mut Vec<ServerId>,
        rng: &mut dyn RngCore,
    ) {
        match ctx.active_mask() {
            Some(avail) => out.extend((0..batch).map(|_| {
                ServerId::new(avail.up_list()[rng.gen_range(0..avail.num_up())] as usize)
            })),
            None => {
                let n = ctx.num_servers();
                out.extend((0..batch).map(|_| ServerId::new(rng.gen_range(0..n))));
            }
        }
    }
}

/// Factory for [`UniformRandomPolicy`].
#[derive(Debug, Clone, Default)]
pub struct UniformRandomFactory;

impl UniformRandomFactory {
    /// Creates the factory.
    pub fn new() -> Self {
        UniformRandomFactory
    }
}

impl PolicyFactory for UniformRandomFactory {
    fn name(&self) -> &str {
        "Random"
    }

    fn build(&self, _dispatcher: DispatcherId, _spec: &ClusterSpec) -> BoxedPolicy {
        Box::new(UniformRandomPolicy::new())
    }
}

/// Deterministic round-robin dispatching. Each dispatcher starts its cycle at
/// a different offset so the dispatchers do not all hammer the same server in
/// the same round.
#[derive(Debug, Clone)]
pub struct RoundRobinPolicy {
    next: usize,
}

impl RoundRobinPolicy {
    /// Creates the policy starting its cycle at `offset`.
    pub fn with_offset(offset: usize) -> Self {
        RoundRobinPolicy { next: offset }
    }
}

impl DispatchPolicy for RoundRobinPolicy {
    fn policy_name(&self) -> &str {
        "RoundRobin"
    }

    fn dispatch_into(
        &mut self,
        ctx: &DispatchContext<'_>,
        batch: usize,
        out: &mut Vec<ServerId>,
        _rng: &mut dyn RngCore,
    ) {
        let n = ctx.num_servers();
        let mask = ctx.active_mask();
        out.extend((0..batch).map(|_| {
            // Down servers are skipped without losing the dispatcher's place
            // in the cycle; the engine guarantees at least one up server.
            loop {
                let s = self.next % n;
                self.next = self.next.wrapping_add(1);
                match mask {
                    Some(avail) if !avail.is_up(s) => continue,
                    _ => break ServerId::new(s),
                }
            }
        }));
    }

    fn save_state(&self, out: &mut Vec<u8>) {
        let mut w = StateWriter::new();
        w.u64(self.next as u64);
        out.extend_from_slice(&w.into_bytes());
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        let mut r = StateReader::new(bytes);
        let next = r.u64()?;
        r.finish()?;
        self.next = usize::try_from(next)
            .map_err(|_| format!("round-robin cursor {next} exceeds this platform's usize"))?;
        Ok(())
    }
}

/// Factory for [`RoundRobinPolicy`].
#[derive(Debug, Clone, Default)]
pub struct RoundRobinFactory;

impl RoundRobinFactory {
    /// Creates the factory.
    pub fn new() -> Self {
        RoundRobinFactory
    }
}

impl PolicyFactory for RoundRobinFactory {
    fn name(&self) -> &str {
        "RoundRobin"
    }

    fn build(&self, dispatcher: DispatcherId, _spec: &ClusterSpec) -> BoxedPolicy {
        Box::new(RoundRobinPolicy::with_offset(dispatcher.index()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn weighted_random_matches_rates_empirically() {
        let rates = vec![6.0, 3.0, 1.0];
        let spec = ClusterSpec::from_rates(rates.clone()).unwrap();
        let queues = vec![0u64; 3];
        let ctx = DispatchContext::new(&queues, &rates, 1, 0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut policy = WeightedRandomPolicy::new(&spec);
        let picks = policy.dispatch_batch(&ctx, 50_000, &mut rng);
        let mut counts = [0usize; 3];
        for p in picks {
            counts[p.index()] += 1;
        }
        let expected = [0.6, 0.3, 0.1];
        for i in 0..3 {
            let freq = counts[i] as f64 / 50_000.0;
            assert!((freq - expected[i]).abs() < 0.01, "server {i}: {freq}");
        }
    }

    #[test]
    fn weighted_random_ignores_queue_lengths() {
        let rates = vec![1.0, 1.0];
        let spec = ClusterSpec::from_rates(rates.clone()).unwrap();
        let queues = vec![1000u64, 0];
        let ctx = DispatchContext::new(&queues, &rates, 1, 0);
        let mut rng = StdRng::seed_from_u64(2);
        let mut policy = WeightedRandomPolicy::new(&spec);
        let picks = policy.dispatch_batch(&ctx, 10_000, &mut rng);
        let to_loaded = picks.iter().filter(|s| s.index() == 0).count() as f64 / 10_000.0;
        assert!((to_loaded - 0.5).abs() < 0.03);
    }

    #[test]
    fn uniform_random_covers_all_servers() {
        let rates = vec![5.0, 1.0, 1.0, 1.0];
        let queues = vec![0u64; 4];
        let ctx = DispatchContext::new(&queues, &rates, 1, 0);
        let mut rng = StdRng::seed_from_u64(3);
        let mut policy = UniformRandomPolicy::new();
        let picks = policy.dispatch_batch(&ctx, 20_000, &mut rng);
        let mut counts = [0usize; 4];
        for p in picks {
            counts[p.index()] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let freq = c as f64 / 20_000.0;
            assert!((freq - 0.25).abs() < 0.02, "server {i}: {freq}");
        }
    }

    #[test]
    fn round_robin_cycles_with_offset() {
        let rates = vec![1.0; 3];
        let queues = vec![0u64; 3];
        let ctx = DispatchContext::new(&queues, &rates, 1, 0);
        let mut rng = StdRng::seed_from_u64(4);
        let mut policy = RoundRobinPolicy::with_offset(1);
        let picks = policy.dispatch_batch(&ctx, 5, &mut rng);
        let targets: Vec<usize> = picks.iter().map(|s| s.index()).collect();
        assert_eq!(targets, vec![1, 2, 0, 1, 2]);
    }

    #[test]
    fn factories_build_named_policies() {
        let spec = ClusterSpec::from_rates(vec![1.0, 2.0]).unwrap();
        for (factory, expected) in [
            (
                Box::new(WeightedRandomFactory::new()) as Box<dyn PolicyFactory>,
                "WR",
            ),
            (Box::new(UniformRandomFactory::new()), "Random"),
            (Box::new(RoundRobinFactory::new()), "RoundRobin"),
        ] {
            assert_eq!(factory.name(), expected);
            assert_eq!(
                factory.build(DispatcherId::new(0), &spec).policy_name(),
                expected
            );
        }
    }

    #[test]
    fn round_robin_offsets_differ_per_dispatcher() {
        let spec = ClusterSpec::from_rates(vec![1.0; 4]).unwrap();
        let factory = RoundRobinFactory::new();
        let rates = vec![1.0; 4];
        let queues = vec![0u64; 4];
        let ctx = DispatchContext::new(&queues, &rates, 2, 0);
        let mut rng = StdRng::seed_from_u64(5);
        let mut d0 = factory.build(DispatcherId::new(0), &spec);
        let mut d1 = factory.build(DispatcherId::new(1), &spec);
        let first0 = d0.dispatch_batch(&ctx, 1, &mut rng)[0].index();
        let first1 = d1.dispatch_batch(&ctx, 1, &mut rng)[0].index();
        assert_ne!(first0, first1);
    }
}
