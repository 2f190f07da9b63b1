//! Tidal-Water-Filling (TWF) — the stochastic-coordination policy of the
//! companion paper \[22\], which assumes a homogeneous cluster.
//!
//! TWF runs the very same pipeline as SCD (estimate the total arrivals,
//! compute the water level, solve the coordination problem, sample i.i.d.
//! destinations) but is *oblivious to service rates*: it balances the number
//! of jobs per server rather than the expected work. In a homogeneous system
//! the two coincide; under heterogeneity TWF keeps fast servers underutilized
//! and overloads slow ones, which is exactly the degradation the paper's
//! Figures 3–4 display. We implement it by feeding the SCD solver a cluster
//! whose rates are all 1.

use rand::RngCore;
use scd_core::estimator::ArrivalEstimator;
use scd_core::solver::{solve_round_into, ScdScratch, SolverKind};
use scd_model::{
    BoxedPolicy, ClusterSpec, DispatchContext, DispatchPolicy, DispatcherId, DrawScratch,
    PolicyFactory, ScdTable, ServerId,
};

/// The TWF policy (rate-oblivious stochastic coordination).
#[derive(Debug, Clone)]
pub struct TwfPolicy {
    estimator: ArrivalEstimator,
    /// Scratch vector of all-ones "rates" (resized lazily to the cluster).
    unit_rates: Vec<f64>,
    /// Private dispatch table (same kernel as SCD, unit rates).
    table: ScdTable,
    draws: DrawScratch,
    /// Reusable compacted queue buffer for availability-masked rounds (down
    /// servers are removed before the solve; the unit-rate prefix of
    /// `unit_rates` serves as the reduced rate vector).
    masked_queues: Vec<u64>,
}

impl TwfPolicy {
    /// TWF with the paper's arrival estimator `a_est = m·a(d)`.
    pub fn new() -> Self {
        Self::with_estimator(ArrivalEstimator::ScaledByDispatchers)
    }

    /// TWF with an explicit arrival estimator.
    pub fn with_estimator(estimator: ArrivalEstimator) -> Self {
        TwfPolicy {
            estimator,
            unit_rates: Vec::new(),
            table: ScdTable::new(),
            draws: DrawScratch::default(),
            masked_queues: Vec::new(),
        }
    }

    /// Computes this round's (rate-oblivious) dispatching distribution
    /// without sampling — exposed for tests and examples.
    ///
    /// Runs the same kernel as
    /// [`dispatch_into`](DispatchPolicy::dispatch_into), so the returned
    /// vector is exactly the distribution a dispatch would sample from.
    pub fn distribution(&mut self, ctx: &DispatchContext<'_>, batch: usize) -> Vec<f64> {
        let n = ctx.num_servers();
        if self.unit_rates.len() != n {
            self.unit_rates = vec![1.0; n];
        }
        let a_est = self.estimator.estimate(batch as u64, ctx.num_dispatchers());
        let mut probabilities = Vec::new();
        solve_round_into(
            ctx.queue_lengths(),
            &self.unit_rates,
            a_est,
            SolverKind::Fast,
            &mut ScdScratch::default(),
            &mut probabilities,
        )
        .expect("unit-rate cluster state is always valid");
        probabilities
    }
}

impl Default for TwfPolicy {
    fn default() -> Self {
        TwfPolicy::new()
    }
}

impl DispatchPolicy for TwfPolicy {
    fn policy_name(&self) -> &str {
        "TWF"
    }

    fn dispatch_into(
        &mut self,
        ctx: &DispatchContext<'_>,
        batch: usize,
        out: &mut Vec<ServerId>,
        rng: &mut dyn RngCore,
    ) {
        if batch == 0 {
            return;
        }
        let n = ctx.num_servers();
        if self.unit_rates.len() != n {
            self.unit_rates = vec![1.0; n];
        }
        let a_est = self.estimator.estimate(batch as u64, ctx.num_dispatchers());
        // Availability-masked round: solve over the up servers' queues (the
        // unit-rate prefix serves as the reduced rate vector) and map the
        // sampled positions back through the up list, as SCD does.
        let up = ctx.active_mask().map(|avail| avail.up_list());
        let queues = match up {
            Some(up) => {
                self.masked_queues.clear();
                let all = ctx.queue_lengths();
                self.masked_queues
                    .extend(up.iter().map(|&s| all[s as usize]));
                &self.masked_queues[..]
            }
            None => ctx.queue_lengths(),
        };
        self.table
            .refresh(queues, &self.unit_rates[..queues.len()], None);
        self.table
            .dispatch(a_est, batch, &mut self.draws, rng, |s| {
                out.push(ServerId::new(up.map_or(s, |up| up[s] as usize)))
            });
    }
}

/// Factory for [`TwfPolicy`].
#[derive(Debug, Clone, Default)]
pub struct TwfFactory;

impl TwfFactory {
    /// Creates the factory.
    pub fn new() -> Self {
        TwfFactory
    }
}

impl PolicyFactory for TwfFactory {
    fn name(&self) -> &str {
        "TWF"
    }

    fn build(&self, _dispatcher: DispatcherId, _spec: &ClusterSpec) -> BoxedPolicy {
        Box::new(TwfPolicy::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use scd_core::policy::ScdPolicy;

    #[test]
    fn matches_scd_on_homogeneous_clusters() {
        // With all rates equal to 1 the two policies solve the same problem.
        let queues = vec![4u64, 0, 2, 7, 1];
        let rates = vec![1.0; 5];
        let ctx = DispatchContext::new(&queues, &rates, 3, 0);
        let mut twf = TwfPolicy::new();
        let scd = ScdPolicy::new();
        let p_twf = twf.distribution(&ctx, 4);
        let p_scd = scd.distribution(&ctx, 4);
        for (a, b) in p_twf.iter().zip(&p_scd) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn ignores_rates_in_heterogeneous_clusters() {
        // Two servers, same queue length, wildly different rates: TWF splits
        // evenly, SCD sends (almost) everything to the fast server.
        let queues = vec![0u64, 0];
        let rates = vec![100.0, 1.0];
        let ctx = DispatchContext::new(&queues, &rates, 1, 0);
        let mut twf = TwfPolicy::new();
        let scd = ScdPolicy::new();
        let p_twf = twf.distribution(&ctx, 10);
        let p_scd = scd.distribution(&ctx, 10);
        assert!((p_twf[0] - 0.5).abs() < 1e-9, "TWF is rate-oblivious");
        assert!(p_scd[0] > 0.9, "SCD routes to the fast server");
    }

    #[test]
    fn dispatches_valid_destinations() {
        let queues = vec![3u64, 1, 0];
        let rates = vec![2.0, 1.0, 4.0];
        let ctx = DispatchContext::new(&queues, &rates, 2, 0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut twf = TwfPolicy::with_estimator(ArrivalEstimator::OwnOnly);
        let out = twf.dispatch_batch(&ctx, 25, &mut rng);
        assert_eq!(out.len(), 25);
        assert!(out.iter().all(|s| s.index() < 3));
        assert!(twf.dispatch_batch(&ctx, 0, &mut rng).is_empty());
    }

    #[test]
    fn factory_builds_twf() {
        let spec = ClusterSpec::from_rates(vec![1.0, 5.0]).unwrap();
        let factory = TwfFactory::new();
        assert_eq!(factory.name(), "TWF");
        assert_eq!(
            factory.build(DispatcherId::new(0), &spec).policy_name(),
            "TWF"
        );
    }
}
