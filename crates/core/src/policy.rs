//! The complete SCD dispatching procedure (Algorithm 2) packaged as a
//! [`DispatchPolicy`].
//!
//! Every round, each dispatcher independently:
//!
//! 1. observes the queue lengths `q_s(t)`;
//! 2. estimates the total arrivals `a_est` from its own batch (Eq. 18);
//! 3. computes the optimal dispatching probabilities (Eq. 10);
//! 4. draws an i.i.d. destination from `P` for every job in its batch.
//!
//! Steps 3 and 4 run on the dispatch kernel ([`scd_model::ScdTable`]): the
//! servers sorted by their Corollary 1 key with prefix sums, built once per
//! round and shared through the engine's [`scd_model::RoundCache`], then a
//! binary search per dispatcher and an inverse-CDF draw per job. Rounds
//! without a shared table (availability-masked or stale views, direct calls)
//! build the same table privately. No *decision* state is carried across
//! rounds — SCD stays memoryless, which is what makes it robust to
//! dispatcher churn.

use crate::estimator::ArrivalEstimator;
use crate::solver::{solve, solve_round_into, ScdScratch, SolverKind};
use rand::RngCore;
use scd_model::{
    AliasSampler, BoxedPolicy, ClusterSpec, DispatchContext, DispatchPolicy, DispatcherId,
    DrawScratch, PolicyFactory, ScdTable, ServerId,
};

/// The Stochastically Coordinated Dispatching policy of the paper.
///
/// # Example
/// ```
/// use scd_core::policy::ScdPolicy;
/// use scd_model::{DispatchContext, DispatchPolicy};
/// use rand::SeedableRng;
///
/// let mut policy = ScdPolicy::new();
/// let queues = vec![9u64, 0, 0, 0, 0, 0, 0, 0, 0];
/// let rates = vec![10.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
/// let ctx = DispatchContext::new(&queues, &rates, 1, 0);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let destinations = policy.dispatch_batch(&ctx, 7, &mut rng);
/// assert_eq!(destinations.len(), 7);
/// ```
#[derive(Debug, Clone)]
pub struct ScdPolicy {
    estimator: ArrivalEstimator,
    solver: SolverKind,
    name: String,
    /// Private dispatch table for rounds without a shared one.
    table: ScdTable,
    /// Reusable draw buffers.
    draws: DrawScratch,
    /// Reusable alias table for the Algorithm 1 baseline.
    sampler: AliasSampler,
    /// Reusable compacted queue/rate buffers for availability-masked rounds
    /// (down servers are removed before the solve; see `dispatch_into`).
    masked_queues: Vec<u64>,
    masked_rates: Vec<f64>,
}

impl ScdPolicy {
    /// SCD with the paper's defaults: estimator `a_est = m·a(d)` and the
    /// dispatch kernel.
    pub fn new() -> Self {
        Self::with_options(ArrivalEstimator::ScaledByDispatchers, SolverKind::Fast)
    }

    /// SCD with an explicit estimator and solver choice.
    pub fn with_options(estimator: ArrivalEstimator, solver: SolverKind) -> Self {
        let name = match solver {
            SolverKind::Fast => "SCD".to_string(),
            SolverKind::Quadratic => "SCD(alg1)".to_string(),
        };
        ScdPolicy {
            estimator,
            solver,
            name,
            table: ScdTable::new(),
            draws: DrawScratch::default(),
            sampler: AliasSampler::default(),
            masked_queues: Vec::new(),
            masked_rates: Vec::new(),
        }
    }

    /// Overrides the display name (used by ablation experiments that run
    /// several SCD variants side by side).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// The estimator in use.
    pub fn estimator(&self) -> ArrivalEstimator {
        self.estimator
    }

    /// The solver in use.
    pub fn solver(&self) -> SolverKind {
        self.solver
    }

    /// Computes this round's dispatching distribution without sampling —
    /// exposed for tests, examples and the decision-time benchmarks.
    ///
    /// Runs the *same* kernel as
    /// [`dispatch_into`](DispatchPolicy::dispatch_into) on a private table,
    /// so the returned vector is exactly the distribution a dispatch
    /// samples from.
    pub fn distribution(&self, ctx: &DispatchContext<'_>, batch: usize) -> Vec<f64> {
        let a_est = self.estimator.estimate(batch as u64, ctx.num_dispatchers());
        let mut scratch = ScdScratch::default();
        let mut probabilities = Vec::new();
        if let Some(avail) = ctx.active_mask() {
            // Same compact-solve-and-scatter as the masked dispatch path:
            // down servers carry zero probability.
            let queues = ctx.queue_lengths();
            let rates = ctx.rates();
            let up = avail.up_list();
            let compact_queues: Vec<u64> = up.iter().map(|&s| queues[s as usize]).collect();
            let compact_rates: Vec<f64> = up.iter().map(|&s| rates[s as usize]).collect();
            let mut compact = Vec::new();
            solve_round_into(
                &compact_queues,
                &compact_rates,
                a_est,
                self.solver,
                &mut scratch,
                &mut compact,
            )
            .expect("the up subset of an engine cluster state is always valid");
            probabilities = vec![0.0; queues.len()];
            for (&s, &p) in up.iter().zip(&compact) {
                probabilities[s as usize] = p;
            }
            return probabilities;
        }
        solve_round_into(
            ctx.queue_lengths(),
            ctx.rates(),
            a_est,
            self.solver,
            &mut scratch,
            &mut probabilities,
        )
        .expect("cluster state from the engine is always valid");
        probabilities
    }
}

impl Default for ScdPolicy {
    fn default() -> Self {
        ScdPolicy::new()
    }
}

impl DispatchPolicy for ScdPolicy {
    fn policy_name(&self) -> &str {
        &self.name
    }

    fn round_cache_demand(&self) -> scd_model::CacheDemand {
        // The round's dispatch table comes from the shared cache when the
        // engine provides one.
        scd_model::CacheDemand::SolverTables
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
        let a_est = self.estimator.estimate(batch as u64, ctx.num_dispatchers());
        let ScdPolicy {
            solver,
            table,
            draws,
            sampler,
            masked_queues,
            masked_rates,
            ..
        } = self;
        // Availability-masked round: down servers must receive zero
        // probability, which the solver expresses naturally when they are
        // simply absent. Compact the up servers' (q, µ), solve the reduced
        // problem, and map sampled positions back through the up list. SCD
        // stays memoryless, so the reduced problem is exactly SCD on the
        // surviving cluster.
        let up = ctx.active_mask().map(|avail| avail.up_list());
        let (queues, rates) = match up {
            Some(up) => {
                masked_queues.clear();
                masked_rates.clear();
                for &s in up {
                    masked_queues.push(ctx.queue_lengths()[s as usize]);
                    masked_rates.push(ctx.rates()[s as usize]);
                }
                (&masked_queues[..], &masked_rates[..])
            }
            None => (ctx.queue_lengths(), ctx.rates()),
        };
        let mut emit = |s: usize| out.push(ServerId::new(up.map_or(s, |up| up[s] as usize)));
        if *solver == SolverKind::Quadratic {
            // The Algorithm 1 baseline of Figures 5 and 8: a full solve per
            // decision, then an alias table.
            let solution = solve(queues, rates, a_est, *solver)
                .expect("cluster state from the engine is always valid");
            sampler
                .rebuild(&solution.probabilities)
                .expect("solver output is a valid probability vector");
            (0..batch).for_each(|_| emit(sampler.sample(rng)));
            return;
        }
        // The round's shared table when the engine provides one (built by
        // the round's first SCD dispatch), a private one otherwise — the
        // same pure function of the snapshot either way.
        if up.is_none() {
            if let Some(shared) = ctx.cache().and_then(|cache| cache.scd_table()) {
                if shared.num_servers() == queues.len() {
                    shared.dispatch(a_est, batch, draws, rng, emit);
                    return;
                }
            }
        }
        table.refresh(queues, rates, None);
        table.dispatch(a_est, batch, draws, rng, emit);
    }
}

/// Factory that equips every dispatcher with its own [`ScdPolicy`] instance.
#[derive(Debug, Clone)]
pub struct ScdFactory {
    estimator: ArrivalEstimator,
    solver: SolverKind,
    name: String,
}

impl ScdFactory {
    /// SCD with the paper's defaults.
    pub fn new() -> Self {
        Self::with_options(ArrivalEstimator::ScaledByDispatchers, SolverKind::Fast)
    }

    /// SCD with an explicit estimator and solver choice.
    pub fn with_options(estimator: ArrivalEstimator, solver: SolverKind) -> Self {
        let name = match solver {
            SolverKind::Fast => "SCD".to_string(),
            SolverKind::Quadratic => "SCD(alg1)".to_string(),
        };
        ScdFactory {
            estimator,
            solver,
            name,
        }
    }

    /// Overrides the display name.
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }
}

impl Default for ScdFactory {
    fn default() -> Self {
        ScdFactory::new()
    }
}

impl PolicyFactory for ScdFactory {
    fn name(&self) -> &str {
        &self.name
    }

    fn build(&self, _dispatcher: DispatcherId, _spec: &ClusterSpec) -> BoxedPolicy {
        Box::new(ScdPolicy::with_options(self.estimator, self.solver).with_name(self.name.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn figure2_cluster() -> (Vec<u64>, Vec<f64>) {
        let mut queues = vec![9u64];
        queues.extend(std::iter::repeat_n(0, 8));
        let mut rates = vec![10.0];
        rates.extend(std::iter::repeat_n(1.0, 8));
        (queues, rates)
    }

    #[test]
    fn empty_batch_dispatches_nothing() {
        let (queues, rates) = figure2_cluster();
        let ctx = DispatchContext::new(&queues, &rates, 1, 0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut policy = ScdPolicy::new();
        assert!(policy.dispatch_batch(&ctx, 0, &mut rng).is_empty());
    }

    #[test]
    fn dispatch_produces_valid_destinations() {
        let (queues, rates) = figure2_cluster();
        let ctx = DispatchContext::new(&queues, &rates, 4, 0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut policy = ScdPolicy::new();
        let out = policy.dispatch_batch(&ctx, 50, &mut rng);
        assert_eq!(out.len(), 50);
        assert!(out.iter().all(|s| s.index() < queues.len()));
    }

    #[test]
    fn empirical_distribution_matches_solver_output() {
        let (queues, rates) = figure2_cluster();
        // Single dispatcher so a_est = batch exactly.
        let ctx = DispatchContext::new(&queues, &rates, 1, 0);
        let policy = ScdPolicy::new();
        let expected = policy.distribution(&ctx, 7);
        let mut policy = policy;
        let mut rng = StdRng::seed_from_u64(12345);
        let mut counts = vec![0usize; queues.len()];
        let trials = 40_000;
        for _ in 0..trials {
            for s in policy.dispatch_batch(&ctx, 7, &mut rng) {
                counts[s.index()] += 1;
            }
        }
        let total: usize = counts.iter().sum();
        assert_eq!(total, trials * 7);
        for (s, &c) in counts.iter().enumerate() {
            let freq = c as f64 / total as f64;
            assert!(
                (freq - expected[s]).abs() < 0.01,
                "server {s}: empirical {freq}, expected {}",
                expected[s]
            );
        }
    }

    #[test]
    fn estimator_affects_the_distribution() {
        let (queues, rates) = figure2_cluster();
        let ctx = DispatchContext::new(&queues, &rates, 10, 0);
        let own_only = ScdPolicy::with_options(ArrivalEstimator::OwnOnly, SolverKind::Fast);
        let scaled = ScdPolicy::new();
        let p_own = own_only.distribution(&ctx, 2);
        let p_scaled = scaled.distribution(&ctx, 2);
        // With a larger estimated total, mass spreads onto more servers
        // (including the fast one that is above the IWL).
        assert!(p_scaled[0] > 0.0);
        assert!(
            p_own.iter().filter(|&&p| p > 0.0).count()
                <= p_scaled.iter().filter(|&&p| p > 0.0).count()
        );
    }

    #[test]
    fn both_solver_kinds_produce_the_same_distribution() {
        let (queues, rates) = figure2_cluster();
        let ctx = DispatchContext::new(&queues, &rates, 5, 0);
        let fast = ScdPolicy::with_options(ArrivalEstimator::ScaledByDispatchers, SolverKind::Fast);
        let quad =
            ScdPolicy::with_options(ArrivalEstimator::ScaledByDispatchers, SolverKind::Quadratic);
        let pf = fast.distribution(&ctx, 3);
        let pq = quad.distribution(&ctx, 3);
        for (a, b) in pf.iter().zip(&pq) {
            assert!((a - b).abs() < 1e-9);
        }
        assert_eq!(fast.policy_name(), "SCD");
        assert_eq!(quad.policy_name(), "SCD(alg1)");
    }

    #[test]
    fn factory_builds_named_policies() {
        let spec = ClusterSpec::from_rates(vec![1.0, 2.0]).unwrap();
        let factory = ScdFactory::new();
        assert_eq!(factory.name(), "SCD");
        let policy = factory.build(DispatcherId::new(0), &spec);
        assert_eq!(policy.policy_name(), "SCD");

        let renamed = ScdFactory::with_options(ArrivalEstimator::OwnOnly, SolverKind::Fast)
            .with_name("SCD[own]");
        assert_eq!(renamed.name(), "SCD[own]");
        let policy = renamed.build(DispatcherId::new(1), &spec);
        assert_eq!(policy.policy_name(), "SCD[own]");
    }

    #[test]
    fn accessors_report_configuration() {
        let p = ScdPolicy::with_options(ArrivalEstimator::Constant(8.0), SolverKind::Quadratic);
        assert_eq!(p.estimator(), ArrivalEstimator::Constant(8.0));
        assert_eq!(p.solver(), SolverKind::Quadratic);
        assert_eq!(p.with_name("alg1").policy_name(), "alg1");
    }

    #[test]
    fn compressed_engine_dispatch_matches_the_distribution() {
        // A compressible cluster behind a shared round cache — the engine
        // configuration class groups target. The empirical destination
        // frequencies must match `distribution()`.
        let queues: Vec<u64> = (0..64).map(|s| ((s * 5 + 1) % 7) as u64).collect();
        let rates: Vec<f64> = (0..64)
            .map(|s| if s % 4 == 0 { 3.0 } else { 1.0 })
            .collect();
        let mut cache = scd_model::RoundCache::new();
        cache.begin_round(&queues, &rates);
        assert!(cache.scd_table().unwrap().uses_classes());
        let ctx = DispatchContext::with_cache(&queues, &rates, 1, 0, &cache);
        let mut policy = ScdPolicy::new();
        let expected = policy.distribution(&ctx, 9);
        let mut rng = StdRng::seed_from_u64(314);
        let mut counts = vec![0usize; queues.len()];
        let trials = 30_000;
        for _ in 0..trials {
            for s in policy.dispatch_batch(&ctx, 9, &mut rng) {
                counts[s.index()] += 1;
            }
        }
        let total: usize = counts.iter().sum();
        for (s, &c) in counts.iter().enumerate() {
            let freq = c as f64 / total as f64;
            assert!(
                (freq - expected[s]).abs() < 0.01,
                "server {s}: empirical {freq}, expected {}",
                expected[s]
            );
        }
    }
}
