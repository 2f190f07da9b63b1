//! The complete SCD dispatching procedure (Algorithm 2) packaged as a
//! [`DispatchPolicy`].
//!
//! Every round, each dispatcher independently:
//!
//! 1. observes the queue lengths `q_s(t)`;
//! 2. estimates the total arrivals `a_est` from its own batch (Eq. 18);
//! 3. computes the ideal workload (Algorithm 3);
//! 4. computes the optimal dispatching probabilities (Algorithm 1 or 4);
//! 5. draws an i.i.d. destination from `P` for every job in its batch.
//!
//! The struct is allocation-free in steady state: the probability vector and
//! the alias table are recomputed each round (they depend on the fresh queue
//! state) but into buffers that persist across rounds, and the solver runs
//! sort-free trimming passes over cached load/key vectors. No *decision*
//! state is carried across rounds — SCD stays memoryless, which is what
//! makes it robust to dispatcher churn.

use crate::estimator::ArrivalEstimator;
use crate::solver::{
    scd_dispatch_cached, scd_dispatch_compressed, solve_round_into, ScdScratch, SolverKind,
};
use rand::RngCore;
use scd_model::{
    AliasSampler, BoxedPolicy, ClusterSpec, DispatchContext, DispatchPolicy, DispatcherId,
    PolicyFactory, ServerId,
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
    /// Reusable sort/key buffers for the per-round solve.
    scratch: ScdScratch,
    /// Reusable probability vector.
    probabilities: Vec<f64>,
    /// Reusable alias table for destination sampling.
    sampler: AliasSampler,
    /// Reusable compacted queue/rate buffers for availability-masked rounds
    /// (down servers are removed before the solve; see `dispatch_into`).
    masked_queues: Vec<u64>,
    masked_rates: Vec<f64>,
    /// Reusable per-class weight buffer for the compressed dispatch kernel.
    class_weights: Vec<f64>,
    /// Prefer the class-compressed dispatch kernel
    /// ([`scd_dispatch_compressed`]) on engine rounds whose snapshot is
    /// viable for compression, falling back to the dense kernel otherwise.
    /// Samples the same per-round distribution through a different RNG
    /// consumption pattern — see [`ScdPolicy::classic_sampler`].
    compressed: bool,
    /// Warm-start the solver's trimming iterations from the previous
    /// accepted solve (verified, bit-identical — see
    /// [`solve_round_cached`]). False only for the cold-solve reference
    /// configuration ([`ScdPolicy::cold_solve`], the equivalence oracle).
    warm_start: bool,
}

impl ScdPolicy {
    /// SCD with the paper's defaults: estimator `a_est = m·a(d)` and the
    /// `O(n log n)` solver (Algorithm 4).
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
            scratch: ScdScratch::default(),
            probabilities: Vec::new(),
            sampler: AliasSampler::default(),
            masked_queues: Vec::new(),
            masked_rates: Vec::new(),
            class_weights: Vec::new(),
            compressed: true,
            warm_start: true,
        }
    }

    /// Overrides the display name (used by ablation experiments that run
    /// several SCD variants side by side).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Disables solver warm starting — every round re-derives the trimming
    /// fixpoints from scratch. Decisions are bit-identical to the warm
    /// default for equal seeds; only the cost differs. Kept as the
    /// equivalence oracle.
    pub fn cold_solve(mut self) -> Self {
        self.warm_start = false;
        self
    }

    /// Disables the class-compressed dispatch kernel: every engine round
    /// runs the dense per-server fill/normalize/alias chain of PR 8, even
    /// when the snapshot compresses. The compressed kernel samples the
    /// *same* per-round distribution (exactly — class members are
    /// interchangeable under the solver's closed form) but consumes two RNG
    /// draws per job instead of one, so the two configurations produce
    /// different sample paths for equal seeds. Kept as the
    /// distribution-equivalence oracle.
    pub fn classic_sampler(mut self) -> Self {
        self.compressed = false;
        self
    }

    /// Whether the class-compressed dispatch kernel is preferred on viable
    /// engine rounds.
    pub fn compressed(&self) -> bool {
        self.compressed
    }

    /// Whether the solver warm-starts from the previous accepted solve.
    pub fn warm_start(&self) -> bool {
        self.warm_start
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
    /// Runs the *same* solver pipeline as
    /// [`dispatch_into`](DispatchPolicy::dispatch_into) (into a temporary
    /// scratch), so the returned vector is exactly the distribution a
    /// dispatch would sample from — including any last-ulp clipping at the
    /// probable-set boundary.
    pub fn distribution(&self, ctx: &DispatchContext<'_>, batch: usize) -> Vec<f64> {
        let a_est = self.estimator.estimate(batch as u64, ctx.num_dispatchers());
        let mut scratch = ScdScratch::default();
        let mut probabilities = Vec::new();
        if let Some(avail) = ctx.active_mask() {
            // Same compact-solve-and-scatter as the masked dispatch path:
            // down servers carry zero probability.
            let queues = ctx.queue_lengths();
            let rates = ctx.rates();
            let compact_queues: Vec<u64> = avail
                .up_list()
                .iter()
                .map(|&s| queues[s as usize])
                .collect();
            let compact_rates: Vec<f64> =
                avail.up_list().iter().map(|&s| rates[s as usize]).collect();
            let mut compact = Vec::new();
            solve_round_into(
                &compact_queues,
                &compact_rates,
                a_est,
                self.solver,
                self.warm_start,
                &mut scratch,
                &mut compact,
            )
            .expect("the up subset of an engine cluster state is always valid");
            probabilities = vec![0.0; queues.len()];
            for (pos, &s) in avail.up_list().iter().enumerate() {
                probabilities[s as usize] = compact[pos];
            }
            return probabilities;
        }
        // A one-shot scratch carries no seed, so the warm flag is moot; pass
        // the configured value anyway for symmetry.
        solve_round_into(
            ctx.queue_lengths(),
            ctx.rates(),
            a_est,
            self.solver,
            self.warm_start,
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
        // Loads and Corollary 1 keys come from the shared tables when the
        // engine provides them (`solve_round_cached`).
        scd_model::CacheDemand::SolverTables
    }

    fn dispatch_batch(
        &mut self,
        ctx: &DispatchContext<'_>,
        batch: usize,
        rng: &mut dyn RngCore,
    ) -> Vec<ServerId> {
        let mut out = Vec::with_capacity(batch);
        self.dispatch_into(ctx, batch, &mut out, rng);
        out
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
        if let Some(avail) = ctx.active_mask() {
            // Availability-masked round: down servers must receive zero
            // probability, which the water-filling solver expresses naturally
            // when they are simply absent. Compact the up servers' (q, µ)
            // into dense buffers, solve the reduced problem, and map sampled
            // positions back through the up list. SCD stays memoryless, so
            // the reduced problem is exactly SCD on the surviving cluster.
            let queues = ctx.queue_lengths();
            let rates = ctx.rates();
            self.masked_queues.clear();
            self.masked_rates.clear();
            for &s in avail.up_list() {
                self.masked_queues.push(queues[s as usize]);
                self.masked_rates.push(rates[s as usize]);
            }
            solve_round_into(
                &self.masked_queues,
                &self.masked_rates,
                a_est,
                self.solver,
                self.warm_start,
                &mut self.scratch,
                &mut self.probabilities,
            )
            .expect("the up subset of an engine cluster state is always valid");
            self.sampler
                .rebuild(&self.probabilities)
                .expect("solver output is a valid probability vector");
            out.extend(
                (0..batch)
                    .map(|_| ServerId::new(avail.up_list()[self.sampler.sample(rng)] as usize)),
            );
            return;
        }
        // Prefer the engine's shared per-round tables (loads, solver keys)
        // when present; both entry points are bit-identical, so direct policy
        // invocations without a cache behave exactly like engine runs.
        match ctx.cache() {
            // The one-call dispatch kernel: memoized solve + in-memo alias
            // tables + sampling (warm mode) or the plain PR 4 decision path
            // (cold mode) — bit-identical destinations either way.
            Some(cache) => {
                if self.compressed {
                    let dispatched = scd_dispatch_compressed(
                        ctx.queue_lengths(),
                        ctx.rates(),
                        cache,
                        a_est,
                        self.solver,
                        batch,
                        &mut self.class_weights,
                        &mut self.sampler,
                        out,
                        rng,
                    )
                    .expect("cluster state from the engine is always valid");
                    if dispatched.is_some() {
                        return;
                    }
                }
                scd_dispatch_cached(
                    ctx.queue_lengths(),
                    ctx.rates(),
                    cache,
                    a_est,
                    self.solver,
                    self.warm_start,
                    batch,
                    &mut self.probabilities,
                    &mut self.sampler,
                    out,
                    rng,
                )
                .expect("cluster state from the engine is always valid");
            }
            None => {
                solve_round_into(
                    ctx.queue_lengths(),
                    ctx.rates(),
                    a_est,
                    self.solver,
                    self.warm_start,
                    &mut self.scratch,
                    &mut self.probabilities,
                )
                .expect("cluster state from the engine is always valid");
                self.sampler
                    .rebuild(&self.probabilities)
                    .expect("solver output is a valid probability vector");
                out.extend((0..batch).map(|_| ServerId::new(self.sampler.sample(rng))));
            }
        }
    }
}

/// Factory that equips every dispatcher with its own [`ScdPolicy`] instance.
#[derive(Debug, Clone)]
pub struct ScdFactory {
    estimator: ArrivalEstimator,
    solver: SolverKind,
    name: String,
    warm_start: bool,
    compressed: bool,
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
            warm_start: true,
            compressed: true,
        }
    }

    /// Overrides the display name.
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Builds cold-solve policies (see [`ScdPolicy::cold_solve`]),
    /// bit-identical to the warm default for equal seeds. Reports carry the
    /// same name so warm and cold runs of one seed compare equal.
    pub fn cold_solve(mut self) -> Self {
        self.warm_start = false;
        self
    }

    /// Builds classic-sampler policies (see [`ScdPolicy::classic_sampler`])
    /// — the dense per-server dispatch chain, kept as the sample-path
    /// reference for the compressed kernel.
    pub fn classic_sampler(mut self) -> Self {
        self.compressed = false;
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
        let mut policy =
            ScdPolicy::with_options(self.estimator, self.solver).with_name(self.name.clone());
        if !self.warm_start {
            policy = policy.cold_solve();
        }
        if !self.compressed {
            policy = policy.classic_sampler();
        }
        Box::new(policy)
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
        assert!(p.compressed());
        assert!(!p.classic_sampler().compressed());
    }

    #[test]
    fn compressed_engine_dispatch_matches_the_distribution() {
        // A compressible cluster behind a shared round cache — the engine
        // configuration the class kernel targets. The empirical destination
        // frequencies must match the dense solver's distribution, which is
        // what `distribution()` reports regardless of sampler choice.
        let queues: Vec<u64> = (0..48).map(|s| ((s * 5 + 1) % 7) as u64).collect();
        let rates: Vec<f64> = (0..48)
            .map(|s| if s % 4 == 0 { 3.0 } else { 1.0 })
            .collect();
        let mut cache = scd_model::RoundCache::new();
        cache.begin_round(&queues, &rates);
        let ctx = DispatchContext::with_cache(&queues, &rates, 1, 0, &cache);
        let mut policy = ScdPolicy::new();
        assert!(policy.compressed());
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
