//! Local-Shortest-Queue (LSQ) and its heterogeneity-aware variant `hLSQ`.
//!
//! LSQ (\[54\] in the paper) equips every dispatcher with a *persistent local
//! array* of queue-length estimates. The array is refreshed lazily: each
//! round the dispatcher probes a small number of randomly chosen servers and
//! overwrites their entries with the true queue length; every job it
//! dispatches increments the corresponding local entry. Because different
//! dispatchers probe different servers, their views decorrelate and herding
//! is reduced — but only as long as the views stay weakly correlated
//! (Section 1.1).
//!
//! `hLSQ` (footnote 6) probes servers proportionally to their service rate
//! and ranks local entries by expected delay `(q̂ + 1)/µ`.

use crate::common::{mark_availability_flips, ArgminMode, BatchArgmin, NamedFactory};
use rand::Rng;
use rand::RngCore;
use scd_model::{
    AliasSampler, BoxedPolicy, ClusterSpec, DispatchContext, DispatchPolicy, DispatcherId,
    PolicyFactory, ServerId, StateReader, StateWriter,
};

/// Probing / ranking flavour for LSQ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LsqVariant {
    /// Uniform probing, queue-length ranking.
    Uniform,
    /// Rate-proportional probing, expected-delay ranking.
    Heterogeneous,
}

/// The LSQ policy (one instance per dispatcher; the local array is the whole
/// point).
#[derive(Debug, Clone)]
pub struct LsqPolicy {
    variant: LsqVariant,
    name: &'static str,
    /// Number of servers probed (refreshed with their true queue length) at
    /// the start of every round.
    probes_per_round: usize,
    /// The persistent local estimate of every server's queue length.
    local: Vec<u64>,
    /// Rate-proportional probe sampler for the heterogeneous variant.
    rate_sampler: Option<AliasSampler>,
    rates: Vec<f64>,
    /// Reciprocal rates for the expected-delay ranking (multiplying beats
    /// dividing in the per-job key evaluations).
    inv_rates: Vec<f64>,
    /// Warm argmin engine over the local estimates: the tournament tree
    /// lives across rounds and only probe/placement keys are repaired.
    picker: BatchArgmin,
}

impl LsqPolicy {
    /// Classic LSQ with the given number of probes per round (the paper and
    /// \[54\] use one probe per time slot).
    pub fn uniform(num_servers: usize, probes_per_round: usize) -> Self {
        LsqPolicy {
            variant: LsqVariant::Uniform,
            name: "LSQ",
            probes_per_round,
            local: vec![0; num_servers],
            rate_sampler: None,
            rates: vec![1.0; num_servers],
            inv_rates: vec![1.0; num_servers],
            picker: BatchArgmin::new(ArgminMode::Indexed),
        }
    }

    /// Heterogeneity-aware LSQ.
    pub fn heterogeneous(spec: &ClusterSpec, probes_per_round: usize) -> Self {
        let sampler = AliasSampler::new(spec.rates()).expect("cluster rates are strictly positive");
        LsqPolicy {
            variant: LsqVariant::Heterogeneous,
            name: "hLSQ",
            probes_per_round,
            local: vec![0; spec.num_servers()],
            rate_sampler: Some(sampler),
            rates: spec.rates().to_vec(),
            inv_rates: scd_model::reciprocal_rates(spec.rates()),
            picker: BatchArgmin::new(ArgminMode::Indexed),
        }
    }

    /// Switches the argmin engine mode. [`ArgminMode::Scan`] is the
    /// bit-identical oracle: it follows the same warm priority lifecycle, so
    /// it picks exactly the servers the warm tree picks for equal seeds.
    pub fn with_mode(mut self, mode: ArgminMode) -> Self {
        self.picker = BatchArgmin::new(mode);
        self
    }

    /// The probing/ranking variant.
    pub fn variant(&self) -> LsqVariant {
        self.variant
    }

    /// The dispatcher's current local estimates (exposed for tests and the
    /// herding example).
    pub fn local_estimates(&self) -> &[u64] {
        &self.local
    }

    fn probe_target(&self, n: usize, rng: &mut dyn RngCore) -> usize {
        match self.variant {
            LsqVariant::Uniform => rng.gen_range(0..n),
            LsqVariant::Heterogeneous => self
                .rate_sampler
                .as_ref()
                .expect("heterogeneous variant carries a sampler")
                .sample(rng),
        }
    }

    /// (Re)initializes the per-cluster state when the policy was built
    /// without knowing the cluster size (uniform constructor via registry)
    /// or the cluster size changed under it. A change also invalidates the
    /// warm tree — its keys would describe the old cluster. Rates are static
    /// for a policy's lifetime (one run — the `ClusterSpec` contract), so
    /// only the length is checked; this keeps the warm path's steady state
    /// free of `O(n)` change detection.
    fn sync_dimensions(&mut self, ctx: &DispatchContext<'_>) {
        let n = ctx.num_servers();
        if self.local.len() != n {
            self.local = vec![0; n];
            self.rates = ctx.rates().to_vec();
            self.inv_rates = scd_model::reciprocal_rates(ctx.rates());
            self.picker.invalidate();
        }
    }
}

impl DispatchPolicy for LsqPolicy {
    fn policy_name(&self) -> &str {
        self.name
    }

    fn observe_round(&mut self, ctx: &DispatchContext<'_>, rng: &mut dyn RngCore) {
        self.sync_dimensions(ctx);
        mark_availability_flips(&mut self.picker, ctx);
        let n = ctx.num_servers();
        for probe in 0..self.probes_per_round {
            let target = self.probe_target(n, rng);
            // The target is always *drawn* (the policy stream must not
            // depend on the scenario); a probe the scenario loses — or one
            // sent to a down server — simply fails to refresh the estimate.
            if !ctx.probe_delivered(probe as u64, ServerId::new(target)) {
                continue;
            }
            let truth = ctx.queue_len(ServerId::new(target));
            // Mark only probes that actually moved the estimate: a confirmed
            // entry leaves the warm tree's key valid, so repairing it would
            // be redundant work (near stationarity most probes confirm).
            // LSQ's keys live on the *local* estimates — per-dispatcher
            // state the engine cannot see — so the policy derives its own
            // marks rather than consuming `ctx.dirty_servers()` (the dirty
            // set speaks about the true queues, not about this replica).
            if self.local[target] != truth {
                self.local[target] = truth;
                self.picker.mark_dirty(target);
            }
        }
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
        self.sync_dimensions(ctx);
        mark_availability_flips(&mut self.picker, ctx);
        let n = ctx.num_servers();
        let local = &mut self.local;
        let inv = &self.inv_rates;
        let variant = self.variant;
        // Down servers are not candidates under an active availability mask
        // (`None` on the fair-weather path — the closure is then the plain
        // LSQ/hLSQ key).
        let mask = ctx.active_mask();
        let key = move |i: usize, q: u64| match mask {
            Some(avail) if !avail.is_up(i) => f64::INFINITY,
            _ => match variant {
                LsqVariant::Uniform => q as f64,
                LsqVariant::Heterogeneous => (q as f64 + 1.0) * inv[i],
            },
        };
        self.picker.begin_warm(n, |i| key(i, local[i]), rng);
        for _ in 0..batch {
            let target = self.picker.pick(|i| key(i, local[i]));
            local[target] += 1;
            self.picker.update(target, key(target, local[target]));
            out.push(ServerId::new(target));
        }
    }

    fn save_state(&self, out: &mut Vec<u8>) {
        // The persistent local estimates are the whole point of LSQ; the
        // warm priority epoch must survive too or the first resumed batch
        // would redraw priorities the uninterrupted run never drew. Rates,
        // reciprocal rates, and the probe sampler are static per run and
        // come back from the factory.
        let mut w = StateWriter::new();
        w.u64s(&self.local);
        self.picker.save_warm_state(&mut w);
        out.extend_from_slice(&w.into_bytes());
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        let mut r = StateReader::new(bytes);
        let local = r.u64s()?;
        if local.len() != self.local.len() {
            return Err(format!(
                "{} checkpoint covers {} servers, this cluster has {}",
                self.name,
                local.len(),
                self.local.len()
            ));
        }
        self.local = local;
        self.picker.restore_warm_state(&mut r)?;
        r.finish()
    }
}

/// Factory for [`LsqPolicy`].
#[derive(Debug, Clone)]
pub struct LsqFactory {
    variant: LsqVariant,
    probes_per_round: usize,
    mode: ArgminMode,
}

impl LsqFactory {
    /// Classic LSQ with one probe per round.
    pub fn new() -> Self {
        LsqFactory {
            variant: LsqVariant::Uniform,
            probes_per_round: 1,
            mode: ArgminMode::Indexed,
        }
    }

    /// Heterogeneity-aware LSQ with one probe per round.
    pub fn heterogeneous() -> Self {
        LsqFactory {
            variant: LsqVariant::Heterogeneous,
            ..LsqFactory::new()
        }
    }

    /// Overrides the number of probes per round.
    pub fn with_probes(mut self, probes_per_round: usize) -> Self {
        self.probes_per_round = probes_per_round;
        self
    }

    /// Factory for the scan-mode oracle — bit-identical decisions to the
    /// warm tree for equal seeds (same warm priority lifecycle).
    pub fn scan(mut self) -> Self {
        self.mode = ArgminMode::Scan;
        self
    }

    /// The same configuration wrapped in a [`NamedFactory`].
    pub fn named(self) -> NamedFactory {
        let name = PolicyFactory::name(&self).to_string();
        NamedFactory::new(name, move |d, spec| self.build(d, spec))
    }
}

impl Default for LsqFactory {
    fn default() -> Self {
        LsqFactory::new()
    }
}

impl PolicyFactory for LsqFactory {
    fn name(&self) -> &str {
        match self.variant {
            LsqVariant::Uniform => "LSQ",
            LsqVariant::Heterogeneous => "hLSQ",
        }
    }

    fn build(&self, _dispatcher: DispatcherId, spec: &ClusterSpec) -> BoxedPolicy {
        let policy = match self.variant {
            LsqVariant::Uniform => LsqPolicy::uniform(spec.num_servers(), self.probes_per_round),
            LsqVariant::Heterogeneous => LsqPolicy::heterogeneous(spec, self.probes_per_round),
        };
        Box::new(policy.with_mode(self.mode))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn dispatches_by_local_view_not_true_queues() {
        // Local view starts at all-zero; without probes the policy ignores
        // the true (heavily imbalanced) queues.
        let queues = vec![100u64, 0];
        let rates = vec![1.0, 1.0];
        let ctx = DispatchContext::new(&queues, &rates, 1, 0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut policy = LsqPolicy::uniform(2, 0);
        let out = policy.dispatch_batch(&ctx, 2, &mut rng);
        // With an all-zero local view the two jobs are spread one per server.
        let mut targets: Vec<usize> = out.iter().map(|s| s.index()).collect();
        targets.sort_unstable();
        assert_eq!(targets, vec![0, 1]);
    }

    #[test]
    fn probes_refresh_the_local_view() {
        let queues = vec![100u64, 0];
        let rates = vec![1.0, 1.0];
        let ctx = DispatchContext::new(&queues, &rates, 1, 0);
        let mut rng = StdRng::seed_from_u64(2);
        // Probing every server every round → the local view converges to the
        // truth and jobs go to the genuinely idle server.
        let mut policy = LsqPolicy::uniform(2, 16);
        policy.observe_round(&ctx, &mut rng);
        assert_eq!(policy.local_estimates(), &[100, 0]);
        let out = policy.dispatch_batch(&ctx, 1, &mut rng);
        assert_eq!(out[0].index(), 1);
    }

    #[test]
    fn local_state_persists_across_rounds() {
        let rates = vec![1.0, 1.0];
        let mut policy = LsqPolicy::uniform(2, 0);
        let mut rng = StdRng::seed_from_u64(3);

        let queues1 = vec![0u64, 0];
        let ctx1 = DispatchContext::new(&queues1, &rates, 1, 0);
        policy.observe_round(&ctx1, &mut rng);
        let _ = policy.dispatch_batch(&ctx1, 4, &mut rng);
        // Two jobs per server recorded locally.
        assert_eq!(policy.local_estimates().iter().sum::<u64>(), 4);

        // Next round: no probes, so the inflated estimates persist even
        // though the true queues are empty again.
        let queues2 = vec![0u64, 0];
        let ctx2 = DispatchContext::new(&queues2, &rates, 1, 1);
        policy.observe_round(&ctx2, &mut rng);
        assert_eq!(policy.local_estimates().iter().sum::<u64>(), 4);
    }

    #[test]
    fn heterogeneous_variant_ranks_by_expected_delay() {
        let queues = vec![0u64, 0];
        let rates = vec![10.0, 1.0];
        let spec = ClusterSpec::from_rates(rates.clone()).unwrap();
        let ctx = DispatchContext::new(&queues, &rates, 1, 0);
        let mut rng = StdRng::seed_from_u64(4);
        let mut policy = LsqPolicy::heterogeneous(&spec, 2);
        assert_eq!(policy.policy_name(), "hLSQ");
        assert_eq!(policy.variant(), LsqVariant::Heterogeneous);
        policy.observe_round(&ctx, &mut rng);
        let out = policy.dispatch_batch(&ctx, 8, &mut rng);
        let to_fast = out.iter().filter(|s| s.index() == 0).count();
        // Expected-delay ranking sends most of the batch to the 10× server.
        assert!(to_fast >= 6, "fast server received only {to_fast} of 8");
    }

    #[test]
    fn lazily_initializes_when_built_without_spec() {
        let queues = vec![1u64, 2, 3];
        let rates = vec![1.0; 3];
        let ctx = DispatchContext::new(&queues, &rates, 1, 0);
        let mut rng = StdRng::seed_from_u64(5);
        // Built for 0 servers; must adapt to the context.
        let mut policy = LsqPolicy::uniform(0, 1);
        policy.observe_round(&ctx, &mut rng);
        let out = policy.dispatch_batch(&ctx, 2, &mut rng);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|s| s.index() < 3));
    }

    #[test]
    fn factories_build_the_right_variant() {
        let spec = ClusterSpec::from_rates(vec![1.0, 2.0]).unwrap();
        let f = LsqFactory::new();
        assert_eq!(f.name(), "LSQ");
        assert_eq!(f.build(DispatcherId::new(0), &spec).policy_name(), "LSQ");
        let h = LsqFactory::heterogeneous().with_probes(3);
        assert_eq!(h.name(), "hLSQ");
        assert_eq!(h.build(DispatcherId::new(0), &spec).policy_name(), "hLSQ");
        assert_eq!(LsqFactory::new().named().name(), "LSQ");
    }
}
