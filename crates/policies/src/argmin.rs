//! The argmin family: JSQ, SED, LSQ, hLSQ, LED and hLED as one policy.
//!
//! Section 1.1 of the paper treats these policies as one family: every
//! dispatcher greedily sends each job of its batch to the argmin of its own
//! *view* of the queues, and bumps only that private view as it goes (it
//! cannot see the concurrent decisions of the other dispatchers). Members
//! differ in two orthogonal choices:
//!
//! * the **rank**: the view's value `v` itself (JSQ, LSQ, LED), or the
//!   expected delay `(v + 1)/µ` of footnote 6 (SED, hLSQ, hLED), evaluated
//!   as `(v + 1)·inv[i]` over one reciprocal-rate table built per run;
//! * the **view**: the round's shared snapshot (JSQ, SED), or a persistent
//!   private array of probed estimates (LSQ \[54\], LED \[60\]). Each round a
//!   probed view overwrites a few entries with the true queue length, drawing
//!   the probed servers uniformly or, for the delay rank, proportionally to
//!   `µ`. LED also decays every estimate by its server's expected departures
//!   `µ` per round.
//!
//! With many dispatchers sharing one snapshot, JSQ and SED all pile onto the
//! same short queues — the *herding* that motivates the paper. Probed views
//! decorrelate the dispatchers, but only as long as their estimates stay
//! weakly correlated.
//!
//! Every member answers its per-job queries through one warm
//! [`BatchArgmin`]: the tournament tree lives across rounds and only the
//! keys that changed since the previous batch are repaired. A snapshot view
//! mirrors the engine's queue lengths and repairs the mirror from the
//! engine's round-to-round dirty set ([`DispatchContext::dirty_servers`])
//! plus the slots it placed jobs on itself: the dirty set is the *exact*
//! snapshot diff, so a server that completed as many jobs as this
//! dispatcher sent it is not listed although the mirror inflated it. A
//! probed view marks only the probes and decays that moved an estimate.
//! [`ArgminFactory::scan`] swaps the tree for the `O(n)`-per-job scan, which
//! follows the same priority lifecycle and so picks exactly the same servers
//! for equal seeds — the test oracle for the tree.

use crate::common::{ArgminMode, BatchArgmin};
use rand::{Rng, RngCore};
use scd_model::{
    AliasSampler, BoxedPolicy, ClusterSpec, DispatchContext, DispatchPolicy, DispatcherId,
    PolicyFactory, ServerId, StateReader, StateWriter,
};
use std::sync::Arc;

/// Probes per round of the probed views the registry builds (the paper and
/// \[54\] use one probe per time slot).
const PROBES_PER_ROUND: usize = 1;

/// How a member ranks the servers of its view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rank {
    /// The view's value `v`: a queue length or its estimate.
    Length,
    /// The expected delay `(v + 1)/µ` a new job would see.
    Delay,
}

/// Where a member's view comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    /// The round's snapshot, mirrored per dispatcher.
    Snapshot,
    /// Private estimates refreshed by probes; `decay` subtracts `µ` from
    /// every positive estimate once per round.
    Probed { decay: bool },
}

/// A view's per-kind state.
#[derive(Debug, Clone)]
enum View {
    Snapshot {
        /// The round whose snapshot the mirror was last synced to.
        /// Checkpointed, so a resumed policy keeps its delta chain.
        synced_round: Option<u64>,
        /// Slots this dispatcher placed jobs on since that sync — re-checked
        /// at the next sync alongside the engine's dirty set.
        touched: Vec<u32>,
    },
    Probed {
        probes: usize,
        /// The µ-proportional probe sampler of the delay rank, the
        /// cluster's shared table; `None` probes uniformly.
        sampler: Option<Arc<AliasSampler>>,
        decay: bool,
    },
}

/// One dispatcher of the argmin family (see the module docs). Built by an
/// [`ArgminFactory`], sized from the run's [`ClusterSpec`].
#[derive(Debug, Clone)]
pub struct ArgminPolicy {
    name: &'static str,
    rank: Rank,
    view: View,
    /// The view's value per server (mirrored queue length or estimate),
    /// plus this dispatcher's placements since it was last refreshed.
    values: Vec<f64>,
    /// `1/µ` per server for the delay rank; empty for the length rank.
    inv: Vec<f64>,
    /// The warm argmin over the keys of `values`.
    picker: BatchArgmin,
}

impl ArgminPolicy {
    /// Whether the checkpoint blob writes the view as integers: every view
    /// but LED's decaying estimates holds whole numbers.
    fn integral(&self) -> bool {
        !matches!(self.view, View::Probed { decay: true, .. })
    }

    /// Brings a snapshot view to the round's snapshot, then marks the
    /// servers whose availability flipped this round: a crash or repair
    /// moves a key to or from `+∞` without a queue change, which no
    /// snapshot diff shows. Reads the raw mask on purpose — when the last
    /// down server repairs, the active mask disappears but the repaired
    /// slot still needs re-keying. Idempotent within a round, and free of
    /// randomness.
    fn sync(&mut self, ctx: &DispatchContext<'_>) {
        assert_eq!(
            ctx.num_servers(),
            self.values.len(),
            "{} was built for another cluster",
            self.name
        );
        if let View::Snapshot {
            synced_round,
            touched,
        } = &mut self.view
        {
            sync_mirror(
                &mut self.values,
                &mut self.picker,
                synced_round,
                touched,
                ctx,
            );
        }
        if let Some(avail) = ctx.availability() {
            for &s in avail.changed() {
                self.picker.mark_dirty(s as usize);
            }
        }
    }

    /// A probed view's once-per-round update: LED's decay, then the probes.
    /// Only entries that actually moved dirty the warm tree (near
    /// stationarity most probes confirm the estimate). A probe target is
    /// always *drawn*, so the policy stream does not depend on the
    /// scenario; a probe the scenario loses, or one sent to a down server,
    /// refreshes nothing.
    fn probe(&mut self, ctx: &DispatchContext<'_>, rng: &mut dyn RngCore) {
        let View::Probed {
            probes,
            sampler,
            decay,
        } = &self.view
        else {
            return;
        };
        if *decay {
            for (i, (est, &mu)) in self.values.iter_mut().zip(ctx.rates()).enumerate() {
                if *est > 0.0 {
                    *est = (*est - mu).max(0.0);
                    self.picker.mark_dirty(i);
                }
            }
        }
        let n = self.values.len();
        for probe in 0..*probes {
            let target = match sampler {
                Some(sampler) => sampler.sample(rng),
                None => rng.gen_range(0..n),
            };
            if !ctx.probe_delivered(probe as u64, ServerId::new(target)) {
                continue;
            }
            let truth = ctx.queue_len(ServerId::new(target)) as f64;
            if self.values[target] != truth {
                self.values[target] = truth;
                self.picker.mark_dirty(target);
            }
        }
    }

    /// The family's dispatch loop, instantiated once per rank: places
    /// `batch` jobs one by one on the argmin of `(key, priority, index)`,
    /// bumping the view after each. Down servers are not candidates: under
    /// an active availability mask their keys saturate to `+∞`.
    fn place<R>(
        &mut self,
        ctx: &DispatchContext<'_>,
        rank: R,
        batch: usize,
        out: &mut Vec<ServerId>,
        rng: &mut dyn RngCore,
    ) where
        R: Fn(&[f64], usize, f64) -> f64,
    {
        let ArgminPolicy {
            view,
            values,
            inv,
            picker,
            ..
        } = self;
        let mut touched = match view {
            View::Snapshot { touched, .. } => Some(touched),
            View::Probed { .. } => None,
        };
        let mask = ctx.active_mask();
        let key = |i: usize, v: f64| match mask {
            Some(avail) if !avail.is_up(i) => f64::INFINITY,
            _ => rank(inv, i, v),
        };
        picker.begin_warm(values.len(), |i| key(i, values[i]), rng);
        for _ in 0..batch {
            let target = picker.pick(|i| key(i, values[i]));
            values[target] += 1.0;
            picker.update(target, key(target, values[target]));
            if let Some(touched) = touched.as_deref_mut() {
                touched.push(target as u32);
            }
            out.push(ServerId::new(target));
        }
    }
}

/// Repairs a snapshot view's mirror to the round's snapshot and marks every
/// slot whose value changed on the warm picker.
///
/// The delta path re-checks the engine's dirty set plus the dispatcher's own
/// `touched` slots; it applies only when the context carries a dirty set
/// *and* the mirror was synced at round `t − 1`. Otherwise (first round,
/// direct invocations, delta tracking off, a stale view or a skipped round)
/// a full compare runs. Both paths mark exactly the slots whose value
/// changed and draw nothing, so runs with and without dirty sets are
/// bit-identical.
fn sync_mirror(
    values: &mut [f64],
    picker: &mut BatchArgmin,
    synced_round: &mut Option<u64>,
    touched: &mut Vec<u32>,
    ctx: &DispatchContext<'_>,
) {
    let round = ctx.round();
    if *synced_round == Some(round) {
        return;
    }
    let queues = ctx.queue_lengths();
    let chained = synced_round.is_some_and(|r| round == r.wrapping_add(1));
    let mut repair = |s: usize| {
        let truth = queues[s] as f64;
        if values[s] != truth {
            values[s] = truth;
            picker.mark_dirty(s);
        }
    };
    match ctx.dirty_servers() {
        Some(dirty) if chained => {
            for &s in touched.iter().chain(dirty) {
                repair(s as usize);
            }
            debug_assert!(
                values.iter().zip(queues).all(|(&v, &q)| v == q as f64),
                "dirty set + own touched slots missed a change — \
                 the engine's delta contract is broken"
            );
        }
        _ => (0..queues.len()).for_each(repair),
    }
    touched.clear();
    *synced_round = Some(round);
}

impl DispatchPolicy for ArgminPolicy {
    fn policy_name(&self) -> &str {
        self.name
    }

    fn observe_round(&mut self, ctx: &DispatchContext<'_>, rng: &mut dyn RngCore) {
        // Dispatchers with an empty batch observe too, which keeps a
        // snapshot view's round chain unbroken.
        self.sync(ctx);
        self.probe(ctx, rng);
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
        // A no-op when observe_round already ran this round; direct
        // invocations (tests, examples) sync here.
        self.sync(ctx);
        match self.rank {
            Rank::Length => self.place(ctx, |_, _, v| v, batch, out, rng),
            Rank::Delay => self.place(ctx, |inv, i, v| (v + 1.0) * inv[i], batch, out, rng),
        }
    }

    fn save_state(&self, out: &mut Vec<u8>) {
        // The view, a snapshot view's sync point and unreconciled own
        // placements, and the warm priority epoch: losing any of them would
        // change a decision or an RNG draw after a resume. The reciprocal
        // rates and the probe sampler come back from the factory.
        let mut w = StateWriter::new();
        if self.integral() {
            let counts: Vec<u64> = self.values.iter().map(|&v| v as u64).collect();
            w.u64s(&counts);
        } else {
            w.f64s(&self.values);
        }
        if let View::Snapshot {
            synced_round,
            touched,
        } = &self.view
        {
            w.opt_u64(*synced_round);
            w.u32s(touched);
        }
        self.picker.save_warm_state(&mut w);
        out.extend_from_slice(&w.into_bytes());
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        let (name, n) = (self.name, self.values.len());
        let mut r = StateReader::new(bytes);
        let values: Vec<f64> = if self.integral() {
            r.u64s()?.into_iter().map(|v| v as f64).collect()
        } else {
            r.f64s()?
        };
        if values.len() != n {
            return Err(format!(
                "{name} checkpoint covers {} servers, this cluster has {n}",
                values.len()
            ));
        }
        if let Some(bad) = values.iter().find(|v| !(v.is_finite() && **v >= 0.0)) {
            return Err(format!("{name} checkpoint holds the estimate {bad}"));
        }
        if let View::Snapshot {
            synced_round,
            touched,
        } = &mut self.view
        {
            *synced_round = r.opt_u64()?;
            *touched = r.u32s()?;
            if let Some(s) = touched.iter().find(|&&s| s as usize >= n) {
                return Err(format!(
                    "{name} checkpoint names server {s} of a {n}-server cluster"
                ));
            }
        }
        self.picker.restore_warm_state(n, &mut r)?;
        self.values = values;
        Ok(r.finish()?)
    }
}

/// Factory for one member of the argmin family. The registry names
/// `JSQ`, `SED`, `LSQ`, `hLSQ`, `LED` and `hLED` map to the constructors of
/// the same names.
#[derive(Debug, Clone)]
pub struct ArgminFactory {
    name: &'static str,
    rank: Rank,
    source: Source,
    mode: ArgminMode,
}

impl ArgminFactory {
    fn member(name: &'static str, rank: Rank, source: Source) -> Self {
        ArgminFactory {
            name,
            rank,
            source,
            mode: ArgminMode::Indexed,
        }
    }

    /// Join-the-Shortest-Queue: the shared snapshot, ranked by queue length
    /// (heterogeneity-oblivious).
    pub fn jsq() -> Self {
        Self::member("JSQ", Rank::Length, Source::Snapshot)
    }

    /// Shortest-Expected-Delay: the shared snapshot, ranked by `(q + 1)/µ`.
    pub fn sed() -> Self {
        Self::member("SED", Rank::Delay, Source::Snapshot)
    }

    /// Local-Shortest-Queue \[54\]: uniformly probed estimates, ranked by
    /// length.
    pub fn lsq() -> Self {
        Self::member("LSQ", Rank::Length, Source::Probed { decay: false })
    }

    /// Heterogeneity-aware LSQ (footnote 6): µ-proportional probes, ranked
    /// by expected delay.
    pub fn hlsq() -> Self {
        Self::member("hLSQ", Rank::Delay, Source::Probed { decay: false })
    }

    /// Local-Estimation-Driven dispatching in the spirit of \[60\]: LSQ's
    /// estimates, also decayed by `µ` every round.
    pub fn led() -> Self {
        Self::member("LED", Rank::Length, Source::Probed { decay: true })
    }

    /// Heterogeneity-aware LED: µ-proportional probes, ranked by expected
    /// delay.
    pub fn hled() -> Self {
        Self::member("hLED", Rank::Delay, Source::Probed { decay: true })
    }

    /// The same member with the `O(n)`-per-job scan in place of the
    /// tournament tree: bit-identical decisions for equal seeds, kept as the
    /// test oracle. Reports carry the same name.
    pub fn scan(mut self) -> Self {
        self.mode = ArgminMode::Scan;
        self
    }

    /// One dispatcher's policy for `spec`, probing `probes` servers per
    /// round (probed views only; [`build`](PolicyFactory::build) probes one,
    /// as the paper and \[54\] do).
    pub fn policy(&self, spec: &ClusterSpec, probes: usize) -> ArgminPolicy {
        let n = spec.num_servers();
        let view = match self.source {
            Source::Snapshot => View::Snapshot {
                synced_round: None,
                touched: Vec::new(),
            },
            Source::Probed { decay } => View::Probed {
                probes,
                sampler: (self.rank == Rank::Delay).then(|| spec.rate_sampler()),
                decay,
            },
        };
        ArgminPolicy {
            name: self.name,
            rank: self.rank,
            view,
            values: vec![0.0; n],
            inv: match self.rank {
                Rank::Length => Vec::new(),
                Rank::Delay => scd_model::reciprocal_rates(spec.rates()),
            },
            picker: BatchArgmin::new(self.mode),
        }
    }
}

impl PolicyFactory for ArgminFactory {
    fn name(&self) -> &str {
        self.name
    }

    fn build(&self, _dispatcher: DispatcherId, spec: &ClusterSpec) -> BoxedPolicy {
        Box::new(self.policy(spec, PROBES_PER_ROUND))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn spec(rates: &[f64]) -> ClusterSpec {
        ClusterSpec::from_rates(rates.to_vec()).unwrap()
    }

    #[test]
    fn sends_every_job_to_the_shortest_queue() {
        let queues = vec![3u64, 0, 5];
        let rates = vec![1.0, 1.0, 1.0];
        let ctx = DispatchContext::new(&queues, &rates, 1, 0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut policy = ArgminFactory::jsq().policy(&spec(&rates), 0);
        let out = policy.dispatch_batch(&ctx, 1, &mut rng);
        assert_eq!(out, vec![ServerId::new(1)]);
    }

    #[test]
    fn local_updates_spread_a_large_batch() {
        // 2 servers with queues [0, 0]; a batch of 4 must be split 2/2
        // because the view is bumped after every job.
        let queues = vec![0u64, 0];
        let rates = vec![1.0, 1.0];
        let ctx = DispatchContext::new(&queues, &rates, 1, 0);
        let mut rng = StdRng::seed_from_u64(5);
        let mut policy = ArgminFactory::jsq().policy(&spec(&rates), 0);
        let out = policy.dispatch_batch(&ctx, 4, &mut rng);
        let to_first = out.iter().filter(|s| s.index() == 0).count();
        assert_eq!(to_first, 2);
    }

    #[test]
    fn jsq_ignores_rates_entirely() {
        // A fast server with a slightly longer queue is ignored — this is
        // exactly the heterogeneity blindness the paper criticises.
        let queues = vec![2u64, 1];
        let rates = vec![100.0, 1.0];
        let ctx = DispatchContext::new(&queues, &rates, 1, 0);
        let mut rng = StdRng::seed_from_u64(2);
        let mut policy = ArgminFactory::jsq().policy(&spec(&rates), 0);
        let out = policy.dispatch_batch(&ctx, 1, &mut rng);
        assert_eq!(
            out[0].index(),
            1,
            "JSQ picks the shorter queue even if it is slow"
        );
    }

    #[test]
    fn consecutive_rounds_restart_from_the_snapshot() {
        let rates = vec![1.0, 1.0];
        for factory in [ArgminFactory::jsq(), ArgminFactory::jsq().scan()] {
            let mut policy = factory.policy(&spec(&rates), 0);
            let mut rng = StdRng::seed_from_u64(9);

            let queues1 = vec![0u64, 10];
            let ctx1 = DispatchContext::new(&queues1, &rates, 1, 0);
            let out1 = policy.dispatch_batch(&ctx1, 3, &mut rng);
            assert!(out1.iter().all(|s| s.index() == 0));

            // New round, new snapshot: the stale local view must not leak.
            let queues2 = vec![10u64, 0];
            let ctx2 = DispatchContext::new(&queues2, &rates, 1, 1);
            let out2 = policy.dispatch_batch(&ctx2, 3, &mut rng);
            assert!(out2.iter().all(|s| s.index() == 1));
        }
    }

    #[test]
    fn warm_mirror_follows_engine_style_dirty_sets() {
        // Simulate the engine's contract across rounds: the dirty set lists
        // every server whose length changed since the previous snapshot
        // (including this dispatcher's own placements).
        let rates = vec![1.0; 4];
        let mut policy = ArgminFactory::jsq().policy(&spec(&rates), 0);
        let mut rng = StdRng::seed_from_u64(3);

        let queues0 = vec![2u64, 2, 2, 2];
        let ctx0 = DispatchContext::new(&queues0, &rates, 1, 0);
        policy.observe_round(&ctx0, &mut rng);
        let out0 = policy.dispatch_batch(&ctx0, 1, &mut rng);
        let placed = out0[0].index();

        // Next round: the placed server kept its job (+1), server 3 drained.
        let mut queues1 = queues0.clone();
        queues1[placed] += 1;
        queues1[3] = 0;
        let dirty: Vec<u32> = vec![placed as u32, 3];
        let ctx1 = DispatchContext::new(&queues1, &rates, 1, 1).with_dirty(&dirty);
        policy.observe_round(&ctx1, &mut rng);
        let out1 = policy.dispatch_batch(&ctx1, 1, &mut rng);
        assert_eq!(out1[0].index(), 3, "the drained server is now shortest");
    }

    #[test]
    fn sed_prefers_fast_server_despite_longer_queue() {
        // Expected delays: (2+1)/100 = 0.03 vs (1+1)/1 = 2.0.
        let queues = vec![2u64, 1];
        let rates = vec![100.0, 1.0];
        let ctx = DispatchContext::new(&queues, &rates, 1, 0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut policy = ArgminFactory::sed().policy(&spec(&rates), 0);
        let out = policy.dispatch_batch(&ctx, 1, &mut rng);
        assert_eq!(out[0].index(), 0);
    }

    #[test]
    fn sed_splits_batches_proportionally_to_rates() {
        // Empty queues, rates 3:1 → a batch of 8 should go roughly 6:2
        // (exactly: greedy fills the fast server until its expected delay
        // exceeds the slow one).
        let queues = vec![0u64, 0];
        let rates = vec![3.0, 1.0];
        let ctx = DispatchContext::new(&queues, &rates, 1, 0);
        let mut rng = StdRng::seed_from_u64(4);
        let mut policy = ArgminFactory::sed().policy(&spec(&rates), 0);
        let out = policy.dispatch_batch(&ctx, 8, &mut rng);
        let to_fast = out.iter().filter(|s| s.index() == 0).count();
        assert!((5..=7).contains(&to_fast), "fast server got {to_fast} of 8");
    }

    #[test]
    fn sed_reduces_to_jsq_in_homogeneous_clusters() {
        let queues = vec![4u64, 1, 2, 1];
        let rates = vec![2.0; 4];
        let ctx = DispatchContext::new(&queues, &rates, 1, 0);
        let mut sed = ArgminFactory::sed().policy(&spec(&rates), 0);
        let mut jsq = ArgminFactory::jsq().policy(&spec(&rates), 0);
        // Same seed → identical tie-breaking decisions → identical output.
        let a = sed.dispatch_batch(&ctx, 6, &mut StdRng::seed_from_u64(8));
        let b = jsq.dispatch_batch(&ctx, 6, &mut StdRng::seed_from_u64(8));
        assert_eq!(a, b);
    }

    #[test]
    fn dispatches_by_local_view_not_true_queues() {
        // Local view starts at all-zero; without probes the policy ignores
        // the true (heavily imbalanced) queues.
        let queues = vec![100u64, 0];
        let rates = vec![1.0, 1.0];
        let ctx = DispatchContext::new(&queues, &rates, 1, 0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut policy = ArgminFactory::lsq().policy(&spec(&rates), 0);
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
        let mut policy = ArgminFactory::lsq().policy(&spec(&rates), 16);
        policy.observe_round(&ctx, &mut rng);
        assert_eq!(policy.values, &[100.0, 0.0]);
        let out = policy.dispatch_batch(&ctx, 1, &mut rng);
        assert_eq!(out[0].index(), 1);
    }

    #[test]
    fn local_state_persists_across_rounds() {
        let rates = vec![1.0, 1.0];
        let mut policy = ArgminFactory::lsq().policy(&spec(&rates), 0);
        let mut rng = StdRng::seed_from_u64(3);

        let queues1 = vec![0u64, 0];
        let ctx1 = DispatchContext::new(&queues1, &rates, 1, 0);
        policy.observe_round(&ctx1, &mut rng);
        let _ = policy.dispatch_batch(&ctx1, 4, &mut rng);
        // Two jobs per server recorded locally.
        assert_eq!(policy.values.iter().sum::<f64>(), 4.0);

        // Next round: no probes, so the inflated estimates persist even
        // though the true queues are empty again.
        let queues2 = vec![0u64, 0];
        let ctx2 = DispatchContext::new(&queues2, &rates, 1, 1);
        policy.observe_round(&ctx2, &mut rng);
        assert_eq!(policy.values.iter().sum::<f64>(), 4.0);
    }

    #[test]
    fn hlsq_ranks_by_expected_delay() {
        let queues = vec![0u64, 0];
        let rates = vec![10.0, 1.0];
        let ctx = DispatchContext::new(&queues, &rates, 1, 0);
        let mut rng = StdRng::seed_from_u64(4);
        let mut policy = ArgminFactory::hlsq().policy(&spec(&rates), 2);
        assert_eq!(policy.policy_name(), "hLSQ");
        policy.observe_round(&ctx, &mut rng);
        let out = policy.dispatch_batch(&ctx, 8, &mut rng);
        let to_fast = out.iter().filter(|s| s.index() == 0).count();
        // Expected-delay ranking sends most of the batch to the 10× server.
        assert!(to_fast >= 6, "fast server received only {to_fast} of 8");
    }

    #[test]
    fn led_estimates_decay_by_the_service_rate() {
        let queues = vec![0u64, 0];
        let rates = vec![2.0, 1.0];
        let ctx = DispatchContext::new(&queues, &rates, 1, 0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut policy = ArgminFactory::led().policy(&spec(&rates), 0);
        // Seed some backlog estimate by dispatching.
        let _ = policy.dispatch_batch(&ctx, 6, &mut rng);
        let before: f64 = policy.values.iter().sum();
        assert!((before - 6.0).abs() < 1e-12);
        policy.observe_round(&ctx, &mut rng);
        let after: f64 = policy.values.iter().sum();
        assert!(after < before, "estimates must decay between rounds");
        assert!(policy.values.iter().all(|&e| e >= 0.0));
    }

    #[test]
    fn led_probes_reanchor_to_truth() {
        let queues = vec![50u64, 0];
        let rates = vec![1.0, 1.0];
        let ctx = DispatchContext::new(&queues, &rates, 1, 0);
        let mut rng = StdRng::seed_from_u64(2);
        let mut policy = ArgminFactory::led().policy(&spec(&rates), 10);
        policy.observe_round(&ctx, &mut rng);
        assert!((policy.values[0] - 50.0).abs() < 1e-12);
        let out = policy.dispatch_batch(&ctx, 1, &mut rng);
        assert_eq!(out[0].index(), 1);
    }

    #[test]
    fn hled_prefers_fast_servers() {
        let queues = vec![0u64, 0];
        let rates = vec![10.0, 1.0];
        let ctx = DispatchContext::new(&queues, &rates, 1, 0);
        let mut rng = StdRng::seed_from_u64(3);
        let mut policy = ArgminFactory::hled().policy(&spec(&rates), 2);
        assert_eq!(policy.policy_name(), "hLED");
        policy.observe_round(&ctx, &mut rng);
        let out = policy.dispatch_batch(&ctx, 10, &mut rng);
        let to_fast = out.iter().filter(|s| s.index() == 0).count();
        assert!(to_fast >= 8, "fast server received only {to_fast} of 10");
    }

    fn members() -> [(ArgminFactory, &'static str); 6] {
        [
            (ArgminFactory::jsq(), "JSQ"),
            (ArgminFactory::sed(), "SED"),
            (ArgminFactory::lsq(), "LSQ"),
            (ArgminFactory::hlsq(), "hLSQ"),
            (ArgminFactory::led(), "LED"),
            (ArgminFactory::hled(), "hLED"),
        ]
    }

    /// The factory and its scan oracle both carry the member's name and
    /// build a policy reporting it.
    fn assert_builds(factory: ArgminFactory, name: &str) {
        let spec = spec(&[1.0, 2.0]);
        assert_eq!(factory.name(), name);
        assert_eq!(
            factory.build(DispatcherId::new(0), &spec).policy_name(),
            name
        );
        let oracle = factory.scan();
        assert_eq!(oracle.name(), name);
        assert_eq!(
            oracle.build(DispatcherId::new(0), &spec).policy_name(),
            name
        );
    }

    #[test]
    fn factory_builds_jsq() {
        assert_builds(ArgminFactory::jsq(), "JSQ");
    }

    #[test]
    fn factory_builds_sed() {
        assert_builds(ArgminFactory::sed(), "SED");
    }

    #[test]
    fn lsq_factories_build_the_right_variant() {
        assert_builds(ArgminFactory::lsq(), "LSQ");
        assert_builds(ArgminFactory::hlsq(), "hLSQ");
    }

    #[test]
    fn led_factories_build_the_right_variant() {
        assert_builds(ArgminFactory::led(), "LED");
        assert_builds(ArgminFactory::hled(), "hLED");
    }

    /// Every member is sized from its spec, and only delay ranks carry a
    /// reciprocal-rate table.
    #[test]
    fn every_member_is_sized_from_its_spec() {
        let spec = spec(&[4.0, 2.0, 1.0]);
        for (factory, name) in members() {
            let policy = factory.policy(&spec, PROBES_PER_ROUND);
            assert_eq!(policy.values, &[0.0; 3], "{name}");
            let expected_inv = match factory.rank {
                Rank::Length => Vec::new(),
                Rank::Delay => vec![0.25, 0.5, 1.0],
            };
            assert_eq!(policy.inv, expected_inv, "{name}");
        }
    }

    #[test]
    #[should_panic(expected = "JSQ was built for another cluster")]
    fn contexts_of_another_cluster_size_panic() {
        let mut policy = ArgminFactory::jsq().policy(&spec(&[1.0, 1.0]), 0);
        let queues = vec![0u64; 3];
        let rates = vec![1.0; 3];
        let ctx = DispatchContext::new(&queues, &rates, 1, 0);
        policy.observe_round(&ctx, &mut StdRng::seed_from_u64(0));
    }
}
