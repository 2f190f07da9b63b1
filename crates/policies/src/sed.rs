//! Shortest-Expected-Delay (SED) dispatching.
//!
//! SED is the heterogeneity-aware analogue of JSQ: instead of ranking servers
//! by queue length, it ranks them by the expected delay a new job would see,
//! `(q_s + 1)/µ_s`, and greedily sends each job to the minimizer while
//! updating a local copy of the queues. In a single-dispatcher system SED is
//! excellent; with many dispatchers it herds exactly like JSQ (Section 1.1).
//!
//! Like JSQ, the per-job argmin runs over a [`BatchArgmin`] indexed queue
//! view keyed on the *true* snapshot, so the engine's round-to-round dirty
//! set ([`DispatchContext::dirty_servers`]) is authoritative for the keys:
//! each dispatcher keeps one **warm** tree across rounds and repairs
//! exactly the engine-reported changes instead of rebuilding all `n` keys
//! every batch (the mirror-sync contract lives in
//! [`crate::common::sync_snapshot_mirror`]). [`SedPolicy::scan`] retains the
//! `O(n)`-per-job reference, which picks exactly the same servers for equal
//! seeds — the test oracle for the tree. The expected-delay keys multiply by
//! cached reciprocal rates (shared per-round via the engine's
//! [`scd_model::RoundCache`] when available) instead of dividing per query.

use crate::common::{
    mark_availability_flips, sync_snapshot_mirror, ArgminMode, BatchArgmin, NamedFactory,
    SnapshotSync,
};
use rand::RngCore;
use scd_model::{
    DispatchContext, DispatchPolicy, PolicyFactory, ServerId, StateReader, StateWriter,
};

/// The SED policy (heterogeneity-aware ranking, full information).
#[derive(Debug, Clone, Default)]
pub struct SedPolicy {
    local: Vec<u64>,
    picker: BatchArgmin,
    /// Reciprocal rates used when the round context carries no shared cache
    /// (rates are static per run, so this is filled once).
    inv_rates: Vec<f64>,
    rates_snapshot: Vec<f64>,
    /// Tracks which round's snapshot `local` mirrors.
    sync: SnapshotSync,
    /// Slots this dispatcher placed jobs on in its last batch — re-checked
    /// at the next sync alongside the engine's dirty set.
    touched: Vec<u32>,
}

impl SedPolicy {
    /// Creates a SED policy instance (indexed argmin).
    pub fn new() -> Self {
        Self::with_mode(ArgminMode::Indexed)
    }

    /// SED with the reference `O(n)`-per-job scan — bit-identical decisions
    /// to [`SedPolicy::new`] for equal seeds.
    pub fn scan() -> Self {
        Self::with_mode(ArgminMode::Scan)
    }

    /// SED with an explicit argmin mode.
    pub fn with_mode(mode: ArgminMode) -> Self {
        SedPolicy {
            local: Vec::new(),
            picker: BatchArgmin::new(mode),
            inv_rates: Vec::new(),
            rates_snapshot: Vec::new(),
            sync: SnapshotSync::default(),
            touched: Vec::new(),
        }
    }

    /// Refreshes the private reciprocal-rate table if the rates changed
    /// (engine runs provide the shared cache instead, so this only triggers
    /// on direct policy invocations).
    fn refresh_inv_rates(&mut self, rates: &[f64]) {
        scd_model::refresh_reciprocal_rates(&mut self.rates_snapshot, &mut self.inv_rates, rates);
    }
}

impl DispatchPolicy for SedPolicy {
    fn policy_name(&self) -> &str {
        "SED"
    }

    fn round_cache_demand(&self) -> scd_model::CacheDemand {
        // The expected-delay keys multiply by the shared reciprocal rates;
        // the per-round solver tables are not needed.
        scd_model::CacheDemand::ReciprocalRates
    }

    fn observe_round(&mut self, ctx: &DispatchContext<'_>, _rng: &mut dyn RngCore) {
        sync_snapshot_mirror(
            &mut self.local,
            &mut self.picker,
            &mut self.sync,
            ctx,
            &mut self.touched,
        );
        mark_availability_flips(&mut self.picker, ctx);
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
        // No-op when observe_round already synced this round; direct
        // invocations (tests, examples) resync here.
        sync_snapshot_mirror(
            &mut self.local,
            &mut self.picker,
            &mut self.sync,
            ctx,
            &mut self.touched,
        );
        mark_availability_flips(&mut self.picker, ctx);
        if ctx.cache().is_none() {
            self.refresh_inv_rates(ctx.rates());
        }
        // Identical arithmetic on both branches ((q+1)·(1/µ), the reciprocal
        // computed as 1.0/µ), so cached and cache-less dispatch decisions are
        // bit-identical.
        let inv: &[f64] = match ctx.cache() {
            Some(cache) => cache.inv_rates(),
            None => &self.inv_rates,
        };
        // Down servers are not candidates under an active availability mask.
        let mask = ctx.active_mask();
        let masked = move |i: usize, q: u64| match mask {
            Some(avail) if !avail.is_up(i) => f64::INFINITY,
            _ => (q as f64 + 1.0) * inv[i],
        };
        let local = &mut self.local;
        let n = local.len();
        self.picker.begin_warm(n, |i| masked(i, local[i]), rng);
        for _ in 0..batch {
            let target = self.picker.pick(|i| masked(i, local[i]));
            local[target] += 1;
            self.picker.update(target, masked(target, local[target]));
            self.touched.push(target as u32);
            out.push(ServerId::new(target));
        }
    }

    fn save_state(&self, out: &mut Vec<u8>) {
        // Mirror + sync point + own placements + warm priority epoch. The
        // reciprocal-rate tables are derived from static rates and refresh
        // deterministically, so they are not checkpointed.
        let mut w = StateWriter::new();
        w.u64s(&self.local);
        w.opt_u64(self.sync.synced_round());
        w.u32s(&self.touched);
        self.picker.save_warm_state(&mut w);
        out.extend_from_slice(&w.into_bytes());
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        let mut r = StateReader::new(bytes);
        self.local = r.u64s()?;
        self.sync.set_synced_round(r.opt_u64()?);
        self.touched = r.u32s()?;
        self.picker.restore_warm_state(&mut r)?;
        r.finish()
    }
}

/// Factory producing one [`SedPolicy`] per dispatcher.
#[derive(Debug, Clone)]
pub struct SedFactory {
    mode: ArgminMode,
}

impl SedFactory {
    /// Creates the factory (warm indexed argmin).
    pub fn new() -> Self {
        SedFactory {
            mode: ArgminMode::Indexed,
        }
    }

    /// Factory for the scan-mode oracle (same decisions, `O(n)` per job).
    pub fn scan() -> Self {
        SedFactory {
            mode: ArgminMode::Scan,
        }
    }

    /// The same policy wrapped in a [`NamedFactory`].
    pub fn named() -> NamedFactory {
        NamedFactory::new("SED", |_d, _spec| Box::new(SedPolicy::new()))
    }
}

impl Default for SedFactory {
    fn default() -> Self {
        SedFactory::new()
    }
}

impl PolicyFactory for SedFactory {
    fn name(&self) -> &str {
        "SED"
    }

    fn build(
        &self,
        _dispatcher: scd_model::DispatcherId,
        _spec: &scd_model::ClusterSpec,
    ) -> scd_model::BoxedPolicy {
        Box::new(SedPolicy::with_mode(self.mode))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use scd_model::{ClusterSpec, DispatcherId};

    #[test]
    fn prefers_fast_server_despite_longer_queue() {
        // Expected delays: (2+1)/100 = 0.03 vs (1+1)/1 = 2.0.
        let queues = vec![2u64, 1];
        let rates = vec![100.0, 1.0];
        let ctx = DispatchContext::new(&queues, &rates, 1, 0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut policy = SedPolicy::new();
        let out = policy.dispatch_batch(&ctx, 1, &mut rng);
        assert_eq!(out[0].index(), 0);
    }

    #[test]
    fn splits_batches_proportionally_to_rates() {
        // Empty queues, rates 3:1 → a batch of 8 should go roughly 6:2
        // (exactly: greedy fills the fast server until its expected delay
        // exceeds the slow one).
        let queues = vec![0u64, 0];
        let rates = vec![3.0, 1.0];
        let ctx = DispatchContext::new(&queues, &rates, 1, 0);
        let mut rng = StdRng::seed_from_u64(4);
        let mut policy = SedPolicy::new();
        let out = policy.dispatch_batch(&ctx, 8, &mut rng);
        let to_fast = out.iter().filter(|s| s.index() == 0).count();
        assert!((5..=7).contains(&to_fast), "fast server got {to_fast} of 8");
    }

    #[test]
    fn reduces_to_jsq_in_homogeneous_clusters() {
        use crate::jsq::JsqPolicy;
        let queues = vec![4u64, 1, 2, 1];
        let rates = vec![2.0; 4];
        let ctx = DispatchContext::new(&queues, &rates, 1, 0);
        let mut sed = SedPolicy::new();
        let mut jsq = JsqPolicy::new();
        // Same seed → identical tie-breaking decisions → identical output.
        let a = sed.dispatch_batch(&ctx, 6, &mut StdRng::seed_from_u64(8));
        let b = jsq.dispatch_batch(&ctx, 6, &mut StdRng::seed_from_u64(8));
        assert_eq!(a, b);
    }

    #[test]
    fn factory_builds_sed() {
        let spec = ClusterSpec::homogeneous(2, 1.0).unwrap();
        let factory = SedFactory::new();
        assert_eq!(factory.name(), "SED");
        assert_eq!(
            factory.build(DispatcherId::new(0), &spec).policy_name(),
            "SED"
        );
        assert_eq!(SedFactory::named().name(), "SED");
    }
}
