//! Join-the-Shortest-Queue (JSQ) with full queue-length information.
//!
//! Each dispatcher sees the true queue lengths at the start of the round and
//! greedily sends every job in its batch to the currently shortest queue,
//! updating only its *local copy* of the queue lengths as it goes (it cannot
//! see the concurrent decisions of the other dispatchers). With a single
//! dispatcher this is the classic optimal JSQ; with many dispatchers all of
//! them pile onto the same few short queues — the *herding* phenomenon that
//! motivates the paper.
//!
//! The repeated shortest-queue queries run over a [`BatchArgmin`] indexed
//! queue view (tournament tree); since the keys are the *true* queue
//! lengths, the engine's round-to-round dirty set
//! ([`DispatchContext::dirty_servers`]) is authoritative for them: each
//! dispatcher keeps one **warm** tree across rounds and repairs exactly the engine-reported changes plus the slots it
//! placed jobs on itself (the dirty set is the *exact* snapshot diff, so a
//! server that completed as many jobs as it received is not listed even
//! though this dispatcher's mirror inflated it — the policy records its own
//! placements and re-checks them), instead of rebuilding all `n` keys every
//! batch.
//! The `O(b·n)` scan mode ([`JsqPolicy::scan`]) follows the identical warm
//! priority lifecycle and picks exactly the same servers for equal seeds —
//! it is the test oracle for the tree.

use crate::common::{
    mark_availability_flips, sync_snapshot_mirror, ArgminMode, BatchArgmin, NamedFactory,
    SnapshotSync,
};
use rand::RngCore;
use scd_model::{
    DispatchContext, DispatchPolicy, PolicyFactory, ServerId, StateReader, StateWriter,
};

/// The JSQ policy (heterogeneity-oblivious, full information).
#[derive(Debug, Clone, Default)]
pub struct JsqPolicy {
    /// This dispatcher's local view of the queues: the engine snapshot plus
    /// the placements of the current batch. It persists across rounds and
    /// is re-synced from the engine's dirty set.
    local: Vec<u64>,
    /// The warm argmin engine (indexed, or the scan oracle).
    picker: BatchArgmin,
    /// Tracks which round's snapshot `local` mirrors.
    sync: SnapshotSync,
    /// Slots this dispatcher placed jobs on in its last batch — re-checked
    /// at the next sync alongside the engine's dirty set.
    touched: Vec<u32>,
}

impl JsqPolicy {
    /// Creates a JSQ policy instance (warm indexed argmin).
    pub fn new() -> Self {
        Self::with_mode(ArgminMode::Indexed)
    }

    /// JSQ with the reference `O(n)`-per-job scan — bit-identical decisions
    /// to [`JsqPolicy::new`] for equal seeds (the scan follows the same warm
    /// priority lifecycle), kept as the equivalence-test oracle.
    pub fn scan() -> Self {
        Self::with_mode(ArgminMode::Scan)
    }

    /// JSQ with an explicit argmin mode.
    pub fn with_mode(mode: ArgminMode) -> Self {
        JsqPolicy {
            local: Vec::new(),
            picker: BatchArgmin::new(mode),
            sync: SnapshotSync::default(),
            touched: Vec::new(),
        }
    }
}

impl DispatchPolicy for JsqPolicy {
    fn policy_name(&self) -> &str {
        "JSQ"
    }

    fn observe_round(&mut self, ctx: &DispatchContext<'_>, _rng: &mut dyn RngCore) {
        // Repair the persistent mirror (and mark the tree) from the engine's
        // dirty set — including dispatchers whose batch is empty this round,
        // which keeps the round chain unbroken.
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
        let n = ctx.num_servers();
        // Down servers are not candidates: their keys saturate to +∞ under
        // an active availability mask (`None` on the fair-weather path, so
        // the closure below is then the plain queue-length key).
        let mask = ctx.active_mask();
        let masked = move |i: usize, q: u64| match mask {
            Some(avail) if !avail.is_up(i) => f64::INFINITY,
            _ => q as f64,
        };
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
        let local = &mut self.local;
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
        // The persistent mirror, its sync point, the unreconciled own
        // placements, and the warm priority epoch — losing any of these
        // would change RNG consumption or the mirror overlay after a resume.
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

/// Factory producing one [`JsqPolicy`] per dispatcher.
#[derive(Debug, Clone)]
pub struct JsqFactory {
    mode: ArgminMode,
}

impl JsqFactory {
    /// Creates the factory (warm indexed argmin).
    pub fn new() -> Self {
        JsqFactory {
            mode: ArgminMode::Indexed,
        }
    }

    /// Factory for the scan-mode oracle (same decisions, `O(n)` per job).
    /// Reports carry the same "JSQ" name so they compare equal to indexed
    /// runs of the same seed.
    pub fn scan() -> Self {
        JsqFactory {
            mode: ArgminMode::Scan,
        }
    }

    /// The same policy wrapped in a [`NamedFactory`] (convenience for the
    /// registry).
    pub fn named() -> NamedFactory {
        NamedFactory::new("JSQ", |_d, _spec| Box::new(JsqPolicy::new()))
    }
}

impl Default for JsqFactory {
    fn default() -> Self {
        JsqFactory::new()
    }
}

impl PolicyFactory for JsqFactory {
    fn name(&self) -> &str {
        "JSQ"
    }

    fn build(
        &self,
        _dispatcher: scd_model::DispatcherId,
        _spec: &scd_model::ClusterSpec,
    ) -> scd_model::BoxedPolicy {
        Box::new(JsqPolicy::with_mode(self.mode))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use scd_model::{ClusterSpec, DispatcherId};

    #[test]
    fn sends_every_job_to_the_shortest_queue() {
        let queues = vec![3u64, 0, 5];
        let rates = vec![1.0, 1.0, 1.0];
        let ctx = DispatchContext::new(&queues, &rates, 1, 0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut policy = JsqPolicy::new();
        let out = policy.dispatch_batch(&ctx, 1, &mut rng);
        assert_eq!(out, vec![ServerId::new(1)]);
    }

    #[test]
    fn local_updates_spread_a_large_batch() {
        // 2 servers with queues [0, 0]; a batch of 4 must be split 2/2
        // because the local copy is incremented after every job.
        let queues = vec![0u64, 0];
        let rates = vec![1.0, 1.0];
        let ctx = DispatchContext::new(&queues, &rates, 1, 0);
        let mut rng = StdRng::seed_from_u64(5);
        let mut policy = JsqPolicy::new();
        let out = policy.dispatch_batch(&ctx, 4, &mut rng);
        let to_first = out.iter().filter(|s| s.index() == 0).count();
        assert_eq!(to_first, 2);
    }

    #[test]
    fn ignores_rates_entirely() {
        // A fast server with a slightly longer queue is ignored — this is
        // exactly the heterogeneity blindness the paper criticises.
        let queues = vec![2u64, 1];
        let rates = vec![100.0, 1.0];
        let ctx = DispatchContext::new(&queues, &rates, 1, 0);
        let mut rng = StdRng::seed_from_u64(2);
        let mut policy = JsqPolicy::new();
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
        for mut policy in [JsqPolicy::new(), JsqPolicy::scan()] {
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
        let mut policy = JsqPolicy::new();
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
    fn factory_builds_jsq() {
        let spec = ClusterSpec::homogeneous(2, 1.0).unwrap();
        let factory = JsqFactory::new();
        assert_eq!(factory.name(), "JSQ");
        let p = factory.build(DispatcherId::new(0), &spec);
        assert_eq!(p.policy_name(), "JSQ");
        let named = JsqFactory::named();
        assert_eq!(named.name(), "JSQ");
        let oracle = JsqFactory::scan().build(DispatcherId::new(0), &spec);
        assert_eq!(oracle.policy_name(), "JSQ");
    }
}
