//! Per-round view of the system that dispatchers observe.
//!
//! In the paper's model (Section 2) the queue lengths `q_s(t)` of all servers
//! are available to all dispatchers at the beginning of round `t`. A
//! [`DispatchContext`] is exactly that read-only view, plus the static
//! information (rates, number of dispatchers) a policy needs to make its
//! decision.

use crate::degraded::{Availability, DegradedView};
use crate::ids::ServerId;
use crate::round_cache::RoundCache;

/// Read-only information available to a dispatcher when it makes its
/// dispatching decision for one round.
///
/// The context borrows the engine's state: constructing it is free and the
/// same context is handed to every dispatcher in the round, which mirrors the
/// paper's assumption that all dispatchers see identical queue-length
/// information (this is what makes herding possible for naive policies).
///
/// A context may additionally carry a [`RoundCache`] — derived tables
/// (reciprocal rates, loads, solver keys) the engine computed once for the
/// round so that all `m` dispatchers can share them instead of recomputing
/// privately. Policies must treat the cache as an optional accelerator:
/// decisions have to be bit-identical with and without it.
///
/// # Round-to-round dirty sets
///
/// The engine knows *exactly* which servers changed between two consecutive
/// snapshots: the dispatch targets of the previous round plus the servers
/// whose queues completed jobs. A context built by the engine carries that
/// set through [`dirty_servers`](DispatchContext::dirty_servers), so warm
/// per-round structures (tournament trees over snapshot-derived keys,
/// incremental sorted orders) can repair a handful of slots instead of
/// re-deriving all `n` from scratch. Like the cache, the dirty set is a
/// **pure accelerator**: it is a superset of the servers whose queue length
/// differs from the previous round's snapshot, consumers may only use it to
/// skip provably redundant work, and decisions must be bit-identical whether
/// the set is present (`Some`), absent (`None` — treat every server as
/// potentially changed), or wider than necessary.
///
/// # Example
/// ```
/// use scd_model::DispatchContext;
/// let queues = vec![2u64, 0, 5];
/// let rates = vec![4.0, 1.0, 2.0];
/// let ctx = DispatchContext::new(&queues, &rates, 10, 42);
/// assert_eq!(ctx.num_servers(), 3);
/// assert_eq!(ctx.queue_len(scd_model::ServerId::new(2)), 5);
/// assert!((ctx.expected_delay(scd_model::ServerId::new(0)) - 0.5).abs() < 1e-12);
/// assert!(ctx.cache().is_none());
/// assert!(ctx.dirty_servers().is_none());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct DispatchContext<'a> {
    queue_lengths: &'a [u64],
    rates: &'a [f64],
    num_dispatchers: usize,
    round: u64,
    cache: Option<&'a RoundCache>,
    dirty: Option<&'a [u32]>,
    degraded: Option<DegradedView<'a>>,
}

impl<'a> DispatchContext<'a> {
    /// Creates a new context (without a shared per-round cache).
    ///
    /// # Panics
    /// Panics if `queue_lengths` and `rates` have different lengths — this is
    /// an internal programming error of the simulation engine, not a user
    /// input error.
    pub fn new(
        queue_lengths: &'a [u64],
        rates: &'a [f64],
        num_dispatchers: usize,
        round: u64,
    ) -> Self {
        assert_eq!(
            queue_lengths.len(),
            rates.len(),
            "queue-length and rate vectors must describe the same cluster"
        );
        DispatchContext {
            queue_lengths,
            rates,
            num_dispatchers,
            round,
            cache: None,
            dirty: None,
            degraded: None,
        }
    }

    /// Creates a context carrying a shared per-round compute cache. The
    /// cache must have been refreshed (`begin_round`) from exactly this
    /// round's `queue_lengths` and `rates`.
    ///
    /// # Panics
    /// Panics if the vector lengths disagree (including the cache's).
    pub fn with_cache(
        queue_lengths: &'a [u64],
        rates: &'a [f64],
        num_dispatchers: usize,
        round: u64,
        cache: &'a RoundCache,
    ) -> Self {
        let mut ctx = DispatchContext::new(queue_lengths, rates, num_dispatchers, round);
        assert_eq!(
            cache.num_servers(),
            queue_lengths.len(),
            "round cache must describe the same cluster as the snapshot"
        );
        ctx.cache = Some(cache);
        ctx
    }

    /// The shared per-round compute cache, when the engine provided one.
    /// Direct policy invocations (tests, examples, micro-benchmarks)
    /// typically construct contexts without it.
    pub fn cache(&self) -> Option<&'a RoundCache> {
        self.cache
    }

    /// Attaches the engine's round-to-round dirty set (see the type-level
    /// docs): the servers whose queue length may differ from the **previous
    /// round's** snapshot. Every listed index must be a valid server; the
    /// set is deduplicated but unordered.
    ///
    /// # Panics
    /// Panics in debug builds if any listed server is out of range (release
    /// builds defer to the consumers' own bounds checks — this runs once
    /// per round on the engine hot path).
    pub fn with_dirty(mut self, dirty: &'a [u32]) -> Self {
        debug_assert!(
            dirty.iter().all(|&s| (s as usize) < self.rates.len()),
            "dirty set names a server outside the cluster"
        );
        self.dirty = Some(dirty);
        self
    }

    /// The servers whose queue length may have changed since the previous
    /// round's snapshot, when the engine tracked them. `None` means the
    /// information is unavailable (first round of a run, direct policy
    /// invocations, or delta tracking disabled) and consumers must treat
    /// every server as potentially changed.
    ///
    /// The set is authoritative in one direction only: a server *not*
    /// listed is guaranteed unchanged **relative to the previous snapshot**;
    /// listed servers may or may not have changed. The engine derives the
    /// set by diffing consecutive snapshots, so it is exact there — in
    /// particular, a queue that completed as many jobs as it received is
    /// *not* listed. Consumers that overlay private modifications on a
    /// snapshot mirror (e.g. a dispatcher's own in-batch placements) must
    /// therefore re-check those slots themselves; the dirty set only
    /// describes the engine's queues.
    pub fn dirty_servers(&self) -> Option<&'a [u32]> {
        self.dirty
    }

    /// Attaches one dispatcher's degraded-information view (availability
    /// mask + probe-loss oracle) — see [`crate::degraded`]. Contexts built
    /// by the engine under an active scenario carry this; the fair-weather
    /// engine never constructs it, and policies must behave bit-identically
    /// when the view is present but inert (all servers up, zero loss).
    ///
    /// # Panics
    /// Panics if the mask describes a different cluster size than the
    /// snapshot.
    pub fn with_degraded(mut self, view: DegradedView<'a>) -> Self {
        assert_eq!(
            view.availability().num_servers(),
            self.rates.len(),
            "availability mask must describe the same cluster as the snapshot"
        );
        self.degraded = Some(view);
        self
    }

    /// The scenario's availability mask, when the engine attached one.
    /// `None` (the fair-weather engine, direct invocations) means every
    /// server is up.
    pub fn availability(&self) -> Option<&'a Availability> {
        self.degraded.as_ref().map(|v| v.availability())
    }

    /// The availability mask *only when it currently excludes a server* —
    /// the branch point for mask-aware policies: `None` means the full
    /// unmasked code path is correct (and, for bit-identity with the
    /// fair-weather engine, mandatory).
    pub fn active_mask(&self) -> Option<&'a Availability> {
        self.availability().filter(|a| !a.all_servers_up())
    }

    /// Whether one server is up under the scenario (vacuously true without
    /// one).
    ///
    /// # Panics
    /// Panics if the server index is out of range.
    pub fn is_server_up(&self, server: ServerId) -> bool {
        match self.availability() {
            Some(avail) => avail.is_up(server.index()),
            None => true,
        }
    }

    /// Whether probe number `probe` of this round by this context's
    /// dispatcher reached `target` and returned. Always true without a
    /// degraded view; with one, a probe is lost either by the scenario's
    /// probe-loss draw (consumed and tallied first, so the loss schedule
    /// does not depend on the chosen target) or because the target is down.
    /// Probe-marking policies must call this exactly once per probe, with a
    /// per-round probe index.
    ///
    /// # Panics
    /// Panics if the server index is out of range.
    pub fn probe_delivered(&self, probe: u64, target: ServerId) -> bool {
        match &self.degraded {
            Some(view) => view.probe_delivered(self.round, probe, target.index()),
            None => true,
        }
    }

    /// Number of servers `n`.
    pub fn num_servers(&self) -> usize {
        self.rates.len()
    }

    /// Number of dispatchers `m` operating concurrently in the system.
    ///
    /// SCD uses this for its arrival estimation `a_est = m · a(d)`.
    pub fn num_dispatchers(&self) -> usize {
        self.num_dispatchers
    }

    /// The current round index `t`.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Queue length `q_s(t)` of one server at the beginning of the round.
    ///
    /// # Panics
    /// Panics if the server index is out of range.
    pub fn queue_len(&self, server: ServerId) -> u64 {
        self.queue_lengths[server.index()]
    }

    /// All queue lengths, indexed by server.
    pub fn queue_lengths(&self) -> &'a [u64] {
        self.queue_lengths
    }

    /// Service rate `µ_s` of one server.
    ///
    /// # Panics
    /// Panics if the server index is out of range.
    pub fn rate(&self, server: ServerId) -> f64 {
        self.rates[server.index()]
    }

    /// All service rates, indexed by server.
    pub fn rates(&self) -> &'a [f64] {
        self.rates
    }

    /// Total service capacity `Σ_s µ_s`.
    pub fn total_rate(&self) -> f64 {
        self.rates.iter().sum()
    }

    /// Expected delay (normalized queue length) `q_s / µ_s` of a server — the
    /// quantity SED-style policies rank servers by.
    ///
    /// # Panics
    /// Panics if the server index is out of range.
    pub fn expected_delay(&self, server: ServerId) -> f64 {
        self.queue_lengths[server.index()] as f64 / self.rates[server.index()]
    }

    /// Iterator over `(ServerId, queue length, rate)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (ServerId, u64, f64)> + 'a {
        let queues = self.queue_lengths;
        let rates = self.rates;
        (0..queues.len()).map(move |i| (ServerId::new(i), queues[i], rates[i]))
    }

    /// Servers with an empty queue (the set JIQ-style policies target).
    pub fn idle_servers(&self) -> Vec<ServerId> {
        self.queue_lengths
            .iter()
            .enumerate()
            .filter(|(_, &q)| q == 0)
            .map(|(i, _)| ServerId::new(i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx<'a>(queues: &'a [u64], rates: &'a [f64]) -> DispatchContext<'a> {
        DispatchContext::new(queues, rates, 4, 17)
    }

    #[test]
    fn accessors_return_the_underlying_data() {
        let queues = vec![2u64, 1, 3, 1];
        let rates = vec![5.0, 2.0, 1.0, 1.0];
        let c = ctx(&queues, &rates);
        assert_eq!(c.num_servers(), 4);
        assert_eq!(c.num_dispatchers(), 4);
        assert_eq!(c.round(), 17);
        assert_eq!(c.queue_lengths(), &queues[..]);
        assert_eq!(c.rates(), &rates[..]);
        assert_eq!(c.queue_len(ServerId::new(2)), 3);
        assert_eq!(c.rate(ServerId::new(0)), 5.0);
        assert_eq!(c.total_rate(), 9.0);
    }

    #[test]
    fn expected_delay_divides_by_rate() {
        let queues = vec![2u64, 1, 3, 1];
        let rates = vec![5.0, 2.0, 1.0, 1.0];
        let c = ctx(&queues, &rates);
        assert!((c.expected_delay(ServerId::new(0)) - 0.4).abs() < 1e-12);
        assert!((c.expected_delay(ServerId::new(2)) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn idle_servers_lists_empty_queues_only() {
        let queues = vec![0u64, 4, 0, 1];
        let rates = vec![1.0; 4];
        let c = ctx(&queues, &rates);
        let idle: Vec<usize> = c.idle_servers().into_iter().map(|s| s.index()).collect();
        assert_eq!(idle, vec![0, 2]);
    }

    #[test]
    fn iter_walks_servers_in_order() {
        let queues = vec![1u64, 2];
        let rates = vec![3.0, 4.0];
        let c = ctx(&queues, &rates);
        let triples: Vec<(usize, u64, f64)> = c.iter().map(|(s, q, r)| (s.index(), q, r)).collect();
        assert_eq!(triples, vec![(0, 1, 3.0), (1, 2, 4.0)]);
    }

    #[test]
    #[should_panic(expected = "same cluster")]
    fn mismatched_lengths_panic() {
        let queues = vec![1u64, 2];
        let rates = vec![3.0];
        let _ = DispatchContext::new(&queues, &rates, 1, 0);
    }

    #[test]
    fn dirty_set_round_trips_through_the_context() {
        let queues = vec![1u64, 2, 3];
        let rates = vec![1.0; 3];
        let dirty = vec![2u32, 0];
        let c = DispatchContext::new(&queues, &rates, 1, 0).with_dirty(&dirty);
        assert_eq!(c.dirty_servers(), Some(&dirty[..]));
        // Contexts without the engine's tracking report None.
        assert_eq!(ctx(&queues, &rates).dirty_servers(), None);
    }

    #[test]
    fn degraded_view_round_trips_through_the_context() {
        use crate::degraded::{Availability, DegradedView};
        let queues = vec![1u64, 2, 3];
        let rates = vec![1.0; 3];
        let plain = ctx(&queues, &rates);
        assert!(plain.availability().is_none());
        assert!(plain.active_mask().is_none());
        assert!(plain.is_server_up(ServerId::new(2)));
        assert!(plain.probe_delivered(0, ServerId::new(1)));

        let mut avail = Availability::all_up(3);
        let c = DispatchContext::new(&queues, &rates, 1, 0)
            .with_degraded(DegradedView::new(&avail, None, 0));
        // Inert mask: availability is visible but the active mask is None.
        assert!(c.availability().is_some());
        assert!(c.active_mask().is_none());

        avail.begin_round();
        avail.set(1, false);
        avail.refresh();
        let c = DispatchContext::new(&queues, &rates, 1, 0)
            .with_degraded(DegradedView::new(&avail, None, 0));
        assert!(c.active_mask().is_some());
        assert!(!c.is_server_up(ServerId::new(1)));
        assert!(!c.probe_delivered(0, ServerId::new(1)));
        assert!(c.probe_delivered(1, ServerId::new(0)));
    }

    #[test]
    #[should_panic(expected = "same cluster")]
    fn mismatched_availability_mask_panics() {
        use crate::degraded::{Availability, DegradedView};
        let queues = vec![1u64, 2];
        let rates = vec![1.0; 2];
        let avail = Availability::all_up(3);
        let _ = DispatchContext::new(&queues, &rates, 1, 0)
            .with_degraded(DegradedView::new(&avail, None, 0));
    }

    // `with_dirty` checks its indices with a `debug_assert!` only, so the
    // panic exists in debug builds alone.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "outside the cluster")]
    fn out_of_range_dirty_servers_panic() {
        let queues = vec![1u64, 2];
        let rates = vec![1.0; 2];
        let dirty = vec![2u32];
        let _ = DispatchContext::new(&queues, &rates, 1, 0).with_dirty(&dirty);
    }
}
