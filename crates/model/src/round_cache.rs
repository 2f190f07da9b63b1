//! Per-round shared compute cache.
//!
//! Within one simulation round every dispatcher observes the *same* queue
//! snapshot and the *same* (static) service rates, so the derived tables the
//! decision procedures consume are identical across all `m` dispatchers: the
//! reciprocal rates `1/µ_s` and the SCD dispatch table
//! ([`ScdTable`]: servers or `(q, rate-class)` classes sorted by their
//! Corollary 1 key, with prefix sums). A [`RoundCache`] computes them once
//! per round instead of once per dispatcher.
//!
//! The cache is owned by the simulation engine, refreshed at the start of
//! each round ([`RoundCache::begin_round_for`] or, with the engine's dirty
//! set, [`RoundCache::begin_round_delta`]), and handed to every dispatcher as
//! an immutable view through
//! [`DispatchContext::with_cache`](crate::DispatchContext::with_cache).
//! Dispatcher independence is preserved: policies only *read* the tables,
//! and every per-dispatcher quantity (arrival estimates, RNG streams) stays
//! inside the policy objects.
//!
//! # The lazy SCD table
//!
//! The refresh itself only records the snapshot and the dirty set. The SCD
//! table is built by the round's first [`scd_table`](RoundCache::scd_table)
//! call — inside the first SCD dispatch, so decision timers include the
//! shared per-round work — through interior mutability
//! ([`std::cell::RefCell`]); later dispatchers of the round read the built
//! table. Dirty sets accumulate until the next build, which repairs the
//! table's server order from them instead of re-sorting it. The table is a
//! pure function of the snapshot, so repaired and re-sorted tables, and runs
//! with and without the cache, make bit-identical decisions.

use crate::ScdTable;
use std::cell::{Cell, Ref, RefCell};

/// The reciprocal-rate table `inv[s] = 1.0/µ_s`, as a fresh vector.
///
/// Every reciprocal-rate table in the workspace (the [`RoundCache`], the SCD
/// solver scratch, the argmin family's expected-delay keys) is built from
/// this one expression — the cached/uncached equivalence guarantees depend
/// on every reciprocal being computed as exactly `1.0/µ`.
pub fn reciprocal_rates(rates: &[f64]) -> Vec<f64> {
    rates.iter().map(|&mu| 1.0 / mu).collect()
}

/// Refreshes a cached reciprocal-rate table (`inv[s] = 1.0/µ_s`) if `rates`
/// changed since the last call, using `snapshot` as the change detector.
/// Scratches that keep a `(snapshot, inv)` pair across rounds
/// ([`RoundCache`], the SCD solver scratch) all refresh it through here.
pub fn refresh_reciprocal_rates(snapshot: &mut Vec<f64>, inv: &mut Vec<f64>, rates: &[f64]) {
    if snapshot != rates {
        snapshot.clear();
        snapshot.extend_from_slice(rates);
        inv.clear();
        inv.extend(rates.iter().map(|&mu| 1.0 / mu));
    }
}

/// How much of the shared per-round cache a policy consumes; the engine
/// refreshes only what the most demanding policy of the run declares
/// (ordering: `None < SolverTables`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum CacheDemand {
    /// The policy never reads the cache (the default).
    #[default]
    None,
    /// The SCD dispatch table ([`RoundCache::scd_table`]).
    SolverTables,
}

/// Cumulative `(repairs, re-sorts)` of a cache's SCD table builds: a repair
/// merges the round's moved servers back into the previous order, a
/// re-sort orders every group from scratch (first use, no dirty set, a
/// dense dirty set, or class groups).
#[derive(Debug, Clone, Default)]
pub struct TableBuilds {
    repairs: Cell<u64>,
    resorts: Cell<u64>,
}

impl TableBuilds {
    /// Cumulative `(repairs, re-sorts)` over the cache's lifetime.
    pub fn stats(&self) -> (u64, u64) {
        (self.repairs.get(), self.resorts.get())
    }

    fn record(&self, repaired: bool) {
        let counter = if repaired {
            &self.repairs
        } else {
            &self.resorts
        };
        counter.set(counter.get() + 1);
    }
}

/// The lazily built SCD table and the dirty servers it has not seen yet.
#[derive(Debug, Clone, Default)]
struct TableSlot {
    table: ScdTable,
    /// Servers whose queue may have changed since the last build.
    pending: Vec<u32>,
    /// Whether `pending` covers every change since the last build; false
    /// after a refresh without a dirty set, which forces a re-sort.
    pending_complete: bool,
}

/// Derived per-round tables shared (read-only) by all dispatchers of a round.
///
/// All buffers are reused across rounds; after the first round at a given
/// cluster size a refresh and a table build perform no heap allocations.
/// The reciprocal rates are recomputed only when the rates change, which
/// happens once per simulation run.
///
/// # Example
/// ```
/// use scd_model::RoundCache;
/// let mut cache = RoundCache::new();
/// cache.begin_round(&[3, 0], &[2.0, 1.0]);
/// assert_eq!(cache.inv_rates(), &[0.5, 1.0]);
/// let mut p = Vec::new();
/// cache.scd_table().unwrap().probabilities_into(1.0, &mut p);
/// assert_eq!(p, [0.0, 1.0]); // keys 3.5 and 1.0: one job goes to server 1
/// ```
#[derive(Debug, Clone, Default)]
pub struct RoundCache {
    /// The rates the reciprocals were computed for (change detector).
    rates_snapshot: Vec<f64>,
    /// Reciprocal rates `1/µ_s`.
    inv_rates: Vec<f64>,
    /// The queue snapshot of the current round.
    queues_snapshot: Vec<u64>,
    /// The demand level of the last refresh.
    ready_demand: CacheDemand,
    /// Bumped by every `begin_round*`; 0 means "no round begun yet".
    round_generation: u64,
    /// The SCD table, built on the round's first `scd_table` call.
    scd: RefCell<TableSlot>,
    /// The round generation the table was last built for (0: never).
    scd_round: Cell<u64>,
    /// Table repairs vs re-sorts.
    builds: TableBuilds,
    /// `scd_table` calls served by a table already built this round.
    served: Cell<u64>,
    /// `scd_table` calls that built the round's table.
    built: Cell<u64>,
}

impl RoundCache {
    /// Creates an empty cache; call
    /// [`begin_round`](RoundCache::begin_round) before reading any table.
    pub fn new() -> Self {
        RoundCache::default()
    }

    /// Starts a round with every table available (equivalent to
    /// [`begin_round_for`](RoundCache::begin_round_for) with
    /// [`CacheDemand::SolverTables`]).
    ///
    /// # Panics
    /// Panics if `queues` and `rates` differ in length.
    pub fn begin_round(&mut self, queues: &[u64], rates: &[f64]) {
        self.begin_round_for(queues, rates, CacheDemand::SolverTables);
    }

    /// Starts a round for the tables a run actually consumes: the
    /// (static) reciprocal rates are kept fresh, and with
    /// [`CacheDemand::SolverTables`] the SCD table becomes available. The
    /// next table build re-sorts, since no dirty set says what changed.
    ///
    /// # Panics
    /// Panics if `queues` and `rates` differ in length.
    pub fn begin_round_for(&mut self, queues: &[u64], rates: &[f64], demand: CacheDemand) {
        assert_eq!(
            queues.len(),
            rates.len(),
            "queue-length and rate vectors must describe the same cluster"
        );
        refresh_reciprocal_rates(&mut self.rates_snapshot, &mut self.inv_rates, rates);
        self.round_generation = self.round_generation.wrapping_add(1);
        self.queues_snapshot.clear();
        self.queues_snapshot.extend_from_slice(queues);
        self.ready_demand = demand;
        let slot = self.scd.get_mut();
        slot.pending.clear();
        slot.pending_complete = false;
    }

    /// Delta refresh: like [`begin_round_for`] but told which servers
    /// changed, so only those are copied and the next table build repairs
    /// its order from them.
    ///
    /// `dirty` must be a superset of the servers whose queue length differs
    /// from the snapshot of the previous `begin_round*` call (the engine's
    /// round-to-round dirty set satisfies this by construction; duplicates
    /// are harmless) — asserted in debug builds by comparing the tracked
    /// snapshot against `queues`.
    ///
    /// Falls back to the full refresh on first use, a cluster-size or rate
    /// change, a demand change, or a dirty set covering half the cluster.
    ///
    /// [`begin_round_for`]: RoundCache::begin_round_for
    ///
    /// # Panics
    /// Panics if `queues` and `rates` differ in length or `dirty` names a
    /// server out of range.
    pub fn begin_round_delta(
        &mut self,
        queues: &[u64],
        rates: &[f64],
        dirty: &[u32],
        demand: CacheDemand,
    ) {
        assert_eq!(
            queues.len(),
            rates.len(),
            "queue-length and rate vectors must describe the same cluster"
        );
        let n = queues.len();
        if self.queues_snapshot.len() != n
            || self.rates_snapshot != rates
            || self.ready_demand != demand
            || dirty.len() * 2 >= n
        {
            self.begin_round_for(queues, rates, demand);
            return;
        }
        self.round_generation = self.round_generation.wrapping_add(1);
        for &s in dirty {
            let s = s as usize;
            self.queues_snapshot[s] = queues[s];
        }
        debug_assert_eq!(
            self.queues_snapshot, queues,
            "dirty set missed a changed server — the engine's delta contract is broken"
        );
        let slot = self.scd.get_mut();
        if slot.pending_complete {
            if slot.pending.len() + dirty.len() > n {
                slot.pending.clear();
                slot.pending_complete = false;
            } else {
                slot.pending.extend_from_slice(dirty);
            }
        }
    }

    /// The SCD table's `(repairs, re-sorts)` counters (see [`TableBuilds`]).
    /// The name predates the table; `perfbench/` reads the counters by it.
    pub fn warm_seeds(&self) -> &TableBuilds {
        &self.builds
    }

    /// Number of servers the tables describe.
    pub fn num_servers(&self) -> usize {
        self.inv_rates.len()
    }

    /// Reciprocal rates `1/µ_s`.
    pub fn inv_rates(&self) -> &[f64] {
        &self.inv_rates
    }

    /// The round's SCD dispatch table, built on the round's first call
    /// (repaired from the accumulated dirty sets when they cover every
    /// change since the last build, re-sorted otherwise) and shared by
    /// every later call of the round. `None` before the first round, for
    /// an empty cluster, or when the round was refreshed without
    /// [`CacheDemand::SolverTables`].
    pub fn scd_table(&self) -> Option<Ref<'_, ScdTable>> {
        if self.ready_demand < CacheDemand::SolverTables
            || self.round_generation == 0
            || self.queues_snapshot.is_empty()
        {
            return None;
        }
        if self.scd_round.get() == self.round_generation {
            self.served.set(self.served.get() + 1);
        } else {
            let mut slot = self.scd.borrow_mut();
            let TableSlot {
                table,
                pending,
                pending_complete,
            } = &mut *slot;
            let dirty = pending_complete.then_some(&pending[..]);
            let repaired = table.refresh(&self.queues_snapshot, &self.rates_snapshot, dirty);
            self.builds.record(repaired);
            pending.clear();
            *pending_complete = true;
            self.scd_round.set(self.round_generation);
            self.built.set(self.built.get() + 1);
        }
        Some(Ref::map(self.scd.borrow(), |slot| &slot.table))
    }

    /// Cumulative `(served, builds)` of [`scd_table`](RoundCache::scd_table)
    /// over the cache's lifetime: calls served from the round's table vs
    /// calls that built it. The name predates the table; `perfbench/`
    /// reads the counters by it.
    pub fn solver_memo_stats(&self) -> (u64, u64) {
        (self.served.get(), self.built.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The round table's distribution for `a` arrivals, as raw bits.
    fn table_bits(cache: &RoundCache, a: f64) -> Vec<u64> {
        let mut p = Vec::new();
        cache.scd_table().unwrap().probabilities_into(a, &mut p);
        p.iter().map(|x| x.to_bits()).collect()
    }

    /// The same distribution from a private table sorted from scratch.
    fn private_bits(queues: &[u64], rates: &[f64], a: f64) -> Vec<u64> {
        let mut table = ScdTable::new();
        table.refresh(queues, rates, None);
        let mut p = Vec::new();
        table.probabilities_into(a, &mut p);
        p.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn tables_match_the_private_computation() {
        let queues = [4u64, 0, 7];
        let rates = [2.0, 0.5, 7.0];
        let mut cache = RoundCache::new();
        cache.begin_round(&queues, &rates);
        assert_eq!(cache.num_servers(), 3);
        for (inv, mu) in cache.inv_rates().iter().zip(rates) {
            // Bit-identical, not merely close: the cache must reproduce the
            // exact expression policies used privately.
            assert_eq!(*inv, 1.0 / mu);
        }
        for a in [1.0, 2.5, 9.0] {
            assert_eq!(table_bits(&cache, a), private_bits(&queues, &rates, a));
        }
    }

    #[test]
    fn rounds_refresh_loads_but_not_reciprocals() {
        let rates = [2.0, 4.0];
        let mut cache = RoundCache::new();
        cache.begin_round(&[0, 0], &rates);
        let inv_before = cache.inv_rates().to_vec();
        let before = table_bits(&cache, 3.0);
        cache.begin_round(&[5, 1], &rates);
        assert_eq!(cache.inv_rates(), &inv_before[..]);
        assert_ne!(table_bits(&cache, 3.0), before);
        assert_eq!(table_bits(&cache, 3.0), private_bits(&[5, 1], &rates, 3.0));
    }

    #[test]
    fn rate_changes_rebuild_the_reciprocals() {
        let mut cache = RoundCache::new();
        cache.begin_round(&[1], &[2.0]);
        assert_eq!(cache.inv_rates(), &[0.5]);
        cache.begin_round(&[1, 1], &[2.0, 8.0]);
        assert_eq!(cache.inv_rates(), &[0.5, 0.125]);
    }

    #[test]
    #[should_panic(expected = "same cluster")]
    fn mismatched_lengths_panic() {
        RoundCache::new().begin_round(&[1, 2], &[1.0]);
    }

    #[test]
    fn table_free_demand_skips_and_clears_solver_tables() {
        let mut cache = RoundCache::new();
        assert!(cache.scd_table().is_none(), "no round begun");
        cache.begin_round(&[3, 1], &[2.0, 1.0]);
        assert!(cache.scd_table().is_some());
        // A round refreshed without the table demand keeps inv_rates fresh
        // but withholds the SCD table, so out-of-contract reads fail loudly.
        cache.begin_round_for(&[4, 2], &[2.0, 1.0], CacheDemand::None);
        assert_eq!(cache.inv_rates(), &[0.5, 1.0]);
        assert!(cache.scd_table().is_none());
    }

    #[test]
    fn cache_demand_orders_none_below_tables() {
        assert!(CacheDemand::None < CacheDemand::SolverTables);
        assert_eq!(CacheDemand::default(), CacheDemand::None);
    }

    #[test]
    fn solver_memo_round_trips_and_counts() {
        // The first table read of a round builds it; every later read of
        // the round is served from it, whatever the estimate.
        let mut cache = RoundCache::new();
        cache.begin_round(&[3, 0, 2], &[1.0, 2.0, 4.0]);
        let first = table_bits(&cache, 6.0);
        assert_eq!(cache.solver_memo_stats(), (0, 1));
        assert_eq!(table_bits(&cache, 6.0), first);
        table_bits(&cache, 7.0);
        assert_eq!(cache.solver_memo_stats(), (2, 1));
    }

    #[test]
    fn begin_round_invalidates_memo_entries_but_keeps_counters() {
        let mut cache = RoundCache::new();
        cache.begin_round(&[1, 2], &[1.0, 2.0]);
        let old = table_bits(&cache, 4.0);
        cache.begin_round(&[3, 2], &[1.0, 2.0]);
        // New round, same estimate: the table describes the new snapshot.
        let new = table_bits(&cache, 4.0);
        assert_ne!(old, new);
        assert_eq!(new, private_bits(&[3, 2], &[1.0, 2.0], 4.0));
        assert_eq!(cache.solver_memo_stats(), (0, 2));
    }

    #[test]
    fn delta_refresh_matches_the_full_refresh_bit_for_bit() {
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xD1217);
        let n = 24usize;
        let rates: Vec<f64> = (0..n).map(|_| rng.gen_range(0.5..12.0)).collect();
        let mut queues: Vec<u64> = (0..n).map(|_| rng.gen_range(0..20)).collect();
        let mut delta = RoundCache::new();
        let mut full = RoundCache::new();
        delta.begin_round_delta(&queues, &rates, &[], CacheDemand::SolverTables);
        full.begin_round(&queues, &rates);
        for round in 0..200 {
            // Mutate a few servers; the dirty set lists them (with a
            // duplicate and an unchanged server to exercise both edges).
            let k = rng.gen_range(0..5usize);
            let mut dirty: Vec<u32> = (0..k).map(|_| rng.gen_range(0..n) as u32).collect();
            for &s in &dirty {
                queues[s as usize] = rng.gen_range(0..20);
            }
            if k > 0 {
                dirty.push(dirty[0]);
            }
            dirty.push(rng.gen_range(0..n) as u32); // possibly unchanged
            delta.begin_round_delta(&queues, &rates, &dirty, CacheDemand::SolverTables);
            full.begin_round(&queues, &rates);
            // Skip some builds so dirty sets accumulate across rounds.
            if round % 3 != 0 {
                let a = rng.gen_range(1.5..40.0);
                assert_eq!(table_bits(&delta, a), table_bits(&full, a), "round {round}");
            }
            assert_eq!(delta.inv_rates(), full.inv_rates());
        }
        let (repairs, resorts) = delta.warm_seeds().stats();
        assert!(repairs > 100, "delta rounds must repair: {repairs}");
        assert_eq!(resorts, 1, "only the first build re-sorts");
        assert_eq!(full.warm_seeds().stats().0, 0, "full rounds always re-sort");
    }

    #[test]
    fn delta_refresh_falls_back_on_shape_or_demand_changes() {
        let mut cache = RoundCache::new();
        let resorts = |cache: &RoundCache| {
            cache.scd_table().unwrap();
            cache.warm_seeds().stats().1
        };
        // First use: no snapshot yet → full refresh despite the empty dirty
        // set.
        cache.begin_round_delta(&[3, 1], &[2.0, 1.0], &[], CacheDemand::SolverTables);
        assert_eq!(resorts(&cache), 1);
        // Cluster-size change → full refresh.
        cache.begin_round_delta(&[1, 1, 1], &[1.0, 2.0, 4.0], &[], CacheDemand::SolverTables);
        assert_eq!(cache.inv_rates(), &[1.0, 0.5, 0.25]);
        assert_eq!(resorts(&cache), 2);
        // A table-free refresh withholds the table; widening the demand
        // afterwards must rebuild it from scratch.
        cache.begin_round_delta(&[2, 1, 1], &[1.0, 2.0, 4.0], &[0], CacheDemand::None);
        assert!(cache.scd_table().is_none());
        cache.begin_round_delta(
            &[4, 1, 1],
            &[1.0, 2.0, 4.0],
            &[0],
            CacheDemand::SolverTables,
        );
        assert_eq!(resorts(&cache), 3);
        assert_eq!(
            table_bits(&cache, 5.0),
            private_bits(&[4, 1, 1], &[1.0, 2.0, 4.0], 5.0)
        );
    }

    #[test]
    fn delta_refresh_invalidates_the_solver_memo() {
        let mut cache = RoundCache::new();
        cache.begin_round(&[1, 2], &[1.0, 2.0]);
        let old = table_bits(&cache, 4.0);
        cache.begin_round_delta(&[1, 3], &[1.0, 2.0], &[1], CacheDemand::SolverTables);
        let new = table_bits(&cache, 4.0);
        assert_ne!(old, new);
        assert_eq!(new, private_bits(&[1, 3], &[1.0, 2.0], 4.0));
        assert_eq!(cache.solver_memo_stats(), (0, 2));
    }

    #[test]
    fn warm_seeds_round_trip_and_survive_rounds() {
        // The repair/re-sort counters accumulate over the cache's lifetime.
        let rates = [1.0, 2.0, 3.0, 4.0, 5.0];
        let mut cache = RoundCache::new();
        cache.begin_round(&[1, 2, 3, 4, 5], &rates);
        cache.scd_table();
        assert_eq!(cache.warm_seeds().stats(), (0, 1));
        cache.begin_round_delta(&[1, 2, 9, 4, 5], &rates, &[2], CacheDemand::SolverTables);
        cache.scd_table();
        assert_eq!(cache.warm_seeds().stats(), (1, 1));
        cache.begin_round(&[1, 2, 9, 4, 0], &rates);
        cache.scd_table();
        assert_eq!(cache.warm_seeds().stats(), (1, 2));
    }

    #[test]
    fn reciprocal_helper_matches_the_refresh_path() {
        let rates = [2.0, 0.5, 7.0];
        let fresh = reciprocal_rates(&rates);
        let mut snapshot = Vec::new();
        let mut inv = Vec::new();
        refresh_reciprocal_rates(&mut snapshot, &mut inv, &rates);
        assert_eq!(fresh, inv);
    }
}
