//! The SCD dispatch kernel: one key-sorted prefix-sum table per round,
//! an `O(log n)` solve per dispatcher and inverse-CDF draws per job.
//!
//! # Why one sorted order suffices
//!
//! With `key_s = (2q_s + 1)/µ_s`, the linear term of the paper's Eq. 10 is
//! `Σ key_s·p_s − 2·iwl·Σ p_s`, and `Σ p_s = 1` makes the IWL part a
//! constant. So the optimal `P*` does not depend on the ideal workload at
//! all: its KKT conditions give `p_s = µ_s·(c − key_s)⁺ / (2(a−1))` for one
//! level `c`, and the probable set is a prefix of the servers sorted by key
//! (Corollary 1). Over that order, with prefix sums `M_j = Σ µ` and
//! `K_j = Σ (2q + 1)`, the prefix is
//! `J = max{j : key_j·M_j − K_j < 2(a−1)}` (the left side is
//! non-decreasing in `j`, so it is a binary search) and
//! `c = (K_J + 2(a−1)) / M_J`. The cumulative mass of the first `j`
//! groups is `c·M_j − K_j`, so one uniform draw is mapped to a destination
//! by a second binary search — the inverse CDF.
//!
//! # Groups
//!
//! A table entry is a *group* of servers with one key. When the round's
//! `(q, rate-class)` cell table `R·(q_max + 1)` fits in `n/4`, the groups
//! are the [`ClassPartition`] classes (`count·µ` and `count·(2q + 1)` enter
//! the sums, and a second draw picks a uniform member); otherwise every
//! server is its own group. Groups are sorted by `(key, index)`, a unique
//! order, so a table repaired from a dirty set is bit-identical to one
//! sorted from scratch ([`KeyOrder`]).
//!
//! # Lockstep draws
//!
//! One inverse-CDF search over a prefix of thousands of groups is a chain
//! of dependent loads, so it costs a memory latency per level. With
//! single-server groups the kernel therefore draws up to `LANES` jobs'
//! `u64`s in stream order, runs their searches in lockstep — one shared
//! `size`/`half` sequence, each lane moving its own `base` — and emits the
//! chunk's servers in draw order; the lanes' loads overlap. Every lane
//! probes exactly the indices `partition_point` probes, so destinations,
//! emit order and RNG consumption equal one search per job, bit for bit.
//! The step is a `select_unpredictable`, as in std's binary search: written
//! as a plain `if`, it compiles to a branch that mispredicts about every
//! other step, and the loop ran about twice as slow as one search per job.
//! Class mode runs the same routine one lane at a time: a job's member
//! draw comes right after its group draw, so the next job's group cannot
//! be drawn ahead of it.
//!
//! # Numerics
//!
//! The sums are taken relative to the smallest key: `d_j = key_j − key_0`
//! and `K_j = Σ µ·d`. Without the shift, `c·M_j − K_j` is a difference of
//! two numbers of size `q·n` whose result is of size `a`, which cancels
//! catastrophically once queues are deep (`q ≈ 2⁴⁰`).

use crate::{AliasSampler, ClassPartition, KeyOrder};
use rand::RngCore;

/// Arrivals within this distance of 1.0 take the closed-form single-job
/// path (Eq. 9), which avoids dividing by `a − 1 ≈ 0`.
pub const SINGLE_JOB_THRESHOLD: f64 = 1.0 + 1e-9;

/// Per-dispatcher draw buffers: the prefix weights and the alias table
/// built over them when a batch is larger than the probable prefix.
#[derive(Debug, Clone, Default)]
pub struct DrawScratch {
    weights: Vec<f64>,
    alias: AliasSampler,
}

/// One round's SCD dispatch table (see the module docs).
///
/// # Example
/// ```
/// use scd_model::ScdTable;
/// // Figure 2 of the paper: one fast server (µ = 10, q = 9), eight idle
/// // slow ones, 7 arrivals.
/// let mut queues = vec![9u64];
/// queues.extend([0; 8]);
/// let mut rates = vec![10.0];
/// rates.extend([1.0; 8]);
/// let mut table = ScdTable::new();
/// table.refresh(&queues, &rates, None);
/// let mut p = Vec::new();
/// table.probabilities_into(7.0, &mut p);
/// assert!((p[0] - 2.0 / 9.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ScdTable {
    /// The rates the reciprocals were computed for (change detector).
    rates: Vec<f64>,
    /// Reciprocal rates `1/µ_s`.
    inv_rates: Vec<f64>,
    /// Servers by `(key, index)`; describes the last per-server build only.
    order: KeyOrder,
    /// Whether `order` holds the keys of the last refreshed snapshot.
    order_valid: bool,
    /// The round's classes, when the groups are classes.
    partition: ClassPartition,
    /// Whether the groups are classes (otherwise single servers).
    classes: bool,
    /// Class-mode sort scratch: `(key bits, class)`.
    class_order: Vec<(u64, u32)>,
    /// The groups in `(key, index)` order.
    groups: Vec<Group>,
    /// Per group, the inclusive prefix sums `[M_j, K_j]` of the masses and
    /// of `mass·d` — kept apart from `groups` so the inverse-CDF searches
    /// walk a compact array.
    sums: Vec<[f64; 2]>,
    /// The smallest key `key_0`.
    min_key: f64,
}

impl ScdTable {
    /// Creates an empty table; call [`refresh`](ScdTable::refresh) before
    /// reading it.
    pub fn new() -> Self {
        ScdTable::default()
    }

    /// Rebuilds the table for a queue snapshot. With `dirty` — a superset
    /// of the servers whose queue changed since the previous refresh — a
    /// per-server order is repaired instead of re-sorted. Returns `true`
    /// for a repair and `false` for a re-sort (a class-grouped build
    /// always re-sorts its classes). Either way the table is a pure
    /// function of `(queues, rates)`.
    ///
    /// # Panics
    /// Panics if `queues` and `rates` differ in length or are empty.
    pub fn refresh(&mut self, queues: &[u64], rates: &[f64], dirty: Option<&[u32]>) -> bool {
        assert_eq!(
            queues.len(),
            rates.len(),
            "queue-length and rate vectors must describe the same cluster"
        );
        let n = queues.len();
        assert!(n > 0, "the cluster must contain at least one server");
        if self.rates != rates {
            self.order_valid = false;
            crate::refresh_reciprocal_rates(&mut self.rates, &mut self.inv_rates, rates);
        }
        self.groups.clear();
        self.sums.clear();
        if self.partition.build_within(queues, rates, n / 4) {
            self.classes = true;
            self.order_valid = false;
            self.group_classes();
            return false;
        }
        self.classes = false;
        let inv = &self.inv_rates;
        let key = |s: usize| (2.0 * queues[s] as f64 + 1.0) * inv[s];
        let repaired = match dirty {
            Some(dirty) if self.order_valid => self.order.repair(dirty, key),
            _ => {
                self.order.rebuild(n, key);
                self.order_valid = true;
                false
            }
        };
        self.min_key = self.order.key(self.order.order()[0]);
        for &s in self.order.order() {
            let rel = self.order.key(s) - self.min_key;
            push_group(&mut self.groups, &mut self.sums, s as u32, rel, rates[s]);
        }
        repaired
    }

    /// Sorts the partition's classes by `(key, class index)` and fills the
    /// group arrays from them.
    fn group_classes(&mut self) {
        let part = &self.partition;
        self.class_order.clear();
        self.class_order.extend(
            part.keys()
                .iter()
                .enumerate()
                .map(|(c, &key)| (key.to_bits(), c as u32)),
        );
        self.class_order.sort_unstable();
        self.min_key = f64::from_bits(self.class_order[0].0);
        for &(bits, c) in &self.class_order {
            let rel = f64::from_bits(bits) - self.min_key;
            push_group(
                &mut self.groups,
                &mut self.sums,
                c,
                rel,
                part.cmu()[c as usize],
            );
        }
    }

    /// Number of servers the table describes.
    pub fn num_servers(&self) -> usize {
        self.rates.len()
    }

    /// Number of groups: classes when [`uses_classes`](ScdTable::uses_classes),
    /// servers otherwise.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Whether the groups are `(q, rate-class)` classes.
    pub fn uses_classes(&self) -> bool {
        self.classes
    }

    /// The probable prefix for `arrivals > SINGLE_JOB_THRESHOLD`: its
    /// length `J` and the level `c − key_0`.
    pub fn probable_prefix(&self, arrivals: f64) -> (usize, f64) {
        debug_assert!(arrivals > SINGLE_JOB_THRESHOLD);
        let budget = 2.0 * (arrivals - 1.0);
        // The first threshold is exactly 0, so the prefix is never empty.
        let len = self.groups.partition_point(|g| g.threshold < budget).max(1);
        let [m_sum, k_sum] = self.sums[len - 1];
        (len, (k_sum + budget) / m_sum)
    }

    /// The single job's destinations (Eq. 9): the number of leading groups
    /// tied with the minimal key, within the closed form's tie tolerance,
    /// and the number of servers in them.
    fn tied_prefix(&self) -> (usize, u64) {
        let tol = 1e-12 * (1.0 + self.min_key.abs());
        let tied = self.groups.partition_point(|g| g.rel_key <= tol);
        let winners = (0..tied).map(|j| self.members(j).len() as u64).sum();
        (tied, winners)
    }

    /// The servers of group `j`.
    fn members(&self, j: usize) -> &[u32] {
        if self.classes {
            self.partition.class_members(self.groups[j].id as usize)
        } else {
            std::slice::from_ref(&self.groups[j].id)
        }
    }

    /// A server of group `j`: the group's only one, or a uniform member
    /// picked with one more draw.
    #[inline]
    fn pick(&self, j: usize, rng: &mut dyn RngCore) -> usize {
        let id = self.groups[j].id as usize;
        if !self.classes {
            id
        } else if self.partition.counts()[id] > 1 {
            self.partition.member(id, rng.next_u64()) as usize
        } else {
            self.partition.class_members(id)[0] as usize
        }
    }

    /// Writes the per-server distribution for `arrivals` into `out`: the
    /// exact distribution [`dispatch`](ScdTable::dispatch) samples.
    pub fn probabilities_into(&self, arrivals: f64, out: &mut Vec<f64>) {
        out.clear();
        out.resize(self.num_servers(), 0.0);
        if arrivals <= SINGLE_JOB_THRESHOLD {
            let (tied, winners) = self.tied_prefix();
            let share = 1.0 / winners as f64;
            for j in 0..tied {
                for &s in self.members(j) {
                    out[s as usize] = share;
                }
            }
            return;
        }
        let (len, level) = self.probable_prefix(arrivals);
        let prefix = &self.groups[..len];
        let total: f64 = prefix.iter().map(|g| g.weight(level)).sum();
        let scale = 1.0 / total;
        for (j, g) in prefix.iter().enumerate() {
            let p = (level - g.rel_key).max(0.0) * scale;
            for &s in self.members(j) {
                out[s as usize] = self.rates[s as usize] * p;
            }
        }
    }

    /// Draws `batch` i.i.d. destinations for a dispatcher estimating
    /// `arrivals` jobs and hands each server index to `emit`.
    ///
    /// Each job takes one `u64` for its group — by binary search over the
    /// inverse CDF `c·M_j − K_j`, or through an alias table over the
    /// prefix when the batch is larger than the prefix — plus one more
    /// for the member of a multi-server class. With a single arrival the
    /// job goes to a uniform server among the minimal-key ties, one `u64`
    /// per job.
    pub fn dispatch(
        &self,
        arrivals: f64,
        batch: usize,
        scratch: &mut DrawScratch,
        rng: &mut dyn RngCore,
        mut emit: impl FnMut(usize),
    ) {
        if batch == 0 {
            return;
        }
        if arrivals <= SINGLE_JOB_THRESHOLD {
            let (_, winners) = self.tied_prefix();
            for _ in 0..batch {
                // A uniform server among the ties, walked to its group.
                let mut x = (((rng.next_u64() >> 32) * winners) >> 32) as usize;
                let mut j = 0;
                while x >= self.members(j).len() {
                    x -= self.members(j).len();
                    j += 1;
                }
                emit(self.members(j)[x] as usize);
            }
            return;
        }
        let (len, level) = self.probable_prefix(arrivals);
        if batch > len {
            let DrawScratch { weights, alias } = scratch;
            weights.clear();
            let mut total = 0.0;
            for g in &self.groups[..len] {
                let w = g.weight(level);
                total += w;
                weights.push(w);
            }
            alias.rebuild_with_total(weights, total);
            for _ in 0..batch {
                let j = alias.sample(rng);
                emit(self.pick(j, rng));
            }
            return;
        }
        let sums = &self.sums[..len];
        let [m_sum, k_sum] = sums[len - 1];
        let span = level * m_sum - k_sum;
        // A class job draws its member right after its group, so class
        // mode cannot draw ahead of the next job: it runs one lane.
        let width = if self.classes { 1 } else { LANES };
        let mut draws = [0.0; LANES];
        let mut found = [0; LANES];
        for first in (0..batch).step_by(width) {
            let lanes = width.min(batch - first);
            for x in &mut draws[..lanes] {
                *x = crate::unit_f64(rng.next_u64()) * span;
            }
            search_lanes(sums, level, &draws[..lanes], &mut found[..lanes]);
            for &j in &found[..lanes] {
                emit(self.pick(j.min(len - 1), rng));
            }
        }
    }
}

/// Draws searched together by [`search_lanes`]: enough independent loads
/// in flight to hide the memory latency of a search over thousands of
/// groups (8 and 16 ran alike, 4 was too few).
const LANES: usize = 8;

/// The inverse CDF of the probable prefix `sums` at relative level
/// `level`, for up to [`LANES`] draws at once: `found[i]` becomes the
/// number of leading groups whose cumulative mass `level·M_j − K_j` is at
/// most `draws[i]`. Each lane probes the indices
/// `sums.partition_point(|s| cumulative(s) <= x)` probes, so the result
/// equals it bit for bit even where rounding makes the cumulative masses
/// non-monotone (module docs, "Lockstep draws").
#[inline(never)]
fn search_lanes(sums: &[[f64; 2]], level: f64, draws: &[f64], found: &mut [usize]) {
    let below = |j: usize, x: f64| {
        let [m_sum, k_sum] = sums[j];
        level * m_sum - k_sum <= x
    };
    let found = &mut found[..draws.len()];
    found.fill(0);
    let mut size = sums.len();
    while size > 1 {
        let half = size / 2;
        for (base, &x) in found.iter_mut().zip(draws) {
            let mid = *base + half;
            *base = std::hint::select_unpredictable(below(mid, x), mid, *base);
        }
        size -= half;
    }
    for (base, &x) in found.iter_mut().zip(draws) {
        *base += usize::from(below(*base, x));
    }
}

/// One table entry: a server, or a class of servers sharing `(q, µ)`.
#[derive(Debug, Clone, Copy)]
struct Group {
    /// The server or class index.
    id: u32,
    /// `d = key − key_0`.
    rel_key: f64,
    /// `count·µ`.
    mass: f64,
    /// `d_j·M_j − K_j`, non-decreasing in `j`; the probable prefix is the
    /// groups where it is below `2(a−1)`.
    threshold: f64,
}

impl Group {
    /// This group's unnormalized mass `count·µ·(c − key)⁺` at relative
    /// level `level`.
    #[inline]
    fn weight(&self, level: f64) -> f64 {
        (self.mass * (level - self.rel_key)).max(0.0)
    }
}

/// Appends one group, advancing the running prefix sums.
fn push_group(groups: &mut Vec<Group>, sums: &mut Vec<[f64; 2]>, id: u32, rel_key: f64, mass: f64) {
    let [m_sum, k_sum] = sums.last().copied().unwrap_or([0.0, 0.0]);
    let (m_sum, k_sum) = (m_sum + mass, k_sum + mass * rel_key);
    sums.push([m_sum, k_sum]);
    groups.push(Group {
        id,
        rel_key,
        mass,
        threshold: rel_key * m_sum - k_sum,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unit_f64;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The per-job kernel the lanes replace: an alias table over the
    /// prefix when the batch is larger than it, otherwise one
    /// `partition_point` over the inverse CDF per job, each followed by the
    /// job's member draw.
    fn oracle(table: &ScdTable, arrivals: f64, batch: usize, rng: &mut StdRng) -> Vec<usize> {
        let (len, level) = table.probable_prefix(arrivals);
        if batch > len {
            let weights: Vec<f64> = table.groups[..len]
                .iter()
                .map(|g| g.weight(level))
                .collect();
            let mut alias = AliasSampler::default();
            alias.rebuild_with_total(&weights, weights.iter().sum());
            return (0..batch)
                .map(|_| {
                    let j = alias.sample(rng);
                    table.pick(j, rng)
                })
                .collect();
        }
        let cumulative = |&[m_sum, k_sum]: &[f64; 2]| level * m_sum - k_sum;
        let sums = &table.sums[..len];
        let span = cumulative(&sums[len - 1]);
        (0..batch)
            .map(|_| {
                let x = unit_f64(rng.next_u64()) * span;
                let j = sums.partition_point(|sum| cumulative(sum) <= x);
                table.pick(j.min(len - 1), rng)
            })
            .collect()
    }

    /// Dispatches one batch and checks the servers, in emit order, and the
    /// generator's state afterwards against [`oracle`].
    fn assert_matches_oracle(table: &ScdTable, arrivals: f64, batch: usize, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut oracle_rng = rng.clone();
        let mut servers = Vec::new();
        table.dispatch(
            arrivals,
            batch,
            &mut DrawScratch::default(),
            &mut rng,
            |s| servers.push(s),
        );
        let context = format!(
            "n = {}, a = {arrivals}, batch = {batch}, seed = {seed}",
            table.num_servers()
        );
        assert_eq!(
            servers,
            oracle(table, arrivals, batch, &mut oracle_rng),
            "{context}"
        );
        assert_eq!(rng, oracle_rng, "{context}");
    }

    /// A random per-server table on `n` servers: either a few rates and a
    /// few queue lengths just below `2⁴⁰` (many tied keys, deep queues), or
    /// distinct rates with short queues.
    fn random_table(n: usize, rng: &mut StdRng) -> ScdTable {
        let deep = rng.gen_bool(0.5);
        let (queues, rates): (Vec<u64>, Vec<f64>) = (0..n)
            .map(|_| {
                if deep {
                    let q = (1u64 << 40) - rng.gen_range(0..4u64);
                    (q, [1.0, 2.0, 4.0][rng.gen_range(0..3usize)])
                } else {
                    (rng.gen_range(0..20u64), rng.gen_range(1.0..10.0))
                }
            })
            .collect();
        let mut table = ScdTable::new();
        table.refresh(&queues, &rates, None);
        assert!(!table.uses_classes());
        table
    }

    /// Arrivals whose probable prefix holds `target` groups, where the
    /// thresholds allow it: the budget `2(a − 1)` lies between the last
    /// threshold inside and the first outside (tied keys can force a
    /// longer prefix).
    fn arrivals_for_prefix(table: &ScdTable, target: usize) -> f64 {
        let budget = match table.groups.get(target) {
            Some(next) => (table.groups[target - 1].threshold + next.threshold) / 2.0,
            None => 1e18,
        };
        1.0 + (budget / 2.0).max(1e-6)
    }

    #[test]
    fn lane_draws_equal_the_per_job_search() {
        let mut rng = StdRng::seed_from_u64(0x1A9E);
        let mut prefixes = [0usize; 3];
        for n in 1..=300 {
            let table = random_table(n, &mut rng);
            for target in [1, 2, n] {
                let arrivals = arrivals_for_prefix(&table, target);
                let (len, _) = table.probable_prefix(arrivals);
                for (count, hit) in prefixes.iter_mut().zip([1, 2, n]) {
                    *count += usize::from(len == hit);
                }
                for batch in 1..=(3 * LANES + 1).min(len) {
                    assert_matches_oracle(&table, arrivals, batch, rng.next_u64());
                }
            }
        }
        // Every prefix shape was reached on many tables.
        assert!(prefixes.iter().all(|&count| count >= 100), "{prefixes:?}");
    }

    #[test]
    fn class_and_alias_draws_equal_the_per_job_kernel() {
        // Class mode: 40 servers, two rates and queues below 3, so the
        // (q, rate-class) cell table fits in n/4 and groups have members.
        let queues: Vec<u64> = (0..40).map(|s| s % 3).collect();
        let rates: Vec<f64> = (0..40).map(|s| [1.0, 3.0][s % 2]).collect();
        let mut classes = ScdTable::new();
        classes.refresh(&queues, &rates, None);
        assert!(classes.uses_classes());
        let (len, _) = classes.probable_prefix(1e6);
        assert!(len > 1);
        assert_matches_oracle(&classes, 1e6, len, 3);
        // The alias path: a batch larger than the prefix.
        let table = random_table(50, &mut StdRng::seed_from_u64(4));
        let (len, _) = table.probable_prefix(30.0);
        assert!(len < 3 * LANES + 1);
        assert_matches_oracle(&table, 30.0, 3 * LANES + 1, 5);
    }
}
