//! The sharded round engine: server-partitioned simulation with mergeable
//! per-shard reports.
//!
//! The paper's setting — `m` independent dispatchers coordinating
//! *stochastically* (not via messages) over `n` heterogeneous servers —
//! partitions naturally: split the servers into `k` shards, give each shard
//! its own queues, RNG streams and policy instances, step the shards'
//! round loops independently, and merge the per-shard statistics at the
//! end. Nothing crosses a shard boundary during the run, so shards execute
//! concurrently through [`fan_out`] (or in separate worker processes, see
//! [`crate::fabric`]: a [`ShardReport`] is a plain serializable value,
//! deliberately shaped so that merging is the *only* cross-shard
//! operation).
//!
//! # Semantics
//!
//! A sharded run of an `(n, m)` configuration is the union of `k`
//! statistically independent sub-systems, each simulating the paper's model
//! on the sub-cluster it owns with **its share of the dispatchers**: both
//! the `n` servers and the `m` dispatchers are striped across shards
//! (shard `j` runs `⌈(m − j) / k⌉` dispatchers, so the counts sum to `m`),
//! and each shard's Poisson arrival rates are calibrated to the **same
//! offered load** against the shard's capacity
//! (`λ = ρ · Σ_{s ∈ shard} µ_s / m_j`). Splitting both dimensions keeps
//! every shard approximately a scaled copy of the whole system — the
//! dispatcher-to-server ratio the paper's herding dynamics depend on is
//! preserved exactly when `k` divides both `n` and `m`, and to within the
//! ±1-per-shard rounding of the striped split otherwise — which is what
//! makes the merged statistics match the unsharded oracle (asserted, with
//! tolerances, in `tests/sharded_engine.rs`). The
//! [striped](ShardPlan::striped) partition interleaves the heterogeneous
//! rate vector, so every shard sees approximately the same rate mix.
//!
//! For `k = 1` the semantics are not approximate but **bit-identical** to
//! [`Simulation::run`]: the single shard owns every server in original
//! order, keeps the master seed unchanged
//! ([`shard_master_seed`]), and the
//! merge of one report is the identity. The golden test in
//! `tests/sharded_engine.rs` pins this.
//!
//! # Seed derivation
//!
//! Each shard derives a sub-master seed via the splitmix64 scheme in
//! [`scd_model::streams`], keyed on `(master, shard count, shard index)`;
//! the shard's arrival/service/per-dispatcher policy streams then derive
//! from the sub-master exactly as the unsharded engine derives them from
//! the master. Sub-streams of different shards (or of the same master at
//! different shard counts) can therefore never collide with each other or
//! with the unsharded per-dispatcher streams — audited over the full
//! `(master × k × shard × dispatcher)` grid in `tests/sharded_engine.rs`.

use crate::config::SimConfig;
use crate::engine::{SimError, Simulation};
use crate::report::SimReport;
use crate::runner::fan_out;
use crate::trace::RunTrace;
use scd_model::streams::shard_master_seed;
use scd_model::PolicyFactory;

/// How many of `total` striped items (servers or dispatchers) land in shard
/// `j` of `k`: the size of `{i < total : i mod k == j}`.
fn striped_count(total: usize, k: usize, j: usize) -> usize {
    (total + k - 1 - j) / k
}

/// A partition of the cluster's servers into disjoint, covering shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// Global server indices owned by each shard.
    shards: Vec<Vec<usize>>,
    /// Total number of servers across all shards.
    num_servers: usize,
}

impl ShardPlan {
    /// The striped partition: server `s` belongs to shard `s mod k`.
    ///
    /// Striping interleaves the rate vector, so for the paper's i.i.d. rate
    /// profiles every shard receives approximately the same rate mix — the
    /// property the statistical shard-merge equivalence rests on. (A
    /// contiguous split of a sorted rate vector would instead concentrate
    /// all fast servers in one shard.)
    ///
    /// # Errors
    /// Returns [`SimError::InvalidConfig`] if `num_shards` is zero or
    /// exceeds `num_servers` (an empty shard would simulate an empty
    /// cluster).
    pub fn striped(num_servers: usize, num_shards: usize) -> Result<Self, SimError> {
        if num_shards == 0 {
            return Err(SimError::InvalidConfig(
                "a sharded run needs at least one shard".into(),
            ));
        }
        if num_shards > num_servers {
            return Err(SimError::InvalidConfig(format!(
                "cannot split {num_servers} servers into {num_shards} non-empty shards"
            )));
        }
        let shards = (0..num_shards)
            .map(|j| (j..num_servers).step_by(num_shards).collect())
            .collect();
        Ok(ShardPlan {
            shards,
            num_servers,
        })
    }

    /// Number of shards `k`.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total number of servers across all shards.
    pub fn num_servers(&self) -> usize {
        self.num_servers
    }

    /// The global server indices owned by one shard, in the order the shard
    /// simulates them (shard-local server `i` is global server
    /// `servers(shard)[i]`).
    ///
    /// # Panics
    /// Panics if the shard index is out of range.
    pub fn servers(&self, shard: usize) -> &[usize] {
        &self.shards[shard]
    }
}

/// The mergeable result of one shard's run: the shard coordinates plus the
/// full statistics of the sub-system it simulated.
///
/// This is the unit a future cross-process/cross-host transport would
/// serialize — everything in it merges ([`merge_shard_reports`]) without
/// reference to any other shard's live state.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardReport {
    /// Index of the shard that produced this report.
    pub shard: usize,
    /// Shard count `k` of the run this report belongs to. Reports of runs
    /// split differently are not mergeable (different sub-master seeds,
    /// different striping), so the merge rejects disagreement here.
    pub num_shards: usize,
    /// Number of servers the shard owns (the weight of its per-server
    /// averages in the merge).
    pub num_servers: usize,
    /// Structural digest ([`SimConfig::digest`]) of the **base** (unsharded)
    /// configuration the shard was derived from — the merge's proof that
    /// all reports describe slices of one experiment, and the value the
    /// process fabric checks a worker's report frame against.
    pub config_digest: u64,
    /// The shard's run statistics. Queue statistics are over the shard's
    /// own servers (shard-local indices); response times are in rounds,
    /// directly mergeable across shards because all shards step the same
    /// synchronous round clock.
    pub report: SimReport,
}

/// Merges per-shard reports into one system-wide [`SimReport`].
///
/// Response-time and decision-time histograms histogram-merge; job counters
/// sum; queue summaries fold with [`QueueSummary::fold_disjoint`]
/// (backlog-sum, idle-fraction weighted mean — see its documentation for
/// the `max_total_backlog` upper-bound caveat). Merging a single report is
/// the identity, which is what keeps the `k = 1` sharded path bit-identical
/// to the unsharded engine.
///
/// [`QueueSummary::fold_disjoint`]: crate::report::QueueSummary::fold_disjoint
///
/// # Errors
/// Returns [`SimError::MergeMismatch`] if `reports` is empty or the shards
/// disagree on shard count, configuration digest, policy, round count or
/// warm-up length — all shards of a run share one configuration, so any
/// disagreement means the inputs are slices of *different* experiments
/// (the misdirected-report case the process fabric must never merge).
pub fn merge_shard_reports(reports: &[ShardReport]) -> Result<SimReport, SimError> {
    let (first, rest) = reports
        .split_first()
        .ok_or_else(|| SimError::MergeMismatch("cannot merge zero shard reports".into()))?;
    let mut merged = first.report.clone();
    let mut servers_so_far = first.num_servers;
    for shard in rest {
        let report = &shard.report;
        if shard.num_shards != first.num_shards {
            return Err(SimError::MergeMismatch(format!(
                "shard {} reports a run of {} shards, shard {} one of {}",
                first.shard, first.num_shards, shard.shard, shard.num_shards
            )));
        }
        if shard.config_digest != first.config_digest {
            return Err(SimError::MergeMismatch(format!(
                "shard {} was configured with digest {:#018x}, shard {} with {:#018x}",
                first.shard, first.config_digest, shard.shard, shard.config_digest
            )));
        }
        if merged.policy != report.policy {
            return Err(SimError::MergeMismatch(format!(
                "shards of one run share a policy, got {:?} and {:?}",
                merged.policy, report.policy
            )));
        }
        if (merged.rounds, merged.warmup_rounds) != (report.rounds, report.warmup_rounds) {
            return Err(SimError::MergeMismatch(format!(
                "shards of one run share the round clock, got {:?} and {:?}",
                (merged.rounds, merged.warmup_rounds),
                (report.rounds, report.warmup_rounds)
            )));
        }
        merged.jobs_dispatched = merged
            .jobs_dispatched
            .saturating_add(report.jobs_dispatched);
        merged.jobs_completed = merged.jobs_completed.saturating_add(report.jobs_completed);
        merged.jobs_in_flight = merged.jobs_in_flight.saturating_add(report.jobs_in_flight);
        merged.response_times.merge(&report.response_times);
        merged
            .queues
            .fold_disjoint(&report.queues, servers_so_far, shard.num_servers);
        // Shards observe disjoint servers on a shared round clock, so the
        // occupancy histograms sum elementwise.
        scd_metrics::merge_saturating_counts(&mut merged.queue_occupancy, &report.queue_occupancy);
        match (&mut merged.decision_times_us, &report.decision_times_us) {
            (Some(mine), Some(theirs)) => mine.merge(theirs),
            (None, None) => {}
            (mine @ None, Some(theirs)) => *mine = Some(theirs.clone()),
            (Some(_), None) => {}
        }
        match (&mut merged.degradation, &report.degradation) {
            (Some(mine), Some(theirs)) => mine.merge(theirs),
            (None, None) => {}
            (mine @ None, Some(theirs)) => *mine = Some(*theirs),
            (Some(_), None) => {}
        }
        servers_so_far += shard.num_servers;
    }
    Ok(merged)
}

/// A simulation whose servers are partitioned into `k` independent shards.
///
/// Construction derives one complete [`SimConfig`] per shard (sub-cluster,
/// sub-master seed, same round clock and offered load); running steps every
/// shard's round loop — sequentially or on scoped threads — and
/// merges the [`ShardReport`]s into one [`SimReport`].
///
/// # Example
/// ```
/// use scd_sim::{ArrivalSpec, ShardedSimulation, SimConfig};
/// use scd_core::policy::ScdFactory;
/// use scd_model::ClusterSpec;
///
/// let spec = ClusterSpec::from_rates(vec![4.0, 2.0, 1.0, 1.0]).unwrap();
/// let config = SimConfig::builder(spec)
///     .dispatchers(2)
///     .rounds(200)
///     .seed(7)
///     .arrivals(ArrivalSpec::PoissonOfferedLoad { offered_load: 0.9 })
///     .build()
///     .unwrap();
/// let sharded = ShardedSimulation::new(config, 2).unwrap();
/// let report = sharded.run(&ScdFactory::new()).unwrap();
/// assert!(report.response_times.count() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct ShardedSimulation {
    config: SimConfig,
    plan: ShardPlan,
    shard_configs: Vec<SimConfig>,
}

impl ShardedSimulation {
    /// Validates the configuration and splits it into `num_shards` striped
    /// shards.
    ///
    /// # Errors
    /// Returns [`SimError::InvalidConfig`] when the base configuration is
    /// invalid, the shard count does not fit the cluster or the dispatcher
    /// count (every shard needs at least one server and one dispatcher), or
    /// — for more than one shard — the arrival process is not
    /// load-calibrated
    /// ([`ArrivalSpec::PoissonOfferedLoad`](crate::ArrivalSpec)): only a
    /// load-calibrated process splits across sub-clusters without changing
    /// the system's offered load.
    pub fn new(config: SimConfig, num_shards: usize) -> Result<Self, SimError> {
        // Surface base-configuration errors with the unsharded wording.
        Simulation::new(config.clone())?;
        let plan = ShardPlan::striped(config.num_servers(), num_shards)?;
        if num_shards > config.num_dispatchers {
            return Err(SimError::InvalidConfig(format!(
                "cannot split {} dispatchers across {num_shards} shards \
                 (every shard needs at least one)",
                config.num_dispatchers
            )));
        }
        if num_shards > 1
            && !matches!(
                config.arrivals,
                crate::arrivals::ArrivalSpec::PoissonOfferedLoad { .. }
            )
        {
            return Err(SimError::InvalidConfig(
                "sharded runs (k > 1) require load-calibrated arrivals \
                 (ArrivalSpec::PoissonOfferedLoad), so that splitting the \
                 cluster preserves the offered load"
                    .into(),
            ));
        }
        let shard_configs = (0..num_shards)
            .map(|j| {
                let spec = config
                    .spec
                    .subset(plan.servers(j))
                    .expect("striped shards are non-empty subsets of a valid cluster");
                let num_dispatchers = striped_count(config.num_dispatchers, num_shards, j);
                // An active scenario must replay the *same* global failure
                // schedule regardless of layout, so the shard config pins
                // the scenario seed to the base run's resolved seed and
                // maps every shard-local entity to its global id (composed
                // through any id maps the base scenario already carries).
                // For k = 1 the config is left untouched — the single-shard
                // path stays byte-identical to the base configuration.
                let scenario = if num_shards > 1 && !config.scenario.is_inert() {
                    let mut scenario = config.scenario.clone();
                    scenario.seed = Some(config.scenario.resolved_seed(config.seed));
                    scenario.server_ids = Some(
                        plan.servers(j)
                            .iter()
                            .map(|&s| {
                                u32::try_from(config.scenario.server_global_id(s))
                                    .expect("global server ids fit in u32")
                            })
                            .collect(),
                    );
                    scenario.dispatcher_ids = Some(
                        (j..config.num_dispatchers)
                            .step_by(num_shards)
                            .map(|d| {
                                u32::try_from(config.scenario.dispatcher_global_id(d))
                                    .expect("global dispatcher ids fit in u32")
                            })
                            .collect(),
                    );
                    scenario
                } else {
                    config.scenario.clone()
                };
                // The workload layer makes the same promise as the scenario
                // layer: one *global* schedule regardless of shard layout.
                // An active workload is pinned to the base run's resolved
                // seed and told each local dispatcher's global id, so its
                // counter-mode draws reproduce the unsharded schedule
                // column-for-column.
                let workload = if num_shards > 1 && !config.workload.is_inert() {
                    let mut workload = config.workload.clone();
                    workload.seed = Some(config.workload.resolved_seed(config.seed));
                    workload.dispatcher_ids = Some(
                        (j..config.num_dispatchers)
                            .step_by(num_shards)
                            .map(|d| {
                                u32::try_from(config.workload.dispatcher_global_id(d))
                                    .expect("global dispatcher ids fit in u32")
                            })
                            .collect(),
                    );
                    workload
                } else {
                    config.workload.clone()
                };
                SimConfig {
                    spec,
                    // The dispatchers are striped like the servers (shard j
                    // gets dispatchers {d : d mod k == j}), so the counts
                    // sum to m and each shard keeps the system's
                    // dispatcher-to-server ratio (scaled copy, not a
                    // dispatcher-multiplied one).
                    num_dispatchers,
                    seed: shard_master_seed(config.seed, num_shards, j),
                    scenario,
                    workload,
                    ..config.clone()
                }
            })
            .collect();
        Ok(ShardedSimulation {
            config,
            plan,
            shard_configs,
        })
    }

    /// The base (unsharded) configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The server partition.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Number of shards `k`.
    pub fn num_shards(&self) -> usize {
        self.plan.num_shards()
    }

    /// The derived configuration of one shard (exposed for the equivalence
    /// tests and for future cross-process launchers).
    ///
    /// # Panics
    /// Panics if the shard index is out of range.
    pub fn shard_config(&self, shard: usize) -> &SimConfig {
        &self.shard_configs[shard]
    }

    /// Runs every shard — on the calling thread plus up to `threads - 1`
    /// scoped threads — and returns the per-shard reports in shard order.
    ///
    /// Every shard derives all randomness from its own sub-master seed, so
    /// the reports are independent of `threads` (bit-identical to a
    /// sequential run; the shard merge inherits this).
    ///
    /// # Errors
    /// Propagates the first shard's [`SimError::PolicyViolation`], if any.
    pub fn run_shards(
        &self,
        factory: &dyn PolicyFactory,
        threads: usize,
    ) -> Result<Vec<ShardReport>, SimError> {
        let config_digest = self.config.digest();
        let results = fan_out(self.shard_configs.len(), threads, |shard| {
            let config = self.shard_configs[shard].clone();
            let report = Simulation::new(config)?.run(factory)?;
            Ok(ShardReport {
                shard,
                num_shards: self.num_shards(),
                num_servers: self.plan.servers(shard).len(),
                config_digest,
                report,
            })
        });
        results.into_iter().collect()
    }

    /// Runs all shards sequentially and merges their reports.
    ///
    /// For `k = 1` the result is bit-identical to
    /// [`Simulation::run`] on the same configuration.
    ///
    /// # Errors
    /// Propagates configuration and policy-violation errors from the
    /// per-shard engines.
    pub fn run(&self, factory: &dyn PolicyFactory) -> Result<SimReport, SimError> {
        self.run_parallel(factory, 1)
    }

    /// Like [`Self::run`] but fans the shards out over up to `threads` OS
    /// threads. Bit-identical to [`Self::run`]
    /// for every thread count.
    ///
    /// # Errors
    /// Propagates configuration and policy-violation errors from the
    /// per-shard engines.
    pub fn run_parallel(
        &self,
        factory: &dyn PolicyFactory,
        threads: usize,
    ) -> Result<SimReport, SimError> {
        let reports = self.run_shards(factory, threads)?;
        let mut merged = merge_shard_reports(&reports)?;
        // The merged report describes the *global* system: restore the
        // system-wide offered load (identical across shards anyway for the
        // load-calibrated arrivals required at k > 1).
        merged.offered_load = self.config.offered_load();
        Ok(merged)
    }

    /// Like [`Self::run`], additionally recording one **global** per-job
    /// event trace: each shard records its own local trace and the shard
    /// traces are remapped through the striping maps into global entity
    /// ids, in shard order. The merged report is bit-identical to
    /// [`Self::run`], and — because an active workload's schedule is pinned
    /// globally — the recorded arrival matrix of a sharded run equals the
    /// unsharded recording of the same configuration.
    ///
    /// # Errors
    /// Propagates configuration and policy-violation errors from the
    /// per-shard engines.
    pub fn run_traced(
        &self,
        factory: &dyn PolicyFactory,
    ) -> Result<(SimReport, RunTrace), SimError> {
        let k = self.num_shards();
        let mut trace = RunTrace::new(
            self.config.num_dispatchers,
            self.config.num_servers(),
            self.config.rounds,
        );
        let config_digest = self.config.digest();
        let mut reports = Vec::with_capacity(k);
        for j in 0..k {
            let config = self.shard_configs[j].clone();
            let (report, local) = Simulation::new(config)?.run_traced(factory)?;
            let dispatcher_ids: Vec<u32> = (j..self.config.num_dispatchers)
                .step_by(k)
                .map(|d| d as u32)
                .collect();
            let server_ids: Vec<u32> = self.plan.servers(j).iter().map(|&s| s as u32).collect();
            trace.absorb_remapped(&local, &dispatcher_ids, &server_ids);
            reports.push(ShardReport {
                shard: j,
                num_shards: k,
                num_servers: self.plan.servers(j).len(),
                config_digest,
                report,
            });
        }
        let mut merged = merge_shard_reports(&reports)?;
        merged.offered_load = self.config.offered_load();
        Ok((merged, trace))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::ArrivalSpec;
    use scd_model::ClusterSpec;
    use scd_policies::ArgminFactory;

    fn config(n: usize, seed: u64) -> SimConfig {
        let rates: Vec<f64> = (0..n).map(|s| 1.0 + (s % 5) as f64).collect();
        SimConfig::builder(ClusterSpec::from_rates(rates).unwrap())
            .dispatchers(6)
            .rounds(400)
            .warmup_rounds(50)
            .seed(seed)
            .arrivals(ArrivalSpec::PoissonOfferedLoad { offered_load: 0.85 })
            .build()
            .unwrap()
    }

    #[test]
    fn striped_count_partitions_exactly() {
        for (total, k) in [(10usize, 1usize), (10, 3), (6, 4), (7, 7), (100, 8)] {
            let counts: Vec<usize> = (0..k).map(|j| striped_count(total, k, j)).collect();
            assert_eq!(counts.iter().sum::<usize>(), total, "total={total}, k={k}");
            for (j, &c) in counts.iter().enumerate() {
                assert_eq!(
                    c,
                    (0..total).filter(|d| d % k == j).count(),
                    "shard {j} of {k} over {total}"
                );
            }
        }
    }

    #[test]
    fn striped_plan_partitions_every_server_exactly_once() {
        for (n, k) in [(10usize, 1usize), (10, 3), (7, 7), (100, 8)] {
            let plan = ShardPlan::striped(n, k).unwrap();
            assert_eq!(plan.num_shards(), k);
            assert_eq!(plan.num_servers(), n);
            let mut seen = vec![false; n];
            for j in 0..k {
                for &s in plan.servers(j) {
                    assert!(!seen[s], "server {s} assigned twice (n={n}, k={k})");
                    seen[s] = true;
                    assert_eq!(s % k, j, "striping must place s in shard s mod k");
                }
            }
            assert!(seen.iter().all(|&v| v), "partition must cover all servers");
        }
    }

    #[test]
    fn degenerate_plans_are_rejected() {
        assert!(ShardPlan::striped(4, 0).is_err());
        assert!(ShardPlan::striped(4, 5).is_err());
        assert!(ShardPlan::striped(0, 1).is_err());
    }

    #[test]
    fn shard_configs_preserve_the_offered_load_and_split_the_dispatchers() {
        let sharded = ShardedSimulation::new(config(20, 7), 4).unwrap();
        for j in 0..4 {
            let sub = sharded.shard_config(j);
            assert_eq!(sub.rounds, 400);
            assert!((sub.offered_load() - 0.85).abs() < 1e-12);
            assert_eq!(sub.num_servers(), 5);
        }
        // Both resources repartition exactly: the shard dispatcher counts
        // sum to m (6 → 2+2+1+1) and the sub-clusters to the full capacity.
        let dispatchers: Vec<usize> = (0..4)
            .map(|j| sharded.shard_config(j).num_dispatchers)
            .collect();
        assert_eq!(dispatchers, vec![2, 2, 1, 1]);
        let total: f64 = (0..4)
            .map(|j| sharded.shard_config(j).spec.total_rate())
            .sum();
        assert!((total - sharded.config().spec.total_rate()).abs() < 1e-9);
    }

    #[test]
    fn more_shards_than_dispatchers_is_rejected() {
        // config() has 6 dispatchers; 8 shards would leave two shards with
        // no arrival source.
        let err = ShardedSimulation::new(config(20, 7), 8).unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(_)));
        assert!(err.to_string().contains("dispatchers"), "{err}");
    }

    #[test]
    fn single_shard_config_is_the_base_config() {
        let base = config(12, 99);
        let sharded = ShardedSimulation::new(base.clone(), 1).unwrap();
        assert_eq!(sharded.shard_config(0), &base);
    }

    #[test]
    fn non_calibrated_arrivals_are_rejected_beyond_one_shard() {
        let mut c = config(8, 1);
        c.arrivals = ArrivalSpec::Deterministic { jobs_per_round: 2 };
        assert!(ShardedSimulation::new(c.clone(), 1).is_ok());
        let err = ShardedSimulation::new(c, 2).unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(_)));
        assert!(err.to_string().contains("load-calibrated"));
    }

    #[test]
    fn parallel_shard_execution_is_bit_identical_to_sequential() {
        let sharded = ShardedSimulation::new(config(16, 5), 4).unwrap();
        let factory = ArgminFactory::jsq();
        let sequential = sharded.run(&factory).unwrap();
        for threads in [2usize, 4, 8] {
            let parallel = sharded.run_parallel(&factory, threads).unwrap();
            assert_eq!(sequential, parallel, "threads={threads}");
        }
    }

    #[test]
    fn merged_counters_sum_across_shards() {
        let sharded = ShardedSimulation::new(config(16, 5), 4).unwrap();
        let factory = ArgminFactory::jsq();
        let shards = sharded.run_shards(&factory, 1).unwrap();
        assert_eq!(shards.len(), 4);
        let merged = merge_shard_reports(&shards).unwrap();
        assert_eq!(
            merged.jobs_dispatched,
            shards.iter().map(|s| s.report.jobs_dispatched).sum::<u64>()
        );
        assert_eq!(
            merged.response_times.count(),
            shards
                .iter()
                .map(|s| s.report.response_times.count())
                .sum::<u64>()
        );
        let backlog: f64 = shards
            .iter()
            .map(|s| s.report.queues.mean_total_backlog)
            .sum();
        assert!((merged.queues.mean_total_backlog - backlog).abs() < 1e-9);
    }

    #[test]
    fn merging_nothing_is_an_error() {
        let err = merge_shard_reports(&[]).unwrap_err();
        assert!(matches!(err, SimError::MergeMismatch(_)));
        assert!(err.to_string().contains("zero shard reports"), "{err}");
    }

    #[test]
    fn merge_rejects_reports_of_different_experiments() {
        let shards = ShardedSimulation::new(config(8, 3), 2)
            .unwrap()
            .run_shards(&ArgminFactory::jsq(), 1)
            .unwrap();
        // A shard-count disagreement (a k=2 report next to a "k=3" one).
        let mut wrong_k = shards.clone();
        wrong_k[1].num_shards = 3;
        let err = merge_shard_reports(&wrong_k).unwrap_err();
        assert!(matches!(err, SimError::MergeMismatch(_)));
        assert!(err.to_string().contains("shards"), "{err}");
        // A config-digest disagreement (a report from another experiment).
        let mut wrong_digest = shards.clone();
        wrong_digest[1].config_digest ^= 1;
        let err = merge_shard_reports(&wrong_digest).unwrap_err();
        assert!(matches!(err, SimError::MergeMismatch(_)));
        assert!(err.to_string().contains("digest"), "{err}");
        // A policy disagreement.
        let mut wrong_policy = shards.clone();
        wrong_policy[1].report.policy = "OTHER".into();
        assert!(merge_shard_reports(&wrong_policy).is_err());
        // A round-clock disagreement.
        let mut wrong_clock = shards;
        wrong_clock[1].report.rounds += 1;
        assert!(merge_shard_reports(&wrong_clock).is_err());
    }

    #[test]
    fn merge_is_a_pure_function_of_the_shard_reports() {
        // The contract a future cross-host transport builds on: the merge
        // consumes only the (serializable) ShardReport values, so merging a
        // copy — e.g. one that went over the wire — gives the same result.
        let sharded = ShardedSimulation::new(config(8, 3), 2).unwrap();
        let shards = sharded.run_shards(&ArgminFactory::jsq(), 1).unwrap();
        let copy = shards.clone();
        assert_eq!(
            merge_shard_reports(&copy).unwrap(),
            merge_shard_reports(&shards).unwrap()
        );
    }
}
