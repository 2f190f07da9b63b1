//! Mean-response-time-vs-offered-load experiments (Figures 3a, 4a, 6a, 7a).
//!
//! For every `(n, m)` system and every offered load `ρ`, every policy is run
//! on *identical* arrival and departure processes; the experiment reports the
//! mean response time (the quantity on the y-axis of the paper's
//! sub-figures), plus the 99th percentile and the censored fraction as
//! sanity indicators.

use crate::output::OutputSink;
use crate::sweep::SweepGrid;
use scd_metrics::Table;
use scd_model::{ClusterSpec, RateProfile};
use scd_policies::factory_by_name;
use scd_sim::{ArrivalSpec, ServiceModel, SimConfig, Simulation};
use std::io;

/// Configuration of a mean-response-time sweep.
#[derive(Debug, Clone)]
pub struct ResponseTimeExperiment {
    /// Heterogeneity profile used to draw the cluster.
    pub profile: RateProfile,
    /// Policy names (must exist in the registry).
    pub policies: Vec<String>,
    /// `(n, m)` systems to simulate.
    pub systems: Vec<(usize, usize)>,
    /// Offered loads to sweep.
    pub loads: Vec<f64>,
    /// Rounds per run.
    pub rounds: u64,
    /// Warm-up rounds excluded from statistics.
    pub warmup: u64,
    /// Master seed.
    pub seed: u64,
    /// Statistically independent replications per `(system, load, policy)`
    /// cell; the reported statistics are averaged across them. `0` and `1`
    /// both mean a single run (whose results are identical to the
    /// pre-replication harness).
    pub replications: usize,
}

/// Results for one `(n, m)` system.
#[derive(Debug, Clone)]
pub struct SystemSeries {
    /// Number of servers.
    pub n: usize,
    /// Number of dispatchers.
    pub m: usize,
    /// The offered loads of the sweep (row labels).
    pub loads: Vec<f64>,
    /// The policies of the sweep (column labels).
    pub policies: Vec<String>,
    /// `mean[load][policy]` — mean response time in rounds.
    pub mean: Vec<Vec<f64>>,
    /// `p99[load][policy]` — 99th-percentile response time in rounds.
    pub p99: Vec<Vec<u64>>,
    /// `censored[load][policy]` — fraction of jobs still queued at the end.
    pub censored: Vec<Vec<f64>>,
}

impl SystemSeries {
    /// The mean response time of one policy at one load.
    pub fn mean_at(&self, load_index: usize, policy: &str) -> Option<f64> {
        let p = self.policies.iter().position(|name| name == policy)?;
        self.mean.get(load_index).map(|row| row[p])
    }
}

/// Mixes experiment coordinates into a per-run seed so that all policies of
/// one `(system, load)` cell share arrival/service streams while different
/// cells get independent streams.
pub fn mix_seed(seed: u64, system_index: usize, load_index: usize) -> u64 {
    // SplitMix64 finalizer over the packed coordinates (bit-identical to
    // the historical inline mixer, so recorded results stay reproducible).
    scd_model::streams::splitmix64_mix(
        seed ^ (0x9E37_79B9_7F4A_7C15u64
            .wrapping_mul((system_index as u64).wrapping_add(1))
            .wrapping_add(
                0xBF58_476D_1CE4_E5B9u64.wrapping_mul((load_index as u64).wrapping_add(1)),
            )),
    )
}

/// The engine seed of replication `rep` of one `(system, load)` cell.
/// Replication 0 is `mix_seed(seed, si, li)` — exactly the seed the
/// pre-replication harness used — so single-replication sweeps reproduce the
/// historical results bit for bit; higher replications remix deterministically.
///
/// Public (with [`mix_seed`]) so the shard/stream collision audit in
/// `tests/sharded_engine.rs` can enumerate the *actual* masters the sweep
/// harness feeds into the engine rather than a re-derived approximation.
pub fn replication_seed(seed: u64, system_index: usize, load_index: usize, rep: usize) -> u64 {
    let base = mix_seed(seed, system_index, load_index);
    if rep == 0 {
        base
    } else {
        mix_seed(base, rep, 0x0005_EED5)
    }
}

/// Materializes the cluster for one system (identical across loads and
/// policies for a fixed experiment seed).
pub(crate) fn cluster_for_system(
    profile: &RateProfile,
    n: usize,
    seed: u64,
    system_index: usize,
) -> ClusterSpec {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(mix_seed(seed, system_index, usize::MAX));
    profile
        .materialize(n, &mut rng)
        .expect("rate profiles produce valid clusters")
}

impl ResponseTimeExperiment {
    /// Runs the sweep with up to `threads` parallel workers.
    ///
    /// # Panics
    /// Panics if a policy name is not registered or a simulation fails
    /// (both indicate a bug in the harness rather than user input).
    pub fn run(&self, threads: usize) -> Vec<SystemSeries> {
        let replications = self.replications.max(1);
        let grid = SweepGrid::new(self.systems.len(), self.loads.len(), self.policies.len())
            .with_seeds(replications);

        let clusters: Vec<ClusterSpec> = self
            .systems
            .iter()
            .enumerate()
            .map(|(si, &(n, _))| cluster_for_system(&self.profile, n, self.seed, si))
            .collect();

        // One engine run per grid cell, fanned out end-to-end: every
        // (system, load, policy, replication) tuple is an independent unit
        // of work.
        let outcomes = grid.run(threads, |pt| {
            let (_, m) = self.systems[pt.system];
            let load = self.loads[pt.load];
            let policy_name = &self.policies[pt.policy];
            let config = SimConfig {
                spec: clusters[pt.system].clone(),
                num_dispatchers: m,
                rounds: self.rounds,
                warmup_rounds: self.warmup,
                seed: replication_seed(self.seed, pt.system, pt.load, pt.seed),
                arrivals: ArrivalSpec::PoissonOfferedLoad { offered_load: load },
                services: ServiceModel::Geometric,
                measure_decision_times: false,
                scenario: scd_sim::ScenarioSpec::default(),
                workload: scd_sim::WorkloadSpec::default(),
            };
            let factory = factory_by_name(policy_name)
                .unwrap_or_else(|| panic!("unknown policy {policy_name}"));
            let report = Simulation::new(config)
                .expect("experiment configurations are valid")
                .run(factory.as_ref())
                .expect("registered policies never violate the protocol");
            (
                report.mean_response_time(),
                report.response_time_percentile(0.99),
                report.censored_fraction(),
            )
        });

        let mut results: Vec<SystemSeries> = self
            .systems
            .iter()
            .map(|&(n, m)| SystemSeries {
                n,
                m,
                loads: self.loads.clone(),
                policies: self.policies.clone(),
                mean: vec![vec![0.0; self.policies.len()]; self.loads.len()],
                p99: vec![vec![0; self.policies.len()]; self.loads.len()],
                censored: vec![vec![0.0; self.policies.len()]; self.loads.len()],
            })
            .collect();

        // Scatter, averaging across the replication dimension.
        let scale = 1.0 / replications as f64;
        let mut p99_sums = vec![0u64; grid.len() / replications];
        for (index, (mean, p99, censored)) in outcomes.into_iter().enumerate() {
            let pt = grid.point(index);
            let series = &mut results[pt.system];
            series.mean[pt.load][pt.policy] += mean * scale;
            series.censored[pt.load][pt.policy] += censored * scale;
            p99_sums[index / replications] += p99;
        }
        for (cell, sum) in p99_sums.into_iter().enumerate() {
            let pt = grid.point(cell * replications);
            results[pt.system].p99[pt.load][pt.policy] = (sum as f64 * scale).round() as u64;
        }
        results
    }

    /// Prints (and optionally CSV-dumps) one mean-response-time table per
    /// system, in the layout of the paper's sub-figures.
    ///
    /// # Errors
    /// Propagates output I/O failures.
    pub fn emit(&self, results: &[SystemSeries], label: &str, sink: &OutputSink) -> io::Result<()> {
        for series in results {
            let mut headers = vec!["rho".to_string()];
            headers.extend(series.policies.iter().cloned());
            let mut mean_table = Table::new(headers.clone());
            let mut p99_table = Table::new(headers);
            for (li, &load) in series.loads.iter().enumerate() {
                mean_table.add_numeric_row(&format!("{load:.2}"), &series.mean[li], 3);
                let p99_row: Vec<f64> = series.p99[li].iter().map(|&v| v as f64).collect();
                p99_table.add_numeric_row(&format!("{load:.2}"), &p99_row, 0);
            }
            let system = format!("n={}, m={}", series.n, series.m);
            sink.emit_table(
                &format!("{label}: mean response time [{system}]"),
                &format!("{label}_mean_n{}_m{}", series.n, series.m),
                &mean_table,
            )?;
            sink.emit_table(
                &format!("{label}: p99 response time [{system}]"),
                &format!("{label}_p99_n{}_m{}", series.n, series.m),
                &p99_table,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_experiment() -> ResponseTimeExperiment {
        ResponseTimeExperiment {
            profile: RateProfile::paper_moderate(),
            policies: vec!["SCD".into(), "JSQ".into(), "WR".into()],
            systems: vec![(12, 3)],
            loads: vec![0.7, 0.95],
            rounds: 400,
            warmup: 50,
            seed: 5,
            replications: 1,
        }
    }

    #[test]
    fn runs_and_fills_every_cell() {
        let experiment = tiny_experiment();
        let results = experiment.run(2);
        assert_eq!(results.len(), 1);
        let series = &results[0];
        assert_eq!(series.mean.len(), 2);
        assert_eq!(series.mean[0].len(), 3);
        for row in &series.mean {
            for &value in row {
                assert!(
                    value > 0.0,
                    "every cell must hold a positive mean, got {value}"
                );
            }
        }
        assert!(series.mean_at(0, "SCD").unwrap() > 0.0);
        assert!(series.mean_at(0, "nope").is_none());
    }

    #[test]
    fn results_are_deterministic_for_a_seed() {
        let experiment = tiny_experiment();
        let a = experiment.run(1);
        let b = experiment.run(4);
        assert_eq!(a[0].mean, b[0].mean, "thread count must not change results");
        assert_eq!(a[0].p99, b[0].p99);
    }

    #[test]
    fn replicated_sweeps_are_deterministic_and_average_real_runs() {
        let mut experiment = tiny_experiment();
        experiment.replications = 3;
        let a = experiment.run(1);
        let b = experiment.run(8);
        assert_eq!(
            a[0].mean, b[0].mean,
            "replicated grids must be bit-identical across thread counts"
        );
        assert_eq!(a[0].p99, b[0].p99);
        // The averaged mean differs from the single-replication value (the
        // replications genuinely redraw the stochastic processes)...
        let single = tiny_experiment().run(1);
        assert_ne!(a[0].mean, single[0].mean);
        // ...but stays in a sane band around it.
        for (avg_row, single_row) in a[0].mean.iter().zip(&single[0].mean) {
            for (avg, one) in avg_row.iter().zip(single_row) {
                assert!(avg > &0.0);
                assert!((avg - one).abs() / one < 1.0, "avg {avg} vs single {one}");
            }
        }
    }

    #[test]
    fn replication_zero_reproduces_the_unreplicated_seed() {
        // Replication 0 must use exactly the historical per-cell seed so old
        // results stay reproducible.
        assert_eq!(replication_seed(42, 3, 5, 0), mix_seed(42, 3, 5));
        assert_ne!(replication_seed(42, 3, 5, 1), mix_seed(42, 3, 5));
        assert_ne!(replication_seed(42, 3, 5, 1), replication_seed(42, 3, 5, 2));
    }

    #[test]
    fn scd_does_not_lose_to_weighted_random_at_high_load() {
        let experiment = tiny_experiment();
        let results = experiment.run(2);
        let series = &results[0];
        // At the higher load (index 1) SCD must be no worse than the
        // load-oblivious WR baseline.
        let scd = series.mean_at(1, "SCD").unwrap();
        let wr = series.mean_at(1, "WR").unwrap();
        assert!(scd <= wr, "SCD mean {scd} vs WR mean {wr}");
    }

    #[test]
    fn emit_writes_tables() {
        let experiment = tiny_experiment();
        let results = experiment.run(2);
        let sink = OutputSink::stdout_only();
        experiment.emit(&results, "test", &sink).unwrap();
    }
}
