//! Response-time tail experiments (Figures 3b, 4b, 6b, 7b).
//!
//! For a fixed `(n, m)` system and a few offered loads, the paper plots the
//! complementary cumulative distribution function (CCDF) of the response
//! time down to 1e-8. This module reproduces the underlying series: it
//! collects the exact response-time histogram per policy and reports both a
//! percentile summary table and (optionally) the full CCDF as CSV.

use crate::output::OutputSink;
use crate::response::{cluster_for_system, replication_seed};
use crate::sweep::SweepGrid;
use scd_metrics::{ResponseTimeHistogram, Table};
use scd_model::RateProfile;
use scd_policies::factory_by_name;
use scd_sim::{ArrivalSpec, ServiceModel, SimConfig, Simulation};
use std::io;

/// Configuration of a response-time-tail experiment.
#[derive(Debug, Clone)]
pub struct TailExperiment {
    /// Heterogeneity profile used to draw the cluster.
    pub profile: RateProfile,
    /// Policy names (must exist in the registry).
    pub policies: Vec<String>,
    /// The `(n, m)` system (the paper uses n=100, m=10).
    pub system: (usize, usize),
    /// Offered loads (the paper uses 0.70, 0.90, 0.99).
    pub loads: Vec<f64>,
    /// Rounds per run.
    pub rounds: u64,
    /// Warm-up rounds excluded from statistics.
    pub warmup: u64,
    /// Master seed.
    pub seed: u64,
    /// Statistically independent replications per `(load, policy)` cell;
    /// their histograms are **merged**, which deepens the resolvable CCDF
    /// tail (the paper plots down to 1e-8). `0` and `1` both mean a single
    /// run, identical to the pre-replication harness.
    pub replications: usize,
}

/// The tail distributions of every policy at one offered load.
#[derive(Debug, Clone)]
pub struct TailResult {
    /// The offered load.
    pub load: f64,
    /// `(policy name, response-time histogram)` pairs.
    pub histograms: Vec<(String, ResponseTimeHistogram)>,
}

impl TailResult {
    /// The histogram of one policy.
    pub fn histogram(&self, policy: &str) -> Option<&ResponseTimeHistogram> {
        self.histograms
            .iter()
            .find(|(name, _)| name == policy)
            .map(|(_, h)| h)
    }
}

impl TailExperiment {
    /// Runs the experiment with up to `threads` parallel workers.
    ///
    /// # Panics
    /// Panics on unregistered policy names (a harness bug).
    pub fn run(&self, threads: usize) -> Vec<TailResult> {
        let (n, m) = self.system;
        let cluster = cluster_for_system(&self.profile, n, self.seed, 0);

        // (1 × loads × policies × replications) grid on the shared fan-out.
        let grid = SweepGrid::new(1, self.loads.len(), self.policies.len())
            .with_seeds(self.replications.max(1));
        let histograms = grid.run(threads, |pt| {
            let config = SimConfig {
                spec: cluster.clone(),
                num_dispatchers: m,
                rounds: self.rounds,
                warmup_rounds: self.warmup,
                seed: replication_seed(self.seed, 0, pt.load, pt.seed),
                arrivals: ArrivalSpec::PoissonOfferedLoad {
                    offered_load: self.loads[pt.load],
                },
                services: ServiceModel::Geometric,
                measure_decision_times: false,
                scenario: scd_sim::ScenarioSpec::default(),
                workload: scd_sim::WorkloadSpec::default(),
            };
            let factory = factory_by_name(&self.policies[pt.policy])
                .unwrap_or_else(|| panic!("unknown policy {}", self.policies[pt.policy]));
            Simulation::new(config)
                .expect("experiment configurations are valid")
                .run(factory.as_ref())
                .expect("registered policies never violate the protocol")
                .response_times
        });

        let mut results: Vec<TailResult> = self
            .loads
            .iter()
            .map(|&load| TailResult {
                load,
                histograms: Vec::new(),
            })
            .collect();
        // Seeds are the innermost grid dimension, so replication 0 of a
        // (load, policy) cell arrives first and later replications merge
        // into the entry it pushed.
        for (index, histogram) in histograms.into_iter().enumerate() {
            let pt = grid.point(index);
            let cell = &mut results[pt.load].histograms;
            if pt.seed == 0 {
                cell.push((self.policies[pt.policy].clone(), histogram));
            } else {
                cell.last_mut()
                    .expect("replication 0 pushed this cell first")
                    .1
                    .merge(&histogram);
            }
        }
        results
    }

    /// Prints a percentile summary per load and, when CSV output is enabled,
    /// the full CCDF series per load.
    ///
    /// # Errors
    /// Propagates output I/O failures.
    pub fn emit(&self, results: &[TailResult], label: &str, sink: &OutputSink) -> io::Result<()> {
        let (n, m) = self.system;
        for result in results {
            let mut table = Table::with_headers(&[
                "policy", "mean", "p50", "p90", "p99", "p99.9", "p99.99", "max",
            ]);
            for (policy, histogram) in &result.histograms {
                table.add_row(vec![
                    policy.clone(),
                    format!("{:.3}", histogram.mean()),
                    histogram.percentile(0.50).to_string(),
                    histogram.percentile(0.90).to_string(),
                    histogram.percentile(0.99).to_string(),
                    histogram.percentile(0.999).to_string(),
                    histogram.percentile(0.9999).to_string(),
                    histogram.max().to_string(),
                ]);
            }
            sink.emit_table(
                &format!(
                    "{label}: response-time tail [n={n}, m={m}, rho={:.2}]",
                    result.load
                ),
                &format!(
                    "{label}_tail_rho{:03}",
                    (result.load * 100.0).round() as u32
                ),
                &table,
            )?;

            // Full CCDF series (one row per (policy, response time) pair).
            if sink.writes_csv() {
                let mut ccdf_table = Table::with_headers(&["policy", "response_time", "ccdf"]);
                for (policy, histogram) in &result.histograms {
                    for (rt, tail) in histogram.ccdf() {
                        ccdf_table.add_row(vec![
                            policy.clone(),
                            rt.to_string(),
                            format!("{tail:.8}"),
                        ]);
                    }
                }
                sink.emit_table(
                    &format!("{label}: CCDF series [rho={:.2}]", result.load),
                    &format!(
                        "{label}_ccdf_rho{:03}",
                        (result.load * 100.0).round() as u32
                    ),
                    &ccdf_table,
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_experiment() -> TailExperiment {
        TailExperiment {
            profile: RateProfile::paper_moderate(),
            policies: vec!["SCD".into(), "SED".into()],
            system: (10, 3),
            loads: vec![0.9],
            rounds: 400,
            warmup: 50,
            seed: 3,
            replications: 1,
        }
    }

    #[test]
    fn replications_merge_histograms_and_stay_deterministic() {
        let mut experiment = tiny_experiment();
        experiment.replications = 3;
        let a = experiment.run(1);
        let b = experiment.run(8);
        assert_eq!(
            a[0].histogram("SCD").unwrap(),
            b[0].histogram("SCD").unwrap(),
            "replicated tails must be bit-identical across thread counts"
        );
        // Three replications → roughly three times the single-run mass.
        let single = tiny_experiment().run(1);
        let merged_count = a[0].histogram("SCD").unwrap().count();
        let single_count = single[0].histogram("SCD").unwrap().count();
        assert!(
            merged_count > 2 * single_count,
            "merged {merged_count} vs single {single_count}"
        );
    }

    #[test]
    fn collects_one_histogram_per_policy_and_load() {
        let experiment = tiny_experiment();
        let results = experiment.run(2);
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].histograms.len(), 2);
        assert!(results[0].histogram("SCD").unwrap().count() > 0);
        assert!(results[0].histogram("SED").unwrap().count() > 0);
        assert!(results[0].histogram("none").is_none());
    }

    #[test]
    fn identical_arrival_streams_across_policies() {
        // Both policies must have seen the same number of completed-or-queued
        // jobs; completion counts can differ, but the histograms cannot be
        // empty and their counts must be within the dispatched total.
        let experiment = tiny_experiment();
        let results = experiment.run(1);
        let scd = results[0].histogram("SCD").unwrap().count();
        let sed = results[0].histogram("SED").unwrap().count();
        // The two counts differ only by censored (still-queued) jobs, which is
        // a small fraction of the total at this load.
        let diff = scd.abs_diff(sed) as f64 / scd.max(sed) as f64;
        assert!(diff < 0.2, "counts diverge too much: {scd} vs {sed}");
    }

    #[test]
    fn emit_prints_summaries() {
        let experiment = tiny_experiment();
        let results = experiment.run(2);
        experiment
            .emit(&results, "test", &OutputSink::stdout_only())
            .unwrap();
    }
}
