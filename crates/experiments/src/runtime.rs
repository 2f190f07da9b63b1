//! Per-decision computation-time experiments (Figures 5 and 8).
//!
//! The paper measures, for every dispatcher and every round of a live
//! high-load simulation, how long it takes to compute the round's dispatching
//! decision, and plots the distribution (CDF) of those times for SCD (via
//! Algorithm 4 and via Algorithm 1), JSQ and SED at several cluster sizes.
//! We reproduce the same measurement with `std::time::Instant` around each
//! `dispatch_batch` call; absolute numbers depend on the host, but the
//! ordering and scaling behaviour are the claims under test.

use crate::output::OutputSink;
use crate::response::{cluster_for_system, mix_seed};
use crate::sweep::SweepGrid;
use scd_metrics::{DecisionTimeHistogram, Table};
use scd_model::RateProfile;
use scd_policies::factory_by_name;
use scd_sim::{ArrivalSpec, ServiceModel, SimConfig, Simulation};
use std::io;

/// Configuration of a decision-time experiment.
#[derive(Debug, Clone)]
pub struct RuntimeExperiment {
    /// Heterogeneity profile used to draw the clusters.
    pub profile: RateProfile,
    /// Cluster sizes to evaluate (the paper uses 100, 200, 300, 400).
    pub cluster_sizes: Vec<usize>,
    /// Number of dispatchers (the paper uses 10).
    pub dispatchers: usize,
    /// Offered load (the paper uses 0.99).
    pub offered_load: f64,
    /// Policies to time (the paper uses SCD, SCD(alg1), JSQ, SED).
    pub policies: Vec<String>,
    /// Rounds per run (every dispatcher-round with arrivals contributes one
    /// sample).
    pub rounds: u64,
    /// Master seed.
    pub seed: u64,
}

/// Decision-time distributions for every policy at one cluster size.
#[derive(Debug, Clone)]
pub struct RuntimeResult {
    /// Number of servers.
    pub n: usize,
    /// `(policy name, decision-time histogram in microseconds)` pairs.
    pub samples: Vec<(String, DecisionTimeHistogram)>,
}

impl RuntimeResult {
    /// The samples of one policy.
    pub fn samples_for(&self, policy: &str) -> Option<&DecisionTimeHistogram> {
        self.samples
            .iter()
            .find(|(name, _)| name == policy)
            .map(|(_, s)| s)
    }
}

impl RuntimeExperiment {
    /// Runs the experiment with up to `threads` parallel workers.
    ///
    /// Note: wall-clock timing is sensitive to co-scheduling; for
    /// publication-quality numbers run with `--threads 1`.
    ///
    /// # Panics
    /// Panics on unregistered policy names (a harness bug).
    pub fn run(&self, threads: usize) -> Vec<RuntimeResult> {
        // (cluster sizes × 1 × policies) grid: the "systems" dimension holds
        // the cluster sizes here.
        let grid = SweepGrid::new(self.cluster_sizes.len(), 1, self.policies.len());
        let outcomes = grid.run(threads, |pt| {
            let n = self.cluster_sizes[pt.system];
            let cluster = cluster_for_system(&self.profile, n, self.seed, pt.system);
            let config = SimConfig {
                spec: cluster,
                num_dispatchers: self.dispatchers,
                rounds: self.rounds,
                warmup_rounds: (self.rounds / 10).min(1_000),
                seed: mix_seed(self.seed, pt.system, 0),
                arrivals: ArrivalSpec::PoissonOfferedLoad {
                    offered_load: self.offered_load,
                },
                services: ServiceModel::Geometric,
                measure_decision_times: true,
                scenario: scd_sim::ScenarioSpec::default(),
                workload: scd_sim::WorkloadSpec::default(),
            };
            let factory = factory_by_name(&self.policies[pt.policy])
                .unwrap_or_else(|| panic!("unknown policy {}", self.policies[pt.policy]));
            Simulation::new(config)
                .expect("experiment configurations are valid")
                .run(factory.as_ref())
                .expect("registered policies never violate the protocol")
                .decision_times_us
                .expect("decision timing was requested")
        });

        let mut results: Vec<RuntimeResult> = self
            .cluster_sizes
            .iter()
            .map(|&n| RuntimeResult {
                n,
                samples: Vec::new(),
            })
            .collect();
        for (index, samples) in outcomes.into_iter().enumerate() {
            let pt = grid.point(index);
            results[pt.system]
                .samples
                .push((self.policies[pt.policy].clone(), samples));
        }
        results
    }

    /// Prints per-cluster-size percentile tables and, when CSV output is
    /// enabled, the decision-time CDF series.
    ///
    /// # Errors
    /// Propagates output I/O failures.
    pub fn emit(
        &self,
        results: &mut [RuntimeResult],
        label: &str,
        sink: &OutputSink,
    ) -> io::Result<()> {
        for result in results.iter_mut() {
            let mut table = Table::with_headers(&[
                "policy", "samples", "mean us", "p50 us", "p90 us", "p99 us", "max us",
            ]);
            for (policy, samples) in result.samples.iter() {
                table.add_row(vec![
                    policy.clone(),
                    samples.len().to_string(),
                    format!("{:.2}", samples.mean()),
                    format!("{:.2}", samples.percentile(0.50)),
                    format!("{:.2}", samples.percentile(0.90)),
                    format!("{:.2}", samples.percentile(0.99)),
                    format!("{:.2}", samples.max()),
                ]);
            }
            sink.emit_table(
                &format!(
                    "{label}: per-decision computation time [n={}, m={}, rho={:.2}]",
                    result.n, self.dispatchers, self.offered_load
                ),
                &format!("{label}_runtime_n{}", result.n),
                &table,
            )?;

            if sink.writes_csv() {
                let mut cdf_table = Table::with_headers(&["policy", "time_us", "cdf"]);
                for (policy, samples) in result.samples.iter() {
                    for (value, q) in samples.cdf(100) {
                        cdf_table.add_row(vec![
                            policy.clone(),
                            format!("{value:.3}"),
                            format!("{q:.4}"),
                        ]);
                    }
                }
                sink.emit_table(
                    &format!("{label}: decision-time CDF [n={}]", result.n),
                    &format!("{label}_runtime_cdf_n{}", result.n),
                    &cdf_table,
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_experiment() -> RuntimeExperiment {
        RuntimeExperiment {
            profile: RateProfile::paper_moderate(),
            cluster_sizes: vec![16, 32],
            dispatchers: 3,
            offered_load: 0.95,
            policies: vec!["SCD".into(), "SCD(alg1)".into(), "JSQ".into()],
            rounds: 200,
            seed: 1,
        }
    }

    #[test]
    fn collects_samples_for_every_policy_and_size() {
        let experiment = tiny_experiment();
        let results = experiment.run(2);
        assert_eq!(results.len(), 2);
        for result in &results {
            assert_eq!(result.samples.len(), 3);
            for (policy, samples) in &result.samples {
                assert!(!samples.is_empty(), "{policy} produced no samples");
            }
        }
        assert!(results[0].samples_for("SCD").is_some());
        assert!(results[0].samples_for("none").is_none());
    }

    #[test]
    fn quadratic_solver_is_slower_on_larger_clusters() {
        // The asymptotic claim behind Figure 5: Algorithm 1 (O(n²)) costs more
        // per decision than Algorithm 4 (O(n log n)) once n is non-trivial.
        let mut experiment = tiny_experiment();
        experiment.cluster_sizes = vec![128];
        experiment.rounds = 150;
        let mut results = experiment.run(1);
        let result = &mut results[0];
        let fast_mean = result
            .samples
            .iter()
            .find(|(p, _)| p == "SCD")
            .map(|(_, s)| s.mean())
            .unwrap();
        let quad_mean = result
            .samples
            .iter()
            .find(|(p, _)| p == "SCD(alg1)")
            .map(|(_, s)| s.mean())
            .unwrap();
        assert!(
            quad_mean > fast_mean,
            "Algorithm 1 mean {quad_mean}µs should exceed Algorithm 4 mean {fast_mean}µs"
        );
    }

    #[test]
    fn emit_prints_tables() {
        let experiment = tiny_experiment();
        let mut results = experiment.run(2);
        experiment
            .emit(&mut results, "test", &OutputSink::stdout_only())
            .unwrap();
    }
}
