//! Ablation experiments called out in DESIGN.md.
//!
//! * **Arrival-estimator ablation** — the paper's estimator `a_est = m·a(d)`
//!   versus using only the dispatcher's own arrivals (SED-like limit) and a
//!   large constant (weighted-random-like limit). Section 5.2 of the paper
//!   argues the paper's rule lands between the two extremes; this experiment
//!   quantifies that on the simulator.
//! * **Solver-equivalence spot check** — along a simulated SCD run, every
//!   decision's distribution from the dispatch kernel is compared with
//!   Algorithm 1's on the same view; the two must agree per server.

use crate::output::OutputSink;
use crate::response::{cluster_for_system, mix_seed};
use crate::sweep::SweepGrid;
use scd_core::estimator::ArrivalEstimator;
use scd_core::policy::ScdFactory;
use scd_core::policy::ScdPolicy;
use scd_core::solver::SolverKind;
use scd_metrics::Table;
use scd_model::{
    BoxedPolicy, ClusterSpec, DispatchContext, DispatchPolicy, DispatcherId, RateProfile, ServerId,
};
use scd_sim::{ArrivalSpec, ServiceModel, SimConfig, Simulation};
use std::io;
use std::sync::{Arc, Mutex};

/// Configuration of the estimator ablation.
#[derive(Debug, Clone)]
pub struct EstimatorAblation {
    /// Heterogeneity profile used to draw the cluster.
    pub profile: RateProfile,
    /// Number of servers.
    pub n: usize,
    /// Number of dispatchers.
    pub m: usize,
    /// Offered loads to sweep.
    pub loads: Vec<f64>,
    /// Rounds per run.
    pub rounds: u64,
    /// Warm-up rounds.
    pub warmup: u64,
    /// Master seed.
    pub seed: u64,
}

/// One row of ablation output.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// The offered load.
    pub load: f64,
    /// `(variant label, mean response time, p99 response time)` triples.
    pub outcomes: Vec<(String, f64, u64)>,
}

impl EstimatorAblation {
    /// The SCD variants compared by the ablation.
    fn variants(&self) -> Vec<(String, ScdFactory)> {
        let capacity_like = (self.n as f64) * 10.0;
        vec![
            (
                "SCD[m*a(d)]".to_string(),
                ScdFactory::with_options(ArrivalEstimator::ScaledByDispatchers, SolverKind::Fast)
                    .with_name("SCD[m*a(d)]"),
            ),
            (
                "SCD[a(d)]".to_string(),
                ScdFactory::with_options(ArrivalEstimator::OwnOnly, SolverKind::Fast)
                    .with_name("SCD[a(d)]"),
            ),
            (
                "SCD[const]".to_string(),
                ScdFactory::with_options(
                    ArrivalEstimator::Constant(capacity_like),
                    SolverKind::Fast,
                )
                .with_name("SCD[const]"),
            ),
        ]
    }

    /// Runs the ablation.
    pub fn run(&self, threads: usize) -> Vec<AblationRow> {
        let cluster = cluster_for_system(&self.profile, self.n, self.seed, 0);
        let variants = self.variants();

        // (1 × loads × variants) grid: the "policies" dimension holds the
        // estimator variants here.
        let grid = SweepGrid::new(1, self.loads.len(), variants.len());
        let outcomes = grid.run(threads, |pt| {
            let config = SimConfig {
                spec: cluster.clone(),
                num_dispatchers: self.m,
                rounds: self.rounds,
                warmup_rounds: self.warmup,
                seed: mix_seed(self.seed, 7, pt.load),
                arrivals: ArrivalSpec::PoissonOfferedLoad {
                    offered_load: self.loads[pt.load],
                },
                services: ServiceModel::Geometric,
                measure_decision_times: false,
                scenario: scd_sim::ScenarioSpec::default(),
                workload: scd_sim::WorkloadSpec::default(),
            };
            let report = Simulation::new(config)
                .expect("experiment configurations are valid")
                .run(&variants[pt.policy].1)
                .expect("SCD never violates the protocol");
            (
                report.mean_response_time(),
                report.response_time_percentile(0.99),
            )
        });

        let mut rows: Vec<AblationRow> = self
            .loads
            .iter()
            .map(|&load| AblationRow {
                load,
                outcomes: Vec::new(),
            })
            .collect();
        for (index, (mean, p99)) in outcomes.into_iter().enumerate() {
            let pt = grid.point(index);
            rows[pt.load]
                .outcomes
                .push((variants[pt.policy].0.clone(), mean, p99));
        }
        rows
    }

    /// Prints the ablation table.
    ///
    /// # Errors
    /// Propagates output I/O failures.
    pub fn emit(&self, rows: &[AblationRow], sink: &OutputSink) -> io::Result<()> {
        let mut headers = vec!["rho".to_string()];
        if let Some(first) = rows.first() {
            for (label, _, _) in &first.outcomes {
                headers.push(format!("{label} mean"));
                headers.push(format!("{label} p99"));
            }
        }
        let mut table = Table::new(headers);
        for row in rows {
            let mut cells = vec![format!("{:.2}", row.load)];
            for (_, mean, p99) in &row.outcomes {
                cells.push(format!("{mean:.3}"));
                cells.push(p99.to_string());
            }
            table.add_row(cells);
        }
        sink.emit_table(
            &format!(
                "Estimator ablation [n={}, m={}, profile={:?}]",
                self.n, self.m, self.profile
            ),
            "ablation_estimator",
            &table,
        )
    }
}

/// What [`solver_equivalence_check`] measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverEquivalence {
    /// Dispatch decisions whose distributions were compared.
    pub decisions: u64,
    /// The largest per-server `|p_kernel − p_Alg1|` over those decisions.
    pub max_gap: f64,
}

/// SCD that, before every dispatch, also solves the decision with
/// Algorithm 1 and records the largest per-server gap between the two
/// distributions.
struct ComparingScd {
    kernel: ScdPolicy,
    quadratic: ScdPolicy,
    result: Arc<Mutex<SolverEquivalence>>,
}

impl DispatchPolicy for ComparingScd {
    fn policy_name(&self) -> &str {
        self.kernel.policy_name()
    }

    fn round_cache_demand(&self) -> scd_model::CacheDemand {
        self.kernel.round_cache_demand()
    }

    fn dispatch_into(
        &mut self,
        ctx: &DispatchContext<'_>,
        batch: usize,
        out: &mut Vec<ServerId>,
        rng: &mut dyn rand::RngCore,
    ) {
        if batch > 0 {
            let kernel = self.kernel.distribution(ctx, batch);
            let quadratic = self.quadratic.distribution(ctx, batch);
            let gap = kernel
                .iter()
                .zip(&quadratic)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            let mut result = self.result.lock().expect("no panics while held");
            result.decisions += 1;
            result.max_gap = result.max_gap.max(gap);
        }
        self.kernel.dispatch_into(ctx, batch, out, rng);
    }
}

/// Verifies that Algorithm 1 agrees with SCD's dispatch kernel (the
/// Algorithm 4 problem) on every decision of a simulated SCD run: both
/// distributions are computed on each dispatcher's view and compared per
/// server.
pub fn solver_equivalence_check(
    profile: &RateProfile,
    n: usize,
    m: usize,
    offered_load: f64,
    rounds: u64,
    seed: u64,
) -> SolverEquivalence {
    let cluster = cluster_for_system(profile, n, seed, 3);
    let config = SimConfig {
        spec: cluster,
        num_dispatchers: m,
        rounds,
        warmup_rounds: rounds / 10,
        seed,
        arrivals: ArrivalSpec::PoissonOfferedLoad { offered_load },
        services: ServiceModel::Geometric,
        measure_decision_times: false,
        scenario: scd_sim::ScenarioSpec::default(),
        workload: scd_sim::WorkloadSpec::default(),
    };
    let result = Arc::new(Mutex::new(SolverEquivalence {
        decisions: 0,
        max_gap: 0.0,
    }));
    let shared = Arc::clone(&result);
    let factory = move |_: DispatcherId, _: &ClusterSpec| -> BoxedPolicy {
        Box::new(ComparingScd {
            kernel: ScdPolicy::with_options(
                ArrivalEstimator::ScaledByDispatchers,
                SolverKind::Fast,
            ),
            quadratic: ScdPolicy::with_options(
                ArrivalEstimator::ScaledByDispatchers,
                SolverKind::Quadratic,
            ),
            result: Arc::clone(&shared),
        })
    };
    Simulation::new(config)
        .expect("valid configuration")
        .run(&factory)
        .expect("SCD runs cleanly");
    let outcome = *result.lock().expect("no panics while held");
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_runs_and_reports_all_variants() {
        let ablation = EstimatorAblation {
            profile: RateProfile::paper_moderate(),
            n: 12,
            m: 4,
            loads: vec![0.9],
            rounds: 400,
            warmup: 50,
            seed: 9,
        };
        let rows = ablation.run(2);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].outcomes.len(), 3);
        for (label, mean, p99) in &rows[0].outcomes {
            assert!(mean > &0.0, "{label} produced a zero mean");
            assert!(*p99 >= 1);
        }
        ablation.emit(&rows, &OutputSink::stdout_only()).unwrap();
    }

    #[test]
    fn solver_equivalence_holds_in_simulation() {
        let check = solver_equivalence_check(&RateProfile::paper_moderate(), 10, 3, 0.9, 500, 77);
        assert!(check.decisions > 1_000, "{check:?}");
        assert!(check.max_gap < 1e-9, "solvers diverged: {check:?}");
    }
}
