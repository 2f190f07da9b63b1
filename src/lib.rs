//! # scd — Stochastically Coordinated Dispatching
//!
//! A Rust reproduction of *"Stochastic Coordination in Heterogeneous Load
//! Balancing Systems"* (Goren, Vargaftik, Moses — PODC 2021,
//! arXiv:2105.09389).
//!
//! The workspace implements the paper's dispatching policy (**SCD**), every
//! baseline policy it is evaluated against, and the round-based
//! multi-dispatcher / multi-server simulator the evaluation runs on. This
//! umbrella crate re-exports the pieces a typical user needs; the underlying
//! crates (`scd-model`, `scd-core`, `scd-policies`, `scd-sim`, `scd-metrics`)
//! can also be used directly.
//!
//! ## Quick start
//!
//! ```
//! use scd::prelude::*;
//!
//! // A small heterogeneous cluster: one accelerator and four CPU servers.
//! let spec = ClusterSpec::from_rates(vec![20.0, 2.0, 2.0, 2.0, 2.0])?;
//!
//! // Simulate 2 dispatchers at 90% offered load for 2 000 rounds.
//! let config = SimConfig::builder(spec)
//!     .dispatchers(2)
//!     .rounds(2_000)
//!     .warmup_rounds(200)
//!     .seed(7)
//!     .arrivals(ArrivalSpec::PoissonOfferedLoad { offered_load: 0.9 })
//!     .build()?;
//!
//! // Compare SCD with SED on identical arrival/departure processes.
//! let scd = ScdFactory::new();
//! let sed = ArgminFactory::sed();
//! let result = run_comparison(&config, &[&scd, &sed])?;
//! println!("{}", result.to_table());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |---|---|
//! | [`model`] | identifiers, cluster specs, snapshots, the [`DispatchPolicy`](scd_model::DispatchPolicy) trait, weighted samplers, the shared [`RoundCache`](scd_model::RoundCache) |
//! | [`core`] | IWL (Algorithm 3), the probability solvers (Algorithms 1 & 4), arrival estimation, the SCD policy, the tournament-tree queue index |
//! | [`policies`] | JSQ, SED, JSQ(d), hJSQ(d), JIQ, hJIQ, LSQ, hLSQ, WR, TWF, LED and friends |
//! | [`sim`] | the round engine (one method per round phase), scenarios, arrival/service processes, reports |
//! | [`metrics`] | response-time histograms, decision-time histograms, percentiles, CCDF, tables |
//!
//! A prose tour of how the crates fit together — the round lifecycle, the
//! scratch/cache ownership rules and where the indexed queue views sit — is
//! in `ARCHITECTURE.md` at the repository root; `PAPER_MAP.md` maps paper
//! sections and figures to modules and experiment binaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use scd_core as core;
pub use scd_metrics as metrics;
pub use scd_model as model;
pub use scd_policies as policies;
pub use scd_sim as sim;

/// The most commonly used items, re-exported for convenient glob import.
pub mod prelude {
    pub use scd_core::estimator::ArrivalEstimator;
    pub use scd_core::iwl::{compute_iwl, ideal_assignment};
    pub use scd_core::policy::{ScdFactory, ScdPolicy};
    pub use scd_core::solver::{compute_probabilities, solve, ScdSolution, SolverKind};
    pub use scd_metrics::{ResponseTimeHistogram, Table};
    pub use scd_model::{
        ClusterSpec, DispatchContext, DispatchPolicy, DispatcherId, PolicyFactory, RateProfile,
        ServerId,
    };
    pub use scd_policies::{
        factory_by_name, standard_policy_names, ArgminFactory, JiqFactory, PowerOfDFactory,
        TwfFactory, WeightedRandomFactory,
    };
    pub use scd_sim::{
        chrome_trace_json, merge_shard_reports, run_comparison, run_comparison_parallel,
        run_replications, write_chrome_trace, ArrivalSpec, ArrivalTrace, ComparisonResult,
        DegradationMetrics, JobClass, MmppPhase, ModulationSpec, RunTrace, ScenarioSpec,
        ServiceModel, ShardPlan, ShardReport, ShardedSimulation, SimConfig, SimError, SimReport,
        Simulation, StalenessSpec, TraceEvent, WorkloadSpec, MAX_STALENESS,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_a_working_pipeline() {
        let spec = ClusterSpec::from_rates(vec![5.0, 1.0, 1.0]).unwrap();
        let config = SimConfig::builder(spec)
            .dispatchers(2)
            .rounds(300)
            .warmup_rounds(50)
            .seed(1)
            .arrivals(ArrivalSpec::PoissonOfferedLoad { offered_load: 0.8 })
            .build()
            .unwrap();
        let scd = ScdFactory::new();
        let report = Simulation::new(config).unwrap().run(&scd).unwrap();
        assert!(report.response_times.count() > 0);
    }

    #[test]
    fn registry_is_reachable_through_the_prelude() {
        assert!(standard_policy_names().contains(&"SCD"));
        assert!(factory_by_name("hJIQ").is_some());
    }
}
