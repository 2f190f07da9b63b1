//! High-level orchestration: one entry point per paper figure.
//!
//! Every figure binary is a thin wrapper around [`run_figure`]; the default,
//! `--quick` and `--paper` scales are defined here so that DESIGN.md /
//! EXPERIMENTS.md can reference them precisely.

use crate::ablation::{solver_equivalence_check, EstimatorAblation};
use crate::cli::{distinct_systems, CliOptions};
use crate::output::OutputSink;
use crate::response::ResponseTimeExperiment;
use crate::runtime::RuntimeExperiment;
use crate::sweep::effective_threads;
use crate::tail::TailExperiment;
use scd_model::RateProfile;
use std::io;

/// The figures of the paper's evaluation that this crate reproduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FigureKind {
    /// Fig. 3: response times, moderate heterogeneity, competitive policies.
    Fig3,
    /// Fig. 4: response times, high heterogeneity, competitive policies.
    Fig4,
    /// Fig. 5: decision-time distributions, moderate heterogeneity.
    Fig5,
    /// Fig. 6: response times, moderate heterogeneity, remaining baselines.
    Fig6,
    /// Fig. 7: response times, high heterogeneity, remaining baselines.
    Fig7,
    /// Fig. 8: decision-time distributions, high heterogeneity.
    Fig8,
    /// The estimator/solver ablations (not a paper figure).
    Ablation,
}

impl FigureKind {
    /// The heterogeneity profile the figure uses.
    pub fn profile(self) -> RateProfile {
        match self {
            FigureKind::Fig3 | FigureKind::Fig5 | FigureKind::Fig6 | FigureKind::Ablation => {
                RateProfile::paper_moderate()
            }
            FigureKind::Fig4 | FigureKind::Fig7 | FigureKind::Fig8 => RateProfile::paper_high(),
        }
    }

    /// The policy set the figure compares.
    pub fn policies(self) -> Vec<String> {
        let names: &[&str] = match self {
            FigureKind::Fig3 | FigureKind::Fig4 => {
                &["SCD", "TWF", "JSQ", "SED", "hJSQ(2)", "hJIQ", "hLSQ"]
            }
            FigureKind::Fig6 | FigureKind::Fig7 => &["SCD", "JSQ(2)", "JIQ", "LSQ", "WR"],
            FigureKind::Fig5 | FigureKind::Fig8 => &["SCD", "SCD(alg1)", "JSQ", "SED"],
            FigureKind::Ablation => &["SCD"],
        };
        names.iter().map(|s| s.to_string()).collect()
    }

    /// A short label used for output files.
    pub fn label(self) -> &'static str {
        match self {
            FigureKind::Fig3 => "fig3",
            FigureKind::Fig4 => "fig4",
            FigureKind::Fig5 => "fig5",
            FigureKind::Fig6 => "fig6",
            FigureKind::Fig7 => "fig7",
            FigureKind::Fig8 => "fig8",
            FigureKind::Ablation => "ablation",
        }
    }
}

/// The fully resolved parameters of one figure run.
#[derive(Debug, Clone)]
pub struct FigureSpec {
    /// Which figure.
    pub kind: FigureKind,
    /// Rounds per simulation run.
    pub rounds: u64,
    /// Warm-up rounds excluded from statistics.
    pub warmup: u64,
    /// Master seed.
    pub seed: u64,
    /// `(n, m)` systems for the load sweep.
    pub systems: Vec<(usize, usize)>,
    /// Offered loads for the load sweep.
    pub loads: Vec<f64>,
    /// Offered loads for the tail sub-figure.
    pub tail_loads: Vec<f64>,
    /// The `(n, m)` system used for the tail sub-figure.
    pub tail_system: (usize, usize),
    /// Cluster sizes for decision-time figures.
    pub cluster_sizes: Vec<usize>,
    /// Whether to run the tail part.
    pub include_tail: bool,
    /// Worker threads.
    pub threads: usize,
    /// Independent replications per response-time sweep cell.
    pub replications: usize,
}

impl FigureSpec {
    /// Resolves a figure and CLI options into concrete parameters.
    pub fn resolve(kind: FigureKind, options: &CliOptions) -> Self {
        // Three scale presets. The paper preset matches Section 6; the
        // default preset keeps a full-figure run in the minutes range on a
        // laptop; quick is a smoke test.
        let (rounds, warmup, systems, loads, tail_loads, cluster_sizes) = if options.paper {
            (
                100_000u64,
                0u64,
                vec![(100, 5), (100, 10), (200, 10), (200, 20)],
                vec![0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95, 0.99],
                vec![0.70, 0.90, 0.99],
                vec![100, 200, 300, 400],
            )
        } else if options.quick {
            (
                300u64,
                50u64,
                vec![(20, 3)],
                vec![0.7, 0.9],
                vec![0.9],
                vec![20, 40],
            )
        } else {
            (
                10_000u64,
                1_000u64,
                vec![(100, 10)],
                vec![0.60, 0.70, 0.80, 0.90, 0.95, 0.99],
                vec![0.70, 0.90, 0.99],
                vec![100, 200, 300, 400],
            )
        };

        let systems = distinct_systems(options.systems.clone().unwrap_or(systems));
        let loads = options.loads.clone().unwrap_or(loads);
        let tail_system = *systems
            .iter()
            .find(|&&(n, m)| (n, m) == (100, 10))
            .unwrap_or(&systems[0]);

        FigureSpec {
            kind,
            rounds: options.rounds.unwrap_or(rounds),
            warmup: options.rounds.map(|r| r / 10).unwrap_or(warmup),
            seed: options.seed,
            systems,
            loads,
            tail_loads,
            tail_system,
            cluster_sizes,
            include_tail: options.tail || options.paper,
            threads: effective_threads(options.threads),
            replications: options.replications.max(1),
        }
    }
}

/// Runs one figure end to end (simulation + output).
///
/// # Errors
/// Propagates output I/O failures.
pub fn run_figure(kind: FigureKind, options: &CliOptions) -> io::Result<()> {
    let spec = FigureSpec::resolve(kind, options);
    let sink = OutputSink::from_option(options.csv.as_deref())?;
    sink.note(&format!(
        "[{}] profile={:?} rounds={} seed={} threads={}",
        spec.kind.label(),
        spec.kind.profile(),
        spec.rounds,
        spec.seed,
        spec.threads
    ));
    if options.shards > 1 {
        sink.note("--shards applies to the sweep binary; figure sweeps run the unsharded engine");
    }

    match kind {
        FigureKind::Fig3 | FigureKind::Fig4 | FigureKind::Fig6 | FigureKind::Fig7 => {
            let experiment = ResponseTimeExperiment {
                profile: kind.profile(),
                policies: kind.policies(),
                systems: spec.systems.clone(),
                loads: spec.loads.clone(),
                rounds: spec.rounds,
                warmup: spec.warmup,
                seed: spec.seed,
                replications: spec.replications,
            };
            let results = experiment.run(spec.threads);
            experiment.emit(&results, kind.label(), &sink)?;

            if spec.include_tail {
                let tail = TailExperiment {
                    profile: kind.profile(),
                    policies: kind.policies(),
                    system: spec.tail_system,
                    loads: spec.tail_loads.clone(),
                    rounds: spec.rounds,
                    warmup: spec.warmup,
                    seed: spec.seed,
                    replications: spec.replications,
                };
                let tail_results = tail.run(spec.threads);
                tail.emit(&tail_results, kind.label(), &sink)?;
            }
        }
        FigureKind::Fig5 | FigureKind::Fig8 => {
            if spec.replications > 1 {
                sink.note(
                    "--replications applies to response-time sweeps; \
                     decision-time measurement runs a single replication",
                );
            }
            let experiment = RuntimeExperiment {
                profile: kind.profile(),
                cluster_sizes: spec.cluster_sizes.clone(),
                dispatchers: 10,
                offered_load: 0.99,
                policies: kind.policies(),
                rounds: spec.rounds.min(5_000),
                seed: spec.seed,
            };
            let mut results = experiment.run(spec.threads);
            experiment.emit(&mut results, kind.label(), &sink)?;
        }
        FigureKind::Ablation => {
            if spec.replications > 1 {
                sink.note(
                    "--replications applies to response-time sweeps; \
                     the ablation runs a single replication",
                );
            }
            let (n, m) = spec.tail_system;
            let ablation = EstimatorAblation {
                profile: kind.profile(),
                n,
                m,
                loads: spec.loads.clone(),
                rounds: spec.rounds,
                warmup: spec.warmup,
                seed: spec.seed,
            };
            let rows = ablation.run(spec.threads);
            ablation.emit(&rows, &sink)?;

            let check = solver_equivalence_check(
                &kind.profile(),
                n.min(50),
                m,
                0.95,
                spec.rounds.min(2_000),
                spec.seed,
            );
            sink.note(&format!(
                "solver equivalence: {} decisions, max per-server |p_kernel - p_Alg1| = {:.3e}",
                check.decisions, check.max_gap
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_metadata_matches_the_paper() {
        assert_eq!(FigureKind::Fig3.profile(), RateProfile::paper_moderate());
        assert_eq!(FigureKind::Fig4.profile(), RateProfile::paper_high());
        assert_eq!(FigureKind::Fig8.profile(), RateProfile::paper_high());
        assert!(FigureKind::Fig3.policies().contains(&"hLSQ".to_string()));
        assert!(FigureKind::Fig6.policies().contains(&"WR".to_string()));
        assert!(FigureKind::Fig5
            .policies()
            .contains(&"SCD(alg1)".to_string()));
        assert_eq!(FigureKind::Fig7.label(), "fig7");
    }

    #[test]
    fn paper_preset_matches_section6() {
        let options = CliOptions {
            paper: true,
            ..CliOptions::default()
        };
        let spec = FigureSpec::resolve(FigureKind::Fig3, &options);
        assert_eq!(spec.rounds, 100_000);
        assert_eq!(spec.systems.len(), 4);
        assert!(spec.systems.contains(&(200, 20)));
        assert_eq!(spec.tail_system, (100, 10));
        assert_eq!(spec.cluster_sizes, vec![100, 200, 300, 400]);
        assert!(spec.include_tail);
    }

    #[test]
    fn cli_overrides_take_precedence() {
        let options = CliOptions {
            rounds: Some(500),
            loads: Some(vec![0.8]),
            systems: Some(vec![(10, 2)]),
            ..CliOptions::default()
        };
        let spec = FigureSpec::resolve(FigureKind::Fig6, &options);
        assert_eq!(spec.rounds, 500);
        assert_eq!(spec.warmup, 50);
        assert_eq!(spec.loads, vec![0.8]);
        assert_eq!(spec.systems, vec![(10, 2)]);
        assert_eq!(spec.tail_system, (10, 2));
    }

    #[test]
    fn repeated_systems_resolve_once() {
        let resolve = |systems: Vec<(usize, usize)>| {
            let options = CliOptions {
                systems: Some(systems),
                ..CliOptions::default()
            };
            FigureSpec::resolve(FigureKind::Fig3, &options).systems
        };
        // Adjacent repeats.
        assert_eq!(resolve(vec![(16, 4), (16, 4), (32, 2)]), [(16, 4), (32, 2)]);
        // Non-adjacent repeats keep the first occurrence's place.
        assert_eq!(
            resolve(vec![(16, 4), (32, 2), (48, 4), (32, 2)]),
            [(16, 4), (32, 2), (48, 4)]
        );
        // A system typed twice and nothing else.
        assert_eq!(resolve(vec![(16, 4), (16, 4)]), [(16, 4)]);
    }

    #[test]
    fn quick_runs_complete_end_to_end() {
        let options = CliOptions {
            quick: true,
            threads: Some(2),
            ..CliOptions::default()
        };
        run_figure(FigureKind::Fig3, &options).unwrap();
        run_figure(FigureKind::Fig5, &options).unwrap();
        run_figure(FigureKind::Ablation, &options).unwrap();
    }
}
