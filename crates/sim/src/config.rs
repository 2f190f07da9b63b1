//! Simulation configuration.

use crate::arrivals::ArrivalSpec;
use crate::key_values::{join, lex, LineWriter};
use crate::scenario::{ScenarioKeys, ScenarioSpec};
use crate::services::ServiceModel;
use crate::workload::{WorkloadKeys, WorkloadSpec};
use scd_model::{ClusterSpec, ModelError, RateProfile};

/// Complete description of one simulation run (one cluster, one arrival
/// pattern, one policy will be plugged in by the engine).
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// The cluster (per-server service rates).
    pub spec: ClusterSpec,
    /// Number of dispatchers `m`.
    pub num_dispatchers: usize,
    /// Total number of simulated rounds.
    pub rounds: u64,
    /// Rounds at the beginning of the run excluded from all statistics
    /// (transient warm-up).
    pub warmup_rounds: u64,
    /// Master seed; every stochastic stream in the run derives from it.
    pub seed: u64,
    /// The arrival process.
    pub arrivals: ArrivalSpec,
    /// The service process.
    pub services: ServiceModel,
    /// When true the engine wall-clock-times every dispatching decision
    /// (needed for the Figure 5/8 reproductions; adds measurement overhead).
    pub measure_decision_times: bool,
    /// The fault/churn/staleness scenario; the default is "no faults",
    /// which runs the fair-weather fast path bit-for-bit.
    pub scenario: ScenarioSpec,
    /// The time-varying / trace-driven workload; the default is inert
    /// (stationary), which reproduces the plain arrival path bit-for-bit.
    pub workload: WorkloadSpec,
}

impl SimConfig {
    /// Starts a builder for the given cluster.
    pub fn builder(spec: ClusterSpec) -> SimConfigBuilder {
        SimConfigBuilder::new(spec)
    }

    /// Convenience constructor matching the paper's evaluation setup: `n`
    /// servers with rates drawn from `profile`, `m` dispatchers with equal
    /// Poisson arrival rates calibrated to the offered load `ρ`, geometric
    /// services.
    ///
    /// The cluster draw uses a seed derived from `seed` so that the same
    /// `(n, profile, seed)` triple always produces the same cluster while
    /// different seeds produce different clusters.
    ///
    /// # Errors
    /// Returns an error if the profile produces an invalid cluster.
    pub fn paper_setup(
        n: usize,
        m: usize,
        offered_load: f64,
        profile: &RateProfile,
        rounds: u64,
        seed: u64,
    ) -> Result<SimConfig, ModelError> {
        use rand::SeedableRng;
        let mut cluster_rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xC1_05_7E_12);
        let spec = profile.materialize(n, &mut cluster_rng)?;
        Ok(SimConfig {
            spec,
            num_dispatchers: m,
            rounds,
            warmup_rounds: 0,
            seed,
            arrivals: ArrivalSpec::PoissonOfferedLoad { offered_load },
            services: ServiceModel::Geometric,
            measure_decision_times: false,
            scenario: ScenarioSpec::default(),
            workload: WorkloadSpec::default(),
        })
    }

    /// Upper bound on the `n × m` (servers × dispatchers) product. The
    /// engine's per-round work — and the per-dispatcher policy state of the
    /// stateful policies — scales with `n · m`, so a configuration beyond
    /// this is rejected at build time instead of thrashing for hours.
    pub const MAX_STATE_CELLS: u128 = 1 << 31;

    /// Ceiling on [`estimated_memory_bytes`](SimConfig::estimated_memory_bytes)
    /// for one engine (one shard's engine in a sharded run): 32 GiB.
    pub const MAX_ESTIMATED_MEMORY_BYTES: u128 = 32 << 30;

    /// Order-of-magnitude estimate of one engine's resident memory for this
    /// configuration, in bytes: per-server state (queues, snapshot, round
    /// cache solver tables, queue tracker) plus per-dispatcher state,
    /// including the `O(n)` sampler tables a stateful policy keeps per
    /// dispatcher (the `n · m` term).
    pub fn estimated_memory_bytes(&self) -> u128 {
        Self::memory_estimate(self.num_servers(), self.num_dispatchers)
    }

    fn memory_estimate(num_servers: usize, num_dispatchers: usize) -> u128 {
        let n = num_servers as u128;
        let m = num_dispatchers as u128;
        n * 224 + m * 64 + n * m * 16
    }

    /// Validates the configuration's *scale* with
    /// [`check_scale`](SimConfig::check_scale). Called by both the builder
    /// and `Simulation::new`, so an over-scale configuration fails fast with
    /// a sized error message rather than OOM-ing mid-run.
    ///
    /// # Errors
    /// Returns [`SimError::InvalidConfig`](crate::engine::SimError) naming
    /// the exceeded bound.
    pub fn validate_scale(&self) -> Result<(), crate::engine::SimError> {
        Self::check_scale(self.num_servers(), self.num_dispatchers)
    }

    /// The scale check of a system of `num_servers` × `num_dispatchers`
    /// before anything of it exists: the `n × m` cell count against
    /// [`MAX_STATE_CELLS`](SimConfig::MAX_STATE_CELLS) and the
    /// [estimated memory](SimConfig::estimated_memory_bytes) against
    /// [`MAX_ESTIMATED_MEMORY_BYTES`](SimConfig::MAX_ESTIMATED_MEMORY_BYTES).
    /// Command-line front ends run it on the requested sizes before they
    /// materialise a single rate.
    ///
    /// # Errors
    /// Returns [`SimError::InvalidConfig`](crate::engine::SimError) naming
    /// the exceeded bound.
    pub fn check_scale(
        num_servers: usize,
        num_dispatchers: usize,
    ) -> Result<(), crate::engine::SimError> {
        use crate::engine::SimError;
        let n = num_servers as u128;
        let m = num_dispatchers as u128;
        let cells = n * m;
        if cells > Self::MAX_STATE_CELLS {
            return Err(SimError::InvalidConfig(format!(
                "{n} servers × {m} dispatchers = {cells} state cells exceeds \
                 the {} cap; shard the run or reduce the system",
                Self::MAX_STATE_CELLS
            )));
        }
        let estimated = Self::memory_estimate(num_servers, num_dispatchers);
        if estimated > Self::MAX_ESTIMATED_MEMORY_BYTES {
            return Err(SimError::InvalidConfig(format!(
                "estimated memory of {} MiB exceeds the {} MiB ceiling; \
                 shard the run or reduce the system",
                estimated >> 20,
                Self::MAX_ESTIMATED_MEMORY_BYTES >> 20
            )));
        }
        Ok(())
    }

    /// The offered load `ρ` this configuration induces.
    ///
    /// # Panics
    /// Panics on an arrival spec that fails validation — configurations
    /// produced by the builder or accepted by `Simulation::new` are always
    /// valid here.
    pub fn offered_load(&self) -> f64 {
        self.arrivals
            .offered_load(self.num_dispatchers, self.spec.total_rate())
            .expect("validated configuration")
    }

    /// Number of servers `n`.
    pub fn num_servers(&self) -> usize {
        self.spec.num_servers()
    }

    /// Renders the complete configuration in the workspace's `key = value`
    /// file format — the wire form the process fabric sends to shard
    /// workers over stdin. [`from_key_values`](SimConfig::from_key_values)
    /// of the result reconstructs `self` **exactly** (Rust's shortest-repr
    /// float `Display` round-trips every `f64` bit for bit), including the
    /// scenario/workload id maps the sharded engine derives, which the
    /// standalone scenario/workload file formats deliberately omit.
    ///
    /// # Errors
    /// Returns [`SimError::InvalidConfig`](crate::engine::SimError) when
    /// the workload carries a replay trace — the recorded arrival matrix
    /// has no single-line wire syntax, so fabric runs do not support
    /// trace-replay configurations.
    pub fn to_key_values(&self) -> Result<String, crate::engine::SimError> {
        use crate::engine::SimError;
        if self.workload.replay.is_some() {
            return Err(SimError::InvalidConfig(
                "a workload replay trace has no key = value wire form; \
                 fabric workers cannot receive trace-replay configurations"
                    .into(),
            ));
        }
        let mut out = LineWriter::default();
        out.line("rates", join(self.spec.rates()));
        out.line("dispatchers", self.num_dispatchers);
        out.line("rounds", self.rounds);
        out.line("warmup_rounds", self.warmup_rounds);
        out.line("seed", self.seed);
        match &self.arrivals {
            ArrivalSpec::PoissonOfferedLoad { offered_load } => {
                out.line("arrivals", format_args!("offered_load:{offered_load}"));
            }
            ArrivalSpec::PoissonRates { rates } => {
                out.line("arrivals", format_args!("rates:{}", join(rates)));
            }
            ArrivalSpec::Deterministic { jobs_per_round } => {
                out.line("arrivals", format_args!("deterministic:{jobs_per_round}"));
            }
        }
        out.line(
            "services",
            match self.services {
                ServiceModel::Geometric => "geometric",
                ServiceModel::Deterministic => "deterministic",
            },
        );
        out.line("measure_decision_times", self.measure_decision_times);
        out.nested("scenario.", |out| {
            self.scenario.write_key_values(out);
            if let Some(ids) = &self.scenario.server_ids {
                out.line("server_ids", join(ids));
            }
            if let Some(ids) = &self.scenario.dispatcher_ids {
                out.line("dispatcher_ids", join(ids));
            }
        });
        out.nested("workload.", |out| {
            self.workload.write_key_values(out);
            if let Some(ids) = &self.workload.dispatcher_ids {
                out.line("dispatcher_ids", join(ids));
            }
        });
        Ok(out.into_text())
    }

    /// Parses the `key = value` wire form produced by
    /// [`to_key_values`](SimConfig::to_key_values): one assignment per
    /// line, `#` comments and blank lines ignored. `scenario.*` /
    /// `workload.*` entries go to the key tables of
    /// [`ScenarioSpec::from_key_values`] / [`WorkloadSpec::from_key_values`],
    /// and an error in one names this text's line and the full key. The
    /// id-map keys (`scenario.server_ids`, `scenario.dispatcher_ids`,
    /// `workload.dispatcher_ids`) are handled here — they exist only on
    /// this wire format.
    ///
    /// The reconstructed configuration is **not** revalidated against the
    /// builder: the wire format transports already-validated shard configs
    /// verbatim (a shard config's id maps would fail the builder's
    /// standalone validation against the *sub*-cluster shape, by design).
    ///
    /// # Errors
    /// Returns [`SimError::InvalidConfig`](crate::engine::SimError) for
    /// malformed lines, unknown keys, unparsable values, or missing
    /// required keys (`rates`, `dispatchers`, `rounds`, `seed`,
    /// `arrivals`).
    pub fn from_key_values(text: &str) -> Result<SimConfig, crate::engine::SimError> {
        use crate::engine::SimError;
        let mut rates: Option<Vec<f64>> = None;
        let mut dispatchers: Option<usize> = None;
        let mut rounds: Option<u64> = None;
        let mut warmup_rounds: u64 = 0;
        let mut seed: Option<u64> = None;
        let mut arrivals: Option<ArrivalSpec> = None;
        let mut services = ServiceModel::Geometric;
        let mut measure_decision_times = false;
        let mut scenario = ScenarioKeys::default();
        let mut workload = WorkloadKeys::default();
        let mut scenario_server_ids: Option<Vec<u32>> = None;
        let mut scenario_dispatcher_ids: Option<Vec<u32>> = None;
        let mut workload_dispatcher_ids: Option<Vec<u32>> = None;
        for entry in lex("config", text) {
            let entry = entry?;
            let ids = || entry.list(entry.value, "a comma-separated integer list");
            match entry.name {
                "rates" => rates = Some(entry.list(entry.value, "a comma-separated float list")?),
                "dispatchers" => dispatchers = Some(entry.parse("an integer")?),
                "rounds" => rounds = Some(entry.parse("an integer")?),
                "warmup_rounds" => warmup_rounds = entry.parse("an integer")?,
                "seed" => seed = Some(entry.parse("an integer")?),
                "arrivals" => {
                    let (kind, arg) = entry
                        .value
                        .split_once(':')
                        .ok_or_else(|| entry.bad_value("`kind:arguments`"))?;
                    arrivals = Some(match kind.trim() {
                        "offered_load" => ArrivalSpec::PoissonOfferedLoad {
                            offered_load: entry.parse_part(arg, "offered_load:<float>")?,
                        },
                        "rates" => ArrivalSpec::PoissonRates {
                            rates: entry.list(arg, "rates:<float list>")?,
                        },
                        "deterministic" => ArrivalSpec::Deterministic {
                            jobs_per_round: entry.parse_part(arg, "deterministic:<integer>")?,
                        },
                        _ => return Err(entry.bad_value("offered_load / rates / deterministic")),
                    });
                }
                "services" => {
                    services = match entry.value {
                        "geometric" => ServiceModel::Geometric,
                        "deterministic" => ServiceModel::Deterministic,
                        _ => return Err(entry.bad_value("`geometric` or `deterministic`")),
                    };
                }
                "measure_decision_times" => {
                    measure_decision_times = entry.parse("`true` or `false`")?;
                }
                "scenario.server_ids" => scenario_server_ids = Some(ids()?),
                "scenario.dispatcher_ids" => scenario_dispatcher_ids = Some(ids()?),
                "workload.dispatcher_ids" => workload_dispatcher_ids = Some(ids()?),
                _ => match (entry.nested("scenario."), entry.nested("workload.")) {
                    (Some(nested), _) => scenario.apply(&nested)?,
                    (_, Some(nested)) => workload.apply(&nested)?,
                    _ => return Err(entry.unknown_key()),
                },
            }
        }
        let missing = |key: &str| {
            SimError::InvalidConfig(format!("config is missing the required `{key}` key"))
        };
        let spec = ClusterSpec::from_rates(rates.ok_or_else(|| missing("rates"))?)
            .map_err(|e| SimError::InvalidConfig(format!("config `rates`: {e}")))?;
        let scenario = ScenarioSpec {
            server_ids: scenario_server_ids,
            dispatcher_ids: scenario_dispatcher_ids,
            ..scenario.finish()?
        };
        let workload = WorkloadSpec {
            dispatcher_ids: workload_dispatcher_ids,
            ..workload.finish()?
        };
        Ok(SimConfig {
            spec,
            num_dispatchers: dispatchers.ok_or_else(|| missing("dispatchers"))?,
            rounds: rounds.ok_or_else(|| missing("rounds"))?,
            warmup_rounds,
            seed: seed.ok_or_else(|| missing("seed"))?,
            arrivals: arrivals.ok_or_else(|| missing("arrivals"))?,
            services,
            measure_decision_times,
            scenario,
            workload,
        })
    }

    /// A structural 64-bit digest of every field of the configuration,
    /// computed by chaining splitmix64 finalizers over the field values
    /// (floats by their IEEE bit patterns, enums by discriminant tag plus
    /// payload, collections length-prefixed). The digest is a pure function
    /// of the value — identical across processes, hosts, and compilations —
    /// and is what the process fabric stamps into every shard-report frame
    /// so the orchestrator can reject a report produced from a different
    /// configuration than the one it distributed.
    ///
    /// Unlike the `key = value` wire form this covers replay traces too, so
    /// in-process sharded runs can stamp any configuration.
    pub fn digest(&self) -> u64 {
        use crate::scenario::StalenessSpec;
        use crate::workload::ModulationSpec;
        use scd_model::streams::splitmix64_mix;
        fn mix(h: u64, v: u64) -> u64 {
            splitmix64_mix(h ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1))
        }
        fn mix_f64(h: u64, v: f64) -> u64 {
            mix(h, v.to_bits())
        }
        fn mix_opt_u64(h: u64, v: Option<u64>) -> u64 {
            match v {
                None => mix(h, 0),
                Some(v) => mix(mix(h, 1), v),
            }
        }
        fn mix_opt_ids(h: u64, ids: Option<&Vec<u32>>) -> u64 {
            match ids {
                None => mix(h, 0),
                Some(ids) => ids
                    .iter()
                    .fold(mix(mix(h, 1), ids.len() as u64), |h, &id| mix(h, id as u64)),
            }
        }
        let mut h = mix(0x5343_4446_4947_0001, self.spec.rates().len() as u64);
        for &r in self.spec.rates() {
            h = mix_f64(h, r);
        }
        h = mix(h, self.num_dispatchers as u64);
        h = mix(h, self.rounds);
        h = mix(h, self.warmup_rounds);
        h = mix(h, self.seed);
        h = match &self.arrivals {
            ArrivalSpec::PoissonOfferedLoad { offered_load } => mix_f64(mix(h, 0), *offered_load),
            ArrivalSpec::PoissonRates { rates } => rates
                .iter()
                .fold(mix(mix(h, 1), rates.len() as u64), |h, &r| mix_f64(h, r)),
            ArrivalSpec::Deterministic { jobs_per_round } => mix(mix(h, 2), *jobs_per_round),
        };
        h = mix(
            h,
            match self.services {
                ServiceModel::Geometric => 0,
                ServiceModel::Deterministic => 1,
            },
        );
        h = mix(h, self.measure_decision_times as u64);
        let sc = &self.scenario;
        h = mix_f64(h, sc.server_fail_rate);
        h = mix_f64(h, sc.server_repair_rate);
        h = mix_f64(h, sc.dispatcher_fail_rate);
        h = mix_f64(h, sc.dispatcher_repair_rate);
        h = match sc.staleness {
            StalenessSpec::Fresh => mix(h, 0),
            StalenessSpec::Fixed { k } => mix(mix(h, 1), k),
            StalenessSpec::UniformPerRound { max_k } => mix(mix(h, 2), max_k),
        };
        h = mix_f64(h, sc.probe_loss_rate);
        h = mix_opt_u64(h, sc.seed);
        h = mix_opt_ids(h, sc.server_ids.as_ref());
        h = mix_opt_ids(h, sc.dispatcher_ids.as_ref());
        let wl = &self.workload;
        h = match &wl.modulation {
            ModulationSpec::None => mix(h, 0),
            ModulationSpec::Mmpp { phases } => phases
                .iter()
                .fold(mix(mix(h, 1), phases.len() as u64), |h, p| {
                    mix_f64(mix_f64(h, p.rate_multiplier), p.switch_prob)
                }),
            ModulationSpec::Diurnal { period, amplitude } => {
                mix_f64(mix(mix(h, 2), *period), *amplitude)
            }
            ModulationSpec::FlashCrowd {
                every,
                duration,
                magnitude,
            } => mix_f64(mix(mix(mix(h, 3), *every), *duration), *magnitude),
        };
        h = mix(h, wl.classes.len() as u64);
        for class in &wl.classes {
            h = mix_f64(mix(h, class.size), class.weight);
        }
        h = match &wl.replay {
            None => mix(h, 0),
            Some(trace) => {
                let mut h = mix(
                    mix(mix(h, 1), trace.num_dispatchers() as u64),
                    trace.rounds(),
                );
                for round in 0..trace.rounds() {
                    for d in 0..trace.num_dispatchers() {
                        h = mix(h, trace.count(round, d));
                    }
                }
                h
            }
        };
        h = mix_opt_u64(h, wl.seed);
        h = mix_opt_ids(h, wl.dispatcher_ids.as_ref());
        h
    }
}

/// Builder for [`SimConfig`].
#[derive(Debug, Clone)]
pub struct SimConfigBuilder {
    spec: ClusterSpec,
    num_dispatchers: usize,
    rounds: u64,
    warmup_rounds: u64,
    seed: u64,
    arrivals: ArrivalSpec,
    services: ServiceModel,
    measure_decision_times: bool,
    scenario: ScenarioSpec,
    workload: WorkloadSpec,
}

impl SimConfigBuilder {
    /// Creates a builder with sensible defaults: one dispatcher, 10 000
    /// rounds, no warm-up, seed 0, offered load 0.9, geometric services,
    /// no faults.
    pub fn new(spec: ClusterSpec) -> Self {
        SimConfigBuilder {
            spec,
            num_dispatchers: 1,
            rounds: 10_000,
            warmup_rounds: 0,
            seed: 0,
            arrivals: ArrivalSpec::PoissonOfferedLoad { offered_load: 0.9 },
            services: ServiceModel::Geometric,
            measure_decision_times: false,
            scenario: ScenarioSpec::default(),
            workload: WorkloadSpec::default(),
        }
    }

    /// Sets the number of dispatchers.
    pub fn dispatchers(mut self, m: usize) -> Self {
        self.num_dispatchers = m;
        self
    }

    /// Sets the number of simulated rounds.
    pub fn rounds(mut self, rounds: u64) -> Self {
        self.rounds = rounds;
        self
    }

    /// Sets the number of warm-up rounds excluded from statistics.
    pub fn warmup_rounds(mut self, warmup: u64) -> Self {
        self.warmup_rounds = warmup;
        self
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the arrival specification.
    pub fn arrivals(mut self, arrivals: ArrivalSpec) -> Self {
        self.arrivals = arrivals;
        self
    }

    /// Sets the service model.
    pub fn services(mut self, services: ServiceModel) -> Self {
        self.services = services;
        self
    }

    /// Enables wall-clock timing of every dispatching decision.
    pub fn measure_decision_times(mut self, enable: bool) -> Self {
        self.measure_decision_times = enable;
        self
    }

    /// Sets the fault/churn/staleness scenario.
    pub fn scenario(mut self, scenario: ScenarioSpec) -> Self {
        self.scenario = scenario;
        self
    }

    /// Sets the time-varying / trace-driven workload.
    pub fn workload(mut self, workload: WorkloadSpec) -> Self {
        self.workload = workload;
        self
    }

    /// Finalizes the configuration.
    ///
    /// # Errors
    /// Returns [`SimError::InvalidConfig`](crate::engine::SimError) when the
    /// system has zero dispatchers, zero rounds, a warm-up at least as long
    /// as the run, or a scenario with out-of-range rates or mismatched id
    /// maps — degenerate inputs fail here, at configuration time, not
    /// inside `Simulation::new`.
    pub fn build(self) -> Result<SimConfig, crate::engine::SimError> {
        use crate::engine::SimError;
        if self.num_dispatchers == 0 {
            return Err(SimError::InvalidConfig(
                "the system must contain at least one dispatcher".into(),
            ));
        }
        if self.rounds == 0 {
            return Err(SimError::InvalidConfig(
                "the simulation must run for at least one round".into(),
            ));
        }
        if self.warmup_rounds >= self.rounds {
            return Err(SimError::InvalidConfig(format!(
                "warm-up ({}) must be shorter than the run ({})",
                self.warmup_rounds, self.rounds
            )));
        }
        self.scenario
            .validate(self.spec.num_servers(), self.num_dispatchers)?;
        self.arrivals.validate(self.num_dispatchers)?;
        self.workload.validate(
            &self.arrivals,
            self.num_dispatchers,
            self.rounds,
            self.spec.total_rate(),
        )?;
        let config = SimConfig {
            spec: self.spec,
            num_dispatchers: self.num_dispatchers,
            rounds: self.rounds,
            warmup_rounds: self.warmup_rounds,
            seed: self.seed,
            arrivals: self.arrivals,
            services: self.services,
            measure_decision_times: self.measure_decision_times,
            scenario: self.scenario,
            workload: self.workload,
        };
        config.validate_scale()?;
        Ok(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ClusterSpec {
        ClusterSpec::from_rates(vec![4.0, 2.0, 1.0, 1.0]).unwrap()
    }

    #[test]
    fn builder_produces_requested_configuration() {
        let config = SimConfig::builder(spec())
            .dispatchers(3)
            .rounds(500)
            .warmup_rounds(100)
            .seed(99)
            .arrivals(ArrivalSpec::Deterministic { jobs_per_round: 2 })
            .services(ServiceModel::Deterministic)
            .measure_decision_times(true)
            .build()
            .unwrap();
        assert_eq!(config.num_dispatchers, 3);
        assert_eq!(config.rounds, 500);
        assert_eq!(config.warmup_rounds, 100);
        assert_eq!(config.seed, 99);
        assert_eq!(config.services, ServiceModel::Deterministic);
        assert!(config.measure_decision_times);
        assert_eq!(config.num_servers(), 4);
        // Deterministic 2 jobs × 3 dispatchers = 6 jobs/round vs capacity 8.
        assert!((config.offered_load() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn builder_rejects_degenerate_configurations() {
        assert!(SimConfig::builder(spec()).dispatchers(0).build().is_err());
        assert!(SimConfig::builder(spec()).rounds(0).build().is_err());
        assert!(SimConfig::builder(spec())
            .rounds(10)
            .warmup_rounds(10)
            .build()
            .is_err());
        // Scenario validation happens at build time too.
        assert!(SimConfig::builder(spec())
            .scenario(ScenarioSpec {
                server_fail_rate: 1.5,
                ..ScenarioSpec::default()
            })
            .build()
            .is_err());
        assert!(SimConfig::builder(spec())
            .dispatchers(2)
            .scenario(ScenarioSpec {
                dispatcher_ids: Some(vec![0]),
                ..ScenarioSpec::default()
            })
            .build()
            .is_err());
        // Arrival and workload validation happen at build time too.
        assert!(SimConfig::builder(spec())
            .dispatchers(2)
            .arrivals(ArrivalSpec::PoissonRates { rates: vec![1.0] })
            .build()
            .is_err());
        assert!(SimConfig::builder(spec())
            .arrivals(ArrivalSpec::PoissonOfferedLoad { offered_load: -1.0 })
            .build()
            .is_err());
        assert!(SimConfig::builder(spec())
            .workload(WorkloadSpec {
                modulation: crate::workload::ModulationSpec::Diurnal {
                    period: 0,
                    amplitude: 0.5,
                },
                ..WorkloadSpec::default()
            })
            .build()
            .is_err());
        // An active workload over deterministic arrivals is rejected.
        assert!(SimConfig::builder(spec())
            .arrivals(ArrivalSpec::Deterministic { jobs_per_round: 2 })
            .workload(WorkloadSpec {
                modulation: crate::workload::ModulationSpec::Diurnal {
                    period: 100,
                    amplitude: 0.5,
                },
                ..WorkloadSpec::default()
            })
            .build()
            .is_err());
    }

    #[test]
    fn builder_accepts_and_carries_a_workload() {
        let workload = WorkloadSpec {
            modulation: crate::workload::ModulationSpec::Diurnal {
                period: 200,
                amplitude: 0.3,
            },
            ..WorkloadSpec::default()
        };
        let config = SimConfig::builder(spec())
            .dispatchers(2)
            .workload(workload.clone())
            .build()
            .unwrap();
        assert_eq!(config.workload, workload);
        // The default is the inert workload.
        let plain = SimConfig::builder(spec()).build().unwrap();
        assert!(plain.workload.is_inert());
    }

    #[test]
    fn builder_accepts_and_carries_a_scenario() {
        let scenario = ScenarioSpec {
            server_fail_rate: 0.01,
            server_repair_rate: 0.2,
            ..ScenarioSpec::default()
        };
        let config = SimConfig::builder(spec())
            .dispatchers(2)
            .scenario(scenario.clone())
            .build()
            .unwrap();
        assert_eq!(config.scenario, scenario);
        // The default is the inert scenario.
        let plain = SimConfig::builder(spec()).build().unwrap();
        assert!(plain.scenario.is_inert());
    }

    #[test]
    fn key_values_round_trip_is_exact() {
        // A config exercising every wire-format branch: non-trivial floats
        // (0.1 has no finite binary expansion — shortest-repr Display must
        // still round-trip it bit for bit), an active scenario with id
        // maps, and an active workload.
        let config = SimConfig {
            spec: ClusterSpec::from_rates(vec![4.0, 0.1, 1.0 / 3.0, 2.5]).unwrap(),
            num_dispatchers: 3,
            rounds: 500,
            warmup_rounds: 100,
            seed: 0xDEAD_BEEF_0BAD_F00D,
            arrivals: ArrivalSpec::PoissonOfferedLoad {
                offered_load: 0.855,
            },
            services: ServiceModel::Deterministic,
            measure_decision_times: true,
            scenario: ScenarioSpec {
                server_fail_rate: 0.01,
                server_repair_rate: 0.2,
                staleness: crate::scenario::StalenessSpec::UniformPerRound { max_k: 3 },
                probe_loss_rate: 0.05,
                seed: Some(42),
                server_ids: Some(vec![0, 4, 8, 12]),
                dispatcher_ids: Some(vec![1, 4]),
                ..ScenarioSpec::default()
            },
            workload: WorkloadSpec {
                modulation: crate::workload::ModulationSpec::Diurnal {
                    period: 200,
                    amplitude: 0.3,
                },
                classes: vec![crate::workload::JobClass {
                    size: 4,
                    weight: 0.25,
                }],
                seed: Some(7),
                dispatcher_ids: Some(vec![1, 4]),
                ..WorkloadSpec::default()
            },
        };
        let text = config.to_key_values().unwrap();
        let back = SimConfig::from_key_values(&text).unwrap();
        assert_eq!(back, config);
        // The minimal config round-trips too (defaults omitted from text).
        let plain = SimConfig::builder(spec()).build().unwrap();
        let text = plain.to_key_values().unwrap();
        assert_eq!(SimConfig::from_key_values(&text).unwrap(), plain);
        // Other arrival kinds take the other wire branches.
        for arrivals in [
            ArrivalSpec::PoissonRates {
                rates: vec![0.5, 1.25],
            },
            ArrivalSpec::Deterministic { jobs_per_round: 2 },
        ] {
            let c = SimConfig::builder(spec())
                .dispatchers(2)
                .arrivals(arrivals)
                .build()
                .unwrap();
            let text = c.to_key_values().unwrap();
            assert_eq!(SimConfig::from_key_values(&text).unwrap(), c);
        }
    }

    #[test]
    fn key_values_reject_malformed_input() {
        let base = SimConfig::builder(spec()).build().unwrap();
        let text = base.to_key_values().unwrap();
        // Dropping a required key fails with a named-key error.
        let without_rates: String = text
            .lines()
            .filter(|l| !l.starts_with("rates"))
            .map(|l| format!("{l}\n"))
            .collect();
        let err = SimConfig::from_key_values(&without_rates).unwrap_err();
        assert!(err.to_string().contains("rates"), "{err}");
        // Unknown keys, bad shapes, and bad nested keys are all rejected.
        assert!(SimConfig::from_key_values("bogus = 1").is_err());
        assert!(SimConfig::from_key_values("rates 1,2").is_err());
        assert!(SimConfig::from_key_values(&format!("{text}arrivals = warp:9")).is_err());
        assert!(SimConfig::from_key_values(&format!("{text}scenario.bogus = 1")).is_err());
        assert!(SimConfig::from_key_values(&format!("{text}workload.bogus = 1")).is_err());
        // A replay trace has no wire form.
        let mut with_replay = base;
        with_replay.workload.replay = Some(crate::workload::ArrivalTrace::new(1, 10_000));
        assert!(with_replay.to_key_values().is_err());
    }

    #[test]
    fn nested_key_errors_name_the_config_line_and_the_full_key() {
        let text = SimConfig::builder(spec())
            .build()
            .unwrap()
            .to_key_values()
            .unwrap();
        let with_line = |at: usize, line: &str| {
            let mut lines: Vec<&str> = text.lines().collect();
            lines.insert(at - 1, line);
            SimConfig::from_key_values(&lines.join("\n"))
                .unwrap_err()
                .to_string()
        };
        let err = with_line(9, "scenario.seed = oops");
        assert!(
            err.contains("config line 9: `scenario.seed` needs an integer"),
            "{err}"
        );
        let err = with_line(6, "workload.diurnal_period = x");
        assert!(
            err.contains("config line 6: `workload.diurnal_period` needs an integer"),
            "{err}"
        );
        let err = with_line(2, "scenario.bogus = 1");
        assert!(
            err.contains("config line 2: unknown key \"scenario.bogus\""),
            "{err}"
        );
    }

    #[test]
    fn digest_is_stable_and_field_sensitive() {
        let base = SimConfig::builder(spec())
            .dispatchers(2)
            .rounds(100)
            .seed(9)
            .build()
            .unwrap();
        assert_eq!(base.digest(), base.clone().digest());
        // Every field perturbation moves the digest.
        let mut seed = base.clone();
        seed.seed ^= 1;
        let mut rounds = base.clone();
        rounds.rounds += 1;
        let mut load = base.clone();
        load.arrivals = ArrivalSpec::PoissonOfferedLoad {
            offered_load: 0.900000001,
        };
        let mut services = base.clone();
        services.services = ServiceModel::Deterministic;
        let mut scenario = base.clone();
        scenario.scenario.server_ids = Some(vec![0, 1, 2, 3]);
        let mut workload = base.clone();
        workload.workload.seed = Some(0);
        let mut replay = base.clone();
        replay.workload.replay = Some(crate::workload::ArrivalTrace::new(2, 100));
        let digests: Vec<u64> = [
            &base, &seed, &rounds, &load, &services, &scenario, &workload, &replay,
        ]
        .iter()
        .map(|c| c.digest())
        .collect();
        for i in 0..digests.len() {
            for j in (i + 1)..digests.len() {
                assert_ne!(digests[i], digests[j], "configs {i} and {j} collide");
            }
        }
        // The digest survives the wire: parse(to_key_values) has the same
        // digest — the worker-side check the orchestrator relies on.
        let text = base.to_key_values().unwrap();
        assert_eq!(
            SimConfig::from_key_values(&text).unwrap().digest(),
            base.digest()
        );
    }

    #[test]
    fn over_scale_configurations_are_rejected_with_sized_messages() {
        // n · m beyond MAX_STATE_CELLS: 2^16 servers × 2^16 dispatchers.
        let rates = vec![1.0; 1 << 16];
        let err = SimConfig::builder(ClusterSpec::from_rates(rates.clone()).unwrap())
            .dispatchers(1 << 16)
            .build()
            .unwrap_err();
        assert!(matches!(err, crate::engine::SimError::InvalidConfig(_)));
        assert!(err.to_string().contains("state cells"), "{err}");
        // A mean-field-scale single-dispatcher system passes comfortably.
        let big = SimConfig::builder(ClusterSpec::from_rates(rates).unwrap())
            .dispatchers(16)
            .build()
            .unwrap();
        assert!(big.estimated_memory_bytes() < SimConfig::MAX_ESTIMATED_MEMORY_BYTES);
        // Memory ceiling: 10⁶ servers × 2140 dispatchers stays just under
        // the cell cap (2.14e9 < 2^31) but the n·m policy-sampler term
        // pushes the estimate past 32 GiB.
        let err = SimConfig::builder(ClusterSpec::from_rates(vec![1.0; 1_000_000]).unwrap())
            .dispatchers(2140)
            .build()
            .unwrap_err();
        assert!(matches!(err, crate::engine::SimError::InvalidConfig(_)));
        assert!(err.to_string().contains("estimated memory"), "{err}");
    }

    #[test]
    fn paper_setup_matches_requested_shape() {
        let profile = RateProfile::paper_moderate();
        let config = SimConfig::paper_setup(100, 10, 0.95, &profile, 1000, 7).unwrap();
        assert_eq!(config.num_servers(), 100);
        assert_eq!(config.num_dispatchers, 10);
        assert_eq!(config.rounds, 1000);
        assert!((config.offered_load() - 0.95).abs() < 1e-12);
        // Same seed → same cluster; different seed → (almost surely) different.
        let again = SimConfig::paper_setup(100, 10, 0.95, &profile, 1000, 7).unwrap();
        assert_eq!(config.spec, again.spec);
        let other = SimConfig::paper_setup(100, 10, 0.95, &profile, 1000, 8).unwrap();
        assert_ne!(config.spec, other.spec);
    }
}
