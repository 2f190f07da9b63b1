//! Time-varying, trace-driven workloads layered over the arrival processes.
//!
//! A [`WorkloadSpec`] generalizes the stationary [`ArrivalSpec`]: the
//! per-dispatcher Poisson rates it resolves become the *base* rates of a
//! modulated process. The spec can modulate them with an MMPP phase chain
//! (Markov-modulated Poisson), a deterministic diurnal sinusoid, or
//! seeded flash-crowd spikes; split jobs into heavy-tailed *size classes*
//! (a job of size `s` enqueues `s` unit jobs at once — a compound Poisson
//! process calibrated to preserve the offered load); or bypass synthesis
//! entirely and [replay](WorkloadSpec::replay) a recorded
//! [`ArrivalTrace`] bit-exactly.
//!
//! The default spec is inert ([`WorkloadSpec::is_inert`]) and the engine
//! promises that an inert spec reconstructs the stationary arrival path
//! **bit for bit** — same RNG stream, same draws; the goldens in
//! `tests/engine_golden.rs` are the proof (the same contract pattern as the
//! scenario layer's inert [`ScenarioSpec`](crate::ScenarioSpec)).
//!
//! An *active* workload abandons the stateful arrival RNG entirely: every
//! draw is a counter-mode pure function of the workload seed via
//! `scd_model::streams` (`WORKLOAD_STREAM_TAG`), keyed by each dispatcher's
//! **global** id and the round number. Sharded and unsharded runs therefore
//! see one global workload schedule — `ShardedSimulation` pins the workload
//! master and hands every shard its dispatchers' global ids through
//! [`WorkloadSpec::dispatcher_ids`], exactly as the scenario layer does for
//! fault schedules.
//!
//! Workload files for the `sweep` binary's `--workload` flag use the same
//! plain `key = value` format as scenario files
//! ([`WorkloadSpec::from_key_values`]).

use crate::arrivals::ArrivalSpec;
use crate::engine::SimError;
use crate::key_values::{lex, Entry, LineWriter};
use scd_model::streams::{counter_draw, derive_stream_seed, unit_f64, WORKLOAD_STREAM_TAG};

/// Largest supported number of job-size classes (bounds the counter-mode
/// step space of one `(dispatcher, round)` cell).
pub const MAX_JOB_CLASSES: usize = 8;
/// Largest supported number of MMPP phases.
pub const MAX_MMPP_PHASES: usize = 64;
/// Counter-mode Poisson draws split the mean into chunks of at most this
/// size; each chunk consumes one 64-bit draw (inverse-CDF walk).
const CHUNK_MEAN: f64 = 16.0;
/// Chunks reserved per `(round, class)` step cell. Together with
/// [`CHUNK_MEAN`] this caps the per-class event rate (after modulation) at
/// `MAX_CHUNKS × CHUNK_MEAN = 8192` events per dispatcher per round.
const MAX_CHUNKS: u64 = 512;
/// Derivation index of the system-wide MMPP phase chain (the upper index
/// family of `WORKLOAD_STREAM_TAG`; per-dispatcher streams use the plain
/// global id).
const MMPP_CHAIN_INDEX: u64 = 1 << 63;
/// Derivation index of the system-wide flash-crowd offset stream.
const FLASH_CHAIN_INDEX: u64 = (1 << 63) | 1;

/// One phase of an MMPP modulation: the rate multiplier while the chain
/// sits in this phase, and the per-round probability of advancing to the
/// next phase (cyclically).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MmppPhase {
    /// Arrival-rate multiplier applied while this phase is active.
    pub rate_multiplier: f64,
    /// Per-round probability of advancing to the next phase.
    pub switch_prob: f64,
}

/// How the base arrival rates vary over time. Exactly one family at a time;
/// the multiplier `g(t)` it defines scales every dispatcher's rate in round
/// `t` (one *global* schedule — dispatchers share the phase chain).
#[derive(Debug, Clone, PartialEq, Default)]
pub enum ModulationSpec {
    /// Stationary: `g(t) = 1`.
    #[default]
    None,
    /// Markov-modulated Poisson process: a cyclic phase chain starting in
    /// phase 0; each round the chain advances to the next phase with the
    /// current phase's `switch_prob` (drawn from the system-wide
    /// counter-mode chain stream), and `g(t)` is the current phase's
    /// `rate_multiplier`.
    Mmpp {
        /// The phases, visited cyclically.
        phases: Vec<MmppPhase>,
    },
    /// Deterministic diurnal sinusoid:
    /// `g(t) = 1 + amplitude · sin(2π t / period)`.
    Diurnal {
        /// Cycle length in rounds.
        period: u64,
        /// Peak deviation from the base rate, in `[0, 1]`.
        amplitude: f64,
    },
    /// Seeded flash crowds: every `every` rounds one spike of `duration`
    /// rounds starts at a uniformly drawn offset within the window, during
    /// which `g(t) = 1 + magnitude`. The expected excess arrival mass per
    /// window per dispatcher is exactly `magnitude · duration · λ_d`.
    FlashCrowd {
        /// Window length in rounds (one spike per window).
        every: u64,
        /// Spike length in rounds (at most `every`).
        duration: u64,
        /// Rate surplus during a spike (`g = 1 + magnitude`).
        magnitude: f64,
    },
}

impl ModulationSpec {
    /// The largest multiplier `g(t)` this modulation can produce — used to
    /// bound the counter-mode draw budget at validation time.
    pub fn max_multiplier(&self) -> f64 {
        match self {
            ModulationSpec::None => 1.0,
            ModulationSpec::Mmpp { phases } => {
                phases.iter().map(|p| p.rate_multiplier).fold(0.0, f64::max)
            }
            ModulationSpec::Diurnal { amplitude, .. } => 1.0 + amplitude,
            ModulationSpec::FlashCrowd { magnitude, .. } => 1.0 + magnitude,
        }
    }
}

/// One job-size class of a compound (heavy-tailed) arrival process: a class
/// event enqueues `size` unit jobs at once. Class event rates are
/// calibrated so the expected number of unit jobs per round is unchanged:
/// with class probabilities `p_c ∝ weight_c` and mean size
/// `s̄ = Σ p_c · size_c`, class `c` fires at `λ_d · p_c / s̄` events per
/// round at dispatcher `d`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobClass {
    /// Unit jobs enqueued per class event (≥ 1).
    pub size: u64,
    /// Relative frequency weight (> 0).
    pub weight: f64,
}

/// A recorded per-dispatcher, per-round arrival-count matrix — the raw
/// sampled counts *before* any scenario losses, so replaying a trace under
/// the same scenario re-applies the identical losses.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalTrace {
    num_dispatchers: usize,
    rounds: u64,
    /// Round-major counts: `counts[round * num_dispatchers + dispatcher]`.
    counts: Vec<u64>,
}

impl ArrivalTrace {
    /// An all-zero trace for `num_dispatchers` dispatchers over `rounds`
    /// rounds.
    ///
    /// # Panics
    /// Panics if the `rounds × num_dispatchers` cell count overflows
    /// `usize`.
    pub fn new(num_dispatchers: usize, rounds: u64) -> Self {
        let cells = Self::cells(num_dispatchers, rounds)
            .expect("arrival-trace dimensions overflow the address space");
        ArrivalTrace {
            num_dispatchers,
            rounds,
            counts: vec![0; cells],
        }
    }

    /// The `rounds × num_dispatchers` cell count, `None` on overflow.
    fn cells(num_dispatchers: usize, rounds: u64) -> Option<usize> {
        usize::try_from(rounds).ok()?.checked_mul(num_dispatchers)
    }

    /// Number of dispatcher columns.
    pub fn num_dispatchers(&self) -> usize {
        self.num_dispatchers
    }

    /// Number of recorded rounds.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// The recorded count of one `(round, dispatcher)` cell.
    ///
    /// # Panics
    /// Panics if the round or dispatcher is out of range.
    pub fn count(&self, round: u64, dispatcher: usize) -> u64 {
        assert!(round < self.rounds && dispatcher < self.num_dispatchers);
        self.counts[round as usize * self.num_dispatchers + dispatcher]
    }

    /// Sets the count of one `(round, dispatcher)` cell.
    ///
    /// # Panics
    /// Panics if the round or dispatcher is out of range.
    pub fn set(&mut self, round: u64, dispatcher: usize, count: u64) {
        assert!(round < self.rounds && dispatcher < self.num_dispatchers);
        self.counts[round as usize * self.num_dispatchers + dispatcher] = count;
    }

    /// Renders the trace in the plain-text trace-file format: a header line
    /// followed by one comma-separated row of counts per round.
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "scd-arrival-trace v1 rounds={} dispatchers={}\n",
            self.rounds, self.num_dispatchers
        );
        for round in 0..self.rounds as usize {
            let row = &self.counts[round * self.num_dispatchers..][..self.num_dispatchers];
            let mut first = true;
            for &c in row {
                if !first {
                    out.push(',');
                }
                out.push_str(&c.to_string());
                first = false;
            }
            out.push('\n');
        }
        out
    }

    /// Parses the [`to_text`](ArrivalTrace::to_text) format.
    ///
    /// # Errors
    /// Returns [`SimError::InvalidConfig`] for a malformed header, a header
    /// promising more counts than the text holds, a row count mismatch, or
    /// unparsable counts.
    pub fn from_text(text: &str) -> Result<ArrivalTrace, SimError> {
        let mut lines = text.lines();
        let header = lines
            .next()
            .ok_or_else(|| SimError::InvalidConfig("empty arrival trace".into()))?;
        let bad_header =
            || SimError::InvalidConfig(format!("malformed arrival-trace header: {header:?}"));
        let mut rounds: Option<u64> = None;
        let mut dispatchers: Option<usize> = None;
        let mut words = header.split_whitespace();
        if words.next() != Some("scd-arrival-trace") || words.next() != Some("v1") {
            return Err(bad_header());
        }
        for word in words {
            let (key, value) = word.split_once('=').ok_or_else(bad_header)?;
            match key {
                "rounds" => rounds = Some(value.parse().map_err(|_| bad_header())?),
                "dispatchers" => dispatchers = Some(value.parse().map_err(|_| bad_header())?),
                _ => return Err(bad_header()),
            }
        }
        let (rounds, dispatchers) = match (rounds, dispatchers) {
            (Some(r), Some(d)) => (r, d),
            _ => return Err(bad_header()),
        };
        // Every count takes at least one byte of text, so a header promising
        // more cells than the text has bytes cannot be satisfied — reject it
        // before allocating the table it describes.
        match Self::cells(dispatchers, rounds) {
            Some(cells) if cells <= text.len() => {}
            _ => {
                return Err(SimError::InvalidConfig(format!(
                    "arrival-trace header promises {rounds} rounds x {dispatchers} \
                     dispatchers, more counts than the {}-byte trace can hold",
                    text.len()
                )))
            }
        }
        let mut trace = ArrivalTrace::new(dispatchers, rounds);
        let mut row = 0u64;
        for line in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if row >= rounds {
                return Err(SimError::InvalidConfig(format!(
                    "arrival trace has more than {rounds} rows"
                )));
            }
            for (d, cell) in line.split(',').enumerate() {
                if d >= dispatchers {
                    return Err(SimError::InvalidConfig(format!(
                        "arrival trace row {row} has more than {dispatchers} columns"
                    )));
                }
                let count: u64 = cell.trim().parse().map_err(|_| {
                    SimError::InvalidConfig(format!("arrival trace row {row}: bad count {cell:?}"))
                })?;
                trace.set(row, d, count);
            }
            row += 1;
        }
        if row != rounds {
            return Err(SimError::InvalidConfig(format!(
                "arrival trace has {row} rows, header promises {rounds}"
            )));
        }
        Ok(trace)
    }
}

/// Declarative description of a time-varying / trace-driven workload.
///
/// The default value is the inert workload — see
/// [`is_inert`](WorkloadSpec::is_inert).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorkloadSpec {
    /// How the base arrival rates vary over time.
    pub modulation: ModulationSpec,
    /// Job-size classes of the compound arrival process; empty means a
    /// single unit-size class (plain Poisson).
    pub classes: Vec<JobClass>,
    /// Replay a recorded arrival trace instead of synthesizing arrivals.
    /// Mutually exclusive with modulation and classes (the trace already
    /// embodies them).
    pub replay: Option<ArrivalTrace>,
    /// The workload master seed; `None` uses the run's master seed. The
    /// sharded engine pins this to the base run's master so every shard
    /// derives the identical global schedule.
    pub seed: Option<u64>,
    /// Global id of each local dispatcher (`dispatcher_ids[local] =
    /// global`), for shard slices of a larger run. `None` means local ids
    /// are global.
    pub dispatcher_ids: Option<Vec<u32>>,
}

impl WorkloadSpec {
    /// Whether this workload asks for nothing at all, in which case the
    /// engine samples arrivals from the stationary arrival RNG stream and
    /// is bit-identical to the pre-workload engine (the goldens in
    /// `tests/engine_golden.rs` pin this).
    pub fn is_inert(&self) -> bool {
        self.modulation == ModulationSpec::None && self.classes.is_empty() && self.replay.is_none()
    }

    /// The workload master seed for a run whose master seed is `master`.
    pub fn resolved_seed(&self, master: u64) -> u64 {
        self.seed.unwrap_or(master)
    }

    /// The global id of local dispatcher `local`.
    ///
    /// # Panics
    /// Panics if an id map is present but shorter than `local` (prevented
    /// by [`validate`](WorkloadSpec::validate)).
    pub fn dispatcher_global_id(&self, local: usize) -> u64 {
        match &self.dispatcher_ids {
            Some(map) => map[local] as u64,
            None => local as u64,
        }
    }

    /// Validates the workload against the run's arrival spec, dispatcher
    /// count, round count and total capacity.
    ///
    /// # Errors
    /// Returns [`SimError::InvalidConfig`] when a parameter is out of range
    /// (non-finite multipliers, switch probabilities outside `[0, 1]`,
    /// diurnal amplitude outside `[0, 1]`, zero-length windows or spikes
    /// longer than their window, zero-size or zero-weight classes), when an
    /// active modulation or class mix rides non-Poisson arrivals, when a
    /// modulated per-class event rate exceeds the counter-mode draw budget,
    /// when a replay trace is too short for the run or combined with
    /// synthesis, or when the dispatcher id map does not match `m`.
    pub fn validate(
        &self,
        arrivals: &ArrivalSpec,
        num_dispatchers: usize,
        rounds: u64,
        total_capacity: f64,
    ) -> Result<(), SimError> {
        match &self.modulation {
            ModulationSpec::None => {}
            ModulationSpec::Mmpp { phases } => {
                if phases.is_empty() || phases.len() > MAX_MMPP_PHASES {
                    return Err(SimError::InvalidConfig(format!(
                        "MMPP needs between 1 and {MAX_MMPP_PHASES} phases, got {}",
                        phases.len()
                    )));
                }
                for (i, phase) in phases.iter().enumerate() {
                    if !phase.rate_multiplier.is_finite() || phase.rate_multiplier < 0.0 {
                        return Err(SimError::InvalidConfig(format!(
                            "MMPP phase {i}: rate multiplier must be finite and non-negative, \
                             got {}",
                            phase.rate_multiplier
                        )));
                    }
                    if !phase.switch_prob.is_finite() || !(0.0..=1.0).contains(&phase.switch_prob) {
                        return Err(SimError::InvalidConfig(format!(
                            "MMPP phase {i}: switch probability must be in [0, 1], got {}",
                            phase.switch_prob
                        )));
                    }
                }
            }
            ModulationSpec::Diurnal { period, amplitude } => {
                if *period == 0 {
                    return Err(SimError::InvalidConfig(
                        "diurnal period must be at least one round".into(),
                    ));
                }
                if !amplitude.is_finite() || !(0.0..=1.0).contains(amplitude) {
                    return Err(SimError::InvalidConfig(format!(
                        "diurnal amplitude must be in [0, 1], got {amplitude}"
                    )));
                }
            }
            ModulationSpec::FlashCrowd {
                every,
                duration,
                magnitude,
            } => {
                if *every == 0 || *duration == 0 || duration > every {
                    return Err(SimError::InvalidConfig(format!(
                        "flash crowd needs 1 <= duration <= every, got every={every} \
                         duration={duration}"
                    )));
                }
                if !magnitude.is_finite() || *magnitude < 0.0 {
                    return Err(SimError::InvalidConfig(format!(
                        "flash-crowd magnitude must be finite and non-negative, got {magnitude}"
                    )));
                }
            }
        }
        if self.classes.len() > MAX_JOB_CLASSES {
            return Err(SimError::InvalidConfig(format!(
                "at most {MAX_JOB_CLASSES} job classes are supported, got {}",
                self.classes.len()
            )));
        }
        for (c, class) in self.classes.iter().enumerate() {
            if class.size == 0 {
                return Err(SimError::InvalidConfig(format!(
                    "job class {c}: size must be at least one job"
                )));
            }
            if !class.weight.is_finite() || class.weight <= 0.0 {
                return Err(SimError::InvalidConfig(format!(
                    "job class {c}: weight must be finite and positive, got {}",
                    class.weight
                )));
            }
        }
        let synthesizes = self.modulation != ModulationSpec::None || !self.classes.is_empty();
        if let Some(trace) = &self.replay {
            if synthesizes {
                return Err(SimError::InvalidConfig(
                    "a replay workload cannot also modulate or mix classes \
                     (the trace already embodies them)"
                        .into(),
                ));
            }
            if trace.rounds() < rounds {
                return Err(SimError::InvalidConfig(format!(
                    "replay trace covers {} rounds, the run needs {rounds}",
                    trace.rounds()
                )));
            }
            for d in 0..num_dispatchers {
                let global = self.dispatcher_global_id(d);
                if global >= trace.num_dispatchers() as u64 {
                    return Err(SimError::InvalidConfig(format!(
                        "replay trace has {} dispatcher columns, dispatcher {d} maps to \
                         global id {global}",
                        trace.num_dispatchers()
                    )));
                }
            }
        }
        if synthesizes
            && !matches!(
                arrivals,
                ArrivalSpec::PoissonOfferedLoad { .. } | ArrivalSpec::PoissonRates { .. }
            )
        {
            return Err(SimError::InvalidConfig(
                "an active workload (modulation or job classes) requires Poisson \
                 arrivals — deterministic arrivals have no rate to modulate"
                    .into(),
            ));
        }
        if let Some(map) = &self.dispatcher_ids {
            if map.len() != num_dispatchers {
                return Err(SimError::InvalidConfig(format!(
                    "workload dispatcher id map has {} entries for {num_dispatchers} \
                     dispatchers",
                    map.len()
                )));
            }
        }
        if synthesizes {
            // The counter-mode sampler reserves MAX_CHUNKS draws of mean
            // CHUNK_MEAN per (round, class) cell; a modulated event rate
            // beyond that budget would silently truncate.
            let rates = arrivals.per_dispatcher_rates(num_dispatchers, total_capacity)?;
            let g_max = self.modulation.max_multiplier();
            let budget = MAX_CHUNKS as f64 * CHUNK_MEAN;
            for (d, &rate) in rates.iter().enumerate() {
                // Per-class event rates never exceed the whole dispatcher
                // rate (weights are a partition), so checking λ_d suffices.
                if rate * g_max > budget {
                    return Err(SimError::InvalidConfig(format!(
                        "dispatcher {d}: modulated arrival rate {} exceeds the \
                         counter-mode draw budget of {budget} events per round",
                        rate * g_max
                    )));
                }
            }
        }
        Ok(())
    }

    /// Builds the counter-mode sampler of this workload for a run with
    /// master seed `master` and resolved per-dispatcher base rates
    /// `base_rates` (one per local dispatcher).
    ///
    /// Call only on an active (non-inert), validated spec.
    pub fn sampler<'a>(&'a self, master: u64, base_rates: &[f64]) -> WorkloadSampler<'a> {
        let seed = self.resolved_seed(master);
        let m = base_rates.len();
        let dispatcher_seeds: Vec<u64> = (0..m)
            .map(|d| derive_stream_seed(seed, WORKLOAD_STREAM_TAG, self.dispatcher_global_id(d)))
            .collect();
        // Normalize the class mix into per-dispatcher event rates that
        // preserve the expected unit-job rate.
        let (class_sizes, class_probs): (Vec<u64>, Vec<f64>) = if self.classes.is_empty() {
            (vec![1], vec![1.0])
        } else {
            let total: f64 = self.classes.iter().map(|c| c.weight).sum();
            (
                self.classes.iter().map(|c| c.size).collect(),
                self.classes.iter().map(|c| c.weight / total).collect(),
            )
        };
        let mean_size: f64 = class_sizes
            .iter()
            .zip(&class_probs)
            .map(|(&s, &p)| s as f64 * p)
            .sum();
        let event_rates: Vec<f64> = base_rates
            .iter()
            .flat_map(|&rate| {
                class_probs
                    .iter()
                    .map(move |&p| rate * p / mean_size)
                    .collect::<Vec<f64>>()
            })
            .collect();
        let mmpp = match &self.modulation {
            ModulationSpec::Mmpp { phases } => Some(MmppWalk {
                seed: derive_stream_seed(seed, WORKLOAD_STREAM_TAG, MMPP_CHAIN_INDEX),
                phases: phases.clone(),
                phase: 0,
                next_round: 0,
            }),
            _ => None,
        };
        let flash_seed = derive_stream_seed(seed, WORKLOAD_STREAM_TAG, FLASH_CHAIN_INDEX);
        WorkloadSampler {
            spec: self,
            m,
            dispatcher_seeds,
            class_sizes,
            event_rates,
            mmpp,
            flash_seed,
        }
    }

    /// Parses the `key = value` workload-file format of the `sweep`
    /// binary's `--workload` flag: one assignment per line, `#` comments,
    /// blank lines ignored.
    ///
    /// Recognized keys: `mmpp_phases` (comma-separated
    /// `multiplier:switch_prob` pairs), `diurnal_period` +
    /// `diurnal_amplitude`, `flash_every` + `flash_duration` +
    /// `flash_magnitude` — the three modulation families are mutually
    /// exclusive; `class` (a `size:weight` pair, repeatable); `seed` (pins
    /// the workload master). Replay traces and id maps are engine-internal
    /// and have no file syntax.
    ///
    /// # Errors
    /// Returns [`SimError::InvalidConfig`] for malformed lines, unknown
    /// keys, unparsable values, incomplete families, or more than one
    /// modulation family.
    pub fn from_key_values(text: &str) -> Result<WorkloadSpec, SimError> {
        let mut keys = WorkloadKeys::default();
        for entry in lex("workload", text) {
            keys.apply(&entry?)?;
        }
        keys.finish()
    }

    /// Renders the workload back into the `key = value` file format —
    /// [`from_key_values`](WorkloadSpec::from_key_values) of the result
    /// reconstructs `self` exactly (replay traces and id maps excepted;
    /// they have no file syntax).
    pub fn to_key_values(&self) -> String {
        let mut out = LineWriter::default();
        self.write_key_values(&mut out);
        out.into_text()
    }

    /// Writes the workload's file-format lines to `out`.
    pub(crate) fn write_key_values(&self, out: &mut LineWriter) {
        match &self.modulation {
            ModulationSpec::None => {}
            ModulationSpec::Mmpp { phases } => {
                let pairs: Vec<String> = phases
                    .iter()
                    .map(|p| format!("{}:{}", p.rate_multiplier, p.switch_prob))
                    .collect();
                out.line("mmpp_phases", pairs.join(","));
            }
            ModulationSpec::Diurnal { period, amplitude } => {
                out.line("diurnal_period", period);
                out.line("diurnal_amplitude", amplitude);
            }
            ModulationSpec::FlashCrowd {
                every,
                duration,
                magnitude,
            } => {
                out.line("flash_every", every);
                out.line("flash_duration", duration);
                out.line("flash_magnitude", magnitude);
            }
        }
        for class in &self.classes {
            out.line("class", format_args!("{}:{}", class.size, class.weight));
        }
        if let Some(seed) = self.seed {
            out.line("seed", seed);
        }
    }
}

/// The workload file's key table, filled one entry at a time: from a
/// workload file, or from a configuration's `workload.*` entries.
#[derive(Debug, Default)]
pub(crate) struct WorkloadKeys {
    spec: WorkloadSpec,
    mmpp: Option<Vec<MmppPhase>>,
    diurnal_period: Option<u64>,
    diurnal_amplitude: Option<f64>,
    flash_every: Option<u64>,
    flash_duration: Option<u64>,
    flash_magnitude: Option<f64>,
}

impl WorkloadKeys {
    /// Applies one entry.
    pub(crate) fn apply(&mut self, entry: &Entry<'_>) -> Result<(), SimError> {
        match entry.name {
            "mmpp_phases" => {
                let phases = entry
                    .value
                    .split(',')
                    .map(|pair| {
                        let (rate_multiplier, switch_prob) =
                            entry.pair(pair, "multiplier:switch_prob pairs")?;
                        Ok(MmppPhase {
                            rate_multiplier,
                            switch_prob,
                        })
                    })
                    .collect::<Result<_, SimError>>()?;
                self.mmpp = Some(phases);
            }
            "diurnal_period" => self.diurnal_period = Some(entry.parse("an integer")?),
            "diurnal_amplitude" => self.diurnal_amplitude = Some(entry.parse("a float")?),
            "flash_every" => self.flash_every = Some(entry.parse("an integer")?),
            "flash_duration" => self.flash_duration = Some(entry.parse("an integer")?),
            "flash_magnitude" => self.flash_magnitude = Some(entry.parse("a float")?),
            "class" => {
                let (size, weight) = entry.pair(entry.value, "a size:weight pair")?;
                self.spec.classes.push(JobClass { size, weight });
            }
            "seed" => self.spec.seed = Some(entry.parse("an integer")?),
            _ => return Err(entry.unknown_key()),
        }
        Ok(())
    }

    /// The workload the entries describe.
    pub(crate) fn finish(self) -> Result<WorkloadSpec, SimError> {
        let incomplete = |family: &str| {
            SimError::InvalidConfig(format!(
                "workload sets an incomplete {family} family (all of its keys are required)"
            ))
        };
        let diurnal = match (self.diurnal_period, self.diurnal_amplitude) {
            (Some(period), Some(amplitude)) => Some(ModulationSpec::Diurnal { period, amplitude }),
            (None, None) => None,
            _ => return Err(incomplete("diurnal")),
        };
        let flash = match (self.flash_every, self.flash_duration, self.flash_magnitude) {
            (Some(every), Some(duration), Some(magnitude)) => Some(ModulationSpec::FlashCrowd {
                every,
                duration,
                magnitude,
            }),
            (None, None, None) => None,
            _ => return Err(incomplete("flash-crowd")),
        };
        let mut families = self
            .mmpp
            .map(|phases| ModulationSpec::Mmpp { phases })
            .into_iter()
            .chain(diurnal)
            .chain(flash);
        let modulation = families.next().unwrap_or(ModulationSpec::None);
        if families.next().is_some() {
            return Err(SimError::InvalidConfig(
                "workload sets more than one modulation family \
                 (mmpp / diurnal / flash); pick one"
                    .into(),
            ));
        }
        Ok(WorkloadSpec {
            modulation,
            ..self.spec
        })
    }
}

/// The MMPP phase walk: phase 0 at round 0; before serving round `t ≥ 1`
/// the chain draws `u_t` from the system-wide chain stream and advances
/// cyclically when `u_t < switch_prob(phase_{t-1})`.
#[derive(Debug, Clone)]
struct MmppWalk {
    seed: u64,
    phases: Vec<MmppPhase>,
    phase: usize,
    next_round: u64,
}

/// A built workload sampler: every draw is a counter-mode pure function of
/// `(workload seed, global dispatcher id | chain index, round, class,
/// chunk)`, so any shard layout replays the identical global schedule.
///
/// [`begin_round`](WorkloadSampler::begin_round) must be called for rounds
/// `0, 1, 2, …` in order (the MMPP walk is incremental); sampling itself is
/// stateless.
#[derive(Debug, Clone)]
pub struct WorkloadSampler<'a> {
    spec: &'a WorkloadSpec,
    m: usize,
    dispatcher_seeds: Vec<u64>,
    class_sizes: Vec<u64>,
    /// `event_rates[d * classes + c]`: base event rate of class `c` at
    /// local dispatcher `d`.
    event_rates: Vec<f64>,
    mmpp: Option<MmppWalk>,
    flash_seed: u64,
}

impl WorkloadSampler<'_> {
    /// Advances the modulation chains to `round` and returns the rate
    /// multiplier `g(round)`.
    ///
    /// # Panics
    /// Panics if rounds are visited out of order (the MMPP walk cannot
    /// rewind).
    pub fn begin_round(&mut self, round: u64) -> f64 {
        let mut g = 1.0;
        if let Some(walk) = self.mmpp.as_mut() {
            assert!(
                walk.next_round <= round + 1,
                "workload rounds must be visited in order"
            );
            while walk.next_round <= round {
                if walk.next_round > 0 {
                    let u = unit_f64(counter_draw(walk.seed, walk.next_round));
                    if u < walk.phases[walk.phase].switch_prob {
                        walk.phase = (walk.phase + 1) % walk.phases.len();
                    }
                }
                walk.next_round += 1;
            }
            g *= walk.phases[walk.phase].rate_multiplier;
        }
        match &self.spec.modulation {
            ModulationSpec::Diurnal { period, amplitude } => {
                g *=
                    1.0 + amplitude * (std::f64::consts::TAU * round as f64 / *period as f64).sin();
            }
            ModulationSpec::FlashCrowd {
                every,
                duration,
                magnitude,
            } => {
                let window = round / every;
                let offset = counter_draw(self.flash_seed, window) % (every - duration + 1);
                let position = round % every;
                if position >= offset && position < offset + duration {
                    g *= 1.0 + magnitude;
                }
            }
            _ => {}
        }
        g.max(0.0)
    }

    /// The MMPP phase active after the last
    /// [`begin_round`](WorkloadSampler::begin_round) (for tests and
    /// diagnostics); `None` without MMPP modulation.
    pub fn current_phase(&self) -> Option<usize> {
        self.mmpp.as_ref().map(|walk| walk.phase)
    }

    /// Samples (or replays) every local dispatcher's arrival count for
    /// `round` under multiplier `g` and appends them to `out`.
    pub fn sample_into(&self, round: u64, g: f64, out: &mut Vec<u64>) {
        if let Some(trace) = &self.spec.replay {
            for d in 0..self.m {
                out.push(trace.count(round, self.spec.dispatcher_global_id(d) as usize));
            }
            return;
        }
        let classes = self.class_sizes.len();
        for d in 0..self.m {
            let seed = self.dispatcher_seeds[d];
            let mut total = 0u64;
            for (c, &size) in self.class_sizes.iter().enumerate() {
                let rate = self.event_rates[d * classes + c] * g;
                let step_base = (round * MAX_JOB_CLASSES as u64 + c as u64) * MAX_CHUNKS;
                total += size * poisson_counter(seed, step_base, rate);
            }
            out.push(total);
        }
    }
}

/// One counter-mode Poisson draw of mean `lambda`, split into chunks of
/// mean at most [`CHUNK_MEAN`] (one 64-bit draw and one inverse-CDF walk
/// per chunk — Poisson sums, so the chunk total is exact).
fn poisson_counter(seed: u64, step_base: u64, lambda: f64) -> u64 {
    if lambda <= 0.0 {
        return 0;
    }
    let chunks = ((lambda / CHUNK_MEAN).ceil() as u64).clamp(1, MAX_CHUNKS);
    let chunk_lambda = lambda / chunks as f64;
    let mut total = 0u64;
    for chunk in 0..chunks {
        let u = unit_f64(counter_draw(seed, step_base + chunk));
        total += poisson_inverse(chunk_lambda, u);
    }
    total
}

/// Inverse-CDF Poisson draw: the smallest `k` with `F(k) > u`. The walk is
/// bounded far beyond any quantile reachable by a 53-bit uniform, so
/// floating-point underflow of the pmf cannot loop.
fn poisson_inverse(lambda: f64, u: f64) -> u64 {
    let mut k = 0u64;
    let mut pmf = (-lambda).exp();
    let mut cdf = pmf;
    let bound = (lambda * 12.0).ceil() as u64 + 64;
    while u >= cdf && k < bound {
        k += 1;
        pmf *= lambda / k as f64;
        cdf += pmf;
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;

    fn poisson_arrivals() -> ArrivalSpec {
        ArrivalSpec::PoissonOfferedLoad { offered_load: 0.9 }
    }

    #[test]
    fn default_workload_is_inert() {
        let spec = WorkloadSpec::default();
        assert!(spec.is_inert());
        assert_eq!(spec.resolved_seed(42), 42);
        assert_eq!(spec.dispatcher_global_id(3), 3);
        spec.validate(&poisson_arrivals(), 4, 100, 10.0).unwrap();
    }

    #[test]
    fn any_active_ingredient_defeats_inertness() {
        let mmpp = WorkloadSpec {
            modulation: ModulationSpec::Mmpp {
                phases: vec![MmppPhase {
                    rate_multiplier: 1.0,
                    switch_prob: 0.0,
                }],
            },
            ..WorkloadSpec::default()
        };
        assert!(!mmpp.is_inert());
        let classes = WorkloadSpec {
            classes: vec![JobClass {
                size: 2,
                weight: 1.0,
            }],
            ..WorkloadSpec::default()
        };
        assert!(!classes.is_inert());
        let replay = WorkloadSpec {
            replay: Some(ArrivalTrace::new(2, 10)),
            ..WorkloadSpec::default()
        };
        assert!(!replay.is_inert());
        // Seed and id maps alone do not activate the layer (they only
        // matter once something else does).
        let pinned = WorkloadSpec {
            seed: Some(7),
            dispatcher_ids: Some(vec![0, 1]),
            ..WorkloadSpec::default()
        };
        assert!(pinned.is_inert());
    }

    #[test]
    fn validation_rejects_out_of_range_parameters() {
        let arrivals = poisson_arrivals();
        let cases: Vec<WorkloadSpec> = vec![
            WorkloadSpec {
                modulation: ModulationSpec::Mmpp { phases: vec![] },
                ..WorkloadSpec::default()
            },
            WorkloadSpec {
                modulation: ModulationSpec::Mmpp {
                    phases: vec![MmppPhase {
                        rate_multiplier: f64::NAN,
                        switch_prob: 0.1,
                    }],
                },
                ..WorkloadSpec::default()
            },
            WorkloadSpec {
                modulation: ModulationSpec::Mmpp {
                    phases: vec![MmppPhase {
                        rate_multiplier: 1.0,
                        switch_prob: 1.5,
                    }],
                },
                ..WorkloadSpec::default()
            },
            WorkloadSpec {
                modulation: ModulationSpec::Diurnal {
                    period: 0,
                    amplitude: 0.5,
                },
                ..WorkloadSpec::default()
            },
            WorkloadSpec {
                modulation: ModulationSpec::Diurnal {
                    period: 100,
                    amplitude: 1.5,
                },
                ..WorkloadSpec::default()
            },
            WorkloadSpec {
                modulation: ModulationSpec::FlashCrowd {
                    every: 10,
                    duration: 11,
                    magnitude: 1.0,
                },
                ..WorkloadSpec::default()
            },
            WorkloadSpec {
                modulation: ModulationSpec::FlashCrowd {
                    every: 0,
                    duration: 0,
                    magnitude: 1.0,
                },
                ..WorkloadSpec::default()
            },
            WorkloadSpec {
                classes: vec![JobClass {
                    size: 0,
                    weight: 1.0,
                }],
                ..WorkloadSpec::default()
            },
            WorkloadSpec {
                classes: vec![JobClass {
                    size: 1,
                    weight: 0.0,
                }],
                ..WorkloadSpec::default()
            },
            WorkloadSpec {
                dispatcher_ids: Some(vec![0]),
                classes: vec![JobClass {
                    size: 1,
                    weight: 1.0,
                }],
                ..WorkloadSpec::default()
            },
        ];
        for (i, spec) in cases.iter().enumerate() {
            assert!(
                spec.validate(&arrivals, 4, 100, 10.0).is_err(),
                "case {i} accepted: {spec:?}"
            );
        }
    }

    #[test]
    fn validation_rejects_replay_shape_mismatches_and_synthesis() {
        let arrivals = poisson_arrivals();
        // Trace shorter than the run.
        let spec = WorkloadSpec {
            replay: Some(ArrivalTrace::new(4, 50)),
            ..WorkloadSpec::default()
        };
        assert!(spec.validate(&arrivals, 4, 100, 10.0).is_err());
        // Trace with too few dispatcher columns for the mapped ids.
        let spec = WorkloadSpec {
            replay: Some(ArrivalTrace::new(2, 100)),
            dispatcher_ids: Some(vec![0, 3]),
            ..WorkloadSpec::default()
        };
        assert!(spec.validate(&arrivals, 2, 100, 10.0).is_err());
        // Replay combined with synthesis.
        let spec = WorkloadSpec {
            replay: Some(ArrivalTrace::new(4, 100)),
            classes: vec![JobClass {
                size: 2,
                weight: 1.0,
            }],
            ..WorkloadSpec::default()
        };
        assert!(spec.validate(&arrivals, 4, 100, 10.0).is_err());
        // A well-shaped replay passes.
        let spec = WorkloadSpec {
            replay: Some(ArrivalTrace::new(4, 100)),
            ..WorkloadSpec::default()
        };
        spec.validate(&arrivals, 4, 100, 10.0).unwrap();
    }

    #[test]
    fn validation_rejects_modulated_deterministic_arrivals_and_budget_blowups() {
        let spec = WorkloadSpec {
            modulation: ModulationSpec::Diurnal {
                period: 100,
                amplitude: 0.5,
            },
            ..WorkloadSpec::default()
        };
        assert!(spec
            .validate(
                &ArrivalSpec::Deterministic { jobs_per_round: 2 },
                4,
                100,
                10.0
            )
            .is_err());
        // 0.9 load over capacity 1e5 with one dispatcher and a 1.5× diurnal
        // peak → modulated λ = 135 000, beyond the 8 192 events/round counter
        // budget; capacity 6 000 peaks at 8 100 and fits.
        assert!(spec
            .validate(&poisson_arrivals(), 1, 100, 100_000.0)
            .is_err());
        spec.validate(&poisson_arrivals(), 1, 100, 6_000.0).unwrap();
    }

    #[test]
    fn stationary_sampler_matches_the_poisson_mean() {
        let spec = WorkloadSpec {
            // A single always-on phase: active layer, identity modulation.
            modulation: ModulationSpec::Mmpp {
                phases: vec![MmppPhase {
                    rate_multiplier: 1.0,
                    switch_prob: 0.0,
                }],
            },
            ..WorkloadSpec::default()
        };
        let rates = [7.5, 2.0];
        let mut sampler = spec.sampler(42, &rates);
        let rounds = 20_000u64;
        let mut totals = [0u64; 2];
        let mut out = Vec::new();
        for t in 0..rounds {
            let g = sampler.begin_round(t);
            assert_eq!(g, 1.0);
            out.clear();
            sampler.sample_into(t, g, &mut out);
            totals[0] += out[0];
            totals[1] += out[1];
        }
        for (d, &rate) in rates.iter().enumerate() {
            let mean = totals[d] as f64 / rounds as f64;
            assert!(
                (mean - rate).abs() < 0.08 * rate.max(1.0),
                "dispatcher {d}: empirical mean {mean} vs rate {rate}"
            );
        }
    }

    #[test]
    fn class_mix_preserves_the_offered_load_and_quantizes_batches() {
        let spec = WorkloadSpec {
            classes: vec![
                JobClass {
                    size: 1,
                    weight: 0.9,
                },
                JobClass {
                    size: 10,
                    weight: 0.1,
                },
            ],
            ..WorkloadSpec::default()
        };
        let rates = [12.0];
        let mut sampler = spec.sampler(7, &rates);
        let rounds = 30_000u64;
        let mut total = 0u64;
        let mut out = Vec::new();
        for t in 0..rounds {
            let g = sampler.begin_round(t);
            out.clear();
            sampler.sample_into(t, g, &mut out);
            total += out[0];
        }
        let mean = total as f64 / rounds as f64;
        // The compound process is calibrated to the same unit-job rate.
        assert!(
            (mean - 12.0).abs() < 0.4,
            "compound mean {mean} drifted from 12"
        );
    }

    #[test]
    fn sampling_is_a_pure_function_of_seed_and_round() {
        let spec = WorkloadSpec {
            modulation: ModulationSpec::FlashCrowd {
                every: 50,
                duration: 5,
                magnitude: 3.0,
            },
            ..WorkloadSpec::default()
        };
        let rates = [4.0, 4.0, 4.0];
        let run = |spec: &WorkloadSpec| {
            let mut sampler = spec.sampler(99, &rates);
            let mut all = Vec::new();
            for t in 0..500 {
                let g = sampler.begin_round(t);
                sampler.sample_into(t, g, &mut all);
            }
            all
        };
        assert_eq!(run(&spec), run(&spec));
        // Pinning the seed to the same master changes nothing; a different
        // seed changes the schedule.
        let pinned = WorkloadSpec {
            seed: Some(99),
            ..spec.clone()
        };
        assert_eq!(run(&spec), run(&pinned));
        let other = WorkloadSpec {
            seed: Some(100),
            ..spec.clone()
        };
        assert_ne!(run(&spec), run(&other));
    }

    #[test]
    fn global_id_maps_select_trace_columns_and_streams() {
        // A sampler for dispatchers {1, 3} of a 4-dispatcher system must
        // reproduce columns 1 and 3 of the full sampler.
        let full = WorkloadSpec {
            modulation: ModulationSpec::Mmpp {
                phases: vec![
                    MmppPhase {
                        rate_multiplier: 1.0,
                        switch_prob: 0.1,
                    },
                    MmppPhase {
                        rate_multiplier: 3.0,
                        switch_prob: 0.3,
                    },
                ],
            },
            ..WorkloadSpec::default()
        };
        let slice = WorkloadSpec {
            seed: Some(5),
            dispatcher_ids: Some(vec![1, 3]),
            ..full.clone()
        };
        let rates = [6.0, 6.0, 6.0, 6.0];
        let mut full_sampler = full.sampler(5, &rates);
        let mut slice_sampler = slice.sampler(1234, &rates[..2]); // master ignored: seed pinned
        let mut full_out = Vec::new();
        let mut slice_out = Vec::new();
        for t in 0..300 {
            let g_full = full_sampler.begin_round(t);
            let g_slice = slice_sampler.begin_round(t);
            assert_eq!(g_full, g_slice, "round {t}: chains must agree");
            full_out.clear();
            slice_out.clear();
            full_sampler.sample_into(t, g_full, &mut full_out);
            slice_sampler.sample_into(t, g_slice, &mut slice_out);
            assert_eq!(slice_out[0], full_out[1], "round {t}");
            assert_eq!(slice_out[1], full_out[3], "round {t}");
        }
    }

    #[test]
    fn replay_reproduces_the_trace_verbatim() {
        let mut trace = ArrivalTrace::new(3, 20);
        for t in 0..20 {
            for d in 0..3 {
                trace.set(t, d, t * 10 + d as u64);
            }
        }
        let spec = WorkloadSpec {
            replay: Some(trace.clone()),
            ..WorkloadSpec::default()
        };
        let rates = [0.0, 0.0, 0.0];
        let mut sampler = spec.sampler(0, &rates);
        let mut out = Vec::new();
        for t in 0..20 {
            let g = sampler.begin_round(t);
            out.clear();
            sampler.sample_into(t, g, &mut out);
            assert_eq!(out, vec![t * 10, t * 10 + 1, t * 10 + 2]);
        }
    }

    #[test]
    fn arrival_trace_text_round_trips() {
        let mut trace = ArrivalTrace::new(2, 5);
        for t in 0..5 {
            trace.set(t, 0, t);
            trace.set(t, 1, 100 - t);
        }
        let text = trace.to_text();
        assert_eq!(ArrivalTrace::from_text(&text).unwrap(), trace);
        for bad in [
            "",
            "not-a-trace v1 rounds=2 dispatchers=1\n0\n0\n",
            "scd-arrival-trace v1 rounds=2\n0\n0\n",
            "scd-arrival-trace v1 rounds=2 dispatchers=1\n0\n",
            "scd-arrival-trace v1 rounds=1 dispatchers=1\n0\n0\n",
            "scd-arrival-trace v1 rounds=1 dispatchers=1\nbanana\n",
            "scd-arrival-trace v1 rounds=1 dispatchers=1\n0,1\n",
        ] {
            assert!(ArrivalTrace::from_text(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn key_value_format_round_trips() {
        let cases = [
            WorkloadSpec::default(),
            WorkloadSpec {
                modulation: ModulationSpec::Mmpp {
                    phases: vec![
                        MmppPhase {
                            rate_multiplier: 1.0,
                            switch_prob: 0.05,
                        },
                        MmppPhase {
                            rate_multiplier: 4.0,
                            switch_prob: 0.25,
                        },
                    ],
                },
                classes: vec![
                    JobClass {
                        size: 1,
                        weight: 0.9,
                    },
                    JobClass {
                        size: 8,
                        weight: 0.1,
                    },
                ],
                seed: Some(77),
                ..WorkloadSpec::default()
            },
            WorkloadSpec {
                modulation: ModulationSpec::Diurnal {
                    period: 500,
                    amplitude: 0.4,
                },
                ..WorkloadSpec::default()
            },
            WorkloadSpec {
                modulation: ModulationSpec::FlashCrowd {
                    every: 200,
                    duration: 20,
                    magnitude: 2.5,
                },
                ..WorkloadSpec::default()
            },
        ];
        for spec in cases {
            let text = spec.to_key_values();
            let parsed = WorkloadSpec::from_key_values(&text).unwrap();
            assert_eq!(parsed, spec, "round trip through {text:?}");
        }
    }

    #[test]
    fn parser_handles_comments_and_rejects_malformed_input() {
        let spec = WorkloadSpec::from_key_values(
            "# bursty preset\n\nmmpp_phases = 1:0.05, 4:0.2 # calm/storm\nclass = 4:0.5\n",
        )
        .unwrap();
        assert_eq!(
            spec.modulation,
            ModulationSpec::Mmpp {
                phases: vec![
                    MmppPhase {
                        rate_multiplier: 1.0,
                        switch_prob: 0.05
                    },
                    MmppPhase {
                        rate_multiplier: 4.0,
                        switch_prob: 0.2
                    },
                ]
            }
        );
        assert_eq!(spec.classes.len(), 1);

        for bad in [
            "no equals sign",
            "unknown_key = 1",
            "mmpp_phases = 1.0",
            "mmpp_phases = a:b",
            "class = 4",
            "diurnal_period = 100", // incomplete family
            "flash_every = 10\nflash_duration = 2",
            "mmpp_phases = 1:0.1\ndiurnal_period = 10\ndiurnal_amplitude = 0.2",
        ] {
            assert!(
                WorkloadSpec::from_key_values(bad).is_err(),
                "accepted {bad:?}"
            );
        }
    }

    #[test]
    fn poisson_inverse_is_monotone_and_bounded() {
        for &lambda in &[0.25, 1.0, 8.0, 16.0] {
            let mut last = 0;
            for i in 0..100 {
                let u = i as f64 / 100.0;
                let k = poisson_inverse(lambda, u);
                assert!(k >= last, "quantile must be monotone in u");
                last = k;
            }
            // Even a u of 1-ulp terminates within the bound.
            let k = poisson_inverse(lambda, 1.0 - f64::EPSILON);
            assert!(k <= (lambda * 12.0).ceil() as u64 + 64);
        }
    }
}
