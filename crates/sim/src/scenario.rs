//! Deterministic fault, churn, and stale-information scenarios.
//!
//! A [`ScenarioSpec`] describes everything that can go wrong in a run:
//! seeded server crash/repair processes, dispatcher churn (an offline
//! dispatcher contributes no arrivals), per-dispatcher stale snapshots
//! (decisions taken on a `k`-round-old queue view), and probe loss for the
//! probe-marking policies (LSQ, LED). The default spec is "no faults", and
//! the engine promises that a default spec reconstructs the fair-weather
//! round loop **bit for bit** — the goldens in `tests/engine_golden.rs` are
//! the proof.
//!
//! Every stochastic element of a scenario derives from one scenario master
//! seed (the run's master seed unless [`ScenarioSpec::seed`] pins one) via
//! the counter-mode streams of `scd_model::streams`
//! (`FAULT_STREAM_TAG`, `STALENESS_STREAM_TAG`, `PROBE_LOSS_STREAM_TAG`),
//! keyed by each entity's **global** id. A sharded run therefore replays the
//! exact schedule of the unsharded run: `ShardedSimulation` pins the
//! scenario master and hands every shard the global ids of its servers and
//! dispatchers through [`ScenarioSpec::server_ids`] /
//! [`ScenarioSpec::dispatcher_ids`].
//!
//! Scenario files for the `sweep` binary's `--scenario` flag use the
//! workspace's plain `key = value` format
//! ([`ScenarioSpec::from_key_values`]), read by the lexer `SimConfig` and
//! `WorkloadSpec` share; the scenario keeps its own key table.
//!
//! The engine runs an active spec through a `ScenarioRuntime`: the fault
//! and staleness schedules, the availability mask, the snapshot ring, the
//! probe-loss oracle and the herding counters. An inert spec builds none
//! of it, which is what keeps the fair-weather round loop bit-identical.

use crate::checkpoint::ScenarioState;
use crate::engine::SimError;
use crate::key_values::{lex, Entry, LineWriter};
use crate::report::DegradationMetrics;
use scd_model::streams::{
    counter_draw, derive_stream_seed, unit_f64, FAULT_STREAM_TAG, PROBE_LOSS_STREAM_TAG,
    STALENESS_STREAM_TAG,
};
use scd_model::{Availability, DegradedView, ProbeLossOracle};

/// How stale each dispatcher's queue-length view is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StalenessSpec {
    /// Every dispatcher sees the fresh round-`t` snapshot (the paper's
    /// baseline information model, and the default).
    #[default]
    Fresh,
    /// Every dispatcher decides on the snapshot of round `t − k` (clamped
    /// to round 0 while the run is younger than `k`). `k = 0` exercises the
    /// scenario code path with fresh information — bit-identical to
    /// [`Fresh`](StalenessSpec::Fresh) by contract.
    Fixed {
        /// The snapshot age in rounds.
        k: u64,
    },
    /// Each dispatcher independently draws its view's age uniformly from
    /// `0..=max_k` every round, from the `STALENESS_STREAM_TAG` stream of
    /// its global id.
    UniformPerRound {
        /// The largest possible snapshot age.
        max_k: u64,
    },
}

impl StalenessSpec {
    /// The deepest snapshot age this spec can request — the engine sizes
    /// its snapshot ring as `max_k() + 1`.
    pub fn max_k(&self) -> u64 {
        match self {
            StalenessSpec::Fresh => 0,
            StalenessSpec::Fixed { k } => *k,
            StalenessSpec::UniformPerRound { max_k } => *max_k,
        }
    }
}

/// Upper bound on the staleness depth — bounds the engine's snapshot ring.
pub const MAX_STALENESS: u64 = 4_096;

/// Deterministic description of the failures a run is subjected to.
///
/// All probabilities are per entity per round: an up server crashes with
/// probability `server_fail_rate` and a down one repairs with
/// `server_repair_rate` (geometric up/down spans), and likewise for
/// dispatchers. Every process starts in the up state at round 0.
///
/// The default value is the inert scenario — see
/// [`is_inert`](ScenarioSpec::is_inert).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Per-round crash probability of an up server.
    pub server_fail_rate: f64,
    /// Per-round repair probability of a down server.
    pub server_repair_rate: f64,
    /// Per-round churn-out probability of an online dispatcher.
    pub dispatcher_fail_rate: f64,
    /// Per-round return probability of an offline dispatcher.
    pub dispatcher_repair_rate: f64,
    /// The staleness model of the dispatchers' queue views.
    pub staleness: StalenessSpec,
    /// Per-probe loss probability for probe-marking policies (LSQ, LED).
    pub probe_loss_rate: f64,
    /// The scenario master seed; `None` uses the run's master seed. The
    /// sharded engine pins this to the base run's master so every shard
    /// derives the identical schedule.
    pub seed: Option<u64>,
    /// Global id of each local server (`server_ids[local] = global`), for
    /// shard slices of a larger run. `None` means local ids are global.
    pub server_ids: Option<Vec<u32>>,
    /// Global id of each local dispatcher; `None` means local ids are
    /// global.
    pub dispatcher_ids: Option<Vec<u32>>,
}

impl Default for ScenarioSpec {
    fn default() -> Self {
        ScenarioSpec {
            server_fail_rate: 0.0,
            server_repair_rate: 0.0,
            dispatcher_fail_rate: 0.0,
            dispatcher_repair_rate: 0.0,
            staleness: StalenessSpec::Fresh,
            probe_loss_rate: 0.0,
            seed: None,
            server_ids: None,
            dispatcher_ids: None,
        }
    }
}

impl ScenarioSpec {
    /// Whether this scenario asks for nothing at all, in which case the
    /// engine runs the fair-weather fast path (no fault phase, no snapshot
    /// ring, shared per-round context and cache) and is bit-identical to
    /// the pre-scenario engine.
    ///
    /// Note the asymmetry with [`StalenessSpec::Fresh`]: `Fixed { k: 0 }`
    /// is *not* inert — it routes through the scenario code path (a fault
    /// phase every round, contexts carrying a degraded view), whose
    /// bit-identity to the fast path is a tested contract rather than a
    /// definition.
    pub fn is_inert(&self) -> bool {
        self.server_fail_rate == 0.0
            && self.server_repair_rate == 0.0
            && self.dispatcher_fail_rate == 0.0
            && self.dispatcher_repair_rate == 0.0
            && self.staleness == StalenessSpec::Fresh
            && self.probe_loss_rate == 0.0
    }

    /// Whether any server/dispatcher fault process can ever fire.
    pub fn has_faults(&self) -> bool {
        self.server_fail_rate > 0.0 || self.dispatcher_fail_rate > 0.0
    }

    /// The scenario master seed for a run whose master seed is `master`.
    pub fn resolved_seed(&self, master: u64) -> u64 {
        self.seed.unwrap_or(master)
    }

    /// The global id of local server `local`.
    ///
    /// # Panics
    /// Panics if an id map is present but shorter than `local` (prevented
    /// by [`validate`](ScenarioSpec::validate)).
    pub fn server_global_id(&self, local: usize) -> u64 {
        match &self.server_ids {
            Some(map) => map[local] as u64,
            None => local as u64,
        }
    }

    /// The global id of local dispatcher `local`.
    ///
    /// # Panics
    /// Panics if an id map is present but shorter than `local` (prevented
    /// by [`validate`](ScenarioSpec::validate)).
    pub fn dispatcher_global_id(&self, local: usize) -> u64 {
        match &self.dispatcher_ids {
            Some(map) => map[local] as u64,
            None => local as u64,
        }
    }

    /// Validates the scenario against a cluster of `num_servers` servers
    /// and `num_dispatchers` dispatchers.
    ///
    /// # Errors
    /// Returns [`SimError::InvalidConfig`] when a rate is not a probability,
    /// the staleness depth exceeds [`MAX_STALENESS`], or an id map's length
    /// does not match the cluster.
    pub fn validate(&self, num_servers: usize, num_dispatchers: usize) -> Result<(), SimError> {
        let rates = [
            ("server fail rate", self.server_fail_rate),
            ("server repair rate", self.server_repair_rate),
            ("dispatcher fail rate", self.dispatcher_fail_rate),
            ("dispatcher repair rate", self.dispatcher_repair_rate),
            ("probe loss rate", self.probe_loss_rate),
        ];
        for (name, rate) in rates {
            if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
                return Err(SimError::InvalidConfig(format!(
                    "scenario {name} must be a probability in [0, 1], got {rate}"
                )));
            }
        }
        let max_k = self.staleness.max_k();
        if max_k > MAX_STALENESS {
            return Err(SimError::InvalidConfig(format!(
                "scenario staleness depth {max_k} exceeds the supported maximum {MAX_STALENESS}"
            )));
        }
        if let Some(map) = &self.server_ids {
            if map.len() != num_servers {
                return Err(SimError::InvalidConfig(format!(
                    "scenario server id map has {} entries for a cluster of {num_servers} servers",
                    map.len()
                )));
            }
        }
        if let Some(map) = &self.dispatcher_ids {
            if map.len() != num_dispatchers {
                return Err(SimError::InvalidConfig(format!(
                    "scenario dispatcher id map has {} entries for {num_dispatchers} dispatchers",
                    map.len()
                )));
            }
        }
        Ok(())
    }

    /// Parses the `key = value` scenario-file format of the `sweep` binary:
    /// one assignment per line, `#` comments, blank lines ignored.
    ///
    /// Recognized keys: `server_fail_rate`, `server_repair_rate`,
    /// `dispatcher_fail_rate`, `dispatcher_repair_rate`, `probe_loss_rate`
    /// (floats); `stale_k` (fixed staleness) or `stale_max_k` (per-round
    /// uniform draw) — mutually exclusive; `seed` (pins the scenario
    /// master). Id maps are engine-internal and have no file syntax.
    ///
    /// # Errors
    /// Returns [`SimError::InvalidConfig`] for malformed lines, unknown
    /// keys, unparsable values, or both staleness keys at once.
    pub fn from_key_values(text: &str) -> Result<ScenarioSpec, SimError> {
        let mut keys = ScenarioKeys::default();
        for entry in lex("scenario", text) {
            keys.apply(&entry?)?;
        }
        keys.finish()
    }

    /// Renders the scenario back into the `key = value` file format —
    /// [`from_key_values`](ScenarioSpec::from_key_values) of the result
    /// reconstructs `self` exactly (id maps excepted; they have no file
    /// syntax).
    pub fn to_key_values(&self) -> String {
        let mut out = LineWriter::default();
        self.write_key_values(&mut out);
        out.into_text()
    }

    /// Writes the scenario's file-format lines to `out`.
    pub(crate) fn write_key_values(&self, out: &mut LineWriter) {
        out.line("server_fail_rate", self.server_fail_rate);
        out.line("server_repair_rate", self.server_repair_rate);
        out.line("dispatcher_fail_rate", self.dispatcher_fail_rate);
        out.line("dispatcher_repair_rate", self.dispatcher_repair_rate);
        out.line("probe_loss_rate", self.probe_loss_rate);
        match self.staleness {
            StalenessSpec::Fresh => {}
            StalenessSpec::Fixed { k } => out.line("stale_k", k),
            StalenessSpec::UniformPerRound { max_k } => out.line("stale_max_k", max_k),
        }
        if let Some(seed) = self.seed {
            out.line("seed", seed);
        }
    }
}

/// The scenario file's key table, filled one entry at a time: from a
/// scenario file, or from a configuration's `scenario.*` entries.
#[derive(Debug, Default)]
pub(crate) struct ScenarioKeys {
    spec: ScenarioSpec,
    stale_k: Option<u64>,
    stale_max_k: Option<u64>,
}

impl ScenarioKeys {
    /// Applies one entry.
    pub(crate) fn apply(&mut self, entry: &Entry<'_>) -> Result<(), SimError> {
        let spec = &mut self.spec;
        match entry.name {
            "server_fail_rate" => spec.server_fail_rate = entry.parse("a float")?,
            "server_repair_rate" => spec.server_repair_rate = entry.parse("a float")?,
            "dispatcher_fail_rate" => spec.dispatcher_fail_rate = entry.parse("a float")?,
            "dispatcher_repair_rate" => spec.dispatcher_repair_rate = entry.parse("a float")?,
            "probe_loss_rate" => spec.probe_loss_rate = entry.parse("a float")?,
            "stale_k" => self.stale_k = Some(entry.parse("an integer")?),
            "stale_max_k" => self.stale_max_k = Some(entry.parse("an integer")?),
            "seed" => spec.seed = Some(entry.parse("an integer")?),
            _ => return Err(entry.unknown_key()),
        }
        Ok(())
    }

    /// The scenario the entries describe.
    pub(crate) fn finish(self) -> Result<ScenarioSpec, SimError> {
        let staleness = match (self.stale_k, self.stale_max_k) {
            (Some(_), Some(_)) => {
                return Err(SimError::InvalidConfig(
                    "scenario sets both `stale_k` and `stale_max_k`; pick one".into(),
                ));
            }
            (Some(k), None) => StalenessSpec::Fixed { k },
            (None, Some(max_k)) => StalenessSpec::UniformPerRound { max_k },
            (None, None) => StalenessSpec::Fresh,
        };
        Ok(ScenarioSpec {
            staleness,
            ..self.spec
        })
    }
}

/// The mid-run state of an active scenario, stepped by the engine once per
/// round. Every schedule is drawn in counter mode (`counter_draw`) from
/// seeds keyed by *global* entity ids, so a sharded run replays the
/// identical schedule regardless of layout.
#[derive(Debug)]
pub(crate) struct ScenarioRuntime<'a> {
    spec: &'a ScenarioSpec,
    server_fault_seeds: Vec<u64>,
    dispatcher_fault_seeds: Vec<u64>,
    stale_seeds: Vec<u64>,
    /// The last `max_k + 1` snapshots, indexed by `round % ring.len()`;
    /// present only when staleness is possible.
    ring: Option<Vec<Vec<u64>>>,
    oracle: Option<ProbeLossOracle>,
    avail: Availability,
    dispatcher_up: Vec<bool>,
    /// Per-dispatcher view age this round, clamped to `round` so the ring
    /// lookup never reaches before round 0.
    k_effs: Vec<u64>,
    /// Whether each dispatcher's *previous* round view was stale: a
    /// dispatcher returning to a fresh view must not trust the one-round
    /// dirty diff, since its own last-seen view was older.
    stale_prev: Vec<bool>,
    /// Herding detector scratch: jobs received per server this round,
    /// cleared sparsely through the touched list.
    recv_counts: Vec<u64>,
    recv_touched: Vec<u32>,
    degradation: DegradationMetrics,
}

impl<'a> ScenarioRuntime<'a> {
    /// The runtime of `spec` for a cluster of `n` servers and `m`
    /// dispatchers, or `None` when the spec is inert.
    pub(crate) fn new(
        spec: &'a ScenarioSpec,
        master_seed: u64,
        n: usize,
        m: usize,
    ) -> Option<Self> {
        if spec.is_inert() {
            return None;
        }
        let seed = spec.resolved_seed(master_seed);
        let server_fault_seeds = if spec.server_fail_rate > 0.0 {
            (0..n)
                .map(|s| derive_stream_seed(seed, FAULT_STREAM_TAG, spec.server_global_id(s)))
                .collect()
        } else {
            Vec::new()
        };
        let dispatcher_fault_seeds = if spec.dispatcher_fail_rate > 0.0 {
            (0..m)
                .map(|d| {
                    // Dispatchers share the fault tag with servers but live
                    // in the upper half of the index space.
                    let index = (1u64 << 63) | spec.dispatcher_global_id(d);
                    derive_stream_seed(seed, FAULT_STREAM_TAG, index)
                })
                .collect()
        } else {
            Vec::new()
        };
        let stale_seeds = match spec.staleness {
            StalenessSpec::UniformPerRound { max_k } if max_k > 0 => (0..m)
                .map(|d| {
                    derive_stream_seed(seed, STALENESS_STREAM_TAG, spec.dispatcher_global_id(d))
                })
                .collect(),
            _ => Vec::new(),
        };
        let oracle = (spec.probe_loss_rate > 0.0).then(|| {
            let seeds = (0..m)
                .map(|d| {
                    derive_stream_seed(seed, PROBE_LOSS_STREAM_TAG, spec.dispatcher_global_id(d))
                })
                .collect();
            ProbeLossOracle::new(seeds, spec.probe_loss_rate)
        });
        let max_k = spec.staleness.max_k();
        Some(ScenarioRuntime {
            spec,
            server_fault_seeds,
            dispatcher_fault_seeds,
            stale_seeds,
            ring: (max_k > 0).then(|| vec![vec![0u64; n]; (max_k + 1) as usize]),
            oracle,
            avail: Availability::all_up(n),
            dispatcher_up: vec![true; m],
            k_effs: vec![0; m],
            stale_prev: vec![false; m],
            recv_counts: vec![0; n],
            recv_touched: Vec::new(),
            degradation: DegradationMetrics::default(),
        })
    }

    /// Phase 0 of round `round`: faults and information defects. One
    /// counter-mode draw per entity per round; the draw itself is
    /// state-independent (only its *interpretation* depends on the current
    /// up/down state), so the schedule is a pure function of
    /// `(scenario seed, global id, round)`.
    pub(crate) fn begin_round(&mut self, round: u64) {
        let spec = self.spec;
        // An up entity crashes when its draw falls below the fail rate, a
        // down one repairs when it falls below the repair rate.
        let next_up = |up: bool, seed: u64, fail_rate: f64, repair_rate: f64| {
            let u = unit_f64(counter_draw(seed, round));
            if up {
                u >= fail_rate
            } else {
                u < repair_rate
            }
        };
        self.avail.begin_round();
        for (s, &seed) in self.server_fault_seeds.iter().enumerate() {
            let (fail, repair) = (spec.server_fail_rate, spec.server_repair_rate);
            self.avail
                .set(s, next_up(self.avail.is_up(s), seed, fail, repair));
        }
        self.avail.refresh();
        self.degradation.server_down_rounds +=
            (self.avail.num_servers() - self.avail.num_up()) as u64;
        for (up, &seed) in self
            .dispatcher_up
            .iter_mut()
            .zip(&self.dispatcher_fault_seeds)
        {
            let (fail, repair) = (spec.dispatcher_fail_rate, spec.dispatcher_repair_rate);
            *up = next_up(*up, seed, fail, repair);
        }
        self.degradation.dispatcher_offline_rounds +=
            self.dispatcher_up.iter().filter(|&&up| !up).count() as u64;
        // Each dispatcher's view age for this round, clamped to the history
        // that exists. `stale_prev` is recorded before the overwrite.
        for d in 0..self.k_effs.len() {
            self.stale_prev[d] = self.k_effs[d] > 0;
            let k = match spec.staleness {
                StalenessSpec::Fresh => 0,
                StalenessSpec::Fixed { k } => k,
                StalenessSpec::UniformPerRound { max_k } => {
                    if max_k == 0 {
                        0
                    } else {
                        counter_draw(self.stale_seeds[d], round) % (max_k + 1)
                    }
                }
            };
            let k_eff = k.min(round);
            self.k_effs[d] = k_eff;
            if k_eff > 0 && self.dispatcher_up[d] {
                self.degradation.stale_decision_rounds += 1;
            }
        }
    }

    /// Keeps round `round`'s fresh snapshot for the stale views of later
    /// rounds.
    pub(crate) fn record_snapshot(&mut self, round: u64, snapshot: &[u64]) {
        if let Some(ring) = self.ring.as_mut() {
            let depth = ring.len();
            ring[(round as usize) % depth].copy_from_slice(snapshot);
        }
    }

    /// Dispatcher `d`'s stale queue view in round `round`, or `None` when
    /// it sees the fresh snapshot.
    pub(crate) fn stale_view(&self, d: usize, round: u64) -> Option<&[u64]> {
        let k_eff = self.k_effs[d];
        if k_eff == 0 {
            return None;
        }
        let ring = self
            .ring
            .as_ref()
            .expect("a snapshot ring exists whenever staleness is possible");
        Some(&ring[((round - k_eff) as usize) % ring.len()])
    }

    /// Whether the engine's one-round dirty diff describes what dispatcher
    /// `d` saw last round and sees now: both views fresh.
    pub(crate) fn trusts_dirty(&self, d: usize) -> bool {
        self.k_effs[d] == 0 && !self.stale_prev[d]
    }

    /// Dispatcher `d`'s degraded-information view: availability is always
    /// current (failure detection is modelled as out-of-band), probes may
    /// be lost.
    pub(crate) fn degraded(&self, d: usize) -> DegradedView<'_> {
        DegradedView::new(&self.avail, self.oracle.as_ref(), d)
    }

    /// This round's availability mask.
    pub(crate) fn availability(&self) -> &Availability {
        &self.avail
    }

    /// Drops the arrivals of offline dispatchers — and every arrival while
    /// no server is up — counting them as lost. Arrivals are always
    /// *sampled* first, so the arrival stream does not depend on the
    /// scenario.
    pub(crate) fn drop_arrivals(&mut self, arrivals: &mut [u64]) {
        let no_server_up = self.avail.num_up() == 0;
        for (count, &up) in arrivals.iter_mut().zip(&self.dispatcher_up) {
            if (!up || no_server_up) && *count > 0 {
                self.degradation.arrivals_lost =
                    self.degradation.arrivals_lost.saturating_add(*count);
                *count = 0;
            }
        }
    }

    /// Counts `count` jobs dispatched to `server` this round.
    pub(crate) fn record_receipt(&mut self, server: usize, count: u64) {
        if self.recv_counts[server] == 0 {
            self.recv_touched.push(server as u32);
        }
        self.recv_counts[server] += count;
    }

    /// Closes the round's dispatch phase. Herding indicator: a round where
    /// one server received a strict majority of the (at least two)
    /// dispatched jobs — the signature failure mode of stale uncoordinated
    /// views.
    pub(crate) fn end_dispatch(&mut self) {
        let mut total = 0u64;
        let mut peak = 0u64;
        for &s in &self.recv_touched {
            let c = self.recv_counts[s as usize];
            total += c;
            peak = peak.max(c);
            self.recv_counts[s as usize] = 0;
        }
        self.recv_touched.clear();
        if total >= 2 && 2 * peak > total {
            self.degradation.herding_rounds += 1;
        }
    }

    /// The state a checkpoint carries.
    pub(crate) fn capture(&self) -> ScenarioState {
        ScenarioState {
            server_up: (0..self.avail.num_servers())
                .map(|s| self.avail.is_up(s))
                .collect(),
            dispatcher_up: self.dispatcher_up.clone(),
            k_effs: self.k_effs.clone(),
            ring: self.ring.clone(),
            degradation: self.degradation,
            oracle_dropped: self.oracle.as_ref().map_or(0, ProbeLossOracle::dropped),
        }
    }

    /// Restores a freshly built runtime to a checkpoint's state.
    ///
    /// # Errors
    /// A message naming the shape that disagrees with this runtime.
    pub(crate) fn restore(&mut self, state: &ScenarioState) -> Result<(), String> {
        let (n, m) = (self.avail.num_servers(), self.dispatcher_up.len());
        if state.server_up.len() != n || state.dispatcher_up.len() != m || state.k_effs.len() != m {
            return Err("scenario vector widths disagree".into());
        }
        match (self.ring.as_mut(), &state.ring) {
            (Some(dst), Some(src)) => {
                if src.len() != dst.len() || src.iter().any(|row| row.len() != n) {
                    return Err("snapshot-ring shape disagrees".into());
                }
                for (dst_row, src_row) in dst.iter_mut().zip(src) {
                    dst_row.copy_from_slice(src_row);
                }
            }
            (None, None) => {}
            _ => return Err("snapshot-ring presence disagrees".into()),
        }
        match self.oracle.as_ref() {
            Some(oracle) => oracle.preload_dropped(state.oracle_dropped),
            None if state.oracle_dropped != 0 => {
                return Err("probe-loss tally without a probe-loss oracle".into());
            }
            None => {}
        }
        for (server, &up) in state.server_up.iter().enumerate() {
            if !up {
                self.avail.set(server, false);
            }
        }
        self.avail.refresh();
        self.dispatcher_up.copy_from_slice(&state.dispatcher_up);
        self.k_effs.copy_from_slice(&state.k_effs);
        self.degradation = state.degradation;
        Ok(())
    }

    /// The run's degradation metrics, probe-loss tally included.
    pub(crate) fn into_metrics(self) -> DegradationMetrics {
        DegradationMetrics {
            probes_dropped: self.oracle.as_ref().map_or(0, ProbeLossOracle::dropped),
            ..self.degradation
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scenario_is_inert() {
        let spec = ScenarioSpec::default();
        assert!(spec.is_inert());
        assert!(!spec.has_faults());
        assert_eq!(spec.staleness.max_k(), 0);
        assert_eq!(spec.resolved_seed(42), 42);
        assert_eq!(spec.server_global_id(3), 3);
        assert_eq!(spec.dispatcher_global_id(1), 1);
        spec.validate(8, 3).unwrap();
    }

    #[test]
    fn stale_zero_is_active_but_fresh_is_not() {
        let fixed0 = ScenarioSpec {
            staleness: StalenessSpec::Fixed { k: 0 },
            ..ScenarioSpec::default()
        };
        assert!(
            !fixed0.is_inert(),
            "Fixed {{ k: 0 }} must take the scenario path"
        );
        assert_eq!(fixed0.staleness.max_k(), 0);
    }

    #[test]
    fn id_maps_override_global_ids() {
        let spec = ScenarioSpec {
            server_ids: Some(vec![4, 9]),
            dispatcher_ids: Some(vec![7]),
            ..ScenarioSpec::default()
        };
        assert_eq!(spec.server_global_id(1), 9);
        assert_eq!(spec.dispatcher_global_id(0), 7);
        spec.validate(2, 1).unwrap();
        assert!(spec.validate(3, 1).is_err());
        assert!(spec.validate(2, 2).is_err());
    }

    #[test]
    fn validation_rejects_non_probabilities_and_deep_staleness() {
        for bad in [-0.1, 1.5, f64::NAN, f64::INFINITY] {
            let spec = ScenarioSpec {
                server_fail_rate: bad,
                ..ScenarioSpec::default()
            };
            assert!(spec.validate(4, 2).is_err(), "accepted fail rate {bad}");
            let spec = ScenarioSpec {
                probe_loss_rate: bad,
                ..ScenarioSpec::default()
            };
            assert!(spec.validate(4, 2).is_err(), "accepted loss rate {bad}");
        }
        let spec = ScenarioSpec {
            staleness: StalenessSpec::Fixed {
                k: MAX_STALENESS + 1,
            },
            ..ScenarioSpec::default()
        };
        assert!(spec.validate(4, 2).is_err());
    }

    #[test]
    fn key_value_format_round_trips() {
        let cases = [
            ScenarioSpec::default(),
            ScenarioSpec {
                server_fail_rate: 0.05,
                server_repair_rate: 0.25,
                dispatcher_fail_rate: 0.01,
                dispatcher_repair_rate: 0.5,
                staleness: StalenessSpec::Fixed { k: 3 },
                probe_loss_rate: 0.1,
                seed: Some(77),
                ..ScenarioSpec::default()
            },
            ScenarioSpec {
                staleness: StalenessSpec::UniformPerRound { max_k: 8 },
                ..ScenarioSpec::default()
            },
        ];
        for spec in cases {
            let text = spec.to_key_values();
            let parsed = ScenarioSpec::from_key_values(&text).unwrap();
            assert_eq!(parsed, spec, "round trip through {text:?}");
        }
    }

    #[test]
    fn parser_handles_comments_and_rejects_malformed_input() {
        let spec = ScenarioSpec::from_key_values(
            "# a herding scenario\n\nserver_fail_rate = 0.02 # trailing comment\nstale_k = 2\n",
        )
        .unwrap();
        assert_eq!(spec.server_fail_rate, 0.02);
        assert_eq!(spec.staleness, StalenessSpec::Fixed { k: 2 });

        for bad in [
            "no equals sign",
            "unknown_key = 1",
            "server_fail_rate = banana",
            "stale_k = 1\nstale_max_k = 2",
            "stale_k = -3",
        ] {
            assert!(
                ScenarioSpec::from_key_values(bad).is_err(),
                "accepted {bad:?}"
            );
        }
    }
}
