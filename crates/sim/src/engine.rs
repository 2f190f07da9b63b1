//! The round engine (Section 2 of the paper): one `RoundState` per run,
//! stepped once per round through the phases of the synchronous round —
//! faults, snapshot, arrivals, dispatch, departures.

use crate::arrivals::ArrivalProcess;
use crate::checkpoint::EngineCheckpoint;
use crate::config::SimConfig;
use crate::queues::SegmentQueue;
use crate::report::{QueueSummary, SimReport};
use crate::scenario::ScenarioRuntime;
use crate::services::ServiceProcess;
use crate::trace::RunTrace;
use crate::workload::WorkloadSampler;
use rand::rngs::StdRng;
use rand::SeedableRng;
use scd_metrics::{DecisionTimeHistogram, QueueLengthTracker, ResponseTimeHistogram};
use scd_model::{
    BoxedPolicy, CacheDemand, DispatchContext, DispatcherId, ModelError, PolicyFactory, RoundCache,
    ServerId,
};
use std::error::Error;
use std::fmt;
use std::time::Instant;

// Seed-stream separation: each stochastic stream of the run is seeded from
// the master seed and a distinct tag (plus a per-dispatcher index for the
// policy streams), so that the arrival and departure processes are identical
// across policies while policy-internal randomness stays independent per
// dispatcher. The derivation lives in `scd_model::streams` so the sharded
// engine ([`crate::shard`]) can derive per-shard sub-masters with the same
// splitmix64 scheme.
use scd_model::streams::{
    derive_stream_seed, ARRIVAL_STREAM_TAG, POLICY_STREAM_TAG, SERVICE_STREAM_TAG,
};

/// Errors produced when configuring or running a simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The configuration is internally inconsistent.
    InvalidConfig(String),
    /// A policy returned an invalid assignment (wrong arity or unknown
    /// server).
    PolicyViolation {
        /// Name of the offending policy.
        policy: String,
        /// The dispatcher that produced the bad assignment.
        dispatcher: usize,
        /// The underlying validation error.
        source: ModelError,
    },
    /// An I/O failure talking to a process-fabric worker (spawn, stdin
    /// hand-off, pipe read, wait). Carries the worker's process id (0 when
    /// the process never spawned) and the shard it was running, so a fleet
    /// log line identifies the exact worker.
    Io {
        /// OS process id of the worker, or 0 if spawning itself failed.
        worker: u32,
        /// The shard the worker was assigned.
        shard: usize,
        /// Human-readable cause (the underlying `std::io::Error` text).
        cause: String,
    },
    /// A process-fabric frame failed to decode (truncated, bad checksum,
    /// wrong version, malformed payload).
    Codec {
        /// The shard whose frame was rejected.
        shard: usize,
        /// The typed codec failure.
        cause: crate::fabric::CodecError,
    },
    /// Shard reports disagree on run identity (shard count, config digest,
    /// policy or round clock) and were refused by the merge — merging
    /// reports of different runs would silently produce nonsense statistics.
    MergeMismatch(String),
    /// A checkpoint could not be restored: it was taken under a different
    /// configuration (digest mismatch), its round or shape disagrees with
    /// the resuming run, or a policy rejected its state blob.
    Checkpoint(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidConfig(msg) => write!(f, "invalid simulation configuration: {msg}"),
            SimError::PolicyViolation {
                policy,
                dispatcher,
                source,
            } => write!(
                f,
                "policy {policy} misbehaved at dispatcher {dispatcher}: {source}"
            ),
            SimError::Io {
                worker,
                shard,
                cause,
            } => write!(f, "worker {worker} (shard {shard}) I/O failure: {cause}"),
            SimError::Codec { shard, cause } => {
                write!(f, "shard {shard} report frame rejected: {cause}")
            }
            SimError::MergeMismatch(msg) => write!(f, "refusing to merge shard reports: {msg}"),
            SimError::Checkpoint(msg) => write!(f, "checkpoint rejected: {msg}"),
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::InvalidConfig(_) => None,
            SimError::PolicyViolation { source, .. } => Some(source),
            SimError::Io { .. } => None,
            SimError::Codec { cause, .. } => Some(cause),
            SimError::MergeMismatch(_) => None,
            SimError::Checkpoint(_) => None,
        }
    }
}

/// A configured simulation, ready to run any number of policies on identical
/// stochastic inputs.
#[derive(Debug, Clone)]
pub struct Simulation {
    config: SimConfig,
    /// Whether the round loop hands its round-to-round dirty sets to
    /// policies and the cache (see [`Simulation::with_delta_rounds`]).
    delta_rounds: bool,
}

impl Simulation {
    /// Validates the configuration and creates the simulation.
    ///
    /// # Errors
    /// Returns [`SimError::InvalidConfig`] for degenerate configurations
    /// (zero dispatchers, zero rounds, warm-up at least as long as the run).
    pub fn new(config: SimConfig) -> Result<Self, SimError> {
        if config.num_dispatchers == 0 {
            return Err(SimError::InvalidConfig(
                "the system must contain at least one dispatcher".into(),
            ));
        }
        if config.rounds == 0 {
            return Err(SimError::InvalidConfig(
                "the simulation must run for at least one round".into(),
            ));
        }
        if config.warmup_rounds >= config.rounds {
            return Err(SimError::InvalidConfig(format!(
                "warm-up ({}) must be shorter than the run ({})",
                config.warmup_rounds, config.rounds
            )));
        }
        config
            .scenario
            .validate(config.spec.num_servers(), config.num_dispatchers)?;
        config.validate_scale()?;
        config.arrivals.validate(config.num_dispatchers)?;
        config.workload.validate(
            &config.arrivals,
            config.num_dispatchers,
            config.rounds,
            config.spec.total_rate(),
        )?;
        Ok(Simulation {
            config,
            delta_rounds: true,
        })
    }

    /// The configuration this simulation runs.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Enables or disables round-to-round delta hand-off (default: enabled).
    ///
    /// The engine collects each round's dirty set — the dispatch targets
    /// plus the servers whose queues completed jobs — and, when enabled,
    /// exposes it through [`DispatchContext::dirty_servers`] and the
    /// [`RoundCache`] delta refresh, so warm per-round structures repair
    /// only what changed. The dirty set is a **pure accelerator**: reports
    /// are bit-identical for either setting. Disabling it (policies and the
    /// cache then resynchronize in full every round) is the test oracle
    /// that pins this.
    pub fn with_delta_rounds(mut self, enabled: bool) -> Self {
        self.delta_rounds = enabled;
        self
    }

    /// Runs the configured system under the given policy and collects the
    /// result.
    ///
    /// For a fixed configuration (and therefore fixed seed) the arrival and
    /// service processes are identical across calls, so reports for
    /// different policies are directly comparable (the paper's methodology).
    ///
    /// # Errors
    /// Returns [`SimError::PolicyViolation`] if the policy returns an
    /// assignment with the wrong number of destinations or an out-of-range
    /// server.
    pub fn run(&self, factory: &dyn PolicyFactory) -> Result<SimReport, SimError> {
        let mut state = RoundState::new(self, factory, None)?;
        for round in 0..self.config.rounds {
            state.faults(round);
            state.snapshot(round);
            state.arrivals(round);
            state.dispatch(round)?;
            state.departures(round);
        }
        Ok(state.finish())
    }

    /// Runs the simulation, optionally resumed from `resume`, handing a
    /// checkpoint to `sink` every `every` rounds — at rounds that are
    /// positive multiples of `every`, skipping the resume round itself
    /// (the worker just received that state; re-emitting it would be
    /// retry fuel without progress). `every == 0` captures nothing. This
    /// is the only way to capture or resume a run: a resumed run produces
    /// the report an uninterrupted [`run`](Simulation::run) would have, bit
    /// for bit (pinned by the resume tests), and a sink that has what it
    /// needs can stop the run early by returning an error.
    ///
    /// # Errors
    /// [`SimError::Checkpoint`] if `resume` was taken under a different
    /// configuration (digest mismatch), its round or shape disagrees with
    /// this run, or a policy rejects its state blob; any error returned by
    /// `sink` (which aborts the run); plus every error
    /// [`run`](Simulation::run) can produce.
    pub fn run_with_checkpoints(
        &self,
        factory: &dyn PolicyFactory,
        every: u64,
        resume: Option<&EngineCheckpoint>,
        sink: &mut dyn FnMut(EngineCheckpoint) -> Result<(), SimError>,
    ) -> Result<SimReport, SimError> {
        let mut state = RoundState::new(self, factory, None)?;
        let start = match resume {
            Some(checkpoint) => state.restore(checkpoint)?,
            None => 0,
        };
        for round in start..self.config.rounds {
            if every > 0 && round % every == 0 && round != 0 && round != start {
                sink(state.capture(round))?;
            }
            state.faults(round);
            state.snapshot(round);
            state.arrivals(round);
            state.dispatch(round)?;
            state.departures(round);
        }
        Ok(state.finish())
    }

    /// Like [`run`](Simulation::run), additionally recording a per-job event
    /// trace: every raw sampled arrival count (replayable bit-exactly via
    /// [`WorkloadSpec::replay`](crate::WorkloadSpec::replay)) plus
    /// arrival/dispatch/service events renderable with
    /// [`chrome_trace_json`](crate::chrome_trace_json). Tracing never
    /// perturbs the run: the report is bit-identical to
    /// [`run`](Simulation::run).
    ///
    /// # Errors
    /// Same conditions as [`run`](Simulation::run).
    pub fn run_traced(
        &self,
        factory: &dyn PolicyFactory,
    ) -> Result<(SimReport, RunTrace), SimError> {
        let config = &self.config;
        let mut trace = RunTrace::new(
            config.num_dispatchers,
            config.spec.num_servers(),
            config.rounds,
        );
        let mut state = RoundState::new(self, factory, Some(&mut trace))?;
        for round in 0..config.rounds {
            state.faults(round);
            state.snapshot(round);
            state.arrivals(round);
            state.dispatch(round)?;
            state.departures(round);
        }
        let report = state.finish();
        Ok((report, trace))
    }
}

/// What the dispatchers observe in a round: the fresh snapshot and its
/// dirty diff, the shared per-round cache, and — under an active scenario —
/// the per-dispatcher stale views and degraded information.
struct RoundView<'a> {
    rates: &'a [f64],
    num_dispatchers: usize,
    round: u64,
    /// The queue lengths at the start of the round.
    snapshot: Vec<u64>,
    /// The servers whose queue length differs from the previous round's
    /// snapshot: exact (dispatch targets ∪ servers with completions, minus
    /// no-net-change servers), deduplicated and ascending.
    dirty: Vec<u32>,
    /// Whether `dirty` is handed to policies and the cache this round: never
    /// in round 0 (no predecessor snapshot) nor with
    /// [`Simulation::with_delta_rounds`] off.
    have_deltas: bool,
    /// Derived tables identical across the round's dispatchers (reciprocal
    /// rates, the SCD dispatch table), computed once and handed out as
    /// immutable views; the SCD table is built inside the round's first
    /// SCD dispatch.
    cache: RoundCache,
    /// The most demanding policy's declaration: runs that never read the
    /// cache (JSQ, WR, ...) skip its refresh entirely.
    cache_demand: CacheDemand,
    /// `None` for an inert scenario.
    scenario: Option<ScenarioRuntime<'a>>,
}

impl RoundView<'_> {
    /// The context dispatcher `d` observes and dispatches with this round.
    ///
    /// In fair weather every dispatcher gets the same context: the fresh
    /// snapshot, the cache and the dirty diff. A dispatcher with a stale
    /// view gets neither the cache (its tables describe a state it does not
    /// observe) nor the dirty diff, and it keeps going without the diff for
    /// its first fresh round (its own last view was older). Availability
    /// and probe loss are always current. `ctx.round()` stays the current
    /// round even for stale views: policies time-stamp their internal state
    /// with it, and the view age is an information defect, not time travel.
    fn ctx(&self, d: usize) -> DispatchContext<'_> {
        let scenario = self.scenario.as_ref();
        let (rates, m, round) = (self.rates, self.num_dispatchers, self.round);
        let ctx = match scenario.and_then(|s| s.stale_view(d, round)) {
            Some(view) => DispatchContext::new(view, rates, m, round),
            None if self.cache_demand > CacheDemand::None => {
                DispatchContext::with_cache(&self.snapshot, rates, m, round, &self.cache)
            }
            None => DispatchContext::new(&self.snapshot, rates, m, round),
        };
        let ctx = match scenario {
            Some(s) => ctx.with_degraded(s.degraded(d)),
            None => ctx,
        };
        if self.have_deltas && scenario.is_none_or(|s| s.trusts_dirty(d)) {
            ctx.with_dirty(&self.dirty)
        } else {
            ctx
        }
    }
}

/// The state of one run, built once by [`RoundState::new`] and stepped
/// once per round by the phase methods, called in order: [`faults`],
/// [`snapshot`], [`arrivals`], [`dispatch`], [`departures`]. Buffers are
/// reused across rounds, so after warm-up a round performs no heap
/// allocations.
///
/// [`faults`]: RoundState::faults
/// [`snapshot`]: RoundState::snapshot
/// [`arrivals`]: RoundState::arrivals
/// [`dispatch`]: RoundState::dispatch
/// [`departures`]: RoundState::departures
struct RoundState<'a> {
    config: &'a SimConfig,
    factory: &'a dyn PolicyFactory,
    delta_rounds: bool,
    arrival_rng: StdRng,
    service_rng: StdRng,
    policy_rngs: Vec<StdRng>,
    /// An active workload's counter-mode sampler, which replaces the
    /// stationary arrival processes (and never consumes `arrival_rng`).
    workload: Option<WorkloadSampler<'a>>,
    arrival_processes: Vec<ArrivalProcess>,
    service_processes: Vec<ServiceProcess>,
    policies: Vec<BoxedPolicy>,
    /// Per-server FIFO queues, run-length encoded by arrival round; each
    /// queue tracks its own length, so no separate length mirror exists to
    /// drift out of sync.
    queues: Vec<SegmentQueue>,
    /// This round's arrival count per dispatcher.
    arrivals: Vec<u64>,
    assignment: Vec<ServerId>,
    /// Dispatchers run in ascending `(batch, id)` order (engine-known before
    /// any dispatch). Order is decision-invisible: each dispatcher owns its
    /// RNG stream and sees the same snapshot, and same-round pushes merge
    /// per server.
    dispatch_order: Vec<u32>,
    view: RoundView<'a>,
    response_times: ResponseTimeHistogram,
    tracker: QueueLengthTracker,
    decision_times: Option<DecisionTimeHistogram>,
    jobs_dispatched: u64,
    jobs_completed: u64,
    trace: Option<&'a mut RunTrace>,
}

impl<'a> RoundState<'a> {
    /// The round-0 state of a run of `sim` under `factory`.
    fn new(
        sim: &'a Simulation,
        factory: &'a dyn PolicyFactory,
        trace: Option<&'a mut RunTrace>,
    ) -> Result<Self, SimError> {
        let config = &sim.config;
        let spec = &config.spec;
        let (n, m) = (spec.num_servers(), config.num_dispatchers);
        // An inert (default) workload leaves the stationary arrival path —
        // and its RNG stream — untouched, bit for bit (the goldens in
        // `tests/engine_golden.rs` pin this). An active one draws every
        // arrival count as a counter-mode pure function of the workload
        // seed, the dispatcher's **global** id and the round, so sharded
        // and unsharded runs see one global schedule.
        let (workload, arrival_processes) = if config.workload.is_inert() {
            (None, config.arrivals.build(m, spec.total_rate())?)
        } else {
            let base_rates = config.arrivals.per_dispatcher_rates(m, spec.total_rate())?;
            let sampler = config.workload.sampler(config.seed, &base_rates);
            (Some(sampler), Vec::new())
        };
        let policies: Vec<BoxedPolicy> = (0..m)
            .map(|d| factory.build(DispatcherId::new(d), spec))
            .collect();
        let cache_demand = policies
            .iter()
            .map(|p| p.round_cache_demand())
            .max()
            .unwrap_or(CacheDemand::None);
        let stream =
            |tag, index| StdRng::seed_from_u64(derive_stream_seed(config.seed, tag, index));
        Ok(RoundState {
            config,
            factory,
            delta_rounds: sim.delta_rounds,
            arrival_rng: stream(ARRIVAL_STREAM_TAG, 0),
            service_rng: stream(SERVICE_STREAM_TAG, 0),
            policy_rngs: (0..m)
                .map(|d| stream(POLICY_STREAM_TAG, d as u64))
                .collect(),
            workload,
            arrival_processes,
            service_processes: config.services.build(spec.rates()),
            policies,
            queues: vec![SegmentQueue::new(); n],
            arrivals: Vec::with_capacity(m),
            assignment: Vec::new(),
            dispatch_order: (0..m as u32).collect(),
            view: RoundView {
                rates: spec.rates(),
                num_dispatchers: m,
                round: 0,
                snapshot: vec![0; n],
                dirty: Vec::new(),
                have_deltas: false,
                cache: RoundCache::new(),
                cache_demand,
                scenario: ScenarioRuntime::new(&config.scenario, config.seed, n, m),
            },
            response_times: ResponseTimeHistogram::new(),
            tracker: QueueLengthTracker::new(n),
            // Count-bucketed recorder: recording a timing sample is O(1) and
            // allocation-free, so the measured configuration pays (almost)
            // no instrumentation overhead beyond the two `Instant` reads —
            // see crates/bench/README.md, "Measurement-mode overhead".
            decision_times: config
                .measure_decision_times
                .then(DecisionTimeHistogram::new),
            jobs_dispatched: 0,
            jobs_completed: 0,
            trace,
        })
    }

    /// Phase 0: faults and information defects (see
    /// [`ScenarioRuntime::begin_round`]); nothing under an inert scenario.
    fn faults(&mut self, round: u64) {
        if let Some(scenario) = self.view.scenario.as_mut() {
            scenario.begin_round(round);
        }
    }

    /// The queue-length snapshot every dispatcher observes this round. The
    /// same pass diffs it against the previous round's values to produce
    /// the dirty set — one compare per server — and the shared cache is
    /// then refreshed from it, by delta whenever the dirty set is handed
    /// out (a fresh cache, as on a resumed run's first round, falls back
    /// to a full refresh by itself).
    fn snapshot(&mut self, round: u64) {
        let view = &mut self.view;
        view.round = round;
        view.dirty.clear();
        for (s, (slot, queue)) in view.snapshot.iter_mut().zip(&self.queues).enumerate() {
            let len = queue.len();
            if *slot != len {
                *slot = len;
                view.dirty.push(s as u32);
            }
        }
        if round >= self.config.warmup_rounds {
            self.tracker.observe(&view.snapshot);
        }
        if let Some(scenario) = view.scenario.as_mut() {
            scenario.record_snapshot(round, &view.snapshot);
        }
        view.have_deltas = self.delta_rounds && round > 0;
        let demand = view.cache_demand;
        if demand > CacheDemand::None {
            if view.have_deltas {
                let (snapshot, dirty) = (&view.snapshot, &view.dirty);
                view.cache
                    .begin_round_delta(snapshot, view.rates, dirty, demand);
            } else {
                view.cache
                    .begin_round_for(&view.snapshot, view.rates, demand);
            }
        }
    }

    /// Phase 1: arrivals. Arrivals are always *sampled* (the stream must
    /// not depend on the scenario); the scenario then drops those it loses.
    fn arrivals(&mut self, round: u64) {
        self.arrivals.clear();
        match self.workload.as_mut() {
            Some(sampler) => {
                let g = sampler.begin_round(round);
                sampler.sample_into(round, g, &mut self.arrivals);
            }
            None => {
                let rng = &mut self.arrival_rng;
                self.arrivals
                    .extend(self.arrival_processes.iter().map(|p| p.sample(rng)));
            }
        }
        if let Some(trace) = self.trace.as_deref_mut() {
            // Raw sampled counts, recorded *before* scenario zeroing:
            // replaying the trace under the same scenario re-applies the
            // identical losses.
            for (d, &count) in self.arrivals.iter().enumerate() {
                trace.record_sampled_arrival(round, d, count);
            }
        }
        if let Some(scenario) = self.view.scenario.as_mut() {
            scenario.drop_arrivals(&mut self.arrivals);
        }
        if let Some(trace) = self.trace.as_deref_mut() {
            for (d, &count) in self.arrivals.iter().enumerate() {
                trace.record_arrival(round, d as u32, count);
            }
        }
    }

    /// Phase 2: dispatching. Every dispatcher observes the round (offline
    /// ones too: their failure silences their arrivals, not their
    /// bookkeeping), then each with a nonzero batch dispatches it,
    /// independently, in `dispatch_order`.
    fn dispatch(&mut self, round: u64) -> Result<(), SimError> {
        for (d, (policy, rng)) in self
            .policies
            .iter_mut()
            .zip(&mut self.policy_rngs)
            .enumerate()
        {
            policy.observe_round(&self.view.ctx(d), rng);
        }
        let arrivals = &self.arrivals;
        self.dispatch_order
            .sort_unstable_by_key(|&d| (arrivals[d as usize], d));
        let measured_round = round >= self.config.warmup_rounds;
        for i in 0..self.dispatch_order.len() {
            let d = self.dispatch_order[i] as usize;
            let batch = self.arrivals[d] as usize;
            if batch == 0 {
                continue;
            }
            self.assignment.clear();
            let ctx = self.view.ctx(d);
            // Warm-up decisions are never recorded, so they skip the two
            // `Instant::now()` reads as well — warm-up rounds run at full
            // (unmeasured) speed.
            let start = (measured_round && self.decision_times.is_some()).then(Instant::now);
            self.policies[d].dispatch_into(
                &ctx,
                batch,
                &mut self.assignment,
                &mut self.policy_rngs[d],
            );
            if let (Some(start), Some(samples)) = (start, self.decision_times.as_mut()) {
                samples.record(start.elapsed().as_secs_f64() * 1e6);
            }
            self.enqueue(round, d, batch)?;
            if measured_round {
                self.jobs_dispatched += batch as u64;
            }
        }
        if let Some(scenario) = self.view.scenario.as_mut() {
            scenario.end_dispatch();
        }
        Ok(())
    }

    /// Validates dispatcher `d`'s assignment and pushes it onto the queues.
    ///
    /// Fused validate + coalesced push: a policy violation aborts the whole
    /// run (partial pushes are discarded with it), so validation and
    /// enqueueing can share one pass, with the same error semantics as
    /// `validate_assignment` (arity first, then the first bad destination
    /// in order). Same-server runs collapse into one RLE segment push each —
    /// identical queue state, since same-round pushes merge inside the
    /// segment anyway. (Runs rather than full per-batch counts on purpose:
    /// a scatter/gather count pass measured *slower* than the back-merges
    /// it saves for spread-out assignments like SCD's alias draws.)
    fn enqueue(&mut self, round: u64, d: usize, batch: usize) -> Result<(), SimError> {
        let n = self.queues.len();
        let factory = self.factory;
        let violation = |source| SimError::PolicyViolation {
            policy: factory.name().to_string(),
            dispatcher: d,
            source,
        };
        let assignment = &self.assignment;
        if assignment.len() != batch {
            return Err(violation(ModelError::AssignmentArity {
                got: assignment.len(),
                expected: batch,
            }));
        }
        let mut i = 0;
        while i < assignment.len() {
            let server = assignment[i];
            if server.index() >= n {
                return Err(violation(ModelError::UnknownServer {
                    server: server.index(),
                    num_servers: n,
                }));
            }
            if let Some(scenario) = self.view.scenario.as_ref() {
                if !scenario.availability().is_up(server.index()) {
                    return Err(violation(ModelError::ServerDown {
                        server: server.index(),
                    }));
                }
            }
            let mut count = 1u64;
            while i + (count as usize) < assignment.len()
                && assignment[i + count as usize] == server
            {
                count += 1;
            }
            self.queues[server.index()].push(round, count);
            if let Some(trace) = self.trace.as_deref_mut() {
                trace.record_dispatch(round, d as u32, server.index() as u32, count);
            }
            if let Some(scenario) = self.view.scenario.as_mut() {
                scenario.record_receipt(server.index(), count);
            }
            i += count as usize;
        }
        Ok(())
    }

    /// Phase 3: departures. Every server advances the service stream by one
    /// capacity draw every round, in server order, so the stream does not
    /// depend on either the policy under test or the scenario. Only busy,
    /// up servers compute their capacity; an idle server would waste it,
    /// and a down server's queue freezes until repair, so both only advance
    /// the stream ([`ServiceProcess::skip`]). Whole segments complete at
    /// once, so this phase costs O(servers + segments touched), not
    /// O(jobs).
    fn departures(&mut self, round: u64) {
        let warmup = self.config.warmup_rounds;
        let avail = self
            .view
            .scenario
            .as_ref()
            .map(ScenarioRuntime::availability);
        // A local copy keeps the generator's state out of memory for the
        // loop; it is written back after the last server.
        let mut service_rng = self.service_rng.clone();
        let (response_times, jobs_completed) = (&mut self.response_times, &mut self.jobs_completed);
        let trace = &mut self.trace;
        let servers = self.queues.iter_mut().zip(&self.service_processes);
        for (s, (queue, service)) in servers.enumerate() {
            if queue.is_empty() || avail.is_some_and(|avail| !avail.is_up(s)) {
                service.skip(&mut service_rng);
                continue;
            }
            let capacity = service.sample(&mut service_rng);
            queue.pop(capacity, |arrival_round, count| {
                if arrival_round >= warmup {
                    response_times.record_many(round - arrival_round + 1, count);
                    *jobs_completed += count;
                }
                if let Some(trace) = trace.as_deref_mut() {
                    trace.record_service(round, s as u32, arrival_round, count);
                }
            });
        }
        self.service_rng = service_rng;
    }

    /// The state a checkpoint taken before `round` carries.
    fn capture(&self, round: u64) -> EngineCheckpoint {
        EngineCheckpoint {
            config_digest: self.config.digest(),
            round,
            num_servers: self.queues.len(),
            num_dispatchers: self.policies.len(),
            queues: self.queues.iter().map(|q| q.segments().collect()).collect(),
            snapshot: self.view.snapshot.clone(),
            arrival_rng: self.arrival_rng.state(),
            service_rng: self.service_rng.state(),
            policy_rngs: self.policy_rngs.iter().map(StdRng::state).collect(),
            response_times: self.response_times.clone(),
            tracker: self.tracker.clone(),
            decision_times: self.decision_times.clone(),
            jobs_dispatched: self.jobs_dispatched,
            jobs_completed: self.jobs_completed,
            scenario: self.view.scenario.as_ref().map(ScenarioRuntime::capture),
            policy_state: self
                .policies
                .iter()
                .map(|policy| {
                    let mut blob = Vec::new();
                    policy.save_state(&mut blob);
                    blob
                })
                .collect(),
        }
    }

    /// Overwrites the state that advances with `checkpoint`'s and returns
    /// the round to resume at. Called on a freshly built state, so
    /// everything a checkpoint does not capture (stream seeds, fault
    /// schedules, warm caches) is already in its round-0 form. The
    /// contract: the resumed loop consumes RNG draws and produces decisions
    /// bit-identically to the uninterrupted run.
    fn restore(&mut self, checkpoint: &EngineCheckpoint) -> Result<u64, SimError> {
        let config = self.config;
        let (n, m) = (self.queues.len(), self.policies.len());
        let digest = config.digest();
        if checkpoint.config_digest != digest {
            return Err(SimError::Checkpoint(format!(
                "checkpoint was taken under config digest {:#018x}, this run is {digest:#018x}",
                checkpoint.config_digest
            )));
        }
        let mismatch = |what: String| {
            SimError::Checkpoint(format!("checkpoint does not fit this run: {what}"))
        };
        if checkpoint.round == 0 || checkpoint.round >= config.rounds {
            return Err(mismatch(format!(
                "round {} outside the resumable range 1..{}",
                checkpoint.round, config.rounds
            )));
        }
        if checkpoint.num_servers != n || checkpoint.num_dispatchers != m {
            return Err(mismatch(format!(
                "shape is {} servers x {} dispatchers, this run is {n} x {m}",
                checkpoint.num_servers, checkpoint.num_dispatchers
            )));
        }
        if checkpoint.queues.len() != n
            || checkpoint.snapshot.len() != n
            || checkpoint.policy_rngs.len() != m
            || checkpoint.policy_state.len() != m
        {
            return Err(mismatch(
                "per-server / per-dispatcher vector widths disagree".into(),
            ));
        }
        if checkpoint.tracker.num_servers() != n {
            let servers = checkpoint.tracker.num_servers();
            return Err(mismatch(format!("tracker covers {servers} servers")));
        }
        if checkpoint.decision_times.is_some() != config.measure_decision_times {
            return Err(mismatch(
                "decision-time measurement presence disagrees".into(),
            ));
        }
        match (&checkpoint.scenario, self.view.scenario.as_mut()) {
            (Some(state), Some(scenario)) => scenario.restore(state).map_err(mismatch)?,
            (None, None) => {}
            _ => return Err(mismatch("scenario-state presence disagrees".into())),
        }
        for (queue, segments) in self.queues.iter_mut().zip(&checkpoint.queues) {
            for &(arrival_round, count) in segments {
                queue.push(arrival_round, count);
            }
        }
        self.view.snapshot.copy_from_slice(&checkpoint.snapshot);
        self.arrival_rng = StdRng::from_state(checkpoint.arrival_rng);
        self.service_rng = StdRng::from_state(checkpoint.service_rng);
        for (rng, &state) in self.policy_rngs.iter_mut().zip(&checkpoint.policy_rngs) {
            *rng = StdRng::from_state(state);
        }
        self.response_times = checkpoint.response_times.clone();
        self.tracker = checkpoint.tracker.clone();
        self.decision_times = checkpoint.decision_times.clone();
        self.jobs_dispatched = checkpoint.jobs_dispatched;
        self.jobs_completed = checkpoint.jobs_completed;
        for (d, (policy, blob)) in self
            .policies
            .iter_mut()
            .zip(&checkpoint.policy_state)
            .enumerate()
        {
            policy.restore_state(blob).map_err(|msg| {
                SimError::Checkpoint(format!("policy state of dispatcher {d}: {msg}"))
            })?;
        }
        Ok(checkpoint.round)
    }

    /// The report of the completed run.
    fn finish(self) -> SimReport {
        let config = self.config;
        let tracker = self.tracker;
        SimReport {
            policy: self.factory.name().to_string(),
            rounds: config.rounds,
            warmup_rounds: config.warmup_rounds,
            offered_load: config.offered_load(),
            jobs_dispatched: self.jobs_dispatched,
            jobs_completed: self.jobs_completed,
            jobs_in_flight: self.jobs_dispatched.saturating_sub(self.jobs_completed),
            response_times: self.response_times,
            queues: QueueSummary {
                mean_total_backlog: tracker.mean_total_backlog(),
                max_total_backlog: tracker.max_total_backlog(),
                worst_mean_queue: tracker.worst_mean_queue(),
                // Computed from the occupancy histogram's exact integer
                // zero-bucket (identical to the across-server average of
                // the per-server idle fractions, with one rounding instead
                // of n).
                mean_idle_fraction: tracker.mean_idle_fraction(),
            },
            queue_occupancy: tracker.into_occupancy(),
            decision_times_us: self.decision_times,
            degradation: self.view.scenario.map(ScenarioRuntime::into_metrics),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::ArrivalSpec;
    use crate::services::ServiceModel;
    use scd_model::{BoxedPolicy, ClusterSpec, DispatchPolicy, ServerId};

    /// A policy that always targets server 0 — turns the engine into an
    /// easily checkable deterministic queueing system.
    struct AllToFirst;

    impl DispatchPolicy for AllToFirst {
        fn policy_name(&self) -> &str {
            "all-to-first"
        }
        fn dispatch_into(
            &mut self,
            _ctx: &DispatchContext<'_>,
            batch: usize,
            out: &mut Vec<ServerId>,
            _rng: &mut dyn rand::RngCore,
        ) {
            out.resize(out.len() + batch, ServerId::new(0));
        }
    }

    /// A policy that returns garbage, to exercise the validation path.
    struct Broken;

    impl DispatchPolicy for Broken {
        fn policy_name(&self) -> &str {
            "broken"
        }
        fn dispatch_into(
            &mut self,
            _ctx: &DispatchContext<'_>,
            _batch: usize,
            out: &mut Vec<ServerId>,
            _rng: &mut dyn rand::RngCore,
        ) {
            out.push(ServerId::new(999));
        }
    }

    fn factory_of<P: DispatchPolicy + Default + 'static>(name: &'static str) -> impl PolicyFactory {
        struct F<P> {
            name: &'static str,
            _marker: std::marker::PhantomData<fn() -> P>,
        }
        impl<P: DispatchPolicy + Default + 'static> PolicyFactory for F<P> {
            fn name(&self) -> &str {
                self.name
            }
            fn build(&self, _d: DispatcherId, _s: &ClusterSpec) -> BoxedPolicy {
                Box::new(P::default())
            }
        }
        F::<P> {
            name,
            _marker: std::marker::PhantomData,
        }
    }

    impl Default for AllToFirst {
        fn default() -> Self {
            AllToFirst
        }
    }
    impl Default for Broken {
        fn default() -> Self {
            Broken
        }
    }

    fn deterministic_config() -> SimConfig {
        SimConfig {
            spec: ClusterSpec::from_rates(vec![2.0, 1.0]).unwrap(),
            num_dispatchers: 1,
            rounds: 10,
            warmup_rounds: 0,
            seed: 1,
            arrivals: ArrivalSpec::Deterministic { jobs_per_round: 2 },
            services: ServiceModel::Deterministic,
            measure_decision_times: false,
            scenario: crate::scenario::ScenarioSpec::default(),
            workload: crate::workload::WorkloadSpec::default(),
        }
    }

    #[test]
    fn deterministic_single_server_pipeline() {
        // 2 jobs arrive each round, all go to server 0 which serves exactly 2
        // per round → every job finishes in the round it arrived (RT = 1).
        let sim = Simulation::new(deterministic_config()).unwrap();
        let report = sim.run(&factory_of::<AllToFirst>("all-to-first")).unwrap();
        assert_eq!(report.policy, "all-to-first");
        assert_eq!(report.jobs_dispatched, 20);
        assert_eq!(report.jobs_completed, 20);
        assert_eq!(report.jobs_in_flight, 0);
        assert_eq!(report.response_times.max(), 1);
        assert!((report.mean_response_time() - 1.0).abs() < 1e-12);
        assert_eq!(
            report.queues.max_total_backlog, 0.0,
            "queues observed at round start"
        );
    }

    #[test]
    fn overload_builds_a_backlog() {
        // 3 jobs/round onto a server that serves 2/round → 1 job/round backlog.
        let mut config = deterministic_config();
        config.arrivals = ArrivalSpec::Deterministic { jobs_per_round: 3 };
        config.rounds = 20;
        let sim = Simulation::new(config).unwrap();
        let report = sim.run(&factory_of::<AllToFirst>("all-to-first")).unwrap();
        assert_eq!(report.jobs_dispatched, 60);
        assert!(report.jobs_in_flight >= 18, "backlog should accumulate");
        // Queue at the start of round t is t (one unserved job per past round).
        assert_eq!(report.queues.max_total_backlog, 19.0);
    }

    #[test]
    fn warmup_rounds_are_excluded_from_statistics() {
        let mut config = deterministic_config();
        config.rounds = 10;
        config.warmup_rounds = 5;
        let sim = Simulation::new(config).unwrap();
        let report = sim.run(&factory_of::<AllToFirst>("all-to-first")).unwrap();
        // Only rounds 5..10 are measured: 2 jobs per round.
        assert_eq!(report.jobs_dispatched, 10);
        assert_eq!(report.response_times.count(), 10);
        // The occupancy histogram holds one observation per measured
        // (server, round) pair and normalizes to a distribution.
        assert_eq!(report.queue_occupancy.iter().sum::<u64>(), 5 * 2);
        let total: f64 = report.queue_length_distribution().iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn identical_seeds_give_identical_reports() {
        let spec = ClusterSpec::from_rates(vec![3.0, 1.0, 2.0]).unwrap();
        let config = SimConfig::builder(spec)
            .dispatchers(3)
            .rounds(300)
            .seed(42)
            .arrivals(ArrivalSpec::PoissonOfferedLoad { offered_load: 0.8 })
            .build()
            .unwrap();
        let sim = Simulation::new(config).unwrap();
        let a = sim.run(&factory_of::<AllToFirst>("all-to-first")).unwrap();
        let b = sim.run(&factory_of::<AllToFirst>("all-to-first")).unwrap();
        assert_eq!(a.jobs_dispatched, b.jobs_dispatched);
        assert_eq!(a.response_times, b.response_times);
    }

    #[test]
    fn arrival_stream_is_policy_independent() {
        // Two different policies under the same seed must see the same total
        // number of dispatched jobs (the arrival stream does not depend on
        // dispatching decisions).
        use scd_core::policy::ScdFactory;
        let spec = ClusterSpec::from_rates(vec![3.0, 1.0, 2.0]).unwrap();
        let config = SimConfig::builder(spec)
            .dispatchers(2)
            .rounds(200)
            .seed(11)
            .arrivals(ArrivalSpec::PoissonOfferedLoad { offered_load: 0.7 })
            .build()
            .unwrap();
        let sim = Simulation::new(config).unwrap();
        let a = sim.run(&factory_of::<AllToFirst>("all-to-first")).unwrap();
        let b = sim.run(&ScdFactory::new()).unwrap();
        assert_eq!(a.jobs_dispatched, b.jobs_dispatched);
    }

    #[test]
    fn policy_violations_are_reported_not_panicked() {
        let sim = Simulation::new(deterministic_config()).unwrap();
        let err = sim.run(&factory_of::<Broken>("broken")).unwrap_err();
        match &err {
            SimError::PolicyViolation {
                policy, dispatcher, ..
            } => {
                assert_eq!(policy, "broken");
                assert_eq!(*dispatcher, 0);
            }
            other => panic!("unexpected error {other:?}"),
        }
        assert!(err.to_string().contains("broken"));
        assert!(err.source().is_some());
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        let mut config = deterministic_config();
        config.num_dispatchers = 0;
        assert!(matches!(
            Simulation::new(config),
            Err(SimError::InvalidConfig(_))
        ));

        let mut config = deterministic_config();
        config.rounds = 0;
        assert!(Simulation::new(config).is_err());

        let mut config = deterministic_config();
        config.warmup_rounds = config.rounds;
        assert!(Simulation::new(config).is_err());

        // Arrival-spec defects surface as InvalidConfig, not panics.
        let mut config = deterministic_config();
        config.arrivals = ArrivalSpec::PoissonRates {
            rates: vec![1.0, 2.0],
        };
        assert!(matches!(
            Simulation::new(config),
            Err(SimError::InvalidConfig(_))
        ));
        let mut config = deterministic_config();
        config.arrivals = ArrivalSpec::PoissonOfferedLoad {
            offered_load: f64::NAN,
        };
        assert!(matches!(
            Simulation::new(config),
            Err(SimError::InvalidConfig(_))
        ));

        // Workload defects too.
        let mut config = deterministic_config();
        config.workload.modulation = crate::workload::ModulationSpec::Diurnal {
            period: 100,
            amplitude: 0.5,
        };
        // Deterministic arrivals cannot be modulated.
        assert!(matches!(
            Simulation::new(config),
            Err(SimError::InvalidConfig(_))
        ));
    }

    #[test]
    fn traced_run_matches_untraced_and_replays() {
        let spec = ClusterSpec::from_rates(vec![3.0, 1.0, 2.0]).unwrap();
        let config = SimConfig::builder(spec)
            .dispatchers(2)
            .rounds(200)
            .seed(17)
            .arrivals(ArrivalSpec::PoissonOfferedLoad { offered_load: 0.8 })
            .build()
            .unwrap();
        let sim = Simulation::new(config.clone()).unwrap();
        let plain = sim.run(&factory_of::<AllToFirst>("all-to-first")).unwrap();
        let (traced, trace) = sim
            .run_traced(&factory_of::<AllToFirst>("all-to-first"))
            .unwrap();
        assert_eq!(plain, traced, "tracing must not perturb the run");
        assert_eq!(trace.rounds, 200);
        assert!(!trace.events.is_empty());

        // Replaying the recorded arrivals reproduces the report bit-exactly.
        let mut replay_config = config;
        replay_config.workload.replay = Some(trace.arrivals.clone());
        let replay_sim = Simulation::new(replay_config).unwrap();
        let replayed = replay_sim
            .run(&factory_of::<AllToFirst>("all-to-first"))
            .unwrap();
        assert_eq!(plain, replayed);
    }

    #[test]
    fn decision_times_are_collected_when_requested() {
        let mut config = deterministic_config();
        config.measure_decision_times = true;
        config.rounds = 50;
        let sim = Simulation::new(config).unwrap();
        let report = sim.run(&factory_of::<AllToFirst>("all-to-first")).unwrap();
        let samples = report.decision_times_us.expect("decision times requested");
        assert_eq!(
            samples.len(),
            50,
            "one timed decision per round (batch > 0)"
        );
        assert!(samples.min() >= 0.0);
        assert!(samples.max() >= samples.min());
    }
}
