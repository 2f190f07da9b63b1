//! The traced run: per-layer numbers, timed from the benchmark's own calls
//! into each crate's public functions.
//!
//! 1. Each policy runs once untraced and once with the engine's
//!    `measure_decision_times` on, for the engine's own dispatch share.
//! 2. A short `Simulation::run_traced` window per policy is rebuilt into the
//!    engine's per-round view (snapshots, batches, dirty sets), and the
//!    calls the engine makes on it are replayed and timed one by one: the
//!    `RoundCache` refresh, every dispatcher's `observe_round` and
//!    `dispatch_into`. The replay must reproduce the engine's assignments
//!    exactly, and SCD's replayed dispatch time must agree with the
//!    engine's own.
//! 3. The layers below the policies (class partition, load order, queue
//!    tracker, response histogram, segment queues, samplers) are timed on
//!    the SCD window's rounds.
//! 4. On the fabric workload, checkpoints, frames and the shard merge are
//!    timed, and `run_fabric` is set against in-process `run_parallel`.

use crate::e2e::{factories, run_policy, run_record, setup, Prepared, RunOutcome};
use crate::json::Obj;
use crate::spans::{SpanId, Spans};
use crate::workload::{build_config, materialize_rates, Mode, Workload, POLICIES};
use rand::rngs::StdRng;
use rand::SeedableRng;
use scd_core::LoadOrder;
use scd_metrics::{QueueLengthTracker, ResponseTimeHistogram};
use scd_model::streams::POLICY_STREAM_TAG;
use scd_model::{
    derive_stream_seed, CacheDemand, ClassPartition, DispatchContext, DispatcherId, PolicyFactory,
    RoundCache, ServerId,
};
use scd_sim::fabric::{
    decode_frame, encode_checkpoint_frame, encode_final_frame, CheckpointFrame, Frame,
};
use scd_sim::{
    merge_shard_reports, ArrivalSpec, EngineCheckpoint, RunTrace, SegmentQueue, ServiceModel,
    ShardReport, ShardedSimulation, SimConfig, SimError, Simulation, TraceEvent,
};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// The replayed dispatch time must lie within this factor of the engine's
/// own decision-time total on the same rounds, or the replay is flagged as
/// unrepresentative.
const REPLAY_AGREEMENT: f64 = 1.5;
/// Draws timed per sampler probe, at least.
const SAMPLER_DRAWS: usize = 400_000;
/// Repetitions of the (sub-millisecond) frame decode and shard merge.
const CODEC_REPS: usize = 20;

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Nearest-rank percentile of `xs` (sorted in place).
fn percentile(xs: &mut [f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let rank = ((p * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    xs[rank - 1]
}

fn median(xs: &mut [f64]) -> f64 {
    percentile(xs, 0.5)
}

/// The traced run's own pass/fail checks, reported next to the metrics.
#[derive(Default)]
struct Checks(Vec<Obj>);

impl Checks {
    fn push(&mut self, name: &str, result: Result<(), String>) {
        let mut check = Obj::new();
        check
            .str("name", name)
            .bool("ok", result.is_ok())
            .str("detail", result.err().as_deref().unwrap_or(""));
        self.0.push(check);
    }
}

/// Where the traced run's measurements go: spans, per-layer metrics and
/// its own pass/fail checks.
struct Probe {
    spans: Spans,
    metrics: Obj,
    checks: Checks,
}

/// The engine's view of every round of a traced window, rebuilt from its
/// events: what each round's snapshot, batches and dirty set were, and what
/// the engine dispatched and served.
struct Window {
    config: SimConfig,
    snapshots: Vec<Vec<u64>>,
    dirty: Vec<Vec<u32>>,
    batches: Vec<Vec<u64>>,
    /// Per round, `(dispatcher, server, count)` runs in engine order.
    dispatch: Vec<Vec<(u32, u32, u64)>>,
    /// Per round, `(server, arrival_round, count)` completions in engine order.
    service: Vec<Vec<(u32, u64, u64)>>,
}

impl Window {
    /// Rebuilds the window, refusing a trace that dropped events (its
    /// snapshots could not be rebuilt correctly).
    fn from_trace(config: SimConfig, trace: &RunTrace) -> Result<Window, String> {
        if trace.dropped > 0 {
            return Err(format!(
                "the trace dropped {} events past its cap; refusing to rebuild snapshots from it",
                trace.dropped
            ));
        }
        let n = config.num_servers();
        let m = config.num_dispatchers;
        let rounds = config.rounds as usize;
        let mut dispatch = vec![Vec::new(); rounds];
        let mut service = vec![Vec::new(); rounds];
        for event in &trace.events {
            match *event {
                TraceEvent::Arrival { .. } => {}
                TraceEvent::Dispatch {
                    round,
                    dispatcher,
                    server,
                    count,
                } => dispatch[round as usize].push((dispatcher, server, count)),
                TraceEvent::Service {
                    round,
                    server,
                    arrival_round,
                    count,
                } => service[round as usize].push((server, arrival_round, count)),
            }
        }
        let batches = (0..rounds as u64)
            .map(|r| (0..m).map(|d| trace.arrivals.count(r, d)).collect())
            .collect();
        let mut snapshots: Vec<Vec<u64>> = Vec::with_capacity(rounds);
        let mut dirty = Vec::with_capacity(rounds);
        let mut queues = vec![0u64; n];
        for r in 0..rounds {
            dirty.push(match snapshots.last() {
                Some(prev) => (0..n)
                    .filter(|&s| prev[s] != queues[s])
                    .map(|s| s as u32)
                    .collect(),
                None => Vec::new(),
            });
            snapshots.push(queues.clone());
            for &(_, server, count) in &dispatch[r] {
                queues[server as usize] += count;
            }
            for &(server, _, count) in &service[r] {
                let q = &mut queues[server as usize];
                *q = q.checked_sub(count).ok_or_else(|| {
                    format!("round {r}: server {server} completes more jobs than it holds")
                })?;
            }
        }
        Ok(Window {
            config,
            snapshots,
            dirty,
            batches,
            dispatch,
            service,
        })
    }

    fn rates(&self) -> &[f64] {
        self.config.spec.rates()
    }
}

/// What replaying one policy's calls on its window measured.
#[derive(Default)]
struct Replay {
    /// Every `dispatch_into` call, µs.
    call_us: Vec<f64>,
    /// The calls of the window's measured (post-warm-up) rounds, µs summed.
    measured_us: f64,
    jobs: u64,
    begin_round_us: Vec<f64>,
    /// Warm-solver `(accepts, fallbacks)`.
    warm: (u64, u64),
    /// Calls answered from the per-round solver memo. (The memo's own miss
    /// counter skips the warm dispatch path, so the ratio is taken against
    /// the calls, each of which consults the memo first.)
    memo_hits: u64,
}

/// Replays the engine's calls into one policy on `window`: per round the
/// `RoundCache` refresh, every dispatcher's `observe_round`, then
/// `dispatch_into` in the engine's batch order, with the engine's policy
/// RNG streams. Fails when an assignment differs from the traced one.
fn replay(
    window: &Window,
    label: &str,
    factory: &dyn PolicyFactory,
    spans: &mut Spans,
    parent: SpanId,
) -> Result<Replay, String> {
    let config = &window.config;
    let rates = window.rates();
    let m = config.num_dispatchers;
    let mut policies: Vec<_> = (0..m)
        .map(|d| factory.build(DispatcherId::new(d), &config.spec))
        .collect();
    let demand = policies
        .iter()
        .map(|p| p.round_cache_demand())
        .max()
        .unwrap_or(CacheDemand::None);
    let mut rngs: Vec<StdRng> = (0..m)
        .map(|d| {
            StdRng::seed_from_u64(derive_stream_seed(config.seed, POLICY_STREAM_TAG, d as u64))
        })
        .collect();
    let mut cache = RoundCache::new();
    let mut order: Vec<usize> = (0..m).collect();
    let mut out: Vec<ServerId> = Vec::new();
    let mut stats = Replay::default();
    let round_name = format!("replay.{label}.round");
    let observe_name = format!("policies.{label}.observe_round");
    let dispatch_name = format!("policies.{label}.dispatch_into");
    for (r, snapshot) in window.snapshots.iter().enumerate() {
        let round = r as u64;
        let dirty = &window.dirty[r];
        let round_span = spans.open(&round_name, Some(parent), Some(round));
        if demand > CacheDemand::None {
            let (_, took) = spans.time(
                "model.round_cache.begin_round",
                Some(round_span),
                Some(round),
                || {
                    if r > 0 {
                        cache.begin_round_delta(snapshot, rates, dirty, demand);
                    } else {
                        cache.begin_round_for(snapshot, rates, demand);
                    }
                },
            );
            stats.begin_round_us.push(us(took));
        }
        let ctx = if demand > CacheDemand::None {
            DispatchContext::with_cache(snapshot, rates, m, round, &cache)
        } else {
            DispatchContext::new(snapshot, rates, m, round)
        };
        let ctx = if r > 0 { ctx.with_dirty(dirty) } else { ctx };
        let observe = spans.open(&observe_name, Some(round_span), Some(round));
        for (policy, rng) in policies.iter_mut().zip(&mut rngs) {
            policy.observe_round(&ctx, rng);
        }
        spans.close(observe);
        let batches = &window.batches[r];
        order.sort_unstable_by_key(|&d| (batches[d], d));
        let expected = &window.dispatch[r];
        let mut cursor = 0;
        for &d in &order {
            let batch = batches[d] as usize;
            if batch == 0 {
                continue;
            }
            out.clear();
            let start = Instant::now();
            policies[d].dispatch_into(&ctx, batch, &mut out, &mut rngs[d]);
            let took = start.elapsed();
            spans.record(&dispatch_name, start, took, Some(round_span), Some(round));
            stats.call_us.push(us(took));
            if round >= config.warmup_rounds {
                stats.measured_us += us(took);
            }
            stats.jobs += batch as u64;
            let mut i = 0;
            while i < out.len() {
                let server = out[i];
                let run = out[i..].iter().take_while(|&&s| s == server).count();
                if expected.get(cursor) != Some(&(d as u32, server.index() as u32, run as u64)) {
                    return Err(format!(
                        "{label} round {r}, dispatcher {d}: the replayed assignment differs \
                         from the traced one"
                    ));
                }
                cursor += 1;
                i += run;
            }
        }
        if cursor != expected.len() {
            return Err(format!(
                "{label} round {r}: the trace holds dispatches the replay did not make"
            ));
        }
        spans.close(round_span);
    }
    stats.warm = cache.warm_seeds().stats();
    stats.memo_hits = cache.solver_memo_stats().0;
    Ok(stats)
}

/// Times the layers below the policies on the rounds of one window.
fn layer_probes(window: &Window, probe: &mut Probe, parent: SpanId) {
    let rates = window.rates();
    let n = rates.len();
    let rounds = window.snapshots.len();

    let mut partition = ClassPartition::new();
    let (mut build_us, mut viable, mut classes) = (Vec::new(), 0usize, 0usize);
    let mut order = LoadOrder::new();
    let (mut repair_us, mut dirty_total) = (Vec::new(), 0usize);
    let mut tracker = QueueLengthTracker::new(n);
    let mut observe_us = Vec::new();
    let mut hist = ResponseTimeHistogram::new();
    let (mut record_time, mut records) = (Duration::ZERO, 0usize);
    let mut queues = vec![SegmentQueue::new(); n];
    let (mut queue_time, mut queue_ops, mut queue_mismatch) = (Duration::ZERO, 0usize, false);
    let mut busy = 0usize;
    for (r, snapshot) in window.snapshots.iter().enumerate() {
        let round = Some(r as u64);
        let (ok, took) =
            probe
                .spans
                .time("model.class_partition.build", Some(parent), round, || {
                    partition.build(snapshot, rates)
                });
        build_us.push(us(took));
        if ok {
            viable += 1;
            classes += partition.num_classes();
        }
        let dirty = &window.dirty[r];
        if r == 0 {
            order.rebuild(snapshot, rates);
        } else {
            let ((), took) = probe
                .spans
                .time("core.iwl.repair", Some(parent), round, || {
                    order.repair(snapshot, rates, dirty)
                });
            repair_us.push(us(took));
            dirty_total += dirty.len();
        }
        let ((), took) =
            probe
                .spans
                .time("metrics.queue_tracker.observe", Some(parent), round, || {
                    tracker.observe(snapshot)
                });
        observe_us.push(us(took));
        busy += snapshot.iter().filter(|&&q| q > 0).count();

        let service = &window.service[r];
        let ((), took) =
            probe
                .spans
                .time("metrics.response_hist.record", Some(parent), round, || {
                    for &(_, arrival_round, count) in service {
                        hist.record_many(r as u64 - arrival_round + 1, count);
                    }
                });
        record_time += took;
        records += service.len();

        let dispatch = &window.dispatch[r];
        let ((), took) = probe
            .spans
            .time("sim.queues.push_pop", Some(parent), round, || {
                for &(_, server, count) in dispatch {
                    queues[server as usize].push(r as u64, count);
                }
                for &(server, arrival_round, count) in service {
                    queues[server as usize].pop(count, |a, c| {
                        queue_mismatch |= (a, c) != (arrival_round, count);
                    });
                }
            });
        queue_time += took;
        queue_ops += dispatch.len() + service.len();
    }
    black_box((&hist, &tracker, &queues));
    let per_op_ns = |t: Duration, ops: usize| t.as_secs_f64() * 1e9 / ops.max(1) as f64;
    probe
        .metrics
        .num("model.class_partition.build_us", mean(&build_us))
        .num(
            "model.class_partition.viable_ratio",
            viable as f64 / rounds as f64,
        )
        .num(
            "model.class_partition.classes",
            classes as f64 / rounds as f64,
        )
        .num("core.iwl.repair_us", mean(&repair_us))
        .num(
            "core.iwl.dirty_per_round",
            dirty_total as f64 / (rounds - 1).max(1) as f64,
        )
        .num("metrics.queue_tracker.observe_us", mean(&observe_us))
        .num(
            "metrics.response_hist.record_ns",
            per_op_ns(record_time, records),
        )
        .num("sim.queues.busy_frac", busy as f64 / (rounds * n) as f64)
        .num("sim.queues.push_pop_ns", per_op_ns(queue_time, queue_ops));
    probe.checks.push(
        "replay.segment_queues",
        if queue_mismatch {
            Err("a replayed pop completed other jobs than the traced ones".into())
        } else {
            Ok(())
        },
    );

    // The arrival samplers, drawn as the engine's arrival phase draws them.
    let config = &window.config;
    let m = config.num_dispatchers;
    let arrivals = ArrivalSpec::PoissonOfferedLoad {
        offered_load: config.offered_load(),
    }
    .build(m, config.spec.total_rate())
    .expect("the window's configuration validated");
    let mut rng = StdRng::seed_from_u64(config.seed);
    let reps = SAMPLER_DRAWS.div_ceil(m);
    let ((), took) = probe
        .spans
        .time("sim.arrivals.sample", Some(parent), None, || {
            for _ in 0..reps {
                for process in &arrivals {
                    black_box(process.sample(&mut rng));
                }
            }
        });
    probe
        .metrics
        .num("sim.arrivals.sample_ns", per_op_ns(took, reps * m));

    // The service samplers, drawn as the engine's departure phase draws
    // them: one capacity per server per round.
    let services = ServiceModel::Geometric.build(rates);
    let service_rounds = SAMPLER_DRAWS.div_ceil(n);
    let (draws, took) = probe
        .spans
        .time("sim.services.sample", Some(parent), None, || {
            let mut draws = 0usize;
            for _ in 0..service_rounds {
                for process in &services {
                    black_box(process.sample(&mut rng));
                    draws += 1;
                }
            }
            draws
        });
    probe
        .metrics
        .num("sim.services.sample_ns", per_op_ns(took, draws))
        .num(
            "sim.services.draws_per_round",
            (draws / service_rounds) as f64,
        );
}

/// The traced window's configuration: the workload's cluster over
/// `window_rounds` rounds (half warm-up), or its first shard's on the
/// fabric workload, which is what one worker runs.
fn window_config(workload: &Workload, seed: u64, measure: bool) -> Result<SimConfig, String> {
    let rounds = workload.window_rounds;
    let config = build_config(
        workload,
        materialize_rates(workload, seed),
        seed,
        rounds,
        rounds / 2,
        measure,
    )?;
    match workload.mode {
        Mode::InProcess => Ok(config),
        Mode::Fabric { shards, .. } => Ok(ShardedSimulation::new(config, shards)
            .map_err(|e| e.to_string())?
            .shard_config(0)
            .clone()),
    }
}

/// The engine's own decision-time total of a run in µs, summed over shards.
fn decision_total_us(outcome: &RunOutcome) -> f64 {
    outcome
        .report
        .decision_times_us
        .as_ref()
        .map_or(0.0, |h| h.raw_parts().1)
}

/// The fabric layer: checkpoints and frames of one worker's shard, the
/// shard merge, and `run_fabric` against in-process `run_parallel`.
fn fabric_probes(
    sharded: &ShardedSimulation,
    checkpoint_every: u64,
    factories: &[Box<dyn PolicyFactory>],
    fabric_seconds: f64,
    probe: &mut Probe,
    parent: SpanId,
) {
    let shards = sharded.num_shards();
    let mut parallel_s = 0.0;
    let mut parallel_scd = None;
    for (i, name) in POLICIES.iter().enumerate() {
        let (report, took) = probe.spans.time(
            &format!("sim.shard.run_parallel.{name}"),
            Some(parent),
            None,
            || sharded.run_parallel(factories[i].as_ref(), shards),
        );
        parallel_s += took.as_secs_f64();
        match report {
            Ok(report) if i == 0 => parallel_scd = Some(report),
            Ok(_) => {}
            Err(e) => probe.checks.push("fabric.run_parallel", Err(e.to_string())),
        }
    }
    probe.metrics.num(
        "sim.fabric.overhead_pct",
        (fabric_seconds - parallel_s) / parallel_s * 100.0,
    );

    let digest = sharded.config().digest();
    let scd = factories[0].as_ref();
    let (mut bytes, mut encode_us, mut decode_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut frames = Vec::new();
    let mut roundtrip = Ok(());
    let mut sink = |checkpoint: EngineCheckpoint| -> Result<(), SimError> {
        let (state, took) = probe.spans.time(
            "sim.checkpoint.to_bytes",
            Some(parent),
            Some(checkpoint.round()),
            || checkpoint.to_bytes(),
        );
        let state = state.map_err(|e| SimError::Checkpoint(e.to_string()))?;
        encode_us.push(us(took));
        bytes.push(state.len() as f64);
        let (decoded, took) = probe.spans.time(
            "sim.checkpoint.from_bytes",
            Some(parent),
            Some(checkpoint.round()),
            || EngineCheckpoint::from_bytes(&state),
        );
        decode_us.push(us(took));
        if decoded.as_ref() != Ok(&checkpoint) {
            roundtrip = Err(format!(
                "checkpoint at round {} does not round-trip",
                checkpoint.round()
            ));
        }
        let frame = encode_checkpoint_frame(&CheckpointFrame {
            shard: 0,
            num_shards: shards as u32,
            config_digest: digest,
            state,
        })
        .map_err(|e| SimError::Checkpoint(e.to_string()))?;
        frames.push(frame);
        Ok(())
    };
    let shard_reports: Result<Vec<ShardReport>, SimError> = (0..shards)
        .map(|j| {
            let sim = Simulation::new(sharded.shard_config(j).clone())?;
            let report = if j == 0 {
                sim.run_with_checkpoints(scd, checkpoint_every, None, &mut sink)?
            } else {
                sim.run(scd)?
            };
            Ok(ShardReport {
                shard: j,
                num_shards: shards,
                num_servers: sharded.plan().servers(j).len(),
                config_digest: digest,
                report,
            })
        })
        .collect();
    probe.checks.push("fabric.checkpoint_roundtrip", roundtrip);
    let shard_reports = match shard_reports {
        Ok(reports) => reports,
        Err(e) => {
            probe.checks.push("fabric.shard_runs", Err(e.to_string()));
            return;
        }
    };
    probe
        .metrics
        .num("sim.checkpoint.bytes", mean(&bytes))
        .num("sim.checkpoint.encode_us", mean(&encode_us))
        .num("sim.checkpoint.decode_us", mean(&decode_us));

    let mut frame_ok = Ok(());
    for report in &shard_reports {
        match encode_final_frame(report) {
            Ok(frame) => frames.push(frame),
            Err(e) => frame_ok = Err(e.to_string()),
        }
    }
    let mut frame_decode_us = Vec::new();
    for frame in &frames {
        for _ in 0..CODEC_REPS {
            let (decoded, took) =
                probe
                    .spans
                    .time("sim.fabric.codec.decode", Some(parent), None, || {
                        decode_frame(frame)
                    });
            frame_decode_us.push(us(took));
            if let Err(e) = decoded {
                frame_ok = Err(e.to_string());
            }
        }
    }
    if let Some(Ok(Frame::Final(decoded))) = frames.last().map(|f| decode_frame(f)) {
        if &decoded != shard_reports.last().expect("shards >= 1") {
            frame_ok = Err("a final frame does not decode to the report it carries".into());
        }
    }
    probe.checks.push("fabric.frames", frame_ok);
    let frame_bytes: Vec<f64> = frames.iter().map(|f| f.len() as f64).collect();
    probe
        .metrics
        .num("sim.fabric.codec.frame_bytes", mean(&frame_bytes))
        .num("sim.fabric.codec.decode_us", median(&mut frame_decode_us));

    let mut merge_us = Vec::new();
    let mut merged = None;
    for _ in 0..CODEC_REPS {
        let (result, took) = probe.spans.time("sim.shard.merge", Some(parent), None, || {
            merge_shard_reports(&shard_reports)
        });
        merge_us.push(us(took));
        merged = Some(result);
    }
    probe
        .metrics
        .num("sim.shard.merge_us", median(&mut merge_us));
    let merge_check = match (merged, parallel_scd) {
        (Some(Ok(mut merged)), Some(parallel)) => {
            merged.offered_load = parallel.offered_load;
            if merged == parallel {
                Ok(())
            } else {
                Err("merged shard reports differ from the in-process sharded run".into())
            }
        }
        (Some(Err(e)), _) => Err(e.to_string()),
        _ => Err("no in-process sharded SCD report to compare with".into()),
    };
    probe
        .checks
        .push("fabric.merge_matches_run_parallel", merge_check);
}

pub fn run(workload: &Workload, seed: u64, worker: &Path, out_dir: &Path) -> Obj {
    let mut probe = Probe {
        spans: Spans::new(),
        metrics: Obj::new(),
        checks: Checks::default(),
    };
    let mut runs = Vec::new();
    let factories = factories();
    let top = probe
        .spans
        .open(&format!("traced.{}", workload.name), None, None);
    let measured_rounds = (workload.rounds - workload.warmup_rounds) as f64;
    let shards = match workload.mode {
        Mode::InProcess => 1.0,
        Mode::Fabric { shards, .. } => shards as f64,
    };

    // 1. The engine's own dispatch share, and what measuring it costs.
    let mut overhead = Vec::new();
    let mut fabric_seconds = 0.0;
    let (mut attempts, mut checkpoints, mut replayed) = (0usize, 0u64, 0u64);
    for (i, name) in POLICIES.iter().enumerate() {
        let key = name.to_lowercase();
        let mut seconds = [0.0; 2];
        let mut dispatch_us = 0.0;
        for (rep, measure) in [false, true].into_iter().enumerate() {
            let label = if measure {
                "decision_times"
            } else {
                "untraced"
            };
            let span = probe
                .spans
                .open(&format!("engine.{name}.{label}"), Some(top), None);
            let outcome = setup(workload, seed, &factories, measure).and_then(|prepared| {
                let t = Instant::now();
                let outcome = run_policy(&prepared, workload, i, &factories, worker);
                seconds[rep] = t.elapsed().as_secs_f64();
                outcome
            });
            probe.spans.close(span);
            if let Ok(out) = &outcome {
                if measure {
                    dispatch_us = decision_total_us(out);
                } else {
                    attempts += out.fabric.attempts;
                    checkpoints += out.fabric.checkpoints_taken;
                    replayed += out.fabric.rounds_replayed;
                    fabric_seconds += seconds[rep];
                }
            }
            runs.push(run_record(
                name,
                rep,
                seconds[rep],
                workload.rounds,
                &outcome,
            ));
        }
        let [plain_s, measured_s] = seconds;
        let us_per_round = measured_s * 1e6 / workload.rounds as f64;
        let dispatch_per_round = dispatch_us / measured_rounds / shards;
        probe
            .metrics
            .num(
                &format!("sim.engine.dispatch_share.{key}"),
                dispatch_per_round / us_per_round,
            )
            .num(
                &format!("sim.engine.other_us_per_round.{key}"),
                us_per_round - dispatch_per_round,
            );
        overhead.push((measured_s - plain_s) / plain_s * 100.0);
    }
    probe.metrics.num("trace.overhead_pct", mean(&overhead));

    // 2. + 3. The traced windows, their replays and the layer probes.
    let mut scd_ratio = 0.0;
    for (i, name) in POLICIES.iter().enumerate() {
        let factory = factories[i].as_ref();
        let span = probe.spans.open(&format!("window.{name}"), Some(top), None);
        let window = window_config(workload, seed, false).and_then(|config| {
            let (_, trace) = Simulation::new(config.clone())
                .and_then(|sim| sim.run_traced(factory))
                .map_err(|e| e.to_string())?;
            Window::from_trace(config, &trace)
        });
        let result = window.and_then(|window| {
            let stats = replay(&window, name, factory, &mut probe.spans, span)?;
            if i == 0 {
                layer_probes(&window, &mut probe, span);
            }
            Ok(stats)
        });
        probe.spans.close(span);
        let mut stats = match result {
            Ok(stats) => stats,
            Err(e) => {
                probe.checks.push(&format!("replay.{name}"), Err(e));
                continue;
            }
        };
        probe.checks.push(&format!("replay.{name}"), Ok(()));
        let calls = stats.call_us.len();
        match *name {
            "SCD" => {
                // The SCD replay must cost what the engine's own decision
                // timer says on the same rounds. (JSQ's and WR's short
                // calls run cache-warm back to back in the replay, so only
                // their assignments are held to the engine's.)
                let agreement = window_config(workload, seed, true).and_then(|config| {
                    let report = Simulation::new(config)
                        .and_then(|sim| sim.run(factory))
                        .map_err(|e| e.to_string())?;
                    let engine_us = report.decision_times_us.map_or(0.0, |h| h.raw_parts().1);
                    scd_ratio = stats.measured_us / engine_us;
                    if (1.0 / REPLAY_AGREEMENT..=REPLAY_AGREEMENT).contains(&scd_ratio) {
                        Ok(())
                    } else {
                        Err(format!(
                            "replayed dispatch time is {scd_ratio:.3}x the engine's own: the \
                             replay is unrepresentative"
                        ))
                    }
                });
                probe
                    .checks
                    .push("replay.SCD.agrees_with_engine", agreement);
                let (accepts, fallbacks) = stats.warm;
                probe
                    .metrics
                    .num(
                        "core.scd.dispatch_us.p50",
                        percentile(&mut stats.call_us, 0.5),
                    )
                    .num(
                        "core.scd.dispatch_us.p99",
                        percentile(&mut stats.call_us, 0.99),
                    )
                    .num("core.scd.calls", calls as f64)
                    .num(
                        "core.scd.jobs_per_call",
                        stats.jobs as f64 / calls.max(1) as f64,
                    )
                    .num(
                        "core.scd.warm_accept_ratio",
                        accepts as f64 / (accepts + fallbacks).max(1) as f64,
                    )
                    .num(
                        "model.round_cache.begin_round_us",
                        mean(&stats.begin_round_us),
                    )
                    .num(
                        "model.round_cache.memo_hit_ratio",
                        stats.memo_hits as f64 / calls.max(1) as f64,
                    );
            }
            "JSQ" => {
                probe
                    .metrics
                    .num(
                        "policies.jsq.dispatch_us.p50",
                        percentile(&mut stats.call_us, 0.5),
                    )
                    .num(
                        "policies.jsq.dispatch_us.p99",
                        percentile(&mut stats.call_us, 0.99),
                    );
            }
            _ => {
                probe.metrics.num(
                    "policies.wr.dispatch_us.p50",
                    percentile(&mut stats.call_us, 0.5),
                );
            }
        }
    }
    probe.metrics.num("trace.replay_ratio", scd_ratio);

    // 4. The fabric layer.
    let runs_count = POLICIES.len() as f64;
    match workload.mode {
        Mode::Fabric {
            checkpoint_every, ..
        } => {
            probe
                .metrics
                .num("sim.fabric.attempts", attempts as f64 / runs_count)
                .num(
                    "sim.fabric.checkpoints_taken",
                    checkpoints as f64 / runs_count,
                )
                .num("sim.fabric.rounds_replayed", replayed as f64 / runs_count);
            match setup(workload, seed, &factories, false) {
                Ok(Prepared::Fabric(sharded)) => fabric_probes(
                    &sharded,
                    checkpoint_every,
                    &factories,
                    fabric_seconds,
                    &mut probe,
                    top,
                ),
                Ok(Prepared::InProcess(_)) => unreachable!("set-up follows the workload mode"),
                Err(e) => probe.checks.push("fabric.setup", Err(e)),
            }
        }
        Mode::InProcess => {
            // No fabric runs on this workload: its layer reads zero.
            for key in [
                "sim.fabric.overhead_pct",
                "sim.fabric.attempts",
                "sim.fabric.checkpoints_taken",
                "sim.fabric.rounds_replayed",
                "sim.checkpoint.bytes",
                "sim.checkpoint.encode_us",
                "sim.checkpoint.decode_us",
                "sim.fabric.codec.frame_bytes",
                "sim.fabric.codec.decode_us",
                "sim.shard.merge_us",
            ] {
                probe.metrics.num(key, 0.0);
            }
        }
    }
    probe.spans.close(top);

    let spans_file = out_dir.join(format!("{}.spans.json", workload.name));
    probe.checks.push(
        "spans.write",
        probe.spans.write(&spans_file).map_err(|e| e.to_string()),
    );
    let mut out = Obj::new();
    out.str("mode", "traced")
        .str("workload", workload.name)
        .int("seed", seed)
        .obj("params", crate::workload::params(workload))
        .str("spans_file", &spans_file.display().to_string())
        .objs("runs", runs)
        .objs("checks", probe.checks.0)
        .obj("metrics", probe.metrics);
    out
}
