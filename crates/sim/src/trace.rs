//! Per-job event traces and the Chrome/Perfetto `trace_event` emitter.
//!
//! When the engine runs through [`Simulation::run_traced`]
//! (or [`ShardedSimulation::run_traced`]) it fills a [`RunTrace`]: the raw
//! per-round arrival counts (an [`ArrivalTrace`] a workload can
//! [replay](crate::WorkloadSpec::replay) bit-exactly) plus a stream of
//! [`TraceEvent`]s following every job batch from arrival through dispatch
//! to service. [`chrome_trace_json`] renders the stream in the Chrome
//! `trace_event` JSON format (written by hand, like every serialization in
//! the workspace), loadable in `chrome://tracing` or
//! [Perfetto](https://ui.perfetto.dev):
//! dispatchers and servers appear as two process lanes, arrivals as
//! instants, dispatch decisions as complete slices, and service as
//! begin/end pairs.
//!
//! Arrival counts are recorded at *sample* time, before any scenario
//! zeroing — replaying the trace under the same scenario re-applies the
//! identical losses, which is what makes record→replay bit-exact even in
//! degraded runs.
//!
//! [`Simulation::run_traced`]: crate::Simulation::run_traced
//! [`ShardedSimulation::run_traced`]: crate::ShardedSimulation::run_traced

use crate::workload::ArrivalTrace;
use std::io::Write;
use std::path::Path;

/// Hard cap on recorded [`TraceEvent`]s per run; past it events are
/// counted in [`RunTrace::dropped`] instead of stored (a 2 M-event trace
/// is already ~100 MB of JSON — beyond what a timeline viewer loads).
pub const MAX_TRACE_EVENTS: usize = 2_000_000;

/// One recorded engine event. Counts are batch sizes: the engine moves
/// jobs in runs, and the trace preserves that granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// `count` jobs arrived at a dispatcher (post-scenario: what the
    /// dispatcher actually received).
    Arrival {
        /// Round of arrival.
        round: u64,
        /// Receiving dispatcher (global id).
        dispatcher: u32,
        /// Jobs in the batch.
        count: u64,
    },
    /// A dispatcher routed `count` jobs to a server.
    Dispatch {
        /// Round of the decision.
        round: u64,
        /// Deciding dispatcher (global id).
        dispatcher: u32,
        /// Chosen server (global id).
        server: u32,
        /// Jobs routed together.
        count: u64,
    },
    /// A server completed `count` jobs that arrived in `arrival_round`
    /// (service start/finish: the batch occupied the server from its
    /// dispatch round up to `round`, where it finishes).
    Service {
        /// Round of completion.
        round: u64,
        /// Serving server (global id).
        server: u32,
        /// Round the completed jobs arrived in.
        arrival_round: u64,
        /// Jobs completed together.
        count: u64,
    },
}

/// A full per-job event trace of one run: the sampled arrival matrix
/// (replayable via [`WorkloadSpec::replay`](crate::WorkloadSpec::replay))
/// and the event stream.
#[derive(Debug, Clone, PartialEq)]
pub struct RunTrace {
    /// Dispatchers in the (global) system.
    pub num_dispatchers: usize,
    /// Servers in the (global) system.
    pub num_servers: usize,
    /// Rounds recorded.
    pub rounds: u64,
    /// Raw sampled per-round, per-dispatcher arrival counts (recorded
    /// *before* scenario losses).
    pub arrivals: ArrivalTrace,
    /// The event stream, in engine order.
    pub events: Vec<TraceEvent>,
    /// Events discarded after [`MAX_TRACE_EVENTS`] was reached.
    pub dropped: u64,
}

impl RunTrace {
    /// An empty trace for a system of the given (global) shape.
    pub fn new(num_dispatchers: usize, num_servers: usize, rounds: u64) -> Self {
        RunTrace {
            num_dispatchers,
            num_servers,
            rounds,
            arrivals: ArrivalTrace::new(num_dispatchers, rounds),
            events: Vec::new(),
            dropped: 0,
        }
    }

    fn push(&mut self, event: TraceEvent) {
        if self.events.len() < MAX_TRACE_EVENTS {
            self.events.push(event);
        } else {
            self.dropped += 1;
        }
    }

    /// Records the raw sampled arrival count of one `(round, dispatcher)`
    /// cell (pre-scenario).
    pub fn record_sampled_arrival(&mut self, round: u64, dispatcher: usize, count: u64) {
        self.arrivals.set(round, dispatcher, count);
    }

    /// Records the post-scenario arrival batch a dispatcher received.
    pub fn record_arrival(&mut self, round: u64, dispatcher: u32, count: u64) {
        if count > 0 {
            self.push(TraceEvent::Arrival {
                round,
                dispatcher,
                count,
            });
        }
    }

    /// Records a dispatch decision.
    pub fn record_dispatch(&mut self, round: u64, dispatcher: u32, server: u32, count: u64) {
        if count > 0 {
            self.push(TraceEvent::Dispatch {
                round,
                dispatcher,
                server,
                count,
            });
        }
    }

    /// Records a service completion batch.
    pub fn record_service(&mut self, round: u64, server: u32, arrival_round: u64, count: u64) {
        if count > 0 {
            self.push(TraceEvent::Service {
                round,
                server,
                arrival_round,
                count,
            });
        }
    }

    /// Merges a shard-local trace into this global one, remapping local
    /// dispatcher/server indices through `dispatcher_ids`/`server_ids`
    /// (`ids[local] = global`). Event order within the shard is preserved;
    /// callers merge shards in shard order for a deterministic stream.
    ///
    /// # Panics
    /// Panics if an id map is shorter than the shard's entity count or a
    /// global id is outside this trace's shape.
    pub fn absorb_remapped(
        &mut self,
        local: &RunTrace,
        dispatcher_ids: &[u32],
        server_ids: &[u32],
    ) {
        assert!(
            local.rounds <= self.rounds,
            "shard trace exceeds run length"
        );
        let m = local.arrivals.num_dispatchers();
        assert!(dispatcher_ids.len() >= m, "dispatcher id map too short");
        for round in 0..local.rounds {
            for (d, &global) in dispatcher_ids[..m].iter().enumerate() {
                self.arrivals
                    .set(round, global as usize, local.arrivals.count(round, d));
            }
        }
        for &event in &local.events {
            let remapped = match event {
                TraceEvent::Arrival {
                    round,
                    dispatcher,
                    count,
                } => TraceEvent::Arrival {
                    round,
                    dispatcher: dispatcher_ids[dispatcher as usize],
                    count,
                },
                TraceEvent::Dispatch {
                    round,
                    dispatcher,
                    server,
                    count,
                } => TraceEvent::Dispatch {
                    round,
                    dispatcher: dispatcher_ids[dispatcher as usize],
                    server: server_ids[server as usize],
                    count,
                },
                TraceEvent::Service {
                    round,
                    server,
                    arrival_round,
                    count,
                } => TraceEvent::Service {
                    round,
                    server: server_ids[server as usize],
                    arrival_round,
                    count,
                },
            };
            self.push(remapped);
        }
        self.dropped += local.dropped;
    }
}

/// Microseconds per simulated round on the Chrome trace timeline.
const ROUND_US: u64 = 1_000;

fn push_event_json(out: &mut String, trace_event: &TraceEvent) {
    use std::fmt::Write as _;
    match *trace_event {
        TraceEvent::Arrival {
            round,
            dispatcher,
            count,
        } => {
            let _ = write!(
                out,
                "{{\"name\":\"arrive x{count}\",\"cat\":\"arrival\",\"ph\":\"i\",\
                 \"ts\":{},\"pid\":1,\"tid\":{},\"s\":\"t\",\
                 \"args\":{{\"round\":{round},\"count\":{count}}}}}",
                round * ROUND_US,
                dispatcher
            );
        }
        TraceEvent::Dispatch {
            round,
            dispatcher,
            server,
            count,
        } => {
            let _ = write!(
                out,
                "{{\"name\":\"dispatch x{count} -> s{server}\",\"cat\":\"dispatch\",\
                 \"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\
                 \"args\":{{\"round\":{round},\"server\":{server},\"count\":{count}}}}}",
                round * ROUND_US,
                ROUND_US / 2,
                dispatcher
            );
        }
        TraceEvent::Service {
            round,
            server,
            arrival_round,
            count,
        } => {
            // Render the batch as occupying the server from its arrival
            // round until completion: a begin/end slice pair.
            let _ = write!(
                out,
                "{{\"name\":\"serve x{count}\",\"cat\":\"service\",\"ph\":\"B\",\
                 \"ts\":{},\"pid\":2,\"tid\":{server},\
                 \"args\":{{\"arrival_round\":{arrival_round},\"count\":{count}}}}}",
                arrival_round * ROUND_US
            );
            out.push(',');
            let _ = write!(
                out,
                "{{\"name\":\"serve x{count}\",\"cat\":\"service\",\"ph\":\"E\",\
                 \"ts\":{},\"pid\":2,\"tid\":{server}}}",
                round * ROUND_US + ROUND_US * 4 / 5
            );
        }
    }
}

/// Renders a [`RunTrace`] as Chrome `trace_event` JSON (the
/// `{"traceEvents": [...]}` object form), loadable in `chrome://tracing`
/// and Perfetto. Dispatchers are threads of pid 1, servers threads of
/// pid 2; arrivals are `"i"` instants, dispatch decisions `"X"` complete
/// slices, service batches `"B"`/`"E"` pairs, plus `"M"` metadata naming
/// the lanes.
pub fn chrome_trace_json(trace: &RunTrace) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(256 + trace.events.len() * 160);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !first {
            out.push(',');
        }
        first = false;
    };
    // Metadata: name the two process lanes and every entity thread.
    for (pid, name) in [(1u32, "dispatchers"), (2u32, "servers")] {
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":\"{name}\"}}}}"
        );
    }
    for d in 0..trace.num_dispatchers {
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{d},\
             \"args\":{{\"name\":\"dispatcher {d}\"}}}}"
        );
    }
    for s in 0..trace.num_servers {
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":2,\"tid\":{s},\
             \"args\":{{\"name\":\"server {s}\"}}}}"
        );
    }
    for event in &trace.events {
        sep(&mut out);
        push_event_json(&mut out, event);
    }
    out.push_str("]}");
    out
}

/// Writes [`chrome_trace_json`] to `path`.
///
/// # Errors
/// Propagates I/O errors from creating or writing the file.
pub fn write_chrome_trace(path: &Path, trace: &RunTrace) -> std::io::Result<()> {
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    file.write_all(chrome_trace_json(trace).as_bytes())?;
    file.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> RunTrace {
        let mut trace = RunTrace::new(2, 3, 4);
        trace.record_sampled_arrival(0, 0, 5);
        trace.record_sampled_arrival(0, 1, 2);
        trace.record_arrival(0, 0, 5);
        trace.record_arrival(0, 1, 2);
        trace.record_dispatch(0, 0, 2, 5);
        trace.record_dispatch(0, 1, 0, 2);
        trace.record_service(1, 2, 0, 5);
        trace.record_service(2, 0, 0, 2);
        trace
    }

    #[test]
    fn zero_count_events_are_not_recorded() {
        let mut trace = RunTrace::new(1, 1, 1);
        trace.record_arrival(0, 0, 0);
        trace.record_dispatch(0, 0, 0, 0);
        trace.record_service(0, 0, 0, 0);
        assert!(trace.events.is_empty());
    }

    #[test]
    fn the_event_cap_counts_drops_instead_of_growing() {
        let mut trace = RunTrace::new(1, 1, 1);
        for _ in 0..MAX_TRACE_EVENTS + 10 {
            trace.record_arrival(0, 0, 1);
        }
        assert_eq!(trace.events.len(), MAX_TRACE_EVENTS);
        assert_eq!(trace.dropped, 10);
    }

    #[test]
    fn absorb_remapped_translates_local_ids_to_global() {
        let mut local = RunTrace::new(1, 2, 3);
        local.record_sampled_arrival(1, 0, 9);
        local.record_arrival(1, 0, 9);
        local.record_dispatch(1, 0, 1, 9);
        local.record_service(2, 1, 1, 9);
        let mut global = RunTrace::new(3, 5, 3);
        global.absorb_remapped(&local, &[2], &[1, 4]);
        assert_eq!(global.arrivals.count(1, 2), 9);
        assert_eq!(
            global.events,
            vec![
                TraceEvent::Arrival {
                    round: 1,
                    dispatcher: 2,
                    count: 9
                },
                TraceEvent::Dispatch {
                    round: 1,
                    dispatcher: 2,
                    server: 4,
                    count: 9
                },
                TraceEvent::Service {
                    round: 2,
                    server: 4,
                    arrival_round: 1,
                    count: 9
                },
            ]
        );
    }

    #[test]
    fn chrome_json_contains_all_four_phase_types_and_balances() {
        let json = chrome_trace_json(&sample_trace());
        assert!(json.starts_with('{') && json.ends_with('}'));
        for phase in [
            "\"ph\":\"M\"",
            "\"ph\":\"i\"",
            "\"ph\":\"X\"",
            "\"ph\":\"B\"",
            "\"ph\":\"E\"",
        ] {
            assert!(json.contains(phase), "missing {phase} in {json}");
        }
        // Begin/end pairs must balance for the timeline to nest.
        let begins = json.matches("\"ph\":\"B\"").count();
        let ends = json.matches("\"ph\":\"E\"").count();
        assert_eq!(begins, ends);
        // Structural sanity without a JSON parser: balanced braces and
        // brackets, no trailing comma before the closing bracket.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        assert!(!json.contains(",]"));
    }
}
