//! In-memory spans around the benchmark's calls into each layer, written out
//! as a Chrome trace when the traced run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Index of a recorded span.
pub type SpanId = usize;

struct Span {
    name: String,
    start: Duration,
    end: Duration,
    parent: Option<SpanId>,
    round: Option<u64>,
}

/// The span recorder: every span is kept until [`Spans::write`].
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span now; close it with [`Spans::close`].
    pub fn open(&mut self, name: &str, parent: Option<SpanId>, round: Option<u64>) -> SpanId {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name: name.to_string(),
            start: now,
            end: now,
            parent,
            round,
        });
        self.spans.len() - 1
    }

    /// Closes a span and returns its duration.
    pub fn close(&mut self, id: SpanId) -> Duration {
        let span = &mut self.spans[id];
        span.end = self.origin.elapsed();
        span.end - span.start
    }

    /// Records a span measured by the caller, from `start` for `duration`.
    pub fn record(
        &mut self,
        name: &str,
        start: Instant,
        duration: Duration,
        parent: Option<SpanId>,
        round: Option<u64>,
    ) {
        let start = start.duration_since(self.origin);
        self.spans.push(Span {
            name: name.to_string(),
            start,
            end: start + duration,
            parent,
            round,
        });
    }

    /// Runs `f` inside a span and returns its result and duration.
    pub fn time<T>(
        &mut self,
        name: &str,
        parent: Option<SpanId>,
        round: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let id = self.open(name, parent, round);
        let value = f();
        (value, self.close(id))
    }

    /// Per span name: total and self time in µs (self time is the span's
    /// duration minus what its direct children cover).
    fn totals(&self) -> BTreeMap<&str, (f64, f64, u64)> {
        let mut child_us = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_us[parent] += (span.end - span.start).as_secs_f64() * 1e6;
            }
        }
        let mut totals: BTreeMap<&str, (f64, f64, u64)> = BTreeMap::new();
        for (span, child) in self.spans.iter().zip(&child_us) {
            let us = (span.end - span.start).as_secs_f64() * 1e6;
            let entry = totals.entry(span.name.as_str()).or_default();
            entry.0 += us;
            entry.1 += (us - child).max(0.0);
            entry.2 += 1;
        }
        totals
    }

    /// Writes the spans as a Chrome `trace_event` file, plus a per-name
    /// total/self-time summary under `"selfTime"`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("{\"traceEvents\":[");
        for (id, span) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{id},\"parent\":{},\"round\":{}}}}}",
                span.name,
                span.start.as_secs_f64() * 1e6,
                (span.end - span.start).as_secs_f64() * 1e6,
                span.parent.map_or("null".to_string(), |p| p.to_string()),
                span.round.map_or("null".to_string(), |r| r.to_string()),
            );
        }
        out.push_str("],\"selfTime\":{");
        for (i, (name, (total, self_us, count))) in self.totals().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{name}\":{{\"total_us\":{total:.3},\"self_us\":{self_us:.3},\"count\":{count}}}"
            );
        }
        out.push_str("}}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
