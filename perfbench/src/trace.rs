//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions, written out when the run ends.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One span: name, interval, causing span and op id.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn dur(&self) -> Duration {
        self.end.saturating_duration_since(self.start)
    }
}

/// Span recorder. Spans opened with [`begin`](Tracer::begin) nest: the
/// innermost open span is the parent of the next one.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    /// Op id stamped on new spans.
    pub op: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    pub fn begin(&mut self, name: &'static str) -> usize {
        let now = Instant::now();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes span `id` (and any span left open inside it); returns its
    /// duration.
    pub fn end(&mut self, id: usize) -> Duration {
        let now = Instant::now();
        while let Some(top) = self.open.pop() {
            self.spans[top].end = now;
            if top == id {
                break;
            }
        }
        self.spans[id].dur()
    }

    /// Records an already finished interval under the innermost open
    /// span (or as a root).
    pub fn record(&mut self, name: &'static str, start: Instant, dur: Duration) -> usize {
        self.spans.push(Span {
            name,
            start,
            end: start + dur,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.spans.len() - 1
    }

    /// Times `f` as a span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let r = f();
        self.end(id);
        r
    }

    /// Total duration of every span named `name`.
    pub fn total(&self, name: &str) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur)
            .sum()
    }

    /// Durations of every span named `name`, in ms, in record order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur().as_secs_f64() * 1e3)
            .collect()
    }

    /// Per-op sums of spans named `name`, in ms: one entry per distinct
    /// op id carrying such a span.
    pub fn per_op_ms(&self, name: &str) -> Vec<f64> {
        let mut out: Vec<(u64, f64)> = Vec::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            let ms = s.dur().as_secs_f64() * 1e3;
            match out.last_mut() {
                Some((op, acc)) if *op == s.op => *acc += ms,
                _ => out.push((s.op, ms)),
            }
        }
        out.into_iter().map(|(_, ms)| ms).collect()
    }

    /// One line per span: `name start_us end_us parent op`.
    pub fn dump(&self) -> String {
        let mut out = String::from("# name start_us end_us parent op\n");
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{} {} {} {} {}",
                s.name,
                s.start.duration_since(self.origin).as_micros(),
                s.end.duration_since(self.origin).as_micros(),
                s.parent.map_or(-1, |p| p as i64),
                s.op
            );
        }
        out
    }
}
