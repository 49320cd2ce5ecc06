//! In-memory span recorder for the traced run.
//!
//! Every call the benchmark makes into the program goes through
//! [`Tracer::time`], which always measures the call's wall time (the
//! untraced run needs those walls too) and, when tracing is on, also
//! keeps a span: name, start, end and the span it was called under.
//! Spans stay in memory until the invocation ends and are written once.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One timed call.
pub struct Span {
    /// Layer-qualified call name, e.g. `runtime.plan_shards`.
    pub name: &'static str,
    /// Closed-loop iteration the call belongs to.
    pub iteration: usize,
    /// Offsets from the recorder's origin.
    pub start: Duration,
    /// End offset.
    pub end: Duration,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Wall time of one span name, summed over the spans that carry it.
#[derive(Default, Clone, Copy)]
pub struct NameTotals {
    /// Number of spans.
    pub count: u64,
    /// Summed span durations.
    pub total: Duration,
    /// Summed self time: each span's duration minus its children's.
    pub self_time: Duration,
}

/// Span recorder; with `on == false` it only measures walls.
pub struct Tracer {
    on: bool,
    origin: Instant,
    iteration: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder that keeps no spans until [`Tracer::set_on`].
    pub fn new() -> Self {
        Tracer {
            on: false,
            origin: Instant::now(),
            iteration: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being kept.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Start or stop keeping spans (the traced run alternates traced and
    /// untraced iterations to measure its own overhead).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Tag the spans that follow with iteration `i`.
    pub fn set_iteration(&mut self, i: usize) {
        self.iteration = i;
    }

    /// Run `f` as span `name` under the innermost open span and return
    /// its result with its wall time.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, Duration) {
        let start = Instant::now();
        let id = self.on.then(|| {
            let id = self.spans.len();
            self.spans.push(Span {
                name,
                iteration: self.iteration,
                start: start.duration_since(self.origin),
                end: Duration::ZERO,
                parent: self.open.last().copied(),
            });
            self.open.push(id);
            id
        });
        let out = f(self);
        let wall = start.elapsed();
        if let Some(id) = id {
            self.open.pop();
            self.spans[id].end = self.spans[id].start + wall;
        }
        (out, wall)
    }

    /// Close every span left open by a call that panicked, so later
    /// spans get the right parents.
    pub fn close_all(&mut self) {
        let now = self.origin.elapsed();
        for id in self.open.drain(..) {
            self.spans[id].end = now;
        }
    }

    /// Per-name totals and self times over the spans of `iterations`.
    pub fn totals(&self, iterations: &[usize]) -> BTreeMap<&'static str, NameTotals> {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_time) {
            if !iterations.contains(&s.iteration) {
                continue;
            }
            let t = out.entry(s.name).or_default();
            let dur = s.end - s.start;
            t.count += 1;
            t.total += dur;
            t.self_time += dur.saturating_sub(children);
        }
        out
    }

    /// Total wall time of spans named `name` in `iteration`.
    pub fn wall_of(&self, iteration: usize, name: &str) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.iteration == iteration && s.name == name)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// The spans as a JSON array (times in microseconds from the origin).
    pub fn spans_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n    {{\"id\": {i}, \"name\": \"{}\", \"iteration\": {}, \"start_us\": {:.3}, \"end_us\": {:.3}, \"parent\": {parent}}}",
                s.name,
                s.iteration,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
            );
        }
        out.push_str("\n  ]");
        out
    }
}
