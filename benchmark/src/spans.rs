//! In-memory spans, recorded by the benchmark around its calls into the
//! program and written out once at exit.
//!
//! A span has a name, a start and an end (microseconds since the log's
//! epoch), the span that caused it, and a call count (a phase span
//! aggregates every call of that phase inside one tick). All spans of a
//! run share its root. A span's *self time* is its duration minus the
//! part of it its children cover.

use std::time::Instant;

use crate::json::Value;

/// Index of a span inside its [`SpanLog`].
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// What ran.
    pub name: &'static str,
    /// The span that caused this one (`None` for the root).
    pub parent: Option<SpanId>,
    /// Start, seconds since the log's epoch.
    pub start_s: f64,
    /// Time covered, seconds. For an aggregated phase this is the sum of
    /// its calls, so `start + dur` may precede the last call's true end.
    pub dur_s: f64,
    /// Calls aggregated into this span.
    pub calls: u64,
}

/// An append-only span list.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose clock starts at `epoch`.
    pub fn new(epoch: Instant) -> Self {
        SpanLog { epoch, spans: Vec::new() }
    }

    /// Seconds since the epoch.
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64()
    }

    /// Records a finished span.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        start: Instant,
        dur_s: f64,
        calls: u64,
    ) -> SpanId {
        let start_s = self.at(start);
        self.spans.push(Span { name, parent, start_s, dur_s, calls });
        self.spans.len() - 1
    }

    /// Opens a span whose end is not known yet; close it with
    /// [`SpanLog::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        self.push(name, parent, Instant::now(), 0.0, 1)
    }

    /// Ends a span opened with [`SpanLog::open`] now.
    pub fn close(&mut self, id: SpanId) {
        let now = self.at(Instant::now());
        self.spans[id].dur_s = now - self.spans[id].start_s;
    }

    /// Sets a span's start and duration after the fact (a parent whose
    /// exact bounds are only known once its children ran).
    pub fn retime(&mut self, id: SpanId, start: Instant, dur_s: f64) {
        self.spans[id].start_s = self.at(start);
        self.spans[id].dur_s = dur_s;
    }

    /// Times `f` as a child span of `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.push(name, parent, start, start.elapsed().as_secs_f64(), 1);
        out
    }

    /// Every span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of the spans called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.dur_s).sum()
    }

    /// Total calls of the spans called `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.calls).sum()
    }

    /// Self time per span: duration minus the children's durations.
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(|s| s.dur_s).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.dur_s;
            }
        }
        own
    }

    /// For the spans called `name`: the share of their time their children
    /// cover, in total and for the worst single span.
    pub fn coverage(&self, name: &str) -> (f64, f64) {
        let own = self.self_times();
        let (mut total, mut covered, mut worst) = (0.0, 0.0, 1.0f64);
        for (i, s) in self.spans.iter().enumerate().filter(|(_, s)| s.name == name) {
            total += s.dur_s;
            covered += s.dur_s - own[i];
            if s.dur_s > 0.0 {
                worst = worst.min((s.dur_s - own[i]) / s.dur_s);
            }
        }
        (if total > 0.0 { covered / total } else { 1.0 }, worst)
    }

    /// The trace file: a legend plus one row per span,
    /// `[id, parent, name, start_us, end_us, calls]`.
    pub fn to_json(&self) -> Value {
        let rows = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Value::Arr(vec![
                    id.into(),
                    s.parent.map_or(Value::Null, Into::into),
                    s.name.into(),
                    Value::Num((s.start_s * 1e6).round()),
                    Value::Num(((s.start_s + s.dur_s) * 1e6).round()),
                    s.calls.into(),
                ])
            })
            .collect::<Vec<_>>();
        let mut v = Value::obj();
        v.set("columns", "id, parent, name, start_us, end_us, calls")
            .set(
                "note",
                "parent is the causing span (null = root of the run); a phase span aggregates all \
                 calls of that phase inside its tick, so end_us - start_us is time covered, not \
                 the last call's end; self time = span minus its children",
            )
            .set("spans", rows);
        v
    }
}
