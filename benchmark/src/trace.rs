//! In-memory spans around every call the benchmark makes into a layer.
//!
//! One process-wide recorder: the callbacks the runner makes into the
//! benchmark's own `Workload` and `LogStore` impls have no other way to
//! reach it. Recording is off for the end-to-end passes (a span is then
//! one relaxed load) and on for the traced pass; spans are written out
//! once, when the benchmark ends.

use crate::json::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

struct Span {
    name: &'static str,
    start: Instant,
    end: Instant,
    parent: Option<usize>,
    /// The repeat/cycle (or pass/query) the span belongs to.
    op: u64,
}

struct Recorder {
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
    counts: BTreeMap<&'static str, u64>,
}

// Relaxed: the flag publishes no data, and every reader runs on the
// thread that flips it.
static ON: AtomicBool = AtomicBool::new(false);
static RECORDER: Mutex<Recorder> =
    Mutex::new(Recorder { spans: Vec::new(), open: Vec::new(), op: 0, counts: BTreeMap::new() });

fn recorder() -> std::sync::MutexGuard<'static, Recorder> {
    RECORDER.lock().expect("a span guard panicked while recording")
}

pub fn set_recording(on: bool) {
    ON.store(on, Ordering::Relaxed);
}

/// Tag the spans that follow with the operation they belong to.
pub fn set_op(op: u64) {
    if ON.load(Ordering::Relaxed) {
        recorder().op = op;
    }
}

/// Add to a named count taken at a layer boundary.
pub fn count(name: &'static str, n: u64) {
    if ON.load(Ordering::Relaxed) {
        *recorder().counts.entry(name).or_insert(0) += n;
    }
}

/// Open a span; it closes when the guard drops.
#[must_use]
pub fn span(name: &'static str) -> SpanGuard {
    if !ON.load(Ordering::Relaxed) {
        return SpanGuard(None);
    }
    let mut r = recorder();
    let now = Instant::now();
    let idx = r.spans.len();
    let (parent, op) = (r.open.last().copied(), r.op);
    r.spans.push(Span { name, start: now, end: now, parent, op });
    r.open.push(idx);
    SpanGuard(Some(idx))
}

pub struct SpanGuard(Option<usize>);

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(idx) = self.0 else { return };
        let end = Instant::now();
        // Never panic in drop: a poisoned recorder only loses the span.
        if let Ok(mut r) = RECORDER.lock() {
            r.spans[idx].end = end;
            // Spans nest strictly (guards drop in reverse order).
            r.open.pop();
        }
    }
}

/// Time `f` under a span and hand back its result.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _guard = span(name);
    f()
}

/// What the traced pass recorded, queried by span name.
pub struct Trace {
    spans: Vec<Span>,
    counts: BTreeMap<&'static str, u64>,
}

/// Take everything recorded so far (and stop recording).
pub fn take() -> Trace {
    set_recording(false);
    let mut r = recorder();
    r.open.clear();
    Trace { spans: std::mem::take(&mut r.spans), counts: std::mem::take(&mut r.counts) }
}

impl Trace {
    fn dur_ms(s: &Span) -> f64 {
        s.end.duration_since(s.start).as_secs_f64() * 1e3
    }

    /// Durations (ms) of every span called `name`, in recording order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Self::dur_ms).collect()
    }

    /// Each `name` span's duration minus the part its direct children
    /// cover (children never overlap: one thread records).
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        let mut child_ms = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += Self::dur_ms(s);
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| (Self::dur_ms(s) - child_ms[i]).max(0.0))
            .collect()
    }

    /// Sum (ms) of the `child` spans directly under each `parent` span.
    pub fn child_ms_per_parent(&self, parent: &str, child: &str) -> Vec<f64> {
        let mut sums: BTreeMap<usize, f64> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == parent)
            .map(|(i, _)| (i, 0.0))
            .collect();
        for s in self.spans.iter().filter(|s| s.name == child) {
            if let Some(sum) = s.parent.and_then(|p| sums.get_mut(&p)) {
                *sum += Self::dur_ms(s);
            }
        }
        sums.into_values().collect()
    }

    pub fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// The trace file: every span (times in µs from the first span) and
    /// every count.
    pub fn to_json(&self) -> Json {
        let t0 = self.spans.first().map(|s| s.start);
        let us = |t: Instant| t0.map_or(0.0, |t0| t.duration_since(t0).as_secs_f64() * 1e6);
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::obj([
                    ("id", Json::Num(i as f64)),
                    ("name", Json::str(s.name)),
                    ("start_us", Json::Num(us(s.start))),
                    ("end_us", Json::Num(us(s.end))),
                    ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                    ("op", Json::Num(s.op as f64)),
                ])
            })
            .collect();
        let counts = self.counts.iter().map(|(k, v)| (k.to_string(), Json::Num(*v as f64)));
        Json::obj([("spans", Json::Arr(spans)), ("counts", Json::obj(counts))])
    }
}
