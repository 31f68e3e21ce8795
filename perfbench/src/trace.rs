//! In-memory span recorder with Chrome trace-event export.
//!
//! Spans are taken around the benchmark's own calls into each layer's
//! public functions; the program under test carries no instrumentation.
//! Storage is reserved up front and never grows: once it is full, later
//! spans are counted as dropped rather than allocated mid-run. The trace
//! is written once, when the run ends.

use pargcn_util::json::Json;
use std::time::{Duration, Instant};

/// `parent` of a span that has none.
pub const NO_PARENT: u32 = u32::MAX;
/// Thread id of the main thread; rank `m` records as `m + 1`.
pub const MAIN_TID: u32 = 0;

/// One recorded interval.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub tid: u32,
    /// Step (or repetition) the span belongs to.
    pub step: u32,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
}

impl Span {
    fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

/// Fixed-capacity span store for one run.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    dropped: u64,
}

impl Tracer {
    pub fn with_capacity(capacity: usize) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(16),
            dropped: 0,
        }
    }

    /// Innermost span open on the main thread.
    pub fn current(&self) -> u32 {
        self.open.last().copied().unwrap_or(NO_PARENT)
    }

    /// Runs `f` inside a span on the main thread. Spans recorded while
    /// `f` runs (through the tracer it is handed) become its children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        step: u32,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let start = Instant::now();
        let parent = self.current();
        let idx = self.record(name, MAIN_TID, step, start, Duration::ZERO, parent);
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        if let Some(s) = self.spans.get_mut(idx as usize) {
            s.dur_ns = start.elapsed().as_nanos() as u64;
        }
        out
    }

    /// Records an interval timed elsewhere (e.g. on a rank thread);
    /// returns its index, or [`NO_PARENT`] when the store is full.
    pub fn record(
        &mut self,
        name: &'static str,
        tid: u32,
        step: u32,
        start: Instant,
        dur: Duration,
        parent: u32,
    ) -> u32 {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return NO_PARENT;
        }
        self.spans.push(Span {
            name,
            tid,
            step,
            start_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
            dur_ns: dur.as_nanos() as u64,
            parent,
        });
        (self.spans.len() - 1) as u32
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Durations in seconds of every span named `name`.
    pub fn seconds(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64 * 1e-9)
            .collect()
    }

    /// Chrome trace-event JSON: one complete ("X") event per span, in µs,
    /// with its step and self time as arguments, thread names as metadata
    /// events, and `meta` under `otherData`.
    pub fn to_chrome_json(&self, meta: Json) -> Json {
        let own = self_times(&self.spans);
        let mut tids: Vec<u32> = self.spans.iter().map(|s| s.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        let mut events: Vec<Json> = tids
            .into_iter()
            .map(|tid| {
                let label = if tid == MAIN_TID {
                    "main".to_string()
                } else {
                    format!("rank {}", tid - 1)
                };
                Json::obj(vec![
                    ("name", Json::Str("thread_name".into())),
                    ("ph", Json::Str("M".into())),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(tid as f64)),
                    ("args", Json::obj(vec![("name", Json::Str(label))])),
                ])
            })
            .collect();
        for (s, own) in self.spans.iter().zip(own) {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            events.push(Json::obj(vec![
                ("name", Json::Str(s.name.to_string())),
                ("cat", Json::Str(layer.to_string())),
                ("ph", Json::Str("X".into())),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num(s.dur_ns as f64 / 1e3)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(s.tid as f64)),
                (
                    "args",
                    Json::obj(vec![
                        ("step", Json::Num(s.step as f64)),
                        ("self_us", Json::Num(own as f64 / 1e3)),
                    ]),
                ),
            ]));
        }
        Json::obj(vec![
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::Str("ms".into())),
            ("otherData", meta),
        ])
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children on other threads may overlap
/// one another, so the covered time is the union of their intervals,
/// clipped to the parent's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(c) = children.get_mut(s.parent as usize) {
            c.push((s.start_ns, s.end_ns()));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let end = s.end_ns();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, dur_ns: u64, parent: u32) -> Span {
        Span {
            name: "x",
            tid: 0,
            step: 0,
            start_ns,
            dur_ns,
            parent,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = [span(0, 100, NO_PARENT), span(10, 20, 0), span(50, 10, 0)];
        assert_eq!(self_times(&spans), vec![70, 20, 10]);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        // Two rank spans overlap (10..40, 20..50); a third runs past the
        // parent's end (90..120 is clipped to 90..100).
        let spans = [
            span(0, 100, NO_PARENT),
            span(10, 30, 0),
            span(20, 30, 0),
            span(90, 30, 0),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 40 - 10);
    }

    #[test]
    fn nesting_and_fixed_capacity() {
        let mut t = Tracer::with_capacity(2);
        t.span("outer", 0, |t| t.span("inner", 0, |_| ()));
        t.span("late", 1, |_| ());
        assert_eq!(t.spans().len(), 2, "the store never grows");
        assert_eq!(t.dropped(), 1);
        assert_eq!(t.spans()[1].parent, 0);
        assert_eq!(t.spans()[0].parent, NO_PARENT);
        assert!(t.spans()[1].dur_ns <= t.spans()[0].dur_ns);
    }

    #[test]
    fn chrome_export_is_valid_json() {
        let mut t = Tracer::with_capacity(4);
        t.span("comm.exchange", 3, |_| ());
        let text = t.to_chrome_json(Json::Null).to_string_compact();
        let parsed = pargcn_util::json::parse(&text).expect("valid JSON");
        let events = parsed.get("traceEvents").and_then(Json::as_array).unwrap();
        let x = events
            .iter()
            .find(|e| e.get("ph") == Some(&Json::Str("X".into())));
        let x = x.expect("one complete event");
        assert_eq!(x.get("cat"), Some(&Json::Str("comm".into())));
    }
}
