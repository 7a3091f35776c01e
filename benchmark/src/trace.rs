//! The harness's own spans, recorded around its calls into the program.
//!
//! A span has a name, a start, an end, the span that caused it and, for
//! served requests, the request id. Spans stay in memory (up to
//! [`MAX_KEPT`]; later ones are only aggregated) and are written as one
//! Chrome trace when the run ends. The program itself is not
//! instrumented: its own spans are left off.

use crate::json::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Spans kept for the Chrome trace; every span still feeds the per-name
/// aggregates, so layer means never depend on this cap.
pub const MAX_KEPT: usize = 200_000;

/// A span that has started and not yet ended. Its id names it as the
/// parent of spans recorded while it runs.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    id: Option<usize>,
    name: &'static str,
    start_ns: u64,
}

impl Open {
    /// The parent for spans recorded outside any other span.
    pub const ROOT: Open = Open { id: None, name: "", start_ns: 0 };
}

struct Rec {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    req: Option<u64>,
    tid: u32,
}

#[derive(Default)]
struct Inner {
    kept: Vec<Rec>,
    dropped: u64,
    /// Per span name: count and summed duration in nanoseconds.
    agg: BTreeMap<&'static str, (u64, u64)>,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    inner: Mutex<Inner>,
}

fn thread_id() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(1);
    thread_local!(static ID: u32 = NEXT.fetch_add(1, Ordering::Relaxed));
    ID.with(|id| *id)
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, epoch: Instant::now(), inner: Mutex::new(Inner::default()) }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("a thread panicked while recording a span")
    }

    /// Start a span caused by `parent`.
    pub fn open(&self, name: &'static str, start: Instant, parent: Open, req: Option<u64>) -> Open {
        if !self.enabled {
            return Open::ROOT;
        }
        let start_ns = self.ns(start);
        let tid = thread_id();
        let mut inner = self.lock();
        let id = if inner.kept.len() < MAX_KEPT {
            let parent = parent.id;
            inner.kept.push(Rec { name, start_ns, end_ns: start_ns, parent, req, tid });
            Some(inner.kept.len() - 1)
        } else {
            inner.dropped += 1;
            None
        };
        Open { id, name, start_ns }
    }

    /// End a span started with [`Tracer::open`].
    pub fn close(&self, span: Open, end: Instant) {
        if !self.enabled || span.name.is_empty() {
            return;
        }
        let end_ns = self.ns(end);
        let mut inner = self.lock();
        let agg = inner.agg.entry(span.name).or_insert((0, 0));
        agg.0 += 1;
        agg.1 += end_ns.saturating_sub(span.start_ns);
        if let Some(i) = span.id {
            inner.kept[i].end_ns = end_ns;
        }
    }

    /// Record a span that has already ended.
    pub fn span(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Open,
        req: Option<u64>,
    ) {
        let s = self.open(name, start, parent, req);
        self.close(s, end);
    }

    /// Mean duration of the spans named `name`, in microseconds.
    pub fn mean_us(&self, name: &str) -> Option<f64> {
        let inner = self.lock();
        inner.agg.get(name).map(|&(n, sum)| sum as f64 / n as f64 / 1e3)
    }

    /// The Chrome trace-event document of the kept spans.
    pub fn chrome_json(&self) -> Json {
        let inner = self.lock();
        let events = inner
            .kept
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let mut args = vec![("span", Json::Num(i as f64))];
                if let Some(p) = r.parent {
                    args.push(("parent", Json::Num(p as f64)));
                }
                if let Some(id) = r.req {
                    args.push(("request", Json::Num(id as f64)));
                }
                Json::obj([
                    ("name", Json::Str(r.name.to_string())),
                    ("ph", Json::Str("X".into())),
                    ("ts", Json::Num(r.start_ns as f64 / 1e3)),
                    ("dur", Json::Num(r.end_ns.saturating_sub(r.start_ns) as f64 / 1e3)),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(f64::from(r.tid))),
                    ("args", Json::obj(args)),
                ])
            })
            .collect();
        Json::obj([
            ("traceEvents", Json::Arr(events)),
            ("otherData", Json::obj([("dropped_spans", Json::Num(inner.dropped as f64))])),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spans_link_parents_and_aggregate_by_name() {
        let t = Tracer::new(true);
        let t0 = Instant::now();
        let us = Duration::from_micros;
        let pass = t.open("pass", t0, Open::ROOT, None);
        t.span("core.fig1", t0, t0 + us(10), pass, Some(7));
        t.span("core.fig1", t0, t0 + us(20), pass, None);
        t.close(pass, t0 + us(30));
        assert!((t.mean_us("core.fig1").unwrap() - 15.0).abs() < 1e-9);
        assert!((t.mean_us("pass").unwrap() - 30.0).abs() < 1e-9);
        let doc = t.chrome_json();
        let Some(Json::Arr(events)) = doc.get("traceEvents") else { panic!("no events") };
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].get("dur").and_then(Json::as_f64), Some(30.0));
        assert_eq!(events[1].at(&["args", "parent"]).and_then(Json::as_f64), Some(0.0));
        assert_eq!(events[1].at(&["args", "request"]).and_then(Json::as_f64), Some(7.0));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let now = Instant::now();
        t.span("x", now, now, Open::ROOT, None);
        assert!(t.mean_us("x").is_none());
    }
}
