//! Zero-dependency span tracing for the rvhpc workspace.
//!
//! The paper's value is diagnostic: it attributes every headline number to
//! a component (memory-controller queueing, placement policy, VLA/VLS
//! codegen ratios). This crate gives the reproduction the same visibility
//! over time:
//!
//! * **Spans** ([`span!`]) — named, argument-carrying intervals collected
//!   thread-safely and exported as Chrome `chrome://tracing` JSON
//!   ([`chrome`]);
//! * **JSON** ([`json`]) — a streaming writer, a value tree rendered
//!   through it and a parser, shared by the Chrome exporter, the serve
//!   protocol, the metrics documents and the `repro --json` output (the
//!   build environment is offline; there is no serde here).
//!
//! Named counts, gauges and latency histograms live in `rvhpc-obs`, the
//! one metrics registry; a Chrome export carries the caller's counter
//! snapshot in its metadata.
//!
//! Tracing is **off by default** and every span site is gated on one
//! relaxed atomic load ([`enabled`]); with tracing disabled the
//! instrumented pipeline produces byte-identical output to an
//! uninstrumented build. Library crates never print — they emit events
//! here, and binaries decide what to render.
//!
//! ```
//! rvhpc_trace::set_enabled(true);
//! {
//!     let _g = rvhpc_trace::span!("estimate", kernel = "STREAM_TRIAD");
//! }
//! let data = rvhpc_trace::take();
//! rvhpc_trace::set_enabled(false);
//! assert_eq!(data.events.len(), 1);
//! assert_eq!(data.span_names(), vec!["estimate"]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod json;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Is tracing on? One relaxed atomic load — this is the *entire* cost of
/// every instrumentation site when tracing is disabled.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn collection on or off. Enabling pins the epoch for timestamps.
pub fn set_enabled(on: bool) {
    if on {
        let _ = epoch();
    }
    ENABLED.store(on, Ordering::SeqCst);
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_us() -> f64 {
    epoch().elapsed().as_secs_f64() * 1e6
}

/// Small stable per-thread id (Chrome trace `tid`), assigned in first-use
/// order.
pub fn thread_ordinal() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static ORDINAL: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ORDINAL.with(|o| *o)
}

/// One completed span (a Chrome "X" complete event).
#[derive(Debug, Clone)]
pub struct SpanEvent {
    /// Span name, e.g. `perfmodel.estimate`.
    pub name: &'static str,
    /// Stringified arguments attached at the call site.
    pub args: Vec<(&'static str, String)>,
    /// Thread ordinal the span ran on.
    pub tid: u64,
    /// Start, microseconds since the trace epoch.
    pub start_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
}

/// Everything collected since the last [`take`].
#[derive(Debug, Clone, Default)]
pub struct TraceData {
    /// Completed spans in completion order.
    pub events: Vec<SpanEvent>,
}

impl TraceData {
    /// Span names that occur in the trace, deduplicated, sorted.
    pub fn span_names(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = self.events.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        names
    }
}

static COLLECTOR: Mutex<TraceData> = Mutex::new(TraceData { events: Vec::new() });

fn with_collector<R>(f: impl FnOnce(&mut TraceData) -> R) -> R {
    // A poisoned collector only means a panic happened mid-record; the data
    // itself is still structurally sound, so keep collecting.
    let mut guard = match COLLECTOR.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    };
    f(&mut guard)
}

/// Drain everything collected so far.
pub fn take() -> TraceData {
    with_collector(std::mem::take)
}

/// RAII guard for an in-flight span; records a [`SpanEvent`] on drop.
/// Constructed by [`span()`] / [`span!`]; inert (and free beyond the
/// constructor's atomic load) when tracing is disabled.
#[must_use = "a span measures the scope it is alive for"]
pub struct Span {
    live: Option<LiveSpan>,
}

struct LiveSpan {
    name: &'static str,
    args: Vec<(&'static str, String)>,
    start_us: f64,
}

impl Span {
    /// A span that records nothing (tracing disabled).
    pub fn disabled() -> Span {
        Span { live: None }
    }

    /// Attach an argument to an in-flight span (no-op when disabled).
    pub fn arg(mut self, key: &'static str, value: impl std::fmt::Display) -> Span {
        if let Some(live) = &mut self.live {
            live.args.push((key, value.to_string()));
        }
        self
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(live) = self.live.take() {
            let end = now_us();
            with_collector(|d| {
                d.events.push(SpanEvent {
                    name: live.name,
                    args: live.args,
                    tid: thread_ordinal(),
                    start_us: live.start_us,
                    dur_us: (end - live.start_us).max(0.0),
                });
            });
        }
    }
}

/// Open a span; prefer the [`span!`] macro, which skips argument
/// evaluation when tracing is disabled.
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span::disabled();
    }
    Span { live: Some(LiveSpan { name, args: Vec::new(), start_us: now_us() }) }
}

/// Open a named span with optional `key = value` arguments:
/// `span!("perfmodel.estimate", kernel = k, machine = m.id)`.
/// Costs one relaxed atomic load when tracing is disabled; arguments are
/// not evaluated in that case.
#[macro_export]
macro_rules! span {
    ($name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::span($name)$(.arg(stringify!($key), $value))*
        } else {
            $crate::Span::disabled()
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The collector is global, so tests that enable tracing serialise on
    /// this lock to avoid cross-talk.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn disabled_records_nothing() {
        let _l = locked();
        set_enabled(false);
        let _ = take();
        {
            let _g = span!("should.not.appear", size = 42);
        }
        assert!(take().events.is_empty());
    }

    #[test]
    fn span_args_round_trip() {
        let _l = locked();
        set_enabled(true);
        let _ = take();
        {
            let _g = span!("unit.span", kernel = "DAXPY", n = 128);
        }
        let data = take();
        set_enabled(false);
        assert_eq!(data.events.len(), 1);
        let e = &data.events[0];
        assert_eq!(e.name, "unit.span");
        assert_eq!(e.args[0], ("kernel", "DAXPY".to_string()));
        assert_eq!(e.args[1], ("n", "128".to_string()));
        assert!(e.dur_us >= 0.0);
    }

    #[test]
    fn spans_nest_and_collect_from_threads() {
        let _l = locked();
        set_enabled(true);
        let _ = take();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let _outer = span!("outer");
                    let _inner = span!("inner");
                });
            }
        });
        let data = take();
        set_enabled(false);
        assert_eq!(data.events.len(), 8);
        assert_eq!(data.span_names(), vec!["inner", "outer"]);
        // Inner spans complete before their outer span on the same thread.
        for pair in data.events.chunks(2) {
            if pair[0].tid == pair[1].tid {
                assert!(pair[0].start_us >= 0.0);
            }
        }
    }
}
