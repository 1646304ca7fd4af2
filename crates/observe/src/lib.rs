//! Zero-dependency structured tracing for the computation-slicing
//! workspace.
//!
//! The crate provides one small vocabulary — leveled [`Event`]s carrying
//! spans (monotonic enter/exit timing), monotonic counters, gauges,
//! histogram samples, and text messages — and a [`Recorder`] trait that
//! sinks implement. Three sinks ship with the crate:
//!
//! * [`NullRecorder`] — discards everything; equivalent to the default
//!   state where no recorder is installed at all.
//! * [`StderrLogger`] — human-readable leveled output on stderr,
//!   conventionally configured through the `SLICING_LOG` environment
//!   variable (see [`StderrLogger::from_env`]).
//! * [`MemoryRecorder`] — buffers events in memory for test assertions.
//!
//! # Dispatch model
//!
//! Instrumentation sites call the free functions [`span`], [`counter`],
//! [`gauge`], [`sample`], and [`message`]. Events reach two kinds of
//! recorders:
//!
//! * a single process-wide recorder installed with [`install`] (used by
//!   binaries), and
//! * a thread-local stack of scoped recorders pushed with [`scoped`]
//!   (used by tests, so that parallel test threads never observe each
//!   other's events).
//!
//! When no recorder is installed anywhere, every instrumentation call
//! reduces to one relaxed atomic load — hot loops in the slicers and
//! detectors pay effectively nothing for being instrumented. Spans are
//! emitted at [`Level::Debug`]; counters, gauges, and samples at
//! [`Level::Trace`]; messages at their explicit level.
//!
//! Threads spawned by instrumented code (for example the parallel BFS
//! detector) see the globally installed recorder but not the spawning
//! thread's scoped recorders, since the scope stack is thread-local.

#![warn(missing_docs)]

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

pub mod diff;
pub mod histogram;
pub mod json;
pub mod profile;
pub mod report;
pub mod schema;
pub mod sinks;
pub mod snapshot;

pub use histogram::Histogram;
pub use profile::{ProfileReport, ProfileSpan, Profiler};
pub use report::RunReport;
pub use sinks::{MemoryRecorder, OwnedEvent, StderrLogger};
pub use snapshot::MetricsSnapshotter;

/// Verbosity levels, ordered from silent to most verbose.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// Record nothing.
    Off,
    /// Unrecoverable problems.
    Error,
    /// Suspicious conditions worth flagging.
    Warn,
    /// High-level progress (engine start/finish, phase switches).
    Info,
    /// Spans: per-algorithm enter/exit with timing.
    Debug,
    /// Counters and gauges from hot loops.
    Trace,
}

impl Level {
    /// Parses a level name, case-insensitively. Unknown names are `None`.
    pub fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "none" | "0" => Some(Level::Off),
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            "trace" => Some(Level::Trace),
            _ => None,
        }
    }

    /// The lowercase name of the level.
    pub fn name(self) -> &'static str {
        match self {
            Level::Off => "off",
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One instrumentation event, borrowed from the emission site.
///
/// Names are `&'static str` by convention (dotted paths such as
/// `"slice.j_table"` or `"detect.cuts_explored"`), which keeps emission
/// allocation-free; sinks that outlive the call copy what they need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event<'a> {
    /// A timed region began. `id` pairs this with its matching exit.
    SpanEnter {
        /// Dotted span name, e.g. `"slice.j_table"`.
        name: &'a str,
        /// Process-unique monotonic span id.
        id: u64,
    },
    /// A timed region ended after `nanos` nanoseconds of wall time.
    SpanExit {
        /// Dotted span name, matching the enter event.
        name: &'a str,
        /// The id issued by the matching [`Event::SpanEnter`].
        id: u64,
        /// Monotonic elapsed time inside the span, in nanoseconds.
        nanos: u64,
    },
    /// A monotonic counter increased by `delta`.
    Counter {
        /// Dotted counter name, e.g. `"detect.cuts_explored"`.
        name: &'a str,
        /// Non-negative increment.
        delta: u64,
    },
    /// An instantaneous measurement of some quantity.
    Gauge {
        /// Dotted gauge name, e.g. `"detect.bfs.frontier"`.
        name: &'a str,
        /// The sampled value.
        value: u64,
    },
    /// One observation destined for a distribution summary (histogram).
    ///
    /// Unlike a [`Event::Gauge`] — where only the latest value and the
    /// running maximum matter — every sample contributes to percentile
    /// figures, so sinks that summarize must bucket each one.
    Sample {
        /// Dotted sample name, e.g. `"monitor.check.cost"`.
        name: &'a str,
        /// The observed value.
        value: u64,
    },
    /// A human-readable message at an explicit level.
    Message {
        /// Severity of the message.
        level: Level,
        /// The rendered text.
        text: &'a str,
    },
}

impl Event<'_> {
    /// The level at which this event is emitted.
    pub fn level(&self) -> Level {
        match self {
            Event::SpanEnter { .. } | Event::SpanExit { .. } => Level::Debug,
            Event::Counter { .. } | Event::Gauge { .. } | Event::Sample { .. } => Level::Trace,
            Event::Message { level, .. } => *level,
        }
    }
}

/// A sink for instrumentation events.
///
/// Implementations must be cheap to call and internally synchronized:
/// `record` may be invoked from multiple threads at once.
///
/// # Event semantics (the cross-sink contract)
///
/// Every sink must interpret the event kinds identically, so that two
/// sinks fed the same event stream agree on derived values:
///
/// * **Counters** are monotonic: a sink's view of counter `n` is the sum
///   of every `delta` recorded for `n`. Sinks never reset or overwrite.
/// * **Gauges** are instantaneous: each [`Event::Gauge`] *replaces* the
///   previous reading of that name. A sink may additionally track the
///   running maximum (as [`MemoryRecorder::gauge_max`] does), but the
///   primary value of a gauge is always its most recent reading —
///   streaming sinks emit each reading in order, and a consumer that
///   keeps only the last line per name reconstructs exactly what
///   [`MemoryRecorder::gauge_last`] reports.
/// * **Samples** feed distributions: every [`Event::Sample`] value
///   contributes one observation to the named histogram; neither
///   replacement (gauge) nor summation (counter) semantics apply.
///
/// The `sinks` module's tests pin the contract on [`MemoryRecorder`].
pub trait Recorder: Send + Sync {
    /// The most verbose level this recorder wants. Events above it are
    /// filtered out before `record` is called.
    fn level(&self) -> Level;

    /// Consumes one event.
    fn record(&self, event: &Event<'_>);
}

/// A recorder that discards every event.
///
/// Installing it is equivalent to installing nothing; the type exists so
/// call sites can be explicit about "observability off".
#[derive(Debug, Default, Clone, Copy)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn level(&self) -> Level {
        Level::Off
    }

    fn record(&self, _event: &Event<'_>) {}
}

/// Count of installed recorders (global + all scoped, process-wide).
/// Zero means every instrumentation call early-outs after one load.
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

/// The process-wide recorder, if any.
static GLOBAL: RwLock<Option<Arc<dyn Recorder>>> = RwLock::new(None);

/// Monotonic source of span ids.
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Scoped recorders visible only to the current thread.
    static SCOPED: RefCell<Vec<Arc<dyn Recorder>>> = const { RefCell::new(Vec::new()) };
}

/// Installs `recorder` as the process-wide sink, replacing any previous
/// one. Binaries call this once at startup.
pub fn install(recorder: Arc<dyn Recorder>) {
    let mut slot = GLOBAL.write().expect("recorder lock");
    if slot.replace(recorder).is_none() {
        ACTIVE.fetch_add(1, Ordering::SeqCst);
    }
}

/// Removes the process-wide recorder, if one is installed.
pub fn uninstall() {
    let mut slot = GLOBAL.write().expect("recorder lock");
    if slot.take().is_some() {
        ACTIVE.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Pushes a recorder visible only to the current thread for the lifetime
/// of the returned guard. Scopes nest; tests use this so parallel test
/// threads stay isolated.
#[must_use = "the recorder is removed when the guard drops"]
pub fn scoped(recorder: Arc<dyn Recorder>) -> ScopedRecorder {
    SCOPED.with(|s| s.borrow_mut().push(recorder));
    ACTIVE.fetch_add(1, Ordering::SeqCst);
    ScopedRecorder {
        _not_send: PhantomData,
    }
}

/// RAII guard for a [`scoped`] recorder; popping happens on drop.
#[derive(Debug)]
pub struct ScopedRecorder {
    // The guard must drop on the thread that pushed it.
    _not_send: PhantomData<*const ()>,
}

impl Drop for ScopedRecorder {
    fn drop(&mut self) {
        SCOPED.with(|s| s.borrow_mut().pop());
        ACTIVE.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Would an event at `level` reach any recorder right now?
///
/// The disabled path is a single relaxed atomic load; instrumentation in
/// hot loops should rely on this rather than pre-computing anything.
#[inline]
pub fn enabled(level: Level) -> bool {
    if ACTIVE.load(Ordering::Relaxed) == 0 {
        return false;
    }
    enabled_slow(level)
}

#[cold]
fn enabled_slow(level: Level) -> bool {
    let scoped = SCOPED.with(|s| s.borrow().iter().any(|r| r.level() >= level));
    if scoped {
        return true;
    }
    GLOBAL
        .read()
        .expect("recorder lock")
        .as_ref()
        .is_some_and(|r| r.level() >= level)
}

/// Delivers `event` to every recorder whose level admits it.
fn dispatch(event: &Event<'_>) {
    let level = event.level();
    SCOPED.with(|s| {
        for r in s.borrow().iter() {
            if r.level() >= level {
                r.record(event);
            }
        }
    });
    if let Some(r) = GLOBAL.read().expect("recorder lock").as_ref() {
        if r.level() >= level {
            r.record(event);
        }
    }
}

/// Opens a timed span named `name` (a `&'static str` dotted path). The
/// span emits [`Event::SpanEnter`] now and [`Event::SpanExit`] with the
/// elapsed wall time when the returned guard drops. When no recorder
/// admits [`Level::Debug`], the guard is inert and no clock is read.
#[must_use = "the span closes (and reports its time) when the guard drops"]
pub fn span(name: &'static str) -> Span {
    if !enabled(Level::Debug) {
        return Span {
            name,
            id: 0,
            start: None,
        };
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed) + 1;
    dispatch(&Event::SpanEnter { name, id });
    Span {
        name,
        id,
        start: Some(Instant::now()),
    }
}

/// An open span; see [`span`].
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    id: u64,
    start: Option<Instant>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            dispatch(&Event::SpanExit {
                name: self.name,
                id: self.id,
                nanos,
            });
        }
    }
}

/// Adds `delta` to the monotonic counter `name` ([`Level::Trace`]).
#[inline]
pub fn counter(name: &'static str, delta: u64) {
    if enabled(Level::Trace) {
        dispatch(&Event::Counter { name, delta });
    }
}

/// Samples gauge `name` at `value` ([`Level::Trace`]).
#[inline]
pub fn gauge(name: &'static str, value: u64) {
    if enabled(Level::Trace) {
        dispatch(&Event::Gauge { name, value });
    }
}

/// Records one observation of `name` for distribution summaries
/// ([`Level::Trace`]). Use for quantities whose percentiles matter
/// (per-event check cost, layer width, probe length); use [`gauge`] for
/// quantities where only the latest/maximum reading matters.
#[inline]
pub fn sample(name: &'static str, value: u64) {
    if enabled(Level::Trace) {
        dispatch(&Event::Sample { name, value });
    }
}

/// Emits a text message at `level`. The closure runs only when some
/// recorder admits the level, so formatting is free when disabled.
#[inline]
pub fn message<F: FnOnce() -> String>(level: Level, text: F) {
    if enabled(level) {
        let text = text();
        dispatch(&Event::Message { level, text: &text });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parsing_and_order() {
        assert_eq!(Level::parse("TRACE"), Some(Level::Trace));
        assert_eq!(Level::parse(" info "), Some(Level::Info));
        assert_eq!(Level::parse("bogus"), None);
        assert!(Level::Trace > Level::Debug);
        assert!(Level::Debug > Level::Info);
        assert!(Level::Error > Level::Off);
        assert_eq!(Level::Warn.to_string(), "warn");
    }

    #[test]
    fn disabled_by_default_on_fresh_threads() {
        std::thread::spawn(|| {
            // No scoped recorder on this thread; a global one may exist if
            // another test installed it, so only assert the scoped path.
            SCOPED.with(|s| assert!(s.borrow().is_empty()));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn scoped_recorder_sees_events_and_pops_on_drop() {
        let mem = Arc::new(MemoryRecorder::new(Level::Trace));
        {
            let _guard = scoped(mem.clone());
            assert!(enabled(Level::Trace));
            {
                let _s = span("test.section");
                counter("test.count", 3);
                counter("test.count", 4);
                gauge("test.gauge", 9);
                message(Level::Info, || "hello".to_owned());
            }
        }
        // After the guard drops, emission stops.
        counter("test.count", 100);
        assert_eq!(mem.counter_total("test.count"), 7);
        assert_eq!(mem.events().len(), 6);
        assert!(mem.spans_balanced());
    }

    #[test]
    fn span_guard_is_inert_when_disabled() {
        let s = span("never.recorded");
        assert!(s.start.is_none(), "no clock read while disabled");
        drop(s);
    }

    #[test]
    fn recorder_level_filters_events() {
        let mem = Arc::new(MemoryRecorder::new(Level::Info));
        let _guard = scoped(mem.clone());
        counter("filtered.out", 1); // Trace > Info: dropped.
        let _ = span("filtered.span"); // Debug > Info: dropped.
        message(Level::Info, || "kept".to_owned());
        let events = mem.events();
        assert_eq!(events.len(), 1);
        assert!(matches!(&events[0], OwnedEvent::Message { text, .. } if text == "kept"));
    }

    #[test]
    fn nested_scopes_both_record() {
        let outer = Arc::new(MemoryRecorder::new(Level::Trace));
        let inner = Arc::new(MemoryRecorder::new(Level::Trace));
        let _g1 = scoped(outer.clone());
        {
            let _g2 = scoped(inner.clone());
            counter("both", 1);
        }
        counter("outer.only", 1);
        assert_eq!(outer.counter_total("both"), 1);
        assert_eq!(outer.counter_total("outer.only"), 1);
        assert_eq!(inner.counter_total("both"), 1);
        assert_eq!(inner.counter_total("outer.only"), 0);
    }

    #[test]
    fn null_recorder_discards() {
        let _guard = scoped(Arc::new(NullRecorder));
        // Level::Off admits nothing, so enabled() is false for every level.
        assert!(!enabled(Level::Error));
        counter("nowhere", 1);
    }

    #[test]
    fn message_closure_not_run_when_disabled() {
        // No recorder on this thread beyond possible global (tests in this
        // crate never install globally), so the closure must not run.
        message(Level::Trace, || panic!("formatted while disabled"));
    }
}
