//! The recorders shipped with the crate: stderr logging and in-memory
//! buffering for tests. The null recorder lives in the crate root next to
//! the dispatch machinery.

use std::collections::HashMap;
use std::sync::Mutex;

use crate::{Event, Level, Recorder};

/// Environment variable read by [`StderrLogger::from_env`].
pub const LOG_ENV_VAR: &str = "SLICING_LOG";

/// A leveled human-readable logger on stderr.
///
/// Line shapes:
///
/// ```text
/// [debug] slice.j_table{3} enter
/// [debug] slice.j_table{3} exit 1.243ms
/// [trace] detect.cuts_explored +294
/// [trace] detect.bfs.frontier = 17
/// [trace] monitor.check.cost ~ 5
/// [info] engine bfs starting
/// ```
#[derive(Debug)]
pub struct StderrLogger {
    level: Level,
}

impl StderrLogger {
    /// A logger admitting events up to `level`.
    pub fn new(level: Level) -> Self {
        StderrLogger { level }
    }

    /// A logger configured from the `SLICING_LOG` environment variable.
    /// Returns `None` when the variable is unset, empty, `off`, or not a
    /// recognized level name — the caller then installs nothing and the
    /// zero-overhead fast path stays active.
    pub fn from_env() -> Option<Self> {
        let raw = std::env::var(LOG_ENV_VAR).ok()?;
        match Level::parse(&raw) {
            Some(Level::Off) | None => None,
            Some(level) => Some(StderrLogger::new(level)),
        }
    }
}

/// Formats nanoseconds with a readable unit.
fn human_nanos(nanos: u64) -> String {
    if nanos >= 1_000_000_000 {
        format!("{:.3}s", nanos as f64 / 1e9)
    } else if nanos >= 1_000_000 {
        format!("{:.3}ms", nanos as f64 / 1e6)
    } else if nanos >= 1_000 {
        format!("{:.3}µs", nanos as f64 / 1e3)
    } else {
        format!("{nanos}ns")
    }
}

impl Recorder for StderrLogger {
    fn level(&self) -> Level {
        self.level
    }

    fn record(&self, event: &Event<'_>) {
        let line = match event {
            Event::SpanEnter { name, id } => format!("[debug] {name}{{{id}}} enter"),
            Event::SpanExit { name, id, nanos } => {
                format!("[debug] {name}{{{id}}} exit {}", human_nanos(*nanos))
            }
            Event::Counter { name, delta } => format!("[trace] {name} +{delta}"),
            Event::Gauge { name, value } => format!("[trace] {name} = {value}"),
            Event::Sample { name, value } => format!("[trace] {name} ~ {value}"),
            Event::Message { level, text } => format!("[{level}] {text}"),
        };
        eprintln!("{line}");
    }
}

/// An owned copy of one [`Event`], as buffered by [`MemoryRecorder`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OwnedEvent {
    /// See [`Event::SpanEnter`].
    SpanEnter {
        /// Span name.
        name: String,
        /// Span id.
        id: u64,
    },
    /// See [`Event::SpanExit`].
    SpanExit {
        /// Span name.
        name: String,
        /// Span id matching the enter event.
        id: u64,
        /// Elapsed nanoseconds.
        nanos: u64,
    },
    /// See [`Event::Counter`].
    Counter {
        /// Counter name.
        name: String,
        /// Increment.
        delta: u64,
    },
    /// See [`Event::Gauge`].
    Gauge {
        /// Gauge name.
        name: String,
        /// Sampled value.
        value: u64,
    },
    /// See [`Event::Sample`].
    Sample {
        /// Sample name.
        name: String,
        /// Observed value.
        value: u64,
    },
    /// See [`Event::Message`].
    Message {
        /// Severity.
        level: Level,
        /// Text.
        text: String,
    },
}

impl OwnedEvent {
    fn from_event(event: &Event<'_>) -> Self {
        match event {
            Event::SpanEnter { name, id } => OwnedEvent::SpanEnter {
                name: (*name).to_owned(),
                id: *id,
            },
            Event::SpanExit { name, id, nanos } => OwnedEvent::SpanExit {
                name: (*name).to_owned(),
                id: *id,
                nanos: *nanos,
            },
            Event::Counter { name, delta } => OwnedEvent::Counter {
                name: (*name).to_owned(),
                delta: *delta,
            },
            Event::Gauge { name, value } => OwnedEvent::Gauge {
                name: (*name).to_owned(),
                value: *value,
            },
            Event::Sample { name, value } => OwnedEvent::Sample {
                name: (*name).to_owned(),
                value: *value,
            },
            Event::Message { level, text } => OwnedEvent::Message {
                level: *level,
                text: (*text).to_owned(),
            },
        }
    }
}

/// Buffers every admitted event in memory, for test assertions.
#[derive(Debug)]
pub struct MemoryRecorder {
    level: Level,
    events: Mutex<Vec<OwnedEvent>>,
}

impl MemoryRecorder {
    /// A recorder admitting events up to `level` (tests usually want
    /// [`Level::Trace`]).
    pub fn new(level: Level) -> Self {
        MemoryRecorder {
            level,
            events: Mutex::new(Vec::new()),
        }
    }

    /// A snapshot of everything recorded so far, in order.
    pub fn events(&self) -> Vec<OwnedEvent> {
        self.events.lock().expect("memory recorder lock").clone()
    }

    /// Discards all buffered events.
    pub fn clear(&self) {
        self.events.lock().expect("memory recorder lock").clear();
    }

    /// The sum of all deltas recorded for counter `name`.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.events
            .lock()
            .expect("memory recorder lock")
            .iter()
            .map(|e| match e {
                OwnedEvent::Counter { name: n, delta } if n == name => *delta,
                _ => 0,
            })
            .sum()
    }

    /// The last value recorded for gauge `name`, if any.
    pub fn gauge_last(&self, name: &str) -> Option<u64> {
        self.events
            .lock()
            .expect("memory recorder lock")
            .iter()
            .rev()
            .find_map(|e| match e {
                OwnedEvent::Gauge { name: n, value } if n == name => Some(*value),
                _ => None,
            })
    }

    /// The maximum value recorded for gauge `name`, if any.
    ///
    /// The natural reduction for peak-style gauges sampled mid-run (e.g.
    /// `detect.lean.live_cuts`), where [`gauge_last`](Self::gauge_last)
    /// would report the value at the final sample instead of the high-water
    /// mark.
    pub fn gauge_max(&self, name: &str) -> Option<u64> {
        self.events
            .lock()
            .expect("memory recorder lock")
            .iter()
            .filter_map(|e| match e {
                OwnedEvent::Gauge { name: n, value } if n == name => Some(*value),
                _ => None,
            })
            .max()
    }

    /// A histogram over every value recorded for sample `name`.
    pub fn sample_histogram(&self, name: &str) -> crate::Histogram {
        let mut h = crate::Histogram::new();
        for e in self.events.lock().expect("memory recorder lock").iter() {
            if let OwnedEvent::Sample { name: n, value } = e {
                if n == name {
                    h.record(*value);
                }
            }
        }
        h
    }

    /// Span names seen in enter events, with enter/exit counts.
    pub fn span_counts(&self) -> HashMap<String, (u64, u64)> {
        let mut counts: HashMap<String, (u64, u64)> = HashMap::new();
        for e in self.events.lock().expect("memory recorder lock").iter() {
            match e {
                OwnedEvent::SpanEnter { name, .. } => {
                    counts.entry(name.clone()).or_default().0 += 1;
                }
                OwnedEvent::SpanExit { name, .. } => {
                    counts.entry(name.clone()).or_default().1 += 1;
                }
                _ => {}
            }
        }
        counts
    }

    /// True when every span enter has a matching exit: per id, exactly one
    /// enter and one exit with the same name, and exits never precede
    /// their enters.
    pub fn spans_balanced(&self) -> bool {
        let mut open: HashMap<u64, String> = HashMap::new();
        let mut closed = 0usize;
        let events = self.events.lock().expect("memory recorder lock");
        for e in events.iter() {
            match e {
                OwnedEvent::SpanEnter { name, id } if open.insert(*id, name.clone()).is_some() => {
                    return false; // duplicate id
                }
                OwnedEvent::SpanEnter { .. } => {}
                OwnedEvent::SpanExit { name, id, .. } => match open.remove(id) {
                    Some(entered) if entered == *name => closed += 1,
                    _ => return false, // exit without matching enter
                },
                _ => {}
            }
        }
        let _ = closed;
        open.is_empty()
    }
}

impl Recorder for MemoryRecorder {
    fn level(&self) -> Level {
        self.level
    }

    fn record(&self, event: &Event<'_>) {
        self.events
            .lock()
            .expect("memory recorder lock")
            .push(OwnedEvent::from_event(event));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_recorder_helpers() {
        let mem = MemoryRecorder::new(Level::Trace);
        mem.record(&Event::SpanEnter { name: "s", id: 1 });
        mem.record(&Event::Counter {
            name: "c",
            delta: 2,
        });
        mem.record(&Event::Counter {
            name: "c",
            delta: 5,
        });
        mem.record(&Event::Gauge {
            name: "g",
            value: 1,
        });
        mem.record(&Event::Gauge {
            name: "g",
            value: 12,
        });
        mem.record(&Event::Gauge {
            name: "g",
            value: 9,
        });
        assert!(!mem.spans_balanced(), "span 1 still open");
        mem.record(&Event::SpanExit {
            name: "s",
            id: 1,
            nanos: 10,
        });
        assert!(mem.spans_balanced());
        assert_eq!(mem.counter_total("c"), 7);
        assert_eq!(mem.counter_total("missing"), 0);
        assert_eq!(mem.gauge_last("g"), Some(9));
        assert_eq!(mem.gauge_max("g"), Some(12), "high-water mark, not last");
        assert_eq!(mem.gauge_max("missing"), None);
        assert_eq!(mem.span_counts().get("s"), Some(&(1, 1)));
        mem.clear();
        assert!(mem.events().is_empty());
    }

    #[test]
    fn samples_flow_through_every_sink() {
        let mem = MemoryRecorder::new(Level::Trace);
        for v in [1u64, 2, 3, 100] {
            mem.record(&Event::Sample {
                name: "probe.len",
                value: v,
            });
        }
        mem.record(&Event::Sample {
            name: "other",
            value: 9,
        });
        let h = mem.sample_histogram("probe.len");
        assert_eq!(h.count(), 4);
        assert_eq!(h.max(), 100);
        assert_eq!(mem.sample_histogram("missing").count(), 0);
    }

    /// The contract documented on [`Recorder`] — counters are monotonic
    /// sums, gauges last-write-wins with a max kept as a secondary, every
    /// sample feeds a histogram — on one stream through the scoped
    /// dispatch, with spans nested among the metrics.
    #[test]
    fn scoped_stream_aggregates_in_memory() {
        let mem = std::sync::Arc::new(MemoryRecorder::new(Level::Trace));
        {
            let _guard = crate::scoped(mem.clone());
            let _outer = crate::span("xsink.outer");
            crate::counter("xsink.cuts", 3);
            crate::gauge("xsink.frontier", 7);
            {
                let _inner = crate::span("xsink.inner");
                crate::counter("xsink.cuts", 4);
                crate::counter("xsink.probes", 10);
                crate::gauge("xsink.frontier", 2); // last write wins; max stays 7
                crate::gauge("xsink.depth", 9);
            }
            for value in [1u64, 8, 3, 900, 0, 17] {
                crate::sample("xsink.cost", value);
            }
        }
        assert_eq!(mem.counter_total("xsink.cuts"), 7);
        assert_eq!(mem.counter_total("xsink.probes"), 10);
        assert_eq!(mem.gauge_last("xsink.frontier"), Some(2));
        assert_eq!(mem.gauge_max("xsink.frontier"), Some(7));
        assert_eq!(mem.gauge_last("xsink.depth"), Some(9));
        let cost = mem.sample_histogram("xsink.cost");
        assert_eq!((cost.count(), cost.max()), (6, 900));
        assert!(mem.spans_balanced());
        let counts = mem.span_counts();
        assert_eq!(counts["xsink.outer"], (1, 1));
        assert_eq!(counts["xsink.inner"], (1, 1));
    }

    #[test]
    fn mismatched_span_names_are_unbalanced() {
        let mem = MemoryRecorder::new(Level::Trace);
        mem.record(&Event::SpanEnter { name: "a", id: 1 });
        mem.record(&Event::SpanExit {
            name: "b",
            id: 1,
            nanos: 0,
        });
        assert!(!mem.spans_balanced());
    }

    #[test]
    fn from_env_respects_off_and_garbage() {
        // Uses explicit construction only — reading the real environment
        // in parallel tests would race with other processes' settings.
        assert_eq!(Level::parse("off"), Some(Level::Off));
        assert!(StderrLogger::new(Level::Info).level() == Level::Info);
    }

    #[test]
    fn human_time_units() {
        assert_eq!(human_nanos(5), "5ns");
        assert_eq!(human_nanos(5_000), "5.000µs");
        assert_eq!(human_nanos(5_000_000), "5.000ms");
        assert_eq!(human_nanos(5_000_000_000), "5.000s");
    }
}
