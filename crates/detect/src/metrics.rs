//! Instrumentation shared by all detection engines: time, space, and
//! search-effort accounting.

use std::fmt;
use std::time::{Duration, Instant};

use slicing_computation::{Cut, CutSetStats};

/// Why a detection run stopped before exhausting the state space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortReason {
    /// The tracked memory exceeded [`Limits::max_bytes`] — the paper's
    /// "runs out of memory" outcome (their cap was 100 MB).
    MemoryLimit,
    /// More than [`Limits::max_cuts`] cuts were explored.
    CutLimit,
    /// More than [`Limits::max_live_cuts`] cuts were stored at once. The
    /// budget the lean traversal is designed around: its live set is the
    /// current layer plus the one under construction, so it stays under
    /// caps that abort the global-visited-set engines almost immediately.
    LiveCutLimit,
    /// Wall-clock time exceeded [`Limits::max_elapsed`].
    Deadline,
    /// A pooled visited set reached its `u32` index ceiling and refused
    /// further inserts. The search cannot continue soundly (unseen cuts
    /// would alias seen ones), so the run stops with a budget-exhausted
    /// verdict rather than ever producing a wrong answer.
    ArenaFull,
    /// The predicate hit a runtime evaluation error (a variable changed
    /// type mid-computation, or an expression produced a non-boolean).
    /// Any witness found *before* the error is still genuine; a "not
    /// detected" sweep that crossed an error is downgraded to this abort.
    PredicateError,
}

impl AbortReason {
    /// The short stable token used in JSON reports (`"memory"`,
    /// `"cuts"`, …) — part of the `slicing.run-report/v1` contract.
    pub fn code(self) -> &'static str {
        match self {
            AbortReason::MemoryLimit => "memory",
            AbortReason::CutLimit => "cuts",
            AbortReason::LiveCutLimit => "live-cuts",
            AbortReason::Deadline => "deadline",
            AbortReason::ArenaFull => "arena-full",
            AbortReason::PredicateError => "predicate",
        }
    }
}

impl fmt::Display for AbortReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbortReason::MemoryLimit => f.write_str("memory limit exceeded"),
            AbortReason::CutLimit => f.write_str("explored-cut limit exceeded"),
            AbortReason::LiveCutLimit => f.write_str("live-cut limit exceeded"),
            AbortReason::Deadline => f.write_str("deadline exceeded"),
            AbortReason::ArenaFull => f.write_str("visited-set index space exhausted"),
            AbortReason::PredicateError => f.write_str("predicate evaluation error"),
        }
    }
}

/// Resource limits for a detection run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Limits {
    /// Abort when the tracked bytes of search data structures exceed this.
    pub max_bytes: Option<u64>,
    /// Abort after exploring this many cuts.
    pub max_cuts: Option<u64>,
    /// Abort when more than this many cuts are stored *simultaneously*.
    ///
    /// Unlike [`max_cuts`](Limits::max_cuts) (total work) this caps the
    /// peak of the live set: for the global-visited engines the whole
    /// visited set is live, while the lean traversal keeps only two
    /// lattice layers alive and can finish huge lattices under a cap of a
    /// few times the widest layer.
    pub max_live_cuts: Option<u64>,
    /// Abort once the run's wall clock exceeds this deadline.
    pub max_elapsed: Option<Duration>,
}

impl Limits {
    /// No limits.
    pub fn none() -> Self {
        Limits::default()
    }

    /// Byte and cut limits at once; `None` leaves the corresponding
    /// resource unbounded (no deadline).
    pub fn new(max_bytes: Option<u64>, max_cuts: Option<u64>) -> Self {
        Limits {
            max_bytes,
            max_cuts,
            max_live_cuts: None,
            max_elapsed: None,
        }
    }

    /// Limit tracked memory only.
    pub fn bytes(max: u64) -> Self {
        Limits::none().with_bytes(max)
    }

    /// Limit explored cuts only.
    pub fn cuts(max: u64) -> Self {
        Limits::none().with_cuts(max)
    }

    /// Adds (or replaces) a memory limit, keeping any cut limit.
    pub fn with_bytes(mut self, max: u64) -> Self {
        self.max_bytes = Some(max);
        self
    }

    /// Adds (or replaces) a cut limit, keeping any memory limit.
    pub fn with_cuts(mut self, max: u64) -> Self {
        self.max_cuts = Some(max);
        self
    }

    /// Limit simultaneously stored (live) cuts only.
    pub fn live_cuts(max: u64) -> Self {
        Limits::none().with_live_cuts(max)
    }

    /// Adds (or replaces) a live-cut cap, keeping other limits.
    pub fn with_live_cuts(mut self, max: u64) -> Self {
        self.max_live_cuts = Some(max);
        self
    }

    /// Limit wall-clock time only.
    pub fn deadline(max: Duration) -> Self {
        Limits::none().with_deadline(max)
    }

    /// Adds (or replaces) a wall-clock deadline, keeping other limits.
    pub fn with_deadline(mut self, max: Duration) -> Self {
        self.max_elapsed = Some(max);
        self
    }
}

/// The outcome of a detection run, with the paper's two comparison metrics
/// (time spent, memory used) plus search-effort counters.
#[derive(Debug, Clone)]
pub struct Detection {
    /// A consistent cut satisfying the predicate, if one was found
    /// (`possibly: b`).
    pub found: Option<Cut>,
    /// Number of distinct cuts whose predicate value was examined.
    pub cuts_explored: u64,
    /// Peak number of cuts stored simultaneously (visited set + frontier).
    pub max_stored_cuts: u64,
    /// Peak tracked bytes of the search data structures. Deterministic
    /// byte accounting stands in for the paper's physical-memory
    /// measurements.
    pub peak_bytes: u64,
    /// Wall-clock time of the search.
    pub elapsed: Duration,
    /// Set when the search stopped early on a limit.
    pub aborted: Option<AbortReason>,
    /// Named wall-time phases of the run, in order. Single-phase engines
    /// leave this empty; composite engines (slice-then-search, hybrid)
    /// record one entry per stage, e.g. `("slice", …), ("search", …)`.
    pub phases: Vec<(String, Duration)>,
}

impl Detection {
    /// `true` if the predicate was detected.
    pub fn detected(&self) -> bool {
        self.found.is_some()
    }

    /// `true` if the search ran to completion (found the predicate or
    /// exhausted the space) without hitting a limit.
    pub fn completed(&self) -> bool {
        self.aborted.is_none()
    }
}

impl fmt::Display for Detection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} cuts explored, {} peak stored, {} peak bytes, {:?}",
            match (&self.found, &self.aborted) {
                (Some(_), _) => "detected",
                (None, Some(_)) => "aborted",
                (None, None) => "not detected",
            },
            self.cuts_explored,
            self.max_stored_cuts,
            self.peak_bytes,
            self.elapsed,
        )?;
        if let Some(r) = self.aborted {
            write!(f, " ({r})")?;
        }
        Ok(())
    }
}

/// Emits a visited-set's deterministic effort counters once per run.
///
/// The pooled containers count probes/hits/inserts as exact functions of
/// the insertion sequence, so these counters are comparable across
/// machines; `table_speedup` gates regressions on them instead of
/// wall-clock time.
pub(crate) fn emit_visited_stats(stats: CutSetStats) {
    slicing_observe::counter("detect.visited.probes", stats.probes);
    slicing_observe::counter("detect.visited.hits", stats.hits);
    slicing_observe::counter("detect.visited.inserts", stats.inserts);
}

/// Incremental byte/count tracker used by the engines.
#[derive(Debug, Default, Clone)]
pub(crate) struct Tracker {
    pub cuts_explored: u64,
    pub stored_cuts: u64,
    pub max_stored_cuts: u64,
    pub bytes: u64,
    pub peak_bytes: u64,
}

impl Tracker {
    /// Bytes charged per stored cut inside a hash-based visited set:
    /// the cut payload plus table overhead.
    pub fn hash_entry_bytes(num_processes: usize) -> u64 {
        (std::mem::size_of::<Cut>() + 4 * num_processes + 32) as u64
    }

    pub fn charge(&mut self, bytes: u64) {
        self.bytes += bytes;
        self.peak_bytes = self.peak_bytes.max(self.bytes);
    }

    pub fn release(&mut self, bytes: u64) {
        self.bytes = self.bytes.saturating_sub(bytes);
    }

    pub fn store_cut(&mut self, entry_bytes: u64) {
        self.stored_cuts += 1;
        self.max_stored_cuts = self.max_stored_cuts.max(self.stored_cuts);
        self.charge(entry_bytes);
    }

    pub fn drop_cut(&mut self, entry_bytes: u64) {
        self.stored_cuts = self.stored_cuts.saturating_sub(1);
        self.release(entry_bytes);
    }

    /// Checks resource limits against the tracked totals and, when a
    /// deadline is set, against the wall clock since `start`.
    pub fn over_limit(&self, limits: &Limits, start: Instant) -> Option<AbortReason> {
        if let Some(max) = limits.max_bytes {
            if self.peak_bytes > max {
                return Some(AbortReason::MemoryLimit);
            }
        }
        if let Some(max) = limits.max_live_cuts {
            if self.stored_cuts > max {
                return Some(AbortReason::LiveCutLimit);
            }
        }
        if let Some(max) = limits.max_cuts {
            if self.cuts_explored > max {
                return Some(AbortReason::CutLimit);
            }
        }
        if let Some(max) = limits.max_elapsed {
            if start.elapsed() > max {
                return Some(AbortReason::Deadline);
            }
        }
        None
    }

    pub fn finish(
        self,
        found: Option<Cut>,
        elapsed: Duration,
        aborted: Option<AbortReason>,
    ) -> Detection {
        // Counter totals are emitted once per run rather than per step, so
        // the hot loops stay allocation- and branch-free while a trace
        // recorder still reconstructs exact totals from the stream.
        slicing_observe::counter("detect.cuts_explored", self.cuts_explored);
        slicing_observe::gauge("detect.max_stored_cuts", self.max_stored_cuts);
        slicing_observe::gauge("detect.peak_bytes", self.peak_bytes);
        Detection {
            found,
            cuts_explored: self.cuts_explored,
            max_stored_cuts: self.max_stored_cuts,
            peak_bytes: self.peak_bytes,
            elapsed,
            aborted,
            phases: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limits_constructors() {
        assert_eq!(Limits::none().max_bytes, None);
        assert_eq!(Limits::bytes(10).max_bytes, Some(10));
        assert_eq!(Limits::bytes(10).max_cuts, None);
        assert_eq!(Limits::cuts(5).max_cuts, Some(5));
        assert_eq!(Limits::cuts(5).max_bytes, None);
    }

    #[test]
    fn limits_combine_bytes_and_cuts() {
        // The historical `bytes()`/`cuts()` constructors could not express
        // a joint limit; `new` and the `with_*` builders can.
        let l = Limits::new(Some(1024), Some(99));
        assert_eq!(l.max_bytes, Some(1024));
        assert_eq!(l.max_cuts, Some(99));

        let l = Limits::bytes(2048).with_cuts(7);
        assert_eq!(l.max_bytes, Some(2048));
        assert_eq!(l.max_cuts, Some(7));

        // Both limits are live simultaneously in over_limit checks.
        let now = Instant::now();
        let mut t = Tracker::default();
        t.charge(4096);
        assert_eq!(t.over_limit(&l, now), Some(AbortReason::MemoryLimit));
        let t = Tracker {
            cuts_explored: 8,
            ..Tracker::default()
        };
        assert_eq!(t.over_limit(&l, now), Some(AbortReason::CutLimit));
        let mut t = Tracker::default();
        t.charge(10);
        t.cuts_explored = 3;
        assert_eq!(t.over_limit(&l, now), None);
    }

    #[test]
    fn live_cut_limit_caps_stored_not_explored() {
        let now = Instant::now();
        let l = Limits::live_cuts(2);
        assert_eq!(l.max_live_cuts, Some(2));
        assert_eq!(Limits::none().with_live_cuts(7).max_live_cuts, Some(7));
        let mut t = Tracker::default();
        t.store_cut(10);
        t.store_cut(10);
        t.cuts_explored = 1_000_000; // total work is not what this caps
        assert_eq!(t.over_limit(&l, now), None);
        t.store_cut(10);
        assert_eq!(t.over_limit(&l, now), Some(AbortReason::LiveCutLimit));
        // Dropping back under the cap clears the condition: the limit
        // tracks the live set, not its historical peak.
        t.drop_cut(10);
        assert_eq!(t.over_limit(&l, now), None);
        assert!(AbortReason::LiveCutLimit.to_string().contains("live-cut"));
    }

    #[test]
    fn tracker_peaks() {
        let mut t = Tracker::default();
        t.store_cut(100);
        t.store_cut(100);
        assert_eq!(t.peak_bytes, 200);
        assert_eq!(t.max_stored_cuts, 2);
        t.drop_cut(100);
        assert_eq!(t.bytes, 100);
        assert_eq!(t.peak_bytes, 200); // peak persists
        assert_eq!(t.max_stored_cuts, 2);
    }

    #[test]
    fn tracker_limits() {
        let now = Instant::now();
        let mut t = Tracker::default();
        t.charge(50);
        assert_eq!(
            t.over_limit(&Limits::bytes(49), now),
            Some(AbortReason::MemoryLimit)
        );
        assert_eq!(t.over_limit(&Limits::bytes(51), now), None);
        t.cuts_explored = 10;
        assert_eq!(
            t.over_limit(&Limits::cuts(9), now),
            Some(AbortReason::CutLimit)
        );
        assert_eq!(t.over_limit(&Limits::none(), now), None);
    }

    #[test]
    fn deadline_limit_trips_on_elapsed_time() {
        let t = Tracker::default();
        let l = Limits::deadline(Duration::ZERO);
        let past = Instant::now() - Duration::from_millis(5);
        assert_eq!(t.over_limit(&l, past), Some(AbortReason::Deadline));
        let generous = Limits::deadline(Duration::from_secs(3600));
        assert_eq!(t.over_limit(&generous, Instant::now()), None);
        assert_eq!(generous.max_elapsed, Some(Duration::from_secs(3600)));
        let joint = Limits::bytes(1).with_deadline(Duration::from_secs(3600));
        let mut t = Tracker::default();
        t.charge(2);
        assert_eq!(
            t.over_limit(&joint, Instant::now()),
            Some(AbortReason::MemoryLimit)
        );
    }

    #[test]
    fn detection_display_and_accessors() {
        let d = Detection {
            found: Some(Cut::bottom(2)),
            cuts_explored: 3,
            max_stored_cuts: 2,
            peak_bytes: 64,
            elapsed: Duration::from_millis(1),
            aborted: None,
            phases: Vec::new(),
        };
        assert!(d.detected());
        assert!(d.completed());
        assert!(d.to_string().contains("detected"));
        let a = Detection {
            found: None,
            aborted: Some(AbortReason::MemoryLimit),
            ..d.clone()
        };
        assert!(!a.completed());
        assert!(a.to_string().contains("memory limit"));
    }
}
