//! Test oracle for the partial-order engine: `detect_pom` as it stood
//! before its relations became process bitmasks over packed states —
//! pairwise `dependent` scans over message lists, a fixpoint
//! `persistent_set` with `min_cut` lookups, `can_advance` per process, and
//! whole cuts on the stack and in a `CutMap64`. The engine must match it
//! on the found cut, every tracked count and byte, and every visited and
//! pruning counter; only the visited-set probes may differ. The parts of
//! the crate-private `Tracker` and visited-stats helper it uses are copied
//! below unchanged.

use std::time::Instant;

use slicing_computation::{Computation, Cut, CutMap64, GlobalState, ProcSet, ProcessId};
use slicing_predicates::Predicate;

use slicing_detect::{AbortReason, Detection, Limits};

use tracker::{emit_visited_stats, Tracker};

/// Dependency analysis for transitions, fixed per computation + predicate.
struct Dependencies<'a> {
    comp: &'a Computation,
    support: ProcSet,
}

impl<'a> Dependencies<'a> {
    fn new(comp: &'a Computation, support: ProcSet) -> Self {
        Dependencies { comp, support }
    }

    /// `true` if advancing `p` (next event at `cut`) and advancing `q` do
    /// not commute — over-approximated statically:
    /// message partners and predicate-visible pairs are dependent.
    fn dependent(&self, cut: &Cut, p: ProcessId, q: ProcessId) -> bool {
        if p == q {
            return true;
        }
        // Visible transitions are mutually dependent.
        if self.support.contains(p) && self.support.contains(q) {
            return true;
        }
        // Message coupling between the *next* events.
        for (a, b) in [(p, q), (q, p)] {
            let ca = cut.count(a);
            if ca >= self.comp.len(a) {
                continue;
            }
            let ea = self.comp.event_at(a, ca);
            // ea receives from or sends to process b.
            for m in self.comp.messages_into(ea) {
                if self.comp.process_of(m.send) == b {
                    return true;
                }
            }
            for m in self.comp.messages_out_of(ea) {
                if self.comp.process_of(m.recv) == b {
                    return true;
                }
            }
        }
        false
    }

    /// A persistent set of processes at `cut`, as a closure starting from
    /// one enabled seed: if a member's next event is dependent on another
    /// process's next event — or is disabled *because* of that process —
    /// the other process joins the set.
    fn persistent_set(&self, cut: &Cut, enabled: ProcSet) -> ProcSet {
        let Some(seed) = enabled.iter().next() else {
            return ProcSet::empty();
        };
        let mut set = ProcSet::singleton(seed);
        loop {
            let mut grew = false;
            for p in set {
                let cp = cut.count(p);
                if cp >= self.comp.len(p) {
                    continue;
                }
                let ep = self.comp.event_at(p, cp);
                for q in self.comp.processes() {
                    if set.contains(q) {
                        continue;
                    }
                    // Disabled because q has not yet produced a causal
                    // prerequisite of ep.
                    let needs_q = self.comp.min_cut(ep).count(q) > cut.count(q);
                    if needs_q || self.dependent(cut, p, q) {
                        set.insert(q);
                        grew = true;
                    }
                }
            }
            if !grew {
                return set;
            }
        }
    }
}

/// Detects `possibly: pred` with a selective (partial-order) search of the
/// computation's cut lattice using persistent sets, sleep sets, and state
/// caching.
///
/// Explores a subset of the cuts that is guaranteed to contain a
/// satisfying cut whenever one exists. Matches the behaviour the paper
/// reports for its baseline: fast when a fault is found early, but with
/// state storage that can still grow exponentially.
pub fn reference_pom<P: Predicate + ?Sized>(
    comp: &Computation,
    pred: &P,
    limits: &Limits,
) -> Detection {
    let _span = slicing_observe::span("detect.pom");
    let start = Instant::now();
    let mut tracker = Tracker::default();
    let n = comp.num_processes();
    let entry_bytes = Tracker::hash_entry_bytes(n) + 8; // + sleep mask

    // Pruning totals, accumulated locally and emitted once per run so the
    // Trace stream stays O(1) regardless of lattice size.
    let mut sleep_skips = 0u64;
    let mut persistent_pruned = 0u64;

    let deps = Dependencies::new(comp, pred.support());

    // Visited cache: cut → sleep mask it was (or is being) explored with.
    // Re-exploration is needed only with a strictly smaller sleep set; we
    // then continue with the intersection.
    let mut visited = CutMap64::new(n);

    // DFS stack: (cut, sleep mask).
    let bottom = Cut::bottom(n);
    let mut stack: Vec<(Cut, u64)> = vec![(bottom.clone(), 0)];
    tracker.charge(entry_bytes);

    let mut found = None;
    let mut aborted = None;
    while let Some((cut, sleep)) = stack.pop() {
        tracker.release(entry_bytes);
        let (inserted, prev) = visited.insert_or_get(&cut, sleep);
        if !inserted {
            // Already explored with sleep set `*prev`; only transitions
            // sleeping there but awake now need exploration.
            if *prev & !sleep == 0 {
                continue;
            }
            *prev &= sleep;
        } else {
            tracker.store_cut(entry_bytes);
            tracker.cuts_explored += 1;
            match pred.try_eval(&GlobalState::new(comp, &cut)) {
                Ok(true) => {
                    found = Some(cut);
                    break;
                }
                Ok(false) => {}
                Err(_) => {
                    aborted = Some(AbortReason::PredicateError);
                    break;
                }
            }
            if let Some(reason) = tracker.over_limit(limits, start) {
                aborted = Some(reason);
                break;
            }
        }
        if visited.saturated() {
            aborted = Some(AbortReason::ArenaFull);
            break;
        }

        let enabled: ProcSet = comp
            .processes()
            .filter(|&p| comp.can_advance(&cut, p))
            .collect();
        if enabled.is_empty() {
            continue;
        }
        let persistent = deps.persistent_set(&cut, enabled);
        persistent_pruned += enabled.iter().filter(|&p| !persistent.contains(p)).count() as u64;

        // Explore enabled persistent transitions not in the sleep set.
        let mut explored_mask = 0u64;
        for p in persistent {
            if !enabled.contains(p) {
                continue;
            }
            if sleep & (1 << p.as_usize()) != 0 {
                sleep_skips += 1;
                continue;
            }
            let mut child = cut.clone();
            child.set_count(p, cut.count(p) + 1);
            // Child sleep: previously-explored siblings and inherited
            // sleepers that are independent of the taken transition.
            let mut child_sleep = 0u64;
            for q in comp.processes() {
                let bit = 1u64 << q.as_usize();
                if (sleep | explored_mask) & bit != 0 && !deps.dependent(&cut, p, q) {
                    child_sleep |= bit;
                }
            }
            stack.push((child, child_sleep));
            tracker.charge(entry_bytes);
            explored_mask |= 1 << p.as_usize();
        }
    }
    slicing_observe::counter("detect.pom.sleep_set_skips", sleep_skips);
    slicing_observe::counter("detect.pom.persistent_pruned", persistent_pruned);
    emit_visited_stats(visited.stats());
    tracker.finish(found, start.elapsed(), aborted)
}

/// Copies of the crate-private accounting helpers the engine uses.
mod tracker {
    use std::time::{Duration, Instant};

    use slicing_computation::{Cut, CutSetStats};
    use slicing_detect::{AbortReason, Detection, Limits};

    pub(crate) fn emit_visited_stats(stats: CutSetStats) {
        slicing_observe::counter("detect.visited.probes", stats.probes);
        slicing_observe::counter("detect.visited.hits", stats.hits);
        slicing_observe::counter("detect.visited.inserts", stats.inserts);
    }

    #[derive(Debug, Default, Clone)]
    pub(crate) struct Tracker {
        pub cuts_explored: u64,
        pub stored_cuts: u64,
        pub max_stored_cuts: u64,
        pub bytes: u64,
        pub peak_bytes: u64,
    }

    impl Tracker {
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
}
