//! Level-order predicate detection by explicit lattice enumeration
//! (Cooper–Marzullo style), over any [`CutSpace`] — a computation, a
//! slice, or the cuts a controller can keep a predicate true through
//! ([`detect_controllable`](crate::detect_controllable)). Every space is
//! graded (its successors are upper covers), so the engine walks it rank
//! by rank and keeps two layers of cuts alive.

use std::time::Instant;

use slicing_computation::{
    Computation, Cut, CutPacking, CutSet, CutSetStats, CutSpace, GlobalState, PackedCutSet,
};
use slicing_predicates::Predicate;

use crate::metrics::{emit_visited_stats, AbortReason, Detection, Limits, Tracker};

/// How often (in explored cuts) the enumeration engines sample their
/// live-set gauges. Sampling keeps the Trace-level stream bounded on big
/// lattices without touching the per-cut fast path.
const GAUGE_SAMPLE_EVERY: u64 = 1024;

/// Detects `possibly: pred` by level-order enumeration of the cuts of
/// `space`, evaluating the predicate against `comp` (the computation the
/// cuts refer to — for a slice, its underlying computation). The witness
/// is the first satisfying cut in rank order: one with the fewest events
/// on a computation, the fewest meta-events on a slice.
///
/// The search scans one rank at a time, each layer in discovery order.
/// Every successor is an upper cover ([`CutSpace`]), so every successor of
/// a rank-`k` cut has rank `k + 1` and a duplicate can only be a cut
/// already admitted into layer `k + 1`. The store is local to the layer
/// under construction and is cleared once that layer has been scanned:
/// the live cuts are two adjacent layers, O(widest layer), not the
/// O(lattice) of a global visited set. A global-visited BFS meets the
/// same successors in the same order and admits each cut from the same
/// (its earliest) generator, so the verdict, the witness, `cuts_explored`,
/// and the visited hits and inserts are exactly its; only `probes` follow
/// the smaller tables.
///
/// Keys are packed into a `u64` ([`CutPacking`]) whenever the
/// computation's per-process counts fit 63 bits of lanes; wider or longer
/// computations keep counts in two [`CutSet`] arenas. Both stores explore
/// identically — packing is a bijection.
pub fn detect_bfs<S: CutSpace + ?Sized, P: Predicate + ?Sized>(
    space: &S,
    comp: &Computation,
    pred: &P,
    limits: &Limits,
) -> Detection {
    detect_bfs_capped(space, comp, pred, limits, u32::MAX - 1)
}

/// An alias of [`detect_bfs`], kept for callers of the former
/// bounded-memory engine: `detect_bfs` itself now keeps only two lattice
/// layers of live cuts on every space.
pub fn detect_lean<S: CutSpace + ?Sized, P: Predicate + ?Sized>(
    space: &S,
    comp: &Computation,
    pred: &P,
    limits: &Limits,
) -> Detection {
    detect_bfs(space, comp, pred, limits)
}

/// [`detect_bfs`] with an explicit ceiling on the cuts its store holds at
/// once.
///
/// The public entry point uses the containers' natural `u32::MAX - 1`
/// ceiling; unit tests mock a tiny one to pin the
/// [`AbortReason::ArenaFull`] guard path without inserting four billion
/// cuts.
pub(crate) fn detect_bfs_capped<S: CutSpace + ?Sized, P: Predicate + ?Sized>(
    space: &S,
    comp: &Computation,
    pred: &P,
    limits: &Limits,
    max_entries: u32,
) -> Detection {
    let _span = slicing_observe::span("detect.bfs");
    let Some(bottom) = space.bottom() else {
        return Tracker::default().finish(None, Default::default(), None);
    };
    let n = space.num_processes();
    let packing = if n == comp.num_processes() {
        let maxima: Vec<u32> = (0..n).map(|i| comp.len(comp.process(i))).collect();
        CutPacking::for_maxima(&maxima)
    } else {
        None
    };
    match packing {
        Some(packing) => {
            let store = Packed {
                packing: &packing,
                seen: PackedCutSet::new(),
            };
            level_order(space, comp, pred, limits, max_entries, bottom, store)
        }
        None => {
            let store = Layers {
                scan: CutSet::new(n),
                next: CutSet::new(n),
            };
            level_order(space, comp, pred, limits, max_entries, bottom, store)
        }
    }
}

/// The level-order sweep behind [`detect_bfs`], over one of the two
/// stores. The engine holds the keys of the layer being scanned and of
/// the one under construction; `store` resolves keys to cuts and decides
/// which successors are new.
fn level_order<S, P, T>(
    space: &S,
    comp: &Computation,
    pred: &P,
    limits: &Limits,
    max_entries: u32,
    bottom: Cut,
    mut store: T,
) -> Detection
where
    S: CutSpace + ?Sized,
    P: Predicate + ?Sized,
    T: Store,
{
    let start = Instant::now();
    let mut tracker = Tracker::default();
    let entry_bytes = Tracker::hash_entry_bytes(space.num_processes());

    let mut scan = vec![store.insert(&bottom).expect("empty store")];
    store.next_layer();
    tracker.store_cut(entry_bytes);
    let mut next = Vec::new();

    let mut cut = bottom;
    let mut found = false;
    let mut aborted = None;
    let mut layers = 0u64;
    'search: while !scan.is_empty() {
        layers += 1;
        slicing_observe::gauge("detect.bfs.layer_width", scan.len() as u64);
        slicing_observe::sample("detect.bfs.layer_width", scan.len() as u64);
        for &key in &scan {
            store.load(key, &mut cut);
            tracker.cuts_explored += 1;
            if tracker.cuts_explored.is_multiple_of(GAUGE_SAMPLE_EVERY) {
                slicing_observe::gauge("detect.bfs.live_cuts", tracker.stored_cuts);
            }
            match pred.try_eval(&GlobalState::new(comp, &cut)) {
                Ok(true) => {
                    found = true;
                    break 'search;
                }
                Ok(false) => {}
                Err(_) => {
                    aborted = Some(AbortReason::PredicateError);
                    break 'search;
                }
            }
            if let Some(reason) = tracker.over_limit(limits, start) {
                aborted = Some(reason);
                break 'search;
            }
            let admitted = next.len();
            store.expand(space, &cut, key, &mut next);
            for _ in admitted..next.len() {
                tracker.store_cut(entry_bytes);
            }
            if store.saturated() || tracker.stored_cuts > u64::from(max_entries) {
                // A full store drops unseen successors: the sweep can no
                // longer prove absence, so stop with a budget verdict
                // instead of silently under-exploring.
                aborted = Some(AbortReason::ArenaFull);
                break 'search;
            }
        }
        // The scanned layer dies here; only the one under construction
        // stays live. This drop is what bounds the engine's memory.
        let width = scan.len() as u64;
        tracker.stored_cuts -= width;
        tracker.release(entry_bytes * width);
        std::mem::swap(&mut scan, &mut next);
        next.clear();
        store.next_layer();
    }
    slicing_observe::counter("detect.bfs.layers", layers);
    emit_visited_stats(store.stats());
    tracker.finish(found.then_some(cut), start.elapsed(), aborted)
}

/// Where [`level_order`] keeps the layer under construction, addressed by
/// `u64` keys.
trait Store {
    /// Admits `cut`, returning its key if it was unseen.
    fn insert(&mut self, cut: &Cut) -> Option<u64>;
    /// Copies the cut behind `key` into `cut`.
    fn load(&self, key: u64, cut: &mut Cut);
    /// Pushes the key of every unseen successor of `cut` (whose key is
    /// `key`) onto `next`, in successor order.
    fn expand<S: CutSpace + ?Sized>(&mut self, space: &S, cut: &Cut, key: u64, next: &mut Vec<u64>);
    /// The layer under construction becomes the one scanned next, and the
    /// store forgets it.
    fn next_layer(&mut self);
    /// `true` once an insert was refused at the entry ceiling.
    fn saturated(&self) -> bool;
    /// Deterministic probe/hit/insert counters for the whole run.
    fn stats(&self) -> CutSetStats;
}

/// Cuts packed into their `u64` keys, deduplicated by a table cleared
/// (capacity kept) after every layer: one table touch per successor, no
/// arena access to confirm equality.
struct Packed<'p> {
    packing: &'p CutPacking,
    seen: PackedCutSet,
}

impl Store for Packed<'_> {
    fn insert(&mut self, cut: &Cut) -> Option<u64> {
        let key = self.packing.pack(cut.counts());
        self.seen.insert(key).then_some(key)
    }

    fn load(&self, key: u64, cut: &mut Cut) {
        self.packing.unpack_into(key, cut);
    }

    fn expand<S: CutSpace + ?Sized>(
        &mut self,
        space: &S,
        cut: &Cut,
        key: u64,
        next: &mut Vec<u64>,
    ) {
        let Packed { packing, seen } = self;
        let streamed = space.for_each_successor_packed(cut.counts(), key, packing, &mut |nk| {
            if seen.insert(nk) {
                next.push(nk);
            }
        });
        if !streamed {
            // Space without a packed transition table: build each
            // successor as a cut and pack it here.
            space.for_each_successor(cut, &mut |succ| {
                let nk = packing.pack(succ.counts());
                if seen.insert(nk) {
                    next.push(nk);
                }
            });
        }
    }

    fn next_layer(&mut self) {
        self.seen.clear();
    }

    fn saturated(&self) -> bool {
        false
    }

    fn stats(&self) -> CutSetStats {
        self.seen.stats()
    }
}

/// Unpacked store: the layer being scanned and the one under
/// construction, each in its own [`CutSet`] arena; keys are arena
/// indices.
struct Layers {
    scan: CutSet,
    next: CutSet,
}

impl Store for Layers {
    fn insert(&mut self, cut: &Cut) -> Option<u64> {
        self.next.insert_indexed(cut).map(u64::from)
    }

    fn load(&self, key: u64, cut: &mut Cut) {
        cut.copy_from_counts(self.scan.counts_at(key as u32));
    }

    fn expand<S: CutSpace + ?Sized>(
        &mut self,
        space: &S,
        cut: &Cut,
        _key: u64,
        next: &mut Vec<u64>,
    ) {
        space.for_each_successor(cut, &mut |succ| {
            if let Some(idx) = self.next.insert_indexed(succ) {
                next.push(u64::from(idx));
            }
        });
    }

    fn next_layer(&mut self) {
        std::mem::swap(&mut self.scan, &mut self.next);
        self.next.reset();
    }

    fn saturated(&self) -> bool {
        self.scan.saturated() || self.next.saturated()
    }

    fn stats(&self) -> CutSetStats {
        let (a, b) = (self.scan.stats(), self.next.stats());
        CutSetStats {
            probes: a.probes + b.probes,
            hits: a.hits + b.hits,
            inserts: a.inserts + b.inserts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slicing_computation::oracle::satisfying_cuts;
    use slicing_computation::test_fixtures::{figure1, grid, random_computation, RandomConfig};
    use slicing_computation::Cut;
    use slicing_computation::ProcSet;
    use slicing_predicates::{expr::parse_predicate, FnPredicate};

    #[test]
    fn finds_the_paper_intro_predicate() {
        let comp = figure1();
        let pred =
            parse_predicate(&comp, "x1@0 * x2@1 + x3@2 < 5 && x1@0 > 1 && x3@2 <= 3").unwrap();
        let d = detect_bfs(&comp, &comp, &pred, &Limits::none());
        assert!(d.detected());
        assert!(d.completed());
        let cut = d.found.unwrap();
        assert!(pred.eval(&GlobalState::new(&comp, &cut)));
    }

    #[test]
    fn reports_absence() {
        let comp = figure1();
        let pred = parse_predicate(&comp, "x1@0 > 99").unwrap();
        let d = detect_bfs(&comp, &comp, &pred, &Limits::none());
        assert!(!d.detected());
        assert_eq!(d.cuts_explored, 28);
    }

    #[test]
    fn bfs_finds_a_minimal_depth_witness() {
        // BFS explores by distance from bottom, so the witness it returns
        // has the minimum number of events among satisfying cuts.
        let comp = figure1();
        let pred = parse_predicate(&comp, "x1@0 > 1 && x3@2 <= 3").unwrap();
        let d = detect_bfs(&comp, &comp, &pred, &Limits::none());
        let witness = d.found.unwrap();
        let min_size = satisfying_cuts(&comp, |st| pred.eval(st))
            .iter()
            .map(Cut::size)
            .min()
            .unwrap();
        assert_eq!(witness.size(), min_size);
    }

    #[test]
    fn matches_the_reference_bfs_exactly_on_random_instances() {
        let cfg = RandomConfig {
            processes: 4,
            events_per_process: 4,
            ..RandomConfig::default()
        };
        for seed in 0..25 {
            let comp = random_computation(seed, &cfg);
            let pred = parse_predicate(&comp, "x@0 == 2 && x@2 == 2").unwrap();
            let reference = crate::testkit::reference_bfs(&comp, &comp, &pred);
            for d in [
                detect_bfs(&comp, &comp, &pred, &Limits::none()),
                detect_lean(&comp, &comp, &pred, &Limits::none()),
            ] {
                assert!(d.completed(), "seed {seed}: {:?}", d.aborted);
                assert_eq!(d.found, reference.found, "seed {seed}");
                assert_eq!(d.cuts_explored, reference.cuts_explored, "seed {seed}");
            }
        }
    }

    #[test]
    fn slices_match_the_reference_bfs() {
        use slicing_predicates::{Conjunctive, LocalPredicate};
        for seed in 0..10 {
            let comp = random_computation(seed, &RandomConfig::default());
            let x0 = comp.var(comp.process(0), "x").unwrap();
            let clause = Conjunctive::new(vec![LocalPredicate::int(x0, "x >= 1", |v| v >= 1)]);
            let slice = slicing_core::slice_conjunctive(&comp, &clause);
            // A sum that needs a search, and one no cut reaches (a full sweep).
            for target in [4, 99] {
                let pred = parse_predicate(&comp, &format!("x@0 + x@1 + x@2 == {target}")).unwrap();
                let d = detect_bfs(&slice, &comp, &pred, &Limits::none());
                let reference = crate::testkit::reference_bfs(&slice, &comp, &pred);
                assert!(d.completed(), "seed {seed}: {:?}", d.aborted);
                assert_eq!(d.found, reference.found, "seed {seed} target {target}");
                assert_eq!(
                    d.cuts_explored, reference.cuts_explored,
                    "seed {seed} target {target}"
                );
            }
        }
    }

    #[test]
    fn memory_limit_aborts() {
        let comp = grid(6, 6);
        let pred = FnPredicate::new(ProcSet::all(2), "false", |_| false);
        let d = detect_bfs(&comp, &comp, &pred, &Limits::bytes(200));
        assert!(!d.completed());
        assert_eq!(d.aborted, Some(crate::AbortReason::MemoryLimit));
    }

    #[test]
    fn cut_limit_aborts() {
        let comp = grid(6, 6);
        let pred = FnPredicate::new(ProcSet::all(2), "false", |_| false);
        let d = detect_bfs(&comp, &comp, &pred, &Limits::cuts(5));
        assert_eq!(d.aborted, Some(crate::AbortReason::CutLimit));
        assert!(d.cuts_explored <= 7);
    }

    #[test]
    fn arena_full_aborts_instead_of_wrapping() {
        // A mocked 4-entry visited-set ceiling stands in for the real
        // u32::MAX - 1: the sweep must stop with a budget verdict, never
        // report "not detected" off a silently truncated search.
        let comp = grid(6, 6);
        let pred = FnPredicate::new(ProcSet::all(2), "false", |_| false);
        let d = detect_bfs_capped(&comp, &comp, &pred, &Limits::none(), 4);
        assert!(!d.detected());
        assert!(!d.completed());
        assert_eq!(d.aborted, Some(crate::AbortReason::ArenaFull));
        assert!(d.cuts_explored <= 5);
        // A witness inside the budget is still found and completes.
        let hit = FnPredicate::new(ProcSet::all(2), "true", |_| true);
        let d = detect_bfs_capped(&comp, &comp, &hit, &Limits::none(), 4);
        assert!(d.detected());
        assert!(d.completed());
    }

    #[test]
    fn predicate_error_aborts_bfs() {
        use slicing_computation::{ComputationBuilder, Value};
        // x declared Int, flipped to Bool: the expression errors at the
        // second cut of the sweep.
        let mut b = ComputationBuilder::new(1);
        let x = b.declare_var(b.process(0), "x", Value::Int(0));
        b.step(b.process(0), &[(x, Value::Bool(true))]);
        let comp = b.build().unwrap();
        let pred = parse_predicate(&comp, "x@0 > 1").unwrap();
        let d = detect_bfs(&comp, &comp, &pred, &Limits::none());
        assert!(!d.detected());
        assert_eq!(d.aborted, Some(crate::AbortReason::PredicateError));
    }

    #[test]
    fn empty_space_yields_no_detection() {
        let comp = figure1();
        let slice = slicing_core::Slice::empty(&comp);
        let pred = FnPredicate::new(ProcSet::all(3), "true", |_| true);
        let d = detect_bfs(&slice, &comp, &pred, &Limits::none());
        assert!(!d.detected());
        assert_eq!(d.cuts_explored, 0);
    }

    #[test]
    fn live_cut_limit_aborts_without_a_wrong_answer() {
        let comp = grid(6, 6);
        let never = FnPredicate::new(ProcSet::all(2), "false", |_| false);
        let d = detect_bfs(&comp, &comp, &never, &Limits::live_cuts(3));
        assert!(!d.completed());
        assert_eq!(d.aborted, Some(crate::AbortReason::LiveCutLimit));
        assert!(d.found.is_none());
        // Two grid layers are at most 14 cuts, so a cap of 20 — under the
        // 49 cuts of the lattice — lets the sweep finish.
        let d = detect_bfs(&comp, &comp, &never, &Limits::live_cuts(20));
        assert!(d.completed(), "{:?}", d.aborted);
        assert_eq!(d.cuts_explored, 49);
    }

    #[test]
    fn searching_a_slice_examines_fewer_cuts() {
        let comp = figure1();
        let weak = parse_predicate(&comp, "x1@0 > 1 && x3@2 <= 3").unwrap();
        let full =
            parse_predicate(&comp, "x1@0 * x2@1 + x3@2 < 5 && x1@0 > 1 && x3@2 <= 3").unwrap();
        let conj = weak.to_conjunctive().unwrap();
        let slice = slicing_core::slice_conjunctive(&comp, &conj);
        let on_comp = detect_bfs(&comp, &comp, &full, &Limits::none());
        let on_slice = detect_bfs(&slice, &comp, &full, &Limits::none());
        assert_eq!(on_comp.detected(), on_slice.detected());
        assert!(on_slice.cuts_explored <= 6);
        assert!(on_slice.cuts_explored <= on_comp.cuts_explored);
    }
}
