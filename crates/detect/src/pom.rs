//! Partial-order-method detection: persistent sets + sleep sets — the
//! comparison baseline of the paper's experimental section (Stoller,
//! Unnikrishnan & Liu, CAV 2000, building on Godefroid's partial-order
//! methods).
//!
//! The state space is the cut lattice; a transition advances one process
//! by one event. At every state only a *persistent set* of transitions is
//! explored, pruned further by *sleep sets*; states are cached so shared
//! suffixes are not re-explored. Because the predicate is a state property,
//! all transitions of processes in its support are treated as *visible*
//! and mutually dependent, which preserves detection (the cut lattice is
//! acyclic, so the ignoring problem does not arise).
//!
//! Every relation a state needs — which processes are enabled, which hold
//! a missing prerequisite of another's next event, which transitions are
//! dependent — is a process bitmask derived in one pass over the state's
//! processes, from per-event tables built once per run.

use std::time::Instant;

use slicing_computation::{
    Computation, Cut, CutMap64, CutPacking, CutSetStats, GlobalState, PackedCutMap64, ProcessId,
};
use slicing_predicates::Predicate;

use crate::metrics::{emit_visited_stats, AbortReason, Detection, Limits, Tracker};

/// Dependency analysis for transitions, fixed per computation + predicate:
/// every event's message partners and causal prerequisites, flattened so
/// that a state's relations cost a few word operations per process.
struct Dependencies {
    n: usize,
    /// Per process: itself, and the predicate's support if it is in it —
    /// visible transitions are mutually dependent.
    visible: Vec<u64>,
    /// Number of events (with the initial one) of each process.
    len: Vec<u32>,
    /// Flat index of each process's initial event; its event at position
    /// `c` is `first[p] + c`.
    first: Vec<usize>,
    /// Per event: the processes it receives from or sends to.
    partners: Vec<u64>,
    /// Per event: its least cut, `n` counts per event.
    least: Vec<u32>,
}

/// The relations of one state, as process bitmasks.
struct Relations {
    /// Processes with a next event.
    live: u64,
    /// Live processes whose next event's prerequisites are all in the cut.
    enabled: u64,
    /// Per live process: the other processes that hold a missing
    /// prerequisite of its next event.
    needs: Vec<u64>,
    /// Per process `p`: the processes whose next transition does not
    /// commute with `p`'s — `p` itself, the support if `p` is in it, the
    /// partners of `p`'s next event, and every live `q` whose next event
    /// has `p` as a partner.
    dep: Vec<u64>,
}

impl Dependencies {
    fn new(comp: &Computation, support: u64) -> Self {
        let n = comp.num_processes();
        let mut len = Vec::with_capacity(n);
        let mut first = Vec::with_capacity(n);
        let mut partners = Vec::with_capacity(comp.num_events());
        let mut least = Vec::with_capacity(comp.num_events() * n);
        for p in comp.processes() {
            len.push(comp.len(p));
            first.push(partners.len());
            for c in 0..comp.len(p) {
                let e = comp.event_at(p, c);
                let senders = comp.messages_into(e).map(|m| comp.process_of(m.send));
                let receivers = comp.messages_out_of(e).map(|m| comp.process_of(m.recv));
                partners.push(
                    senders
                        .chain(receivers)
                        .fold(0u64, |mask, q| mask | 1 << q.as_usize()),
                );
                least.extend_from_slice(comp.min_cut(e).counts());
            }
        }
        let visible = (0..n)
            .map(|p| {
                let bit = 1u64 << p;
                bit | if support & bit != 0 { support } else { 0 }
            })
            .collect();
        Dependencies {
            n,
            visible,
            len,
            first,
            partners,
            least,
        }
    }

    /// Derives the relations of the state `counts` into `rel`, in one
    /// pass over its processes.
    ///
    /// A pair is dependent — over-approximated statically — when it is a
    /// pair of visible transitions or when either's next event exchanges
    /// a message with the other process.
    fn relate(&self, counts: &[u32], rel: &mut Relations) {
        let n = self.n;
        rel.dep.copy_from_slice(&self.visible);
        rel.live = 0;
        rel.enabled = 0;
        for p in 0..n {
            let c = counts[p];
            if c >= self.len[p] {
                continue;
            }
            let bit = 1u64 << p;
            let e = self.first[p] + c as usize;
            let mut needs = 0u64;
            for (q, (&need, &have)) in self.least[e * n..(e + 1) * n]
                .iter()
                .zip(counts)
                .enumerate()
            {
                if need > have {
                    needs |= 1 << q;
                }
            }
            needs &= !bit;
            rel.needs[p] = needs;
            rel.live |= bit;
            if needs == 0 {
                rel.enabled |= bit;
            }
            let partners = self.partners[e];
            rel.dep[p] |= partners;
            let mut rest = partners;
            while rest != 0 {
                rel.dep[rest.trailing_zeros() as usize] |= bit;
                rest &= rest - 1;
            }
        }
    }
}

impl Relations {
    fn new(n: usize) -> Self {
        Relations {
            live: 0,
            enabled: 0,
            needs: vec![0; n],
            dep: vec![0; n],
        }
    }

    /// A persistent set of processes, as a closure starting from the
    /// lowest enabled process: if a live member's next event is dependent
    /// on another process's next event — or is disabled *because* of that
    /// process — the other process joins the set.
    fn persistent_set(&self) -> u64 {
        let seed = self.enabled & self.enabled.wrapping_neg();
        let mut set = seed;
        let mut todo = seed;
        while todo != 0 {
            let p = todo.trailing_zeros() as usize;
            todo &= todo - 1;
            if self.live & (1 << p) == 0 {
                continue;
            }
            let joins = (self.needs[p] | self.dep[p]) & !set;
            set |= joins;
            todo |= joins;
        }
        set
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
///
/// States are packed into `u64` keys ([`CutPacking`]) whenever the
/// computation's counts fit, as in [`detect_bfs`](crate::detect_bfs);
/// wider or longer computations keep whole cuts. Both stores explore
/// identically — packing is a bijection — and are charged the same
/// tracked bytes per state.
pub fn detect_pom<P: Predicate + ?Sized>(
    comp: &Computation,
    pred: &P,
    limits: &Limits,
) -> Detection {
    detect_pom_capped(comp, pred, limits, u32::MAX - 1)
}

/// [`detect_pom`] with an explicit ceiling on the states its visited map
/// holds; unit tests mock a tiny one to pin the
/// [`AbortReason::ArenaFull`] guard, as for `detect_bfs_capped`.
pub(crate) fn detect_pom_capped<P: Predicate + ?Sized>(
    comp: &Computation,
    pred: &P,
    limits: &Limits,
    max_entries: u32,
) -> Detection {
    let _span = slicing_observe::span("detect.pom");
    let n = comp.num_processes();
    let maxima: Vec<u32> = comp.processes().map(|p| comp.len(p)).collect();
    let bottom = Cut::bottom(n);
    match CutPacking::for_maxima(&maxima) {
        Some(packing) => {
            let key = packing.pack(bottom.counts());
            let store = Packed {
                visited: PackedCutMap64::with_max_entries(max_entries),
                packing,
            };
            search(comp, pred, limits, store, key)
        }
        None => {
            let store = Wide {
                visited: CutMap64::with_max_entries(n, max_entries),
            };
            search(comp, pred, limits, store, bottom)
        }
    }
}

/// Where [`search`] keeps its visited states, and how it names them on
/// the stack.
trait Store {
    /// A state as the DFS stack holds it.
    type State;
    /// The visited map's `insert_or_get`: whether `state` is new, and the
    /// sleep mask stored for it (`sleep` if it is new).
    fn insert_or_get(&mut self, state: &Self::State, sleep: u64) -> (bool, &mut u64);
    /// `true` once the visited map refused a state at its entry ceiling.
    fn saturated(&self) -> bool;
    /// Copies the counts of `state` into `cut`.
    fn load(&self, state: &Self::State, cut: &mut Cut);
    /// `state` advanced by one event of process `p`.
    fn child(&self, state: &Self::State, p: usize) -> Self::State;
    /// Deterministic probe/hit/insert counters of the visited map.
    fn stats(&self) -> CutSetStats;
}

/// States packed into `u64` keys: a child is one addition, and a state is
/// unpacked only when it is explored.
struct Packed {
    visited: PackedCutMap64,
    packing: CutPacking,
}

impl Store for Packed {
    type State = u64;

    fn insert_or_get(&mut self, &key: &u64, sleep: u64) -> (bool, &mut u64) {
        self.visited.insert_or_get(key, sleep)
    }

    fn saturated(&self) -> bool {
        self.visited.saturated()
    }

    fn load(&self, &key: &u64, cut: &mut Cut) {
        self.packing.unpack_into(key, cut);
    }

    fn child(&self, &key: &u64, p: usize) -> u64 {
        key + (1 << (p as u32 * self.packing.lane_bits()))
    }

    fn stats(&self) -> CutSetStats {
        self.visited.stats()
    }
}

/// Whole cuts, for computations whose counts do not pack.
struct Wide {
    visited: CutMap64,
}

impl Store for Wide {
    type State = Cut;

    fn insert_or_get(&mut self, cut: &Cut, sleep: u64) -> (bool, &mut u64) {
        self.visited.insert_or_get(cut, sleep)
    }

    fn saturated(&self) -> bool {
        self.visited.saturated()
    }

    fn load(&self, state: &Cut, cut: &mut Cut) {
        cut.copy_from_counts(state.counts());
    }

    fn child(&self, cut: &Cut, p: usize) -> Cut {
        let p = ProcessId::new(p);
        let mut child = cut.clone();
        child.set_count(p, cut.count(p) + 1);
        child
    }

    fn stats(&self) -> CutSetStats {
        self.visited.stats()
    }
}

/// The persistent/sleep-set DFS behind [`detect_pom`], over one of the
/// two stores.
fn search<P, S>(
    comp: &Computation,
    pred: &P,
    limits: &Limits,
    mut store: S,
    bottom: S::State,
) -> Detection
where
    P: Predicate + ?Sized,
    S: Store,
{
    let start = Instant::now();
    let mut tracker = Tracker::default();
    let n = comp.num_processes();
    let entry_bytes = Tracker::hash_entry_bytes(n) + 8; // + sleep mask

    // Pruning totals, accumulated locally and emitted once per run so the
    // Trace stream stays O(1) regardless of lattice size.
    let mut sleep_skips = 0u64;
    let mut persistent_pruned = 0u64;

    let support = pred
        .support()
        .iter()
        .fold(0u64, |mask, p| mask | 1 << p.as_usize());
    let deps = Dependencies::new(comp, support);
    let mut rel = Relations::new(n);

    // DFS stack of (state, sleep mask). The visited map holds the sleep
    // mask each state was (or is being) explored with; re-exploration is
    // needed only when a transition sleeping there is awake now, and the
    // stored mask then narrows to the intersection.
    let mut stack: Vec<(S::State, u64)> = vec![(bottom, 0)];
    tracker.charge(entry_bytes);

    let mut cut = Cut::bottom(n);
    let mut found = false;
    let mut aborted = None;
    while let Some((state, sleep)) = stack.pop() {
        tracker.release(entry_bytes);
        let (inserted, prev) = store.insert_or_get(&state, sleep);
        let covered = !inserted && *prev & !sleep == 0;
        *prev &= sleep;
        // Read right after the insert: a refused state would otherwise
        // read as explored. A full map drops unseen states, so the search
        // can no longer prove absence; stop with a budget verdict.
        if store.saturated() {
            aborted = Some(AbortReason::ArenaFull);
            break;
        }
        if covered {
            continue;
        }
        store.load(&state, &mut cut);
        if inserted {
            tracker.store_cut(entry_bytes);
            tracker.cuts_explored += 1;
            match pred.try_eval(&GlobalState::new(comp, &cut)) {
                Ok(true) => {
                    found = true;
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

        deps.relate(cut.counts(), &mut rel);
        if rel.enabled == 0 {
            continue;
        }
        let persistent = rel.persistent_set();
        persistent_pruned += u64::from((rel.enabled & !persistent).count_ones());

        // Explore enabled persistent transitions not in the sleep set, in
        // process order. A child sleeps on previously explored siblings
        // and inherited sleepers independent of the taken transition.
        let mut explored = 0u64;
        let mut todo = persistent & rel.enabled;
        while todo != 0 {
            let p = todo.trailing_zeros() as usize;
            let bit = 1u64 << p;
            todo &= todo - 1;
            if sleep & bit != 0 {
                sleep_skips += 1;
                continue;
            }
            stack.push((store.child(&state, p), (sleep | explored) & !rel.dep[p]));
            tracker.charge(entry_bytes);
            explored |= bit;
        }
    }
    slicing_observe::counter("detect.pom.sleep_set_skips", sleep_skips);
    slicing_observe::counter("detect.pom.persistent_pruned", persistent_pruned);
    emit_visited_stats(store.stats());
    tracker.finish(found.then_some(cut), start.elapsed(), aborted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use slicing_computation::lattice::count_cuts;
    use slicing_computation::oracle::satisfying_cuts;
    use slicing_computation::test_fixtures::{figure1, grid, random_computation, RandomConfig};
    use slicing_computation::ProcSet;
    use slicing_predicates::{expr::parse_predicate, FnPredicate};

    #[test]
    fn explores_fewer_cuts_than_full_enumeration() {
        // With an unsatisfiable 1-local predicate, independence lets the
        // selective search skip most interleavings of a grid.
        let comp = grid(6, 6);
        let never = FnPredicate::new(ProcSet::singleton(comp.process(0)), "false", |_| false);
        let d = detect_pom(&comp, &never, &Limits::none());
        assert!(!d.detected());
        assert!(
            d.cuts_explored < count_cuts(&comp, None).value(),
            "pom explored {} of {}",
            d.cuts_explored,
            count_cuts(&comp, None).value()
        );
    }

    #[test]
    fn agrees_with_bfs_on_random_instances() {
        let cfg = RandomConfig {
            processes: 3,
            events_per_process: 4,
            value_range: 3,
            send_percent: 50,
            recv_percent: 50,
        };
        for seed in 0..60 {
            let comp = random_computation(seed, &cfg);
            let x0 = comp.var(comp.process(0), "x").unwrap();
            let x1 = comp.var(comp.process(1), "x").unwrap();
            let x2 = comp.var(comp.process(2), "x").unwrap();
            let t = (seed % 5) as i64;
            let pred = FnPredicate::new(ProcSet::all(3), "sum == t", move |st| {
                st.get(x0).expect_int() + st.get(x1).expect_int() + st.get(x2).expect_int() == t
            });
            let pom = detect_pom(&comp, &pred, &Limits::none());
            let oracle = !satisfying_cuts(&comp, |st| pred.eval(st)).is_empty();
            assert_eq!(pom.detected(), oracle, "seed {seed}");
        }
    }

    #[test]
    fn agrees_on_two_local_predicates() {
        let cfg = RandomConfig {
            processes: 4,
            events_per_process: 3,
            value_range: 2,
            send_percent: 40,
            recv_percent: 40,
        };
        for seed in 100..160 {
            let comp = random_computation(seed, &cfg);
            let pred = parse_predicate(&comp, "x@1 == 1 && x@3 == 1").unwrap();
            let pom = detect_pom(&comp, &pred, &Limits::none());
            let oracle =
                !satisfying_cuts(&comp, |st| slicing_predicates::Predicate::eval(&pred, st))
                    .is_empty();
            assert_eq!(pom.detected(), oracle, "seed {seed}");
        }
    }

    #[test]
    fn finds_figure1_witness() {
        let comp = figure1();
        let pred =
            parse_predicate(&comp, "x1@0 * x2@1 + x3@2 < 5 && x1@0 > 1 && x3@2 <= 3").unwrap();
        let d = detect_pom(&comp, &pred, &Limits::none());
        assert!(d.detected());
        let cut = d.found.unwrap();
        assert!(pred.eval(&GlobalState::new(&comp, &cut)));
    }

    #[test]
    fn respects_limits() {
        let comp = grid(8, 8);
        let never = FnPredicate::new(ProcSet::all(2), "false", |_| false);
        let d = detect_pom(&comp, &never, &Limits::bytes(100));
        assert!(!d.completed());
    }

    #[test]
    fn arena_full_aborts_instead_of_wrapping() {
        // A mocked 4-entry visited-map ceiling stands in for the real
        // u32::MAX - 1: the search must stop with a budget verdict, never
        // report "not detected" off states it silently dropped.
        let comp = grid(6, 6);
        let top = comp.top_cut();
        let at_top = FnPredicate::new(ProcSet::all(2), "at top", move |st| *st.cut() == top);
        let d = detect_pom_capped(&comp, &at_top, &Limits::none(), 4);
        assert!(!d.detected());
        assert!(!d.completed());
        assert_eq!(d.aborted, Some(AbortReason::ArenaFull));
        assert_eq!(d.cuts_explored, 4);
        // A witness inside the budget is still found and completes.
        let hit = FnPredicate::new(ProcSet::all(2), "true", |_| true);
        let d = detect_pom_capped(&comp, &hit, &Limits::none(), 4);
        assert!(d.detected());
        assert!(d.completed());
    }

    #[test]
    fn channel_coupled_processes_stay_dependent() {
        // A send/recv pair must not be commuted away: the predicate "one
        // message in transit" only holds between the send and the receive.
        let mut b = slicing_computation::ComputationBuilder::new(3);
        let s = b.append_event(b.process(0));
        let r = b.append_event(b.process(1));
        b.message(s, r).unwrap();
        for _ in 0..3 {
            b.append_event(b.process(2));
        }
        let comp = b.build().unwrap();
        let p0 = comp.process(0);
        let p1 = comp.process(1);
        let pred = FnPredicate::new([p0, p1].into_iter().collect(), "in transit", move |st| {
            st.in_transit(p0, p1) == 1
        });
        let d = detect_pom(&comp, &pred, &Limits::none());
        assert!(d.detected());
    }
}
