//! Detection under the `invariant`, `controllable` and `definitely`
//! modalities.
//!
//! Besides `possibly`, the paper notes slicing applies to monitoring under
//! *definitely*, *invariant*, and *controllable* modalities. This module
//! adds all three:
//!
//! - `invariant: b` — every consistent cut satisfies `b` (equivalently,
//!   `¬ possibly: ¬b`); slicing `¬b` makes fault-free verification cheap,
//!   which is exactly the paper's software-fault-tolerance setup.
//! - `controllable: b` — some observation (path from the initial to the
//!   final cut) passes only through cuts satisfying `b`, so a controller
//!   that schedules the execution can *maintain* `b`. The path search is
//!   the level-order engine over the cuts that satisfy `b`.
//! - `definitely: b` — every observation passes through a cut satisfying
//!   `b`: the dual of `controllable: ¬b`.

use std::sync::atomic::{AtomicBool, Ordering::Relaxed};

use slicing_computation::{Computation, Cut, CutSpace, GlobalState, ProcSet};
use slicing_core::PredicateSpec;
use slicing_predicates::expr::EvalError;
use slicing_predicates::Predicate;

use crate::enumerate::detect_bfs;
use crate::metrics::{AbortReason, Detection, Limits};
use crate::slicing::detect_with_slicing;

/// Decides `invariant: b` by slicing and searching its complement
/// specification: `spec_of_not_b` must denote `¬b`.
///
/// Returns `Ok(true)` when no consistent cut satisfies `¬b` (the invariant
/// holds), `Ok(false)` with the witness available from the inner search
/// otherwise.
///
/// # Errors
///
/// Returns the inner [`Detection`] as `Err` (boxed — it carries a witness
/// cut and is much larger than the `Ok` bool) if the search aborted on a
/// limit, leaving the question unanswered.
pub fn invariant_via_slicing(
    comp: &Computation,
    spec_of_not_b: &PredicateSpec,
    limits: &Limits,
) -> Result<bool, Box<Detection>> {
    let _span = slicing_observe::span("detect.invariant");
    let outcome = detect_with_slicing(comp, spec_of_not_b, limits);
    if !outcome.search.completed() {
        return Err(Box::new(outcome.search));
    }
    Ok(!outcome.detected())
}

/// Decides `invariant: b` by direct enumeration (the baseline for
/// [`invariant_via_slicing`]): a level-order search for `possibly: ¬b`,
/// which on a fault-free run sweeps the whole lattice at two layers of
/// live cuts.
///
/// # Panics
///
/// Panics if the search aborts on a limit.
pub fn invariant<P: Predicate + ?Sized>(comp: &Computation, pred: &P, limits: &Limits) -> bool {
    let d = detect_bfs(comp, comp, &Negated(pred), limits);
    assert!(d.completed(), "invariant check hit a resource limit");
    !d.detected()
}

struct Negated<'a, P: ?Sized>(&'a P);

impl<P: Predicate + ?Sized> std::fmt::Debug for Negated<'_, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "¬{:?}", self.0)
    }
}

impl<P: Predicate + ?Sized> Predicate for Negated<'_, P> {
    fn support(&self) -> ProcSet {
        self.0.support()
    }

    fn eval(&self, state: &GlobalState<'_>) -> bool {
        !self.0.eval(state)
    }

    fn try_eval(&self, state: &GlobalState<'_>) -> Result<bool, EvalError> {
        self.0.try_eval(state).map(|b| !b)
    }
}

/// The cuts a controller can keep `pred` true through, as a [`CutSpace`]:
/// ⊥ if `pred(⊥)` holds, and from each such cut its one-event advances in
/// `comp` that satisfy `pred`. As a [`Predicate`] it is the search's
/// target, "cut == ⊤".
///
/// A `pred` error marks the space failed and skips that successor; the
/// next target evaluation then reports the error, so the level-order
/// search stops with [`AbortReason::PredicateError`].
struct Controlled<'a, P: ?Sized> {
    comp: &'a Computation,
    pred: &'a P,
    top: Cut,
    failed: AtomicBool,
}

impl<P: Predicate + ?Sized> Controlled<'_, P> {
    fn admits(&self, cut: &Cut) -> bool {
        self.pred
            .try_eval(&GlobalState::new(self.comp, cut))
            .unwrap_or_else(|_| {
                self.failed.store(true, Relaxed);
                false
            })
    }
}

impl<P: Predicate + ?Sized> CutSpace for Controlled<'_, P> {
    fn num_processes(&self) -> usize {
        self.comp.num_processes()
    }

    fn bottom(&self) -> Option<Cut> {
        CutSpace::bottom(self.comp).filter(|cut| self.admits(cut))
    }

    fn successors(&self, cut: &Cut, out: &mut Vec<Cut>) {
        self.for_each_successor(cut, &mut |next| out.push(next.clone()));
    }

    fn for_each_successor(&self, cut: &Cut, f: &mut dyn FnMut(&Cut)) {
        self.comp.for_each_successor(cut, &mut |next| {
            if self.admits(next) {
                f(next);
            }
        });
    }
}

impl<P: Predicate + ?Sized> std::fmt::Debug for Controlled<'_, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cut == {} through {:?}", self.top, self.pred)
    }
}

impl<P: Predicate + ?Sized> Predicate for Controlled<'_, P> {
    fn support(&self) -> ProcSet {
        ProcSet::all(self.comp.num_processes())
    }

    fn eval(&self, state: &GlobalState<'_>) -> bool {
        *state.cut() == self.top
    }

    fn try_eval(&self, state: &GlobalState<'_>) -> Result<bool, EvalError> {
        if self.failed.load(Relaxed) {
            return Err(EvalError {
                message: "the controlled predicate failed on a successor".to_owned(),
            });
        }
        Ok(self.eval(state))
    }
}

/// Detects `controllable: b`: searches for a path from the initial cut to
/// the final cut that stays within `b`-satisfying cuts.
///
/// `found = Some(top)` means such a controlled observation exists; the
/// execution can be scheduled so `b` holds continuously. The search is
/// [`detect_bfs`] over the cuts reachable through `b`: every successor is
/// an upper cover, so it admits the cuts of a global-visited
/// breadth-first search in the same order and evaluates `b` on the same
/// successors, while keeping only two layers of cuts live.
pub fn detect_controllable<P: Predicate + ?Sized>(
    comp: &Computation,
    pred: &P,
    limits: &Limits,
) -> Detection {
    let _span = slicing_observe::span("detect.controllable");
    let space = Controlled {
        comp,
        pred,
        top: comp.top_cut(),
        failed: AtomicBool::new(false),
    };
    let mut d = detect_bfs(&space, comp, &space, limits);
    if space.failed.into_inner() {
        d.aborted = Some(AbortReason::PredicateError);
    }
    d
}

/// Boolean form of [`detect_controllable`].
///
/// # Panics
///
/// Panics if the search aborts on a limit.
pub fn controllable<P: Predicate + ?Sized>(comp: &Computation, pred: &P, limits: &Limits) -> bool {
    let d = detect_controllable(comp, pred, limits);
    assert!(d.completed(), "controllable check hit a resource limit");
    d.detected()
}

/// Decides `definitely: b`: every observation (every path from the
/// initial cut to the final cut) passes through a cut satisfying `b`. It
/// holds exactly when no observation stays within `¬b`, i.e.
/// `definitely: b = ¬controllable: ¬b`.
///
/// # Panics
///
/// Panics if the search aborts on a limit (pass generous [`Limits`]).
pub fn definitely<P: Predicate + ?Sized>(comp: &Computation, pred: &P, limits: &Limits) -> bool {
    !controllable(comp, &Negated(pred), limits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use slicing_computation::lattice::all_cuts;
    use slicing_computation::test_fixtures::{figure1, grid, random_computation, RandomConfig};
    use slicing_predicates::{expr::parse_predicate, Conjunctive, FnPredicate, LocalPredicate};

    /// A path from `cut` to ⊤ through `pred`-satisfying cuts: the
    /// brute-force recursion over maximal chains.
    fn reaches_top(comp: &Computation, pred: &dyn Predicate, cut: &Cut) -> bool {
        if !pred.eval(&GlobalState::new(comp, cut)) {
            return false;
        }
        if *cut == comp.top_cut() {
            return true;
        }
        let mut succ = Vec::new();
        CutSpace::successors(comp, cut, &mut succ);
        succ.iter().any(|s| reaches_top(comp, pred, s))
    }

    /// Brute-force `controllable`.
    fn controllable_oracle(comp: &Computation, pred: &dyn Predicate) -> bool {
        reaches_top(comp, pred, &Cut::bottom(comp.num_processes()))
    }

    /// Brute-force `definitely`: no ¬pred path from bottom to top.
    fn definitely_oracle(comp: &Computation, pred: &dyn Predicate) -> bool {
        !reaches_top(comp, &Negated(pred), &Cut::bottom(comp.num_processes()))
    }

    #[test]
    fn constants() {
        let comp = grid(2, 2);
        let always = FnPredicate::new(ProcSet::all(2), "true", |_| true);
        let never = FnPredicate::new(ProcSet::all(2), "false", |_| false);
        assert!(invariant(&comp, &always, &Limits::none()));
        assert!(!invariant(&comp, &never, &Limits::none()));
        assert!(controllable(&comp, &always, &Limits::none()));
        assert!(!controllable(&comp, &never, &Limits::none()));
    }

    #[test]
    fn modality_hierarchy_holds() {
        // invariant ⇒ controllable ⇒ ... and invariant ⇒ definitely (for
        // predicates true at ⊥/⊤ trivially via all-cuts).
        let cfg = RandomConfig {
            processes: 3,
            events_per_process: 3,
            value_range: 2,
            ..RandomConfig::default()
        };
        for seed in 0..20 {
            let comp = random_computation(seed, &cfg);
            let pred = parse_predicate(&comp, "x@0 + x@1 >= 0 && x@2 <= 1").unwrap();
            let inv = invariant(&comp, &pred, &Limits::none());
            let ctl = controllable(&comp, &pred, &Limits::none());
            let def = definitely(&comp, &pred, &Limits::none());
            if inv {
                assert!(ctl, "seed {seed}: invariant ⇒ controllable");
                assert!(def, "seed {seed}: invariant ⇒ definitely");
            }
        }
    }

    #[test]
    fn controllable_but_not_invariant() {
        // Grid 1×1; predicate: "not the cut ⟨2,1⟩" — the path through
        // ⟨1,2⟩ avoids it, so controllable; but ⟨2,1⟩ itself violates it.
        let comp = grid(1, 1);
        let pred = FnPredicate::new(ProcSet::all(2), "≠(2,1)", |st| {
            st.cut().counts() != [2, 1]
        });
        assert!(!invariant(&comp, &pred, &Limits::none()));
        assert!(controllable(&comp, &pred, &Limits::none()));
    }

    #[test]
    fn invariant_via_slicing_agrees_with_direct() {
        let cfg = RandomConfig {
            processes: 3,
            events_per_process: 3,
            value_range: 2,
            ..RandomConfig::default()
        };
        for seed in 0..20 {
            let comp = random_computation(seed, &cfg);
            // b = "x@0 <= 1": invariant iff ¬b = "x@0 > 1" never holds.
            let x0 = comp.var(comp.process(0), "x").unwrap();
            let b = LocalPredicate::int(x0, "x <= 1", |v| v <= 1);
            let not_b = PredicateSpec::conjunctive(Conjunctive::new(vec![LocalPredicate::int(
                x0,
                "x > 1",
                |v| v > 1,
            )]));
            let direct = invariant(&comp, &b, &Limits::none());
            let sliced = invariant_via_slicing(&comp, &not_b, &Limits::none()).unwrap();
            assert_eq!(direct, sliced, "seed {seed}");
        }
    }

    #[test]
    fn invariant_via_slicing_reports_aborts() {
        // A disjunction whose or-grafted slice has a bottom cut that
        // satisfies neither disjunct: the residual search starts there and
        // trips a one-byte memory limit before any verdict.
        let mut b = slicing_computation::ComputationBuilder::new(2);
        let x = b.declare_var(b.process(0), "x", slicing_computation::Value::Int(0));
        let y = b.declare_var(b.process(1), "y", slicing_computation::Value::Int(0));
        b.step(b.process(0), &[(x, slicing_computation::Value::Int(1))]);
        b.step(b.process(1), &[(y, slicing_computation::Value::Int(1))]);
        let comp = b.build().unwrap();
        let spec = PredicateSpec::or(vec![
            PredicateSpec::conjunctive(Conjunctive::new(vec![LocalPredicate::int(
                x,
                "x == 1",
                |v| v == 1,
            )])),
            PredicateSpec::conjunctive(Conjunctive::new(vec![LocalPredicate::int(
                y,
                "y == 1",
                |v| v == 1,
            )])),
        ]);
        // Sanity: the grafted bottom ⟨1,1⟩ satisfies neither disjunct.
        let slice = spec.slice(&comp);
        assert_eq!(slice.bottom_cut().unwrap().counts(), &[1, 1]);
        let result = invariant_via_slicing(&comp, &spec, &Limits::bytes(1));
        assert!(matches!(result, Err(d) if !d.completed()));
        // With room it completes: ¬b holds somewhere ⇒ invariant false.
        let result = invariant_via_slicing(&comp, &spec, &Limits::none());
        assert!(!result.unwrap());
    }

    #[test]
    fn controllable_agrees_with_oracle_on_random_instances() {
        let cfg = RandomConfig {
            processes: 3,
            events_per_process: 3,
            value_range: 2,
            ..RandomConfig::default()
        };
        for seed in 0..30 {
            let comp = random_computation(seed, &cfg);
            for src in ["x@0 + x@1 + x@2 <= 1", "x@0 == 1 || x@1 == x@2 - 1"] {
                let pred = parse_predicate(&comp, src).unwrap();
                assert_eq!(
                    controllable(&comp, &pred, &Limits::none()),
                    controllable_oracle(&comp, &pred),
                    "seed {seed}: {src}"
                );
            }
        }
    }

    /// The path search keeps two lattice layers live: on the 7×7 grid
    /// (widest layer 7) it admits all 49 cuts but never stores more than
    /// two layers' worth at once.
    #[test]
    fn controllable_keeps_two_layers_live() {
        let comp = grid(6, 6);
        let always = FnPredicate::new(ProcSet::all(2), "true", |_| true);
        let d = detect_controllable(&comp, &always, &Limits::none());
        assert_eq!(d.found, Some(comp.top_cut()));
        assert_eq!(d.cuts_explored, 49);
        assert!(d.max_stored_cuts <= 14, "{}", d.max_stored_cuts);
        // The same search under a cap of two layers completes.
        assert!(detect_controllable(&comp, &always, &Limits::live_cuts(14)).completed());
    }

    /// Counts a predicate's evaluations.
    #[derive(Debug)]
    struct Counting<P>(P, std::sync::atomic::AtomicU64);

    impl<P: Predicate> Predicate for Counting<P> {
        fn support(&self) -> ProcSet {
            self.0.support()
        }
        fn eval(&self, state: &GlobalState<'_>) -> bool {
            self.1.fetch_add(1, Relaxed);
            self.0.eval(state)
        }
        fn try_eval(&self, state: &GlobalState<'_>) -> Result<bool, EvalError> {
            self.1.fetch_add(1, Relaxed);
            self.0.try_eval(state)
        }
    }

    /// Both modalities' path searches reproduce the global-visited
    /// breadth-first search they replace: the same verdict, cuts explored
    /// and predicate evaluations, captured from that search.
    #[test]
    fn modality_counts_match_the_global_visited_search() {
        type Run = (bool, u64, u64);
        // Per seed: (controllable: b) and (controllable: ¬b), each as
        // (found a path, cuts explored, evaluations of b).
        let pinned: [(&str, [(Run, Run); 10]); 2] = [
            (
                "x@0 + x@1 + x@2 <= 1",
                [
                    ((true, 23, 50), (false, 0, 1)),
                    ((false, 0, 1), (false, 29, 76)),
                    ((true, 29, 51), (false, 0, 1)),
                    ((false, 0, 1), (false, 12, 33)),
                    ((true, 34, 73), (false, 0, 1)),
                    ((false, 0, 1), (false, 28, 56)),
                    ((false, 6, 17), (false, 0, 1)),
                    ((false, 0, 1), (true, 29, 60)),
                    ((false, 12, 28), (false, 0, 1)),
                    ((false, 0, 1), (true, 26, 50)),
                ],
            ),
            (
                "x@0 + x@2 <= 1 && x@1 <= 1",
                [
                    ((true, 28, 58), (false, 0, 1)),
                    ((false, 0, 1), (false, 9, 25)),
                    ((true, 29, 51), (false, 0, 1)),
                    ((false, 0, 1), (false, 12, 33)),
                    ((true, 42, 93), (false, 0, 1)),
                    ((false, 0, 1), (false, 7, 17)),
                    ((true, 46, 96), (false, 0, 1)),
                    ((false, 0, 1), (false, 5, 14)),
                    ((false, 22, 47), (false, 0, 1)),
                    ((false, 0, 1), (false, 8, 19)),
                ],
            ),
        ];
        let cfg = RandomConfig {
            processes: 3,
            events_per_process: 3,
            value_range: 2,
            ..RandomConfig::default()
        };
        for (src, runs) in pinned {
            for (seed, want) in (0u64..).zip(runs) {
                let comp = random_computation(seed, &cfg);
                let pred = Counting(parse_predicate(&comp, src).unwrap(), Default::default());
                let run = |d: Detection| {
                    assert!(d.completed(), "seed {seed}: {src}");
                    assert!(d.found.is_none() || d.found == Some(comp.top_cut()));
                    (d.detected(), d.cuts_explored, pred.1.swap(0, Relaxed))
                };
                let ctl = run(detect_controllable(&comp, &pred, &Limits::none()));
                let not_def = run(detect_controllable(&comp, &Negated(&pred), &Limits::none()));
                assert_eq!((ctl, not_def), want, "seed {seed}: {src}");
            }
        }
    }

    #[test]
    fn predicate_error_aborts_the_path_search() {
        use slicing_computation::{ComputationBuilder, Value};
        // x declared Int, flipped to Bool: the predicate errors at the
        // second cut, the first successor the search tries.
        let mut b = ComputationBuilder::new(1);
        let x = b.declare_var(b.process(0), "x", Value::Int(0));
        b.step(b.process(0), &[(x, Value::Bool(true))]);
        let comp = b.build().unwrap();
        // Each predicate holds at ⊥ and errors on its one successor.
        let holds = parse_predicate(&comp, "x@0 < 1").unwrap();
        let fails = parse_predicate(&comp, "x@0 > 1").unwrap();
        for d in [
            detect_controllable(&comp, &holds, &Limits::none()),
            detect_controllable(&comp, &Negated(&fails), &Limits::none()),
        ] {
            assert_eq!(d.cuts_explored, 1);
            assert_eq!(
                (d.found, d.aborted),
                (None, Some(AbortReason::PredicateError))
            );
        }
        // An error at the bottom itself aborts before any cut is explored.
        #[derive(Debug)]
        struct Broken;
        impl Predicate for Broken {
            fn support(&self) -> ProcSet {
                ProcSet::all(1)
            }
            fn eval(&self, _: &GlobalState<'_>) -> bool {
                false
            }
            fn try_eval(&self, _: &GlobalState<'_>) -> Result<bool, EvalError> {
                Err(EvalError {
                    message: "broken".to_owned(),
                })
            }
        }
        let d = detect_controllable(&comp, &Broken, &Limits::none());
        assert_eq!(d.cuts_explored, 0);
        assert_eq!(
            (d.found, d.aborted),
            (None, Some(AbortReason::PredicateError))
        );
    }

    #[test]
    fn constant_predicates() {
        let comp = grid(2, 2);
        let always = FnPredicate::new(ProcSet::all(2), "true", |_| true);
        let never = FnPredicate::new(ProcSet::all(2), "false", |_| false);
        assert!(definitely(&comp, &always, &Limits::none()));
        assert!(!definitely(&comp, &never, &Limits::none()));
    }

    #[test]
    fn synchronization_point_is_definite() {
        // p0 sends to p1: "the message is in transit" holds on every
        // observation, because the receive cannot precede the send.
        let mut b = slicing_computation::ComputationBuilder::new(2);
        let s = b.append_event(b.process(0));
        let r = b.append_event(b.process(1));
        b.message(s, r).unwrap();
        let comp = b.build().unwrap();
        let p0 = comp.process(0);
        let p1 = comp.process(1);
        let pred = FnPredicate::new(ProcSet::all(2), "in transit", move |st| {
            st.in_transit(p0, p1) == 1
        });
        assert_eq!(
            definitely(&comp, &pred, &Limits::none()),
            definitely_oracle(&comp, &pred)
        );
        assert!(definitely(&comp, &pred, &Limits::none()));
    }

    #[test]
    fn possibly_but_not_definitely() {
        // In a 1×1 grid, "p0 advanced but p1 did not" is possible but not
        // definite (the observation advancing p1 first avoids it).
        let comp = grid(1, 1);
        let pred = FnPredicate::new(ProcSet::all(2), "p0 only", |st| {
            let c = st.cut();
            c.counts() == [2, 1]
        });
        assert!(!definitely(&comp, &pred, &Limits::none()));
        let found = all_cuts(&comp).iter().any(|c| c.counts() == [2, 1]);
        assert!(found);
    }

    #[test]
    fn agrees_with_oracle_on_random_instances() {
        let cfg = RandomConfig {
            processes: 3,
            events_per_process: 3,
            value_range: 2,
            ..RandomConfig::default()
        };
        for seed in 0..30 {
            let comp = random_computation(seed, &cfg);
            let pred = parse_predicate(&comp, "x@0 == 1 || x@1 == x@2 - 1").unwrap();
            assert_eq!(
                definitely(&comp, &pred, &Limits::none()),
                definitely_oracle(&comp, &pred),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn figure1_conjunction_is_not_definite() {
        let comp = figure1();
        let pred = parse_predicate(&comp, "x1@0 > 1 && x3@2 <= 3").unwrap();
        assert_eq!(
            definitely(&comp, &pred, &Limits::none()),
            definitely_oracle(&comp, &pred)
        );
    }

    #[test]
    #[should_panic(expected = "resource limit")]
    fn limit_hit_panics_in_boolean_form() {
        let comp = grid(6, 6);
        let never = FnPredicate::new(ProcSet::all(2), "false", |_| false);
        let _ = definitely(&comp, &never, &Limits::cuts(3));
    }
}
