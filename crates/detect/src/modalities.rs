//! Detection under the `invariant` and `controllable` modalities.
//!
//! Besides `possibly`, the paper notes slicing applies to monitoring under
//! *definitely*, *invariant*, and *controllable* modalities. This module
//! adds the latter two:
//!
//! - `invariant: b` — every consistent cut satisfies `b` (equivalently,
//!   `¬ possibly: ¬b`); slicing `¬b` makes fault-free verification cheap,
//!   which is exactly the paper's software-fault-tolerance setup.
//! - `controllable: b` — some observation (path from the initial to the
//!   final cut) passes only through cuts satisfying `b`, so a controller
//!   that schedules the execution can *maintain* `b`.

use std::collections::VecDeque;
use std::time::Instant;

use slicing_computation::{Computation, Cut, CutSet, CutSpace, GlobalState};
use slicing_core::PredicateSpec;
use slicing_predicates::Predicate;

use crate::metrics::{emit_visited_stats, AbortReason, Detection, Limits, Tracker};
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
    let d = crate::enumerate::detect_bfs(comp, comp, &Negated(pred), limits);
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
    fn support(&self) -> slicing_computation::ProcSet {
        self.0.support()
    }

    fn eval(&self, state: &GlobalState<'_>) -> bool {
        !self.0.eval(state)
    }

    fn try_eval(
        &self,
        state: &GlobalState<'_>,
    ) -> Result<bool, slicing_predicates::expr::EvalError> {
        self.0.try_eval(state).map(|b| !b)
    }
}

/// Detects `controllable: b`: searches for a path from the initial cut to
/// the final cut that stays within `b`-satisfying cuts.
///
/// `found = Some(top)` means such a controlled observation exists; the
/// execution can be scheduled so `b` holds continuously.
pub fn detect_controllable<P: Predicate + ?Sized>(
    comp: &Computation,
    pred: &P,
    limits: &Limits,
) -> Detection {
    let _span = slicing_observe::span("detect.controllable");
    let start = Instant::now();
    let mut tracker = Tracker::default();
    let n = comp.num_processes();
    let entry_bytes = Tracker::hash_entry_bytes(n);
    let top = comp.top_cut();

    let bottom = Cut::bottom(n);
    match pred.try_eval(&GlobalState::new(comp, &bottom)) {
        Ok(true) => {}
        // Every observation starts at the initial cut.
        Ok(false) => return tracker.finish(None, start.elapsed(), None),
        Err(_) => return tracker.finish(None, start.elapsed(), Some(AbortReason::PredicateError)),
    }

    let mut visited = CutSet::new(n);
    let mut queue: VecDeque<Cut> = VecDeque::new();
    visited.insert(&bottom);
    tracker.store_cut(entry_bytes);
    queue.push_back(bottom);

    let mut succ = Vec::new();
    let mut found = None;
    let mut aborted = None;
    'search: while let Some(cut) = queue.pop_front() {
        tracker.cuts_explored += 1;
        if cut == top {
            found = Some(cut);
            break;
        }
        if let Some(reason) = tracker.over_limit(limits, start) {
            aborted = Some(reason);
            break;
        }
        succ.clear();
        CutSpace::successors(comp, &cut, &mut succ);
        for next in succ.drain(..) {
            match pred.try_eval(&GlobalState::new(comp, &next)) {
                Ok(true) => {}
                Ok(false) => continue,
                Err(_) => {
                    aborted = Some(AbortReason::PredicateError);
                    break 'search;
                }
            }
            if visited.insert(&next) {
                tracker.store_cut(entry_bytes);
                queue.push_back(next);
            }
        }
        if visited.saturated() {
            aborted = Some(AbortReason::ArenaFull);
            break;
        }
    }
    emit_visited_stats(visited.stats());
    tracker.finish(found, start.elapsed(), aborted)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::definitely::definitely;
    use slicing_computation::test_fixtures::{grid, random_computation, RandomConfig};
    use slicing_computation::ProcSet;
    use slicing_predicates::{expr::parse_predicate, Conjunctive, FnPredicate, LocalPredicate};

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
}
