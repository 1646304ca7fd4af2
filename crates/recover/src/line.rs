//! Recovery-line computation: the maximal consistent cut with no global
//! fault in its causal past.
//!
//! A cut `C` is *safe* when no fault-satisfying cut `D` lies below it
//! (`D ≤ C`): rolling the system back to a safe cut erases every state
//! that could have causally produced the fault. The *recovery line* is a
//! safe cut of maximum size — it discards as little computation as
//! possible, the software analogue of the checkpointing literature's
//! recovery line.
//!
//! The slice gives it almost for free. Every fault cut belongs to the
//! slice of the fault specification, and every slice cut contains the
//! slice's bottom `W`. Hence any cut `C` with `¬(W ≤ C)` is safe: a fault
//! cut below `C` would force `W ≤ C`. This criterion is *sound* for the
//! approximate slices of `And`/`Or` specifications and *exact* for lean
//! slices (conjunctive/regular predicates, where `W` itself is a fault
//! cut). Maximising over the criterion needs only one candidate per
//! process: the largest consistent cut that stays below `W` on that
//! process.

use slicing_computation::lattice::for_each_cut;
use slicing_computation::{Computation, Cut, GlobalState};
use slicing_core::PredicateSpec;

/// How a [`RecoveryLine`] was established.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineMethod {
    /// The fault slice is empty — no fault cut exists; trivially exact.
    EmptySlice,
    /// Slice-based: maximal cut not above the fault slice's bottom. Exact
    /// for lean slices, conservative (possibly smaller than the true
    /// maximum) for approximate ones.
    SliceBottom,
    /// Exhaustive lattice search against the exact predicate; always
    /// exact, exponential in the worst case.
    Exhaustive,
}

impl LineMethod {
    /// Stable lowercase name, used in reports.
    pub fn name(self) -> &'static str {
        match self {
            LineMethod::EmptySlice => "empty-slice",
            LineMethod::SliceBottom => "slice-bottom",
            LineMethod::Exhaustive => "exhaustive",
        }
    }
}

/// The outcome of [`recovery_line`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryLine {
    /// No cut satisfies the fault specification: the entire history is
    /// safe and nothing needs to be rolled back.
    Clean {
        /// The computation's top cut (the full history).
        top: Cut,
    },
    /// The maximal provably-safe consistent cut.
    Line {
        /// The recovery line itself.
        cut: Cut,
        /// How it was computed.
        method: LineMethod,
    },
    /// Even the bottom cut (initial states only) has a fault at or below
    /// it: there is no safe cut except the trivial empty cut, i.e. the
    /// system must restart from scratch.
    Unrecoverable,
    /// The slice criterion was inconclusive (approximate slice with a
    /// bottom at the lattice bottom) and the exhaustive fallback exceeded
    /// its cut budget.
    Undetermined,
}

impl RecoveryLine {
    /// The cut to roll back to, when one exists.
    pub fn cut(&self) -> Option<&Cut> {
        match self {
            RecoveryLine::Clean { top } => Some(top),
            RecoveryLine::Line { cut, .. } => Some(cut),
            RecoveryLine::Unrecoverable | RecoveryLine::Undetermined => None,
        }
    }
}

/// The maximum consistent cut of `comp` that is componentwise `≤ bound`
/// (after clamping `bound` into range). Computed by the standard retreat
/// fixpoint: repeatedly drop a frontier event whose causal past is not
/// inside the cut. The set of consistent cuts below a bound is closed
/// under join, so the maximum exists and the fixpoint finds it.
pub fn max_consistent_cut_below(comp: &Computation, bound: &Cut) -> Cut {
    let mut c = bound.clone();
    for p in comp.processes() {
        c.set_count(p, c.count(p).clamp(1, comp.len(p)));
    }
    loop {
        let mut changed = false;
        for p in comp.processes() {
            while c.count(p) > 1 {
                let frontier = comp.event_at(p, c.count(p) - 1);
                if comp.min_cut(frontier).leq(&c) {
                    break;
                }
                c.set_count(p, c.count(p) - 1);
                changed = true;
            }
        }
        if !changed {
            debug_assert!(comp.is_consistent(&c));
            return c;
        }
    }
}

/// Computes the recovery line of `comp` for the fault specification
/// `spec` (see the module docs for the criterion): slices `spec`, then
/// maximises over the slice's bottom as [`recover`](crate::recover) does
/// with the bottom its detection already found.
///
/// When the slice criterion cannot decide — the slice is approximate and
/// its bottom is the lattice bottom — the exhaustive fallback
/// [`recovery_line_exhaustive`] runs under `fallback_max_cuts`.
pub fn recovery_line(
    comp: &Computation,
    spec: &PredicateSpec,
    fallback_max_cuts: u64,
) -> RecoveryLine {
    let _span = slicing_observe::span("recover.line");
    let slice = spec.slice(comp);
    line_from_slice_bottom(comp, spec, slice.bottom_cut(), fallback_max_cuts)
}

/// The recovery line given `w`, the bottom of `spec`'s slice on `comp`
/// (`None` when the slice is empty).
pub(crate) fn line_from_slice_bottom(
    comp: &Computation,
    spec: &PredicateSpec,
    w: Option<&Cut>,
    fallback_max_cuts: u64,
) -> RecoveryLine {
    let top = comp.top_cut();
    let Some(w) = w else {
        // Sound even for approximate slices: empty over-approximation
        // means no satisfying cut at all.
        return RecoveryLine::Clean { top };
    };
    let bottom = Cut::bottom(comp.num_processes());
    if *w == bottom {
        // ¬(W ≤ C) rejects every cut. For a lean slice W itself is a
        // fault cut, so nothing is safe; otherwise the slice is
        // approximate and only the exact lattice search can answer.
        if spec.eval(&GlobalState::new(comp, &bottom)) {
            return RecoveryLine::Unrecoverable;
        }
        return recovery_line_exhaustive(comp, spec, fallback_max_cuts);
    }
    // One candidate per process p with W_p ≥ 2: the largest consistent cut
    // with C_p < W_p. Any criterion-safe cut C has some such p and is
    // dominated by that candidate, so the best candidate is the maximum.
    let mut best: Option<Cut> = None;
    for p in comp.processes() {
        if w.count(p) < 2 {
            continue;
        }
        let mut bound = top.clone();
        bound.set_count(p, w.count(p) - 1);
        let candidate = max_consistent_cut_below(comp, &bound);
        if best.as_ref().is_none_or(|b| candidate.size() > b.size()) {
            best = Some(candidate);
        }
    }
    let cut = best.expect("a slice bottom above the lattice bottom has some count >= 2");
    slicing_observe::message(slicing_observe::Level::Debug, || {
        format!("recovery line {cut} via slice bottom {w}")
    });
    RecoveryLine::Line {
        cut,
        method: LineMethod::SliceBottom,
    }
}

/// Exact recovery line by explicit lattice enumeration: collects the
/// minimal fault cuts, then takes the largest cut dominating none of
/// them. Exponential in the worst case; `max_cuts` bounds the enumeration
/// and exceeding it yields [`RecoveryLine::Undetermined`] (and bumps the
/// `recover.fallback_exhausted` counter).
pub fn recovery_line_exhaustive(
    comp: &Computation,
    spec: &PredicateSpec,
    max_cuts: u64,
) -> RecoveryLine {
    let _span = slicing_observe::span("recover.line_exhaustive");
    let mut fault_min: Vec<Cut> = Vec::new();
    let mut seen = 0u64;
    let mut over_budget = false;
    for_each_cut(comp, |cut| {
        seen += 1;
        if seen > max_cuts {
            over_budget = true;
            return false;
        }
        if spec.eval(&GlobalState::new(comp, cut)) && !fault_min.iter().any(|f| f.leq(cut)) {
            fault_min.retain(|f| !cut.leq(f));
            fault_min.push(cut.clone());
        }
        true
    });
    if over_budget {
        slicing_observe::counter("recover.fallback_exhausted", 1);
        return RecoveryLine::Undetermined;
    }
    if fault_min.is_empty() {
        return RecoveryLine::Clean {
            top: comp.top_cut(),
        };
    }
    let bottom = Cut::bottom(comp.num_processes());
    if fault_min.iter().any(|f| f.leq(&bottom)) {
        return RecoveryLine::Unrecoverable;
    }
    let mut best: Option<Cut> = None;
    for_each_cut(comp, |cut| {
        if !fault_min.iter().any(|f| f.leq(cut))
            && best.as_ref().is_none_or(|b| cut.size() > b.size())
        {
            best = Some(cut.clone());
        }
        true
    });
    match best {
        Some(cut) => RecoveryLine::Line {
            cut,
            method: LineMethod::Exhaustive,
        },
        None => RecoveryLine::Unrecoverable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slicing_computation::test_fixtures::figure1;
    use slicing_predicates::{Conjunctive, LocalPredicate};
    use slicing_sim::fault::inject_primary_secondary_fault;
    use slicing_sim::primary_secondary::{self, PrimarySecondary};
    use slicing_sim::{run, SimConfig};

    /// Brute-force safety: no cut below `c` (inclusive) satisfies `spec`.
    fn is_safe(comp: &Computation, spec: &PredicateSpec, c: &Cut) -> bool {
        let mut safe = true;
        for_each_cut(comp, |cut| {
            if cut.leq(c) && spec.eval(&GlobalState::new(comp, cut)) {
                safe = false;
                return false;
            }
            true
        });
        safe
    }

    /// Brute-force maximum safe cut size, or `None` when even bottom is
    /// unsafe.
    fn oracle_max_safe_size(comp: &Computation, spec: &PredicateSpec) -> Option<u64> {
        let mut faults: Vec<Cut> = Vec::new();
        for_each_cut(comp, |cut| {
            if spec.eval(&GlobalState::new(comp, cut)) {
                faults.push(cut.clone());
            }
            true
        });
        let mut best: Option<u64> = None;
        for_each_cut(comp, |cut| {
            if !faults.iter().any(|f| f.leq(cut)) {
                best = Some(best.unwrap_or(0).max(cut.size()));
            }
            true
        });
        best
    }

    #[test]
    fn clean_history_needs_no_rollback() {
        let comp = figure1();
        let x1 = comp.var(comp.process(0), "x1").unwrap();
        let spec = PredicateSpec::conjunctive(Conjunctive::new(vec![LocalPredicate::int(
            x1,
            "x1 > 99",
            |x| x > 99,
        )]));
        assert_eq!(
            recovery_line(&comp, &spec, 10_000),
            RecoveryLine::Clean {
                top: comp.top_cut()
            }
        );
    }

    #[test]
    fn lean_slice_line_matches_the_exhaustive_oracle() {
        let comp = figure1();
        let x1 = comp.var(comp.process(0), "x1").unwrap();
        let x3 = comp.var(comp.process(2), "x3").unwrap();
        let spec = PredicateSpec::conjunctive(Conjunctive::new(vec![
            LocalPredicate::int(x1, "x1 > 1", |x| x > 1),
            LocalPredicate::int(x3, "x3 <= 3", |x| x <= 3),
        ]));
        let line = recovery_line(&comp, &spec, 10_000);
        let RecoveryLine::Line { cut, method } = &line else {
            panic!("expected a line, got {line:?}");
        };
        assert_eq!(*method, LineMethod::SliceBottom);
        assert!(is_safe(&comp, &spec, cut));
        assert_eq!(Some(cut.size()), oracle_max_safe_size(&comp, &spec));
    }

    #[test]
    fn fault_at_the_bottom_is_unrecoverable() {
        let comp = figure1();
        let x1 = comp.var(comp.process(0), "x1").unwrap();
        // Satisfied by the initial state of p0 (x1 starts at 1 in the
        // fixture), so the bottom cut is already faulty.
        let spec = PredicateSpec::conjunctive(Conjunctive::new(vec![LocalPredicate::int(
            x1,
            "x1 >= 1",
            |x| x >= 1,
        )]));
        assert!(spec.eval(&GlobalState::new(&comp, &Cut::bottom(comp.num_processes()))));
        assert_eq!(
            recovery_line(&comp, &spec, 10_000),
            RecoveryLine::Unrecoverable
        );
    }

    #[test]
    fn injected_ps_faults_get_safe_maximal_lines() {
        let mut checked = 0;
        for seed in 0..12u64 {
            let cfg = SimConfig {
                seed,
                max_events_per_process: 7,
                ..SimConfig::default()
            };
            let comp = run(&mut PrimarySecondary::new(3), &cfg).unwrap();
            let Some((faulty, _)) = inject_primary_secondary_fault(&comp, seed) else {
                continue;
            };
            let spec = primary_secondary::violation_spec(&faulty);
            match recovery_line(&faulty, &spec, 1_000_000) {
                RecoveryLine::Line { cut, .. } => {
                    assert!(is_safe(&faulty, &spec, &cut), "seed {seed}: unsafe line");
                    checked += 1;
                }
                RecoveryLine::Clean { .. } => {
                    // The injection produced no consistent violating cut.
                    assert_eq!(
                        oracle_max_safe_size(&faulty, &spec),
                        Some(faulty.top_cut().size()),
                        "seed {seed}"
                    );
                }
                other => panic!("seed {seed}: unexpected {other:?}"),
            }
        }
        assert!(checked >= 2, "too few faulty scenarios exercised a line");
    }

    #[test]
    fn exhaustive_fallback_matches_oracle_and_respects_budget() {
        let comp = figure1();
        let x1 = comp.var(comp.process(0), "x1").unwrap();
        let x3 = comp.var(comp.process(2), "x3").unwrap();
        let spec = PredicateSpec::and(vec![
            PredicateSpec::conjunctive(Conjunctive::new(vec![LocalPredicate::int(
                x1,
                "x1 > 1",
                |x| x > 1,
            )])),
            PredicateSpec::conjunctive(Conjunctive::new(vec![LocalPredicate::int(
                x3,
                "x3 <= 3",
                |x| x <= 3,
            )])),
        ]);
        let exhaustive = recovery_line_exhaustive(&comp, &spec, 1_000_000);
        match &exhaustive {
            RecoveryLine::Line { cut, method } => {
                assert_eq!(*method, LineMethod::Exhaustive);
                assert!(is_safe(&comp, &spec, cut));
                assert_eq!(Some(cut.size()), oracle_max_safe_size(&comp, &spec));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            recovery_line_exhaustive(&comp, &spec, 2),
            RecoveryLine::Undetermined
        );
    }

    #[test]
    fn max_consistent_cut_below_is_maximal() {
        let comp = figure1();
        let top = comp.top_cut();
        let below_top = max_consistent_cut_below(&comp, &top);
        assert_eq!(below_top, top, "the top cut is consistent");
        // For every bound, the result is consistent, below the bound, and
        // no other consistent cut below the bound exceeds it.
        for counts in [[1u32, 2, 2], [2, 1, 3], [3, 3, 1]] {
            let bound = Cut::from(counts.to_vec());
            let m = max_consistent_cut_below(&comp, &bound);
            assert!(comp.is_consistent(&m));
            assert!(m.leq(&bound));
            for_each_cut(&comp, |cut| {
                if cut.leq(&bound) {
                    assert!(cut.leq(&m), "{cut} below {bound} but not below {m}");
                }
                true
            });
        }
    }
}
