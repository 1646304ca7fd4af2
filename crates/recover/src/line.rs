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
//!
//! When `W` is the lattice bottom the criterion rejects every cut, and
//! [`recovery_line_exhaustive`] walks the safe cuts themselves against
//! the exact predicate, layer by layer, never above a fault.

use slicing_computation::{Computation, Cut, CutSet, GlobalState, ProcessId};
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
    /// Level-order walk of the safe cuts against the exact predicate
    /// ([`recovery_line_exhaustive`]): always exact, and the first cut of
    /// maximum size in `for_each_cut` order. It evaluates every safe cut
    /// and the minimal fault cuts, up to the fallback's cut budget, and
    /// holds two layers of cuts at a time; exponential in the worst case.
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
    /// The slice criterion was inconclusive (a slice bottom at the
    /// lattice bottom) and the exhaustive fallback would have evaluated
    /// more cuts than its budget.
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
/// When the slice's bottom is the lattice bottom the criterion cannot
/// decide, and the exhaustive fallback [`recovery_line_exhaustive`] runs
/// under `fallback_max_cuts` (a bottom that is a fault itself is its
/// first evaluation).
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
    if *w == Cut::bottom(comp.num_processes()) {
        // ¬(W ≤ C) rejects every cut, so only the exact walk can answer.
        // For a lean slice W itself is a fault cut: the walk's first
        // evaluation, at the bottom, finds the run unrecoverable.
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

/// Exact recovery line by a level-order walk of the *safe ideal*: the
/// down-set of cuts with no fault cut at or below them.
///
/// Layer `k + 1`'s candidates are the one-event advances of layer `k`'s
/// safe cuts, each counted once per safe cut that reaches it. A cut is
/// safe iff every cut one event below it is safe and it is no fault
/// itself, so the spec is evaluated only at candidates reached from each
/// of their consistent lower covers: the walk evaluates the safe cuts and
/// the minimal fault cuts, never an unsafe cut above those, and holds two
/// layers at a time. It stops at the first layer with no safe cut and
/// returns the first safe cut of the layer before, which is the first
/// cut of maximum size in [`for_each_cut`] order: [`RecoveryLine::Clean`]
/// when that cut is the top, [`RecoveryLine::Unrecoverable`] when the
/// bottom is a fault. Exponential in the worst case: `max_cuts` bounds
/// the cuts evaluated, and the walk answers
/// [`RecoveryLine::Undetermined`] (bumping `recover.fallback_exhausted`)
/// rather than evaluate one more. Every call adds the cuts it evaluated
/// to the `recover.line.cuts` counter.
///
/// [`for_each_cut`]: slicing_computation::lattice::for_each_cut
pub fn recovery_line_exhaustive(
    comp: &Computation,
    spec: &PredicateSpec,
    max_cuts: u64,
) -> RecoveryLine {
    let _span = slicing_observe::span("recover.line_exhaustive");
    let mut evaluated = 0u64;
    let line = walk_safe_ideal(comp, spec, max_cuts, &mut evaluated);
    slicing_observe::counter("recover.line.cuts", evaluated);
    if line == RecoveryLine::Undetermined {
        slicing_observe::counter("recover.fallback_exhausted", 1);
    }
    line
}

/// The walk behind [`recovery_line_exhaustive`]; counts the cuts it
/// evaluates in `evaluated`.
fn walk_safe_ideal(
    comp: &Computation,
    spec: &PredicateSpec,
    max_cuts: u64,
    evaluated: &mut u64,
) -> RecoveryLine {
    let n = comp.num_processes();
    let mut state = Cut::bottom(n);
    // `Some(true)` when the cut with these counts is a fault, `None` once
    // the budget is spent.
    let mut is_fault = |counts: &[u32]| {
        if *evaluated == max_cuts {
            return None;
        }
        *evaluated += 1;
        state.copy_from_counts(counts);
        Some(spec.eval(&GlobalState::new(comp, &state)))
    };
    // The layer walked and the one under construction, one arena each.
    // `safe` holds the walked layer's safe cuts by arena index, in
    // discovery order; `reached[j]` counts the safe cuts advancing to the
    // candidate at index `j`.
    let mut layer = CutSet::new(n);
    let mut next = CutSet::new(n);
    let (mut safe, mut next_safe) = (vec![0u32], Vec::new());
    let mut reached: Vec<u32> = Vec::new();
    let mut pinned = vec![false; n];
    let mut succ = Cut::bottom(n);
    layer.insert_indexed(&succ);
    match is_fault(succ.counts()) {
        None => return RecoveryLine::Undetermined,
        Some(true) => return RecoveryLine::Unrecoverable,
        Some(false) => {}
    }
    loop {
        next.reset();
        reached.clear();
        for &i in &safe {
            let counts = layer.counts_at(i);
            succ.copy_from_counts(counts);
            for (p, &c) in counts.iter().enumerate() {
                if !enabled(comp, counts, p) {
                    continue;
                }
                let p = ProcessId::new(p);
                succ.set_count(p, c + 1);
                if next.insert_indexed(&succ).is_some() {
                    reached.push(1);
                } else {
                    // A refused insert that is no duplicate means the
                    // arena is full: give up as over budget.
                    let Some(j) = next.get_index(succ.counts()) else {
                        return RecoveryLine::Undetermined;
                    };
                    reached[j as usize] += 1;
                }
                succ.set_count(p, c);
            }
        }
        next_safe.clear();
        for j in 0..next.len() as u32 {
            let counts = next.counts_at(j);
            if reached[j as usize] != lower_covers(comp, counts, &mut pinned) {
                continue; // some cut one event below is unsafe
            }
            match is_fault(counts) {
                None => return RecoveryLine::Undetermined,
                Some(true) => {}
                Some(false) => next_safe.push(j),
            }
        }
        if next_safe.is_empty() {
            break;
        }
        std::mem::swap(&mut layer, &mut next);
        std::mem::swap(&mut safe, &mut next_safe);
    }
    let cut = Cut::from_counts(layer.counts_at(safe[0]));
    if cut == comp.top_cut() {
        RecoveryLine::Clean { top: cut }
    } else {
        RecoveryLine::Line {
            cut,
            method: LineMethod::Exhaustive,
        }
    }
}

/// Whether process `p`'s next event after the cut with `counts` exists
/// and has its causal past inside the cut: [`Computation::can_advance`]
/// read straight off the count slices.
#[inline]
fn enabled(comp: &Computation, counts: &[u32], p: usize) -> bool {
    let pid = ProcessId::new(p);
    counts[p] < comp.len(pid)
        && comp
            .min_cut(comp.event_at(pid, counts[p]))
            .counts()
            .iter()
            .zip(counts)
            .enumerate()
            .all(|(q, (need, have))| q == p || need <= have)
}

/// The number of consistent cuts one event below the cut with `counts`:
/// the processes past their initial event whose frontier event no other
/// frontier event has in its causal past. `pinned` is scratch, one flag
/// per process.
#[inline]
fn lower_covers(comp: &Computation, counts: &[u32], pinned: &mut [bool]) -> u32 {
    pinned.fill(false);
    for (q, &c) in counts.iter().enumerate() {
        let clock = comp.min_cut(comp.event_at(ProcessId::new(q), c - 1));
        for (p, (&at, &have)) in clock.counts().iter().zip(counts).enumerate() {
            pinned[p] |= p != q && at == have;
        }
    }
    counts
        .iter()
        .zip(pinned.iter())
        .filter(|&(&c, &pin)| c > 1 && !pin)
        .count() as u32
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use slicing_computation::lattice::{count_cuts, for_each_cut};
    use slicing_computation::test_fixtures::figure1;
    use slicing_observe::{Level, MemoryRecorder};
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
        let spec = figure1_and_spec(&comp);
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

    /// `recovery_line_exhaustive` under a recorder: the line and the
    /// `recover.line.cuts` it counted.
    fn walk(comp: &Computation, spec: &PredicateSpec, max_cuts: u64) -> (RecoveryLine, u64) {
        let rec = Arc::new(MemoryRecorder::new(Level::Trace));
        let line = {
            let _guard = slicing_observe::scoped(rec.clone());
            recovery_line_exhaustive(comp, spec, max_cuts)
        };
        (line, rec.counter_total("recover.line.cuts"))
    }

    /// Figure 1's `x1 > 1 ∧ x3 <= 3` as an `And` of two conjunctive
    /// leaves, whose slice is approximate.
    fn figure1_and_spec(comp: &Computation) -> PredicateSpec {
        let x1 = comp.var(comp.process(0), "x1").unwrap();
        let x3 = comp.var(comp.process(2), "x3").unwrap();
        PredicateSpec::and(vec![
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
        ])
    }

    #[test]
    fn fault_free_walk_evaluates_every_cut() {
        let comp = figure1();
        let x1 = comp.var(comp.process(0), "x1").unwrap();
        let never = PredicateSpec::conjunctive(Conjunctive::new(vec![LocalPredicate::int(
            x1,
            "x1 > 99",
            |x| x > 99,
        )]));
        let (line, evaluated) = walk(&comp, &never, u64::MAX);
        assert_eq!(
            line,
            RecoveryLine::Clean {
                top: comp.top_cut()
            }
        );
        assert_eq!(evaluated, count_cuts(&comp, None).value());
    }

    #[test]
    fn walk_is_undetermined_exactly_below_its_evaluated_count() {
        let comp = figure1();
        let spec = figure1_and_spec(&comp);
        let (line, evaluated) = walk(&comp, &spec, u64::MAX);
        assert!(matches!(line, RecoveryLine::Line { .. }), "{line:?}");
        // Safe cuts and minimal fault cuts only: nothing above a fault.
        assert_eq!((evaluated, count_cuts(&comp, None).value()), (9, 28));
        for budget in 0..=evaluated + 1 {
            let (got, counted) = walk(&comp, &spec, budget);
            if budget < evaluated {
                assert_eq!(got, RecoveryLine::Undetermined, "budget {budget}");
                assert_eq!(counted, budget, "an exhausted walk spends its budget");
            } else {
                assert_eq!(got, line, "budget {budget}");
                assert_eq!(counted, evaluated, "budget {budget}");
            }
        }
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
