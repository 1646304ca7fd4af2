//! Slice-then-search: the paper's approach to detecting global faults.

use std::time::{Duration, Instant};

use slicing_computation::{Computation, Cut};
use slicing_core::{PredicateSpec, Slice};

use crate::enumerate::detect_bfs;
use crate::metrics::{AbortReason, Detection, Limits};
use crate::resilient::SpecPredicate;

/// The outcome of slice-based detection: slicing cost plus the (usually
/// tiny) residual search.
#[derive(Debug, Clone)]
pub struct SliceDetection {
    /// Time spent computing the slice.
    pub slicing_elapsed: Duration,
    /// Tracked bytes of the slice's tables and edges.
    pub slice_bytes: u64,
    /// The slice's least cut, `None` when the slice is empty. Every cut
    /// satisfying the predicate lies above it, which is all a recovery
    /// line needs of the slice.
    pub slice_bottom: Option<Cut>,
    /// Number of non-trivial consistent cuts the slice was *observed* to
    /// have during the search (`cuts_explored` of the residual search).
    pub search: Detection,
}

impl SliceDetection {
    /// Total time: slicing plus searching (the paper's time metric
    /// includes "the overhead of computing the slice").
    pub fn total_elapsed(&self) -> Duration {
        self.slicing_elapsed + self.search.elapsed
    }

    /// Peak tracked bytes: slice storage plus search structures (the
    /// paper's memory metric likewise includes the slice).
    pub fn total_peak_bytes(&self) -> u64 {
        self.slice_bytes + self.search.peak_bytes
    }

    /// `true` if the predicate was detected.
    pub fn detected(&self) -> bool {
        self.search.detected()
    }
}

/// Detects `possibly: spec` by computing the (possibly approximate) slice
/// for `spec` and then searching only the slice's consistent cuts,
/// evaluating the *exact* predicate at each one.
///
/// Soundness: the slice contains every satisfying cut, so this detects the
/// predicate iff a satisfying cut exists. When the slice is empty the
/// search is free — the paper's fault-free scenarios hit exactly this
/// path.
pub fn detect_with_slicing(
    comp: &Computation,
    spec: &PredicateSpec,
    limits: &Limits,
) -> SliceDetection {
    let _span = slicing_observe::span("detect.slice_then_search");
    // The slicing phase evaluates spec-derived local closures that absorb
    // runtime type errors as `false` (counted, not panicking); watch the
    // counter so a fault-free verdict over a malformed trace is downgraded
    // rather than trusted.
    let errors_before = slicing_predicates::eval_type_errors();
    let t0 = Instant::now();
    let slice = {
        let _span = slicing_observe::span("detect.slice_phase");
        spec.slice(comp)
    };
    let slicing_elapsed = t0.elapsed();
    let mut outcome = detect_on_slice(comp, &slice, spec, slicing_elapsed, limits);
    downgrade_on_eval_errors(&mut outcome.search, errors_before);
    outcome
}

/// Downgrades a "not detected" verdict to a [`AbortReason::PredicateError`]
/// abort when predicate evaluation tripped type errors during the run: the
/// `false`s those evaluations produced cannot support a clean sweep. A
/// found witness is left untouched — it satisfied the predicate for real.
fn downgrade_on_eval_errors(search: &mut Detection, errors_before: u64) {
    if search.aborted.is_none()
        && !search.detected()
        && slicing_predicates::eval_type_errors() > errors_before
    {
        search.aborted = Some(AbortReason::PredicateError);
    }
}

/// Variant of [`detect_with_slicing`] for a precomputed slice (e.g. one
/// built on an [`OnlineSlicer`](slicing_core::OnlineSlicer) snapshot). The
/// given `slicing_elapsed` is carried into the result.
pub fn detect_on_slice(
    comp: &Computation,
    slice: &Slice<'_>,
    spec: &PredicateSpec,
    slicing_elapsed: Duration,
    limits: &Limits,
) -> SliceDetection {
    let errors_before = slicing_predicates::eval_type_errors();
    let mut search = {
        let _span = slicing_observe::span("detect.search_phase");
        // The residual search walks the slice by meta-event rank and keeps
        // two adjacent layers live: the slice's widest layer pair, not the
        // whole slice, bounds its memory.
        detect_bfs(slice, comp, &SpecPredicate::new(spec), limits)
    };
    downgrade_on_eval_errors(&mut search, errors_before);
    search.phases = vec![
        ("slice".to_owned(), slicing_elapsed),
        ("search".to_owned(), search.elapsed),
    ];
    SliceDetection {
        slicing_elapsed,
        slice_bytes: slice.approx_bytes() as u64,
        slice_bottom: slice.bottom_cut().cloned(),
        search,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slicing_computation::oracle::satisfying_cuts;
    use slicing_computation::test_fixtures::{figure1, random_computation, RandomConfig};
    use slicing_computation::GlobalState;
    use slicing_predicates::{Conjunctive, KLocalPredicate, LocalPredicate};

    fn figure1_spec(comp: &Computation) -> PredicateSpec {
        let x1 = comp.var(comp.process(0), "x1").unwrap();
        let x3 = comp.var(comp.process(2), "x3").unwrap();
        PredicateSpec::conjunctive(Conjunctive::new(vec![
            LocalPredicate::int(x1, "x1 > 1", |x| x > 1),
            LocalPredicate::int(x3, "x3 <= 3", |x| x <= 3),
        ]))
    }

    #[test]
    fn figure1_needs_at_most_six_cuts() {
        let comp = figure1();
        let spec = figure1_spec(&comp);
        let d = detect_with_slicing(&comp, &spec, &Limits::none());
        assert!(d.detected());
        assert!(d.search.cuts_explored <= 6);
        assert!(d.total_elapsed() >= d.search.elapsed);
        assert!(d.total_peak_bytes() >= d.slice_bytes);
    }

    #[test]
    fn empty_slice_detects_nothing_for_free() {
        let comp = figure1();
        let x1 = comp.var(comp.process(0), "x1").unwrap();
        let spec = PredicateSpec::conjunctive(Conjunctive::new(vec![LocalPredicate::int(
            x1,
            "x1 > 99",
            |x| x > 99,
        )]));
        let d = detect_with_slicing(&comp, &spec, &Limits::none());
        assert!(!d.detected());
        assert_eq!(d.search.cuts_explored, 0);
    }

    #[test]
    fn agrees_with_direct_search_on_random_klocal_trees() {
        let cfg = RandomConfig {
            processes: 3,
            events_per_process: 3,
            value_range: 3,
            ..RandomConfig::default()
        };
        for seed in 0..25 {
            let comp = random_computation(seed, &cfg);
            let x0 = comp.var(comp.process(0), "x").unwrap();
            let x1 = comp.var(comp.process(1), "x").unwrap();
            let x2 = comp.var(comp.process(2), "x").unwrap();
            let t = (seed % 4) as i64;
            // (x0 != x1) ∧ (x2 >= t): a k-local leaf and a conjunctive
            // leaf — the Section 5 composition.
            let spec = PredicateSpec::and(vec![
                PredicateSpec::klocal(KLocalPredicate::new(vec![x0, x1], "x0 != x1", |v| {
                    v[0] != v[1]
                })),
                PredicateSpec::conjunctive(Conjunctive::new(vec![LocalPredicate::int(
                    x2,
                    format!("x >= {t}"),
                    move |v| v >= t,
                )])),
            ]);
            let d = detect_with_slicing(&comp, &spec, &Limits::none());
            let oracle = !satisfying_cuts(&comp, |st| spec.eval(st)).is_empty();
            assert_eq!(d.detected(), oracle, "seed {seed}");
            if let Some(cut) = &d.search.found {
                assert!(spec.eval(&GlobalState::new(&comp, cut)), "seed {seed}");
            }
        }
    }

    #[test]
    fn detect_on_precomputed_slice() {
        let comp = figure1();
        let spec = figure1_spec(&comp);
        let slice = spec.slice(&comp);
        let d = detect_on_slice(&comp, &slice, &spec, Duration::ZERO, &Limits::none());
        assert!(d.detected());
        assert_eq!(d.slicing_elapsed, Duration::ZERO);
    }
}
