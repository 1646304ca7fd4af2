//! The hybrid strategy from the paper's Section 5.1 conclusion: "to get
//! the best of both worlds, predicate detection can be first done using
//! the partial-order methods approach. In case it turns out that the
//! approach is using too much memory … it can be aborted and the
//! computation slicing approach can then be used."

use slicing_computation::Computation;
use slicing_core::PredicateSpec;
use slicing_observe::Level;

use crate::metrics::Limits;
use crate::pom::detect_pom;
use crate::resilient::SpecPredicate;
use crate::slicing::{detect_with_slicing, SliceDetection};

/// Which engine produced the final verdict of a hybrid run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HybridPhase {
    /// Partial-order methods finished within budget.
    PartialOrder,
    /// The baseline hit its memory budget and slicing took over.
    Slicing,
}

/// The outcome of a hybrid detection run.
#[derive(Debug, Clone)]
pub struct HybridDetection {
    /// Which phase answered.
    pub phase: HybridPhase,
    /// The partial-order attempt (always present; aborted when `phase` is
    /// [`HybridPhase::Slicing`]).
    pub pom: crate::Detection,
    /// The slicing run, when the fallback fired.
    pub slicing: Option<SliceDetection>,
}

impl HybridDetection {
    /// `true` if a violating cut was found (by either phase).
    pub fn detected(&self) -> bool {
        match self.phase {
            HybridPhase::PartialOrder => self.pom.detected(),
            HybridPhase::Slicing => self.slicing.as_ref().is_some_and(SliceDetection::detected),
        }
    }

    /// The witness cut, if any.
    pub fn found(&self) -> Option<&slicing_computation::Cut> {
        match self.phase {
            HybridPhase::PartialOrder => self.pom.found.as_ref(),
            HybridPhase::Slicing => self.slicing.as_ref().and_then(|s| s.search.found.as_ref()),
        }
    }

    /// Total wall-clock time across phases.
    pub fn total_elapsed(&self) -> std::time::Duration {
        self.pom.elapsed
            + self
                .slicing
                .as_ref()
                .map(SliceDetection::total_elapsed)
                .unwrap_or_default()
    }
}

/// Detects `possibly: spec` with the paper's hybrid strategy: run the
/// partial-order-methods baseline under `pom_budget_bytes` of tracked
/// memory (the paper suggests "`c·n·|E|` for some small constant `c`");
/// if it exceeds the budget, abort it and fall back to slice-then-search
/// under `limits`.
pub fn detect_hybrid(
    comp: &Computation,
    spec: &PredicateSpec,
    pom_budget_bytes: u64,
    limits: &Limits,
) -> HybridDetection {
    let _span = slicing_observe::span("detect.hybrid");
    let pom_limits = Limits {
        max_bytes: Some(pom_budget_bytes.min(limits.max_bytes.unwrap_or(u64::MAX))),
        ..*limits
    };
    let mut pom = detect_pom(comp, &SpecPredicate(spec), &pom_limits);
    if pom.completed() {
        pom.phases = vec![("pom".to_owned(), pom.elapsed)];
        return HybridDetection {
            phase: HybridPhase::PartialOrder,
            pom,
            slicing: None,
        };
    }
    slicing_observe::counter("detect.hybrid.switch_over", 1);
    slicing_observe::message(Level::Info, || {
        format!(
            "hybrid: partial-order aborted ({}) after {} cuts; switching to slicing",
            pom.aborted.map(|r| r.to_string()).unwrap_or_default(),
            pom.cuts_explored,
        )
    });
    let mut slicing = detect_with_slicing(comp, spec, limits);
    let mut phases = vec![("pom".to_owned(), pom.elapsed)];
    phases.append(&mut slicing.search.phases);
    slicing.search.phases = phases.clone();
    pom.phases = phases;
    HybridDetection {
        phase: HybridPhase::Slicing,
        pom,
        slicing: Some(slicing),
    }
}

/// The paper's suggested budget: a small multiple of `n·|E|` cut-entries.
pub fn suggested_pom_budget(comp: &Computation, c: u64) -> u64 {
    let per_cut = crate::metrics::Tracker::hash_entry_bytes(comp.num_processes());
    c * comp.num_events() as u64 * per_cut
}

#[cfg(test)]
mod tests {
    use super::*;
    use slicing_computation::test_fixtures::figure1;
    use slicing_computation::GlobalState;
    use slicing_predicates::{Conjunctive, LocalPredicate};
    use slicing_sim::primary_secondary::{self, PrimarySecondary};
    use slicing_sim::{run, SimConfig};

    fn figure1_spec(comp: &slicing_computation::Computation) -> PredicateSpec {
        let x1 = comp.var(comp.process(0), "x1").unwrap();
        let x3 = comp.var(comp.process(2), "x3").unwrap();
        PredicateSpec::conjunctive(Conjunctive::new(vec![
            LocalPredicate::int(x1, "x1 > 1", |x| x > 1),
            LocalPredicate::int(x3, "x3 <= 3", |x| x <= 3),
        ]))
    }

    #[test]
    fn pom_answers_within_generous_budget() {
        let comp = figure1();
        let spec = figure1_spec(&comp);
        let h = detect_hybrid(&comp, &spec, 1 << 20, &Limits::none());
        assert_eq!(h.phase, HybridPhase::PartialOrder);
        assert!(h.detected());
        assert!(h.slicing.is_none());
        let cut = h.found().unwrap();
        assert!(spec.eval(&GlobalState::new(&comp, cut)));
    }

    #[test]
    fn tight_budget_falls_back_to_slicing() {
        // Fault-free protocol run: POM must sweep a large space; a tiny
        // budget forces the fallback, and slicing still answers correctly.
        let cfg = SimConfig {
            seed: 3,
            max_events_per_process: 10,
            ..SimConfig::default()
        };
        let comp = run(&mut PrimarySecondary::new(4), &cfg).unwrap();
        let spec = primary_secondary::violation_spec(&comp);
        let h = detect_hybrid(&comp, &spec, 512, &Limits::none());
        assert_eq!(h.phase, HybridPhase::Slicing);
        assert!(!h.pom.completed());
        assert!(!h.detected(), "fault-free run must stay clean");
        assert!(h.total_elapsed() >= h.pom.elapsed);
    }

    #[test]
    fn hybrid_agrees_with_slicing_on_faulty_runs() {
        use slicing_sim::fault::inject_primary_secondary_fault;
        let cfg = SimConfig {
            seed: 8,
            max_events_per_process: 8,
            ..SimConfig::default()
        };
        let comp = run(&mut PrimarySecondary::new(3), &cfg).unwrap();
        let (faulty, _) = inject_primary_secondary_fault(&comp, 4).unwrap();
        let spec = primary_secondary::violation_spec(&faulty);
        for budget in [256u64, 1 << 24] {
            let h = detect_hybrid(&faulty, &spec, budget, &Limits::none());
            let direct = detect_with_slicing(&faulty, &spec, &Limits::none());
            assert_eq!(h.detected(), direct.detected(), "budget {budget}");
        }
    }

    #[test]
    fn suggested_budget_scales_with_size() {
        let comp = figure1();
        let small = suggested_pom_budget(&comp, 1);
        let big = suggested_pom_budget(&comp, 10);
        assert_eq!(big, 10 * small);
        assert!(small > 0);
    }
}
