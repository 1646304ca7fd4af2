//! Test oracle for the exhaustive recovery line: two full passes over the
//! lattice, the first collecting the minimal fault cuts, the second
//! keeping the first cut of maximum size that dominates none of them.
//! `recovery_line_exhaustive` must return exactly this line. Shared by
//! the recover proptests and the bench crate's zoo differential.

use slicing_computation::lattice::for_each_cut;
use slicing_computation::{Computation, Cut, GlobalState};
use slicing_core::PredicateSpec;
use slicing_recover::{LineMethod, RecoveryLine};

/// The exact recovery line of `comp` for `spec`, by two unbounded passes
/// of `for_each_cut`; ties in size go to the cut visited first.
pub fn two_pass_line(comp: &Computation, spec: &PredicateSpec) -> RecoveryLine {
    let mut fault_min: Vec<Cut> = Vec::new();
    for_each_cut(comp, |cut| {
        if spec.eval(&GlobalState::new(comp, cut)) && !fault_min.iter().any(|f| f.leq(cut)) {
            fault_min.retain(|f| !cut.leq(f));
            fault_min.push(cut.clone());
        }
        true
    });
    if fault_min.is_empty() {
        return RecoveryLine::Clean {
            top: comp.top_cut(),
        };
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
