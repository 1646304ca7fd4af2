//! Differential-test harness shared by the engine test suites.
//!
//! Every detection engine in this crate answers the same question —
//! `possibly: spec` — so they can all be checked the same way: against the
//! brute-force lattice oracle
//! ([`satisfying_cuts`]) on a
//! common corpus of cases. [`check_engine`] runs one engine on one
//! [`Case`] and asserts the invariants every engine must uphold;
//! [`engine_matrix!`](crate::engine_matrix) stamps out one `#[test]` per
//! engine over a case-producing function, so adding a corpus locks **all**
//! engines to the oracle at once. [`reference_bfs`] is the second oracle:
//! a plain global-visited BFS that the level-order engine must match
//! witness for witness and counter for counter.

use std::collections::{HashSet, VecDeque};

use slicing_computation::oracle::satisfying_cuts;
use slicing_computation::{Computation, Cut, CutSpace, GlobalState};
use slicing_core::PredicateSpec;
use slicing_predicates::Predicate;

use crate::metrics::Limits;
use crate::resilient::Engine;

/// One differential test case: a computation, a specification to detect,
/// and a tag naming the case in assertion messages.
#[derive(Debug)]
pub struct Case {
    /// Label shown in failure messages (e.g. `"figure1"`, `"seed 7"`).
    pub tag: String,
    /// The computation to search.
    pub comp: Computation,
    /// The specification whose `possibly:` verdict is checked.
    pub spec: PredicateSpec,
}

impl Case {
    /// Builds a case.
    pub fn new(tag: impl Into<String>, comp: Computation, spec: PredicateSpec) -> Self {
        Case {
            tag: tag.into(),
            comp,
            spec,
        }
    }
}

pub use crate::resilient::SpecPredicate;

/// The engine names [`check_engine`] understands — the rows of the
/// differential matrix, each an [`Engine`] registry name.
pub const ENGINES: [&str; 4] = ["bfs", "pom", "slicing", "hybrid"];

/// Runs the named engine on `case` (unlimited budget) through the
/// [`Engine`] registry and asserts the contract every engine shares:
///
/// - the verdict equals the brute-force oracle's;
/// - a returned witness satisfies the spec and is a consistent cut;
/// - the level-order engine (`bfs`) returns a witness of *minimum size*
///   among all satisfying cuts.
///
/// # Panics
///
/// Panics on any violated invariant, and on a name the registry does not
/// know.
pub fn check_engine(name: &str, case: &Case) {
    let Case { tag, comp, spec } = case;
    let engine: Engine = name
        .parse()
        .unwrap_or_else(|e| panic!("unknown engine {name:?}: {e}"));
    let detection = engine.detect(comp, &SpecPredicate::new(spec), spec, &Limits::none());
    assert!(
        detection.completed(),
        "[{tag}] {name}: aborted under no limits: {:?}",
        detection.aborted
    );

    let oracle = satisfying_cuts(comp, |st| spec.eval(st));
    assert_eq!(
        detection.detected(),
        !oracle.is_empty(),
        "[{tag}] {name}: verdict disagrees with the lattice oracle"
    );
    if let Some(witness) = &detection.found {
        assert!(
            spec.eval(&GlobalState::new(comp, witness)),
            "[{tag}] {name}: witness {witness} does not satisfy the spec"
        );
        assert!(
            comp.is_consistent(witness),
            "[{tag}] {name}: witness {witness} is not a consistent cut"
        );
        if engine == Engine::Bfs {
            let min_size = oracle.iter().map(Cut::size).min().expect("non-empty");
            assert_eq!(
                witness.size(),
                min_size,
                "[{tag}] {name}: level-order engine returned a non-minimal witness"
            );
        }
    }
}

/// What [`reference_bfs`] saw: the first satisfying cut in level order,
/// the cuts evaluated up to it, and the visited-set traffic — successors
/// already seen (`hits`) and cuts admitted (`inserts`, the bottom
/// included).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReferenceRun {
    /// The witness, if any cut satisfies the predicate.
    pub found: Option<Cut>,
    /// Cuts whose predicate value was evaluated.
    pub cuts_explored: u64,
    /// Successors that were already in the visited set.
    pub hits: u64,
    /// Cuts admitted to the visited set.
    pub inserts: u64,
}

/// The oracle for [`detect_bfs`](crate::detect_bfs): a global-visited
/// breadth-first search written for clarity, not speed — a FIFO queue of
/// cuts and a `HashSet<Vec<u32>>` of every cut seen. The engine must
/// reproduce its witness, explored count, hits and inserts exactly.
pub fn reference_bfs<S: CutSpace + ?Sized, P: Predicate + ?Sized>(
    space: &S,
    comp: &Computation,
    pred: &P,
) -> ReferenceRun {
    let mut run = ReferenceRun {
        found: None,
        cuts_explored: 0,
        hits: 0,
        inserts: 0,
    };
    let Some(bottom) = space.bottom() else {
        return run;
    };
    let mut visited: HashSet<Vec<u32>> = HashSet::from([bottom.counts().to_vec()]);
    let mut queue = VecDeque::from([bottom]);
    run.inserts = 1;
    while let Some(cut) = queue.pop_front() {
        run.cuts_explored += 1;
        if pred.eval(&GlobalState::new(comp, &cut)) {
            run.found = Some(cut);
            break;
        }
        space.for_each_successor(&cut, &mut |next| {
            if visited.insert(next.counts().to_vec()) {
                run.inserts += 1;
                queue.push_back(next.clone());
            } else {
                run.hits += 1;
            }
        });
    }
    run
}

/// Stamps out one `#[test]` per detection engine, each running
/// [`check_engine`](crate::testkit::check_engine) over every [`Case`]
/// (`crate::testkit::Case`) returned by the given function:
///
/// ```
/// use slicing_detect::{engine_matrix, testkit::Case};
/// use slicing_computation::test_fixtures::figure1;
/// use slicing_core::PredicateSpec;
/// use slicing_predicates::{Conjunctive, LocalPredicate};
///
/// fn cases() -> Vec<Case> {
///     let comp = figure1();
///     let x1 = comp.var(comp.process(0), "x1").unwrap();
///     let spec = PredicateSpec::conjunctive(Conjunctive::new(vec![
///         LocalPredicate::int(x1, "x1 > 1", |x| x > 1),
///     ]));
///     vec![Case::new("figure1", comp, spec)]
/// }
///
/// mod matrix {
///     slicing_detect::engine_matrix!(super::cases);
/// }
/// # fn main() { assert_eq!(cases().len(), 1); }
/// ```
///
/// The generated test names are the engine names (`bfs`, `pom`,
/// `slicing`, `hybrid`), so a failing row is visible directly in the test
/// report.
#[macro_export]
macro_rules! engine_matrix {
    ($case_fn:path) => {
        $crate::engine_matrix!(
            @tests $case_fn, bfs pom slicing hybrid
        );
    };
    (@tests $case_fn:path, $($engine:ident)+) => {
        $(
            #[test]
            pub fn $engine() {
                for case in $case_fn() {
                    $crate::testkit::check_engine(stringify!($engine), &case);
                }
            }
        )+
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use slicing_computation::test_fixtures::figure1;
    use slicing_predicates::{Conjunctive, LocalPredicate};

    fn figure1_case(detectable: bool) -> Case {
        let comp = figure1();
        let x1 = comp.var(comp.process(0), "x1").unwrap();
        let threshold = if detectable { 1 } else { 99 };
        let spec = PredicateSpec::conjunctive(Conjunctive::new(vec![LocalPredicate::int(
            x1,
            "x1 > t",
            move |x| x > threshold,
        )]));
        Case::new(format!("figure1 t{threshold}"), comp, spec)
    }

    #[test]
    fn every_engine_passes_on_the_paper_fixture() {
        for detectable in [true, false] {
            let case = figure1_case(detectable);
            for engine in ENGINES {
                check_engine(engine, &case);
            }
        }
    }

    #[test]
    #[should_panic(expected = "unknown engine")]
    fn unknown_engine_is_rejected() {
        check_engine("quantum", &figure1_case(true));
    }
}
