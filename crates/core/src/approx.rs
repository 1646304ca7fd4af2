//! Approximate slicing for boolean combinations of sliceable predicates
//! (Section 5).

use std::fmt;
use std::sync::Arc;

use slicing_computation::{Computation, GlobalState, ProcSet};
use slicing_predicates::{
    Conjunctive, KLocalPredicate, LinearPredicate, PostLinearPredicate, Predicate, RegularPredicate,
};

use crate::conjunctive::{meet_conjunctive_rows, push_conjunctive_edges};
use crate::coregular::meet_co_regular_rows;
use crate::graft::{push_conjunction_edges, push_disjunction_edges, LeastCuts};
use crate::klocal::meet_klocal_rows;
use crate::linear::{meet_linear_rows, push_linear_edges, push_regular_edges};
use crate::postlinear::push_postlinear_edges;
use crate::slice::{Edge, Slice};

/// A predicate built from sliceable leaves with `∧` and `∨` — the class
/// for which Section 5 computes an approximate slice in polynomial time:
/// conjunctive, regular, co-regular, linear, post-linear, and k-local
/// predicates, composed with conjunction and disjunction.
///
/// [`PredicateSpec::slice`] walks the parse tree bottom-up: each leaf is
/// sliced with the algorithm matching its class, and every interior node
/// grafts its children's slices. The result always **contains** every
/// satisfying cut (soundness); it is exact when the tree is a single
/// regular/conjunctive leaf, and an over-approximation otherwise — still
/// typically far smaller than the computation.
///
/// # Examples
///
/// ```
/// use slicing_computation::test_fixtures::figure1;
/// use slicing_predicates::{Conjunctive, LocalPredicate};
/// use slicing_core::PredicateSpec;
///
/// let comp = figure1();
/// let x1 = comp.var(comp.process(0), "x1").unwrap();
/// let x2 = comp.var(comp.process(1), "x2").unwrap();
/// // (x1 > 1) ∨ (x2 == 4), each disjunct conjunctive.
/// let spec = PredicateSpec::or(vec![
///     PredicateSpec::conjunctive(Conjunctive::new(vec![
///         LocalPredicate::int(x1, "x1 > 1", |x| x > 1),
///     ])),
///     PredicateSpec::conjunctive(Conjunctive::new(vec![
///         LocalPredicate::int(x2, "x2 == 4", |x| x == 4),
///     ])),
/// ]);
/// let slice = spec.slice(&comp);
/// assert!(!slice.is_empty_slice());
/// ```
pub enum PredicateSpec {
    /// A conjunction of local predicates — sliced in `O(|E|)`.
    Conjunctive(Conjunctive),
    /// A regular predicate — lean slice in `O(n²|E|)`.
    Regular(Arc<dyn RegularPredicate>),
    /// The complement of a regular predicate — `O(nk|E|²)`.
    CoRegular(Arc<dyn RegularPredicate>),
    /// A linear predicate — smallest containing sublattice in `O(n²|E|)`.
    Linear(Arc<dyn LinearPredicate>),
    /// A post-linear predicate — dual of linear.
    PostLinear(Arc<dyn PostLinearPredicate>),
    /// A k-local predicate — DNF transform, `O(n·m^(k-1)·|E|)`.
    KLocal(KLocalPredicate),
    /// Conjunction of sub-specifications (conjunction grafting).
    And(Vec<PredicateSpec>),
    /// Disjunction of sub-specifications (disjunction grafting).
    Or(Vec<PredicateSpec>),
}

impl PredicateSpec {
    /// Leaf constructor for a conjunctive predicate.
    pub fn conjunctive(p: Conjunctive) -> Self {
        PredicateSpec::Conjunctive(p)
    }

    /// Leaf constructor for a regular predicate.
    pub fn regular(p: impl RegularPredicate + 'static) -> Self {
        PredicateSpec::Regular(Arc::new(p))
    }

    /// Leaf constructor for the complement of a regular predicate.
    pub fn not_regular(p: impl RegularPredicate + 'static) -> Self {
        PredicateSpec::CoRegular(Arc::new(p))
    }

    /// Leaf constructor for a linear predicate.
    pub fn linear(p: impl LinearPredicate + 'static) -> Self {
        PredicateSpec::Linear(Arc::new(p))
    }

    /// Leaf constructor for a post-linear predicate.
    pub fn post_linear(p: impl PostLinearPredicate + 'static) -> Self {
        PredicateSpec::PostLinear(Arc::new(p))
    }

    /// Leaf constructor for a k-local predicate.
    pub fn klocal(p: KLocalPredicate) -> Self {
        PredicateSpec::KLocal(p)
    }

    /// Interior conjunction.
    pub fn and(children: Vec<PredicateSpec>) -> Self {
        PredicateSpec::And(children)
    }

    /// Interior disjunction.
    pub fn or(children: Vec<PredicateSpec>) -> Self {
        PredicateSpec::Or(children)
    }

    /// Computes the (possibly approximate) slice for the whole tree.
    ///
    /// Each node hands its parent only what the parent's graft reads:
    ///
    /// - under an `And` (and at the root), a node gives its constraint
    ///   edges, and the `And` concatenates them;
    /// - under an `Or`, a node gives its least-cut rows `J(e)`, and the
    ///   `Or` meets them event by event, then encodes the meet as edges.
    ///
    /// Leaves compute their rows directly: a conjunctive leaf advances a
    /// false frontier over its truth table, a regular or linear leaf keeps
    /// the rows of its §4.3 walk, and co-regular and k-local leaves meet
    /// their violation or clause rows. So the only J table (Tarjan plus J
    /// propagation) is the root's, besides one per `And` or post-linear
    /// leaf under an `Or`, which has no rows without it. The edges, every
    /// `J(e)` and the bottom are those of slicing each child and grafting
    /// the slices.
    ///
    /// A walk that yields edges covers only the processes its leaf reads
    /// (see [`slice_regular`](crate::slice_regular) and
    /// [`slice_linear`](crate::slice_linear)); a walk that yields rows
    /// covers every process, since the `Or` reads every coordinate.
    pub fn slice<'a>(&self, comp: &'a Computation) -> Slice<'a> {
        let mut edges = Vec::new();
        self.push_edges(comp, &mut edges);
        Slice::new(comp, edges)
    }

    fn span(&self) -> slicing_observe::Span {
        slicing_observe::span(match self {
            PredicateSpec::Conjunctive(_) => "slice.spec.conjunctive",
            PredicateSpec::Regular(_) => "slice.spec.regular",
            PredicateSpec::CoRegular(_) => "slice.spec.co_regular",
            PredicateSpec::Linear(_) => "slice.spec.linear",
            PredicateSpec::PostLinear(_) => "slice.spec.post_linear",
            PredicateSpec::KLocal(_) => "slice.spec.klocal",
            PredicateSpec::And(_) => "slice.spec.and",
            PredicateSpec::Or(_) => "slice.spec.or",
        })
    }

    /// Appends the constraint edges of this node's slice to `out`.
    fn push_edges(&self, comp: &Computation, out: &mut Vec<Edge>) {
        let _span = self.span();
        match self {
            PredicateSpec::Conjunctive(p) => push_conjunctive_edges(comp, p, out),
            PredicateSpec::Regular(p) => push_regular_edges(comp, p.as_ref(), out),
            PredicateSpec::Linear(p) => push_linear_edges(comp, p.as_ref(), out),
            PredicateSpec::PostLinear(p) => push_postlinear_edges(comp, p.as_ref(), out),
            PredicateSpec::CoRegular(p) => push_disjunction_edges(comp, out, |rows| {
                meet_co_regular_rows(comp, p.as_ref(), rows)
            }),
            PredicateSpec::KLocal(p) => {
                push_disjunction_edges(comp, out, |rows| meet_klocal_rows(comp, p, rows))
            }
            PredicateSpec::And(children) => {
                assert!(!children.is_empty(), "And() of nothing; use Slice::full");
                push_conjunction_edges(out, |out| {
                    for c in children {
                        c.push_edges(comp, out);
                    }
                });
            }
            PredicateSpec::Or(children) => {
                push_disjunction_edges(comp, out, |rows| meet_disjuncts(comp, children, rows))
            }
        }
    }

    /// Meets the least-cut rows of this node's slice into `rows`.
    fn meet_rows(&self, comp: &Computation, rows: &mut LeastCuts) {
        let _span = self.span();
        match self {
            PredicateSpec::Conjunctive(p) => {
                let evals = meet_conjunctive_rows(comp, p, rows);
                slicing_observe::counter("slice.conjunctive.evals", evals);
            }
            PredicateSpec::Regular(p) => meet_linear_rows(comp, p.as_ref(), rows),
            PredicateSpec::Linear(p) => meet_linear_rows(comp, p.as_ref(), rows),
            PredicateSpec::CoRegular(p) => {
                meet_co_regular_rows(comp, p.as_ref(), rows);
            }
            PredicateSpec::KLocal(p) => {
                meet_klocal_rows(comp, p, rows);
            }
            PredicateSpec::Or(children) => {
                meet_disjuncts(comp, children, rows);
            }
            // No rows without a J table: materialize the slice once.
            PredicateSpec::And(_) | PredicateSpec::PostLinear(_) => {
                rows.meet_slice(&self.slice(comp));
            }
        }
    }

    /// Evaluates the *exact* predicate the tree denotes (used after slicing
    /// to check the residual predicate on the slice's cuts).
    pub fn eval(&self, state: &GlobalState<'_>) -> bool {
        match self {
            PredicateSpec::Conjunctive(p) => p.eval(state),
            PredicateSpec::Regular(p) => p.eval(state),
            PredicateSpec::CoRegular(p) => !p.eval(state),
            PredicateSpec::Linear(p) => p.eval(state),
            PredicateSpec::PostLinear(p) => p.eval(state),
            PredicateSpec::KLocal(p) => p.eval(state),
            PredicateSpec::And(children) => children.iter().all(|c| c.eval(state)),
            PredicateSpec::Or(children) => children.iter().any(|c| c.eval(state)),
        }
    }

    /// The logical complement of the tree, when it stays sliceable.
    ///
    /// Regular and conjunctive leaves flip to co-regular and back
    /// (a conjunctive predicate is regular, so its complement slices with
    /// the Section 5 co-regular algorithm), and interior nodes apply
    /// De Morgan. Linear, post-linear, and k-local leaves have no
    /// polynomial-time sliceable complement, so a tree containing one
    /// returns `None` — callers fall back to searching the negation
    /// directly. Recovery-line computation uses this to slice "the fault
    /// never happened" regions without hand-writing negated specs.
    pub fn complement(&self) -> Option<PredicateSpec> {
        match self {
            PredicateSpec::Conjunctive(p) => Some(PredicateSpec::CoRegular(Arc::new(p.clone()))),
            PredicateSpec::Regular(p) => Some(PredicateSpec::CoRegular(p.clone())),
            PredicateSpec::CoRegular(p) => Some(PredicateSpec::Regular(p.clone())),
            PredicateSpec::Linear(_) | PredicateSpec::PostLinear(_) | PredicateSpec::KLocal(_) => {
                None
            }
            PredicateSpec::And(children) => {
                let flipped: Option<Vec<PredicateSpec>> =
                    children.iter().map(PredicateSpec::complement).collect();
                Some(PredicateSpec::Or(flipped?))
            }
            PredicateSpec::Or(children) => {
                // ¬(∅-ary ∨) is the constant true, which has no spec form.
                if children.is_empty() {
                    return None;
                }
                let flipped: Option<Vec<PredicateSpec>> =
                    children.iter().map(PredicateSpec::complement).collect();
                Some(PredicateSpec::And(flipped?))
            }
        }
    }

    /// The processes read anywhere in the tree.
    pub fn support(&self) -> ProcSet {
        match self {
            PredicateSpec::Conjunctive(p) => p.support(),
            PredicateSpec::Regular(p) => p.support(),
            PredicateSpec::CoRegular(p) => p.support(),
            PredicateSpec::Linear(p) => p.support(),
            PredicateSpec::PostLinear(p) => p.support(),
            PredicateSpec::KLocal(p) => p.support(),
            PredicateSpec::And(children) | PredicateSpec::Or(children) => children
                .iter()
                .map(PredicateSpec::support)
                .fold(ProcSet::empty(), ProcSet::union),
        }
    }
}

/// Meets every disjunct's rows into `rows`; returns the disjunct count.
fn meet_disjuncts(comp: &Computation, children: &[PredicateSpec], rows: &mut LeastCuts) -> usize {
    let _span = slicing_observe::span("slice.graft_or");
    for c in children {
        c.meet_rows(comp, rows);
    }
    slicing_observe::counter("slice.graft.disjuncts", children.len() as u64);
    children.len()
}

impl fmt::Debug for PredicateSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PredicateSpec::Conjunctive(p) => write!(f, "{p:?}"),
            PredicateSpec::Regular(p) => write!(f, "Regular({p:?})"),
            PredicateSpec::CoRegular(p) => write!(f, "¬Regular({p:?})"),
            PredicateSpec::Linear(p) => write!(f, "Linear({p:?})"),
            PredicateSpec::PostLinear(p) => write!(f, "PostLinear({p:?})"),
            PredicateSpec::KLocal(p) => write!(f, "{p:?}"),
            PredicateSpec::And(children) => f.debug_tuple("And").field(children).finish(),
            PredicateSpec::Or(children) => f.debug_tuple("Or").field(children).finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slicing_computation::lattice::all_cuts;
    use slicing_computation::oracle::satisfying_cuts;
    use slicing_computation::test_fixtures::{random_computation, RandomConfig};
    use slicing_computation::Cut;
    use slicing_predicates::LocalPredicate;
    use std::collections::BTreeSet;

    fn local_spec(comp: &Computation, proc_idx: usize, t: i64) -> PredicateSpec {
        let p = comp.process(proc_idx);
        let x = comp.var(p, "x").unwrap();
        PredicateSpec::conjunctive(Conjunctive::new(vec![LocalPredicate::int(
            x,
            format!("x >= {t}"),
            move |v| v >= t,
        )]))
    }

    /// Soundness on random trees: the approximate slice contains every
    /// satisfying cut.
    #[test]
    fn approximate_slice_is_sound_on_random_trees() {
        let cfg = RandomConfig {
            processes: 3,
            events_per_process: 3,
            value_range: 3,
            ..RandomConfig::default()
        };
        for seed in 0..20 {
            let comp = random_computation(seed, &cfg);
            // ((a ∨ b) ∧ c) with local leaves — the paper's (x1∨x2)∧(x3∨x4)
            // shape, scaled to three processes.
            let spec = PredicateSpec::and(vec![
                PredicateSpec::or(vec![local_spec(&comp, 0, 1), local_spec(&comp, 1, 2)]),
                local_spec(&comp, 2, 1),
            ]);
            let slice = spec.slice(&comp);
            let slice_cuts: BTreeSet<Cut> = all_cuts(&slice).into_iter().collect();
            let sat = satisfying_cuts(&comp, |st| spec.eval(st));
            for c in &sat {
                assert!(slice_cuts.contains(c), "seed {seed}: missing {c}");
            }
            // And the slice is never larger than the computation.
            assert!(slice_cuts.len() as u64 <= all_cuts(&comp).len() as u64);
        }
    }

    /// On a pure conjunction of regular leaves the result is exact.
    #[test]
    fn conjunction_of_regular_leaves_is_exact() {
        let cfg = RandomConfig {
            processes: 3,
            events_per_process: 3,
            value_range: 3,
            ..RandomConfig::default()
        };
        for seed in 0..10 {
            let comp = random_computation(seed, &cfg);
            let spec = PredicateSpec::and(vec![local_spec(&comp, 0, 1), local_spec(&comp, 1, 1)]);
            let slice = spec.slice(&comp);
            let got: BTreeSet<Cut> = all_cuts(&slice).into_iter().collect();
            let sat: BTreeSet<Cut> = satisfying_cuts(&comp, |st| spec.eval(st))
                .into_iter()
                .collect();
            assert_eq!(got, sat, "seed {seed}");
        }
    }

    #[test]
    fn coregular_leaf_and_eval() {
        let cfg = RandomConfig::default();
        let comp = random_computation(5, &cfg);
        let x = comp.var(comp.process(0), "x").unwrap();
        let inner = Conjunctive::new(vec![LocalPredicate::int(x, "x >= 1", |v| v >= 1)]);
        let spec = PredicateSpec::not_regular(inner.clone());
        let slice = spec.slice(&comp);
        let slice_cuts: BTreeSet<Cut> = all_cuts(&slice).into_iter().collect();
        let sat: BTreeSet<Cut> = satisfying_cuts(&comp, |st| !inner.eval(st))
            .into_iter()
            .collect();
        // Co-regular slices are exact.
        assert_eq!(
            slice_cuts,
            slicing_computation::oracle::sublattice_closure(
                &sat.iter().cloned().collect::<Vec<_>>()
            )
        );
    }

    /// `complement()` negates `eval` everywhere and its slice stays sound.
    #[test]
    fn complement_negates_eval_and_slices_soundly() {
        let cfg = RandomConfig {
            processes: 3,
            events_per_process: 3,
            value_range: 3,
            ..RandomConfig::default()
        };
        for seed in 0..10 {
            let comp = random_computation(seed, &cfg);
            let spec = PredicateSpec::and(vec![
                PredicateSpec::or(vec![local_spec(&comp, 0, 1), local_spec(&comp, 1, 2)]),
                local_spec(&comp, 2, 1),
            ]);
            let neg = spec.complement().expect("regular tree complements");
            let slice = neg.slice(&comp);
            let slice_cuts: BTreeSet<Cut> = all_cuts(&slice).into_iter().collect();
            for cut in all_cuts(&comp) {
                let st = GlobalState::new(&comp, &cut);
                assert_eq!(neg.eval(&st), !spec.eval(&st), "seed {seed}: {cut}");
                if neg.eval(&st) {
                    assert!(slice_cuts.contains(&cut), "seed {seed}: missing {cut}");
                }
            }
        }
    }

    /// Unsliceable leaves and the empty disjunction refuse to complement.
    #[test]
    fn complement_refuses_unsliceable_trees() {
        let comp = random_computation(3, &RandomConfig::default());
        let x = comp.var(comp.process(0), "x").unwrap();
        let linear = PredicateSpec::linear(Conjunctive::new(vec![LocalPredicate::int(
            x,
            "x >= 1",
            |v| v >= 1,
        )]));
        assert!(linear.complement().is_none());
        assert!(PredicateSpec::or(vec![]).complement().is_none());
        // And([]) is constant-true; its complement is the empty Or, which
        // both evaluates false and slices empty.
        let falsum = PredicateSpec::and(vec![]).complement().unwrap();
        assert!(falsum.slice(&comp).is_empty_slice());
    }

    #[test]
    fn empty_or_is_empty_slice() {
        let comp = random_computation(1, &RandomConfig::default());
        let spec = PredicateSpec::or(vec![]);
        assert!(spec.slice(&comp).is_empty_slice());
        let cut = Cut::bottom(comp.num_processes());
        let st = GlobalState::new(&comp, &cut);
        assert!(!spec.eval(&st));
    }

    /// Each leaf's rows, computed without a J table, equal the J table of
    /// its materialized slice; the co-regular reference grafts one
    /// materialized slice per violated constraint, as the complement was
    /// first built.
    #[test]
    fn leaf_rows_match_their_slices_j_tables() {
        use crate::graft::graft_or_all;
        use crate::slice::Node;
        use crate::{slice_conjunctive, slice_klocal, slice_linear};
        use slicing_predicates::{KLocalPredicate, MonotoneDominates, RegularPredicate};

        fn per_violation<'a, P: RegularPredicate>(comp: &'a Computation, pred: &P) -> Slice<'a> {
            let anchor = Node::Event(comp.event_at(comp.process(0), 0));
            let violations: Vec<Slice<'a>> = slice_linear(comp, pred)
                .edges()
                .iter()
                .filter_map(|&edge| match edge {
                    (Node::Top, Node::Event(f)) => {
                        Some(Slice::new(comp, vec![(Node::Event(f), anchor)]))
                    }
                    (Node::Event(u), Node::Event(v)) if !comp.causally_within(u, v) => {
                        Some(Slice::new(
                            comp,
                            vec![(Node::Event(v), anchor), (Node::Top, Node::Event(u))],
                        ))
                    }
                    _ => None,
                })
                .collect();
            graft_or_all(comp, &violations)
        }
        fn rows(comp: &Computation, fill: impl FnOnce(&mut LeastCuts)) -> LeastCuts {
            let mut rows = LeastCuts::none(comp);
            fill(&mut rows);
            rows
        }

        for (n, events) in [(3usize, 4u32), (4, 3), (17, 1)] {
            let cfg = RandomConfig {
                processes: n,
                events_per_process: events,
                value_range: 3,
                send_percent: 50,
                recv_percent: 50,
            };
            for seed in 0..15 {
                let comp = random_computation(seed, &cfg);
                let x = |i: usize| comp.var(comp.process(i), "x").unwrap();
                let conj = Conjunctive::new(vec![
                    LocalPredicate::int(x(0), "x != 1", |v| v != 1),
                    LocalPredicate::int(x(2), "x >= 1", |v| v >= 1),
                ]);
                let dominates = MonotoneDominates::new(x(0), x(1));
                let klocal = KLocalPredicate::new(vec![x(0), x(1)], "x0 != x1", |v| v[0] != v[1]);
                let cases = [
                    (
                        "conjunctive",
                        rows(&comp, |r| {
                            meet_conjunctive_rows(&comp, &conj, r);
                        }),
                        slice_conjunctive(&comp, &conj),
                    ),
                    (
                        "linear",
                        rows(&comp, |r| meet_linear_rows(&comp, &conj, r)),
                        slice_linear(&comp, &conj),
                    ),
                    (
                        "co-regular conjunction",
                        rows(&comp, |r| {
                            meet_co_regular_rows(&comp, &conj, r);
                        }),
                        per_violation(&comp, &conj),
                    ),
                    (
                        "co-regular dominates",
                        rows(&comp, |r| {
                            meet_co_regular_rows(&comp, &dominates, r);
                        }),
                        per_violation(&comp, &dominates),
                    ),
                    (
                        "k-local",
                        rows(&comp, |r| {
                            meet_klocal_rows(&comp, &klocal, r);
                        }),
                        slice_klocal(&comp, &klocal),
                    ),
                ];
                for (kind, rows, slice) in &cases {
                    for e in comp.events() {
                        assert_eq!(
                            rows.row(e),
                            slice.least_cut(e).map(Cut::counts),
                            "{kind}, {n} processes, seed {seed}: J({e})"
                        );
                    }
                }
                // The co-regular slicer encodes exactly the per-violation graft.
                let want = per_violation(&comp, &conj);
                assert_eq!(crate::slice_co_regular(&comp, &conj).edges(), want.edges());
            }
        }
    }

    #[test]
    fn support_unions_children() {
        let comp = random_computation(2, &RandomConfig::default());
        let spec = PredicateSpec::or(vec![local_spec(&comp, 0, 1), local_spec(&comp, 2, 1)]);
        assert_eq!(spec.support().len(), 2);
        assert!(format!("{spec:?}").contains("Or"));
    }
}
