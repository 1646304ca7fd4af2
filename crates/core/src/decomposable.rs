//! Fast slicing for decomposable regular predicates (Section 4.1).

use slicing_computation::Computation;
use slicing_predicates::RegularPredicate;

use crate::approx::PredicateSpec;
use crate::slice::Slice;

/// Computes the slice for a *decomposable regular predicate*: a conjunction
/// of clauses, each itself regular but spanning only a few processes
/// (Section 4.1).
///
/// This is the `And` of the clauses as regular leaves. Each leaf's §4.3
/// walk covers only its clause's processes, as if the computation were
/// projected onto them (see [`slice_regular`](crate::slice_regular)), and
/// the `And` grafts the clauses by concatenating their constraint edges.
/// For clause span `k` and at most `s` clauses per process the total cost
/// is `O((n + k²s)|E|)` — a factor of `n` faster on the paper's "counters
/// approximately synchronized" example (`k = 2`, `s = n`) than slicing the
/// conjunction as one predicate over every process.
///
/// The result is exact (the conjunction of regular predicates is regular,
/// and the grafted slice is its lean slice).
///
/// # Panics
///
/// Panics if `clauses` is empty (the slice of `true` is the full
/// computation; use [`Slice::full`]).
pub fn slice_decomposable<'a, P: RegularPredicate + Clone + 'static>(
    comp: &'a Computation,
    clauses: &[P],
) -> Slice<'a> {
    assert!(
        !clauses.is_empty(),
        "slice_decomposable needs at least one clause; use Slice::full for `true`"
    );
    PredicateSpec::and(
        clauses
            .iter()
            .map(|c| PredicateSpec::regular(c.clone()))
            .collect(),
    )
    .slice(comp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use slicing_computation::lattice::all_cuts;
    use slicing_computation::oracle::expected_slice_cuts;
    use slicing_computation::test_fixtures::XorShift64;
    use slicing_computation::{ComputationBuilder, Cut, GlobalState, Value, VarRef};
    use slicing_predicates::{approximately_synchronized, BoundedDifference, Predicate};
    use std::collections::BTreeSet;

    use crate::linear::slice_linear;

    /// n processes with monotone counters; occasional messages keep them
    /// loosely synchronized.
    fn counter_computation(
        seed: u64,
        n: usize,
        steps: u32,
    ) -> (slicing_computation::Computation, Vec<VarRef>) {
        let mut rng = XorShift64::new(seed);
        let mut b = ComputationBuilder::new(n);
        let counters: Vec<VarRef> = (0..n)
            .map(|i| b.declare_var(b.process(i), "c", Value::Int(0)))
            .collect();
        let mut values = vec![0i64; n];
        let mut pending_send: Option<(slicing_computation::EventId, usize)> = None;
        for _ in 0..steps {
            let i = rng.index(n);
            values[i] += 1;
            let e = b.step(b.process(i), &[(counters[i], Value::Int(values[i]))]);
            // Occasional messages keep the lattice non-trivial.
            match pending_send {
                Some((send, from)) if from != i && rng.chance(50, 100) => {
                    b.message(send, e).expect("forward message is acyclic");
                    pending_send = None;
                }
                None if rng.chance(30, 100) => pending_send = Some((e, i)),
                _ => {}
            }
        }
        (b.build().unwrap(), counters)
    }

    /// The conjunction of all clauses, evaluated directly.
    fn conj_eval(clauses: &[BoundedDifference], st: &GlobalState<'_>) -> bool {
        clauses.iter().all(|c| c.eval(st))
    }

    #[test]
    fn matches_oracle_on_counter_workload() {
        for seed in 0..10 {
            let (comp, counters) = counter_computation(seed, 3, 6);
            let clauses = approximately_synchronized(&counters, 1);
            let slice = slice_decomposable(&comp, &clauses);
            let got: BTreeSet<Cut> = all_cuts(&slice).into_iter().collect();
            let (want, sat) = expected_slice_cuts(&comp, |st| conj_eval(&clauses, st));
            assert_eq!(got, want, "seed {seed}");
            // Regular conjunction ⇒ lean.
            assert_eq!(want.len(), sat.len(), "seed {seed} leanness");
        }
    }

    #[test]
    fn agrees_with_generic_regular_slicer() {
        // The decomposable fast path must produce the same cut set as
        // slicing the conjunction as one monolithic regular predicate.
        let (comp, counters) = counter_computation(42, 4, 8);
        let clauses = approximately_synchronized(&counters, 2);
        let fast: BTreeSet<Cut> = all_cuts(&slice_decomposable(&comp, &clauses))
            .into_iter()
            .collect();
        // Monolithic: conjunction of regular clauses as a single linear
        // predicate via Conjunction-of-regulars wrapper.
        let mono = MonolithicConj(clauses.clone());
        let slow: BTreeSet<Cut> = all_cuts(&slice_linear(&comp, &mono)).into_iter().collect();
        assert_eq!(fast, slow);
    }

    /// Conjunction of regular clauses as one linear predicate (for the
    /// equivalence test).
    #[derive(Debug)]
    struct MonolithicConj(Vec<BoundedDifference>);

    impl Predicate for MonolithicConj {
        fn support(&self) -> slicing_computation::ProcSet {
            self.0
                .iter()
                .map(|c| c.support())
                .fold(slicing_computation::ProcSet::empty(), |a, b| a.union(b))
        }

        fn eval(&self, st: &GlobalState<'_>) -> bool {
            self.0.iter().all(|c| c.eval(st))
        }
    }

    impl slicing_predicates::LinearPredicate for MonolithicConj {
        fn forbidden_process(&self, st: &GlobalState<'_>) -> slicing_computation::ProcessId {
            self.0
                .iter()
                .find(|c| !c.eval(st))
                .expect("called on falsifying state")
                .forbidden_process(st)
        }
    }

    #[test]
    fn single_clause_decomposition_equals_direct_slice() {
        let (comp, counters) = counter_computation(7, 2, 5);
        let clause = BoundedDifference::new(counters[0], counters[1], 1);
        let a: BTreeSet<Cut> = all_cuts(&slice_decomposable(&comp, &[clause]))
            .into_iter()
            .collect();
        let b: BTreeSet<Cut> = all_cuts(&slice_linear(&comp, &clause))
            .into_iter()
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one clause")]
    fn empty_clause_list_rejected() {
        let (comp, _) = counter_computation(1, 2, 2);
        let _ = slice_decomposable::<BoundedDifference>(&comp, &[]);
    }
}
