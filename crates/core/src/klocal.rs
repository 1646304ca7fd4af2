//! Slicing k-local predicates for constant k (Section 4.2).

use slicing_computation::Computation;
use slicing_predicates::KLocalPredicate;

use crate::conjunctive::meet_conjunctive_rows;
use crate::graft::{push_disjunction_edges, LeastCuts};
use crate::slice::Slice;

/// Computes the slice for a k-local predicate (constant `k`), which need
/// not be regular, in `O(n · m^(k-1) · |E|)` time (Section 4.2).
///
/// The predicate is first rewritten — using the Stoller–Schneider
/// technique — into a DNF with at most `m^(k-1)` conjunctive clauses
/// ([`KLocalPredicate::to_dnf`]); each clause is sliced with the optimal
/// `O(|E|)` conjunctive slicer, and the clause slices are grafted together
/// with respect to disjunction.
///
/// The result is the exact slice: the smallest sublattice containing every
/// satisfying cut (each clause's slice is lean, and disjunction grafting
/// produces the smallest sublattice containing the union).
pub fn slice_klocal<'a>(comp: &'a Computation, pred: &KLocalPredicate) -> Slice<'a> {
    let mut edges = Vec::new();
    push_disjunction_edges(comp, &mut edges, |rows| meet_klocal_rows(comp, pred, rows));
    Slice::new(comp, edges)
}

/// Meets the rows of every DNF clause's conjunctive slice into `rows`
/// (memory `O(n|E|)` whatever the clause count); returns the clause
/// count.
pub(crate) fn meet_klocal_rows(
    comp: &Computation,
    pred: &KLocalPredicate,
    rows: &mut LeastCuts,
) -> usize {
    let _span = slicing_observe::span("slice.klocal");
    let dnf = pred.to_dnf(comp);
    slicing_observe::counter("slice.klocal.clauses", dnf.len() as u64);
    let evals = dnf
        .iter()
        .map(|clause| meet_conjunctive_rows(comp, clause, rows))
        .sum();
    slicing_observe::counter("slice.conjunctive.evals", evals);
    slicing_observe::counter("slice.graft.disjuncts", dnf.len() as u64);
    dnf.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use slicing_computation::lattice::all_cuts;
    use slicing_computation::oracle::expected_slice_cuts;
    use slicing_computation::test_fixtures::{random_computation, RandomConfig};
    use slicing_computation::{ComputationBuilder, Cut, Value, VarRef};
    use slicing_predicates::Predicate;
    use std::collections::BTreeSet;

    #[test]
    fn neq_slice_matches_oracle() {
        let mut b = ComputationBuilder::new(2);
        let x = b.declare_var(b.process(0), "x", Value::Int(0));
        let y = b.declare_var(b.process(1), "y", Value::Int(0));
        for v in [1, 0, 2] {
            b.step(b.process(0), &[(x, Value::Int(v))]);
        }
        for v in [2, 0] {
            b.step(b.process(1), &[(y, Value::Int(v))]);
        }
        let comp = b.build().unwrap();
        let pred = KLocalPredicate::new(vec![x, y], "x != y", |v| v[0] != v[1]);
        let slice = slice_klocal(&comp, &pred);
        let got: BTreeSet<Cut> = all_cuts(&slice).into_iter().collect();
        let (want, _) = expected_slice_cuts(&comp, |st| pred.eval(st));
        assert_eq!(got, want);
    }

    #[test]
    fn random_2local_and_3local_match_oracle() {
        let cfg = RandomConfig {
            processes: 3,
            events_per_process: 3,
            value_range: 3,
            ..RandomConfig::default()
        };
        for seed in 0..20 {
            let comp = random_computation(seed, &cfg);
            let vars: Vec<VarRef> = comp
                .processes()
                .map(|p| comp.var(p, "x").unwrap())
                .collect();

            // 2-local, non-regular.
            let p2 = KLocalPredicate::new(vec![vars[0], vars[1]], "x0 != x1", |v| v[0] != v[1]);
            let got: BTreeSet<Cut> = all_cuts(&slice_klocal(&comp, &p2)).into_iter().collect();
            let (want, _) = expected_slice_cuts(&comp, |st| p2.eval(st));
            assert_eq!(got, want, "seed {seed} 2-local");

            // 3-local, non-regular.
            let p3 = KLocalPredicate::new(vars.clone(), "x0 + x1 == x2", |v| {
                v[0].expect_int() + v[1].expect_int() == v[2].expect_int()
            });
            let got: BTreeSet<Cut> = all_cuts(&slice_klocal(&comp, &p3)).into_iter().collect();
            let (want, _) = expected_slice_cuts(&comp, |st| p3.eval(st));
            assert_eq!(got, want, "seed {seed} 3-local");
        }
    }

    #[test]
    fn unsatisfiable_klocal_is_empty() {
        let mut b = ComputationBuilder::new(2);
        let x = b.declare_var(b.process(0), "x", Value::Int(0));
        let y = b.declare_var(b.process(1), "y", Value::Int(0));
        b.step(b.process(0), &[(x, Value::Int(1))]);
        let comp = b.build().unwrap();
        let pred = KLocalPredicate::new(vec![x, y], "x + y == 9", |v| {
            v[0].expect_int() + v[1].expect_int() == 9
        });
        assert!(slice_klocal(&comp, &pred).is_empty_slice());
    }

    #[test]
    fn slice_contains_all_satisfying_cuts_even_when_not_lean() {
        // x != y is not regular: the slice may strictly contain the
        // satisfying set, but never miss a satisfying cut.
        let cfg = RandomConfig {
            processes: 2,
            events_per_process: 4,
            value_range: 2,
            ..RandomConfig::default()
        };
        for seed in 50..60 {
            let comp = random_computation(seed, &cfg);
            let x = comp.var(comp.process(0), "x").unwrap();
            let y = comp.var(comp.process(1), "x").unwrap();
            let pred = KLocalPredicate::new(vec![x, y], "x != y", |v| v[0] != v[1]);
            let slice = slice_klocal(&comp, &pred);
            let slice_cuts: BTreeSet<Cut> = all_cuts(&slice).into_iter().collect();
            let (_, sat) = expected_slice_cuts(&comp, |st| pred.eval(st));
            for c in &sat {
                assert!(slice_cuts.contains(c), "seed {seed}: missing {c}");
            }
        }
    }
}
