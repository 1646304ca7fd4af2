//! Slicing co-regular predicates: complements of regular predicates.

use slicing_computation::{Computation, EventId};
use slicing_predicates::RegularPredicate;

use crate::graft::{push_disjunction_edges, LeastCuts};
use crate::linear::push_regular_edges;
use crate::slice::{Edge, Node, Slice};

/// Computes the slice of `comp` with respect to `¬b` for a regular
/// predicate `b` that reads `k` processes, in `O(nk|E|²)` time (the
/// co-regular algorithm the paper inherits from DISC'01): at most `O(k)`
/// violation slices per event, each met into `n`-wide rows for every
/// event.
///
/// Since `b` is regular, its slice `S_b` is lean: a consistent cut violates
/// `b` exactly when it violates at least one constraint of `S_b`. Each
/// constraint is one of:
///
/// - an edge `u → v` — violated by cuts with `v ∈ C ∧ u ∉ C`, a set that
///   is closed under union and intersection and is therefore itself a
///   slice (require `v`, forbid `u`);
/// - a forbidden event `f` (`⊤ → f`) — violated by cuts containing `f`
///   (require `f`).
///
/// The slice of `¬b` is the disjunction graft of these `O(n|E|)` violation
/// slices. Edges `u → v` with `u` happened-before `v` can never be
/// violated by a consistent cut and are skipped. Only the constraint edges
/// of `S_b` are read, so no J table is built for it, and each violation
/// slice's rows are written straight into the graft's meet.
pub fn slice_co_regular<'a, P: RegularPredicate + ?Sized>(
    comp: &'a Computation,
    pred: &P,
) -> Slice<'a> {
    let mut edges = Vec::new();
    push_disjunction_edges(comp, &mut edges, |rows| {
        meet_co_regular_rows(comp, pred, rows)
    });
    Slice::new(comp, edges)
}

/// Computes the slice whose cuts form the smallest sublattice containing
/// every consistent cut of `comp` that is **not** a cut of `slice`.
///
/// Exact (lean) when `slice` is the lean slice of a regular predicate;
/// see [`slice_co_regular`]. Useful directly for `definitely`-modality
/// detection, which searches the complement of a slice.
pub fn slice_complement_of<'a>(comp: &'a Computation, slice: &Slice<'a>) -> Slice<'a> {
    let mut edges = Vec::new();
    push_disjunction_edges(comp, &mut edges, |rows| {
        meet_violation_rows(comp, slice.edges(), rows)
    });
    Slice::new(comp, edges)
}

/// Meets the rows of every violation slice of `b`'s lean slice into
/// `rows`; returns the number of violation slices. The lean slice is the
/// one walked on `b`'s support alone (see [`slice_regular`]): any edge set
/// of it works, since a cut violates `b` exactly when it violates one of
/// the edges.
///
/// [`slice_regular`]: crate::slice_regular
pub(crate) fn meet_co_regular_rows<P: RegularPredicate + ?Sized>(
    comp: &Computation,
    pred: &P,
    rows: &mut LeastCuts,
) -> usize {
    let mut base = Vec::new();
    push_regular_edges(comp, pred, &mut base);
    meet_violation_rows(comp, &base, rows)
}

/// Meets the rows of the violation slice of each of `edges` into `rows`
/// and returns how many there were.
///
/// A violation slice holds the cuts that contain a required event `r` and
/// not a forbidden one `u` (if any), so its least cut containing `e` is
/// the least cut containing both `e` and `r`, and none when that cut
/// already holds `u`.
fn meet_violation_rows(comp: &Computation, edges: &[Edge], rows: &mut LeastCuts) -> usize {
    let _span = slicing_observe::span("slice.co_regular");
    let mut row = vec![0u32; comp.num_processes()];
    let mut violations = 0usize;
    for &(u, v) in edges {
        let (required, forbidden) = match (u, v) {
            // Cuts containing the forbidden event f.
            (Node::Top, Node::Event(f)) => (f, None),
            // Cuts with v ∈ C and u ∉ C: require v, forbid u.
            (Node::Event(u), Node::Event(v)) if !implied_by_base(comp, u, v) => (v, Some(u)),
            // Implied edges are never violated; edges into ⊤ are vacuous
            // and ⊤ → ⊤ cannot occur.
            _ => continue,
        };
        violations += 1;
        let base = comp.min_cut(required).counts();
        for e in comp.events() {
            for ((r, &b), &m) in row.iter_mut().zip(base).zip(comp.min_cut(e).counts()) {
                *r = b.max(m);
            }
            let holds_forbidden =
                forbidden.is_some_and(|u| row[comp.process_of(u).as_usize()] > comp.position_of(u));
            if !holds_forbidden {
                rows.meet_row(e, &row);
            }
        }
    }
    slicing_observe::counter("slice.co_regular.violations", violations as u64);
    slicing_observe::counter("slice.graft.disjuncts", violations as u64);
    violations
}

/// `true` if `u → v` already follows from the happened-before relation, so
/// no consistent cut can violate the edge.
fn implied_by_base(comp: &Computation, u: EventId, v: EventId) -> bool {
    comp.causally_within(u, v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use slicing_computation::lattice::all_cuts;
    use slicing_computation::oracle::expected_slice_cuts;
    use slicing_computation::test_fixtures::{figure1, random_computation, RandomConfig};
    use slicing_computation::Cut;
    use slicing_predicates::{AtMostInTransit, Conjunctive, LocalPredicate, Predicate};
    use std::collections::BTreeSet;

    fn assert_complement_matches_oracle<P: RegularPredicate + ?Sized>(
        comp: &Computation,
        pred: &P,
        ctx: &str,
    ) {
        let slice = slice_co_regular(comp, pred);
        let got: BTreeSet<Cut> = all_cuts(&slice).into_iter().collect();
        let (want, _) = expected_slice_cuts(comp, |st| !pred.eval(st));
        assert_eq!(got, want, "{ctx}");
    }

    #[test]
    fn figure1_complement() {
        let comp = figure1();
        let x1 = comp.var(comp.process(0), "x1").unwrap();
        let x3 = comp.var(comp.process(2), "x3").unwrap();
        let pred = Conjunctive::new(vec![
            LocalPredicate::int(x1, "x1 > 1", |x| x > 1),
            LocalPredicate::int(x3, "x3 <= 3", |x| x <= 3),
        ]);
        assert_complement_matches_oracle(&comp, &pred, "figure1");
    }

    #[test]
    fn complement_of_true_is_empty() {
        let comp = figure1();
        let pred = Conjunctive::new(vec![]);
        assert!(slice_co_regular(&comp, &pred).is_empty_slice());
    }

    #[test]
    fn complement_of_false_is_full() {
        let comp = figure1();
        let x1 = comp.var(comp.process(0), "x1").unwrap();
        let pred = Conjunctive::new(vec![LocalPredicate::int(x1, "x1 > 99", |x| x > 99)]);
        let slice = slice_co_regular(&comp, &pred);
        assert_eq!(all_cuts(&slice).len(), 28);
    }

    #[test]
    fn random_conjunctive_complements_match_oracle() {
        let cfg = RandomConfig {
            processes: 3,
            events_per_process: 3,
            value_range: 3,
            ..RandomConfig::default()
        };
        for seed in 0..15 {
            let comp = random_computation(seed, &cfg);
            let clauses: Vec<LocalPredicate> = comp
                .processes()
                .map(|p| {
                    let x = comp.var(p, "x").unwrap();
                    let t = (seed % 3) as i64;
                    LocalPredicate::int(x, format!("x >= {t}"), move |v| v >= t)
                })
                .collect();
            let pred = Conjunctive::new(clauses);
            assert_complement_matches_oracle(&comp, &pred, &format!("seed {seed}"));
        }
    }

    #[test]
    fn random_channel_complements_match_oracle() {
        let cfg = RandomConfig {
            processes: 3,
            events_per_process: 3,
            send_percent: 60,
            recv_percent: 60,
            ..RandomConfig::default()
        };
        for seed in 30..45 {
            let comp = random_computation(seed, &cfg);
            let pred = AtMostInTransit::new(comp.process(0), comp.process(1), 0);
            assert_complement_matches_oracle(&comp, &pred, &format!("seed {seed}"));
        }
    }

    #[test]
    fn complement_misses_no_violating_cut() {
        // Soundness: every ¬b cut must be in the complement slice.
        let comp = figure1();
        let x3 = comp.var(comp.process(2), "x3").unwrap();
        let pred = Conjunctive::new(vec![LocalPredicate::int(x3, "x3 <= 3", |x| x <= 3)]);
        let slice = slice_co_regular(&comp, &pred);
        for cut in all_cuts(&comp) {
            let st = slicing_computation::GlobalState::new(&comp, &cut);
            if !pred.eval(&st) {
                assert!(slice.contains_cut(&cut), "missing violating cut {cut}");
            }
        }
    }
}
