//! Slicing linear (and regular) predicates via least-satisfying-cut
//! computation — the paper's Section 4.3.

use slicing_computation::{Computation, Cut, EventId, GlobalState, ProcSet, ProcessId};
use slicing_predicates::{LinearPredicate, RegularPredicate};

use crate::graft::{push_row_edges, LeastCuts};
use crate::slice::{Edge, Slice};

/// Computes the slice of `comp` with respect to a linear predicate in
/// `O(n²|E|)` time (Section 4.3).
///
/// For each event `e` the algorithm computes `J_b(e)`, the least consistent
/// cut that contains `e` and satisfies `b`, by starting from the least
/// consistent cut containing `e` and repeatedly advancing the *forbidden
/// process* reported by the predicate until it holds (or a process is
/// exhausted, in which case `J_b(e) = E` and `e` is excluded from the slice
/// via a ⊤ → e edge). Events are processed in process order so each
/// computation resumes from its predecessor's result — `J_b` is monotone
/// along process order, which caps the total advancing work.
///
/// The slice graph then encodes `e ∈ C ⇒ J_b(e) ⊆ C` with one edge per
/// (event, process) pair: `O(n|E|)` edges.
///
/// The resulting cut set is the smallest sublattice containing every
/// satisfying cut. For predicates that are in fact *regular* the slice is
/// lean (exactly the satisfying cuts) — see [`slice_regular`].
pub fn slice_linear<'a, P: LinearPredicate + ?Sized>(comp: &'a Computation, pred: &P) -> Slice<'a> {
    slice_linear_restricted(comp, pred, ProcSet::all(comp.num_processes()))
}

/// Computes the slice of a regular predicate — same algorithm as
/// [`slice_linear`], with the additional guarantee (from regularity) that
/// the result is **lean**: its non-trivial cuts are exactly the satisfying
/// cuts. This is the `O(n²|E|)` algorithm of the earlier ICDCS'01 paper
/// that Section 4.3 generalizes.
pub fn slice_regular<'a, P: RegularPredicate + ?Sized>(
    comp: &'a Computation,
    pred: &P,
) -> Slice<'a> {
    slice_linear(comp, pred)
}

/// Restricted variant of [`slice_linear`] used by the decomposable-regular
/// slicer (Section 4.1): behaves as if the computation were *projected*
/// onto `procs`, without materializing the projection.
///
/// Cuts are kept full-width, but only the coordinates in `procs` are
/// advanced or constrained; the other coordinates stay at the bottom. The
/// predicate must read only processes in `procs`. Work is proportional to
/// the projected size: `O(k · (|E_P| + advances))` for `k = |procs|`.
pub fn slice_linear_restricted<'a, P: LinearPredicate + ?Sized>(
    comp: &'a Computation,
    pred: &P,
    procs: ProcSet,
) -> Slice<'a> {
    let mut edges = Vec::new();
    push_linear_edges(comp, pred, procs, &mut edges);
    Slice::new(comp, edges)
}

/// Appends the constraint edges [`slice_linear_restricted`] would install
/// to `out`, without building the slice: for each event of `procs`, in
/// process order, the edges encoding `e ∈ C ⇒ J_b(e) ⊆ C` for the row
/// the §4.3 walk finds. The decomposable slicer concatenates these across
/// clauses and builds a single slice, so the per-clause cost stays
/// proportional to the *projected* size (the whole point of §4.1).
pub(crate) fn push_linear_edges<P: LinearPredicate + ?Sized>(
    comp: &Computation,
    pred: &P,
    procs: ProcSet,
    out: &mut Vec<Edge>,
) {
    let start = out.len();
    linear_walk(comp, pred, procs, |e, row| {
        push_row_edges(comp, e, row, procs.iter(), out);
    });
    slicing_observe::counter("slice.linear.edges", (out.len() - start) as u64);
}

/// Meets `J_b(e)` into `rows` for every event some satisfying cut
/// contains: the rows the §4.3 walk finds, with no edge built.
pub(crate) fn meet_linear_rows<P: LinearPredicate + ?Sized>(
    comp: &Computation,
    pred: &P,
    rows: &mut LeastCuts,
) {
    linear_walk(comp, pred, ProcSet::all(comp.num_processes()), |e, row| {
        if let Some(row) = row {
            rows.meet_row(e, row);
        }
    });
}

/// The §4.3 walk: calls `visit` with `J_b(e)` for each event of `procs`, in
/// process order, or with `None` when no satisfying cut contains `e`.
/// Coordinates outside `procs` stay at 1.
fn linear_walk<P: LinearPredicate + ?Sized>(
    comp: &Computation,
    pred: &P,
    procs: ProcSet,
    mut visit: impl FnMut(EventId, Option<&[u32]>),
) {
    let _span = slicing_observe::span("slice.linear");
    debug_assert!(
        pred.support().iter().all(|p| procs.contains(p)),
        "predicate reads processes outside the restriction"
    );
    let n = comp.num_processes();
    let proc_list: Vec<ProcessId> = procs.iter().collect();
    // Work accounting, emitted once at the end so the hot loop stays
    // allocation- and dispatch-free.
    let evals = std::cell::Cell::new(0u64);
    let advances = std::cell::Cell::new(0u64);

    // Joins a cut with the restriction of `other` to `procs`.
    let join_masked = |cut: &mut Cut, other: &Cut| {
        for &q in &proc_list {
            if cut.count(q) < other.count(q) {
                cut.set_count(q, other.count(q));
            }
        }
    };

    // Advances `cut` until the predicate holds; returns false if some
    // process ran out of events (no satisfying cut exists above `cut`).
    let advance = |cut: &mut Cut| -> bool {
        loop {
            let st = GlobalState::new(comp, cut);
            evals.set(evals.get() + 1);
            if pred.eval(&st) {
                return true;
            }
            let p = pred.forbidden_process(&st);
            debug_assert!(procs.contains(p), "forbidden process outside restriction");
            if cut.count(p) >= comp.len(p) {
                return false;
            }
            let next = comp.event_at(p, cut.count(p));
            join_masked(cut, comp.min_cut(next));
            advances.set(advances.get() + 1);
            // `min_cut(next)` includes `next` itself.
            debug_assert!(cut.count(p) > 0);
        }
    };

    for &p in &proc_list {
        // Resume point: J_b of the previous event on this process.
        let mut current = Cut::bottom(n);
        let mut dead = false;
        for pos in 0..comp.len(p) {
            let e = comp.event_at(p, pos);
            if !dead {
                join_masked(&mut current, comp.min_cut(e));
                // Once the walk runs out of events, so does every later
                // event of the process.
                dead = !advance(&mut current);
            }
            visit(e, (!dead).then(|| current.counts()));
        }
    }

    slicing_observe::counter("slice.linear.evals", evals.get());
    slicing_observe::counter("slice.linear.advances", advances.get());
}

#[cfg(test)]
mod tests {
    use super::*;
    use slicing_computation::lattice::all_cuts;
    use slicing_computation::oracle::expected_slice_cuts;
    use slicing_computation::test_fixtures::{figure1, random_computation, RandomConfig};
    use slicing_predicates::{
        AtLeastInTransit, AtMostInTransit, Conjunctive, LocalPredicate, PendingAtMost, Predicate,
    };
    use std::collections::BTreeSet;

    fn assert_slice_is_smallest_sublattice<P: LinearPredicate + ?Sized>(
        comp: &Computation,
        pred: &P,
        ctx: &str,
    ) {
        let slice = slice_linear(comp, pred);
        let got: BTreeSet<Cut> = all_cuts(&slice).into_iter().collect();
        let (want, _sat) = expected_slice_cuts(comp, |st| pred.eval(st));
        assert_eq!(got, want, "{ctx}");
    }

    #[test]
    fn figure1_regular_slice_is_lean() {
        let comp = figure1();
        let x1 = comp.var(comp.process(0), "x1").unwrap();
        let x3 = comp.var(comp.process(2), "x3").unwrap();
        let pred = Conjunctive::new(vec![
            LocalPredicate::int(x1, "x1 > 1", |x| x > 1),
            LocalPredicate::int(x3, "x3 <= 3", |x| x <= 3),
        ]);
        let slice = slice_regular(&comp, &pred);
        let cuts = all_cuts(&slice);
        assert_eq!(cuts.len(), 6);
        // Lean: every slice cut satisfies the predicate.
        for c in &cuts {
            assert!(pred.eval(&GlobalState::new(&comp, c)));
        }
        assert_slice_is_smallest_sublattice(&comp, &pred, "figure1");
    }

    #[test]
    fn figure1_meta_events_match_paper_shape() {
        // Figure 1(b): four meta-events — the bottom block, {b}, {w}, {g}.
        let comp = figure1();
        let x1 = comp.var(comp.process(0), "x1").unwrap();
        let x3 = comp.var(comp.process(2), "x3").unwrap();
        let pred = Conjunctive::new(vec![
            LocalPredicate::int(x1, "x1 > 1", |x| x > 1),
            LocalPredicate::int(x3, "x3 <= 3", |x| x <= 3),
        ]);
        let slice = slice_regular(&comp, &pred);
        let metas = slice.meta_events();
        assert_eq!(metas.len(), 4, "metas: {metas:?}");
        // The bottom meta-event has the three initial events plus f and v.
        assert_eq!(metas[0].len(), 5);
    }

    #[test]
    fn channel_predicates_slice_exactly() {
        let mut b = slicing_computation::ComputationBuilder::new(2);
        let s1 = b.append_event(b.process(0));
        let s2 = b.append_event(b.process(0));
        let r1 = b.append_event(b.process(1));
        let r2 = b.append_event(b.process(1));
        b.message(s1, r1).unwrap();
        b.message(s2, r2).unwrap();
        let comp = b.build().unwrap();
        for k in 0..2 {
            let p = AtMostInTransit::new(comp.process(0), comp.process(1), k);
            assert_slice_is_smallest_sublattice(&comp, &p, "at-most");
            let q = AtLeastInTransit::new(comp.process(0), comp.process(1), k + 1);
            assert_slice_is_smallest_sublattice(&comp, &q, "at-least");
        }
    }

    #[test]
    fn linear_non_regular_predicate_sliced_to_smallest_sublattice() {
        // PendingAtMost is linear but not regular; the slice may contain
        // extra cuts but must be the smallest sublattice.
        let mut b = slicing_computation::ComputationBuilder::new(3);
        let s1 = b.append_event(b.process(0));
        let s2 = b.append_event(b.process(2));
        let r1 = b.append_event(b.process(1));
        let r2 = b.append_event(b.process(1));
        b.message(s1, r1).unwrap();
        b.message(s2, r2).unwrap();
        let comp = b.build().unwrap();
        for k in 0..2 {
            let p = PendingAtMost::new(comp.process(1), k, 3);
            assert_slice_is_smallest_sublattice(&comp, &p, "pending");
        }
    }

    #[test]
    fn unsatisfiable_predicate_gives_empty_slice() {
        let comp = figure1();
        let x1 = comp.var(comp.process(0), "x1").unwrap();
        let pred = Conjunctive::new(vec![LocalPredicate::int(x1, "x1 > 99", |x| x > 99)]);
        let slice = slice_linear(&comp, &pred);
        assert!(slice.is_empty_slice());
    }

    #[test]
    fn always_true_predicate_gives_full_lattice() {
        let comp = figure1();
        let pred = Conjunctive::new(vec![]);
        let slice = slice_linear(&comp, &pred);
        assert_eq!(all_cuts(&slice).len(), 28);
    }

    #[test]
    fn random_conjunctive_predicates_match_oracle() {
        let cfg = RandomConfig {
            processes: 3,
            events_per_process: 4,
            value_range: 3,
            ..RandomConfig::default()
        };
        for seed in 0..25 {
            let comp = random_computation(seed, &cfg);
            let clauses: Vec<LocalPredicate> = comp
                .processes()
                .map(|p| {
                    let x = comp.var(p, "x").unwrap();
                    // Vary the threshold per seed for diversity.
                    let t = (seed % 3) as i64;
                    LocalPredicate::int(x, format!("x >= {t}"), move |v| v >= t)
                })
                .collect();
            let pred = Conjunctive::new(clauses);
            assert_slice_is_smallest_sublattice(&comp, &pred, &format!("seed {seed}"));
        }
    }

    #[test]
    fn random_channel_predicates_match_oracle() {
        let cfg = RandomConfig {
            processes: 3,
            events_per_process: 4,
            send_percent: 60,
            recv_percent: 60,
            ..RandomConfig::default()
        };
        for seed in 100..120 {
            let comp = random_computation(seed, &cfg);
            let p = AtMostInTransit::new(comp.process(0), comp.process(1), 0);
            assert_slice_is_smallest_sublattice(&comp, &p, &format!("seed {seed}"));
        }
    }

    #[test]
    fn least_cuts_agree_with_brute_force() {
        // J_b(e) from the slice must be the least satisfying-closure cut
        // containing e.
        let comp = figure1();
        let x3 = comp.var(comp.process(2), "x3").unwrap();
        let pred = Conjunctive::new(vec![LocalPredicate::int(x3, "x3 <= 3", |x| x <= 3)]);
        let slice = slice_linear(&comp, &pred);
        let cuts = all_cuts(&slice);
        for e in comp.events() {
            let brute = cuts
                .iter()
                .filter(|c| c.count(comp.process_of(e)) > comp.position_of(e))
                .min_by(|a, b| a.size().cmp(&b.size()).then_with(|| a.cmp(b)));
            match (slice.least_cut(e), brute) {
                (Some(j), Some(min)) => assert_eq!(j, min, "event {}", comp.describe_event(e)),
                (None, None) => {}
                (j, b) => panic!(
                    "mismatch for {}: slice {:?} vs brute {:?}",
                    comp.describe_event(e),
                    j,
                    b
                ),
            }
        }
    }
}
