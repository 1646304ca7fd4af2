//! Slicing linear (and regular) predicates via least-satisfying-cut
//! computation — the paper's Section 4.3.

use slicing_computation::{Computation, Cut, EventId, GlobalState, ProcSet, ProcessId};
use slicing_predicates::{LinearPredicate, Predicate, RegularPredicate};

use crate::graft::{push_row_edges, LeastCuts};
use crate::slice::{Edge, Slice};

/// Computes the slice of `comp` with respect to a linear predicate that
/// reads `k` processes in `O(nk|E|)` time (Section 4.3).
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
/// (event, process read) pair: `O(k|E|)` edges.
///
/// The walk joins, advances and constrains only the processes `b` reads,
/// its support `S`: a consistent cut containing `e` contains `J_b(e)`
/// exactly when it contains the frontier events of `J_b(e)` on `S`. It
/// still visits the events of every process, because the satisfying cuts
/// of a linear predicate need not be closed under union: an event off `S`
/// can lie above two satisfying cuts whose union violates `b`, and only
/// its own edge then keeps it out of the slice.
///
/// The resulting cut set is the smallest sublattice containing every
/// satisfying cut. For predicates that are in fact *regular* the slice is
/// lean (exactly the satisfying cuts) — see [`slice_regular`].
pub fn slice_linear<'a, P: LinearPredicate + ?Sized>(comp: &'a Computation, pred: &P) -> Slice<'a> {
    let mut edges = Vec::new();
    push_linear_edges(comp, pred, &mut edges);
    Slice::new(comp, edges)
}

/// Computes the slice of a regular predicate — same algorithm as
/// [`slice_linear`], with the additional guarantee (from regularity) that
/// the result is **lean**: its non-trivial cuts are exactly the satisfying
/// cuts. This is the `O(n²|E|)` algorithm of the earlier ICDCS'01 paper
/// that Section 4.3 generalizes.
///
/// Regularity also lets the walk skip the events off the support `S`, as
/// Section 4.1 slices on the projection onto `S`: such an event's least
/// cut is `min_cut(e)` joined with `J_b` of its frontier events on `S`,
/// which their own edges already force. The work is then proportional to
/// the projected size, `O(|S| · (|E_S| + advances))`.
pub fn slice_regular<'a, P: RegularPredicate + ?Sized>(
    comp: &'a Computation,
    pred: &P,
) -> Slice<'a> {
    let mut edges = Vec::new();
    push_regular_edges(comp, pred, &mut edges);
    Slice::new(comp, edges)
}

/// Appends the constraint edges of [`slice_linear`] to `out`.
pub(crate) fn push_linear_edges<P: LinearPredicate + ?Sized>(
    comp: &Computation,
    pred: &P,
    out: &mut Vec<Edge>,
) {
    push_walk_edges(comp, pred, ProcSet::all(comp.num_processes()), out);
}

/// Appends the constraint edges of [`slice_regular`] to `out`: those of
/// the events on the predicate's support only.
pub(crate) fn push_regular_edges<P: RegularPredicate + ?Sized>(
    comp: &Computation,
    pred: &P,
    out: &mut Vec<Edge>,
) {
    push_walk_edges(comp, pred, scope(comp, pred), out);
}

/// Appends, for each event of `events` in process order, the edges from
/// the support's frontier events in the row the §4.3 walk finds.
fn push_walk_edges<P: LinearPredicate + ?Sized>(
    comp: &Computation,
    pred: &P,
    events: ProcSet,
    out: &mut Vec<Edge>,
) {
    let start = out.len();
    let coords = scope(comp, pred);
    linear_walk(comp, pred, events, coords, |e, row| {
        push_row_edges(comp, e, row, coords.iter(), out);
    });
    slicing_observe::counter("slice.linear.edges", (out.len() - start) as u64);
}

/// Meets `J_b(e)` into `rows` for every event some satisfying cut
/// contains: the rows the §4.3 walk finds, with no edge built. An `Or`
/// reads every coordinate of every row, so this walk covers every process.
pub(crate) fn meet_linear_rows<P: LinearPredicate + ?Sized>(
    comp: &Computation,
    pred: &P,
    rows: &mut LeastCuts,
) {
    let all = ProcSet::all(comp.num_processes());
    linear_walk(comp, pred, all, all, |e, row| {
        if let Some(row) = row {
            rows.meet_row(e, row);
        }
    });
}

/// The processes an edge walk of `pred` works on: its support, or every
/// process for a predicate that reads none (a constant, whose walk must
/// still find out whether it holds).
fn scope<P: Predicate + ?Sized>(comp: &Computation, pred: &P) -> ProcSet {
    let support = pred.support();
    if support.is_empty() {
        ProcSet::all(comp.num_processes())
    } else {
        support
    }
}

/// The §4.3 walk: calls `visit` with `J_b(e)` for each event of `events`,
/// in process order, or with `None` when no satisfying cut contains `e`.
/// Only the coordinates in `coords` are joined and advanced; the others
/// stay at 1.
fn linear_walk<P: LinearPredicate + ?Sized>(
    comp: &Computation,
    pred: &P,
    events: ProcSet,
    coords: ProcSet,
    mut visit: impl FnMut(EventId, Option<&[u32]>),
) {
    let _span = slicing_observe::span("slice.linear");
    debug_assert!(
        pred.support().iter().all(|p| coords.contains(p)),
        "predicate reads processes outside the walk"
    );
    let n = comp.num_processes();
    let coord_list: Vec<ProcessId> = coords.iter().collect();
    // Work accounting, emitted once at the end so the hot loop stays
    // allocation- and dispatch-free.
    let evals = std::cell::Cell::new(0u64);
    let advances = std::cell::Cell::new(0u64);

    // Joins a cut with the restriction of `other` to `coords`.
    let join_masked = |cut: &mut Cut, other: &Cut| {
        for &q in &coord_list {
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
            // A coordinate the walk never advances would loop forever.
            assert!(
                coords.contains(p),
                "forbidden process {p} is off the predicate's support"
            );
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

    for p in events.iter() {
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
    use crate::slice::Node;
    use slicing_computation::lattice::all_cuts;
    use slicing_computation::oracle::expected_slice_cuts;
    use slicing_computation::test_fixtures::{figure1, random_computation, RandomConfig};
    use slicing_computation::{Value, VarRef};
    use slicing_predicates::{
        AtLeastInTransit, AtMostInTransit, Conjunctive, LocalPredicate, PendingAtMost,
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

    /// `x0 + x1 <= 1` over counters that only grow: linear (its satisfying
    /// cuts are closed under intersection) but not regular.
    #[derive(Debug)]
    struct SumAtMostOne(VarRef, VarRef);

    impl Predicate for SumAtMostOne {
        fn support(&self) -> ProcSet {
            let mut s = ProcSet::singleton(self.0.process());
            s.insert(self.1.process());
            s
        }

        fn eval(&self, st: &GlobalState<'_>) -> bool {
            st.get(self.0).expect_int() + st.get(self.1).expect_int() <= 1
        }
    }

    impl LinearPredicate for SumAtMostOne {
        fn forbidden_process(&self, _: &GlobalState<'_>) -> ProcessId {
            // No larger cut brings the sum back down: any process is
            // forbidden.
            self.0.process()
        }
    }

    #[test]
    fn linear_walk_keeps_the_events_off_the_support() {
        // p0 and p1 each raise their counter to 1 and tell p2. p2's second
        // receive lies above both raises, so no satisfying cut contains
        // it, although the predicate never reads p2: only its own ⊤ edge
        // keeps it out of the slice. A walk of p0 and p1 alone would let
        // it in.
        let mut b = slicing_computation::ComputationBuilder::new(3);
        let x0 = b.declare_var(b.process(0), "x", Value::Int(0));
        let x1 = b.declare_var(b.process(1), "x", Value::Int(0));
        let raise0 = b.step(b.process(0), &[(x0, Value::Int(1))]);
        let raise1 = b.step(b.process(1), &[(x1, Value::Int(1))]);
        let first = b.append_event(b.process(2));
        let second = b.append_event(b.process(2));
        b.message(raise0, first).unwrap();
        b.message(raise1, second).unwrap();
        let comp = b.build().unwrap();
        let pred = SumAtMostOne(x0, x1);
        assert_slice_is_smallest_sublattice(&comp, &pred, "sum at most one");
        let slice = slice_linear(&comp, &pred);
        assert!(slice.least_cut(first).is_some());
        assert_eq!(slice.least_cut(second), None);
    }

    /// A regular predicate that reads no process and never holds.
    #[derive(Debug)]
    struct Never;

    impl Predicate for Never {
        fn support(&self) -> ProcSet {
            ProcSet::empty()
        }

        fn eval(&self, _: &GlobalState<'_>) -> bool {
            false
        }
    }

    impl LinearPredicate for Never {
        fn forbidden_process(&self, st: &GlobalState<'_>) -> ProcessId {
            st.computation().process(0)
        }
    }

    impl slicing_predicates::PostLinearPredicate for Never {
        fn retreat_process(&self, st: &GlobalState<'_>) -> ProcessId {
            st.computation().process(0)
        }
    }

    impl RegularPredicate for Never {}

    #[test]
    fn constant_predicates_are_walked_on_every_process() {
        // An empty support leaves the walk nothing to scope to: it must
        // still find that `false` holds nowhere and `true` everywhere.
        let comp = figure1();
        assert!(slice_regular(&comp, &Never).is_empty_slice());
        assert_eq!(
            all_cuts(&slice_regular(&comp, &Conjunctive::new(vec![]))).len(),
            28
        );
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
            // The channel says nothing about p2, and the regular walk covers
            // only the support: no edge touches p2, and the cuts are the same.
            let p2 = comp.process(2);
            let on_p2 = |n: Node| matches!(n, Node::Event(e) if comp.process_of(e) == p2);
            let regular = slice_regular(&comp, &p);
            assert!(
                regular.edges().iter().all(|&(u, v)| !on_p2(u) && !on_p2(v)),
                "seed {seed}"
            );
            assert_eq!(
                all_cuts(&regular),
                all_cuts(&slice_linear(&comp, &p)),
                "seed {seed}"
            );
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
