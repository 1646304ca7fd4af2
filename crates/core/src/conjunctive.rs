//! Optimal `O(|E|)` slicing for conjunctive predicates.

use slicing_computation::{Computation, ProcessId};
use slicing_predicates::Conjunctive;

use crate::graft::LeastCuts;
use crate::slice::{Edge, Node, Slice};

/// Computes the (lean) slice of `comp` with respect to a conjunctive
/// predicate in optimal `O(|E|)` time plus the cost of evaluating the local
/// conjuncts once per event.
///
/// A consistent cut satisfies a conjunction of local predicates exactly
/// when every process's *frontier* event satisfies its process's conjuncts.
/// So for every event `e` at which some conjunct of its process is false,
/// no satisfying cut has `e` on the frontier, which is captured by a single
/// local edge:
///
/// - `succ(e) → e` ("if `e` is in the cut, so is its successor"), or
/// - `⊤ → e` when `e` is the last event of its process.
///
/// That is `O(1)` work per event, and the resulting cut set is exactly the
/// satisfying cuts (conjunctive predicates are regular) — this is the
/// optimal algorithm the paper's Section 4.2 invokes for each DNF clause.
pub fn slice_conjunctive<'a>(comp: &'a Computation, pred: &Conjunctive) -> Slice<'a> {
    let mut edges = Vec::new();
    push_conjunctive_edges(comp, pred, &mut edges);
    Slice::new(comp, edges)
}

/// Appends the constraint edges of the conjunctive slice to `out`.
pub(crate) fn push_conjunctive_edges(comp: &Computation, pred: &Conjunctive, out: &mut Vec<Edge>) {
    let _span = slicing_observe::span("slice.conjunctive");
    let mut evals = 0u64;
    for p in comp.processes() {
        // Skip processes hosting no conjunct entirely.
        if pred.clauses_on(p).next().is_none() {
            continue;
        }
        let len = comp.len(p);
        for pos in 0..len {
            evals += 1;
            if pred.holds_at(comp, p, pos) {
                continue;
            }
            let e = comp.event_at(p, pos);
            if pos + 1 < len {
                out.push((Node::Event(comp.event_at(p, pos + 1)), Node::Event(e)));
            } else {
                out.push((Node::Top, Node::Event(e)));
            }
        }
    }
    slicing_observe::counter("slice.conjunctive.evals", evals);
}

/// Meets the least-cut rows of the conjunctive slice into `rows`, without
/// building its constraint graph.
///
/// `J(e)` is the least consistent cut containing `e` whose frontier on
/// every constrained process satisfies that process's conjuncts. Starting
/// from the least cut containing `e`, a false frontier event pushes its
/// process to the next true event (joining that event's causal past) until
/// no false frontier remains; a process with no true event left means no
/// slice cut contains `e`. `J` is monotone along a process, so each event
/// resumes from the previous event's row.
///
/// Returns the number of local evaluations, which the caller emits as
/// `slice.conjunctive.evals` once for all the clauses it meets.
pub(crate) fn meet_conjunctive_rows(
    comp: &Computation,
    pred: &Conjunctive,
    rows: &mut LeastCuts,
) -> u64 {
    let _span = slicing_observe::span("slice.conjunctive");
    let mut evals = 0u64;
    // Per constrained process, the first position at or after each
    // position whose event satisfies the process's conjuncts (`len` when
    // none does) — the truth table the edges above are read from.
    let next_true: Vec<(ProcessId, Vec<u32>)> = comp
        .processes()
        .filter(|&p| pred.clauses_on(p).next().is_some())
        .map(|p| {
            let len = comp.len(p);
            let mut next = vec![len; len as usize];
            let mut t = len;
            for pos in (0..len).rev() {
                evals += 1;
                if pred.holds_at(comp, p, pos) {
                    t = pos;
                }
                next[pos as usize] = t;
            }
            (p, next)
        })
        .collect();
    let mut cur = vec![1u32; comp.num_processes()];
    for p in comp.processes() {
        cur.fill(1);
        for pos in 0..comp.len(p) {
            let e = comp.event_at(p, pos);
            join_counts(&mut cur, comp.min_cut(e).counts());
            if !advance_to_true_frontier(comp, &next_true, &mut cur) {
                // No slice cut holds this event, nor any later one.
                break;
            }
            rows.meet_row(e, &cur);
        }
    }
    evals
}

/// Advances `cur` until every constrained process's frontier is true;
/// `false` when some process runs out of true events.
fn advance_to_true_frontier(
    comp: &Computation,
    next_true: &[(ProcessId, Vec<u32>)],
    cur: &mut [u32],
) -> bool {
    loop {
        let mut moved = false;
        for (q, next) in next_true {
            let frontier = cur[q.as_usize()] - 1;
            let t = next[frontier as usize];
            if t == frontier {
                continue;
            }
            if t == comp.len(*q) {
                return false;
            }
            join_counts(cur, comp.min_cut(comp.event_at(*q, t)).counts());
            moved = true;
        }
        if !moved {
            return true;
        }
    }
}

fn join_counts(cur: &mut [u32], other: &[u32]) {
    for (c, &o) in cur.iter_mut().zip(other) {
        *c = (*c).max(o);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slicing_computation::lattice::all_cuts;
    use slicing_computation::oracle::expected_slice_cuts;
    use slicing_computation::test_fixtures::{figure1, random_computation, RandomConfig};
    use slicing_computation::{Cut, GlobalState};
    use slicing_predicates::{LocalPredicate, Predicate};
    use std::collections::BTreeSet;

    fn figure1_pred(comp: &Computation) -> Conjunctive {
        let x1 = comp.var(comp.process(0), "x1").unwrap();
        let x3 = comp.var(comp.process(2), "x3").unwrap();
        Conjunctive::new(vec![
            LocalPredicate::int(x1, "x1 > 1", |x| x > 1),
            LocalPredicate::int(x3, "x3 <= 3", |x| x <= 3),
        ])
    }

    #[test]
    fn figure1_slice_has_six_cuts() {
        let comp = figure1();
        let pred = figure1_pred(&comp);
        let slice = slice_conjunctive(&comp, &pred);
        let cuts = all_cuts(&slice);
        assert_eq!(cuts.len(), 6);
        for c in &cuts {
            assert!(pred.eval(&GlobalState::new(&comp, c)), "cut {c} not lean");
        }
        // The exact cut vectors from the reconstruction.
        let expect: Vec<Cut> = [
            vec![1, 2, 2],
            vec![1, 2, 3],
            vec![1, 3, 3],
            vec![2, 2, 2],
            vec![2, 2, 3],
            vec![2, 3, 3],
        ]
        .into_iter()
        .map(Cut::from)
        .collect();
        assert_eq!(cuts, expect);
    }

    #[test]
    fn edge_count_is_linear_in_events() {
        let comp = figure1();
        let pred = figure1_pred(&comp);
        let slice = slice_conjunctive(&comp, &pred);
        // At most one edge per event of a constrained process.
        assert!(slice.edges().len() <= comp.num_events());
    }

    #[test]
    fn agrees_with_linear_slicer_and_oracle_on_random_inputs() {
        let cfg = RandomConfig {
            processes: 3,
            events_per_process: 4,
            value_range: 3,
            ..RandomConfig::default()
        };
        for seed in 0..30 {
            let comp = random_computation(seed, &cfg);
            let clauses: Vec<LocalPredicate> = comp
                .processes()
                .map(|p| {
                    let x = comp.var(p, "x").unwrap();
                    let t = (seed % 3) as i64;
                    LocalPredicate::int(x, format!("x != {t}"), move |v| v != t)
                })
                .collect();
            let pred = Conjunctive::new(clauses);

            let fast: BTreeSet<Cut> = all_cuts(&slice_conjunctive(&comp, &pred))
                .into_iter()
                .collect();
            let general: BTreeSet<Cut> = all_cuts(&crate::linear::slice_linear(&comp, &pred))
                .into_iter()
                .collect();
            assert_eq!(fast, general, "seed {seed}: O(|E|) vs O(n²|E|) slicer");

            let (want, sat) = expected_slice_cuts(&comp, |st| pred.eval(st));
            assert_eq!(fast, want, "seed {seed}: oracle");
            // Lean: the closure added nothing.
            assert_eq!(want.len(), sat.len(), "seed {seed}: leanness");
        }
    }

    #[test]
    fn empty_conjunction_gives_full_lattice() {
        let comp = figure1();
        let slice = slice_conjunctive(&comp, &Conjunctive::new(vec![]));
        assert_eq!(all_cuts(&slice).len(), 28);
        assert!(slice.edges().is_empty());
    }

    #[test]
    fn false_final_event_forbidden_via_top() {
        let comp = figure1();
        // x1's last value is 0, so "x1 > 0 at the end" can't hold with d.
        let x1 = comp.var(comp.process(0), "x1").unwrap();
        let pred = Conjunctive::new(vec![LocalPredicate::int(x1, "x1 > 0", |x| x > 0)]);
        let slice = slice_conjunctive(&comp, &pred);
        let d = comp.event_by_label("d").unwrap();
        assert_eq!(slice.least_cut(d), None);
        // c (x1 = -1) is allowed only together with d... which is
        // forbidden, so c is effectively forbidden too.
        let c = comp.event_by_label("c").unwrap();
        assert_eq!(slice.least_cut(c), None);
    }

    #[test]
    fn unsatisfiable_conjunction_empties_slice() {
        let comp = figure1();
        let x2 = comp.var(comp.process(1), "x2").unwrap();
        let pred = Conjunctive::new(vec![LocalPredicate::int(x2, "x2 > 10", |x| x > 10)]);
        assert!(slice_conjunctive(&comp, &pred).is_empty_slice());
    }
}
