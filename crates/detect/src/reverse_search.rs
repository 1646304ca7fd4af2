//! Polynomial-space detection by reverse-search enumeration.
//!
//! The paper points to Alagar and Venkatesan's linear-space lattice
//! traversal as an orthogonal technique that can be combined with slicing.
//! This module implements a polynomial-space enumeration in the same
//! spirit: a *reverse search* over a canonical spanning tree of the cut
//! lattice. Each non-bottom cut has a unique canonical parent (remove its
//! maximal event with the largest process index), so depth-first traversal
//! of the tree needs **no visited set** — memory is `O(n · depth)` instead
//! of exponential.

use std::time::Instant;

use slicing_computation::{Computation, Cut, GlobalState, ProcessId};
use slicing_predicates::Predicate;

use crate::metrics::{AbortReason, Detection, Limits, Tracker};

/// `true` if the frontier event of `p` in `cut` is maximal: no other event
/// of the cut causally follows it.
fn frontier_is_maximal(comp: &Computation, cut: &Cut, p: ProcessId) -> bool {
    let cp = cut.count(p);
    if cp < 2 {
        return false; // initial events are never removable
    }
    comp.processes().all(|q| {
        if q == p {
            return true;
        }
        let fq = comp.frontier(cut, q);
        comp.min_cut(fq).count(p) < cp
    })
}

/// The canonical removal process of a non-bottom cut: the maximal frontier
/// event with the largest process index.
fn canonical_removal(comp: &Computation, cut: &Cut) -> Option<ProcessId> {
    (0..comp.num_processes())
        .rev()
        .map(ProcessId::new)
        .find(|&p| frontier_is_maximal(comp, cut, p))
}

/// Detects `possibly: pred` over the computation's cut lattice using
/// reverse search: polynomial space, no stored cut set.
///
/// Explores every consistent cut exactly once. Compared with
/// [`detect_bfs`](crate::detect_bfs) it trades the visited set (and the
/// early-exit ordering of BFS) for `O(n·|E|)` worst-case memory.
pub fn detect_reverse_search<P: Predicate + ?Sized>(
    comp: &Computation,
    pred: &P,
    limits: &Limits,
) -> Detection {
    let _span = slicing_observe::span("detect.reverse");
    let start = Instant::now();
    let mut tracker = Tracker::default();
    let n = comp.num_processes();
    let frame_bytes = (std::mem::size_of::<Cut>() + 4 * n + 8) as u64;

    // Explicit DFS over the canonical spanning tree: frames hold the cut
    // and the next process index to try extending with.
    let mut stack: Vec<(Cut, usize)> = vec![(Cut::bottom(n), 0)];
    tracker.store_cut(frame_bytes);

    // Visit the bottom cut.
    tracker.cuts_explored += 1;
    match pred.try_eval(&GlobalState::new(comp, &Cut::bottom(n))) {
        Ok(true) => return tracker.finish(Some(Cut::bottom(n)), start.elapsed(), None),
        Ok(false) => {}
        Err(_) => return tracker.finish(None, start.elapsed(), Some(AbortReason::PredicateError)),
    }

    while let Some((cut, next_p)) = stack.last_mut() {
        let mut advanced = None;
        for i in *next_p..n {
            let p = ProcessId::new(i);
            if !comp.can_advance(cut, p) {
                continue;
            }
            let mut child = cut.clone();
            child.set_count(p, cut.count(p) + 1);
            // Child belongs to this parent iff removing the canonical
            // maximal event undoes exactly this advance.
            if canonical_removal(comp, &child) == Some(p) {
                *next_p = i + 1;
                advanced = Some(child);
                break;
            }
        }
        match advanced {
            Some(child) => {
                tracker.cuts_explored += 1;
                match pred.try_eval(&GlobalState::new(comp, &child)) {
                    Ok(true) => return tracker.finish(Some(child), start.elapsed(), None),
                    Ok(false) => {}
                    Err(_) => {
                        return tracker.finish(
                            None,
                            start.elapsed(),
                            Some(AbortReason::PredicateError),
                        )
                    }
                }
                if let Some(reason) = tracker.over_limit(limits, start) {
                    return tracker.finish(None, start.elapsed(), Some(reason));
                }
                stack.push((child, 0));
                tracker.store_cut(frame_bytes);
            }
            None => {
                slicing_observe::counter("detect.reverse.backtracks", 1);
                stack.pop();
                tracker.drop_cut(frame_bytes);
            }
        }
    }
    tracker.finish(None, start.elapsed(), None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use slicing_computation::lattice::count_cuts;
    use slicing_computation::oracle::satisfying_cuts;
    use slicing_computation::test_fixtures::{figure1, grid, random_computation, RandomConfig};
    use slicing_computation::ProcSet;
    use slicing_predicates::{expr::parse_predicate, FnPredicate};

    #[test]
    fn enumerates_every_cut_exactly_once() {
        for (a, b) in [(2, 3), (4, 4), (1, 5)] {
            let comp = grid(a, b);
            let never = FnPredicate::new(ProcSet::all(2), "false", |_| false);
            let d = detect_reverse_search(&comp, &never, &Limits::none());
            assert_eq!(d.cuts_explored, count_cuts(&comp, None).value(), "{a}x{b}");
        }
        let comp = figure1();
        let never = FnPredicate::new(ProcSet::all(3), "false", |_| false);
        let d = detect_reverse_search(&comp, &never, &Limits::none());
        assert_eq!(d.cuts_explored, 28);
    }

    #[test]
    fn exact_count_on_random_computations() {
        let cfg = RandomConfig {
            processes: 4,
            events_per_process: 3,
            send_percent: 50,
            recv_percent: 50,
            ..RandomConfig::default()
        };
        for seed in 0..20 {
            let comp = random_computation(seed, &cfg);
            let never = FnPredicate::new(ProcSet::all(4), "false", |_| false);
            let d = detect_reverse_search(&comp, &never, &Limits::none());
            assert_eq!(
                d.cuts_explored,
                count_cuts(&comp, None).value(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn agrees_with_oracle_on_detection() {
        let cfg = RandomConfig {
            processes: 3,
            events_per_process: 4,
            value_range: 3,
            ..RandomConfig::default()
        };
        for seed in 0..25 {
            let comp = random_computation(seed, &cfg);
            let x0 = comp.var(comp.process(0), "x").unwrap();
            let x2 = comp.var(comp.process(2), "x").unwrap();
            let t = (seed % 4) as i64;
            let pred = FnPredicate::new(ProcSet::all(3), "x0 * x2 == t", move |st| {
                st.get(x0).expect_int() * st.get(x2).expect_int() == t
            });
            let d = detect_reverse_search(&comp, &pred, &Limits::none());
            let oracle = !satisfying_cuts(&comp, |st| pred.eval(st)).is_empty();
            assert_eq!(d.detected(), oracle, "seed {seed}");
        }
    }

    #[test]
    fn memory_stays_polynomial() {
        // A 10×10 grid has 121 cuts but depth ≤ 21: far fewer stored
        // frames than BFS would store cuts.
        let comp = grid(10, 10);
        let never = FnPredicate::new(ProcSet::all(2), "false", |_| false);
        let d = detect_reverse_search(&comp, &never, &Limits::none());
        assert_eq!(d.cuts_explored, 121);
        assert!(d.max_stored_cuts <= 22, "stored {}", d.max_stored_cuts);
        let bfs = crate::detect_bfs(&comp, &comp, &never, &Limits::none());
        assert!(d.peak_bytes < bfs.peak_bytes);
    }

    #[test]
    fn finds_witnesses() {
        let comp = figure1();
        let pred = parse_predicate(&comp, "x1@0 > 1 && x3@2 <= 3").unwrap();
        let d = detect_reverse_search(&comp, &pred, &Limits::none());
        assert!(d.detected());
    }

    #[test]
    fn respects_cut_limit() {
        let comp = grid(8, 8);
        let never = FnPredicate::new(ProcSet::all(2), "false", |_| false);
        let d = detect_reverse_search(&comp, &never, &Limits::cuts(10));
        assert!(!d.completed());
    }
}
