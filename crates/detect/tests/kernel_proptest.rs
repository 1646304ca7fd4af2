//! Property tests pinning the fast cut kernel to the brute-force lattice
//! oracle: BFS must return the same verdict as exhaustive enumeration on
//! arbitrary computations — including ones wide enough to spill the `Cut`
//! inline buffer (more than 16 processes), where the pooled arena and
//! hashing take the heap path. The level-order engine's exact agreement
//! with a global-visited BFS is checked separately, in
//! `bfs_oracle_proptest.rs`.

use proptest::prelude::*;

use slicing_computation::lattice::count_cuts;
use slicing_computation::oracle::satisfying_cuts;
use slicing_computation::test_fixtures::{random_computation, RandomConfig};
use slicing_computation::{Computation, Cut, GlobalState, ProcSet};
use slicing_detect::{detect_bfs, Limits};
use slicing_predicates::{FnPredicate, Predicate};

/// Narrow-but-deep computations: few processes, several events each.
fn narrow() -> impl Strategy<Value = Computation> {
    (any::<u64>(), 1usize..=5, 1u32..=4, 0u64..=80).prop_map(|(seed, n, m, msg)| {
        let cfg = RandomConfig {
            processes: n,
            events_per_process: m,
            send_percent: msg,
            recv_percent: msg,
            value_range: 3,
        };
        random_computation(seed, &cfg)
    })
}

/// Wide-but-shallow computations that cross the 16-process inline-cut
/// boundary. One event per process and a high message rate keep the
/// lattice small enough for the exhaustive oracle.
fn wide() -> impl Strategy<Value = Computation> {
    (any::<u64>(), 15usize..=17).prop_map(|(seed, n)| {
        let cfg = RandomConfig {
            processes: n,
            events_per_process: 1,
            send_percent: 70,
            recv_percent: 70,
            value_range: 2,
        };
        random_computation(seed, &cfg)
    })
}

fn sum_equals(comp: &Computation, target: i64) -> FnPredicate {
    let n = comp.num_processes();
    let vars: Vec<_> = comp
        .processes()
        .map(|p| comp.var(p, "x").unwrap())
        .collect();
    FnPredicate::new(ProcSet::all(n), "sum == target", move |st| {
        vars.iter().map(|&v| st.get(v).expect_int()).sum::<i64>() == target
    })
}

/// Checks the kernel-backed engine against the oracle verdict and
/// validates any witness it returns.
fn check_bfs(comp: &Computation, pred: &FnPredicate) {
    let expected = !satisfying_cuts(comp, |st| pred.eval(st)).is_empty();
    let bfs = detect_bfs(comp, comp, pred, &Limits::none());
    prop_assert_eq!(bfs.detected(), expected, "bfs verdict");
    if let Some(cut) = &bfs.found {
        prop_assert!(pred.eval(&GlobalState::new(comp, cut)));
    }
    // On a miss the engine exhausts the lattice.
    if !expected {
        prop_assert_eq!(bfs.cuts_explored, count_cuts(comp, None).value());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn engines_match_oracle_on_narrow_computations(
        comp in narrow(),
        target in 0i64..8,
    ) {
        let pred = sum_equals(&comp, target);
        check_bfs(&comp, &pred);
    }

    #[test]
    fn engines_match_oracle_past_the_inline_boundary(
        comp in wide(),
        target in 0i64..10,
    ) {
        // Spilled representation really is in play at these widths.
        let bottom = Cut::bottom(comp.num_processes());
        prop_assert_eq!(bottom.counts().len(), comp.num_processes());
        let pred = sum_equals(&comp, target);
        check_bfs(&comp, &pred);
    }
}
