//! The differential test of the level-order engine: on arbitrary
//! computations and on conjunctive slices of them, `detect_bfs` must
//! return exactly what the plain global-visited BFS of
//! [`reference_bfs`] returns — the same verdict, the same witness cut, the
//! same explored count, and the same visited hits and inserts — while
//! keeping no more cuts alive than the reference stores. On slices the
//! witness must also have the fewest meta-events of all satisfying cuts.
//!
//! The corpus covers both of the engine's layer-local stores, cuts packed
//! into `u64` keys and counts in arenas, on computations and on slices,
//! on both sides of the 16-process inline→spill boundary of `Cut`.

use std::sync::Arc;

use proptest::prelude::*;

use slicing_computation::lattice::all_cuts;
use slicing_computation::test_fixtures::{random_computation, RandomConfig};
use slicing_computation::{
    Computation, ComputationBuilder, Cut, CutPacking, CutSpace, GlobalState, ProcSet, Value,
};
use slicing_core::{slice_conjunctive, Slice};
use slicing_detect::testkit::reference_bfs;
use slicing_detect::{detect_bfs, Limits};
use slicing_observe::{Level, MemoryRecorder};
use slicing_predicates::{Conjunctive, FnPredicate, LocalPredicate, Predicate};

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
/// boundary. One event per process keeps their cuts packable.
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

/// Wide *and* long computations whose counts do not pack into 63 bits
/// (15 events on each of 15–17 processes), kept small by chaining every
/// event to the next one round-robin with a message — except at a few
/// gaps, each of which lets one event float across a window of others.
fn chained() -> impl Strategy<Value = Computation> {
    (
        any::<u64>(),
        15usize..=17,
        prop::collection::vec(1usize..255, 0..4),
    )
        .prop_map(|(seed, n, gaps)| {
            const EVENTS: usize = 15;
            let mut bld = ComputationBuilder::new(n);
            let vars: Vec<_> = (0..n)
                .map(|i| bld.declare_var(bld.process(i), "x", Value::Int(0)))
                .collect();
            let mut prev = None;
            for t in 0..n * EVENTS {
                let value = (seed >> (t % 61)) as i64 & 1;
                let e = bld.step(bld.process(t % n), &[(vars[t % n], Value::Int(value))]);
                if let Some(p) = prev {
                    if !gaps.contains(&t) {
                        bld.message(p, e).expect("forward message");
                    }
                }
                prev = Some(e);
            }
            bld.build().expect("chain is acyclic")
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

fn packs(comp: &Computation) -> bool {
    let maxima: Vec<u32> = comp.processes().map(|p| comp.len(p)).collect();
    CutPacking::for_maxima(&maxima).is_some()
}

/// Runs `detect_bfs` over `space` and checks it against the reference
/// BFS, field for field. Returns the witness.
fn check_against_reference<S: CutSpace + ?Sized>(
    space: &S,
    comp: &Computation,
    pred: &FnPredicate,
) -> Option<Cut> {
    let rec = Arc::new(MemoryRecorder::new(Level::Trace));
    let d = {
        let _guard = slicing_observe::scoped(rec.clone());
        detect_bfs(space, comp, pred, &Limits::none())
    };
    let reference = reference_bfs(space, comp, pred);
    prop_assert!(d.completed(), "aborted: {:?}", d.aborted);
    prop_assert_eq!(&d.found, &reference.found, "witness");
    prop_assert_eq!(d.cuts_explored, reference.cuts_explored, "explored");
    prop_assert_eq!(
        rec.counter_total("detect.visited.hits"),
        reference.hits,
        "hits"
    );
    prop_assert_eq!(
        rec.counter_total("detect.visited.inserts"),
        reference.inserts,
        "inserts"
    );
    prop_assert!(
        d.max_stored_cuts <= reference.inserts,
        "live set {} exceeds the {} cuts the reference stores",
        d.max_stored_cuts,
        reference.inserts
    );
    d.found
}

/// Brute force: the witness found on `slice` has the smallest meta-event
/// rank of all satisfying slice cuts, and there is none without one.
fn check_witness_rank(
    slice: &Slice<'_>,
    comp: &Computation,
    pred: &FnPredicate,
    witness: Option<Cut>,
) {
    let contains = |cut: &Cut, e| cut.count(comp.process_of(e)) > comp.position_of(e);
    // A slice cut holds each meta-event whole or not at all.
    let metas = slice.meta_events();
    let rank = |cut: &Cut| metas.iter().filter(|m| contains(cut, m[0])).count();
    let min_rank = all_cuts(slice)
        .iter()
        .filter(|c| pred.eval(&GlobalState::new(comp, c)))
        .map(rank)
        .min();
    prop_assert_eq!(witness.as_ref().map(rank), min_rank, "witness rank");
}

/// Checks the computation itself, then the slice of `x@0 >= 1` searched
/// for the same (non-conjunctive) predicate.
fn check(comp: &Computation, target: i64) {
    let pred = sum_equals(comp, target);
    check_against_reference(comp, comp, &pred);
    let x0 = comp.var(comp.process(0), "x").unwrap();
    let clause = Conjunctive::new(vec![LocalPredicate::int(x0, "x >= 1", |v| v >= 1)]);
    let slice = slice_conjunctive(comp, &clause);
    let witness = check_against_reference(&slice, comp, &pred);
    check_witness_rank(&slice, comp, &pred, witness);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bfs_matches_reference_on_narrow_computations(
        comp in narrow(),
        target in 0i64..8,
    ) {
        check(&comp, target);
    }

    #[test]
    fn bfs_matches_reference_past_the_inline_boundary(
        comp in wide(),
        target in 0i64..10,
    ) {
        prop_assert!(packs(&comp));
        check(&comp, target);
    }

    #[test]
    fn bfs_matches_reference_on_unpacked_cuts(
        comp in chained(),
        target in 0i64..20,
    ) {
        prop_assert!(!packs(&comp), "cuts of this corpus must not pack");
        check(&comp, target);
    }
}
