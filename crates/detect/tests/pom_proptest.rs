//! Property tests for the partial-order-methods engine: its verdict must
//! match full enumeration on arbitrary computations and predicate shapes —
//! selective search may prune interleavings but never detections — and it
//! must explore exactly as the pairwise-scan reference in `reference_pom`
//! does, state for state and byte for byte.

mod reference_pom;

use std::sync::Arc;

use proptest::prelude::*;

use reference_pom::reference_pom;
use slicing_computation::test_fixtures::{random_computation, RandomConfig};
use slicing_computation::{Computation, CutPacking, GlobalState, ProcSet, ProcessId};
use slicing_detect::{detect_bfs, detect_pom, detect_reverse_search, Detection, Limits};
use slicing_observe::{Level, MemoryRecorder};
use slicing_predicates::{FnPredicate, Predicate};

fn computations() -> impl Strategy<Value = Computation> {
    (any::<u64>(), 2usize..=5, 1u32..=4, 0u64..=80).prop_map(|(seed, n, m, msg)| {
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

/// Predicate shapes with varying support width and rarity.
#[derive(Debug, Clone, Copy)]
enum Shape {
    SumEquals(i64),
    PairProduct(i64),
    AllAtLeast(i64),
    TransitNonEmpty,
}

fn shapes() -> impl Strategy<Value = Shape> {
    prop_oneof![
        (0i64..8).prop_map(Shape::SumEquals),
        (0i64..5).prop_map(Shape::PairProduct),
        (0i64..3).prop_map(Shape::AllAtLeast),
        Just(Shape::TransitNonEmpty),
    ]
}

fn build(shape: Shape, comp: &Computation) -> FnPredicate {
    let n = comp.num_processes();
    let vars: Vec<_> = comp
        .processes()
        .map(|p| comp.var(p, "x").unwrap())
        .collect();
    match shape {
        Shape::SumEquals(t) => FnPredicate::new(ProcSet::all(n), "sum == t", move |st| {
            vars.iter().map(|&v| st.get(v).expect_int()).sum::<i64>() == t
        }),
        Shape::PairProduct(t) => {
            let a = vars[0];
            let b = vars[n - 1];
            let mut support = ProcSet::singleton(a.process());
            support.insert(b.process());
            FnPredicate::new(support, "x0 * xl == t", move |st| {
                st.get(a).expect_int() * st.get(b).expect_int() == t
            })
        }
        Shape::AllAtLeast(t) => FnPredicate::new(ProcSet::all(n), "all >= t", move |st| {
            vars.iter().all(|&v| st.get(v).expect_int() >= t)
        }),
        Shape::TransitNonEmpty => FnPredicate::new(ProcSet::all(n), "transit > 0", move |st| {
            let comp = st.computation();
            comp.processes()
                .any(|p| comp.processes().any(|q| p != q && st.in_transit(p, q) > 0))
        }),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn pom_matches_bfs_verdict(comp in computations(), shape in shapes()) {
        let pred = build(shape, &comp);
        let limits = Limits::none();
        let bfs = detect_bfs(&comp, &comp, &pred, &limits);
        let pom = detect_pom(&comp, &pred, &limits);
        prop_assert_eq!(pom.detected(), bfs.detected(), "{:?}", shape);
        // Witnesses, when produced, genuinely satisfy the predicate.
        if let Some(cut) = &pom.found {
            prop_assert!(pred.eval(&GlobalState::new(&comp, cut)));
        }
        // Selectivity: never more cuts than the full lattice sweep.
        if !bfs.detected() {
            prop_assert!(pom.cuts_explored <= bfs.cuts_explored);
        }
    }

    #[test]
    fn reverse_search_matches_bfs_verdict(comp in computations(), shape in shapes()) {
        let pred = build(shape, &comp);
        let limits = Limits::none();
        let bfs = detect_bfs(&comp, &comp, &pred, &limits);
        let rev = detect_reverse_search(&comp, &pred, &limits);
        prop_assert_eq!(rev.detected(), bfs.detected(), "{:?}", shape);
        if !bfs.detected() {
            // Both exhaust the lattice; reverse search must count the same
            // number of cuts despite storing none of them.
            prop_assert_eq!(rev.cuts_explored, bfs.cuts_explored);
        }
    }
}

/// A random computation with messages, for the differential against the
/// reference engine.
fn messaging(seed: u64, processes: usize, events_per_process: u32, msg: u64) -> Computation {
    let cfg = RandomConfig {
        processes,
        events_per_process,
        send_percent: msg,
        recv_percent: msg,
        value_range: 3,
    };
    random_computation(seed, &cfg)
}

/// `Σ x == target` over the processes of `mask` (never empty): a
/// predicate whose support is a strict subset of the processes whenever
/// the mask is, so persistent and sleep sets have transitions to prune.
fn partial_sum(comp: &Computation, mask: u64, target: i64) -> FnPredicate {
    let n = comp.num_processes();
    let bits = mask & ((1u64 << n) - 1);
    let bits = if bits == 0 {
        1 << (mask % n as u64)
    } else {
        bits
    };
    let support: ProcSet = (0..n)
        .filter(|&i| bits >> i & 1 == 1)
        .map(ProcessId::new)
        .collect();
    let vars: Vec<_> = support.iter().map(|p| comp.var(p, "x").unwrap()).collect();
    FnPredicate::new(support, "partial sum == t", move |st| {
        vars.iter().map(|&v| st.get(v).expect_int()).sum::<i64>() == target
    })
}

/// Everything the two engines must agree on: the found cut, the tracked
/// counts and bytes, the abort, and the visited hits/inserts and both
/// pruning counters as a trace recorder sees them. Probes are left out:
/// they count the slots of whichever table holds the states.
type Observed = (
    Option<Vec<u32>>,
    [u64; 3],
    Option<slicing_detect::AbortReason>,
    [u64; 4],
);

fn observe(run: impl FnOnce() -> Detection) -> Observed {
    let rec = Arc::new(MemoryRecorder::new(Level::Trace));
    let d = {
        let _guard = slicing_observe::scoped(rec.clone());
        run()
    };
    (
        d.found.map(|c| c.counts().to_vec()),
        [d.cuts_explored, d.max_stored_cuts, d.peak_bytes],
        d.aborted,
        [
            rec.counter_total("detect.visited.hits"),
            rec.counter_total("detect.visited.inserts"),
            rec.counter_total("detect.pom.sleep_set_skips"),
            rec.counter_total("detect.pom.persistent_pruned"),
        ],
    )
}

fn both(comp: &Computation, pred: &FnPredicate, limits: &Limits) -> (Observed, Observed) {
    (
        observe(|| detect_pom(comp, pred, limits)),
        observe(|| reference_pom(comp, pred, limits)),
    )
}

#[test]
fn differential_inputs_exercise_both_prunings() {
    // The property below is only as strong as its inputs: most of them
    // must make both the persistent and the sleep sets prune.
    let mut pruned = 0;
    for seed in 0..100u64 {
        let comp = messaging(seed, 2 + (seed % 5) as usize, 3, 40);
        let pred = partial_sum(&comp, seed.wrapping_mul(0x9E37_79B9), 99);
        let (got, want) = both(&comp, &pred, &Limits::none());
        assert_eq!(got, want, "seed {seed}");
        if got.3[2] > 0 && got.3[3] > 0 {
            pruned += 1;
        }
    }
    assert!(pruned >= 50, "only {pruned} of 100 inputs pruned both ways");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn pom_explores_exactly_as_the_reference(
        (seed, n, m, msg) in (any::<u64>(), 2usize..=6, 1u32..=4, 0u64..=80),
        (mask, target, cap) in (any::<u64>(), 0i64..=12, 0u64..400),
    ) {
        let comp = messaging(seed, n, m, msg);
        let maxima: Vec<u32> = comp.processes().map(|p| comp.len(p)).collect();
        prop_assert!(CutPacking::for_maxima(&maxima).is_some());
        let pred = partial_sum(&comp, mask, target);
        // A cap of 0 stands for no limit.
        let limits = if cap == 0 { Limits::none() } else { Limits::cuts(cap) };
        let (got, want) = both(&comp, &pred, &limits);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn unpackable_pom_explores_exactly_as_the_reference(
        (seed, n, msg) in (any::<u64>(), 22usize..=30, 0u64..=60),
        (mask, cap) in (any::<u64>(), 1u64..300),
    ) {
        // Three events per process need 3-bit lanes: 22 or more processes
        // do not fit a 63-bit key, so the engine keeps whole cuts.
        let comp = messaging(seed, n, 3, msg);
        let maxima: Vec<u32> = comp.processes().map(|p| comp.len(p)).collect();
        prop_assert!(CutPacking::for_maxima(&maxima).is_none());
        let pred = partial_sum(&comp, mask, 99);
        let (got, want) = both(&comp, &pred, &Limits::cuts(cap));
        prop_assert_eq!(got, want);
    }
}
