//! All detection engines must agree with each other and with the
//! brute-force oracle on `possibly: b`.

use proptest::prelude::*;

use computation_slicing::computation::oracle::satisfying_cuts;
use computation_slicing::computation::test_fixtures::{random_computation, RandomConfig};
use computation_slicing::{
    detect_bfs, detect_pom, detect_reverse_search, detect_with_slicing, Computation, Conjunctive,
    FnPredicate, GlobalState, KLocalPredicate, Limits, LocalPredicate, Predicate, PredicateSpec,
    ProcSet,
};

fn computations() -> impl Strategy<Value = Computation> {
    (any::<u64>(), 2usize..=4, 2u32..=4, 0u64..=70).prop_map(|(seed, n, m, msg)| {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// BFS, reverse search, and POM agree with the oracle on an
    /// arbitrary (structureless) predicate.
    #[test]
    fn engines_agree_on_arbitrary_predicates(comp in computations(), t in 0i64..6) {
        let n = comp.num_processes();
        let vars: Vec<_> = comp.processes().map(|p| comp.var(p, "x").unwrap()).collect();
        let pred = FnPredicate::new(ProcSet::all(n), "sum == t", move |st| {
            vars.iter().map(|&v| st.get(v).expect_int()).sum::<i64>() == t
        });
        let oracle = !satisfying_cuts(&comp, |st| pred.eval(st)).is_empty();
        let limits = Limits::none();

        prop_assert_eq!(detect_bfs(&comp, &comp, &pred, &limits).detected(), oracle);
        prop_assert_eq!(detect_reverse_search(&comp, &pred, &limits).detected(), oracle);
        prop_assert_eq!(detect_pom(&comp, &pred, &limits).detected(), oracle);
    }

    /// The slice-then-search pipeline agrees with direct search on
    /// composed specifications, and its witnesses genuinely satisfy the
    /// predicate.
    #[test]
    fn slicing_pipeline_agrees(comp in computations(), t in 0i64..3) {
        let x0 = comp.var(comp.process(0), "x").unwrap();
        let x1 = comp.var(comp.process(1), "x").unwrap();
        let spec = PredicateSpec::or(vec![
            PredicateSpec::klocal(KLocalPredicate::new(
                vec![x0, x1],
                "x0 == x1 + 1",
                |v| v[0].expect_int() == v[1].expect_int() + 1,
            )),
            PredicateSpec::conjunctive(Conjunctive::new(vec![LocalPredicate::int(
                x0,
                format!("x0 >= {t}"),
                move |v| v >= t,
            )])),
        ]);
        let outcome = detect_with_slicing(&comp, &spec, &Limits::none());
        let oracle = !satisfying_cuts(&comp, |st| spec.eval(st)).is_empty();
        prop_assert_eq!(outcome.detected(), oracle);
        if let Some(cut) = &outcome.search.found {
            prop_assert!(spec.eval(&GlobalState::new(&comp, cut)));
        }
    }

    /// POM never explores more cuts than full BFS (selective search only
    /// prunes), while still agreeing on the verdict.
    #[test]
    fn pom_explores_a_subset(comp in computations()) {
        let pred = FnPredicate::new(ProcSet::empty(), "false", |_| false);
        let bfs = detect_bfs(&comp, &comp, &pred, &Limits::none());
        let pom = detect_pom(&comp, &pred, &Limits::none());
        prop_assert!(pom.cuts_explored <= bfs.cuts_explored);
        prop_assert!(!pom.detected() && !bfs.detected());
    }
}

/// A regression-style deterministic case: detection across engines on a
/// protocol run with a fault.
#[test]
fn engines_agree_on_a_faulty_protocol_run() {
    use computation_slicing::sim::fault::inject_primary_secondary_fault;
    use computation_slicing::sim::primary_secondary::{self, PrimarySecondary};
    use computation_slicing::sim::{run, SimConfig};

    let cfg = SimConfig {
        seed: 6,
        max_events_per_process: 8,
        ..SimConfig::default()
    };
    let comp = run(&mut PrimarySecondary::new(3), &cfg).unwrap();
    let (faulty, _) = inject_primary_secondary_fault(&comp, 2).unwrap();

    let inv = primary_secondary::invariant(&faulty);
    let not_inv = {
        let inv = inv.clone();
        FnPredicate::new(ProcSet::all(3), "¬I_ps", move |st| !inv.eval(st))
    };
    let spec = primary_secondary::violation_spec(&faulty);

    let bfs = detect_bfs(&faulty, &faulty, &not_inv, &Limits::none());
    let pom = detect_pom(&faulty, &not_inv, &Limits::none());
    let rev = detect_reverse_search(&faulty, &not_inv, &Limits::none());
    let sliced = detect_with_slicing(&faulty, &spec, &Limits::none());

    assert_eq!(bfs.detected(), pom.detected());
    assert_eq!(bfs.detected(), rev.detected());
    assert_eq!(bfs.detected(), sliced.detected());
}
