//! End-to-end checks that every detection engine emits a well-formed
//! trace: balanced span enter/exit pairs, the engine's root span, and a
//! `detect.cuts_explored` counter stream whose total matches the
//! [`Detection`](slicing_detect::Detection) the engine returned.

use std::sync::Arc;

use slicing_computation::test_fixtures::figure1;
use slicing_core::PredicateSpec;
use slicing_detect::{
    detect_bfs, detect_pom, detect_reverse_search, detect_with_slicing, Engine, Limits,
    SpecPredicate,
};
use slicing_observe::{Level, MemoryRecorder};
use slicing_predicates::{expr::parse_predicate, Conjunctive, LocalPredicate};

fn figure1_spec(comp: &slicing_computation::Computation) -> PredicateSpec {
    let x1 = comp.var(comp.process(0), "x1").unwrap();
    let x3 = comp.var(comp.process(2), "x3").unwrap();
    PredicateSpec::conjunctive(Conjunctive::new(vec![
        LocalPredicate::int(x1, "x1 > 1", |x| x > 1),
        LocalPredicate::int(x3, "x3 <= 3", |x| x <= 3),
    ]))
}

/// Runs `engine` under a fresh scoped [`MemoryRecorder`] and verifies the
/// emitted stream against the cut total the engine itself reported.
fn check_engine(name: &str, root_span: &str, engine: impl FnOnce() -> u64) {
    let rec = Arc::new(MemoryRecorder::new(Level::Trace));
    let cuts = {
        let _guard = slicing_observe::scoped(rec.clone());
        engine()
    };
    assert!(rec.spans_balanced(), "{name}: unbalanced spans");
    let spans = rec.span_counts();
    let (enters, exits) = spans
        .get(root_span)
        .unwrap_or_else(|| panic!("{name}: no {root_span} span in {spans:?}"));
    assert_eq!(enters, exits, "{name}: {root_span} enter/exit mismatch");
    assert!(*enters >= 1, "{name}: {root_span} never entered");
    assert_eq!(
        rec.counter_total("detect.cuts_explored"),
        cuts,
        "{name}: counter stream disagrees with the returned Detection"
    );
}

#[test]
fn bfs_stream_matches_detection() {
    let comp = figure1();
    let pred = parse_predicate(&comp, "x1@0 > 1 && x3@2 <= 3").unwrap();
    check_engine("bfs", "detect.bfs", || {
        detect_bfs(&comp, &comp, &pred, &Limits::none()).cuts_explored
    });
}

#[test]
fn reverse_search_stream_matches_detection() {
    let comp = figure1();
    let pred = parse_predicate(&comp, "x1@0 > 99").unwrap();
    check_engine("reverse", "detect.reverse", || {
        detect_reverse_search(&comp, &pred, &Limits::none()).cuts_explored
    });
}

#[test]
fn pom_stream_matches_detection() {
    let comp = figure1();
    let pred = parse_predicate(&comp, "x1@0 > 1 && x3@2 <= 3").unwrap();
    check_engine("pom", "detect.pom", || {
        detect_pom(&comp, &pred, &Limits::none()).cuts_explored
    });
}

#[test]
fn slicing_stream_matches_detection() {
    let comp = figure1();
    let spec = figure1_spec(&comp);
    check_engine("slice", "detect.slice_then_search", || {
        detect_with_slicing(&comp, &spec, &Limits::none())
            .search
            .cuts_explored
    });
}

#[test]
fn hybrid_stream_matches_detection() {
    let comp = figure1();
    let spec = figure1_spec(&comp);
    // The hybrid is a chain preset; on figure1 its first engine, POM,
    // answers within budget.
    check_engine("hybrid", "detect.resilient", || {
        let pred = SpecPredicate::new(&spec);
        Engine::Hybrid
            .detect(&comp, &pred, &spec, &Limits::none())
            .cuts_explored
    });
}

#[test]
fn slicing_run_nests_phase_spans_under_the_root() {
    let comp = figure1();
    let spec = figure1_spec(&comp);
    let rec = Arc::new(MemoryRecorder::new(Level::Trace));
    {
        let _guard = slicing_observe::scoped(rec.clone());
        let _ = detect_with_slicing(&comp, &spec, &Limits::none());
    }
    let spans = rec.span_counts();
    for expected in ["detect.slice_phase", "detect.search_phase", "slice.j_table"] {
        assert!(
            spans.contains_key(expected),
            "missing {expected}: {spans:?}"
        );
    }
}

#[test]
fn disabled_recorder_sees_nothing() {
    // No recorder installed: the engines still work and no events leak
    // into a recorder scoped to a *different* level than they need.
    let comp = figure1();
    let pred = parse_predicate(&comp, "x1@0 > 1 && x3@2 <= 3").unwrap();
    let rec = Arc::new(MemoryRecorder::new(Level::Off));
    {
        let _guard = slicing_observe::scoped(rec.clone());
        let d = detect_bfs(&comp, &comp, &pred, &Limits::none());
        assert!(d.detected());
    }
    assert!(
        rec.events().is_empty(),
        "Off-level recorder received events"
    );
}
