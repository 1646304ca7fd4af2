//! Fixed-seed regression pins for the level-order engine's memory
//! counters, mirroring `kernel_regression.rs`.
//!
//! Layers walked, peak live cuts and dedup-store admissions are exact
//! functions of the workload — any drift means the traversal order (and
//! therefore the engine's semantics or its two-layer memory bound)
//! changed, not just its speed. The grid and hypercube pins match the
//! `bfs.*` rows of the committed `BENCH_detect.json`, and the slice pin
//! its `slicing.primary-secondary` peak.

use std::sync::Arc;

use slicing_bench::Workload;
use slicing_computation::test_fixtures::{grid, hypercube};
use slicing_computation::{cut_heap_allocs, Computation, ProcSet};
use slicing_detect::testkit::{reference_bfs, SpecPredicate};
use slicing_detect::{detect_bfs, detect_with_slicing, Limits};
use slicing_observe::{Level, MemoryRecorder};
use slicing_predicates::{FnPredicate, Predicate};

/// (detected, witness size, cuts explored, layers, peak live cuts,
/// visited inserts) for one level-order run.
type Pin = (bool, Option<u64>, u64, u64, u64, u64);

fn bfs_counters<P: Predicate>(tag: &str, comp: &Computation, pred: &P) -> Pin {
    let rec = Arc::new(MemoryRecorder::new(Level::Trace));
    let allocs_before = cut_heap_allocs();
    let d = {
        let _guard = slicing_observe::scoped(rec.clone());
        detect_bfs(comp, comp, pred, &Limits::none())
    };
    assert!(d.completed(), "{tag}: aborted under no limits");
    // These workloads have at most 16 processes: every cut stays inline.
    assert_eq!(cut_heap_allocs(), allocs_before, "{tag}: spilled cuts");
    // Two layers of live cuts, yet the walk of a global-visited BFS.
    let reference = reference_bfs(comp, comp, pred);
    assert_eq!(d.found, reference.found, "{tag}: witness vs reference");
    assert_eq!(
        d.cuts_explored, reference.cuts_explored,
        "{tag}: explored vs reference"
    );
    (
        d.detected(),
        d.found.as_ref().map(|c| c.size()),
        d.cuts_explored,
        rec.counter_total("detect.bfs.layers"),
        d.max_stored_cuts,
        rec.counter_total("detect.visited.inserts"),
    )
}

#[test]
fn grid40_counters_are_pinned() {
    let comp = grid(40, 40);
    let never = FnPredicate::new(ProcSet::all(2), "false", |_| false);
    // 41² cuts in 81 layers; two adjacent layers hold at most 41 + 40.
    assert_eq!(
        bfs_counters("grid40", &comp, &never),
        (false, None, 1681, 81, 81, 1681)
    );
}

#[test]
fn cube5x8_counters_are_pinned() {
    let comp = hypercube(5, 8);
    let never = FnPredicate::new(ProcSet::all(5), "false", |_| false);
    // 9⁵ cuts in 41 layers; the widest layer pair peaks at 7851 live cuts.
    assert_eq!(
        bfs_counters("cube5x8", &comp, &never),
        (false, None, 59049, 41, 7851, 59049)
    );
}

#[test]
fn protocol_counters_are_pinned() {
    // (workload, layers, peak live, witness size, cuts, visited inserts).
    let table = [
        (Workload::PrimarySecondary, 6, 78, 10, 76, 134),
        (Workload::DatabasePartitioning, 25, 268, 29, 1912, 1940),
    ];
    for (w, layers, peak, size, cuts, inserts) in table {
        let healthy = w.simulate(5, 10, 3);
        let faulty = w.inject_fault(&healthy, 3);
        let pred = w.violation_pred(&faulty);
        assert_eq!(
            bfs_counters(w.name(), &faulty, &pred),
            (true, Some(size), cuts, layers, peak, inserts),
            "{}",
            w.name()
        );
    }
}

#[test]
fn primary_secondary_slice_keeps_two_ranks_live() {
    // BENCH_detect's slicing.primary-secondary peak: seed 3's approximate
    // slice (7 processes, 12 events each, fault injected as table_speedup
    // does) holds 187,488 cuts and no violation. Walked by meta-event
    // rank its widest layer pair is 29,624 cuts, where a store of every
    // cut seen peaks at 187,488; the walk is still the global-visited
    // BFS's.
    let w = Workload::PrimarySecondary;
    let faulty = w.inject_fault(&w.simulate(7, 12, 3), 3);
    let spec = w.violation_spec(&faulty);
    let d = detect_with_slicing(&faulty, &spec, &Limits::none()).search;
    assert!(d.completed(), "aborted under no limits: {:?}", d.aborted);
    let reference = reference_bfs(&spec.slice(&faulty), &faulty, &SpecPredicate::new(&spec));
    assert_eq!(d.found, reference.found, "witness vs reference");
    assert_eq!(
        d.cuts_explored, reference.cuts_explored,
        "explored vs reference"
    );
    assert_eq!(
        (d.detected(), d.cuts_explored, d.max_stored_cuts),
        (false, 187_488, 29_624)
    );
}
