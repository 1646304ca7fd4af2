//! Fixed-seed regression pins for the level-order engine's memory
//! counters, mirroring `kernel_regression.rs`.
//!
//! The expected values below were captured from the run that produced the
//! committed `BENCH_memory.json`. Layers walked and peak live cuts are
//! exact functions of the workload — any drift means the traversal order
//! (and therefore the engine's semantics or its two-layer memory bound)
//! changed, not just its speed.

use std::sync::Arc;

use slicing_bench::Workload;
use slicing_computation::test_fixtures::{grid, hypercube};
use slicing_computation::{Computation, ProcSet};
use slicing_detect::testkit::reference_bfs;
use slicing_detect::{detect_bfs, Limits};
use slicing_observe::{Level, MemoryRecorder};
use slicing_predicates::{FnPredicate, Predicate};

/// (detected, witness size, cuts explored, layers, peak live cuts) for one
/// level-order run.
type Pin = (bool, Option<u64>, u64, u64, u64);

fn bfs_counters<P: Predicate>(tag: &str, comp: &Computation, pred: &P) -> Pin {
    let rec = Arc::new(MemoryRecorder::new(Level::Trace));
    let d = {
        let _guard = slicing_observe::scoped(rec.clone());
        detect_bfs(comp, comp, pred, &Limits::none())
    };
    assert!(d.completed(), "{tag}: aborted under no limits");
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
    )
}

#[test]
fn grid40_counters_are_pinned() {
    let comp = grid(40, 40);
    let never = FnPredicate::new(ProcSet::all(2), "false", |_| false);
    // 41² cuts in 81 layers; two adjacent layers hold at most 41 + 40.
    assert_eq!(
        bfs_counters("grid40", &comp, &never),
        (false, None, 1681, 81, 81)
    );
}

#[test]
fn cube5x8_counters_are_pinned() {
    let comp = hypercube(5, 8);
    let never = FnPredicate::new(ProcSet::all(5), "false", |_| false);
    // 9⁵ cuts in 41 layers; the widest layer pair peaks at 7851 live cuts.
    assert_eq!(
        bfs_counters("cube5x8", &comp, &never),
        (false, None, 59049, 41, 7851)
    );
}

#[test]
fn protocol_counters_are_pinned() {
    // (workload, layers, peak live, witness size, cuts).
    let table = [
        (Workload::PrimarySecondary, 6, 78, 10, 76),
        (Workload::DatabasePartitioning, 25, 268, 29, 1912),
    ];
    for (w, layers, peak, size, cuts) in table {
        let healthy = w.simulate(5, 10, 3);
        let faulty = w.inject_fault(&healthy, 3);
        let pred = w.violation_pred(&faulty);
        assert_eq!(
            bfs_counters(w.name(), &faulty, &pred),
            (true, Some(size), cuts, layers, peak),
            "{}",
            w.name()
        );
    }
}
