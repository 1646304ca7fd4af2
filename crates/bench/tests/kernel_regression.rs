//! Fixed-seed engine regression suite for the cut kernel.
//!
//! The expected values below were captured from the pre-kernel
//! implementation (every engine backed by `std::collections::HashSet<Cut>`
//! with heap-allocated `Cut(Vec<u32>)` payloads). The pooled `CutSet` /
//! `CutMap64` kernel, the `Arc`-shared slice J-table, and the two-layer
//! level-order BFS must reproduce them bit-for-bit: same verdict, same
//! witness size, same number of cuts explored. Any divergence means the
//! optimization changed semantics, not just speed.

use std::sync::Arc;

use slicing_bench::Workload;
use slicing_computation::lattice::count_cuts;
use slicing_computation::test_fixtures::{figure1, grid, random_computation, RandomConfig};
use slicing_computation::{cut_heap_allocs, Computation, Cut, ProcSet};
use slicing_detect::{detect_bfs, detect_pom, detect_reverse_search, detect_with_slicing, Limits};
use slicing_observe::{Level, MemoryRecorder, OwnedEvent};
use slicing_predicates::{expr::parse_predicate, FnPredicate};
use slicing_recover::{recovery_line, LineMethod, RecoverConfig, RecoveryLine};
use slicing_sim::{inject_plan, primary_secondary, sample_fault_plan};

/// (detected, witness size, cuts explored) for one engine run.
type Row = (bool, Option<u64>, u64);

fn check(tag: &str, comp: &Computation, pred: &FnPredicate, expect: [Row; 3]) {
    let l = Limits::none();
    let rows = [
        ("bfs", detect_bfs(comp, comp, pred, &l)),
        ("pom", detect_pom(comp, pred, &l)),
        ("rev", detect_reverse_search(comp, pred, &l)),
    ];
    for ((name, d), want) in rows.into_iter().zip(expect) {
        let got = (
            d.detected(),
            d.found.as_ref().map(|c| c.size()),
            d.cuts_explored,
        );
        assert_eq!(got, want, "{tag} {name}");
    }
}

#[test]
fn random_computations_match_the_old_kernel() {
    let cfg = RandomConfig {
        processes: 4,
        events_per_process: 4,
        value_range: 3,
        send_percent: 40,
        recv_percent: 40,
    };
    // seed → (bfs, pom, rev) rows.
    let table: [(u64, [Row; 3]); 4] = [
        (
            1,
            [
                (true, Some(7), 25),
                (true, Some(13), 27),
                (true, Some(8), 160),
            ],
        ),
        (
            7,
            [(true, Some(6), 8), (true, Some(11), 8), (true, Some(11), 8)],
        ),
        (
            13,
            [(true, Some(7), 29), (true, Some(7), 4), (true, Some(8), 5)],
        ),
        (
            42,
            [(true, Some(4), 1), (true, Some(4), 1), (true, Some(4), 1)],
        ),
    ];
    for (seed, expect) in table {
        let comp = random_computation(seed, &cfg);
        let vars: Vec<_> = comp
            .processes()
            .map(|p| comp.var(p, "x").unwrap())
            .collect();
        let t = (seed % 5) as i64;
        let pred = FnPredicate::new(ProcSet::all(4), "sum == t", move |st| {
            vars.iter().map(|&v| st.get(v).expect_int()).sum::<i64>() == t
        });
        check(&format!("rand{seed}"), &comp, &pred, expect);
    }
}

#[test]
fn figure1_paper_predicate_matches_the_old_kernel() {
    let comp = figure1();
    let pred = parse_predicate(&comp, "x1@0 * x2@1 + x3@2 < 5 && x1@0 > 1 && x3@2 <= 3").unwrap();
    let d = detect_bfs(&comp, &comp, &pred, &Limits::none());
    assert!(d.detected());
    assert_eq!(d.found.as_ref().map(|c| c.size()), Some(5));
    assert_eq!(d.cuts_explored, 6);
}

#[test]
fn exhaustive_grid_sweep_matches_the_old_kernel() {
    // Unsatisfiable predicate: every engine sweeps all 13×13 = 169 cuts.
    let comp = grid(12, 12);
    let never = FnPredicate::new(ProcSet::all(2), "false", |_| false);
    check(
        "grid12",
        &comp,
        &never,
        [(false, None, 169), (false, None, 169), (false, None, 169)],
    );
}

#[test]
fn protocol_slicing_pipeline_matches_the_old_kernel() {
    for (seed, size) in [(3u64, 10), (8, 8)] {
        let comp = Workload::PrimarySecondary.simulate(5, 10, seed);
        let faulty = Workload::PrimarySecondary.inject_fault(&comp, seed);
        let spec = primary_secondary::violation_spec(&faulty);
        let s = detect_with_slicing(&faulty, &spec, &Limits::none());
        assert!(s.detected(), "seed {seed}");
        assert_eq!(
            s.search.found.as_ref().map(|c| c.size()),
            Some(size),
            "seed {seed}"
        );
        assert_eq!(s.search.cuts_explored, 1, "seed {seed}");
    }
}

#[test]
fn protocol_workload_counters_are_pinned() {
    // The scenario-zoo workloads through the same slicing pipeline:
    // detection verdict, cuts explored, J-row joins, and the visited-set
    // probe/hit/insert counters are exact functions of the fixed seed, and
    // each spec builds one J table. The co-regular bases' §4.3 walks cover
    // only the two processes each `MonotoneDominates`/`BoundedDifference`
    // reads, which the predicate evaluations pin.
    //
    // (workload, seed, cuts, row_joins, probes, hits, inserts, linear
    // evals, co-regular violations, conjunctive evals, graft row meets)
    let table = [
        (
            Workload::LeaderElection,
            2u64,
            1u64,
            21u64,
            1u64,
            0u64,
            1u64,
            0u64,
            0u64,
            (223u64, 25u64),
        ),
        (
            Workload::CrdtReplication,
            0,
            1,
            17,
            1,
            0,
            1,
            336,
            0,
            (261, 160),
        ),
        (Workload::WorkQueue, 0, 1, 24, 1, 0, 1, 45, 0, (44, 62)),
    ];
    for (w, seed, cuts, row_joins, probes, hits, inserts, evals, violations, leaf_work) in table {
        let comp = w.simulate(4, 8, seed);
        let faulty = w.inject_fault(&comp, seed.wrapping_mul(1009));
        let spec = w.violation_spec(&faulty);
        let rec = Arc::new(MemoryRecorder::new(Level::Trace));
        let s = {
            let _guard = slicing_observe::scoped(rec.clone());
            detect_with_slicing(&faulty, &spec, &Limits::none())
        };
        let tag = format!("{} seed {seed}", w.name());
        assert!(s.detected(), "{tag}");
        let got = (
            s.search.cuts_explored,
            rec.counter_total("slice.j_table.row_joins"),
            rec.counter_total("detect.visited.probes"),
            rec.counter_total("detect.visited.hits"),
            rec.counter_total("detect.visited.inserts"),
        );
        assert_eq!(got, (cuts, row_joins, probes, hits, inserts), "{tag}");
        assert_eq!(
            rec.counter_total("slice.j_table.builds"),
            1,
            "{tag}: J tables"
        );
        let walks = (
            rec.counter_total("slice.linear.evals"),
            rec.counter_total("slice.co_regular.violations"),
        );
        assert_eq!(walks, (evals, violations), "{tag}: §4.3 walks");
        let leaves = (
            rec.counter_total("slice.conjunctive.evals"),
            rec.counter_total("slice.graft.row_meets"),
        );
        assert_eq!(leaves, leaf_work, "{tag}: leaf evaluations and row meets");
    }
}

#[test]
fn pom_memory_inputs_are_pinned() {
    // The partial-order baseline's charged bytes and stored states are
    // the POM side of Figures 2/3 and of §5.1's out-of-memory rate, and
    // they drive the hybrid's switch to slicing. Values captured from the
    // engine of pairwise dependence scans over whole cuts; the bitmask
    // relations over packed states must reproduce them, with the visited
    // hits/inserts and both pruning counters (the probes follow the
    // table, so they are not pinned).
    let ps = Workload::PrimarySecondary;
    let db = Workload::DatabasePartitioning;
    let injected = |w: Workload, seed: u64| {
        let faulty = w.inject_fault(&w.simulate(5, 10, seed), seed);
        let pred = w.violation_pred(&faulty);
        (faulty, pred)
    };
    let partial = || {
        let cfg = RandomConfig {
            processes: 5,
            events_per_process: 4,
            value_range: 3,
            send_percent: 40,
            recv_percent: 40,
        };
        let comp = random_computation(3, &cfg);
        let x0 = comp.var(comp.process(0), "x").unwrap();
        let x3 = comp.var(comp.process(3), "x").unwrap();
        let support: ProcSet = [comp.process(0), comp.process(3)].into_iter().collect();
        let pred = FnPredicate::new(support, "x0 + x3 == 9", move |st| {
            st.get(x0).expect_int() + st.get(x3).expect_int() == 9
        });
        (comp, pred)
    };
    let runs = [
        ("primary-secondary seed 3", injected(ps, 3)),
        ("database-partitioning seed 5", injected(db, 5)),
        ("partial support seed 3", partial()),
    ];
    // (verdict, witness size, [cuts, max stored, peak bytes, sleep-set
    // skips, persistent pruned, hits, inserts])
    let expect = [
        (true, Some(29), [47, 47, 12804, 0, 0, 18, 47]),
        (true, Some(21), [108, 108, 17688, 0, 0, 122, 108]),
        (false, None, [146, 146, 19536, 80, 89, 98, 146]),
    ];
    for ((tag, (comp, pred)), (detected, size, counts)) in runs.into_iter().zip(expect) {
        let rec = Arc::new(MemoryRecorder::new(Level::Trace));
        let d = {
            let _guard = slicing_observe::scoped(rec.clone());
            detect_pom(&comp, &pred, &Limits::none())
        };
        assert!(d.completed(), "{tag}");
        assert_eq!(
            (d.detected(), d.found.as_ref().map(|c| c.size())),
            (detected, size),
            "{tag}"
        );
        let got = [
            d.cuts_explored,
            d.max_stored_cuts,
            d.peak_bytes,
            rec.counter_total("detect.pom.sleep_set_skips"),
            rec.counter_total("detect.pom.persistent_pruned"),
            rec.counter_total("detect.visited.hits"),
            rec.counter_total("detect.visited.inserts"),
        ];
        assert_eq!(got, counts, "{tag}");
    }
}

#[test]
fn slicer_kernel_counters_are_pinned() {
    // The kernelized slicer's deterministic work counters on fixed-seed
    // protocol workloads: J-row joins (the flat-table hot loop), J-table
    // builds, and graft edge merges are exact functions of the input.
    // Drift means the slicing algorithm changed, not just its speed — and
    // the cut heap must stay untouched end to end (the warm-arena / inline
    // contract the 3× slicing win rests on). Grafts read only their
    // children's edges or rows, so each spec builds one J table, at its
    // root.
    //
    // (workload, seed, row_joins, builds, edges_merged, conjunctive
    // evals, graft row meets)
    let table = [
        (
            Workload::PrimarySecondary,
            3u64,
            47u64,
            1u64,
            332u64,
            (288u64, 1432u64),
        ),
        (Workload::PrimarySecondary, 8, 34, 1, 29, (240, 1167)),
        (Workload::DatabasePartitioning, 5, 14, 1, 74, (88, 105)),
    ];
    for (w, seed, row_joins, builds, merged, leaf_work) in table {
        let comp = w.simulate(5, 10, seed);
        let faulty = w.inject_fault(&comp, seed);
        let spec = w.violation_spec(&faulty);
        let rec = Arc::new(MemoryRecorder::new(Level::Trace));
        let allocs_before = cut_heap_allocs();
        let s = {
            let _guard = slicing_observe::scoped(rec.clone());
            detect_with_slicing(&faulty, &spec, &Limits::none())
        };
        let tag = format!("{} seed {seed}", w.name());
        assert!(s.detected(), "{tag}");
        assert_eq!(cut_heap_allocs() - allocs_before, 0, "{tag}: cut heap");
        let got = (
            rec.counter_total("slice.j_table.row_joins"),
            rec.counter_total("slice.j_table.builds"),
            rec.counter_total("slice.graft.edges_merged"),
        );
        assert_eq!(got, (row_joins, builds, merged), "{tag}");
        let leaves = (
            rec.counter_total("slice.conjunctive.evals"),
            rec.counter_total("slice.graft.row_meets"),
        );
        assert_eq!(leaves, leaf_work, "{tag}: leaf evaluations and row meets");
    }
}

#[test]
fn exhaustive_recovery_line_cuts_are_pinned() {
    // A 4 × 12 primary–secondary run with a `corrupt` fault: its fault
    // slice is approximate with the lattice bottom as its bottom, so the
    // line comes from the walk of the safe cuts. The walk evaluates the
    // safe cuts and the minimal fault cuts, never a cut above a fault, so
    // `recover.line.cuts` is an exact function of the run and stays below
    // the lattice's size. Wall-clock is not gated.
    let w = Workload::PrimarySecondary;
    let clean = w.simulate(4, 12, 0);
    let plan = sample_fault_plan(&clean, "corrupt", 0).expect("seed 0 has a corrupt site");
    let faulty = inject_plan(&clean, &plan).expect("the plan injects");
    let spec = w.violation_spec(&faulty);
    let rec = Arc::new(MemoryRecorder::new(Level::Trace));
    let line = {
        let _guard = slicing_observe::scoped(rec.clone());
        recovery_line(&faulty, &spec, RecoverConfig::default().fallback_max_cuts)
    };
    assert_eq!(
        line,
        RecoveryLine::Line {
            cut: Cut::from(vec![9, 2, 8, 8]),
            method: LineMethod::Exhaustive,
        }
    );
    let emitted = rec
        .events()
        .into_iter()
        .filter(|e| matches!(e, OwnedEvent::Counter { name, .. } if name == "recover.line.cuts"))
        .count();
    assert_eq!(emitted, 1, "one recover.line.cuts per walk");
    let evaluated = rec.counter_total("recover.line.cuts");
    let lattice = count_cuts(&faulty, None).value();
    assert_eq!((evaluated, lattice), (689, 3040));
    assert!(evaluated < lattice);
}
