//! Detection-throughput table for the cut kernel: wall-clock per run and
//! deterministic search-effort counters for every engine on fixed
//! workloads. The committed baseline is `BENCH_detect.json`, a
//! `slicing.bench/v1` table.
//!
//! ```text
//! cargo run --release -p slicing-bench --bin table_speedup -- \
//!     [--quick] [--grid 40] [--reps 200] [--seeds 5] [--out BENCH_detect.json]
//! ```
//!
//! Two measurements per entry:
//!
//! - **wall_us_per_run** — mean wall-clock over `reps` repetitions with
//!   no recorder installed. Machine-dependent; an `info` column, never
//!   compared.
//! - **cuts / probes / hits / inserts / heap_allocs / row_joins /
//!   peak_live_cuts / layers** — exact functions of the workload
//!   (visited-set effort, spilled-cut allocations, slicer J-table work,
//!   the live-cut high-water mark and the lattice layers walked),
//!   identical on every machine. `gated` columns: `bench-diff` fails when
//!   one drifts more than 25% from the committed baseline.
//!
//! `--quick` only lowers `--reps`: the workloads (and therefore every
//! deterministic counter) stay identical to the committed full run. The
//! binary asserts two bars itself: on the exhaustive grid sweep the live
//! set stays within 10% of the cuts explored, and warm slicing reps never
//! touch the cut heap.

use std::sync::Arc;
use std::time::Instant;

use slicing_bench::Workload;
use slicing_computation::test_fixtures::{grid, hypercube};
use slicing_computation::{cut_heap_allocs, ProcSet};
use slicing_detect::{detect_bfs, detect_dfs, detect_with_slicing, Detection, Engine, Limits};
use slicing_observe::diff::{exact, gated, info, BenchTable, Field};
use slicing_observe::{Level, MemoryRecorder};
use slicing_predicates::FnPredicate;

/// Runs `f` once under a trace recorder for the deterministic counters,
/// then `reps` times bare for the wall clock. `f` returns the verdict,
/// cuts explored and peak live cuts.
fn measure<F: FnMut() -> (bool, u64, u64)>(engine: Engine, reps: u32, mut f: F) -> Vec<Field> {
    let rec = Arc::new(MemoryRecorder::new(Level::Trace));
    let allocs_before = cut_heap_allocs();
    let (detected, cuts, peak_live_cuts) = {
        let _guard = slicing_observe::scoped(rec.clone());
        f()
    };
    let heap_allocs = cut_heap_allocs() - allocs_before;

    let start = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(f());
    }
    let wall_us = start.elapsed().as_secs_f64() * 1e6 / f64::from(reps.max(1));
    vec![
        exact("engine", engine.name()),
        info("reps", reps),
        info("wall_us_per_run", wall_us),
        exact("detected", detected),
        gated("cuts_explored", cuts),
        gated("probes", rec.counter_total("detect.visited.probes")),
        gated("hits", rec.counter_total("detect.visited.hits")),
        gated("inserts", rec.counter_total("detect.visited.inserts")),
        gated("heap_allocs", heap_allocs),
        gated("row_joins", rec.counter_total("slice.j_table.row_joins")),
        gated("peak_live_cuts", peak_live_cuts),
        gated("layers", rec.counter_total("detect.bfs.layers")),
    ]
}

/// The verdict, cuts explored and peak live cuts of one search.
fn outcome(d: &Detection) -> (bool, u64, u64) {
    (d.detected(), d.cuts_explored, d.max_stored_cuts)
}

fn main() {
    let mut quick = false;
    let mut grid_size: u32 = 40;
    let mut reps: Option<u32> = None;
    let mut seeds: u64 = 5;
    let mut out = String::from("BENCH_detect.json");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--quick" => quick = true,
            "--grid" => grid_size = it.next().expect("--grid N").parse().expect("integer"),
            "--reps" => reps = Some(it.next().expect("--reps N").parse().expect("integer")),
            "--seeds" => seeds = it.next().expect("--seeds N").parse().expect("integer"),
            "--out" => out = it.next().expect("--out PATH"),
            other => panic!("unknown flag {other}"),
        }
    }
    let reps = reps.unwrap_or(if quick { 20 } else { 200 });
    let limits = Limits::none();
    let mut table = BenchTable::new("table_speedup")
        .param("quick", quick)
        .param("grid", grid_size)
        .param("reps", reps)
        .param("seeds", seeds);

    // Exhaustive lattice sweeps: the never-predicate forces every engine
    // through all (grid+1)² cuts, making the visited set the hot path.
    let grid_row = format!("bfs.grid{grid_size}");
    let comp = grid(grid_size, grid_size);
    let never = FnPredicate::new(ProcSet::all(2), "false", |_| false);
    table.row(
        &grid_row,
        measure(Engine::Bfs, reps, || {
            outcome(&detect_bfs(&comp, &comp, &never, &limits))
        }),
    );
    table.row(
        format!("dfs.grid{grid_size}"),
        measure(Engine::Dfs, reps, || {
            outcome(&detect_dfs(&comp, &comp, &never, &limits))
        }),
    );

    // Wide lattice layers: a 5-process hypercube's middle layers are
    // thousands of cuts wide, where the layer-local dedup store pays most.
    let cube = hypercube(5, 8);
    let never5 = FnPredicate::new(ProcSet::all(5), "false", |_| false);
    table.row(
        "bfs.cube5x8",
        measure(Engine::Bfs, (reps / 4).max(1), || {
            outcome(&detect_bfs(&cube, &cube, &never5, &limits))
        }),
    );

    // The paper's protocol workloads (Figures 2/3) through the slicing
    // pipeline: slice construction dominates, search explores few cuts.
    for w in [Workload::PrimarySecondary, Workload::DatabasePartitioning] {
        let faulty: Vec<_> = (0..seeds)
            .map(|seed| {
                let comp = w.simulate(7, 12, seed);
                w.inject_fault(&comp, seed)
            })
            .collect();
        let slice_all = || {
            faulty
                .iter()
                .fold((false, 0, 0), |(det, cuts, peak), comp| {
                    let s = detect_with_slicing(comp, &w.violation_spec(comp), &limits);
                    let (d, c, p) = outcome(&s.search);
                    (det | d, cuts + c, peak.max(p))
                })
        };
        table.row(
            format!("slicing.{}", w.name()),
            measure(Engine::Slicing, (reps / 20).max(1), slice_all),
        );
        // The warm-arena contract the slicer kernel rests on: once the
        // measurement loop above has warmed every pool, further slicing
        // reps must not touch the cut heap at all.
        let warm_allocs = cut_heap_allocs();
        std::hint::black_box(slice_all());
        assert_eq!(
            cut_heap_allocs(),
            warm_allocs,
            "warm {} slicing rep allocated on the cut heap",
            w.name()
        );
    }

    // The two-layer live-set bar: on the exhaustive grid sweep the engine
    // keeps at most 10% of the cuts it explores alive at once.
    let peak = table.u64(&grid_row, "peak_live_cuts");
    let explored = table.u64(&grid_row, "cuts_explored");
    assert!(
        peak * 10 <= explored,
        "{grid_row}: peak live {peak} cuts exceeds 10% of the {explored} explored"
    );

    println!("# Detection throughput — grid {grid_size}×{grid_size}, {reps} reps, {seeds} protocol seeds");
    print!("{}", table.render_text());
    println!(
        "# {grid_row}: peak live {peak} cuts = {:.1}% of the {explored} explored",
        100.0 * peak as f64 / explored as f64
    );
    table.write(&out).expect("write bench artifact");
    eprintln!("# wrote {out}");
}
