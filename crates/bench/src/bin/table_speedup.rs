//! Detection-throughput table for the cut kernel: wall-clock per run and
//! deterministic search-effort counters for every engine on fixed
//! workloads. The repo's first perf artifact — `BENCH_detect.json`
//! (schema `slicing.bench-detect/v1`) is the committed baseline CI gates
//! against.
//!
//! ```text
//! cargo run --release -p slicing-bench --bin table_speedup -- \
//!     [--quick] [--grid 40] [--reps 200] [--seeds 5] [--out BENCH_detect.json]
//! ```
//!
//! Two measurements per entry:
//!
//! - **wall_us_per_run** — mean wall-clock over `--reps` repetitions with
//!   no recorder installed. Machine-dependent; reported, never gated.
//! - **cuts / probes / hits / inserts / heap_allocs** — exact functions of
//!   the workload (visited-set effort counters and spilled-cut
//!   allocations), identical on every machine. CI fails when these regress
//!   more than 25% against the committed baseline.
//!
//! `--quick` only lowers `--reps`: the workloads (and therefore every
//! deterministic counter) stay identical to the committed full run.

use std::sync::Arc;
use std::time::Instant;

use slicing_bench::{measure_slicing, Workload};
use slicing_computation::test_fixtures::{grid, hypercube};
use slicing_computation::{cut_heap_allocs, ProcSet};
use slicing_detect::{detect_bfs, detect_dfs, Limits};
use slicing_observe::json::{JsonArray, JsonObject};
use slicing_observe::{Level, MemoryRecorder};
use slicing_predicates::FnPredicate;

struct Entry {
    name: String,
    engine: &'static str,
    reps: u32,
    wall_us: f64,
    detected: bool,
    cuts: u64,
    probes: u64,
    hits: u64,
    inserts: u64,
    heap_allocs: u64,
    /// J-table row joins in the kernelized slicer
    /// (`slice.j_table.row_joins`); zero outside the slicing pipeline.
    row_joins: u64,
}

impl Entry {
    fn to_json(&self) -> String {
        JsonObject::new()
            .str("name", &self.name)
            .str("engine", self.engine)
            .u64("reps", u64::from(self.reps))
            .f64("wall_us_per_run", self.wall_us)
            .bool("detected", self.detected)
            .u64("cuts_explored", self.cuts)
            .u64("probes", self.probes)
            .u64("hits", self.hits)
            .u64("inserts", self.inserts)
            .u64("heap_allocs", self.heap_allocs)
            .u64("row_joins", self.row_joins)
            .finish()
    }
}

/// Runs `f` once under a trace recorder for the deterministic counters,
/// then `reps` times bare for the wall clock.
fn measure<F: FnMut() -> (bool, u64)>(
    name: impl Into<String>,
    engine: &'static str,
    reps: u32,
    mut f: F,
) -> Entry {
    let rec = Arc::new(MemoryRecorder::new(Level::Trace));
    let allocs_before = cut_heap_allocs();
    let (detected, cuts) = {
        let _guard = slicing_observe::scoped(rec.clone());
        f()
    };
    let heap_allocs = cut_heap_allocs() - allocs_before;
    let probes = rec.counter_total("detect.visited.probes");
    let hits = rec.counter_total("detect.visited.hits");
    let inserts = rec.counter_total("detect.visited.inserts");
    let row_joins = rec.counter_total("slice.j_table.row_joins");

    let start = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(f());
    }
    let wall_us = start.elapsed().as_secs_f64() * 1e6 / f64::from(reps.max(1));
    Entry {
        name: name.into(),
        engine,
        reps,
        wall_us,
        detected,
        cuts,
        probes,
        hits,
        inserts,
        heap_allocs,
        row_joins,
    }
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
    let mut entries: Vec<Entry> = Vec::new();

    // Exhaustive lattice sweeps: the never-predicate forces every engine
    // through all (grid+1)² cuts, making the visited set the hot path.
    let comp = grid(grid_size, grid_size);
    let never = FnPredicate::new(ProcSet::all(2), "false", |_| false);
    entries.push(measure(format!("bfs.grid{grid_size}"), "bfs", reps, || {
        let d = detect_bfs(&comp, &comp, &never, &limits);
        (d.detected(), d.cuts_explored)
    }));
    entries.push(measure(format!("dfs.grid{grid_size}"), "dfs", reps, || {
        let d = detect_dfs(&comp, &comp, &never, &limits);
        (d.detected(), d.cuts_explored)
    }));

    // Wide lattice layers: a 5-process hypercube's middle layers are
    // thousands of cuts wide, where the layer-local dedup store pays most.
    let cube = hypercube(5, 8);
    let never5 = FnPredicate::new(ProcSet::all(5), "false", |_| false);
    let cube_reps = (reps / 4).max(1);
    entries.push(measure("bfs.cube5x8", "bfs", cube_reps, || {
        let d = detect_bfs(&cube, &cube, &never5, &limits);
        (d.detected(), d.cuts_explored)
    }));

    // The paper's protocol workloads (Figures 2/3) through the slicing
    // pipeline: slice construction dominates, search explores few cuts.
    for w in [Workload::PrimarySecondary, Workload::DatabasePartitioning] {
        let faulty: Vec<_> = (0..seeds)
            .map(|seed| {
                let comp = w.simulate(7, 12, seed);
                w.inject_fault(&comp, seed)
            })
            .collect();
        entries.push(measure(
            format!("slicing.{}", w.name()),
            "slicing",
            (reps / 20).max(1),
            || {
                let mut detected = false;
                let mut cuts = 0;
                for comp in &faulty {
                    let s = measure_slicing(w, comp, &limits);
                    detected |= s.detected;
                    cuts += s.cuts;
                }
                (detected, cuts)
            },
        ));
        // The warm-arena contract the slicer kernel rests on: once the
        // measurement loop above has warmed every pool, further slicing
        // reps must not touch the cut heap at all.
        let warm_allocs = cut_heap_allocs();
        for comp in &faulty {
            std::hint::black_box(measure_slicing(w, comp, &limits));
        }
        assert_eq!(
            cut_heap_allocs(),
            warm_allocs,
            "warm {} slicing rep allocated on the cut heap",
            w.name()
        );
    }

    println!("# Detection throughput — grid {grid_size}×{grid_size}, {reps} reps, {seeds} protocol seeds");
    println!(
        "{:<32} {:>12} {:>10} {:>10} {:>10} {:>10} {:>6} {:>9}",
        "entry", "wall µs/run", "cuts", "probes", "hits", "inserts", "alloc", "row_join"
    );
    for e in &entries {
        println!(
            "{:<32} {:>12.1} {:>10} {:>10} {:>10} {:>10} {:>6} {:>9}",
            e.name, e.wall_us, e.cuts, e.probes, e.hits, e.inserts, e.heap_allocs, e.row_joins
        );
    }

    let doc = JsonObject::new()
        .str("schema", slicing_observe::schema::BENCH_DETECT)
        .str("binary", "table_speedup")
        .bool("quick", quick)
        .u64("grid", u64::from(grid_size))
        .u64("reps", u64::from(reps))
        .u64("seeds", seeds)
        .raw(
            "entries",
            &entries
                .iter()
                .fold(JsonArray::new(), |arr, e| arr.push_raw(&e.to_json()))
                .finish(),
        )
        .finish();
    std::fs::write(&out, format!("{doc}\n")).expect("write bench artifact");
    eprintln!("# wrote {} entries to {out}", entries.len());
}
