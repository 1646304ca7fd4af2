//! Scenario-zoo detection table: the leader-election, CRDT-replication,
//! and work-queue workloads through the slicing pipeline and the
//! partial-order-methods baseline, on fixed seeds with one injected
//! corrupt fault each. The committed baseline is `BENCH_protocols.json`,
//! a `slicing.bench/v1` table.
//!
//! ```text
//! cargo run --release -p slicing-bench --bin table_protocols -- \
//!     [--quick] [--procs 5] [--events 10] [--seeds 3] [--reps 50] \
//!     [--out BENCH_protocols.json]
//! ```
//!
//! Two measurements per entry:
//!
//! - **wall_us_per_run** — mean wall-clock over `--reps` repetitions with
//!   no recorder installed. Machine-dependent; an `info` column, never
//!   compared.
//! - **detected / witness_size / cuts / probes / hits / inserts /
//!   heap_allocs / row_joins** — exact functions of the seeded workload,
//!   identical on every machine. `detected` and `witness_size` are
//!   `exact` columns; the effort counters are `gated` at 25% drift.
//!
//! `--quick` only lowers `--reps`: the workloads (and therefore every
//! deterministic counter) stay identical to the committed full run.

use std::sync::Arc;
use std::time::Instant;

use slicing_bench::Workload;
use slicing_computation::{cut_heap_allocs, Computation};
use slicing_detect::{detect_pom, detect_with_slicing, Detection, Engine, Limits};
use slicing_observe::diff::{exact, gated, info, BenchTable, Field};
use slicing_observe::{Level, MemoryRecorder};

/// Runs `f` once under a trace recorder for the deterministic counters,
/// then `reps` times bare for the wall clock.
fn measure<F: FnMut() -> Detection>(engine: Engine, reps: u32, mut f: F) -> Vec<Field> {
    let rec = Arc::new(MemoryRecorder::new(Level::Trace));
    let allocs_before = cut_heap_allocs();
    let d = {
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
        exact("detected", d.detected()),
        exact("witness_size", d.found.as_ref().map_or(0, |c| c.size())),
        gated("cuts_explored", d.cuts_explored),
        gated("probes", rec.counter_total("detect.visited.probes")),
        gated("hits", rec.counter_total("detect.visited.hits")),
        gated("inserts", rec.counter_total("detect.visited.inserts")),
        gated("heap_allocs", heap_allocs),
        gated("row_joins", rec.counter_total("slice.j_table.row_joins")),
    ]
}

fn main() {
    let mut quick = false;
    let mut procs: usize = 5;
    let mut events: u32 = 10;
    let mut seeds: u64 = 3;
    let mut reps: Option<u32> = None;
    let mut out = String::from("BENCH_protocols.json");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--quick" => quick = true,
            "--procs" => procs = it.next().expect("--procs N").parse().expect("integer"),
            "--events" => events = it.next().expect("--events N").parse().expect("integer"),
            "--seeds" => seeds = it.next().expect("--seeds N").parse().expect("integer"),
            "--reps" => reps = Some(it.next().expect("--reps N").parse().expect("integer")),
            "--out" => out = it.next().expect("--out PATH"),
            other => panic!("unknown flag {other}"),
        }
    }
    let reps = reps.unwrap_or(if quick { 5 } else { 50 });
    let limits = Limits::none();
    let mut table = BenchTable::new("table_protocols")
        .param("quick", quick)
        .param("procs", procs as u64)
        .param("events", events)
        .param("seeds", seeds)
        .param("reps", reps);

    for w in Workload::PROTOCOLS {
        // One corrupt fault per seed, injected into the protocol's own
        // summary variables (the monotone counters stay untouched, so the
        // co-regular slice leaves remain sound on the faulted runs).
        let faulty: Vec<Computation> = (0..seeds)
            .map(|seed| {
                let comp = w.simulate(procs, events, seed);
                w.inject_fault(&comp, seed.wrapping_mul(1009))
            })
            .collect();
        for (seed, comp) in faulty.iter().enumerate() {
            let name = format!("{}.s{seed}", w.name());
            table.row(
                format!("slicing.{name}"),
                measure(Engine::Slicing, reps, || {
                    detect_with_slicing(comp, &w.violation_spec(comp), &limits).search
                }),
            );
            table.row(
                format!("pom.{name}"),
                measure(Engine::Pom, reps, || {
                    detect_pom(comp, &w.violation_pred(comp), &limits)
                }),
            );
        }
        // The warm-arena contract: once the measurement loop has warmed
        // every pool, further slicing reps must not touch the cut heap.
        let warm_allocs = cut_heap_allocs();
        for comp in &faulty {
            std::hint::black_box(detect_with_slicing(comp, &w.violation_spec(comp), &limits));
        }
        assert_eq!(
            cut_heap_allocs(),
            warm_allocs,
            "warm {} slicing rep allocated on the cut heap",
            w.name()
        );
    }

    println!(
        "# Scenario-zoo detection — n = {procs}, events/process = {events}, {seeds} seeds, {reps} reps"
    );
    print!("{}", table.render_text());
    for slicing in table.row_names().filter(|n| n.starts_with("slicing.")) {
        let workload = &slicing["slicing.".len()..];
        let pom = format!("pom.{workload}");
        let wall = |row: &str| table.value(row, "wall_us_per_run").as_f64().unwrap_or(0.0);
        println!(
            "# {workload}: slicing explores {} cuts vs pom's {} ({:.2}× wall)",
            table.u64(slicing, "cuts_explored"),
            table.u64(&pom, "cuts_explored"),
            wall(&pom) / wall(slicing)
        );
    }
    table.write(&out).expect("write bench artifact");
    eprintln!("# wrote {out}");
}
