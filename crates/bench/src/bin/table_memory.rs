//! Peak-live-memory table for level-order search on fixed workloads. The
//! committed artifact — `BENCH_memory.json` (schema
//! `slicing.bench-memory/v1`) — is the baseline CI gates against.
//!
//! ```text
//! cargo run --release -p slicing-bench --bin table_memory -- \
//!     [--quick] [--grid 40] [--out BENCH_memory.json]
//! ```
//!
//! Every reported number is a **deterministic counter** — a pure function
//! of the workload, identical on every machine:
//!
//! - **peak_live_cuts** — the engine's high-water mark of simultaneously
//!   stored cuts (`Detection::max_stored_cuts`): two adjacent lattice
//!   layers on a computation.
//! - **visited_inserts / layers** — the dedup store's admissions (every
//!   cut reached, exactly as a global visited set would count them) and
//!   the lattice layers walked (`detect.bfs.layers`).
//! - **heap_allocs** — spilled-cut heap allocations during the run.
//!
//! Wall-clock is intentionally absent: this table exists to gate memory
//! semantics, and wall-clock is never gated. `--quick` is accepted for CLI
//! symmetry with the other tables but changes nothing — with no
//! repetitions to trim, the quick run **is** the full run. The binary
//! asserts the headline bar itself: on the exhaustive grid sweep, the
//! live set stays within 10% of the cuts explored.

use std::sync::Arc;

use slicing_bench::Workload;
use slicing_computation::test_fixtures::{grid, hypercube};
use slicing_computation::{cut_heap_allocs, ProcSet};
use slicing_detect::{detect_bfs, Detection, Limits};
use slicing_observe::json::{JsonArray, JsonObject};
use slicing_observe::{Level, MemoryRecorder};
use slicing_predicates::FnPredicate;

struct Entry {
    name: String,
    workload: String,
    engine: &'static str,
    detected: bool,
    witness_size: u64,
    cuts: u64,
    peak_live_cuts: u64,
    visited_inserts: u64,
    layers: u64,
    heap_allocs: u64,
}

impl Entry {
    fn to_json(&self) -> String {
        JsonObject::new()
            .str("name", &self.name)
            .str("workload", &self.workload)
            .str("engine", self.engine)
            .bool("detected", self.detected)
            .u64("witness_size", self.witness_size)
            .u64("cuts_explored", self.cuts)
            .u64("peak_live_cuts", self.peak_live_cuts)
            .u64("visited_inserts", self.visited_inserts)
            .u64("layers", self.layers)
            .u64("heap_allocs", self.heap_allocs)
            .finish()
    }
}

/// Runs level-order search once on `workload` under a trace recorder
/// and captures the deterministic memory counters.
fn measure<F: FnOnce() -> Detection>(workload: &str, f: F) -> Entry {
    let rec = Arc::new(MemoryRecorder::new(Level::Trace));
    let allocs_before = cut_heap_allocs();
    let d = {
        let _guard = slicing_observe::scoped(rec.clone());
        f()
    };
    assert!(
        d.completed(),
        "{workload} aborted under no limits: {:?}",
        d.aborted
    );
    Entry {
        name: format!("bfs.{workload}"),
        workload: workload.to_string(),
        engine: "bfs",
        detected: d.detected(),
        witness_size: d.found.as_ref().map_or(0, |c| c.size()),
        cuts: d.cuts_explored,
        peak_live_cuts: d.max_stored_cuts,
        visited_inserts: rec.counter_total("detect.visited.inserts"),
        layers: rec.counter_total("detect.bfs.layers"),
        heap_allocs: cut_heap_allocs() - allocs_before,
    }
}

fn main() {
    let mut quick = false;
    let mut grid_size: u32 = 40;
    let mut out = String::from("BENCH_memory.json");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--quick" => quick = true,
            "--grid" => grid_size = it.next().expect("--grid N").parse().expect("integer"),
            "--out" => out = it.next().expect("--out PATH"),
            other => panic!("unknown flag {other}"),
        }
    }
    let limits = Limits::none();
    let mut entries: Vec<Entry> = Vec::new();

    // Exhaustive sweep: the never-predicate forces the search through all
    // (grid+1)² cuts while it retains two layers of at most grid+1 cuts.
    let grid_tag = format!("grid{grid_size}");
    let comp = grid(grid_size, grid_size);
    let never = FnPredicate::new(ProcSet::all(2), "false", |_| false);
    entries.push(measure(&grid_tag, || {
        detect_bfs(&comp, &comp, &never, &limits)
    }));

    // Wide middle layers: the 5-process hypercube's widest layer is a
    // multinomial peak, the shape the O(widest layer) bound is about.
    let cube = hypercube(5, 8);
    let never5 = FnPredicate::new(ProcSet::all(5), "false", |_| false);
    entries.push(measure("cube5x8", || {
        detect_bfs(&cube, &cube, &never5, &limits)
    }));

    // The paper's protocol workloads with an injected fault: detection
    // stops at the earliest witness, a short prefix of layers.
    for w in [Workload::PrimarySecondary, Workload::DatabasePartitioning] {
        let seed = 3;
        let healthy = w.simulate(5, 10, seed);
        let faulty = w.inject_fault(&healthy, seed);
        let pred = w.violation_pred(&faulty);
        entries.push(measure(w.name(), || {
            detect_bfs(&faulty, &faulty, &pred, &limits)
        }));
    }

    // The acceptance bar: on the exhaustive grid sweep the live set is at
    // most 10% of the cuts explored.
    let grid_entry = entries
        .iter()
        .find(|e| e.workload == grid_tag)
        .expect("grid entry");
    let (peak, explored) = (grid_entry.peak_live_cuts, grid_entry.cuts);
    assert!(
        peak * 10 <= explored,
        "{grid_tag}: peak live {peak} cuts exceeds 10% of the {explored} explored"
    );

    println!("# Peak-live-memory — grid {grid_size}×{grid_size}, fixed seeds");
    println!(
        "{:<28} {:>8} {:>10} {:>10} {:>10} {:>8} {:>6}",
        "entry", "detected", "cuts", "peak live", "visited", "layers", "alloc"
    );
    for e in &entries {
        println!(
            "{:<28} {:>8} {:>10} {:>10} {:>10} {:>8} {:>6}",
            e.name,
            e.detected,
            e.cuts,
            e.peak_live_cuts,
            e.visited_inserts,
            e.layers,
            e.heap_allocs
        );
    }
    println!(
        "# {grid_tag}: peak live {peak} cuts = {:.1}% of the {explored} explored",
        100.0 * peak as f64 / explored as f64
    );

    let doc = JsonObject::new()
        .str("schema", slicing_observe::schema::BENCH_MEMORY)
        .str("binary", "table_memory")
        .bool("quick", quick)
        .u64("grid", u64::from(grid_size))
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
