//! Reproduces the paper's Section 5.1 worst-case observations: with a
//! memory cap in place, the partial-order-methods baseline runs out of
//! memory in a fraction of runs (≈6% for primary–secondary at n = 12 under
//! their 100 MB cap; ≈1% for database partitioning at n = 10), while
//! slicing stays within budget — making resource provisioning predictable.
//! The committed baseline is `BENCH_oom.json`, a `slicing.bench/v1` table.
//!
//! ```text
//! cargo run --release -p slicing-bench --bin table_oom_rate -- \
//!     [--procs 6] [--events 20] [--seeds 20] [--cap-kb 128] \
//!     [--max-cuts 5000000] [--faults 1] [--out BENCH_oom.json]
//! ```
//!
//! One row per (workload, engine) for slicing, POM and the paper's hybrid
//! (POM under a `4·n·|E|`-entry budget, slicing fallback), with the
//! columns of `table_figures`: a run that hits the byte cap or the
//! `--max-cuts` state cap (both are enforced together) counts under
//! `aborted`, the out-of-memory rate being `aborted / (completed +
//! aborted)`. The cap defaults to a deliberately small value so the
//! effect shows at laptop scale; the paper's absolute 100 MB corresponds
//! to much larger runs. For each seed the binary asserts that every
//! engine that completed reports the same verdict.

use slicing_bench::{compare, Workload, HYBRID, POM, SLICING};
use slicing_detect::Limits;
use slicing_observe::diff::BenchTable;

fn main() {
    let mut procs: usize = 6;
    let mut events: u32 = 20;
    let mut seeds: u64 = 20;
    let mut cap_kb: u64 = 128;
    let mut max_cuts: u64 = 5_000_000;
    let mut faults: u32 = 1;
    let mut out = String::from("BENCH_oom.json");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| panic!("{flag} needs a value"));
        match flag.as_str() {
            "--procs" => procs = value.parse().expect("integer"),
            "--events" => events = value.parse().expect("integer"),
            "--seeds" => seeds = value.parse().expect("integer"),
            "--cap-kb" => cap_kb = value.parse().expect("integer"),
            "--max-cuts" => max_cuts = value.parse().expect("integer"),
            "--faults" => faults = value.parse().expect("integer"),
            "--out" => out = value,
            other => panic!("unknown flag {other}"),
        }
    }
    // All caps at once: a run aborts on whichever budget it hits first.
    let limits = Limits::new(Some(cap_kb * 1024), Some(max_cuts));
    let mut table = BenchTable::new("table_oom_rate")
        .param("procs", procs as u64)
        .param("events", events)
        .param("seeds", seeds)
        .param("cap_kb", cap_kb)
        .param("max_cuts", max_cuts)
        .param("faults", faults);
    for w in Workload::PAPER {
        let aggs = compare(
            w,
            procs,
            events,
            seeds,
            faults,
            &limits,
            &[SLICING, POM, HYBRID],
        );
        for (engine, agg) in aggs {
            table.row(format!("{}.{engine}", w.name()), agg.fields());
        }
    }
    println!(
        "# Out-of-memory rates under a {cap_kb} KiB cap — n = {procs}, events/process = {events}, {seeds} seeds, {faults} fault(s)"
    );
    print!("{}", table.render_text());
    table.write(&out).expect("write bench artifact");
    eprintln!("# wrote {out}");
}
