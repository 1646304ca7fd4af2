//! Reproduces **Figures 2 and 3**: the effort and memory of computation
//! slicing and of partial-order methods versus the number of processes,
//! on primary–secondary (Figure 2) and database partitioning (Figure 3),
//! fault-free (panel a) and with one injected fault (panel b). The
//! committed baseline is `BENCH_figures.json`, a `slicing.bench/v1` table.
//!
//! ```text
//! cargo run --release -p slicing-bench --bin table_figures -- \
//!     [--procs 6 | --min-procs 4 --max-procs 8] [--events 18] [--seeds 5] \
//!     [--cap-mb 64] [--max-cuts 2000000] [--out BENCH_figures.json]
//! ```
//!
//! One row per (workload, panel, n, engine), named like
//! `primary-secondary.fault-free.n7.slicing`. `completed`, `aborted` and
//! `detected` count runs and are exact; the means over completed runs of
//! cuts examined and tracked bytes, and the largest cut count, are gated;
//! the mean wall-clock is info. Every run is capped at `--cap-mb` tracked
//! bytes and `--max-cuts` cuts, and a run that hits either counts as
//! aborted. For each seed the binary asserts that the two engines agree
//! on the verdict whenever both completed.
//!
//! `--procs n` is shorthand for `--min-procs n --max-procs n`. The paper
//! runs n = 6..12 (Figure 2) and 4..10 (Figure 3) with up to 90 and 80
//! events per process on 2003-era hardware; the defaults are the
//! committed table's, scaled so the exponential baseline finishes in
//! seconds.

use slicing_bench::{compare, Workload, POM, SLICING};
use slicing_detect::Limits;
use slicing_observe::diff::BenchTable;

fn main() {
    let mut min_procs: usize = 4;
    let mut max_procs: usize = 8;
    let mut events: u32 = 18;
    let mut seeds: u64 = 5;
    let mut cap_mb: u64 = 64;
    let mut max_cuts: u64 = 2_000_000;
    let mut out = String::from("BENCH_figures.json");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| panic!("{flag} needs a value"));
        match flag.as_str() {
            "--procs" => {
                min_procs = value.parse().expect("integer");
                max_procs = min_procs;
            }
            "--min-procs" => min_procs = value.parse().expect("integer"),
            "--max-procs" => max_procs = value.parse().expect("integer"),
            "--events" => events = value.parse().expect("integer"),
            "--seeds" => seeds = value.parse().expect("integer"),
            "--cap-mb" => cap_mb = value.parse().expect("integer"),
            "--max-cuts" => max_cuts = value.parse().expect("integer"),
            "--out" => out = value,
            other => panic!("unknown flag {other}"),
        }
    }
    let limits = Limits::new(Some(cap_mb * 1024 * 1024), Some(max_cuts));
    let mut table = BenchTable::new("table_figures")
        .param("min_procs", min_procs as u64)
        .param("max_procs", max_procs as u64)
        .param("events", events)
        .param("seeds", seeds)
        .param("cap_mb", cap_mb)
        .param("max_cuts", max_cuts);
    for w in Workload::PAPER {
        for (panel, faults) in [("fault-free", 0), ("one-fault", 1)] {
            for n in min_procs..=max_procs {
                let aggs = compare(w, n, events, seeds, faults, &limits, &[SLICING, POM]);
                for (engine, agg) in aggs {
                    table.row(format!("{}.{panel}.n{n}.{engine}", w.name()), agg.fields());
                }
            }
        }
    }
    println!(
        "# Figures 2 and 3 — events/process = {events}, {seeds} seeds, memory cap {cap_mb} MiB, cut cap {max_cuts}"
    );
    print!("{}", table.render_text());
    table.write(&out).expect("write bench artifact");
    eprintln!("# wrote {out}");
}
