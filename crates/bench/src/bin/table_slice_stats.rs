//! Reproduces the paper's state-space-reduction claims ("the slice has
//! much fewer consistent cuts than the computation itself — exponentially
//! smaller in many cases"): cut counts of computation versus slice across
//! the workloads in this repository. The committed baseline is
//! `BENCH_slice_stats.json`, a `slicing.bench/v1` table.
//!
//! ```text
//! cargo run --release -p slicing-bench --bin table_slice_stats -- \
//!     [--events 14] [--cap 5000000] [--out BENCH_slice_stats.json]
//! ```
//!
//! One row per workload and predicate; every column is exact. Cut counts
//! stop at `--cap`: `lattice_capped` and `slice_capped` mark a count that
//! reached it, whose true value is at least the one shown.

use slicing_bench::Workload;
use slicing_computation::test_fixtures::figure1;
use slicing_core::{slice_decomposable, SliceStats};
use slicing_observe::diff::{exact, BenchTable, Field};
use slicing_sim::clock_sync::{self, ClockSync};
use slicing_sim::token_ring::{no_token_spec, TokenRing};
use slicing_sim::{run, SimConfig};

/// One row's cells: the predicate, then the computation's and the
/// slice's sizes.
fn fields(predicate: &str, stats: &SliceStats) -> [Field; 7] {
    [
        exact("predicate", predicate),
        exact("events", stats.num_events as u64),
        exact("lattice_cuts", stats.computation_cuts.value()),
        exact("lattice_capped", !stats.computation_cuts.is_exact()),
        exact("slice_cuts", stats.slice_cuts.value()),
        exact("slice_capped", !stats.slice_cuts.is_exact()),
        exact("meta_events", stats.num_meta_events as u64),
    ]
}

fn main() {
    let mut events: u32 = 14;
    let mut cap: u64 = 5_000_000;
    let mut out = String::from("BENCH_slice_stats.json");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| panic!("{flag} needs a value"));
        match flag.as_str() {
            "--events" => events = value.parse().expect("integer"),
            "--cap" => cap = value.parse().expect("integer"),
            "--out" => out = value,
            other => panic!("unknown flag {other}"),
        }
    }
    let mut table = BenchTable::new("table_slice_stats")
        .param("events", events)
        .param("cap", cap);

    // Figure 1.
    {
        let comp = figure1();
        let pred = slicing_predicates::expr::parse_predicate(&comp, "x1@0 > 1 && x3@2 <= 3")
            .expect("fixture predicate parses");
        let conj = pred.to_conjunctive().expect("conjunctive");
        let slice = slicing_core::slice_conjunctive(&comp, &conj);
        let stats = SliceStats::gather(&comp, &slice, Some(cap));
        table.row("figure-1", fields("(x1>1)∧(x3≤3)", &stats));
    }

    // Token ring: no process has the token.
    {
        let cfg = SimConfig {
            seed: 5,
            max_events_per_process: events,
            ..SimConfig::default()
        };
        let comp = run(&mut TokenRing::new(4), &cfg).expect("run builds");
        let slice = no_token_spec(&comp).slice(&comp);
        let stats = SliceStats::gather(&comp, &slice, Some(cap));
        table.row("token-ring", fields("no-token", &stats));
    }

    // Primary-secondary and database partitioning, fault-free and faulty.
    for w in Workload::PAPER {
        for (panel, faults) in [("fault-free", 0u32), ("one-fault", 1)] {
            let mut comp = w.simulate(5, events, 11);
            for f in 0..faults {
                comp = w.inject_fault(&comp, 77 + u64::from(f));
            }
            let slice = w.violation_spec(&comp).slice(&comp);
            let stats = SliceStats::gather(&comp, &slice, Some(cap));
            table.row(format!("{}.{panel}", w.name()), fields("¬I", &stats));
        }
    }

    // Decomposable regular predicate on monotone clocks.
    {
        let cfg = SimConfig {
            seed: 99,
            max_events_per_process: events,
            ..SimConfig::default()
        };
        let comp = run(&mut ClockSync::new(4), &cfg).expect("run builds");
        let clauses = clock_sync::synchronized_clauses(&comp, 2);
        let slice = slice_decomposable(&comp, &clauses);
        let stats = SliceStats::gather(&comp, &slice, Some(cap));
        table.row("clock-sync", fields("|ci-cj|≤2", &stats));
    }

    println!("# State-space reduction — events/process = {events}, cut counts capped at {cap}");
    print!("{}", table.render_text());
    table.write(&out).expect("write bench artifact");
    eprintln!("# wrote {out}");
}
