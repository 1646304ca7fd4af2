//! Measures the full fault-tolerance loop the paper motivates (Section 1):
//! inject a fault, detect it through the graceful-degradation engine
//! chain, compute the recovery line from the slice, roll back, and replay
//! until the invariant holds — reporting verdict counts, retries and
//! detect+recover latency per workload × fault kind. The committed
//! baseline is `BENCH_recovery.json`, a `slicing.bench/v1` table.
//!
//! ```text
//! cargo run --release -p slicing-bench --bin table_recovery -- \
//!     [--procs 4] [--events 12] [--seeds 10] [--attempts 3] \
//!     [--out BENCH_recovery.json]
//! ```
//!
//! One row per (workload, fault kind), named like
//! `primary-secondary.corrupt`. The counts are exact: `injected` runs
//! (seeds whose run offered an injection site of that kind), how many
//! were `detected`, `recovered` or `clean` (the fault never produced a
//! violating cut), `failed` (any other verdict), the replay attempts and
//! the engine fallbacks of the resilient chain. `avg_ms` is info. The
//! binary asserts that no run failed before it writes the table.

use std::time::Instant;

use slicing_bench::Workload;
use slicing_observe::diff::{exact, info, BenchTable};
use slicing_recover::{recover, RecoverConfig, RecoveryOutcome, RecoveryVerdict};
use slicing_sim::crdt::{self, CrdtReplication};
use slicing_sim::database::{self, DatabasePartitioning};
use slicing_sim::leader_election::{self, LeaderElection};
use slicing_sim::primary_secondary::{self, PrimarySecondary};
use slicing_sim::work_queue::{self, WorkQueue};
use slicing_sim::{inject_plan, run, sample_fault_plan, SimConfig};

const FAULT_KINDS: [&str; 6] = [
    "corrupt",
    "drop-message",
    "duplicate-message",
    "delay-delivery",
    "crash-stop",
    "burst",
];

/// Clean run → sampled fault of `kind` → full recovery loop. `None` when
/// the run offers no injection site of that kind.
fn run_one(
    workload: Workload,
    procs: usize,
    kind: &str,
    cfg: &RecoverConfig,
) -> Option<(RecoveryOutcome, f64)> {
    let clean = match workload {
        Workload::PrimarySecondary => run(&mut PrimarySecondary::new(procs), &cfg.sim),
        Workload::DatabasePartitioning => run(&mut DatabasePartitioning::new(procs), &cfg.sim),
        Workload::LeaderElection => run(&mut LeaderElection::new(procs), &cfg.sim),
        Workload::CrdtReplication => run(&mut CrdtReplication::new(procs), &cfg.sim),
        Workload::WorkQueue => run(&mut WorkQueue::new(procs), &cfg.sim),
    }
    .expect("simulation succeeds");
    let plan = (0..16).find_map(|o| sample_fault_plan(&clean, kind, cfg.sim.seed + o))?;
    let faulty = inject_plan(&clean, &plan).ok()?;
    let start = Instant::now();
    let outcome = match workload {
        Workload::PrimarySecondary => recover(
            || PrimarySecondary::new(procs),
            primary_secondary::violation_spec,
            &faulty,
            cfg,
        ),
        Workload::DatabasePartitioning => recover(
            || DatabasePartitioning::new(procs),
            database::violation_spec,
            &faulty,
            cfg,
        ),
        Workload::LeaderElection => recover(
            || LeaderElection::new(procs),
            leader_election::violation_spec,
            &faulty,
            cfg,
        ),
        Workload::CrdtReplication => recover(
            || CrdtReplication::new(procs),
            crdt::violation_spec,
            &faulty,
            cfg,
        ),
        Workload::WorkQueue => recover(
            || WorkQueue::new(procs),
            work_queue::violation_spec,
            &faulty,
            cfg,
        ),
    };
    Some((outcome, start.elapsed().as_secs_f64()))
}

fn main() {
    // Honor SLICING_LOG so CI can grep the counter stream (e.g. failing
    // the soak on any `recover.fallback_exhausted`).
    if let Some(logger) = slicing_observe::StderrLogger::from_env() {
        slicing_observe::install(std::sync::Arc::new(logger));
    }
    let mut procs: usize = 4;
    let mut events: u32 = 12;
    let mut seeds: u64 = 10;
    let mut attempts: u32 = 3;
    let mut out = String::from("BENCH_recovery.json");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| panic!("{flag} needs a value"));
        match flag.as_str() {
            "--procs" => procs = value.parse().expect("integer"),
            "--events" => events = value.parse().expect("integer"),
            "--seeds" => seeds = value.parse().expect("integer"),
            "--attempts" => attempts = value.parse().expect("integer"),
            "--out" => out = value,
            other => panic!("unknown flag {other}"),
        }
    }
    let mut table = BenchTable::new("table_recovery")
        .param("procs", procs as u64)
        .param("events", events)
        .param("seeds", seeds)
        .param("attempts", attempts);
    let mut failures = 0u64;
    for workload in Workload::PAPER.into_iter().chain(Workload::PROTOCOLS) {
        for kind in FAULT_KINDS {
            let mut injected = 0u64;
            let mut detected = 0u64;
            let mut recovered = 0u64;
            let mut clean = 0u64;
            let mut failed = 0u64;
            let mut replays = 0u64;
            let mut fallbacks = 0u64;
            let mut elapsed = 0.0f64;
            for seed in 0..seeds {
                let mut cfg = RecoverConfig {
                    sim: SimConfig {
                        seed,
                        max_events_per_process: events,
                        ..SimConfig::default()
                    },
                    ..RecoverConfig::default()
                };
                cfg.retry.max_attempts = attempts;
                let Some((outcome, secs)) = run_one(workload, procs, kind, &cfg) else {
                    continue;
                };
                injected += 1;
                elapsed += secs;
                replays += outcome.attempts.len() as u64;
                fallbacks += outcome.engine_fallbacks as u64;
                if outcome.detected {
                    detected += 1;
                }
                match outcome.verdict {
                    RecoveryVerdict::Recovered => recovered += 1,
                    RecoveryVerdict::CleanAlready => clean += 1,
                    _ => failed += 1,
                }
            }
            failures += failed;
            let avg_ms = if injected > 0 {
                elapsed * 1000.0 / injected as f64
            } else {
                0.0
            };
            table.row(
                format!("{}.{kind}", workload.name()),
                [
                    exact("injected", injected),
                    exact("detected", detected),
                    exact("recovered", recovered),
                    exact("clean", clean),
                    exact("failed", failed),
                    exact("replays", replays),
                    exact("engine_fallbacks", fallbacks),
                    info("avg_ms", avg_ms),
                ],
            );
        }
    }
    println!(
        "# Detect → recovery-line → rollback → replay — n = {procs}, events/process = {events}, {seeds} seeds, {attempts} attempt(s)"
    );
    print!("{}", table.render_text());
    assert_eq!(failures, 0, "some runs failed to recover");
    table.write(&out).expect("write bench artifact");
    eprintln!("# wrote {out}");
}
