//! The exhaustive recovery line on the scenario zoo's protocols (leader
//! election, CRDT replication, work queue) under every fault kind: the
//! level-order walk of the safe cuts must return exactly the line of the
//! two-pass lattice algorithm it replaced — the same cut, the same
//! degenerate verdicts. Sized to stay fast in debug builds.

#[path = "../../recover/tests/two_pass/mod.rs"]
mod two_pass;

use slicing_bench::Workload;
use slicing_computation::Computation;
use slicing_recover::{recovery_line_exhaustive, RecoveryLine};
use slicing_sim::{inject_plan, sample_fault_plan};
use two_pass::two_pass_line;

const FAULT_KINDS: [&str; 6] = [
    "corrupt",
    "drop-message",
    "duplicate-message",
    "delay-delivery",
    "crash-stop",
    "burst",
];

/// The run `seed` simulates with a fault of `kind` injected, or `None`
/// when it offers no injection site of that kind.
fn faulty_run(w: Workload, kind: &str, seed: u64) -> Option<Computation> {
    let clean = w.simulate(4, 6, seed);
    let plan = (0..16).find_map(|o| sample_fault_plan(&clean, kind, seed + o))?;
    inject_plan(&clean, &plan).ok()
}

#[test]
fn exhaustive_line_is_the_two_pass_line_on_the_zoo() {
    let (mut runs, mut lines) = (0, 0);
    for w in Workload::PROTOCOLS {
        for kind in FAULT_KINDS {
            for seed in 0..6u64 {
                let Some(faulty) = faulty_run(w, kind, seed) else {
                    continue;
                };
                let spec = w.violation_spec(&faulty);
                let line = recovery_line_exhaustive(&faulty, &spec, u64::MAX);
                assert_eq!(
                    line,
                    two_pass_line(&faulty, &spec),
                    "{} {kind} seed {seed}",
                    w.name()
                );
                runs += 1;
                lines += usize::from(matches!(line, RecoveryLine::Line { .. }));
            }
        }
    }
    assert!(runs >= 90, "only {runs} zoo runs offered an injection site");
    assert!(lines >= 30, "only {lines} of {runs} runs needed a rollback");
}
