//! Property tests for the fault-tolerance loop, against brute-force
//! lattice oracles on small simulated runs:
//!
//! - every injected fault that produces a fault-satisfying consistent cut
//!   is detected (and no fault is hallucinated);
//! - the computed recovery line is consistent, fault-free in its causal
//!   history, and never larger than the oracle's maximum safe cut — with
//!   the exhaustive method exactly matching the oracle;
//! - the exhaustive walk returns the very line (the same cut, not only
//!   its size) of the two-pass lattice algorithm it replaced, also where
//!   several safe cuts share the maximum size.

mod two_pass;

use proptest::prelude::*;

use slicing_computation::lattice::for_each_cut;
use slicing_computation::test_fixtures::{random_computation, RandomConfig};
use slicing_computation::{Computation, Cut, GlobalState};
use slicing_core::PredicateSpec;
use slicing_detect::{detect_resilient, ResilientConfig};
use slicing_predicates::{Conjunctive, LocalPredicate};
use slicing_recover::{recovery_line, recovery_line_exhaustive, LineMethod, RecoveryLine};
use slicing_sim::database::{self, DatabasePartitioning};
use slicing_sim::primary_secondary::{self, PrimarySecondary};
use slicing_sim::{inject_plan, run, sample_fault_plan, SimConfig};
use two_pass::two_pass_line;

const FAULT_KINDS: [&str; 6] = [
    "corrupt",
    "drop-message",
    "duplicate-message",
    "delay-delivery",
    "crash-stop",
    "burst",
];

/// Simulates the chosen protocol, injects a sampled fault of the chosen
/// kind, and returns the faulty run with its violation spec. `None` when
/// the run offers no injection site of that kind.
fn faulty_instance(
    seed: u64,
    protocol: usize,
    kind: usize,
) -> Option<(Computation, PredicateSpec)> {
    let cfg = SimConfig {
        seed,
        max_events_per_process: 6,
        ..SimConfig::default()
    };
    let (clean, spec_of): (Computation, fn(&Computation) -> PredicateSpec) = if protocol == 0 {
        (
            run(&mut PrimarySecondary::new(3), &cfg).expect("simulation succeeds"),
            primary_secondary::violation_spec,
        )
    } else {
        (
            run(&mut DatabasePartitioning::new(3), &cfg).expect("simulation succeeds"),
            database::violation_spec,
        )
    };
    let plan = sample_fault_plan(&clean, FAULT_KINDS[kind], seed)?;
    let faulty = inject_plan(&clean, &plan).ok()?;
    let spec = spec_of(&faulty);
    Some((faulty, spec))
}

/// Brute force: does any consistent cut satisfy `spec`?
fn oracle_detects(comp: &Computation, spec: &PredicateSpec) -> bool {
    let mut hit = false;
    for_each_cut(comp, |cut| {
        if spec.eval(&GlobalState::new(comp, cut)) {
            hit = true;
            return false;
        }
        true
    });
    hit
}

/// Brute-force safety: no cut at or below `c` satisfies `spec`.
fn is_safe(comp: &Computation, spec: &PredicateSpec, c: &Cut) -> bool {
    let mut safe = true;
    for_each_cut(comp, |cut| {
        if cut.leq(c) && spec.eval(&GlobalState::new(comp, cut)) {
            safe = false;
            return false;
        }
        true
    });
    safe
}

/// Brute-force maximum safe cut size, or `None` when even the bottom cut
/// is unsafe.
fn oracle_max_safe_size(comp: &Computation, spec: &PredicateSpec) -> Option<u64> {
    let mut faults: Vec<Cut> = Vec::new();
    for_each_cut(comp, |cut| {
        if spec.eval(&GlobalState::new(comp, cut)) {
            faults.push(cut.clone());
        }
        true
    });
    let mut best: Option<u64> = None;
    for_each_cut(comp, |cut| {
        if !faults.iter().any(|f| f.leq(cut)) {
            best = Some(best.unwrap_or(0).max(cut.size()));
        }
        true
    });
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Resilient detection agrees with the exhaustive lattice oracle on
    /// every injected fault: a fault-satisfying cut exists iff the
    /// detector reports one.
    #[test]
    fn injected_faults_are_detected_iff_a_fault_cut_exists(
        (seed, protocol, kind) in (0u64..250, 0usize..2, 0usize..6)
    ) {
        let Some((faulty, spec)) = faulty_instance(seed, protocol, kind) else {
            continue; // no injection site of this kind in this run
        };
        let oracle = oracle_detects(&faulty, &spec);
        let detection = detect_resilient(&faulty, &spec, &ResilientConfig::default());
        prop_assert!(!detection.exhausted, "unlimited engines never exhaust");
        prop_assert_eq!(
            detection.detected(),
            oracle,
            "seed {} protocol {} kind {}",
            seed, protocol, FAULT_KINDS[kind]
        );
    }

    /// The recovery line is consistent, its causal history is fault-free,
    /// and it never exceeds the oracle's maximum safe size; the
    /// exhaustive method matches the oracle exactly, and the degenerate
    /// verdicts (clean / unrecoverable) agree with the oracle too.
    #[test]
    fn recovery_lines_are_safe_and_oracle_bounded(
        (seed, protocol, kind) in (0u64..250, 0usize..2, 0usize..6)
    ) {
        let Some((faulty, spec)) = faulty_instance(seed, protocol, kind) else {
            continue;
        };
        let oracle_max = oracle_max_safe_size(&faulty, &spec);
        let two_pass = two_pass_line(&faulty, &spec);
        match recovery_line(&faulty, &spec, 10_000_000) {
            RecoveryLine::Clean { top } => {
                prop_assert!(!oracle_detects(&faulty, &spec));
                prop_assert_eq!(oracle_max, Some(top.size()));
            }
            RecoveryLine::Line { cut, method } => {
                prop_assert!(faulty.is_consistent(&cut));
                prop_assert!(is_safe(&faulty, &spec, &cut), "unsafe line {}", cut);
                let max = oracle_max.expect("a safe cut exists when a line is returned");
                prop_assert!(cut.size() <= max);
                if method == LineMethod::Exhaustive {
                    prop_assert_eq!(cut.size(), max, "exhaustive line is exact");
                    prop_assert_eq!(Some(&cut), two_pass.cut(), "the two-pass line");
                }
            }
            RecoveryLine::Unrecoverable => {
                prop_assert_eq!(oracle_max, None, "unrecoverable iff bottom is unsafe");
            }
            RecoveryLine::Undetermined => {
                prop_assert!(false, "budget is far above these lattices");
            }
        }
        // The exhaustive method is always exactly the oracle, and returns
        // the two-pass algorithm's line.
        let exhaustive = recovery_line_exhaustive(&faulty, &spec, 10_000_000);
        prop_assert_eq!(
            &exhaustive,
            &two_pass,
            "seed {} protocol {} kind {}",
            seed, protocol, FAULT_KINDS[kind]
        );
        match exhaustive {
            RecoveryLine::Line { cut, .. } => {
                prop_assert!(is_safe(&faulty, &spec, &cut));
                prop_assert_eq!(Some(cut.size()), oracle_max);
            }
            RecoveryLine::Clean { top } => prop_assert_eq!(Some(top.size()), oracle_max),
            RecoveryLine::Unrecoverable => prop_assert_eq!(oracle_max, None),
            RecoveryLine::Undetermined => prop_assert!(false, "budget not exceeded"),
        }
    }

    /// Ties: on random runs whose fault is either of two two-process
    /// threshold clauses, several maximal safe cuts often share the
    /// largest size (the simulated protocols above never showed one).
    /// The walk returns the one the two passes return, the first in
    /// `for_each_cut` order.
    #[test]
    fn exhaustive_line_breaks_ties_like_the_two_pass_line(
        (seed, t) in (0u64..400, 1i64..3)
    ) {
        let cfg = RandomConfig {
            processes: 3,
            events_per_process: 4,
            recv_percent: 30,
            send_percent: 30,
            value_range: 3,
        };
        let comp = random_computation(seed, &cfg);
        let x: Vec<_> = comp.processes().map(|p| comp.var(p, "x").expect("x")).collect();
        let at_least = |p: usize| LocalPredicate::int(x[p], "x >= t", move |v| v >= t);
        let spec = PredicateSpec::or(vec![
            PredicateSpec::conjunctive(Conjunctive::new(vec![at_least(0), at_least(1)])),
            PredicateSpec::conjunctive(Conjunctive::new(vec![at_least(1), at_least(2)])),
        ]);
        prop_assert_eq!(
            recovery_line_exhaustive(&comp, &spec, u64::MAX),
            two_pass_line(&comp, &spec),
            "seed {} t {}",
            seed, t
        );
    }
}
