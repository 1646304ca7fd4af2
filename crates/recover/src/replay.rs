//! Rollback and controlled replay: truncate the faulty run at its
//! recovery line, re-seed the runtime, re-execute, and verify — with a
//! bounded retry loop whose scheduler gets progressively more conservative
//! (exponential backoff on the delivery weight).

use slicing_computation::{Computation, Cut};
use slicing_core::PredicateSpec;
use slicing_detect::{detect_resilient, Engine, ResilientConfig};
use slicing_observe::Level;
use slicing_sim::fault::inject_plan;
use slicing_sim::{resume, FaultPlan, Protocol, SimConfig};

use crate::line::{line_from_slice_bottom, recovery_line, LineMethod, RecoveryLine};

/// Bounded-retry policy for the replay loop.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Maximum number of rollback-and-replay attempts (≥ 1).
    pub max_attempts: u32,
    /// Exponential backoff: halve the scheduler's `deliver_weight` on each
    /// successive attempt (clamped to 1), making later replays favour
    /// spontaneous steps over racy deliveries.
    pub backoff: bool,
    /// Re-inject the original fault plan into the first this-many
    /// attempts. Models a deterministically recurring environment fault —
    /// and makes retries observable in tests.
    pub reinject_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff: true,
            reinject_attempts: 0,
        }
    }
}

/// Everything [`recover`] needs besides the protocol and the computation.
#[derive(Debug, Clone)]
pub struct RecoverConfig {
    /// Base simulator configuration; each attempt derives its seed and
    /// delivery weight from it.
    pub sim: SimConfig,
    /// The retry loop's policy.
    pub retry: RetryPolicy,
    /// Budgets for the resilient detection chain (initial detection and
    /// per-attempt verification).
    pub detect: ResilientConfig,
    /// Cut budget of the exhaustive recovery-line fallback
    /// ([`recovery_line_exhaustive`](crate::recovery_line_exhaustive)):
    /// the most cuts its walk may evaluate, which are the safe cuts and
    /// the minimal fault cuts, not the cuts of the whole lattice. Past it
    /// the line is undetermined. The walk holds two layers of cuts at a
    /// time and returns the first safe cut of maximum size in
    /// `for_each_cut` order.
    pub fallback_max_cuts: u64,
    /// The fault plan to re-inject during `retry.reinject_attempts`.
    pub reinject: Option<FaultPlan>,
}

impl Default for RecoverConfig {
    fn default() -> Self {
        RecoverConfig {
            sim: SimConfig::default(),
            retry: RetryPolicy::default(),
            detect: ResilientConfig::default(),
            fallback_max_cuts: 200_000,
            reinject: None,
        }
    }
}

/// Final verdict of a [`recover`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryVerdict {
    /// No global fault was detected; nothing to recover.
    CleanAlready,
    /// Rollback and replay produced a violation-free run.
    Recovered,
    /// No safe cut exists except the empty cut: restart from scratch.
    Unrecoverable,
    /// Every replay attempt re-derived a violation.
    RetriesExhausted,
    /// A budget (detection chain or line fallback) exhausted before an
    /// answer; the verdict is inconclusive, not a clean bill.
    Undetermined,
}

impl RecoveryVerdict {
    /// Stable lowercase name, used in reports.
    pub fn name(self) -> &'static str {
        match self {
            RecoveryVerdict::CleanAlready => "clean-already",
            RecoveryVerdict::Recovered => "recovered",
            RecoveryVerdict::Unrecoverable => "unrecoverable",
            RecoveryVerdict::RetriesExhausted => "retries-exhausted",
            RecoveryVerdict::Undetermined => "undetermined",
        }
    }
}

impl std::fmt::Display for RecoveryVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One replay attempt, as recorded in the outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttemptReport {
    /// Seed the attempt's scheduler ran under.
    pub seed: u64,
    /// Delivery weight after backoff.
    pub deliver_weight: u32,
    /// Whether the fault plan was re-injected into this attempt.
    pub reinjected: bool,
    /// Whether verification found a violation again.
    pub violation_found: bool,
}

/// The structured result of a [`recover`] run.
#[derive(Debug, Clone)]
pub struct RecoveryOutcome {
    /// Final verdict.
    pub verdict: RecoveryVerdict,
    /// Whether the initial detection found a violation.
    pub detected: bool,
    /// Engine that produced the initial detection verdict.
    pub engine: Option<Engine>,
    /// Number of engine fallbacks during initial detection.
    pub engine_fallbacks: usize,
    /// The violating cut the initial detection found.
    pub witness: Option<Cut>,
    /// The recovery line rolled back to.
    pub line: Option<Cut>,
    /// How the line was computed.
    pub line_method: Option<LineMethod>,
    /// Every replay attempt, in order.
    pub attempts: Vec<AttemptReport>,
    /// The verified violation-free computation, when recovered.
    pub recovered: Option<Computation>,
}

impl RecoveryOutcome {
    fn new(verdict: RecoveryVerdict) -> Self {
        RecoveryOutcome {
            verdict,
            detected: false,
            engine: None,
            engine_fallbacks: 0,
            witness: None,
            line: None,
            line_method: None,
            attempts: Vec::new(),
            recovered: None,
        }
    }

    /// Renders the outcome as one `slicing.recovery-report/v1` JSON
    /// document (machine-readable; the CI soak step validates it).
    pub fn to_json(&self) -> String {
        use slicing_observe::json::{JsonArray, JsonObject};
        let cut_json = |cut: &Cut| {
            cut.counts()
                .iter()
                .fold(JsonArray::new(), |arr, c| arr.push_raw(&c.to_string()))
                .finish()
        };
        let mut obj = JsonObject::new()
            .str("schema", slicing_observe::schema::RECOVERY_REPORT)
            .str("verdict", self.verdict.name())
            .bool("detected", self.detected)
            .opt_str("engine", self.engine.map(Engine::name))
            .u64("engine_fallbacks", self.engine_fallbacks as u64);
        obj = match &self.witness {
            Some(cut) => obj.raw("witness", &cut_json(cut)),
            None => obj.raw("witness", "null"),
        };
        obj = match &self.line {
            Some(cut) => obj.raw("line", &cut_json(cut)),
            None => obj.raw("line", "null"),
        };
        obj = obj.opt_str("line_method", self.line_method.map(LineMethod::name));
        let attempts = self
            .attempts
            .iter()
            .fold(JsonArray::new(), |arr, a| {
                arr.push_raw(
                    &JsonObject::new()
                        .u64("seed", a.seed)
                        .u64("deliver_weight", u64::from(a.deliver_weight))
                        .bool("reinjected", a.reinjected)
                        .bool("violation_found", a.violation_found)
                        .finish(),
                )
            })
            .finish();
        obj.raw("attempts", &attempts)
            .u64("replays", self.attempts.len() as u64)
            .finish()
    }
}

/// Runs the whole fault-tolerance loop on `faulty`:
///
/// 1. **Detect** a global fault with the resilient engine chain.
/// 2. **Locate** the recovery line (slice-based, exhaustive fallback).
///    When the slicing engine gave the verdict, the line is read off the
///    bottom of the slice it searched, so the fault spec is sliced once;
///    when another engine answered, the spec is sliced here.
/// 3. **Roll back** to the line and **replay** with a fresh protocol
///    instance from `make_protocol`, a fresh seed, and (on later
///    attempts) a more conservative scheduler.
/// 4. **Verify** the replayed run; retry up to the policy's bound.
///
/// `spec_of` must build the fault specification *against the computation
/// it is given* — replayed runs can hold variable values the original
/// never had (e.g. fresh partition numbers), so the specification is
/// re-derived per attempt.
pub fn recover<P, F, S>(
    mut make_protocol: F,
    spec_of: S,
    faulty: &Computation,
    cfg: &RecoverConfig,
) -> RecoveryOutcome
where
    P: Protocol,
    F: FnMut() -> P,
    S: Fn(&Computation) -> PredicateSpec,
{
    let _span = slicing_observe::span("recover.run");
    let spec = spec_of(faulty);
    let detection = detect_resilient(faulty, &spec, &cfg.detect);
    let mut outcome = RecoveryOutcome::new(RecoveryVerdict::Undetermined);
    outcome.engine = Some(detection.engine());
    outcome.engine_fallbacks = detection.fallbacks();
    if detection.exhausted {
        slicing_observe::counter("recover.fallback_exhausted", 1);
        return outcome;
    }
    outcome.detected = detection.detected();
    if !outcome.detected {
        outcome.verdict = RecoveryVerdict::CleanAlready;
        return outcome;
    }
    outcome.witness = detection.detection().found.clone();

    let line = match &detection.slice_bottom {
        Some(w) => {
            let _span = slicing_observe::span("recover.line");
            line_from_slice_bottom(faulty, &spec, Some(w), cfg.fallback_max_cuts)
        }
        None => recovery_line(faulty, &spec, cfg.fallback_max_cuts),
    };
    let line = match line {
        RecoveryLine::Clean { top } => {
            // Detection found a witness, so a clean line can only mean the
            // two disagree — treat the stronger evidence (the witness) as
            // authoritative and roll back conservatively to the bottom.
            slicing_observe::message(Level::Warn, || {
                "recovery line reported clean despite a detected witness; \
                 rolling back to bottom"
                    .to_owned()
            });
            drop(top);
            Cut::bottom(faulty.num_processes())
        }
        RecoveryLine::Line { cut, method } => {
            outcome.line_method = Some(method);
            cut
        }
        RecoveryLine::Unrecoverable => {
            outcome.verdict = RecoveryVerdict::Unrecoverable;
            slicing_observe::counter("recover.unrecoverable", 1);
            return outcome;
        }
        RecoveryLine::Undetermined => {
            // `recover.fallback_exhausted` was already counted inside.
            return outcome;
        }
    };
    outcome.line = Some(line.clone());

    for attempt in 0..cfg.retry.max_attempts.max(1) {
        let deliver_weight = if cfg.retry.backoff {
            (cfg.sim.deliver_weight >> attempt).max(1)
        } else {
            cfg.sim.deliver_weight
        };
        let attempt_cfg = SimConfig {
            seed: cfg.sim.seed.wrapping_add(u64::from(attempt) + 1),
            deliver_weight,
            ..cfg.sim.clone()
        };
        let mut protocol = make_protocol();
        let mut replayed = match resume(&mut protocol, faulty, &line, &attempt_cfg) {
            Ok(c) => c,
            Err(e) => {
                slicing_observe::message(Level::Error, || format!("replay failed to build: {e}"));
                return outcome;
            }
        };
        let mut reinjected = false;
        if attempt < cfg.retry.reinject_attempts {
            if let Some(plan) = &cfg.reinject {
                match inject_plan(&replayed, plan) {
                    Ok(c) => {
                        replayed = c;
                        reinjected = true;
                    }
                    Err(e) => {
                        // The replayed run may be too short for the plan's
                        // coordinates; the environment fault simply misses.
                        slicing_observe::message(Level::Debug, || {
                            format!("re-injection skipped: {e}")
                        });
                    }
                }
            }
        }
        let verify = detect_resilient(&replayed, &spec_of(&replayed), &cfg.detect);
        if verify.exhausted {
            slicing_observe::counter("recover.fallback_exhausted", 1);
            outcome.attempts.push(AttemptReport {
                seed: attempt_cfg.seed,
                deliver_weight,
                reinjected,
                violation_found: verify.detected(),
            });
            return outcome;
        }
        let violation_found = verify.detected();
        outcome.attempts.push(AttemptReport {
            seed: attempt_cfg.seed,
            deliver_weight,
            reinjected,
            violation_found,
        });
        if !violation_found {
            slicing_observe::counter("recover.recovered", 1);
            outcome.verdict = RecoveryVerdict::Recovered;
            outcome.recovered = Some(replayed);
            return outcome;
        }
        slicing_observe::counter("recover.retries", 1);
        slicing_observe::message(Level::Info, || {
            format!(
                "replay attempt {} (seed {}, deliver_weight {}) re-derived a violation; retrying",
                attempt + 1,
                attempt_cfg.seed,
                deliver_weight,
            )
        });
    }
    slicing_observe::counter("recover.retries_exhausted", 1);
    outcome.verdict = RecoveryVerdict::RetriesExhausted;
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use slicing_sim::fault::{inject_kind, FaultKind, FaultSpec};
    use slicing_sim::primary_secondary::{self, PrimarySecondary};
    use slicing_sim::run;

    fn ps_config(seed: u64) -> RecoverConfig {
        RecoverConfig {
            sim: SimConfig {
                seed,
                max_events_per_process: 8,
                ..SimConfig::default()
            },
            ..RecoverConfig::default()
        }
    }

    /// Faulty PS runs whose violation is actually detectable, each with
    /// the plan that corrupted it and the originating seed.
    fn detectable_faulty_runs(n: usize, want: usize) -> Vec<(Computation, FaultPlan, u64)> {
        let mut found = Vec::new();
        for seed in 0..40u64 {
            let cfg = ps_config(seed);
            let clean = run(&mut PrimarySecondary::new(n), &cfg.sim).unwrap();
            for victim in 0..n {
                let p = clean.process(victim);
                if clean.len(p) < 3 {
                    continue;
                }
                let kind = FaultKind::Corrupt(FaultSpec {
                    process: p,
                    position: clean.len(p) / 2,
                    var_name: "isSecondary".to_owned(),
                    value: slicing_computation::Value::Bool(false),
                    transient: false,
                });
                let Ok(faulty) = inject_kind(&clean, &kind) else {
                    continue;
                };
                let spec = primary_secondary::violation_spec(&faulty);
                let d = detect_resilient(&faulty, &spec, &ResilientConfig::default());
                if d.detected() {
                    found.push((faulty, FaultPlan::single(kind), seed));
                    if found.len() >= want {
                        return found;
                    }
                }
            }
        }
        assert!(
            !found.is_empty(),
            "no seed produced a detectable primary-secondary fault"
        );
        found
    }

    fn detectable_faulty_run(n: usize) -> (Computation, FaultPlan, u64) {
        detectable_faulty_runs(n, 1).pop().unwrap()
    }

    #[test]
    fn clean_run_is_clean_already() {
        let cfg = ps_config(3);
        let clean = run(&mut PrimarySecondary::new(3), &cfg.sim).unwrap();
        let outcome = recover(
            || PrimarySecondary::new(3),
            primary_secondary::violation_spec,
            &clean,
            &cfg,
        );
        assert_eq!(outcome.verdict, RecoveryVerdict::CleanAlready);
        assert!(!outcome.detected && outcome.attempts.is_empty());
    }

    #[test]
    fn detected_fault_recovers_via_rollback_and_replay() {
        let (faulty, _, seed) = detectable_faulty_run(3);
        let cfg = ps_config(seed);
        let outcome = recover(
            || PrimarySecondary::new(3),
            primary_secondary::violation_spec,
            &faulty,
            &cfg,
        );
        assert_eq!(outcome.verdict, RecoveryVerdict::Recovered, "{outcome:?}");
        assert!(outcome.detected);
        assert!(outcome.witness.is_some() && outcome.line.is_some());
        let recovered = outcome.recovered.as_ref().unwrap();
        // The verified run really is violation-free.
        let spec = primary_secondary::violation_spec(recovered);
        let d = detect_resilient(recovered, &spec, &ResilientConfig::default());
        assert!(!d.detected());
        // And the line is below the witness-bearing history's top.
        assert!(outcome.line.as_ref().unwrap().leq(&faulty.top_cut()));
    }

    #[test]
    fn reinjection_makes_the_first_attempt_fail_then_recovers() {
        // The plan's coordinates do not always exist in the replayed run
        // (it can be shorter on the victim process); probe scenarios until
        // one actually re-injects.
        let mut reinjection_seen = false;
        for (faulty, plan, seed) in detectable_faulty_runs(3, 8) {
            let mut cfg = ps_config(seed);
            cfg.retry.max_attempts = 5;
            cfg.retry.reinject_attempts = 1;
            cfg.reinject = Some(plan);
            let outcome = recover(
                || PrimarySecondary::new(3),
                primary_secondary::violation_spec,
                &faulty,
                &cfg,
            );
            // The re-injected attempt may or may not re-derive the
            // violation (the replayed schedule differs), but the loop must
            // end in recovery either way, and any failed attempt must be
            // recorded.
            assert_eq!(outcome.verdict, RecoveryVerdict::Recovered, "{outcome:?}");
            if outcome.attempts[0].reinjected {
                reinjection_seen = true;
                if outcome.attempts.len() > 1 {
                    assert!(outcome.attempts[0].violation_found);
                }
                break;
            }
        }
        assert!(reinjection_seen, "no scenario ever re-injected its plan");
    }

    #[test]
    fn backoff_halves_the_delivery_weight() {
        let (faulty, plan, seed) = detectable_faulty_run(3);
        let mut cfg = ps_config(seed);
        cfg.retry.max_attempts = 4;
        cfg.retry.reinject_attempts = 4;
        cfg.reinject = Some(plan);
        let outcome = recover(
            || PrimarySecondary::new(3),
            primary_secondary::violation_spec,
            &faulty,
            &cfg,
        );
        for (i, a) in outcome.attempts.iter().enumerate() {
            assert_eq!(
                a.deliver_weight,
                (cfg.sim.deliver_weight >> i).max(1),
                "attempt {i}"
            );
            assert_eq!(a.seed, cfg.sim.seed + i as u64 + 1);
        }
    }

    /// The fault spec is sliced once per recovery: the line is read off
    /// the slice detection searched, and each replay's verification slices
    /// its own run once — one J table each, however many `And`/`Or` nodes
    /// the spec has.
    #[test]
    fn one_fault_slice_per_recovery() {
        use slicing_observe::{Level, MemoryRecorder};
        use std::sync::Arc;

        let mut retried = false;
        for (faulty, plan, seed) in detectable_faulty_runs(3, 8) {
            let mut cfg = ps_config(seed);
            cfg.retry.max_attempts = 5;
            cfg.retry.reinject_attempts = 1;
            cfg.reinject = Some(plan);
            let rec = Arc::new(MemoryRecorder::new(Level::Trace));
            let outcome = {
                let _guard = slicing_observe::scoped(rec.clone());
                recover(
                    || PrimarySecondary::new(3),
                    primary_secondary::violation_spec,
                    &faulty,
                    &cfg,
                )
            };
            assert_eq!(outcome.verdict, RecoveryVerdict::Recovered, "{outcome:?}");
            assert_eq!(outcome.engine, Some(Engine::Slicing));
            assert_eq!(
                rec.counter_total("slice.j_table.builds"),
                1 + outcome.attempts.len() as u64,
                "seed {seed}: {outcome:?}"
            );
            retried |= outcome.attempts.len() > 1;
        }
        assert!(retried, "no scenario replayed more than once");
    }

    #[test]
    fn outcome_serializes_to_the_report_schema() {
        let (faulty, _, seed) = detectable_faulty_run(3);
        let cfg = ps_config(seed);
        let outcome = recover(
            || PrimarySecondary::new(3),
            primary_secondary::violation_spec,
            &faulty,
            &cfg,
        );
        let json = outcome.to_json();
        assert!(json.starts_with("{\"schema\":\"slicing.recovery-report/v1\""));
        assert!(json.contains("\"verdict\":\"recovered\""));
        assert!(json.contains("\"attempts\":["));
        assert!(json.contains("\"line\":["));
    }
}
