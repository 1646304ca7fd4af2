//! The engine registry and graceful degradation across it.
//!
//! [`Engine`] names every detection engine once: it parses from the names
//! the CLI accepts ([`FromStr`]) and dispatches a run
//! ([`Engine::detect`]), so the CLI, the differential test kit and the
//! degradation chain share one table.
//!
//! [`detect_resilient`] tries the cheapest suitable engine first and falls
//! through to progressively more general ones whenever a budget (memory,
//! cut count, or deadline) is exhausted, so a single engine hitting its
//! limit degrades the run instead of failing it. The default chain mirrors
//! the paper's preference order: slice-then-search (exponentially cheaper
//! when the predicate slices well), the hybrid strategy of Section 5.1,
//! the partial-order-methods baseline, and finally level-order
//! enumeration (two lattice layers of live cuts) as the engine of last
//! resort.

use std::fmt;
use std::str::FromStr;
use std::time::Duration;

use slicing_computation::{Computation, Cut, GlobalState, ProcSet};
use slicing_core::PredicateSpec;
use slicing_observe::Level;
use slicing_predicates::Predicate;

use crate::enumerate::{detect_bfs, detect_dfs};
use crate::hybrid::{detect_hybrid, suggested_pom_budget, HybridPhase};
use crate::metrics::{AbortReason, Detection, Limits};
use crate::pom::detect_pom;
use crate::reverse_search::detect_reverse_search;
use crate::slicing::detect_with_slicing;

/// A detection engine, by the name the CLI and reports use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Slice-then-search ([`detect_with_slicing`]).
    Slicing,
    /// The paper's hybrid strategy ([`detect_hybrid`]).
    Hybrid,
    /// Partial-order methods ([`detect_pom`]).
    Pom,
    /// Level-order lattice enumeration ([`detect_bfs`]).
    Bfs,
    /// Depth-first lattice enumeration ([`detect_dfs`]).
    Dfs,
    /// Polynomial-space reverse search
    /// ([`detect_reverse_search`](crate::detect_reverse_search)).
    Reverse,
}

impl Engine {
    /// Every engine, in registry order.
    pub const ALL: [Engine; 6] = [
        Engine::Slicing,
        Engine::Hybrid,
        Engine::Pom,
        Engine::Bfs,
        Engine::Dfs,
        Engine::Reverse,
    ];

    /// Stable lowercase name, used in counters and reports.
    pub fn name(self) -> &'static str {
        match self {
            Engine::Slicing => "slicing",
            Engine::Hybrid => "hybrid",
            Engine::Pom => "pom",
            Engine::Bfs => "bfs",
            Engine::Dfs => "dfs",
            Engine::Reverse => "reverse",
        }
    }

    /// Detects `possibly: pred` on `comp` with this engine under `limits`.
    ///
    /// The lattice engines evaluate `pred` directly; the slice-based ones
    /// (slicing, hybrid) slice `spec`, which must denote the same
    /// predicate. The hybrid returns the detection of the phase that
    /// answered, with [`suggested_pom_budget`] as its partial-order
    /// budget.
    pub fn detect<P: Predicate + ?Sized>(
        self,
        comp: &Computation,
        pred: &P,
        spec: &PredicateSpec,
        limits: &Limits,
    ) -> Detection {
        match self {
            Engine::Slicing => detect_with_slicing(comp, spec, limits).search,
            Engine::Hybrid => hybrid(comp, spec, suggested_pom_budget(comp, 4), limits),
            Engine::Pom => detect_pom(comp, pred, limits),
            Engine::Bfs => detect_bfs(comp, comp, pred, limits),
            Engine::Dfs => detect_dfs(comp, comp, pred, limits),
            Engine::Reverse => detect_reverse_search(comp, pred, limits),
        }
    }
}

/// The hybrid run's answer: the partial-order detection, or the slicing
/// one when the partial-order phase ran out of budget.
fn hybrid(comp: &Computation, spec: &PredicateSpec, pom_budget: u64, limits: &Limits) -> Detection {
    let h = detect_hybrid(comp, spec, pom_budget, limits);
    match h.phase {
        HybridPhase::PartialOrder => h.pom,
        HybridPhase::Slicing => h.slicing.expect("slicing phase ran").search,
    }
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Why a name does not parse as an [`Engine`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseEngineError {
    /// The name of an engine folded into `bfs`: `lean`, `parallel` or
    /// `lean-parallel`. Level-order search now keeps lean's two layers of
    /// live cuts on one thread.
    Retired(String),
    /// A name that is not in the registry.
    Unknown(String),
}

impl fmt::Display for ParseEngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseEngineError::Retired(name) => write!(
                f,
                "engine {name:?} was folded into bfs, which now keeps two lattice layers of live cuts"
            ),
            ParseEngineError::Unknown(name) => {
                write!(f, "unknown engine {name:?} (expected one of ")?;
                for (i, engine) in Engine::ALL.iter().enumerate() {
                    let sep = if i == 0 { "" } else { ", " };
                    write!(f, "{sep}{engine}")?;
                }
                f.write_str(")")
            }
        }
    }
}

impl std::error::Error for ParseEngineError {}

impl FromStr for Engine {
    type Err = ParseEngineError;

    /// Parses a registry name; `slice` is accepted for `slicing`.
    fn from_str(name: &str) -> Result<Self, Self::Err> {
        if name == "slice" {
            return Ok(Engine::Slicing);
        }
        if let Some(engine) = Engine::ALL.into_iter().find(|e| e.name() == name) {
            return Ok(engine);
        }
        match name {
            "lean" | "parallel" | "lean-parallel" => {
                Err(ParseEngineError::Retired(name.to_owned()))
            }
            _ => Err(ParseEngineError::Unknown(name.to_owned())),
        }
    }
}

/// A [`PredicateSpec`] viewed as a plain [`Predicate`], for the engines
/// that evaluate one (the spec-taking engines slice it instead).
#[derive(Debug)]
pub struct SpecPredicate<'s>(pub &'s PredicateSpec);

impl Predicate for SpecPredicate<'_> {
    fn support(&self) -> ProcSet {
        self.0.support()
    }
    fn eval(&self, state: &GlobalState<'_>) -> bool {
        self.0.eval(state)
    }
}

/// Per-engine budgets for a [`detect_resilient`] run. `None` disables the
/// engine entirely (it is skipped, not attempted).
#[derive(Debug, Clone)]
pub struct ResilientConfig {
    /// Budget of the slice-then-search attempt.
    pub slicing: Option<Limits>,
    /// Budget of the hybrid attempt.
    pub hybrid: Option<Limits>,
    /// Byte budget handed to the hybrid's partial-order phase; `None`
    /// means [`suggested_pom_budget`] with the paper's small constant.
    pub hybrid_pom_budget: Option<u64>,
    /// Budget of the partial-order-methods attempt.
    pub pom: Option<Limits>,
    /// Budget of the last-resort level-order attempt. Pairs naturally with
    /// [`Limits::max_live_cuts`]: it keeps only two lattice layers alive,
    /// so caps that abort the global-visited engines still let it finish.
    pub bfs: Option<Limits>,
}

impl Default for ResilientConfig {
    /// Every engine enabled and unlimited: the chain then always answers
    /// on its first engine. Tighten individual budgets to exercise the
    /// fallbacks.
    fn default() -> Self {
        ResilientConfig::uniform(Limits::none())
    }
}

impl ResilientConfig {
    /// The same budget for every engine in the chain.
    pub fn uniform(limits: Limits) -> Self {
        ResilientConfig {
            slicing: Some(limits),
            hybrid: Some(limits),
            hybrid_pom_budget: None,
            pom: Some(limits),
            bfs: Some(limits),
        }
    }

    /// Splits a wall-clock budget evenly over the enabled engines, on top
    /// of the existing per-engine limits.
    pub fn with_total_deadline(mut self, total: Duration) -> Self {
        let enabled = [
            self.slicing.is_some(),
            self.hybrid.is_some(),
            self.pom.is_some(),
            self.bfs.is_some(),
        ]
        .iter()
        .filter(|&&on| on)
        .count() as u32;
        if enabled == 0 {
            return self;
        }
        let share = total / enabled;
        for slot in [
            &mut self.slicing,
            &mut self.hybrid,
            &mut self.pom,
            &mut self.bfs,
        ] {
            if let Some(l) = slot.take() {
                *slot = Some(l.with_deadline(share));
            }
        }
        self
    }
}

/// The outcome of a [`detect_resilient`] run.
#[derive(Debug, Clone)]
pub struct ResilientDetection {
    /// The engine that produced the final verdict (the first one to finish
    /// within budget, or the last attempted engine when all exhausted).
    pub engine: Engine,
    /// Every attempt in order, with the abort reason of the ones that fell
    /// through (`None` marks the engine that completed).
    pub attempts: Vec<(Engine, Option<AbortReason>)>,
    /// The final engine's detection result.
    pub detection: Detection,
    /// `true` when every enabled engine exhausted its budget; the
    /// `detection` verdict is then *inconclusive*, not a clean "absent".
    pub exhausted: bool,
    /// The bottom of the slice of the spec, when the slicing engine gave
    /// the verdict on a non-empty slice; `None` when another engine
    /// answered. Lets a caller that needs the slice's bottom (the recovery
    /// line) skip slicing the spec again.
    pub slice_bottom: Option<Cut>,
}

impl ResilientDetection {
    /// `true` if a violating cut was found by any engine.
    pub fn detected(&self) -> bool {
        self.detection.detected()
    }

    /// Number of engines that fell through before the final one.
    pub fn fallbacks(&self) -> usize {
        self.attempts.len().saturating_sub(1)
    }
}

/// Detects `possibly: spec` with graceful degradation: each enabled engine
/// runs under its own budget from [`ResilientConfig`], and a budget
/// exhaustion falls through to the next engine instead of aborting the
/// run. Every fallback increments the `detect.resilient.fallback` counter;
/// if the whole chain exhausts, `detect.resilient.exhausted` is bumped and
/// the result is marked inconclusive.
pub fn detect_resilient(
    comp: &Computation,
    spec: &PredicateSpec,
    config: &ResilientConfig,
) -> ResilientDetection {
    let _span = slicing_observe::span("detect.resilient");
    let chain: [(Engine, &Option<Limits>); 4] = [
        (Engine::Slicing, &config.slicing),
        (Engine::Hybrid, &config.hybrid),
        (Engine::Pom, &config.pom),
        (Engine::Bfs, &config.bfs),
    ];
    let mut attempts: Vec<(Engine, Option<AbortReason>)> = Vec::new();
    let mut last: Option<(Engine, Detection)> = None;
    for (engine, limits) in chain {
        let Some(limits) = limits else { continue };
        let (detection, slice_bottom) = match (engine, config.hybrid_pom_budget) {
            (Engine::Slicing, _) => {
                let sliced = detect_with_slicing(comp, spec, limits);
                (sliced.search, sliced.slice_bottom)
            }
            (Engine::Hybrid, Some(budget)) => (hybrid(comp, spec, budget, limits), None),
            _ => (
                engine.detect(comp, &SpecPredicate(spec), spec, limits),
                None,
            ),
        };
        let aborted = detection.aborted;
        attempts.push((engine, aborted));
        if aborted.is_none() {
            return ResilientDetection {
                engine,
                attempts,
                detection,
                exhausted: false,
                slice_bottom,
            };
        }
        slicing_observe::counter("detect.resilient.fallback", 1);
        slicing_observe::message(Level::Info, || {
            format!(
                "resilient: {engine} aborted ({}) after {} cuts; falling through",
                aborted.map(|r| r.to_string()).unwrap_or_default(),
                detection.cuts_explored,
            )
        });
        last = Some((engine, detection));
    }
    slicing_observe::counter("detect.resilient.exhausted", 1);
    let (engine, detection) = last.expect("at least one engine must be enabled");
    ResilientDetection {
        engine,
        attempts,
        detection,
        exhausted: true,
        slice_bottom: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slicing_computation::test_fixtures::figure1;
    use slicing_computation::GlobalState;
    use slicing_predicates::{Conjunctive, LocalPredicate};
    use slicing_sim::fault::inject_primary_secondary_fault;
    use slicing_sim::primary_secondary::{self, PrimarySecondary};
    use slicing_sim::{run, SimConfig};

    fn figure1_spec(comp: &Computation) -> PredicateSpec {
        let x1 = comp.var(comp.process(0), "x1").unwrap();
        let x3 = comp.var(comp.process(2), "x3").unwrap();
        PredicateSpec::conjunctive(Conjunctive::new(vec![
            LocalPredicate::int(x1, "x1 > 1", |x| x > 1),
            LocalPredicate::int(x3, "x3 <= 3", |x| x <= 3),
        ]))
    }

    #[test]
    fn first_engine_answers_when_unlimited() {
        let comp = figure1();
        let spec = figure1_spec(&comp);
        let r = detect_resilient(&comp, &spec, &ResilientConfig::default());
        assert_eq!(r.engine, Engine::Slicing);
        assert_eq!(r.fallbacks(), 0);
        assert!(r.detected() && !r.exhausted);
        let cut = r.detection.found.as_ref().unwrap();
        assert!(spec.eval(&GlobalState::new(&comp, cut)));
    }

    /// A faulty run on which every engine starves under a one-cut budget:
    /// the slice is non-empty but its bottom does not satisfy (so
    /// slice-then-search aborts rather than answering on its first cut),
    /// and the computation's bottom does not satisfy either (so POM/BFS
    /// abort too). Probed with the starved engine itself, which makes the
    /// choice self-validating.
    fn starvable_input() -> (Computation, PredicateSpec) {
        let starved = Limits::new(None, Some(1));
        for seed in 0..80u64 {
            let cfg = SimConfig {
                seed,
                max_events_per_process: 8,
                ..SimConfig::default()
            };
            let comp = run(&mut PrimarySecondary::new(4), &cfg).unwrap();
            let Some((faulty, _)) = inject_primary_secondary_fault(&comp, seed) else {
                continue;
            };
            let spec = primary_secondary::violation_spec(&faulty);
            let bottom = slicing_computation::Cut::bottom(4);
            if spec.eval(&GlobalState::new(&faulty, &bottom)) {
                continue;
            }
            if detect_with_slicing(&faulty, &spec, &starved)
                .search
                .aborted
                .is_some()
            {
                return (faulty, spec);
            }
        }
        panic!("no faulty run starves the slicing engine at one cut");
    }

    #[test]
    fn starved_engines_fall_through_in_chain_order() {
        let (comp, spec) = starvable_input();
        // Starve everything upstream of BFS: one cut of budget forces each
        // engine to abort immediately.
        let starved = Limits::new(None, Some(1));
        let config = ResilientConfig {
            slicing: Some(starved),
            hybrid: Some(starved),
            hybrid_pom_budget: None,
            pom: Some(starved),
            bfs: Some(Limits::none()),
        };
        let r = detect_resilient(&comp, &spec, &config);
        assert_eq!(r.engine, Engine::Bfs);
        assert_eq!(r.fallbacks(), 3);
        assert!(!r.exhausted);
        let engines: Vec<Engine> = r.attempts.iter().map(|&(e, _)| e).collect();
        assert_eq!(
            engines,
            vec![Engine::Slicing, Engine::Hybrid, Engine::Pom, Engine::Bfs]
        );
        for (e, reason) in &r.attempts[..3] {
            assert!(reason.is_some(), "{e} should have aborted");
        }
    }

    #[test]
    fn exhausted_chain_is_flagged_inconclusive() {
        let (comp, spec) = starvable_input();
        let starved = Limits::new(None, Some(1));
        let r = detect_resilient(&comp, &spec, &ResilientConfig::uniform(starved));
        assert!(r.exhausted);
        assert!(!r.detected());
        assert_eq!(r.attempts.len(), 4);
        assert!(r.attempts.iter().all(|&(_, reason)| reason.is_some()));
    }

    /// The slice bottom rides along only when slicing gave the verdict: it
    /// is the bottom of the spec's slice then (none for an empty slice),
    /// and none when a starved slicing attempt fell through.
    #[test]
    fn slice_bottom_is_carried_only_when_slicing_answers() {
        let comp = figure1();
        for spec in [
            figure1_spec(&comp),
            PredicateSpec::conjunctive(Conjunctive::new(vec![LocalPredicate::int(
                comp.var(comp.process(0), "x1").unwrap(),
                "x1 > 99",
                |x| x > 99,
            )])),
        ] {
            let r = detect_resilient(&comp, &spec, &ResilientConfig::default());
            assert_eq!(r.engine, Engine::Slicing);
            assert_eq!(r.slice_bottom.as_ref(), spec.slice(&comp).bottom_cut());
        }

        let (comp, spec) = starvable_input();
        let config = ResilientConfig {
            slicing: Some(Limits::new(None, Some(1))),
            ..ResilientConfig::default()
        };
        let r = detect_resilient(&comp, &spec, &config);
        assert!(r.attempts[0].0 == Engine::Slicing && r.attempts[0].1.is_some());
        assert_ne!(r.engine, Engine::Slicing);
        assert!(spec.slice(&comp).bottom_cut().is_some());
        assert_eq!(r.slice_bottom, None);
    }

    #[test]
    fn disabled_engines_are_skipped() {
        let comp = figure1();
        let spec = figure1_spec(&comp);
        let config = ResilientConfig {
            slicing: None,
            hybrid: None,
            hybrid_pom_budget: None,
            pom: None,
            bfs: Some(Limits::none()),
        };
        let r = detect_resilient(&comp, &spec, &config);
        assert_eq!(r.engine, Engine::Bfs);
        assert_eq!(r.attempts.len(), 1);
        assert!(r.detected());
    }

    #[test]
    fn live_cut_exhaustion_falls_through_with_counter() {
        // A live-cut cap of 1 starves POM before it can answer; the abort
        // is a clean budget verdict (not a wrong answer), the chain falls
        // through to BFS, and exactly one fallback is counted.
        let comp = figure1();
        let spec = figure1_spec(&comp);
        let config = ResilientConfig {
            slicing: None,
            hybrid: None,
            hybrid_pom_budget: None,
            pom: Some(Limits::live_cuts(1)),
            bfs: Some(Limits::live_cuts(64)),
        };
        let rec = std::sync::Arc::new(slicing_observe::MemoryRecorder::new(
            slicing_observe::Level::Trace,
        ));
        let r = {
            let _g = slicing_observe::scoped(rec.clone());
            detect_resilient(&comp, &spec, &config)
        };
        assert_eq!(
            r.attempts,
            vec![
                (Engine::Pom, Some(AbortReason::LiveCutLimit)),
                (Engine::Bfs, None)
            ]
        );
        assert_eq!(r.engine, Engine::Bfs);
        assert!(r.detected() && !r.exhausted);
        assert_eq!(rec.counter_total("detect.resilient.fallback"), 1);
        assert_eq!(rec.counter_total("detect.resilient.exhausted"), 0);
        // A cap below two lattice layers starves BFS too.
        let starved = ResilientConfig {
            bfs: Some(Limits::live_cuts(1)),
            ..config
        };
        let r = detect_resilient(&comp, &spec, &starved);
        assert!(r.exhausted && !r.detected());
        assert_eq!(
            r.attempts[1],
            (Engine::Bfs, Some(AbortReason::LiveCutLimit))
        );
    }

    #[test]
    fn registry_names_round_trip_and_retired_names_are_typed() {
        for engine in Engine::ALL {
            assert_eq!(engine.name().parse::<Engine>(), Ok(engine));
        }
        assert_eq!("slice".parse::<Engine>(), Ok(Engine::Slicing));
        for retired in ["lean", "parallel", "lean-parallel"] {
            let err = retired.parse::<Engine>().unwrap_err();
            assert_eq!(err, ParseEngineError::Retired(retired.to_owned()));
            assert!(err.to_string().contains("folded into bfs"), "{err}");
        }
        let err = "warp".parse::<Engine>().unwrap_err();
        assert!(err.to_string().contains("unknown engine"), "{err}");
    }

    #[test]
    fn total_deadline_splits_over_enabled_engines() {
        let config = ResilientConfig {
            slicing: Some(Limits::none()),
            hybrid: None,
            hybrid_pom_budget: None,
            pom: None,
            bfs: Some(Limits::none()),
        }
        .with_total_deadline(Duration::from_millis(100));
        assert_eq!(
            config.slicing.as_ref().unwrap().max_elapsed,
            Some(Duration::from_millis(50))
        );
        assert_eq!(
            config.bfs.as_ref().unwrap().max_elapsed,
            Some(Duration::from_millis(50))
        );
        assert!(config.hybrid.is_none());
    }

    #[test]
    fn resilient_verdict_matches_direct_slicing() {
        for seed in [3u64, 8, 13] {
            let cfg = SimConfig {
                seed,
                max_events_per_process: 8,
                ..SimConfig::default()
            };
            let comp = run(&mut PrimarySecondary::new(3), &cfg).unwrap();
            let (faulty, _) = inject_primary_secondary_fault(&comp, seed).unwrap();
            let spec = primary_secondary::violation_spec(&faulty);
            let direct = detect_with_slicing(&faulty, &spec, &Limits::none());
            let resilient = detect_resilient(&faulty, &spec, &ResilientConfig::default());
            assert_eq!(direct.detected(), resilient.detected(), "seed {seed}");
        }
    }
}
