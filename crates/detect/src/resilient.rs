//! The engine registry and the one fallthrough chain over it.
//!
//! [`Engine`] names every detection engine once: it parses from the names
//! the CLI accepts ([`FromStr`]) and dispatches a run
//! ([`Engine::detect`]), so the CLI, the differential test kit and the
//! chain share one table.
//!
//! [`detect_chain`] runs an ordered list of (engine, budget) pairs and
//! falls through to the next pair whenever a budget (memory, cut count,
//! or deadline) is exhausted, so a single engine hitting its limit
//! degrades the run instead of failing it. Two presets feed it:
//!
//! - [`detect_resilient`], the default chain in the paper's preference
//!   order: slice-then-search (exponentially cheaper when the predicate
//!   slices well), the partial-order-methods baseline, and level-order
//!   enumeration (two lattice layers of live cuts) as the engine of last
//!   resort;
//! - [`hybrid_chain`], the paper's Section 5.1 hybrid: "predicate
//!   detection can be first done using the partial-order methods approach.
//!   In case it turns out that the approach is using too much memory … it
//!   can be aborted and the computation slicing approach can then be
//!   used." [`Engine::Hybrid`] runs it.

use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::time::Duration;

use slicing_computation::{Computation, Cut, GlobalState, ProcSet};
use slicing_core::PredicateSpec;
use slicing_observe::Level;
use slicing_predicates::Predicate;

use crate::enumerate::detect_bfs;
use crate::metrics::{Detection, Limits, Tracker};
use crate::pom::detect_pom;
use crate::reverse_search::detect_reverse_search;
use crate::slicing::detect_with_slicing;

/// A detection engine, by the name the CLI and reports use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Slice-then-search ([`detect_with_slicing`]).
    Slicing,
    /// The paper's hybrid: the [`hybrid_chain`] preset.
    Hybrid,
    /// Partial-order methods ([`detect_pom`]).
    Pom,
    /// Level-order lattice enumeration ([`detect_bfs`]).
    Bfs,
    /// Polynomial-space reverse search
    /// ([`detect_reverse_search`](crate::detect_reverse_search)).
    Reverse,
}

impl Engine {
    /// Every engine, in registry order.
    pub const ALL: [Engine; 5] = [
        Engine::Slicing,
        Engine::Hybrid,
        Engine::Pom,
        Engine::Bfs,
        Engine::Reverse,
    ];

    /// Stable lowercase name, used in counters and reports.
    pub fn name(self) -> &'static str {
        match self {
            Engine::Slicing => "slicing",
            Engine::Hybrid => "hybrid",
            Engine::Pom => "pom",
            Engine::Bfs => "bfs",
            Engine::Reverse => "reverse",
        }
    }

    /// Detects `possibly: pred` on `comp` with this engine under `limits`.
    ///
    /// The lattice engines evaluate `pred` directly; the slice-based ones
    /// (slicing, hybrid) slice `spec`, which must denote the same
    /// predicate. The hybrid returns the detection of the attempt that
    /// answered ([`ResilientDetection::into_detection`]).
    pub fn detect<P: Predicate + ?Sized>(
        self,
        comp: &Computation,
        pred: &P,
        spec: &PredicateSpec,
        limits: &Limits,
    ) -> Detection {
        match self {
            Engine::Slicing => detect_with_slicing(comp, spec, limits).search,
            Engine::Hybrid => {
                detect_chain(comp, spec, &hybrid_chain(comp, limits)).into_detection()
            }
            Engine::Pom => detect_pom(comp, pred, limits),
            Engine::Bfs => detect_bfs(comp, comp, pred, limits),
            Engine::Reverse => detect_reverse_search(comp, pred, limits),
        }
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
    /// The name of an engine folded into `bfs`: `lean`, `parallel`,
    /// `lean-parallel` or `dfs`. Level-order search keeps two layers of
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
            "lean" | "parallel" | "lean-parallel" | "dfs" => {
                Err(ParseEngineError::Retired(name.to_owned()))
            }
            _ => Err(ParseEngineError::Unknown(name.to_owned())),
        }
    }
}

/// A [`PredicateSpec`] viewed as a plain [`Predicate`], for the engines
/// that evaluate one (the spec-taking engines slice it instead), and the
/// residual predicate of a slice search.
///
/// Top-level conjunctions carry a *failed-clause hint*: lattice-adjacent
/// cuts tend to fail the same conjunct, so remembering the last refuting
/// child and trying it first turns the common reject into one child eval
/// instead of a scan to the refuting position. Conjunction is
/// order-blind, so the verdict is bit-identical to in-order evaluation.
#[derive(Debug)]
pub struct SpecPredicate<'s> {
    spec: &'s PredicateSpec,
    failed_clause: AtomicUsize,
}

impl<'s> SpecPredicate<'s> {
    /// Wraps `spec`, with no clause hinted yet.
    pub fn new(spec: &'s PredicateSpec) -> Self {
        SpecPredicate {
            spec,
            failed_clause: AtomicUsize::new(usize::MAX),
        }
    }
}

impl Predicate for SpecPredicate<'_> {
    fn support(&self) -> ProcSet {
        self.spec.support()
    }

    fn eval(&self, state: &GlobalState<'_>) -> bool {
        let PredicateSpec::And(children) = self.spec else {
            return self.spec.eval(state);
        };
        let hint = self.failed_clause.load(Relaxed);
        if let Some(c) = children.get(hint) {
            if !c.eval(state) {
                return false;
            }
        }
        for (i, c) in children.iter().enumerate() {
            if i != hint && !c.eval(state) {
                self.failed_clause.store(i, Relaxed);
                return false;
            }
        }
        true
    }
}

/// The paper's suggested partial-order budget: `c·n·|E|` for some small
/// constant `c`, in bytes of cut entries.
pub fn suggested_pom_budget(comp: &Computation, c: u64) -> u64 {
    c * comp.num_events() as u64 * Tracker::hash_entry_bytes(comp.num_processes())
}

/// The paper's hybrid as a [`detect_chain`] preset: partial-order methods
/// under [`suggested_pom_budget`] with `c = 4` (or `limits.max_bytes`,
/// if smaller), then slice-then-search under `limits`.
pub fn hybrid_chain(comp: &Computation, limits: &Limits) -> [(Engine, Limits); 2] {
    let budget = suggested_pom_budget(comp, 4);
    let pom = Limits {
        max_bytes: Some(budget.min(limits.max_bytes.unwrap_or(u64::MAX))),
        ..*limits
    };
    [(Engine::Pom, pom), (Engine::Slicing, *limits)]
}

/// Per-engine budgets of the default chain ([`detect_resilient`]). `None`
/// disables the engine entirely (it is skipped, not attempted).
#[derive(Debug, Clone)]
pub struct ResilientConfig {
    /// Budget of the slice-then-search attempt.
    pub slicing: Option<Limits>,
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
            pom: Some(limits),
            bfs: Some(limits),
        }
    }

    /// Splits a wall-clock budget evenly over the enabled engines, on top
    /// of the existing per-engine limits.
    pub fn with_total_deadline(mut self, total: Duration) -> Self {
        let slots = [&mut self.slicing, &mut self.pom, &mut self.bfs];
        let enabled = slots.iter().filter(|slot| slot.is_some()).count() as u32;
        if enabled > 0 {
            for limits in slots.into_iter().flatten() {
                *limits = limits.with_deadline(total / enabled);
            }
        }
        self
    }
}

/// One engine's run in a chain, with what it cost.
#[derive(Debug, Clone)]
pub struct Attempt {
    /// The engine that ran.
    pub engine: Engine,
    /// Its search; `aborted` is set when the chain fell through it.
    pub detection: Detection,
    /// Time spent building the slice; zero for the engines that do not
    /// slice.
    pub slicing_elapsed: Duration,
    /// Tracked bytes of the slice; zero for the engines that do not slice.
    pub slice_bytes: u64,
}

impl Attempt {
    /// Wall time of the attempt, the slice build included.
    pub fn total_elapsed(&self) -> Duration {
        self.slicing_elapsed + self.detection.elapsed
    }

    /// Peak tracked bytes of the attempt, the slice included.
    pub fn total_peak_bytes(&self) -> u64 {
        self.slice_bytes + self.detection.peak_bytes
    }
}

/// The outcome of a [`detect_chain`] run.
#[derive(Debug, Clone)]
pub struct ResilientDetection {
    /// Every attempt in chain order. The last one gave the verdict: the
    /// first to finish within budget, or the last engine of an exhausted
    /// chain.
    pub attempts: Vec<Attempt>,
    /// `true` when every engine exhausted its budget; the verdict is then
    /// *inconclusive*, not a clean "absent".
    pub exhausted: bool,
    /// The bottom of the slice of the spec, when the slicing engine gave
    /// the verdict on a non-empty slice; `None` when another engine
    /// answered. Lets a caller that needs the slice's bottom (the recovery
    /// line) skip slicing the spec again.
    pub slice_bottom: Option<Cut>,
}

impl ResilientDetection {
    fn last(&self) -> &Attempt {
        self.attempts
            .last()
            .expect("a chain runs at least one engine")
    }

    /// The engine that gave the verdict.
    pub fn engine(&self) -> Engine {
        self.last().engine
    }

    /// The detection of the engine that gave the verdict.
    pub fn detection(&self) -> &Detection {
        &self.last().detection
    }

    /// The detection of the engine that gave the verdict, with one phase
    /// per attempt in chain order: an engine's own phases (the slice and
    /// search of slice-then-search), or its name and wall time.
    pub fn into_detection(self) -> Detection {
        let mut phases = Vec::new();
        let mut last = None;
        for Attempt {
            engine,
            mut detection,
            ..
        } in self.attempts
        {
            if detection.phases.is_empty() {
                detection
                    .phases
                    .push((engine.name().to_owned(), detection.elapsed));
            }
            phases.append(&mut detection.phases);
            last = Some(detection);
        }
        let mut detection = last.expect("a chain runs at least one engine");
        detection.phases = phases;
        detection
    }

    /// `true` if a violating cut was found by any engine.
    pub fn detected(&self) -> bool {
        self.detection().detected()
    }

    /// Number of engines that fell through before the final one.
    pub fn fallbacks(&self) -> usize {
        self.attempts.len().saturating_sub(1)
    }
}

/// Detects `possibly: spec` through `chain`: each engine runs under its
/// own budget, and a budget exhaustion falls through to the next engine
/// instead of aborting the run. Every fallback increments the
/// `detect.resilient.fallback` counter; if the whole chain exhausts,
/// `detect.resilient.exhausted` is bumped and the result is marked
/// inconclusive.
///
/// # Panics
///
/// Panics if `chain` is empty.
pub fn detect_chain(
    comp: &Computation,
    spec: &PredicateSpec,
    chain: &[(Engine, Limits)],
) -> ResilientDetection {
    let _span = slicing_observe::span("detect.resilient");
    let pred = SpecPredicate::new(spec);
    let mut attempts = Vec::with_capacity(chain.len());
    for (engine, limits) in chain {
        let (attempt, slice_bottom) = match engine {
            Engine::Slicing => {
                let sliced = detect_with_slicing(comp, spec, limits);
                let attempt = Attempt {
                    engine: Engine::Slicing,
                    detection: sliced.search,
                    slicing_elapsed: sliced.slicing_elapsed,
                    slice_bytes: sliced.slice_bytes,
                };
                (attempt, sliced.slice_bottom)
            }
            &engine => {
                let attempt = Attempt {
                    engine,
                    detection: engine.detect(comp, &pred, spec, limits),
                    slicing_elapsed: Duration::ZERO,
                    slice_bytes: 0,
                };
                (attempt, None)
            }
        };
        let aborted = attempt.detection.aborted;
        let cuts = attempt.detection.cuts_explored;
        attempts.push(attempt);
        let Some(reason) = aborted else {
            return ResilientDetection {
                attempts,
                exhausted: false,
                slice_bottom,
            };
        };
        slicing_observe::counter("detect.resilient.fallback", 1);
        slicing_observe::message(Level::Info, || {
            format!("resilient: {engine} aborted ({reason}) after {cuts} cuts; falling through")
        });
    }
    assert!(!attempts.is_empty(), "at least one engine must be enabled");
    slicing_observe::counter("detect.resilient.exhausted", 1);
    ResilientDetection {
        attempts,
        exhausted: true,
        slice_bottom: None,
    }
}

/// Detects `possibly: spec` through the default chain: slicing, then
/// partial-order methods, then level-order enumeration, each under its
/// budget from `config` and skipped when that budget is `None`.
///
/// # Panics
///
/// Panics if `config` disables every engine.
pub fn detect_resilient(
    comp: &Computation,
    spec: &PredicateSpec,
    config: &ResilientConfig,
) -> ResilientDetection {
    let chain: Vec<(Engine, Limits)> = [
        (Engine::Slicing, config.slicing),
        (Engine::Pom, config.pom),
        (Engine::Bfs, config.bfs),
    ]
    .into_iter()
    .filter_map(|(engine, limits)| Some((engine, limits?)))
    .collect();
    detect_chain(comp, spec, &chain)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::AbortReason;
    use slicing_computation::test_fixtures::figure1;
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

    /// Each attempt's engine and abort reason, in chain order.
    fn trail(r: &ResilientDetection) -> Vec<(Engine, Option<AbortReason>)> {
        r.attempts
            .iter()
            .map(|a| (a.engine, a.detection.aborted))
            .collect()
    }

    #[test]
    fn first_engine_answers_when_unlimited() {
        let comp = figure1();
        let spec = figure1_spec(&comp);
        let r = detect_resilient(&comp, &spec, &ResilientConfig::default());
        assert_eq!(r.engine(), Engine::Slicing);
        assert_eq!(r.fallbacks(), 0);
        assert!(r.detected() && !r.exhausted);
        let cut = r.detection().found.as_ref().unwrap();
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
            pom: Some(starved),
            bfs: Some(Limits::none()),
        };
        let r = detect_resilient(&comp, &spec, &config);
        assert_eq!(r.engine(), Engine::Bfs);
        assert_eq!(r.fallbacks(), 2);
        assert!(!r.exhausted);
        let engines: Vec<Engine> = r.attempts.iter().map(|a| a.engine).collect();
        assert_eq!(engines, vec![Engine::Slicing, Engine::Pom, Engine::Bfs]);
        for a in &r.attempts[..2] {
            assert!(
                a.detection.aborted.is_some(),
                "{} should have aborted",
                a.engine
            );
        }
    }

    /// The default chain runs each engine once, so the slice is built once
    /// even when every engine before the last starves.
    #[test]
    fn starved_chain_slices_once() {
        let (comp, spec) = starvable_input();
        let starved = Limits::new(None, Some(1));
        let config = ResilientConfig {
            slicing: Some(starved),
            pom: Some(starved),
            bfs: Some(Limits::none()),
        };
        let rec = std::sync::Arc::new(slicing_observe::MemoryRecorder::new(Level::Trace));
        let r = {
            let _g = slicing_observe::scoped(rec.clone());
            detect_resilient(&comp, &spec, &config)
        };
        let engines: Vec<Engine> = r.attempts.iter().map(|a| a.engine).collect();
        assert_eq!(engines, [Engine::Slicing, Engine::Pom, Engine::Bfs]);
        let spans = rec.span_counts();
        assert_eq!(spans.get("detect.slice_then_search"), Some(&(1, 1)));
        assert_eq!(spans.get("detect.pom"), Some(&(1, 1)));
        assert_eq!(rec.counter_total("detect.resilient.fallback"), 2);
    }

    #[test]
    fn exhausted_chain_is_flagged_inconclusive() {
        let (comp, spec) = starvable_input();
        let starved = Limits::new(None, Some(1));
        let r = detect_resilient(&comp, &spec, &ResilientConfig::uniform(starved));
        assert!(r.exhausted);
        assert!(!r.detected());
        assert_eq!(r.attempts.len(), 3);
        assert!(r.attempts.iter().all(|a| a.detection.aborted.is_some()));
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
            assert_eq!(r.engine(), Engine::Slicing);
            assert_eq!(r.slice_bottom.as_ref(), spec.slice(&comp).bottom_cut());
        }

        let (comp, spec) = starvable_input();
        let config = ResilientConfig {
            slicing: Some(Limits::new(None, Some(1))),
            ..ResilientConfig::default()
        };
        let r = detect_resilient(&comp, &spec, &config);
        let first = &r.attempts[0];
        assert!(first.engine == Engine::Slicing && first.detection.aborted.is_some());
        assert_ne!(r.engine(), Engine::Slicing);
        assert!(spec.slice(&comp).bottom_cut().is_some());
        assert_eq!(r.slice_bottom, None);
    }

    #[test]
    fn disabled_engines_are_skipped() {
        let comp = figure1();
        let spec = figure1_spec(&comp);
        let config = ResilientConfig {
            slicing: None,
            pom: None,
            bfs: Some(Limits::none()),
        };
        let r = detect_resilient(&comp, &spec, &config);
        assert_eq!(r.engine(), Engine::Bfs);
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
            pom: Some(Limits::live_cuts(1)),
            bfs: Some(Limits::live_cuts(64)),
        };
        let rec = std::sync::Arc::new(slicing_observe::MemoryRecorder::new(Level::Trace));
        let r = {
            let _g = slicing_observe::scoped(rec.clone());
            detect_resilient(&comp, &spec, &config)
        };
        assert_eq!(
            trail(&r),
            vec![
                (Engine::Pom, Some(AbortReason::LiveCutLimit)),
                (Engine::Bfs, None)
            ]
        );
        assert_eq!(r.engine(), Engine::Bfs);
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
        assert_eq!(trail(&r)[1], (Engine::Bfs, Some(AbortReason::LiveCutLimit)));
    }

    #[test]
    fn registry_names_round_trip_and_retired_names_are_typed() {
        for engine in Engine::ALL {
            assert_eq!(engine.name().parse::<Engine>(), Ok(engine));
        }
        assert_eq!("slice".parse::<Engine>(), Ok(Engine::Slicing));
        for retired in ["lean", "parallel", "lean-parallel", "dfs"] {
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
        assert!(config.pom.is_none());
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

    #[test]
    fn pom_answers_within_generous_budget() {
        let comp = figure1();
        let spec = figure1_spec(&comp);
        let r = detect_chain(&comp, &spec, &hybrid_chain(&comp, &Limits::none()));
        assert_eq!(trail(&r), [(Engine::Pom, None)]);
        assert!(r.detected());
        let cut = r.detection().found.as_ref().unwrap();
        assert!(spec.eval(&GlobalState::new(&comp, cut)));
        let d = Engine::Hybrid.detect(&comp, &SpecPredicate::new(&spec), &spec, &Limits::none());
        assert_eq!(d.found.as_ref(), Some(cut));
        assert_eq!(d.phases, [("pom".to_owned(), d.elapsed)]);
    }

    #[test]
    fn tight_budget_falls_back_to_slicing() {
        // Fault-free protocol run: POM must sweep a large space; a tiny
        // budget forces the fallback, and slicing still answers correctly.
        let cfg = SimConfig {
            seed: 3,
            max_events_per_process: 10,
            ..SimConfig::default()
        };
        let comp = run(&mut PrimarySecondary::new(4), &cfg).unwrap();
        let spec = primary_secondary::violation_spec(&comp);
        let chain = [
            (Engine::Pom, Limits::bytes(512)),
            (Engine::Slicing, Limits::none()),
        ];
        let r = detect_chain(&comp, &spec, &chain);
        assert_eq!(
            trail(&r),
            [
                (Engine::Pom, Some(AbortReason::MemoryLimit)),
                (Engine::Slicing, None)
            ]
        );
        assert!(!r.detected(), "fault-free run must stay clean");
        let slicing = &r.attempts[1];
        assert!(slicing.slice_bytes > 0);
        assert!(slicing.total_elapsed() >= slicing.detection.elapsed);
        let phases: Vec<String> = r.into_detection().phases.into_iter().map(|p| p.0).collect();
        assert_eq!(phases, ["pom", "slice", "search"]);
    }

    #[test]
    fn hybrid_agrees_with_slicing_on_faulty_runs() {
        let cfg = SimConfig {
            seed: 8,
            max_events_per_process: 8,
            ..SimConfig::default()
        };
        let comp = run(&mut PrimarySecondary::new(3), &cfg).unwrap();
        let (faulty, _) = inject_primary_secondary_fault(&comp, 4).unwrap();
        let spec = primary_secondary::violation_spec(&faulty);
        let direct = detect_with_slicing(&faulty, &spec, &Limits::none());
        for budget in [256u64, 1 << 24] {
            let chain = [
                (Engine::Pom, Limits::bytes(budget)),
                (Engine::Slicing, Limits::none()),
            ];
            let r = detect_chain(&faulty, &spec, &chain);
            assert_eq!(r.detected(), direct.detected(), "budget {budget}");
        }
    }

    #[test]
    fn suggested_budget_scales_with_size() {
        let comp = figure1();
        let small = suggested_pom_budget(&comp, 1);
        let big = suggested_pom_budget(&comp, 10);
        assert_eq!(big, 10 * small);
        assert!(small > 0);
        // The hybrid preset caps POM at 4× that, or at a smaller byte
        // limit, and hands slicing the caller's limits unchanged.
        let limits = Limits::cuts(7);
        let [(pom, pom_limits), (slicing, slicing_limits)] = hybrid_chain(&comp, &limits);
        assert_eq!((pom, slicing), (Engine::Pom, Engine::Slicing));
        assert_eq!(pom_limits.max_bytes, Some(4 * small));
        assert_eq!(pom_limits.max_cuts, Some(7));
        assert_eq!(slicing_limits.max_bytes, None);
        let [(_, capped), _] = hybrid_chain(&comp, &Limits::bytes(small));
        assert_eq!(capped.max_bytes, Some(small));
    }
}
