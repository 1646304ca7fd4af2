//! Shared experiment harness for reproducing the paper's figures and
//! tables.
//!
//! The binaries in `src/bin/` regenerate each figure's series as a
//! `slicing.bench/v1` table, committed at the repository root as a
//! `BENCH_*.json` baseline (see `EXPERIMENTS.md`), `table_complexity`
//! the §4 cost claims as work counters.

#![warn(missing_docs)]

use std::time::Duration;

use slicing_computation::Computation;
use slicing_core::PredicateSpec;
use slicing_detect::{detect_chain, detect_pom, detect_with_slicing, hybrid_chain, Limits};
use slicing_observe::diff::{exact, gated, info, Field};
use slicing_predicates::{FnPredicate, Predicate};
use slicing_sim::crdt::{self, CrdtReplication};
use slicing_sim::database::{self, DatabasePartitioning};
use slicing_sim::fault::{
    inject_crdt_fault, inject_database_fault, inject_leader_election_fault,
    inject_primary_secondary_fault, inject_work_queue_fault,
};
use slicing_sim::leader_election::{self, LeaderElection};
use slicing_sim::primary_secondary::{self, PrimarySecondary};
use slicing_sim::work_queue::{self, WorkQueue};
use slicing_sim::{run, SimConfig};

/// Which protocol an experiment drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The primary–secondary protocol (Figure 2).
    PrimarySecondary,
    /// The database-partitioning protocol (Figure 3).
    DatabasePartitioning,
    /// Raft-style leader election (scenario zoo).
    LeaderElection,
    /// Op-based PN-counter replication (scenario zoo).
    CrdtReplication,
    /// Producer/broker/consumer work queue (scenario zoo).
    WorkQueue,
}

impl Workload {
    /// The two workloads from the paper's evaluation.
    pub const PAPER: [Workload; 2] = [Workload::PrimarySecondary, Workload::DatabasePartitioning];

    /// The scenario-zoo protocol workloads.
    pub const PROTOCOLS: [Workload; 3] = [
        Workload::LeaderElection,
        Workload::CrdtReplication,
        Workload::WorkQueue,
    ];

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PrimarySecondary => "primary-secondary",
            Workload::DatabasePartitioning => "database-partitioning",
            Workload::LeaderElection => "leader-election",
            Workload::CrdtReplication => "crdt-replication",
            Workload::WorkQueue => "work-queue",
        }
    }

    /// Simulates a fault-free run.
    pub fn simulate(self, procs: usize, events: u32, seed: u64) -> Computation {
        let cfg = SimConfig {
            seed,
            max_events_per_process: events,
            ..SimConfig::default()
        };
        match self {
            Workload::PrimarySecondary => {
                run(&mut PrimarySecondary::new(procs), &cfg).expect("protocol run builds")
            }
            Workload::DatabasePartitioning => {
                run(&mut DatabasePartitioning::new(procs), &cfg).expect("protocol run builds")
            }
            Workload::LeaderElection => {
                run(&mut LeaderElection::new(procs), &cfg).expect("protocol run builds")
            }
            Workload::CrdtReplication => {
                run(&mut CrdtReplication::new(procs), &cfg).expect("protocol run builds")
            }
            Workload::WorkQueue => {
                run(&mut WorkQueue::new(procs), &cfg).expect("protocol run builds")
            }
        }
    }

    /// Injects one random fault (returns the input unchanged if no
    /// candidate exists).
    pub fn inject_fault(self, comp: &Computation, seed: u64) -> Computation {
        let injected = match self {
            Workload::PrimarySecondary => inject_primary_secondary_fault(comp, seed),
            Workload::DatabasePartitioning => inject_database_fault(comp, seed),
            Workload::LeaderElection => inject_leader_election_fault(comp, seed),
            Workload::CrdtReplication => inject_crdt_fault(comp, seed),
            Workload::WorkQueue => inject_work_queue_fault(comp, seed),
        };
        injected.map(|(c, _)| c).unwrap_or_else(|| comp.clone())
    }

    /// The sliceable specification of the global fault `¬I`.
    pub fn violation_spec(self, comp: &Computation) -> PredicateSpec {
        match self {
            Workload::PrimarySecondary => primary_secondary::violation_spec(comp),
            Workload::DatabasePartitioning => database::violation_spec(comp),
            Workload::LeaderElection => leader_election::violation_spec(comp),
            Workload::CrdtReplication => crdt::violation_spec(comp),
            Workload::WorkQueue => work_queue::violation_spec(comp),
        }
    }

    /// `¬I` as a plain predicate for the baseline searcher.
    pub fn violation_pred(self, comp: &Computation) -> FnPredicate {
        let n = comp.num_processes();
        let all = slicing_computation::ProcSet::all(n);
        match self {
            Workload::PrimarySecondary => {
                let inv = primary_secondary::invariant(comp);
                FnPredicate::new(all, "¬I_ps", move |st| !inv.eval(st))
            }
            Workload::DatabasePartitioning => {
                let inv = database::invariant(comp);
                FnPredicate::new(all, "¬I_db", move |st| !inv.eval(st))
            }
            Workload::LeaderElection => {
                let inv = leader_election::invariant(comp);
                FnPredicate::new(all, "¬I_le", move |st| !inv.eval(st))
            }
            Workload::CrdtReplication => {
                let inv = crdt::invariant(comp);
                FnPredicate::new(all, "¬I_crdt", move |st| !inv.eval(st))
            }
            Workload::WorkQueue => {
                let inv = work_queue::invariant(comp);
                FnPredicate::new(all, "¬I_wq", move |st| !inv.eval(st))
            }
        }
    }
}

/// One measured detection run.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Whether a violating cut was found.
    pub detected: bool,
    /// Wall-clock time, including slicing for the slicing approach.
    pub time: Duration,
    /// Peak tracked bytes (search structures plus the slice).
    pub bytes: u64,
    /// Cuts whose predicate value was examined.
    pub cuts: u64,
    /// Whether the run hit a resource limit.
    pub aborted: bool,
}

/// Runs the computation-slicing approach on one computation.
pub fn measure_slicing(workload: Workload, comp: &Computation, limits: &Limits) -> Sample {
    let spec = workload.violation_spec(comp);
    let outcome = detect_with_slicing(comp, &spec, limits);
    Sample {
        detected: outcome.detected(),
        time: outcome.total_elapsed(),
        bytes: outcome.total_peak_bytes(),
        cuts: outcome.search.cuts_explored,
        aborted: !outcome.search.completed(),
    }
}

/// Runs the paper's hybrid strategy ([`hybrid_chain`]: POM under a
/// `4·n·|E|`-entry budget, slicing fallback) on one computation. Time,
/// bytes and cuts sum over both attempts when POM falls through.
pub fn measure_hybrid(workload: Workload, comp: &Computation, limits: &Limits) -> Sample {
    let spec = workload.violation_spec(comp);
    let outcome = detect_chain(comp, &spec, &hybrid_chain(comp, limits));
    let attempts = &outcome.attempts;
    Sample {
        detected: outcome.detected(),
        time: attempts.iter().map(|a| a.total_elapsed()).sum(),
        bytes: attempts.iter().map(|a| a.total_peak_bytes()).sum(),
        cuts: attempts.iter().map(|a| a.detection.cuts_explored).sum(),
        aborted: outcome.exhausted,
    }
}

/// Runs the partial-order-methods baseline on one computation.
pub fn measure_pom(workload: Workload, comp: &Computation, limits: &Limits) -> Sample {
    let pred = workload.violation_pred(comp);
    let outcome = detect_pom(comp, &pred, limits);
    Sample {
        detected: outcome.detected(),
        time: outcome.elapsed,
        bytes: outcome.peak_bytes,
        cuts: outcome.cuts_explored,
        aborted: !outcome.completed(),
    }
}

/// A detection approach the paper's tables compare: the engine name its
/// rows carry and the function that measures one computation.
pub type Approach = (&'static str, fn(Workload, &Computation, &Limits) -> Sample);

/// Slicing, then search ([`measure_slicing`]).
pub const SLICING: Approach = ("slicing", measure_slicing);

/// The partial-order-methods baseline ([`measure_pom`]).
pub const POM: Approach = ("pom", measure_pom);

/// POM first, slicing when POM's budget runs out ([`measure_hybrid`]).
pub const HYBRID: Approach = ("hybrid", measure_hybrid);

/// Aggregate of several samples (the paper averages over runs, excluding
/// out-of-memory runs from the averages but reporting their rate).
#[derive(Debug, Clone, Default)]
pub struct Aggregate {
    /// Samples that ran to completion.
    pub completed: u32,
    /// Samples that hit a limit.
    pub aborted: u32,
    /// How many completed samples detected the fault.
    pub detections: u32,
    /// Mean time over completed samples.
    pub mean_time: Duration,
    /// Mean peak bytes over completed samples.
    pub mean_bytes: f64,
    /// Mean examined cuts over completed samples.
    pub mean_cuts: f64,
    /// Maximum examined cuts over completed samples.
    pub max_cuts: u64,
}

impl Aggregate {
    /// Folds samples into an aggregate.
    pub fn of(samples: &[Sample]) -> Aggregate {
        let mut agg = Aggregate::default();
        let mut total_time = Duration::ZERO;
        let mut total_bytes = 0f64;
        let mut total_cuts = 0f64;
        for s in samples {
            if s.aborted {
                agg.aborted += 1;
                continue;
            }
            agg.completed += 1;
            if s.detected {
                agg.detections += 1;
            }
            total_time += s.time;
            total_bytes += s.bytes as f64;
            total_cuts += s.cuts as f64;
            agg.max_cuts = agg.max_cuts.max(s.cuts);
        }
        if agg.completed > 0 {
            agg.mean_time = total_time / agg.completed;
            agg.mean_bytes = total_bytes / f64::from(agg.completed);
            agg.mean_cuts = total_cuts / f64::from(agg.completed);
        }
        agg
    }

    /// The aggregate as the cells of one `slicing.bench/v1` row. The run
    /// counts are exact: the means leave aborted runs out, so only
    /// `aborted` shows them. The cut and byte figures are deterministic
    /// and gated; wall-clock is info.
    pub fn fields(&self) -> [Field; 7] {
        [
            exact("completed", self.completed),
            exact("aborted", self.aborted),
            exact("detected", self.detections),
            gated("mean_cuts", self.mean_cuts),
            gated("max_cuts", self.max_cuts),
            gated("mean_bytes", self.mean_bytes),
            info("mean_ms", self.mean_time.as_secs_f64() * 1e3),
        ]
    }
}

/// Measures every approach on the same computations, one per seed in
/// `0..seeds` for a fixed (workload, n, events) with `faults` injected
/// faults, and folds
/// each approach's samples into an [`Aggregate`] under its engine name,
/// in `approaches` order.
///
/// # Panics
///
/// When two approaches that both completed on one seed disagree on the
/// verdict. The message names the workload, the panel (its fault count),
/// n and the seed.
pub fn compare(
    workload: Workload,
    procs: usize,
    events: u32,
    seeds: u64,
    faults: u32,
    limits: &Limits,
    approaches: &[Approach],
) -> Vec<(&'static str, Aggregate)> {
    let mut samples = vec![Vec::new(); approaches.len()];
    for seed in 0..seeds {
        let mut comp = workload.simulate(procs, events, seed);
        for f in 0..faults {
            comp = workload.inject_fault(&comp, seed.wrapping_mul(1009) + u64::from(f));
        }
        let mut verdict: Option<(&str, bool)> = None;
        for (&(engine, measure), runs) in approaches.iter().zip(&mut samples) {
            let sample = measure(workload, &comp, limits);
            if !sample.aborted {
                let (first, detected) = *verdict.get_or_insert((engine, sample.detected));
                assert_eq!(
                    detected,
                    sample.detected,
                    "{}, {faults} injected fault(s), n = {procs}, seed {seed}: \
                     {first} and {engine} disagree on the verdict",
                    workload.name()
                );
            }
            runs.push(sample);
        }
    }
    approaches
        .iter()
        .zip(&samples)
        .map(|(&(engine, _), runs)| (engine, Aggregate::of(runs)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_runs_both_approaches() {
        for w in Workload::PAPER.into_iter().chain(Workload::PROTOCOLS) {
            let aggs = compare(w, 3, 6, 3, 0, &Limits::none(), &[SLICING, POM]);
            for (_, agg) in &aggs {
                assert_eq!(agg.completed + agg.aborted, 3, "{w:?}");
                assert_eq!(agg.detections, 0, "{w:?}: fault-free false alarm");
            }
        }
    }

    #[test]
    fn protocol_faulty_sweeps_detect_and_agree() {
        for w in Workload::PROTOCOLS {
            let aggs = compare(w, 3, 8, 6, 1, &Limits::none(), &[SLICING, POM]);
            assert_eq!(aggs[0].1.detections, aggs[1].1.detections, "{w:?}");
            assert!(
                aggs[0].1.detections > 0,
                "{w:?}: no injected fault was detected"
            );
        }
    }

    #[test]
    fn faulty_sweeps_detect_sometimes() {
        let aggs = compare(
            Workload::PrimarySecondary,
            3,
            8,
            6,
            1,
            &Limits::none(),
            &[SLICING, POM, HYBRID],
        );
        assert!(aggs
            .iter()
            .all(|(_, a)| a.detections == aggs[0].1.detections));
    }

    #[test]
    #[should_panic(expected = "primary-secondary, 0 injected fault(s), n = 3, seed 0: \
                               pom and always disagree on the verdict")]
    fn disagreeing_verdicts_panic() {
        fn always(_: Workload, _: &Computation, _: &Limits) -> Sample {
            Sample {
                detected: true,
                time: Duration::ZERO,
                bytes: 0,
                cuts: 0,
                aborted: false,
            }
        }
        compare(
            Workload::PrimarySecondary,
            3,
            6,
            1,
            0,
            &Limits::none(),
            &[POM, ("always", always)],
        );
    }

    #[test]
    fn aggregate_math() {
        let samples = vec![
            Sample {
                detected: true,
                time: Duration::from_millis(2),
                bytes: 100,
                cuts: 10,
                aborted: false,
            },
            Sample {
                detected: false,
                time: Duration::from_millis(4),
                bytes: 300,
                cuts: 30,
                aborted: false,
            },
            Sample {
                detected: false,
                time: Duration::ZERO,
                bytes: 0,
                cuts: 0,
                aborted: true,
            },
        ];
        let agg = Aggregate::of(&samples);
        assert_eq!(agg.completed, 2);
        assert_eq!(agg.aborted, 1);
        assert_eq!(agg.detections, 1);
        assert_eq!(agg.mean_time, Duration::from_millis(3));
        assert!((agg.mean_bytes - 200.0).abs() < 1e-9);
        assert_eq!(agg.max_cuts, 30);
    }
}
