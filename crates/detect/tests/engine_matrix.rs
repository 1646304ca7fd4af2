//! The differential engine matrix: every detection engine — BFS,
//! partial-order methods, slicing, and hybrid — runs over the same seeded
//! corpus and is checked against the
//! brute-force lattice oracle by
//! [`check_engine`](slicing_detect::testkit::check_engine). One `#[test]`
//! per engine is stamped out by `engine_matrix!`, so a regression in any
//! engine shows up as that engine's named row failing.

use slicing_computation::test_fixtures::{figure1, random_computation, RandomConfig};
use slicing_computation::Computation;
use slicing_core::PredicateSpec;
use slicing_detect::testkit::Case;
use slicing_predicates::{Conjunctive, LocalPredicate};
use slicing_sim::crdt::{self, CrdtReplication};
use slicing_sim::fault::{
    inject_crdt_fault, inject_leader_election_fault, inject_work_queue_fault,
};
use slicing_sim::leader_election::{self, LeaderElection};
use slicing_sim::work_queue::{self, WorkQueue};
use slicing_sim::{run, Protocol, SimConfig};

/// A conjunctive spec `x@p == target(p)` over every process of a random
/// computation; mixing targets produces detectable and undetectable cases.
fn sum_style_spec(comp: &slicing_computation::Computation, target: i64) -> PredicateSpec {
    let locals: Vec<_> = comp
        .processes()
        .map(|p| {
            let x = comp.var(p, "x").unwrap();
            LocalPredicate::int(x, "x <= t", move |v| v <= target)
        })
        .collect();
    PredicateSpec::conjunctive(Conjunctive::new(locals))
}

/// The corpus the matrix runs: the paper's Figure 1 fixture (detectable
/// and undetectable variants, plus a disjunction), seeded narrow random
/// computations, and a wide one past the 16-process inline-cut boundary.
fn cases() -> Vec<Case> {
    let mut cases = Vec::new();

    // Figure 1 with thresholds on both sides of the reachable values.
    for threshold in [1i64, 99] {
        let comp = figure1();
        let x1 = comp.var(comp.process(0), "x1").unwrap();
        let x3 = comp.var(comp.process(2), "x3").unwrap();
        let spec = PredicateSpec::conjunctive(Conjunctive::new(vec![
            LocalPredicate::int(x1, "x1 > t", move |x| x > threshold),
            LocalPredicate::int(x3, "x3 <= 3", |x| x <= 3),
        ]));
        cases.push(Case::new(format!("figure1 t{threshold}"), comp, spec));
    }

    // A disjunction: exercises the or-grafted slice in the slicing engine.
    let comp = figure1();
    let x1 = comp.var(comp.process(0), "x1").unwrap();
    let x2 = comp.var(comp.process(1), "x2").unwrap();
    let spec = PredicateSpec::or(vec![
        PredicateSpec::conjunctive(Conjunctive::new(vec![LocalPredicate::int(
            x1,
            "x1 == 0",
            |x| x == 0,
        )])),
        PredicateSpec::conjunctive(Conjunctive::new(vec![LocalPredicate::int(
            x2,
            "x2 >= 3",
            |x| x >= 3,
        )])),
    ]);
    cases.push(Case::new("figure1 or", comp, spec));

    // Narrow random computations: messages, several events per process.
    let narrow = RandomConfig {
        processes: 3,
        events_per_process: 3,
        value_range: 3,
        ..RandomConfig::default()
    };
    for seed in [2u64, 7, 19, 23, 42] {
        let comp = random_computation(seed, &narrow);
        // target 0 is often undetectable, 2 almost always detectable.
        let target = (seed % 3) as i64;
        let spec = sum_style_spec(&comp, target);
        cases.push(Case::new(
            format!("narrow seed {seed} t{target}"),
            comp,
            spec,
        ));
    }

    // Deep with sparse messaging: middle layers exceed 128 cuts, so the
    // level-order engine's layer-local tables grow and clear at scale
    // in front of the oracle.
    let deep = RandomConfig {
        processes: 4,
        events_per_process: 6,
        send_percent: 15,
        recv_percent: 15,
        value_range: 4,
    };
    for seed in [3u64, 31] {
        let comp = random_computation(seed, &deep);
        let spec = sum_style_spec(&comp, (seed % 4) as i64);
        cases.push(Case::new(format!("deep seed {seed}"), comp, spec));
    }

    // Wide and shallow: crosses the 16-process inline→spill boundary, so
    // every engine's cut storage takes the spilled path.
    let wide = RandomConfig {
        processes: 17,
        events_per_process: 1,
        send_percent: 70,
        recv_percent: 70,
        value_range: 2,
    };
    for seed in [5u64, 11] {
        let comp = random_computation(seed, &wide);
        let spec = sum_style_spec(&comp, (seed % 2) as i64);
        cases.push(Case::new(format!("wide seed {seed}"), comp, spec));
    }

    // Scenario-zoo protocols: each fault-free run (undetectable) and a
    // corrupt-injected variant (detectable) faces every engine with the
    // protocol's own sliceable `violation_spec` — a mix of conjunctive
    // clauses, co-regular dominance leaves, k-local divergence bounds, and
    // disjunction, unlike the hand-rolled specs above.
    fn protocol_run<P: Protocol>(mut p: P, seed: u64, events: u32) -> Computation {
        let cfg = SimConfig {
            seed,
            max_events_per_process: events,
            ..SimConfig::default()
        };
        run(&mut p, &cfg).expect("protocol run builds")
    }

    let le = protocol_run(LeaderElection::new(4), 2, 5);
    let (le_bad, _) = inject_leader_election_fault(&le, 9).expect("an elected leader to corrupt");
    cases.push(Case::new("leader-election clean", le.clone(), {
        leader_election::violation_spec(&le)
    }));
    let le_spec = leader_election::violation_spec(&le_bad);
    cases.push(Case::new("leader-election corrupt", le_bad, le_spec));

    let cr = protocol_run(CrdtReplication::new(3), 0, 6);
    let (cr_bad, _) = inject_crdt_fault(&cr, 9).expect("a replica sum to corrupt");
    cases.push(Case::new(
        "crdt clean",
        cr.clone(),
        crdt::violation_spec(&cr),
    ));
    let cr_spec = crdt::violation_spec(&cr_bad);
    cases.push(Case::new("crdt corrupt", cr_bad, cr_spec));

    let wq = protocol_run(WorkQueue::new(4), 0, 5);
    let (wq_bad, _) = inject_work_queue_fault(&wq, 9).expect("a broker counter to corrupt");
    cases.push(Case::new(
        "work-queue clean",
        wq.clone(),
        work_queue::violation_spec(&wq),
    ));
    let wq_spec = work_queue::violation_spec(&wq_bad);
    cases.push(Case::new("work-queue corrupt", wq_bad, wq_spec));

    // 17-process leader election: a protocol run past the inline→spill cut
    // boundary whose widest lattice layer also exceeds 128 cuts.
    let le_wide = protocol_run(LeaderElection::new(17), 0, 2);
    let spec = leader_election::violation_spec(&le_wide);
    cases.push(Case::new("leader-election wide", le_wide, spec));

    // 17-process work queue, corrupt: detectable on spilled cuts, and its
    // widest layer is far past 128 cuts too.
    let wq_wide = protocol_run(WorkQueue::new(17), 2, 3);
    let (wq_wide_bad, _) = inject_work_queue_fault(&wq_wide, 9).expect("a broker counter");
    let spec = work_queue::violation_spec(&wq_wide_bad);
    cases.push(Case::new("work-queue wide corrupt", wq_wide_bad, spec));

    cases
}

mod matrix {
    slicing_detect::engine_matrix!(super::cases);
}

/// Guard: the corpus itself stays non-trivial — both verdicts represented.
#[test]
fn corpus_has_both_verdicts() {
    use slicing_computation::oracle::satisfying_cuts;
    let cases = cases();
    assert!(cases.len() >= 10, "corpus shrank to {}", cases.len());
    let verdicts: Vec<bool> = cases
        .iter()
        .map(|c| !satisfying_cuts(&c.comp, |st| c.spec.eval(st)).is_empty())
        .collect();
    assert!(verdicts.iter().any(|&v| v), "no detectable case left");
    assert!(verdicts.iter().any(|&v| !v), "no undetectable case left");
}

/// Guard: the protocol cases keep stressing the two size boundaries — a
/// run past the 16-process inline→spill cut representation, and a lattice
/// whose widest rank layer exceeds 128 cuts, so the level-order engine's
/// layer-local dedup tables grow and are cleared at scale.
#[test]
fn corpus_crosses_the_size_boundaries() {
    use slicing_computation::lattice::all_cuts;
    use slicing_computation::Cut;
    use std::collections::HashMap;

    let cases = cases();
    let protocol_cases: Vec<_> = cases
        .iter()
        .filter(|c| {
            ["leader-election", "crdt", "work-queue"]
                .iter()
                .any(|p| c.tag.starts_with(p))
        })
        .collect();
    assert!(
        protocol_cases.len() >= 8,
        "protocol corpus shrank to {}",
        protocol_cases.len()
    );
    assert!(
        protocol_cases
            .iter()
            .any(|c| c.comp.num_processes() > Cut::INLINE_PROCESSES),
        "no protocol case crosses the inline→spill boundary"
    );
    let widest = protocol_cases
        .iter()
        .map(|c| {
            let mut by_rank: HashMap<u32, u64> = HashMap::new();
            for cut in all_cuts(&c.comp) {
                let rank: u32 = c.comp.processes().map(|p| cut.count(p)).sum();
                *by_rank.entry(rank).or_insert(0) += 1;
            }
            by_rank.values().copied().max().unwrap_or(0)
        })
        .max()
        .unwrap_or(0);
    assert!(
        widest > 128,
        "widest protocol lattice layer is {widest}, \
         below the 128-cut wide-layer bar"
    );
}
