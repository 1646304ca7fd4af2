//! Kill-and-resume differential harness: checkpoint a GC'd online monitor
//! at *every* K-th step of a randomized-but-seeded workload (including
//! points where generated messages are still in flight), restore from the
//! file, replay the tail, and require verdicts and stats identical to an
//! unbroken oracle run.
//!
//! Event ids are not stable across a restart (restore renumbers densely),
//! so the script references events by `(process, position)` — the
//! coordinates that *do* survive — and the replay translates them through
//! [`OnlineMonitor::event_at`].

use std::path::PathBuf;

use slicing_computation::Value;
use slicing_detect::{GcConfig, OnlineMonitor};
use slicing_predicates::LocalPredicate;
use slicing_recover::{load_checkpoint, resume_monitor, write_hub_checkpoint};

const N: usize = 3;
/// Generated message endpoints stay within this many global steps of the
/// tip, strictly below the GC lag so replayed deliveries always target
/// retained events.
const MAX_LATENESS: u64 = 4;
const GC: GcConfig = GcConfig { lag: 6, every: 8 };

#[derive(Clone, Copy, Debug)]
enum Op {
    Observe {
        p: usize,
        val: i64,
    },
    /// Deliver a message between two already-observed events, addressed
    /// by per-process position.
    Message {
        sp: usize,
        spos: u32,
        rp: usize,
        rpos: u32,
    },
}

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A seeded workload with candidate and non-candidate values and late
/// cross-process messages. Every message goes from an earlier-observed to
/// a later-observed event, so generation order is a topological order and
/// the script is acyclic by construction.
fn script(seed: u64, steps: usize) -> Vec<Op> {
    let mut rng = XorShift(seed | 1);
    let mut ops = Vec::new();
    let mut sent = std::collections::HashSet::new();
    // (process, position, observation index) of recent non-initial events.
    let mut recent: Vec<(usize, u32, usize)> = Vec::new();
    let mut len = [1u32; N];
    for observed in 0..steps {
        let p = rng.below(N as u64) as usize;
        let val = rng.below(4) as i64 - 2; // -2..=1: mostly non-candidates
        ops.push(Op::Observe { p, val });
        recent.push((p, len[p], observed));
        len[p] += 1;
        recent.retain(|&(_, _, at)| observed + 1 - at <= MAX_LATENESS as usize);
        if rng.below(2) == 0 && recent.len() >= 2 {
            let si = rng.below(recent.len() as u64 - 1) as usize;
            let (sp, spos, sat) = recent[si];
            // Pick a strictly later-observed event on another process.
            if let Some(&(rp, rpos, _)) = recent.iter().find(|&&(rp, _, rat)| rp != sp && rat > sat)
            {
                if sent.insert((sp, spos, rp, rpos)) {
                    ops.push(Op::Message { sp, spos, rp, rpos });
                }
            }
        }
    }
    ops
}

fn fresh_monitor(gc: Option<GcConfig>) -> OnlineMonitor {
    let mut m = OnlineMonitor::new(N);
    if let Some(cfg) = gc {
        m = m.with_gc(cfg);
    }
    for p in 0..N {
        let x = m.declare_var(p, "x", Value::Int(0)).unwrap();
        m.watch_int(x, "x > 0", |v| v > 0).unwrap();
    }
    m
}

fn clauses(m: &OnlineMonitor) -> Vec<LocalPredicate> {
    (0..N)
        .map(|p| LocalPredicate::int(m.var(p, "x").unwrap(), "x > 0", |v| v > 0))
        .collect()
}

/// Applies one op, checks, acknowledges any alarm, and returns the
/// verdict as clock counts (comparable across restarts, unlike EventIds).
fn apply(m: &mut OnlineMonitor, op: Op) -> Option<Vec<u32>> {
    match op {
        Op::Observe { p, val } => {
            let x = m.var(p, "x").unwrap();
            m.observe(p, &[(x, Value::Int(val))]).unwrap();
        }
        Op::Message { sp, spos, rp, rpos } => {
            let send = m.event_at(sp, spos).expect("send within lag window");
            let recv = m.event_at(rp, rpos).expect("recv within lag window");
            m.message(send, recv).unwrap();
        }
    }
    let verdict = m.check().unwrap().map(|cut| cut.counts().to_vec());
    if verdict.is_some() {
        m.acknowledge_alarm();
    }
    verdict
}

fn ckpt_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("slicing-resume-{}-{tag}.ckpt", std::process::id()))
}

#[test]
fn every_kill_point_resumes_to_the_oracle_run() {
    for seed in [3, 17, 29] {
        let ops = script(seed, 150);

        // Unbroken oracle.
        let mut oracle = fresh_monitor(Some(GC));
        let verdicts: Vec<Option<Vec<u32>>> =
            ops.iter().map(|&op| apply(&mut oracle, op)).collect();
        assert!(
            verdicts.iter().any(Option::is_some),
            "seed {seed}: workload never alarms — harness too weak"
        );

        for kill_at in (1..ops.len()).step_by(7) {
            // Run to the kill point, checkpoint, and "crash".
            let mut first = fresh_monitor(Some(GC));
            for &op in &ops[..kill_at] {
                apply(&mut first, op);
            }
            let path = ckpt_path(&format!("{seed}-{kill_at}"));
            write_hub_checkpoint(&path, first.hub(), 0, 1).unwrap();
            let watched = clauses(&first);
            drop(first);

            // Restore and replay the tail.
            let (state, metrics_seq) = load_checkpoint(&path).unwrap();
            assert_eq!(metrics_seq, 0);
            let mut resumed = resume_monitor(&state, watched).unwrap();
            for (i, &op) in ops.iter().enumerate().skip(kill_at) {
                let verdict = apply(&mut resumed, op);
                assert_eq!(
                    verdict, verdicts[i],
                    "seed {seed}, kill at {kill_at}, op {i}: verdict diverged"
                );
            }
            assert_eq!(
                resumed.stats(),
                oracle.stats(),
                "seed {seed}, kill at {kill_at}: stats diverged"
            );
            std::fs::remove_file(&path).unwrap();
        }
    }
}

#[test]
fn gc_and_plain_oracles_agree_end_to_end() {
    for seed in [3, 17, 29] {
        let ops = script(seed, 150);
        let mut plain = fresh_monitor(None);
        let mut gc = fresh_monitor(Some(GC));
        for &op in &ops {
            assert_eq!(apply(&mut plain, op), apply(&mut gc, op), "seed {seed}");
        }
        let (p, g) = (plain.stats(), gc.stats());
        assert_eq!(
            (p.alarms, p.checks, p.events, p.messages),
            (g.alarms, g.checks, g.events, g.messages)
        );
        assert!(gc.retained_events() <= plain.retained_events());
    }
}
