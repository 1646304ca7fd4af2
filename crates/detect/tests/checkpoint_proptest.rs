//! Property test for the one checkpoint codec
//! (`slicing.serve-checkpoint/v1`): arbitrary one-tenant hub states — an
//! [`OnlineMonitor`] mid-run, GC'd or not, with in-flight (held-back)
//! messages at the checkpoint, and process counts crossing the
//! inline→spilled cut boundary — serialize, decode, and restore to a
//! monitor with identical state and stats, whose continuation is
//! step-for-step indistinguishable from the uninterrupted original. The
//! generic JSON parser reads every document back to the same text, so the
//! one-pass encoder writes nothing but canonical JSON.

use proptest::prelude::*;

use slicing_computation::{EventId, Value};
use slicing_detect::checkpoint::{decode_str, encode};
use slicing_detect::{GcConfig, MonitorHub, OnlineMonitor};
use slicing_predicates::LocalPredicate;

#[derive(Debug, Clone)]
struct Step {
    process: usize,
    value: i64,
    send: bool,
    recv: bool,
}

fn steps(n: usize, size: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        (0..n, -1i64..=2, any::<bool>(), any::<bool>()).prop_map(|(process, value, send, recv)| {
            Step {
                process,
                value,
                send,
                recv,
            }
        }),
        size,
    )
}

#[allow(clippy::type_complexity)]
fn cases() -> impl Strategy<Value = (usize, Vec<Step>, Vec<Step>, i64, Option<u64>)> {
    // n up to 18 crosses the 16-process inline cut representation into
    // spilled storage; the codec must not care.
    (2usize..=18).prop_flat_map(|n| {
        (
            Just(n),
            steps(n, 10..40),
            steps(n, 1..12),
            0i64..=2,
            (any::<bool>(), 2u64..=8).prop_map(|(gc, every)| gc.then_some(every)),
        )
    })
}

fn fresh(n: usize, threshold: i64, gc_every: Option<u64>) -> OnlineMonitor {
    let mut m = OnlineMonitor::new(n);
    if let Some(every) = gc_every {
        m = m.with_gc(GcConfig { lag: 5, every });
    }
    for i in 0..n {
        let v = m.declare_var(i, "x", Value::Int(0)).expect("fresh var");
        m.watch_int(v, format!("x >= {threshold}"), move |x| x >= threshold)
            .expect("watch before events");
    }
    m
}

/// Runs one step (observe, bounded-lateness messaging, check + ack) on a
/// monitor, updating the shared event list and pending-send slot.
fn run_step(
    m: &mut OnlineMonitor,
    step: &Step,
    events: &mut Vec<(usize, u32)>,
    pending: &mut Option<(usize, usize, u32)>,
) -> Option<Vec<u32>> {
    let x = m.var(step.process, "x").unwrap();
    let pos = m.events_on(step.process);
    m.observe(step.process, &[(x, Value::Int(step.value))])
        .expect("observe succeeds");
    events.push((step.process, pos));
    *pending = match *pending {
        Some((idx, from, _)) if step.recv && from != step.process => {
            deliver(m, events[idx], *events.last().unwrap());
            None
        }
        Some((_, _, age)) if age >= 3 => None,
        Some((idx, from, age)) => Some((idx, from, age + 1)),
        None if step.send => Some((events.len() - 1, step.process, 0)),
        None => None,
    };
    let verdict = m.check().expect("check never fails");
    let counts = verdict.map(|c| c.counts().to_vec());
    if counts.is_some() {
        m.acknowledge_alarm();
    }
    counts
}

/// Delivers a message addressed by (process, position) — the coordinates
/// that survive a restart, unlike [`EventId`]s.
fn deliver(m: &mut OnlineMonitor, send: (usize, u32), recv: (usize, u32)) {
    let s: EventId = m.event_at(send.0, send.1).expect("send retained");
    let r: EventId = m.event_at(recv.0, recv.1).expect("recv retained");
    m.message(s, r).expect("bounded-lateness message");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn checkpoints_round_trip_and_continue_identically(
        (n, prefix, tail, threshold, gc_every) in cases()
    ) {
        let mut original = fresh(n, threshold, gc_every);
        let mut events: Vec<(usize, u32)> = Vec::new();
        let mut pending: Option<(usize, usize, u32)> = None;
        for step in &prefix {
            run_step(&mut original, step, &mut events, &mut pending);
        }

        // Checkpoint mid-stream — possibly with a held-back send still in
        // flight (`pending`), the hard case for restore.
        let state = original.export_state();
        let text = encode(&state, 42);
        prop_assert_eq!(&slicing_observe::json::parse(&text).unwrap().to_json(), &text);
        let (decoded, seq) = decode_str(&text).unwrap();
        prop_assert_eq!(seq, 42);
        prop_assert_eq!(&decoded, &state, "codec round-trip changed the state");

        let hub = MonitorHub::from_state(&decoded).expect("restore");
        let clauses = (0..n)
            .map(|p| {
                let v = hub.var(p, "x").expect("declared var survives");
                let t = threshold;
                LocalPredicate::int(v, format!("x >= {t}"), move |x| x >= t)
            })
            .collect();
        let mut resumed =
            OnlineMonitor::from_hub(hub, clauses).expect("clauses match the checkpointed set");
        prop_assert_eq!(resumed.export_state(), state);
        prop_assert_eq!(resumed.stats(), original.stats());
        prop_assert_eq!(resumed.retained_events(), original.retained_events());

        // The continuation — including delivery of the in-flight message
        // — must be step-for-step identical.
        let (mut ev2, mut pend2) = (events.clone(), pending);
        for (i, step) in tail.iter().enumerate() {
            let vo = run_step(&mut original, step, &mut events, &mut pending);
            let vr = run_step(&mut resumed, step, &mut ev2, &mut pend2);
            prop_assert_eq!(vo, vr, "tail step {} diverged after resume", i);
        }
        prop_assert_eq!(original.stats(), resumed.stats());
        // Exported states converge again: restore lost nothing.
        prop_assert_eq!(original.export_state(), resumed.export_state());
    }
}
