//! Property test: the online store's clocks equal the offline least-cut
//! table (`Computation::min_cut` of a snapshot) at every prefix of random
//! observation scripts, late messages included.

use proptest::prelude::*;

use slicing_computation::{EventId, Value, VarRef};
use slicing_core::OnlineSlicer;

/// One scripted action: which process steps, the value it writes, and
/// whether it tries to receive a pending message.
#[derive(Debug, Clone)]
struct Step {
    process: usize,
    value: i64,
    send: bool,
    recv: bool,
}

fn steps(n: usize, max_len: usize) -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        (0..n, -1i64..=2, any::<bool>(), any::<bool>()).prop_map(|(process, value, send, recv)| {
            Step {
                process,
                value,
                send,
                recv,
            }
        }),
        0..max_len,
    )
}

fn scripts() -> impl Strategy<Value = (usize, Vec<Step>)> {
    (2usize..=3).prop_flat_map(|n| (Just(n), steps(n, 10)))
}

/// A fresh store for `n` processes with one integer variable each.
fn store(n: usize) -> (OnlineSlicer, Vec<VarRef>) {
    let mut online = OnlineSlicer::new(n);
    let vars = (0..n)
        .map(|i| {
            online
                .declare_var(i, "x", Value::Int(0))
                .expect("fresh var")
        })
        .collect();
    (online, vars)
}

/// Observes `step`, forwarding the pending message when it receives one.
fn observe(
    online: &mut OnlineSlicer,
    vars: &[VarRef],
    pending_send: &mut Option<(EventId, usize)>,
    step: &Step,
) -> EventId {
    let e = online
        .observe(
            step.process,
            &[(vars[step.process], Value::Int(step.value))],
        )
        .expect("observe succeeds");
    match *pending_send {
        Some((send, from)) if step.recv && from != step.process => {
            online.message(send, e).expect("forward message");
            *pending_send = None;
        }
        None if step.send => *pending_send = Some((e, step.process)),
        _ => {}
    }
    e
}

/// Every event's online clock equals the least cut containing it in a
/// snapshot of the same prefix.
fn clocks_match_min_cuts(online: &OnlineSlicer) {
    let comp = online.snapshot_computation().expect("acyclic prefix");
    assert_eq!(comp.num_events() as u32, online.num_events());
    for e in comp.events() {
        assert_eq!(
            online.clock(e).counts(),
            comp.min_cut(e).counts(),
            "clock of {} diverged from the offline least-cut table ({} events)",
            e,
            comp.num_events()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn online_matches_offline_at_every_prefix((n, script) in scripts()) {
        let (mut online, vars) = store(n);
        clocks_match_min_cuts(&online);
        let mut pending_send = None;
        for step in &script {
            observe(&mut online, &vars, &mut pending_send, step);
            clocks_match_min_cuts(&online);
        }
    }
}

/// Wide scripts straddle the 16-process inline→spilled cut boundary, so the
/// incremental clock table runs on heap-backed cuts too.
fn wide_scripts() -> impl Strategy<Value = (usize, Vec<Step>, Vec<(usize, usize)>)> {
    (15usize..=17).prop_flat_map(|n| {
        // Late-message attempts between arbitrary earlier events, declared
        // only after the whole script ran: out-of-order delivery.
        let late = prop::collection::vec((0usize..32, 0usize..32), 0..6);
        (Just(n), steps(n, 32), late)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn wide_online_matches_offline_structure((n, script, late) in wide_scripts()) {
        let (mut online, vars) = store(n);
        let mut events: Vec<EventId> = Vec::new();
        let mut pending_send = None;
        for step in &script {
            events.push(observe(&mut online, &vars, &mut pending_send, step));
            clocks_match_min_cuts(&online);
        }
        // Out-of-order deliveries between events observed long ago. The
        // store must either reject them (cycles, duplicates, self
        // messages) or fold them into the clock table; both paths leave
        // the history consistent.
        for &(i, j) in &late {
            if i < events.len() && j < events.len() && i != j {
                let _ = online.message(events[i], events[j]);
                clocks_match_min_cuts(&online);
            }
        }
    }
}
