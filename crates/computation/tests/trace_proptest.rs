//! Property tests for the trace format: serialization round-trips on
//! arbitrary random computations, and `from_text` agreeing with the
//! streaming reader on arbitrary line sequences.

use proptest::prelude::*;

use slicing_computation::test_fixtures::{random_computation, RandomConfig};
use slicing_computation::trace::{from_text, to_text, TraceError, TraceReader};
use slicing_computation::{BuildError, Computation};

fn computations() -> impl Strategy<Value = Computation> {
    (any::<u64>(), 1usize..=5, 0u32..=6, 0u64..=80).prop_map(|(seed, n, m, msg)| {
        let cfg = RandomConfig {
            processes: n,
            events_per_process: m,
            send_percent: msg,
            recv_percent: msg,
            value_range: 5,
        };
        random_computation(seed, &cfg)
    })
}

/// Line sequences close to the format: most open with `procs`, then
/// declarations, events and messages over small process counts,
/// positions and names, with values of every type and now and then a
/// stray `procs` or garbage line, so every rule of the reader fires.
fn trace_lines() -> impl Strategy<Value = String> {
    let value = || prop_oneof![Just("0"), Just("1"), Just("-2"), Just("true")];
    let var = || (0usize..3, 0usize..3, value()).prop_map(|(p, v, x)| format!("var {p} v{v} {x}"));
    let event = || {
        (0usize..3, prop::collection::vec((0usize..3, value()), 0..3)).prop_map(|(p, writes)| {
            let writes: String = writes.iter().map(|(v, x)| format!(" v{v}={x}")).collect();
            format!("event {p}{writes}")
        })
    };
    let msg = || {
        (0usize..3, 0u32..4, 0usize..3, 0u32..4)
            .prop_map(|(sp, spos, rp, rpos)| format!("msg {sp} {spos} {rp} {rpos}"))
    };
    let line = prop_oneof![
        var(),
        var(),
        event(),
        event(),
        event(),
        msg(),
        msg(),
        (1usize..=3).prop_map(|n| format!("procs {n}")),
        "[ -~]{0,12}",
    ];
    let header = prop_oneof![
        Just(""),
        Just("procs 2\n"),
        Just("procs 3\n"),
        Just("procs 3\n")
    ];
    (header, prop::collection::vec(line, 0..16))
        .prop_map(|(header, lines)| format!("{header}{}", lines.join("\n")))
}

/// `from_text` is the streaming reader plus a builder: both reject the
/// same traces with the same first error, except a repeated or cyclic
/// message, which only the builder sees.
fn reader_agrees_with_from_text(src: &str) -> Result<(), String> {
    let mut reader = TraceReader::new();
    let streamed = src
        .lines()
        .enumerate()
        .try_for_each(|(i, raw)| reader.feed(raw, i + 1).map(drop))
        .and_then(|()| reader.finish());
    match (streamed, from_text(src)) {
        (Err(a), Err(b)) if a == b => Ok(()),
        (Ok(()), Ok(_)) => Ok(()),
        (
            Ok(()),
            Err(TraceError::Build(BuildError::DuplicateMessage { .. } | BuildError::CyclicOrder)),
        ) => Ok(()),
        (streamed, batch) => Err(format!(
            "reader {streamed:?}, from_text {:?}",
            batch.map(drop)
        )),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn round_trip_preserves_everything(comp in computations()) {
        let text = to_text(&comp);
        let parsed = from_text(&text).expect("emitted traces parse");
        prop_assert_eq!(parsed.num_processes(), comp.num_processes());
        prop_assert_eq!(parsed.num_events(), comp.num_events());
        prop_assert_eq!(parsed.messages(), comp.messages());
        for e in comp.events() {
            prop_assert_eq!(parsed.process_of(e), comp.process_of(e));
            prop_assert_eq!(parsed.position_of(e), comp.position_of(e));
            prop_assert_eq!(parsed.min_cut(e), comp.min_cut(e));
            let p = comp.process_of(e);
            for name in comp.var_names(p) {
                let a = comp.var(p, name).unwrap();
                let b = parsed.var(p, name).unwrap();
                prop_assert_eq!(
                    parsed.value_at(b, comp.position_of(e)),
                    comp.value_at(a, comp.position_of(e))
                );
            }
        }
        // Emission is a fixpoint.
        prop_assert_eq!(to_text(&parsed), text);
    }

    /// Neither `from_text` nor the streaming reader panics on arbitrary
    /// printable text, and they agree on it.
    #[test]
    fn parser_is_panic_free(src in "([ -~]{0,30}\n){0,6}") {
        let agreed = reader_agrees_with_from_text(&src);
        prop_assert!(agreed.is_ok(), "{src:?}: {agreed:?}");
    }

    /// On line sequences near the format, the reader and `from_text`
    /// accept the same traces and report the same first error.
    #[test]
    fn reader_and_from_text_agree(src in trace_lines()) {
        let agreed = reader_agrees_with_from_text(&src);
        prop_assert!(agreed.is_ok(), "{src:?}: {agreed:?}");
    }
}
