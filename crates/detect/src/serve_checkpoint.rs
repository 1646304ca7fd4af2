//! [`checkpoint`](crate::checkpoint) under the name of the schema it
//! writes, `slicing.serve-checkpoint/v1`. There is one codec; this module
//! re-exports it, and its tests pin the multi-tenant documents
//! `slicing serve` writes.

pub use crate::checkpoint::{decode_str, encode};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multiplex::{GcConfig, MonitorHub};
    use slicing_computation::{BuildError, Value, VarRef};
    use slicing_observe::schema;
    use slicing_predicates::{Conjunctive, LocalPredicate};

    /// A hub mid-run: two tenants sharing one group, GC enabled, a
    /// message chain, alarms raised and acknowledged.
    fn busy_hub() -> (MonitorHub, Vec<VarRef>) {
        let mut hub = MonitorHub::new(2).with_gc(GcConfig { lag: 4, every: 16 });
        let a = hub.declare_var(0, "x", Value::Int(0)).unwrap();
        let b = hub.declare_var(1, "x", Value::Int(0)).unwrap();
        hub.add_tenant("alice", &pred(a, b), "x@0 > 1 && x@1 > 1")
            .unwrap();
        hub.add_tenant("bob", &pred(a, b), "x@0 > 1 && x@1 > 1")
            .unwrap();
        let mut events = Vec::new();
        for i in 0..12 {
            let p = (i % 2) as usize;
            let var = if p == 0 { a } else { b };
            let e = hub.observe(p, &[(var, Value::Int(i))]).unwrap();
            if let Some(&prev) = events.last() {
                hub.message(prev, e).unwrap();
            }
            events.push(e);
            for r in hub.check_all() {
                hub.acknowledge(r.group);
            }
        }
        (hub, vec![a, b])
    }

    fn pred(a: VarRef, b: VarRef) -> Conjunctive {
        Conjunctive::new(vec![
            LocalPredicate::int(a, "x@0 > 1", |v| v > 1),
            LocalPredicate::int(b, "x@1 > 1", |v| v > 1),
        ])
    }

    #[test]
    fn serve_checkpoints_round_trip_exactly() {
        let (mut hub, vars) = busy_hub();
        let state = hub.export_state();
        let text = encode(&state, 42);
        let (decoded, metrics_seq) = decode_str(&text).unwrap();
        assert_eq!(metrics_seq, 42);
        assert_eq!(decoded, state);

        let mut resumed = MonitorHub::from_state(&decoded).unwrap();
        for tenant in ["alice", "bob"] {
            resumed
                .restore_tenant(tenant, &pred(vars[0], vars[1]))
                .unwrap();
        }
        assert!(resumed.unrestored_clauses().is_empty());
        assert_eq!(resumed.export_state(), state);

        // And the restored hub continues identically.
        for h in [&mut hub, &mut resumed] {
            h.observe(0, &[(vars[0], Value::Int(9))]).unwrap();
            h.observe(1, &[(vars[1], Value::Int(9))]).unwrap();
        }
        let alarms = |h: &mut MonitorHub| -> Vec<_> {
            h.check_all().iter().map(|r| r.alarm.cut.clone()).collect()
        };
        assert_eq!(alarms(&mut hub), alarms(&mut resumed));
        assert_eq!(hub.stats(), resumed.stats());
    }

    #[test]
    fn serve_checkpoints_pass_the_schema_registry() {
        let (hub, _) = busy_hub();
        let text = encode(&hub.export_state(), 0);
        let doc = slicing_observe::json::parse(&text).unwrap();
        assert_eq!(
            slicing_observe::schema::validate(&doc).unwrap(),
            schema::SERVE_CHECKPOINT
        );
    }

    #[test]
    fn corrupt_serve_documents_are_rejected_with_typed_errors() {
        let (hub, _) = busy_hub();
        let text = encode(&hub.export_state(), 3);

        let reject = |mutate: &dyn Fn(&str) -> String, needle: &str| {
            let err = decode_str(&mutate(&text)).unwrap_err();
            let msg = err.to_string();
            assert!(
                matches!(err, BuildError::InvalidState { .. }) && msg.contains(needle),
                "expected InvalidState mentioning {needle:?}, got: {msg}"
            );
        };

        reject(
            &|t| t.replace(schema::SERVE_CHECKPOINT, schema::METRICS),
            "schema",
        );
        reject(
            &|t| t.replace(schema::SERVE_CHECKPOINT, "slicing.checkpoint/v1"),
            "restart without --resume",
        );
        reject(
            &|t| t.replace("\"processes\":2", "\"processes\":0"),
            "processes",
        );
        reject(
            &|t| t.replace("\"fanout_dropped\":", "\"renamed\":"),
            "fanout_dropped",
        );
        reject(&|t| t.replace("\"every\":16", "\"every\":0"), "every");
        assert!(decode_str("not json").is_err());
        assert!(decode_str("{}").is_err());
    }
}
