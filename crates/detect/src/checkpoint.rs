//! The checkpoint codec: serialize a [`MonitorHub`]'s exported
//! [`HubState`] to a self-describing `slicing.serve-checkpoint/v1` JSON
//! document and decode it back for a mid-stream restart. `slicing serve`
//! and `slicing monitor` (a hub with one tenant) both write it.
//!
//! A checkpoint is *state-only*: clause closures cannot be serialized, so
//! after [`decode`] the caller rebuilds the hub with
//! [`MonitorHub::from_state`] and re-registers every tenant's predicate
//! via [`MonitorHub::restore_tenant`] (the tenant sources are in the
//! document precisely so the CLI can re-parse them). The document also
//! carries the metrics-stream sequence cursor so a resumed
//! [`MetricsSnapshotter`](slicing_observe::MetricsSnapshotter) continues
//! `slicing.metrics/v1` deltas monotonically instead of restarting at 0.
//!
//! Integers are stored as JSON numbers; like every schema in this
//! workspace they round-trip exactly up to the IEEE-754 integer range
//! (`|v| <= 2^53`), which comfortably covers clock counts, positions, and
//! the hub's deterministic counters.
//!
//! The wire layout is registered in the observe schema registry as
//! [`slicing_observe::schema::SERVE_CHECKPOINT`] and structurally checked
//! by `slicing validate`; [`decode`] performs the deeper semantic checks
//! (arities, value tags) and [`MonitorHub::from_state`] the full
//! consistency ones.

use slicing_computation::{BuildError, ProcSet, ProcessId, Value};
use slicing_core::SlicerState;
use slicing_observe::json::{JsonArray, JsonObject, JsonValue};
use slicing_observe::schema;

use crate::multiplex::{GcConfig, GroupState, HubState, HubStats, SlotState, TenantState};

#[cfg(doc)]
use crate::multiplex::MonitorHub;

/// The schema tag of the single-monitor checkpoints earlier versions
/// wrote; decoding one fails with a message saying so.
const RETIRED_MONITOR_CHECKPOINT: &str = "slicing.checkpoint/v1";

/// Serializes a hub state plus the metrics-stream cursor as a
/// `slicing.serve-checkpoint/v1` document (one line of JSON).
pub fn encode(state: &HubState, metrics_seq: u64) -> String {
    let mut values = JsonArray::new();
    for row in &state.values {
        let mut arr = JsonArray::new();
        for value in row {
            arr = arr.push_raw(&value_json(value));
        }
        values = values.push_raw(&arr.finish());
    }
    let mut clauses = JsonArray::new();
    for (p, label) in &state.clauses {
        clauses = clauses.push_raw(
            &JsonObject::new()
                .u64("p", u64::from(*p))
                .str("label", label)
                .finish(),
        );
    }
    let mut slots = JsonArray::new();
    for slot in &state.slots {
        slots = slots.push_raw(
            &JsonObject::new()
                .u64("p", u64::from(slot.process))
                .raw("clauses", &scalar_array(&slot.clauses))
                .u64("start", slot.start)
                .raw("candidates", &scalar_array(&slot.candidates))
                .finish(),
        );
    }
    let mut groups = JsonArray::new();
    for group in &state.groups {
        groups = groups.push_raw(
            &JsonObject::new()
                .str("source", &group.source)
                .raw("slots", &scalar_array(&group.slots))
                .raw("fronts", &scalar_array(&group.fronts))
                .raw("dirty", &scalar_array(&group.dirty))
                .bool("dirty_any", group.dirty_any)
                .u64("seen_revision", group.seen_revision)
                .raw("current_alarm", &opt_cut_json(&group.current_alarm))
                .raw("last_alarm", &opt_cut_json(&group.last_alarm))
                .u64("check_cost", group.check_cost)
                .u64("alarms", group.alarms)
                .finish(),
        );
    }
    let mut tenants = JsonArray::new();
    for tenant in &state.tenants {
        tenants = tenants.push_raw(
            &JsonObject::new()
                .str("id", &tenant.id)
                .u64("group", u64::from(tenant.group))
                .str("source", &tenant.source)
                .finish(),
        );
    }
    let obj = JsonObject::new()
        .str("schema", schema::SERVE_CHECKPOINT)
        .u64("processes", state.slicer.num_processes as u64)
        .u64("metrics_seq", metrics_seq);
    slicer_fields(obj, &state.slicer)
        .raw("values", &values.finish())
        .raw("clauses", &clauses.finish())
        .raw("slots", &slots.finish())
        .raw("groups", &groups.finish())
        .raw("tenants", &tenants.finish())
        .raw("stats", &stats_json(&state.stats))
        .raw("gc", &gc_json(&state.gc))
        .u64("since_gc", state.since_gc)
        .finish()
}

/// Decodes a parsed `slicing.serve-checkpoint/v1` document back into the
/// hub state and the metrics-stream cursor it was taken at.
///
/// # Errors
///
/// Returns [`BuildError::InvalidState`] when the document is not a
/// well-formed checkpoint; the deeper consistency checks (candidate
/// ordering, cursor bounds) run when the result is fed to
/// [`MonitorHub::from_state`].
pub fn decode(doc: &JsonValue) -> Result<(HubState, u64), BuildError> {
    let tag = field(doc, "schema")?
        .as_str()
        .ok_or_else(|| bad("field \"schema\" must be a string"))?;
    if tag == RETIRED_MONITOR_CHECKPOINT {
        return Err(bad(format!(
            "{tag} is the retired single-monitor checkpoint format, which this \
             version no longer reads; restart without --resume"
        )));
    }
    if tag != schema::SERVE_CHECKPOINT {
        return Err(bad(format!(
            "schema is {tag:?}, expected {:?}",
            schema::SERVE_CHECKPOINT
        )));
    }
    let num_processes = get_u64(doc, "processes")? as usize;
    if num_processes == 0 || num_processes > ProcSet::MAX_PROCESSES {
        return Err(bad(format!(
            "\"processes\" must be in 1..={}",
            ProcSet::MAX_PROCESSES
        )));
    }
    let metrics_seq = get_u64(doc, "metrics_seq")?;
    let slicer = slicer_from_doc(doc, num_processes)?;

    let mut values = Vec::with_capacity(num_processes);
    for (p, row) in get_array(doc, "values")?.iter().enumerate() {
        let row = row
            .as_array()
            .ok_or_else(|| bad(format!("values[{p}] must be an array")))?;
        let mut mirror = Vec::with_capacity(row.len());
        for value in row {
            mirror.push(value_from(value, num_processes)?);
        }
        values.push(mirror);
    }

    let mut clauses = Vec::new();
    for (i, clause) in get_array(doc, "clauses")?.iter().enumerate() {
        let p = get_u32(clause, "p").map_err(|_| bad(format!("clauses[{i}]: bad \"p\"")))?;
        let label = field(clause, "label")?
            .as_str()
            .ok_or_else(|| bad(format!("clauses[{i}]: \"label\" must be a string")))?;
        clauses.push((p, label.to_owned()));
    }

    let mut slots = Vec::new();
    for (i, slot) in get_array(doc, "slots")?.iter().enumerate() {
        slots.push(SlotState {
            process: get_u32(slot, "p").map_err(|_| bad(format!("slots[{i}]: bad \"p\"")))?,
            clauses: u32_vec(field(slot, "clauses")?, "slot clauses")?,
            start: get_u64(slot, "start")?,
            candidates: u32_vec(field(slot, "candidates")?, "slot candidates")?,
        });
    }

    let mut groups = Vec::new();
    for (i, group) in get_array(doc, "groups")?.iter().enumerate() {
        let at = format!("groups[{i}]");
        groups.push(GroupState {
            source: field(group, "source")?
                .as_str()
                .ok_or_else(|| bad(format!("{at}: \"source\" must be a string")))?
                .to_owned(),
            slots: u32_vec(field(group, "slots")?, "group slots")?,
            fronts: u64_vec(field(group, "fronts")?, "group fronts")?,
            dirty: bool_vec(field(group, "dirty")?, "group dirty")?,
            dirty_any: field(group, "dirty_any")?
                .as_bool()
                .ok_or_else(|| bad(format!("{at}: \"dirty_any\" must be a bool")))?,
            seen_revision: get_u64(group, "seen_revision")?,
            current_alarm: opt_cut_from(field(group, "current_alarm")?, "current_alarm")?,
            last_alarm: opt_cut_from(field(group, "last_alarm")?, "last_alarm")?,
            check_cost: get_u64(group, "check_cost")?,
            alarms: get_u64(group, "alarms")?,
        });
    }

    let mut tenants = Vec::new();
    for (i, tenant) in get_array(doc, "tenants")?.iter().enumerate() {
        let at = format!("tenants[{i}]");
        tenants.push(TenantState {
            id: field(tenant, "id")?
                .as_str()
                .ok_or_else(|| bad(format!("{at}: \"id\" must be a string")))?
                .to_owned(),
            group: get_u32(tenant, "group")?,
            source: field(tenant, "source")?
                .as_str()
                .ok_or_else(|| bad(format!("{at}: \"source\" must be a string")))?
                .to_owned(),
        });
    }

    let stats = stats_from(field(doc, "stats")?)?;
    let gc = gc_from(field(doc, "gc")?)?;
    let since_gc = get_u64(doc, "since_gc")?;

    let state = HubState {
        slicer,
        values,
        clauses,
        slots,
        groups,
        tenants,
        stats,
        gc,
        since_gc,
    };
    Ok((state, metrics_seq))
}

/// Parses checkpoint text and decodes it; see [`decode`].
///
/// # Errors
///
/// Returns [`BuildError::InvalidState`] on malformed JSON or any
/// [`decode`] failure.
pub fn decode_str(text: &str) -> Result<(HubState, u64), BuildError> {
    let doc = slicing_observe::json::parse(text)
        .map_err(|e| bad(format!("checkpoint is not valid JSON: {e}")))?;
    decode(&doc)
}

fn u64_vec(value: &JsonValue, what: &str) -> Result<Vec<u64>, BuildError> {
    value
        .as_array()
        .ok_or_else(|| bad(format!("{what} must be an array")))?
        .iter()
        .map(|v| {
            v.as_u64()
                .ok_or_else(|| bad(format!("{what}: entries must be u64 integers")))
        })
        .collect()
}

fn stats_json(stats: &HubStats) -> String {
    JsonObject::new()
        .u64("events", stats.events)
        .u64("messages", stats.messages)
        .u64("checks", stats.checks)
        .u64("alarms", stats.alarms)
        .u64("check_cost", stats.check_cost)
        .u64("clause_evals", stats.clause_evals)
        .u64("delta_cuts", stats.delta_cuts)
        .u64("peak_candidates", stats.peak_candidates)
        .u64("compactions", stats.compactions)
        .u64("dropped_events", stats.dropped_events)
        .u64("retained_peak", stats.retained_peak)
        .u64("fanout_sent", stats.fanout_sent)
        .u64("fanout_dropped", stats.fanout_dropped)
        .finish()
}

fn stats_from(doc: &JsonValue) -> Result<HubStats, BuildError> {
    Ok(HubStats {
        events: get_u64(doc, "events")?,
        messages: get_u64(doc, "messages")?,
        checks: get_u64(doc, "checks")?,
        alarms: get_u64(doc, "alarms")?,
        check_cost: get_u64(doc, "check_cost")?,
        clause_evals: get_u64(doc, "clause_evals")?,
        delta_cuts: get_u64(doc, "delta_cuts")?,
        peak_candidates: get_u64(doc, "peak_candidates")?,
        compactions: get_u64(doc, "compactions")?,
        dropped_events: get_u64(doc, "dropped_events")?,
        retained_peak: get_u64(doc, "retained_peak")?,
        fanout_sent: get_u64(doc, "fanout_sent")?,
        fanout_dropped: get_u64(doc, "fanout_dropped")?,
    })
}

/// Appends the flat [`SlicerState`] fields (`base` through
/// `clock_revision`).
fn slicer_fields(obj: JsonObject, s: &SlicerState) -> JsonObject {
    let mut events = JsonArray::new();
    for ((&p, &holds), clock) in s.event_procs.iter().zip(&s.holds).zip(&s.clocks) {
        events = events.push_raw(
            &JsonObject::new()
                .u64("p", u64::from(p))
                .bool("holds", holds)
                .raw("clock", &scalar_array(clock))
                .finish(),
        );
    }
    let mut vars = JsonArray::new();
    for names in &s.var_names {
        let mut row = JsonArray::new();
        for name in names {
            row = row.push_str(name);
        }
        vars = vars.push_raw(&row.finish());
    }
    let mut snapshots = JsonArray::new();
    for per_process in &s.snapshots {
        let mut rows = JsonArray::new();
        for row in per_process {
            let mut values = JsonArray::new();
            for value in row {
                values = values.push_raw(&value_json(value));
            }
            rows = rows.push_raw(&values.finish());
        }
        snapshots = snapshots.push_raw(&rows.finish());
    }
    obj.raw("base", &scalar_array(&s.base))
        .raw("events", &events.finish())
        .raw("vars", &vars.finish())
        .raw("snapshots", &snapshots.finish())
        .raw("messages", &pair_array(&s.messages))
        .raw("settled_edges", &pair_array(&s.settled_edges))
        .u64("clock_revision", s.clock_revision)
}

/// Decodes the flat [`SlicerState`] fields written by [`slicer_fields`].
fn slicer_from_doc(doc: &JsonValue, num_processes: usize) -> Result<SlicerState, BuildError> {
    let base = u32_vec(field(doc, "base")?, "base")?;

    let events = get_array(doc, "events")?;
    let mut event_procs = Vec::with_capacity(events.len());
    let mut holds = Vec::with_capacity(events.len());
    let mut clocks = Vec::with_capacity(events.len());
    for (i, ev) in events.iter().enumerate() {
        event_procs.push(get_u32(ev, "p").map_err(|_| bad(format!("events[{i}]: bad \"p\"")))?);
        holds.push(
            field(ev, "holds")?
                .as_bool()
                .ok_or_else(|| bad(format!("events[{i}]: \"holds\" must be a bool")))?,
        );
        let clock = u32_vec(field(ev, "clock")?, "clock")?;
        if clock.len() != num_processes {
            return Err(bad(format!(
                "events[{i}]: clock has arity {}, expected {num_processes}",
                clock.len()
            )));
        }
        clocks.push(clock);
    }

    let mut var_names = Vec::with_capacity(num_processes);
    for (p, row) in get_array(doc, "vars")?.iter().enumerate() {
        let row = row
            .as_array()
            .ok_or_else(|| bad(format!("vars[{p}] must be an array of names")))?;
        let mut names = Vec::with_capacity(row.len());
        for name in row {
            names.push(
                name.as_str()
                    .ok_or_else(|| bad(format!("vars[{p}]: names must be strings")))?
                    .to_owned(),
            );
        }
        var_names.push(names);
    }

    let mut snapshots = Vec::with_capacity(num_processes);
    for (p, rows) in get_array(doc, "snapshots")?.iter().enumerate() {
        let rows = rows
            .as_array()
            .ok_or_else(|| bad(format!("snapshots[{p}] must be an array of rows")))?;
        let mut per_process = Vec::with_capacity(rows.len());
        for (i, row) in rows.iter().enumerate() {
            let row = row
                .as_array()
                .ok_or_else(|| bad(format!("snapshots[{p}][{i}] must be an array")))?;
            let mut values = Vec::with_capacity(row.len());
            for value in row {
                values.push(value_from(value, num_processes)?);
            }
            per_process.push(values);
        }
        snapshots.push(per_process);
    }

    Ok(SlicerState {
        num_processes,
        base,
        event_procs,
        holds,
        clocks,
        var_names,
        snapshots,
        messages: pair_vec(field(doc, "messages")?, "messages")?,
        settled_edges: pair_vec(field(doc, "settled_edges")?, "settled_edges")?,
        clock_revision: get_u64(doc, "clock_revision")?,
    })
}

/// Renders an optional [`GcConfig`] as `null` or `{"lag":..,"every":..}`.
fn gc_json(gc: &Option<GcConfig>) -> String {
    match gc {
        None => "null".to_owned(),
        Some(cfg) => JsonObject::new()
            .u64("lag", u64::from(cfg.lag))
            .u64("every", cfg.every)
            .finish(),
    }
}

/// Decodes what [`gc_json`] wrote, rejecting a zero cadence.
fn gc_from(value: &JsonValue) -> Result<Option<GcConfig>, BuildError> {
    match value {
        JsonValue::Null => Ok(None),
        cfg => {
            let every = get_u64(cfg, "every")?;
            if every == 0 {
                return Err(bad("gc.every must be positive"));
            }
            Ok(Some(GcConfig {
                lag: get_u32(cfg, "lag")?,
                every,
            }))
        }
    }
}

fn bad(detail: impl Into<String>) -> BuildError {
    BuildError::InvalidState {
        detail: detail.into(),
    }
}

/// A JSON array of numbers or bools, each rendered by `to_string`.
fn scalar_array<T: ToString>(values: &[T]) -> String {
    let mut arr = JsonArray::new();
    for v in values {
        arr = arr.push_raw(&v.to_string());
    }
    arr.finish()
}

fn pair_array(pairs: &[(u32, u32)]) -> String {
    let mut arr = JsonArray::new();
    for &(a, b) in pairs {
        arr = arr.push_raw(&format!("[{a},{b}]"));
    }
    arr.finish()
}

fn opt_cut_json(cut: &Option<Vec<u32>>) -> String {
    match cut {
        None => "null".to_owned(),
        Some(counts) => scalar_array(counts),
    }
}

fn value_json(value: &Value) -> String {
    match value {
        Value::Int(v) => JsonObject::new().str("t", "int").i64("v", *v).finish(),
        Value::Bool(v) => JsonObject::new().str("t", "bool").bool("v", *v).finish(),
        Value::Pid(p) => JsonObject::new()
            .str("t", "pid")
            .u64("v", p.as_usize() as u64)
            .finish(),
    }
}

fn field<'a>(doc: &'a JsonValue, name: &str) -> Result<&'a JsonValue, BuildError> {
    doc.get(name)
        .ok_or_else(|| bad(format!("checkpoint is missing field {name:?}")))
}

fn get_u64(doc: &JsonValue, name: &str) -> Result<u64, BuildError> {
    field(doc, name)?
        .as_u64()
        .ok_or_else(|| bad(format!("field {name:?} must be a non-negative integer")))
}

fn get_u32(doc: &JsonValue, name: &str) -> Result<u32, BuildError> {
    let v = get_u64(doc, name)?;
    u32::try_from(v).map_err(|_| bad(format!("field {name:?} exceeds u32 range")))
}

fn get_array<'a>(doc: &'a JsonValue, name: &str) -> Result<&'a [JsonValue], BuildError> {
    field(doc, name)?
        .as_array()
        .ok_or_else(|| bad(format!("field {name:?} must be an array")))
}

fn as_u32(value: &JsonValue, what: &str) -> Result<u32, BuildError> {
    value
        .as_u64()
        .and_then(|v| u32::try_from(v).ok())
        .ok_or_else(|| bad(format!("{what}: entries must be u32 integers")))
}

fn u32_vec(value: &JsonValue, what: &str) -> Result<Vec<u32>, BuildError> {
    value
        .as_array()
        .ok_or_else(|| bad(format!("{what} must be an array")))?
        .iter()
        .map(|v| as_u32(v, what))
        .collect()
}

fn bool_vec(value: &JsonValue, what: &str) -> Result<Vec<bool>, BuildError> {
    value
        .as_array()
        .ok_or_else(|| bad(format!("{what} must be an array")))?
        .iter()
        .map(|v| {
            v.as_bool()
                .ok_or_else(|| bad(format!("{what}: entries must be bools")))
        })
        .collect()
}

fn pair_vec(value: &JsonValue, what: &str) -> Result<Vec<(u32, u32)>, BuildError> {
    value
        .as_array()
        .ok_or_else(|| bad(format!("{what} must be an array")))?
        .iter()
        .map(|pair| {
            let pair = pair
                .as_array()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| bad(format!("{what}: entries must be [send, recv] pairs")))?;
            Ok((as_u32(&pair[0], what)?, as_u32(&pair[1], what)?))
        })
        .collect()
}

fn opt_cut_from(value: &JsonValue, what: &str) -> Result<Option<Vec<u32>>, BuildError> {
    match value {
        JsonValue::Null => Ok(None),
        v => u32_vec(v, what).map(Some),
    }
}

fn value_from(value: &JsonValue, num_processes: usize) -> Result<Value, BuildError> {
    let tag = value
        .get("t")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| bad("snapshot values must be {\"t\": ..., \"v\": ...} objects"))?;
    let v = value
        .get("v")
        .ok_or_else(|| bad("snapshot value is missing \"v\""))?;
    match tag {
        "int" => {
            let f = v
                .as_f64()
                .ok_or_else(|| bad("int snapshot value must be a number"))?;
            if f.fract() != 0.0 || f.abs() > 9_007_199_254_740_992.0 {
                return Err(bad("int snapshot value must be an integer within 2^53"));
            }
            Ok(Value::Int(f as i64))
        }
        "bool" => v
            .as_bool()
            .map(Value::Bool)
            .ok_or_else(|| bad("bool snapshot value must be a bool")),
        "pid" => {
            let idx = v
                .as_u64()
                .map(|v| v as usize)
                .filter(|&v| v < num_processes)
                .ok_or_else(|| bad("pid snapshot value must name a valid process"))?;
            Ok(Value::Pid(ProcessId::new(idx)))
        }
        other => Err(bad(format!("unknown snapshot value tag {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::OnlineMonitor;
    use crate::multiplex::MonitorHub;
    use slicing_predicates::LocalPredicate;

    /// A monitor mid-run, i.e. the one-tenant hub `slicing monitor`
    /// checkpoints: two processes, a watched clause each, a cross-process
    /// message, one alarm already raised, GC enabled.
    fn busy_monitor() -> OnlineMonitor {
        let mut m = OnlineMonitor::new(2).with_gc(GcConfig { lag: 2, every: 64 });
        let x = m.declare_var(0, "x", Value::Int(0)).unwrap();
        let y = m.declare_var(1, "y", Value::Int(0)).unwrap();
        m.watch_int(x, "x > 1", |v| v > 1).unwrap();
        m.watch_int(y, "y > 1", |v| v > 1).unwrap();
        let mut a = Vec::new();
        let mut b = Vec::new();
        for i in 0..5 {
            a.push(m.observe(0, &[(x, Value::Int(i))]).unwrap());
            b.push(m.observe(1, &[(y, Value::Int(i))]).unwrap());
        }
        m.message(a[1], b[2]).unwrap();
        assert!(m.check().unwrap().is_some());
        m
    }

    #[test]
    fn checkpoints_round_trip_exactly() {
        let mut original = busy_monitor();
        let state = original.export_state();
        let text = encode(&state, 7);
        let (decoded, metrics_seq) = decode_str(&text).unwrap();
        assert_eq!(metrics_seq, 7);
        assert_eq!(decoded, state);
        assert_eq!(decoded.tenants.len(), 1, "a monitor is a one-tenant hub");

        // And the restored monitor continues identically.
        let x = original.var(0, "x").unwrap();
        let y = original.var(1, "y").unwrap();
        let clauses = vec![
            LocalPredicate::int(x, "x > 1", |v| v > 1),
            LocalPredicate::int(y, "y > 1", |v| v > 1),
        ];
        let hub = MonitorHub::from_state(&decoded).unwrap();
        let mut resumed = OnlineMonitor::from_hub(hub, clauses).unwrap();
        assert_eq!(resumed.export_state(), state);
        for m in [&mut original, &mut resumed] {
            m.observe(0, &[(x, Value::Int(9))]).unwrap();
        }
        assert_eq!(original.check().unwrap(), resumed.check().unwrap());
        assert_eq!(original.stats(), resumed.stats());
    }

    #[test]
    fn checkpoints_pass_the_schema_registry() {
        let text = encode(&busy_monitor().export_state(), 0);
        let doc = slicing_observe::json::parse(&text).unwrap();
        assert_eq!(
            slicing_observe::schema::validate(&doc).unwrap(),
            schema::SERVE_CHECKPOINT
        );
    }

    #[test]
    fn pid_and_bool_values_survive_the_codec() {
        let mut hub = MonitorHub::new(2);
        let leader = hub
            .declare_var(0, "leader", Value::Pid(ProcessId::new(1)))
            .unwrap();
        let up = hub.declare_var(0, "up", Value::Bool(true)).unwrap();
        hub.observe(
            0,
            &[
                (leader, Value::Pid(ProcessId::new(0))),
                (up, Value::Bool(false)),
            ],
        )
        .unwrap();
        let state = hub.export_state();
        let (decoded, _) = decode_str(&encode(&state, 0)).unwrap();
        assert_eq!(decoded, state);
    }

    #[test]
    fn corrupt_documents_are_rejected_with_typed_errors() {
        let text = encode(&busy_monitor().export_state(), 3);

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
            &|t| t.replace(schema::SERVE_CHECKPOINT, RETIRED_MONITOR_CHECKPOINT),
            "restart without --resume",
        );
        reject(
            &|t| t.replace("\"processes\":2", "\"processes\":0"),
            "processes",
        );
        reject(
            &|t| t.replace("\"dirty_any\":", "\"renamed\":"),
            "dirty_any",
        );
        reject(&|t| t.replace("\"t\":\"int\"", "\"t\":\"float\""), "tag");
        reject(&|t| t.replace("\"every\":64", "\"every\":0"), "every");
        assert!(decode_str("not json").is_err());
        assert!(decode_str("[1,2,3]").is_err());
        assert!(decode_str("{}").is_err());
    }
}
