//! The checkpoint codec: serialize a [`MonitorHub`]'s exported
//! [`HubState`] to a self-describing `slicing.serve-checkpoint/v1` JSON
//! document and decode it back for a mid-stream restart. `slicing serve`
//! and `slicing monitor` (a hub with one tenant) both write it.
//!
//! A checkpoint is *state-only*: clause closures cannot be serialized, so
//! after [`decode_str`] the caller rebuilds the hub with
//! [`MonitorHub::from_state`] and re-registers every tenant's predicate
//! via [`MonitorHub::restore_tenant`] (the tenant sources are in the
//! document precisely so the CLI can re-parse them). The document also
//! carries the metrics-stream cursor so a resumed
//! [`MetricsSnapshotter`](slicing_observe::MetricsSnapshotter) continues
//! `slicing.metrics/v1` deltas monotonically instead of restarting at 0.
//!
//! Both directions are one pass. [`encode`] writes the document straight
//! into one pre-sized `String`; [`decode_str`] reads it with
//! [`JsonReader`] straight into a [`HubState`], without a [`JsonValue`]
//! tree. Keys may come in any order, unknown keys are skipped, and a
//! repeated key is rejected by name.
//!
//! Integers are stored as JSON numbers; like every schema in this
//! workspace they round-trip exactly up to the IEEE-754 integer range
//! (`|v| <= 2^53`), which comfortably covers clock counts, positions, and
//! the hub's deterministic counters.
//!
//! The wire layout is registered in the observe schema registry as
//! [`slicing_observe::schema::SERVE_CHECKPOINT`], whose check is
//! structural. [`decode_str`] rejects every document that registry check
//! rejects, plus the deeper semantic faults (arities, value tags);
//! [`MonitorHub::from_state`] runs the full consistency checks. `slicing
//! validate` runs all three, so it accepts exactly the checkpoints
//! `--resume` can load.
//!
//! Documents written before settling became event-driven carry a
//! `seen_revision` per group. The decoder reads it and drops it, after
//! marking every head dirty in a group that had not settled since the
//! last re-timing message, as the old hub would have done first.
//! Documents written while the slicer still kept an online slice carry a
//! `holds` flag per event and a `settled_edges` list, which the hub never
//! read; the decoder skips both like any unknown key.

use slicing_computation::{BuildError, ProcSet, ProcessId, Value};
use slicing_core::SlicerState;
use slicing_observe::json::{escape_into, JsonKind, JsonParseError, JsonReader, JsonValue};
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
    let s = &state.slicer;
    let mut out = String::with_capacity(encoded_size_hint(state));
    let o = &mut out;
    o.push_str("{\"schema\":");
    escape_into(o, schema::SERVE_CHECKPOINT);
    o.push_str(",\"processes\":");
    push_u64(o, s.num_processes as u64);
    o.push_str(",\"metrics_seq\":");
    push_u64(o, metrics_seq);
    o.push_str(",\"base\":");
    push_ints(o, &s.base);
    o.push_str(",\"events\":[");
    for (i, (&p, clock)) in s.event_procs.iter().zip(&s.clocks).enumerate() {
        comma(o, i);
        o.push_str("{\"p\":");
        push_u64(o, u64::from(p));
        o.push_str(",\"clock\":");
        push_ints(o, clock);
        o.push('}');
    }
    o.push_str("],\"vars\":[");
    for (i, names) in s.var_names.iter().enumerate() {
        comma(o, i);
        o.push('[');
        for (j, name) in names.iter().enumerate() {
            comma(o, j);
            escape_into(o, name);
        }
        o.push(']');
    }
    o.push_str("],\"snapshots\":[");
    for (i, rows) in s.snapshots.iter().enumerate() {
        comma(o, i);
        o.push('[');
        for (j, row) in rows.iter().enumerate() {
            comma(o, j);
            push_values(o, row);
        }
        o.push(']');
    }
    o.push_str("],\"messages\":");
    push_pairs(o, &s.messages);
    o.push_str(",\"clock_revision\":");
    push_u64(o, s.clock_revision);
    o.push_str(",\"values\":[");
    for (i, row) in state.values.iter().enumerate() {
        comma(o, i);
        push_values(o, row);
    }
    o.push_str("],\"clauses\":[");
    for (i, (p, label)) in state.clauses.iter().enumerate() {
        comma(o, i);
        o.push_str("{\"p\":");
        push_u64(o, u64::from(*p));
        o.push_str(",\"label\":");
        escape_into(o, label);
        o.push('}');
    }
    o.push_str("],\"slots\":[");
    for (i, slot) in state.slots.iter().enumerate() {
        comma(o, i);
        o.push_str("{\"p\":");
        push_u64(o, u64::from(slot.process));
        o.push_str(",\"clauses\":");
        push_ints(o, &slot.clauses);
        o.push_str(",\"start\":");
        push_u64(o, slot.start);
        o.push_str(",\"candidates\":");
        push_ints(o, &slot.candidates);
        o.push('}');
    }
    o.push_str("],\"groups\":[");
    for (i, group) in state.groups.iter().enumerate() {
        comma(o, i);
        o.push_str("{\"source\":");
        escape_into(o, &group.source);
        o.push_str(",\"slots\":");
        push_ints(o, &group.slots);
        o.push_str(",\"fronts\":");
        push_ints(o, &group.fronts);
        o.push_str(",\"dirty\":[");
        for (j, &dirty) in group.dirty.iter().enumerate() {
            comma(o, j);
            push_bool(o, dirty);
        }
        o.push_str("],\"dirty_any\":");
        push_bool(o, group.dirty_any);
        o.push_str(",\"current_alarm\":");
        push_opt_cut(o, &group.current_alarm);
        o.push_str(",\"last_alarm\":");
        push_opt_cut(o, &group.last_alarm);
        o.push_str(",\"check_cost\":");
        push_u64(o, group.check_cost);
        o.push_str(",\"alarms\":");
        push_u64(o, group.alarms);
        o.push('}');
    }
    o.push_str("],\"tenants\":[");
    for (i, tenant) in state.tenants.iter().enumerate() {
        comma(o, i);
        o.push_str("{\"id\":");
        escape_into(o, &tenant.id);
        o.push_str(",\"group\":");
        push_u64(o, u64::from(tenant.group));
        o.push_str(",\"source\":");
        escape_into(o, &tenant.source);
        o.push('}');
    }
    o.push_str("],\"stats\":{");
    for (i, (key, value)) in STATS_FIELDS
        .iter()
        .zip(stats_values(&state.stats))
        .enumerate()
    {
        comma(o, i);
        o.push('"');
        o.push_str(key);
        o.push_str("\":");
        push_u64(o, value);
    }
    o.push_str("},\"gc\":");
    match &state.gc {
        None => o.push_str("null"),
        Some(cfg) => {
            o.push_str("{\"lag\":");
            push_u64(o, u64::from(cfg.lag));
            o.push_str(",\"every\":");
            push_u64(o, cfg.every);
            o.push('}');
        }
    }
    o.push_str(",\"since_gc\":");
    push_u64(o, state.since_gc);
    o.push('}');
    out
}

/// About the encoded size of `state`, so [`encode`] writes into one
/// allocation: generous per-item widths for the bulk (events, snapshot
/// values, pairs, candidates), exact lengths for the strings.
fn encoded_size_hint(state: &HubState) -> usize {
    let s = &state.slicer;
    let values: usize = s.snapshots.iter().flatten().map(Vec::len).sum::<usize>()
        + state.values.iter().map(Vec::len).sum::<usize>();
    let strings: usize = s.var_names.iter().flatten().map(String::len).sum::<usize>()
        + state.clauses.iter().map(|(_, l)| l.len()).sum::<usize>()
        + state.groups.iter().map(|g| g.source.len()).sum::<usize>()
        + state
            .tenants
            .iter()
            .map(|t| t.id.len() + t.source.len())
            .sum::<usize>();
    let candidates: usize = state.slots.iter().map(|s| s.candidates.len()).sum();
    1024 + s.event_procs.len() * (21 + 7 * s.num_processes)
        + values * 22
        + s.messages.len() * 16
        + candidates * 7
        + 2 * strings
        + state.groups.len() * (256 + 16 * s.num_processes)
        + (state.clauses.len() + state.slots.len() + state.tenants.len()) * 64
}

/// The wire names of the [`HubStats`] counters, in wire order.
const STATS_FIELDS: [&str; 13] = [
    "events",
    "messages",
    "checks",
    "alarms",
    "check_cost",
    "clause_evals",
    "delta_cuts",
    "peak_candidates",
    "compactions",
    "dropped_events",
    "retained_peak",
    "fanout_sent",
    "fanout_dropped",
];

/// The [`HubStats`] counters in [`STATS_FIELDS`] order.
fn stats_values(s: &HubStats) -> [u64; 13] {
    [
        s.events,
        s.messages,
        s.checks,
        s.alarms,
        s.check_cost,
        s.clause_evals,
        s.delta_cuts,
        s.peak_candidates,
        s.compactions,
        s.dropped_events,
        s.retained_peak,
        s.fanout_sent,
        s.fanout_dropped,
    ]
}

fn comma(out: &mut String, index: usize) {
    if index > 0 {
        out.push(',');
    }
}

/// Appends `v` in decimal (what `to_string` writes, without allocating).
fn push_u64(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[at..]).expect("decimal digits are ASCII"));
}

fn push_bool(out: &mut String, v: bool) {
    out.push_str(if v { "true" } else { "false" });
}

fn push_ints<T: Copy + Into<u64>>(out: &mut String, values: &[T]) {
    out.push('[');
    for (i, &v) in values.iter().enumerate() {
        comma(out, i);
        push_u64(out, v.into());
    }
    out.push(']');
}

fn push_pairs(out: &mut String, pairs: &[(u32, u32)]) {
    out.push('[');
    for (i, &(a, b)) in pairs.iter().enumerate() {
        comma(out, i);
        out.push('[');
        push_u64(out, u64::from(a));
        out.push(',');
        push_u64(out, u64::from(b));
        out.push(']');
    }
    out.push(']');
}

fn push_opt_cut(out: &mut String, cut: &Option<Vec<u32>>) {
    match cut {
        None => out.push_str("null"),
        Some(counts) => push_ints(out, counts),
    }
}

/// Appends a row of tagged values: `[{"t":"int","v":3},...]`.
fn push_values(out: &mut String, row: &[Value]) {
    out.push('[');
    for (i, value) in row.iter().enumerate() {
        comma(out, i);
        match *value {
            Value::Int(v) => {
                out.push_str("{\"t\":\"int\",\"v\":");
                if v < 0 {
                    out.push('-');
                }
                push_u64(out, v.unsigned_abs());
            }
            Value::Bool(v) => {
                out.push_str("{\"t\":\"bool\",\"v\":");
                push_bool(out, v);
            }
            Value::Pid(p) => {
                out.push_str("{\"t\":\"pid\",\"v\":");
                push_u64(out, p.as_usize() as u64);
            }
        }
        out.push('}');
    }
    out.push(']');
}

/// Decodes `slicing.serve-checkpoint/v1` text back into the hub state and
/// the metrics-stream cursor it was taken at, in one pass.
///
/// # Errors
///
/// Returns [`BuildError::InvalidState`] when the text is not valid JSON,
/// when the schema registry would reject it, when a key repeats, or when
/// the document is otherwise not a well-formed checkpoint (arities,
/// value tags, ranges). The deeper consistency checks (candidate
/// ordering, cursor bounds) run when the result is fed to
/// [`MonitorHub::from_state`].
pub fn decode_str(text: &str) -> Result<(HubState, u64), BuildError> {
    let mut r = Reader {
        json: JsonReader::new(text),
        processes: None,
        max_pid: None,
    };
    let doc = r.document()?;
    r.json.finish().map_err(syntax)?;
    doc.finish(r.max_pid)
}

/// The `events` field as [`SlicerState`] stores it: per retained event,
/// its process and its clock.
type EventColumns = (Vec<u32>, Vec<Vec<u32>>);

/// The top-level fields of a checkpoint, as read so far.
#[derive(Default)]
struct Document {
    schema: Option<()>,
    processes: Option<usize>,
    metrics_seq: Option<u64>,
    base: Option<Vec<u32>>,
    events: Option<EventColumns>,
    vars: Option<Vec<Vec<String>>>,
    snapshots: Option<Vec<Vec<Vec<Value>>>>,
    messages: Option<Vec<(u32, u32)>>,
    clock_revision: Option<u64>,
    values: Option<Vec<Vec<Value>>>,
    clauses: Option<Vec<(u32, String)>>,
    slots: Option<Vec<SlotState>>,
    groups: Option<Vec<(GroupState, Option<u64>)>>,
    tenants: Option<Vec<TenantState>>,
    stats: Option<HubStats>,
    gc: Option<Option<GcConfig>>,
    since_gc: Option<u64>,
}

impl Document {
    /// Checks that every field arrived and that the per-process fields
    /// agree with `processes`, then assembles the state.
    fn finish(self, max_pid: Option<u64>) -> Result<(HubState, u64), BuildError> {
        need(self.schema, "schema")?;
        let n = need(self.processes, "processes")?;
        let base = need(self.base, "base")?;
        let (event_procs, clocks) = need(self.events, "events")?;
        let var_names = need(self.vars, "vars")?;
        let snapshots = need(self.snapshots, "snapshots")?;
        let values = need(self.values, "values")?;
        for (field, len) in [
            ("base", base.len()),
            ("vars", var_names.len()),
            ("snapshots", snapshots.len()),
            ("values", values.len()),
        ] {
            if len != n {
                return Err(bad(format!(
                    "field {field:?} must have one entry per process"
                )));
            }
        }
        if let Some((i, clock)) = clocks.iter().enumerate().find(|(_, c)| c.len() != n) {
            return Err(bad(format!(
                "events[{i}]: clock has arity {}, expected {n}",
                clock.len()
            )));
        }
        if max_pid.is_some_and(|p| p >= n as u64) {
            return Err(bad("pid snapshot value must name a valid process"));
        }
        let clock_revision = need(self.clock_revision, "clock_revision")?;
        let mut groups = Vec::new();
        for (mut group, seen_revision) in need(self.groups, "groups")? {
            // Older encoders wrote the clock revision each group last
            // settled at, and the old hub re-checked every head of a group
            // that was behind. Mark them now, since the field is gone.
            if seen_revision.is_some_and(|r| r != clock_revision) {
                group.dirty.fill(true);
                group.dirty_any = true;
            }
            groups.push(group);
        }
        let state = HubState {
            slicer: SlicerState {
                num_processes: n,
                base,
                event_procs,
                clocks,
                var_names,
                snapshots,
                messages: need(self.messages, "messages")?,
                clock_revision,
            },
            values,
            clauses: need(self.clauses, "clauses")?,
            slots: need(self.slots, "slots")?,
            groups,
            tenants: need(self.tenants, "tenants")?,
            stats: need(self.stats, "stats")?,
            gc: need(self.gc, "gc")?,
            since_gc: need(self.since_gc, "since_gc")?,
        };
        Ok((state, need(self.metrics_seq, "metrics_seq")?))
    }
}

/// The checkpoint decoder: a [`JsonReader`] plus what later checks need.
struct Reader<'a> {
    json: JsonReader<'a>,
    /// `processes`, once read: sizes the clock buffers.
    processes: Option<usize>,
    /// The largest pid value read, checked against `processes` at the end.
    max_pid: Option<u64>,
}

impl<'a> Reader<'a> {
    fn document(&mut self) -> Result<Document, BuildError> {
        let mut d = Document::default();
        self.object("checkpoint", |r, key| {
            match key {
                "schema" => {
                    let tag = r.string("schema")?;
                    check_schema(&tag)?;
                    set(&mut d.schema, key, ())?;
                }
                "processes" => {
                    let n = r.u64("processes")?;
                    if n == 0 || n > ProcSet::MAX_PROCESSES as u64 {
                        return Err(bad(format!(
                            "\"processes\" must be in 1..={}",
                            ProcSet::MAX_PROCESSES
                        )));
                    }
                    r.processes = Some(n as usize);
                    set(&mut d.processes, key, n as usize)?;
                }
                "metrics_seq" => set(&mut d.metrics_seq, key, r.u64(key)?)?,
                "base" => set(&mut d.base, key, r.ints(key)?)?,
                "events" => set(&mut d.events, key, r.events()?)?,
                "vars" => {
                    let names = |r: &mut Self| r.list("vars entry", |r| r.string("variable name"));
                    set(&mut d.vars, key, r.list(key, names)?)?;
                }
                "snapshots" => {
                    let rows = |r: &mut Self| r.list("snapshots entry", Self::values);
                    set(&mut d.snapshots, key, r.list(key, rows)?)?;
                }
                "messages" => set(&mut d.messages, key, r.pairs(key)?)?,
                "clock_revision" => set(&mut d.clock_revision, key, r.u64(key)?)?,
                "values" => set(&mut d.values, key, r.list(key, Self::values)?)?,
                "clauses" => set(&mut d.clauses, key, r.clauses()?)?,
                "slots" => set(&mut d.slots, key, r.slots()?)?,
                "groups" => set(&mut d.groups, key, r.groups()?)?,
                "tenants" => set(&mut d.tenants, key, r.tenants()?)?,
                "stats" => set(&mut d.stats, key, r.stats()?)?,
                "gc" => set(&mut d.gc, key, r.gc()?)?,
                "since_gc" => set(&mut d.since_gc, key, r.u64(key)?)?,
                _ => return Ok(false),
            }
            Ok(true)
        })?;
        Ok(d)
    }

    fn events(&mut self) -> Result<EventColumns, BuildError> {
        let (mut procs, mut clocks) = (Vec::new(), Vec::new());
        self.array("events", |r| {
            let (mut p, mut clock) = (None, None);
            r.object("event", |r, key| {
                match key {
                    "p" => set(&mut p, key, r.int("event \"p\"")?)?,
                    "clock" => set(&mut clock, key, r.ints("event \"clock\"")?)?,
                    _ => return Ok(false),
                }
                Ok(true)
            })?;
            procs.push(need(p, "p")?);
            clocks.push(need(clock, "clock")?);
            Ok(())
        })?;
        Ok((procs, clocks))
    }

    /// A row of tagged values, `[{"t":..,"v":..},...]`.
    fn values(&mut self) -> Result<Vec<Value>, BuildError> {
        self.list("value row", |r| {
            let (mut tag, mut v) = (None, None);
            r.object("snapshot value", |r, key| {
                match key {
                    "t" => {
                        r.expect(JsonKind::String, "snapshot value tag", "a string")?;
                        set(&mut tag, key, r.json.string().map_err(syntax)?)?;
                    }
                    "v" => set(&mut v, key, r.json.value().map_err(syntax)?)?,
                    _ => return Ok(false),
                }
                Ok(true)
            })?;
            let tag =
                tag.ok_or_else(|| bad("snapshot values must be {\"t\": ..., \"v\": ...} objects"))?;
            let v = v.ok_or_else(|| bad("snapshot value is missing \"v\""))?;
            r.value(&tag, &v)
        })
    }

    /// The value a `{"t": tag, "v": v}` object holds.
    fn value(&mut self, tag: &str, v: &JsonValue) -> Result<Value, BuildError> {
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
                    .filter(|&p| p < ProcSet::MAX_PROCESSES as u64)
                    .ok_or_else(|| bad("pid snapshot value must name a valid process"))?;
                self.max_pid = self.max_pid.max(Some(idx));
                Ok(Value::Pid(ProcessId::new(idx as usize)))
            }
            other => Err(bad(format!("unknown snapshot value tag {other:?}"))),
        }
    }

    fn clauses(&mut self) -> Result<Vec<(u32, String)>, BuildError> {
        self.list("clauses", |r| {
            let (mut p, mut label) = (None, None);
            r.object("clause", |r, key| {
                match key {
                    "p" => set(&mut p, key, r.int("clause \"p\"")?)?,
                    "label" => set(&mut label, key, r.string("clause \"label\"")?)?,
                    _ => return Ok(false),
                }
                Ok(true)
            })?;
            Ok((need(p, "p")?, need(label, "label")?))
        })
    }

    fn slots(&mut self) -> Result<Vec<SlotState>, BuildError> {
        self.list("slots", |r| {
            let (mut p, mut clauses, mut start, mut candidates) = (None, None, None, None);
            r.object("slot", |r, key| {
                match key {
                    "p" => set(&mut p, key, r.int("slot \"p\"")?)?,
                    "clauses" => set(&mut clauses, key, r.ints("slot clauses")?)?,
                    "start" => set(&mut start, key, r.u64("slot \"start\"")?)?,
                    "candidates" => set(&mut candidates, key, r.ints("slot candidates")?)?,
                    _ => return Ok(false),
                }
                Ok(true)
            })?;
            Ok(SlotState {
                process: need(p, "p")?,
                clauses: need(clauses, "clauses")?,
                start: need(start, "start")?,
                candidates: need(candidates, "candidates")?,
            })
        })
    }

    /// The groups, each with the `seen_revision` older encoders wrote.
    fn groups(&mut self) -> Result<Vec<(GroupState, Option<u64>)>, BuildError> {
        self.list("groups", |r| {
            let mut source = None;
            let (mut slots, mut fronts, mut dirty, mut dirty_any) = (None, None, None, None);
            let (mut seen_revision, mut check_cost, mut alarms) = (None, None, None);
            let (mut current_alarm, mut last_alarm) = (None, None);
            r.object("group", |r, key| {
                match key {
                    "source" => set(&mut source, key, r.string("group \"source\"")?)?,
                    "slots" => set(&mut slots, key, r.ints("group slots")?)?,
                    "fronts" => set(&mut fronts, key, r.ints("group fronts")?)?,
                    "dirty" => set(&mut dirty, key, r.list(key, |r| r.bool("group dirty"))?)?,
                    "dirty_any" => set(&mut dirty_any, key, r.bool("group \"dirty_any\"")?)?,
                    "seen_revision" => set(&mut seen_revision, key, r.u64(key)?)?,
                    "current_alarm" => set(&mut current_alarm, key, r.opt_cut(key)?)?,
                    "last_alarm" => set(&mut last_alarm, key, r.opt_cut(key)?)?,
                    "check_cost" => set(&mut check_cost, key, r.u64(key)?)?,
                    "alarms" => set(&mut alarms, key, r.u64(key)?)?,
                    _ => return Ok(false),
                }
                Ok(true)
            })?;
            let group = GroupState {
                source: need(source, "source")?,
                slots: need(slots, "slots")?,
                fronts: need(fronts, "fronts")?,
                dirty: need(dirty, "dirty")?,
                dirty_any: need(dirty_any, "dirty_any")?,
                current_alarm: need(current_alarm, "current_alarm")?,
                last_alarm: need(last_alarm, "last_alarm")?,
                check_cost: need(check_cost, "check_cost")?,
                alarms: need(alarms, "alarms")?,
            };
            Ok((group, seen_revision))
        })
    }

    fn tenants(&mut self) -> Result<Vec<TenantState>, BuildError> {
        self.list("tenants", |r| {
            let (mut id, mut group, mut source) = (None, None, None);
            r.object("tenant", |r, key| {
                match key {
                    "id" => set(&mut id, key, r.string("tenant \"id\"")?)?,
                    "group" => set(&mut group, key, r.int("tenant \"group\"")?)?,
                    "source" => set(&mut source, key, r.string("tenant \"source\"")?)?,
                    _ => return Ok(false),
                }
                Ok(true)
            })?;
            Ok(TenantState {
                id: need(id, "id")?,
                group: need(group, "group")?,
                source: need(source, "source")?,
            })
        })
    }

    fn stats(&mut self) -> Result<HubStats, BuildError> {
        let mut read = [None; 13];
        self.object("stats", |r, key| {
            let Some(i) = STATS_FIELDS.iter().position(|name| *name == key) else {
                return Ok(false);
            };
            set(&mut read[i], key, r.u64(key)?)?;
            Ok(true)
        })?;
        let mut v = [0; 13];
        for (i, name) in STATS_FIELDS.iter().enumerate() {
            v[i] = need(read[i], name)?;
        }
        Ok(HubStats {
            events: v[0],
            messages: v[1],
            checks: v[2],
            alarms: v[3],
            check_cost: v[4],
            clause_evals: v[5],
            delta_cuts: v[6],
            peak_candidates: v[7],
            compactions: v[8],
            dropped_events: v[9],
            retained_peak: v[10],
            fanout_sent: v[11],
            fanout_dropped: v[12],
        })
    }

    /// `null`, or `{"lag":..,"every":..}` with a positive cadence.
    fn gc(&mut self) -> Result<Option<GcConfig>, BuildError> {
        if self.json.null().map_err(syntax)? {
            return Ok(None);
        }
        let (mut lag, mut every) = (None, None);
        self.object("gc", |r, key| {
            match key {
                "lag" => set(&mut lag, key, r.int("gc \"lag\"")?)?,
                "every" => set(&mut every, key, r.u64("gc \"every\"")?)?,
                _ => return Ok(false),
            }
            Ok(true)
        })?;
        let every = need(every, "every")?;
        if every == 0 {
            return Err(bad("gc.every must be positive"));
        }
        Ok(Some(GcConfig {
            lag: need(lag, "lag")?,
            every,
        }))
    }

    fn opt_cut(&mut self, what: &str) -> Result<Option<Vec<u32>>, BuildError> {
        if self.json.null().map_err(syntax)? {
            return Ok(None);
        }
        self.ints(what).map(Some)
    }

    fn pairs(&mut self, what: &str) -> Result<Vec<(u32, u32)>, BuildError> {
        self.list(what, |r| match r.ints(what)?[..] {
            [send, recv] => Ok((send, recv)),
            _ => Err(bad(format!("{what}: entries must be [send, recv] pairs"))),
        })
    }

    /// An array of integers; sized for one per process, the length of
    /// the bulk of them (the clocks).
    fn ints<T: TryFrom<u64>>(&mut self, what: &str) -> Result<Vec<T>, BuildError> {
        let mut v = Vec::with_capacity(self.processes.unwrap_or(0));
        self.array(what, |r| {
            v.push(r.int(what)?);
            Ok(())
        })?;
        Ok(v)
    }

    /// Reads an array, calling `item` to read each element.
    fn list<T>(
        &mut self,
        what: &str,
        mut item: impl FnMut(&mut Self) -> Result<T, BuildError>,
    ) -> Result<Vec<T>, BuildError> {
        let mut items = Vec::new();
        self.array(what, |r| {
            items.push(item(r)?);
            Ok(())
        })?;
        Ok(items)
    }

    /// Reads an object, handing each key to `field`, which reads the
    /// value and returns `true`, or returns `false` to have it read and
    /// dropped.
    fn object(
        &mut self,
        what: &str,
        mut field: impl FnMut(&mut Self, &str) -> Result<bool, BuildError>,
    ) -> Result<(), BuildError> {
        self.expect(JsonKind::Object, what, "an object")?;
        self.json.begin_object().map_err(syntax)?;
        while let Some(key) = self.json.next_key().map_err(syntax)? {
            if !field(self, &key)? {
                self.json.value().map_err(syntax)?;
            }
        }
        Ok(())
    }

    /// Walks an array, calling `item` to read each element.
    fn array(
        &mut self,
        what: &str,
        mut item: impl FnMut(&mut Self) -> Result<(), BuildError>,
    ) -> Result<(), BuildError> {
        self.expect(JsonKind::Array, what, "an array")?;
        self.json.begin_array().map_err(syntax)?;
        while self.json.next_item().map_err(syntax)? {
            item(self)?;
        }
        Ok(())
    }

    fn u64(&mut self, what: &str) -> Result<u64, BuildError> {
        self.expect(JsonKind::Number, what, "a non-negative integer")?;
        self.json
            .u64()
            .map_err(syntax)?
            .ok_or_else(|| bad(format!("{what:?} must be a non-negative integer")))
    }

    fn int<T: TryFrom<u64>>(&mut self, what: &str) -> Result<T, BuildError> {
        let v = self.u64(what)?;
        T::try_from(v).map_err(|_| bad(format!("{what:?} is out of range")))
    }

    fn bool(&mut self, what: &str) -> Result<bool, BuildError> {
        self.expect(JsonKind::Bool, what, "a bool")?;
        self.json.bool().map_err(syntax)
    }

    fn string(&mut self, what: &str) -> Result<String, BuildError> {
        self.expect(JsonKind::String, what, "a string")?;
        Ok(self.json.string().map_err(syntax)?.into_owned())
    }

    /// Fails with a typed error unless the next value is of `kind`.
    fn expect(&mut self, kind: JsonKind, what: &str, expected: &str) -> Result<(), BuildError> {
        if self.json.peek().map_err(syntax)? == kind {
            Ok(())
        } else {
            Err(bad(format!(
                "{what:?} must be {expected} (byte {})",
                self.json.offset()
            )))
        }
    }
}

/// Accepts only the current schema tag, naming the retired one.
fn check_schema(tag: &str) -> Result<(), BuildError> {
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
    Ok(())
}

/// Stores a field's value, rejecting a key the object already had.
fn set<T>(slot: &mut Option<T>, key: &str, value: T) -> Result<(), BuildError> {
    if slot.replace(value).is_some() {
        return Err(bad(format!("checkpoint repeats field {key:?}")));
    }
    Ok(())
}

fn need<T>(slot: Option<T>, key: &str) -> Result<T, BuildError> {
    slot.ok_or_else(|| bad(format!("checkpoint is missing field {key:?}")))
}

fn syntax(e: JsonParseError) -> BuildError {
    bad(format!("checkpoint is not valid JSON: {e}"))
}

fn bad(detail: impl Into<String>) -> BuildError {
    BuildError::InvalidState {
        detail: detail.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::OnlineMonitor;
    use crate::multiplex::MonitorHub;
    use slicing_predicates::{Conjunctive, LocalPredicate};

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

    /// A hub covering every kind of field the wire format holds: int
    /// (negative too), bool and pid values; tenant ids, sources and
    /// clause labels that need escaping; one alarmed group and one that
    /// never alarmed; and GC on or off.
    fn golden_hub(gc: bool) -> MonitorHub {
        let mut hub = MonitorHub::new(3);
        if gc {
            hub = hub.with_gc(GcConfig { lag: 1, every: 4 });
        }
        let x = hub.declare_var(0, "x", Value::Int(0)).unwrap();
        let up = hub.declare_var(1, "up", Value::Bool(true)).unwrap();
        let leader = hub
            .declare_var(2, "leader", Value::Pid(ProcessId::new(1)))
            .unwrap();
        let hot = || LocalPredicate::int(x, "x > 1 \"hot\"", |v| v > 1);
        let cold = LocalPredicate::int(x, "x < -9 \\ λ", |v| v < -9);
        let elected = LocalPredicate::new(vec![leader], "leader\n== p0", |v| {
            v[0] == Value::Pid(ProcessId::new(0))
        });
        let hot_pred = Conjunctive::new(vec![hot(), elected]);
        hub.add_tenant(
            "ops \"a\"\\\nλ",
            &hot_pred,
            "x@0 > 1 \"hot\" && leader@2 == p0",
        )
        .unwrap();
        hub.add_tenant("b", &Conjunctive::new(vec![cold]), "x@0 < -9 \\ λ")
            .unwrap();
        let a1 = hub.observe(0, &[(x, Value::Int(-3))]).unwrap();
        let b1 = hub.observe(1, &[(up, Value::Bool(false))]).unwrap();
        hub.message(a1, b1).unwrap();
        let a2 = hub.observe(0, &[(x, Value::Int(7))]).unwrap();
        let c1 = hub
            .observe(2, &[(leader, Value::Pid(ProcessId::new(0)))])
            .unwrap();
        hub.message(a2, c1).unwrap();
        assert_eq!(hub.check_all().len(), 1, "only the hot tenant alarms");
        hub.observe(1, &[(up, Value::Bool(true))]).unwrap();
        hub
    }

    /// The wire format, pinned: every encoder must write these literals
    /// byte for byte.
    const GOLDEN_GC: &str = concat!(
        r#"{"schema":"slicing.serve-checkpoint/v1","processes":3,"metrics_seq":11"#,
        r#","base":[0,0,0],"events":[{"p":0,"clock":[1,1,1]},{"p":1,"clock":[1,1"#,
        r#",1]},{"p":2,"clock":[1,1,1]},{"p":0,"clock":[2,1,1]},{"p":1,"clock":[2,2"#,
        r#",1]},{"p":0,"clock":[3,1,1]},{"p":2,"clock":[3,1,2]},{"p":1,"clock":[2,3"#,
        r#",1]}],"vars":[["x"],["up"],["leader"]],"snapshots":[[[{"t":"int","v":0}]"#,
        r#",[{"t":"int","v":-3}],[{"t":"int","v":7}]],[[{"t":"bool","v":true}]"#,
        r#",[{"t":"bool","v":false}],[{"t":"bool","v":true}]],[[{"t":"pid","v":1}]"#,
        r#",[{"t":"pid","v":0}]]],"messages":[[3,4],[5,6]],"clock_revision":2"#,
        r#","values":[[{"t":"int","v":7}],[{"t":"bool","v":true}],[{"t":"pid""#,
        r#","v":0}]],"clauses":[{"p":0,"label":"x > 1 \"hot\""},{"p":2"#,
        r#","label":"leader\n== p0"},{"p":0,"label":"x < -9 \\ λ"}],"slots":[{"p":0"#,
        r#","clauses":[0],"start":0,"candidates":[2]},{"p":2,"clauses":[1]"#,
        r#","start":0,"candidates":[1]},{"p":0,"clauses":[2],"start":0"#,
        r#","candidates":[]}]"#,
        r#","groups":[{"source":"x@0 > 1 \"hot\" && leader@2 == p0","slots":[0,1]"#,
        r#","fronts":[0,0],"dirty":[false,false,false],"dirty_any":false"#,
        r#","current_alarm":[3,1,2],"last_alarm":[3,1,2],"check_cost":5,"alarms":1}"#,
        r#",{"source":"x@0 < -9 \\ λ","slots":[2],"fronts":[0],"dirty":[false,false"#,
        r#",false],"dirty_any":false,"current_alarm":null,"last_alarm":null"#,
        r#","check_cost":0,"alarms":0}],"tenants":[{"id":"b","group":1"#,
        r#","source":"x@0 < -9 \\ λ"},{"id":"ops \"a\"\\\nλ","group":0"#,
        r#","source":"x@0 > 1 \"hot\" && leader@2 == p0"}],"stats":{"events":5"#,
        r#","messages":2,"checks":1,"alarms":1,"check_cost":5,"clause_evals":8"#,
        r#","delta_cuts":2,"peak_candidates":2,"compactions":0,"dropped_events":0"#,
        r#","retained_peak":7,"fanout_sent":0,"fanout_dropped":0},"gc":{"lag":1"#,
        r#","every":4},"since_gc":1}"#,
    );

    const GOLDEN_NO_GC: &str = concat!(
        r#"{"schema":"slicing.serve-checkpoint/v1","processes":3,"metrics_seq":11"#,
        r#","base":[0,0,0],"events":[{"p":0,"clock":[1,1,1]},{"p":1,"clock":[1,1"#,
        r#",1]},{"p":2,"clock":[1,1,1]},{"p":0,"clock":[2,1,1]},{"p":1,"clock":[2,2"#,
        r#",1]},{"p":0,"clock":[3,1,1]},{"p":2,"clock":[3,1,2]},{"p":1,"clock":[2,3"#,
        r#",1]}],"vars":[["x"],["up"],["leader"]],"snapshots":[[[{"t":"int","v":0}]"#,
        r#",[{"t":"int","v":-3}],[{"t":"int","v":7}]],[[{"t":"bool","v":true}]"#,
        r#",[{"t":"bool","v":false}],[{"t":"bool","v":true}]],[[{"t":"pid","v":1}]"#,
        r#",[{"t":"pid","v":0}]]],"messages":[[3,4],[5,6]],"clock_revision":2"#,
        r#","values":[[{"t":"int","v":7}],[{"t":"bool","v":true}],[{"t":"pid""#,
        r#","v":0}]],"clauses":[{"p":0,"label":"x > 1 \"hot\""},{"p":2"#,
        r#","label":"leader\n== p0"},{"p":0,"label":"x < -9 \\ λ"}],"slots":[{"p":0"#,
        r#","clauses":[0],"start":0,"candidates":[2]},{"p":2,"clauses":[1]"#,
        r#","start":0,"candidates":[1]},{"p":0,"clauses":[2],"start":0"#,
        r#","candidates":[]}]"#,
        r#","groups":[{"source":"x@0 > 1 \"hot\" && leader@2 == p0","slots":[0,1]"#,
        r#","fronts":[0,0],"dirty":[false,false,false],"dirty_any":false"#,
        r#","current_alarm":[3,1,2],"last_alarm":[3,1,2],"check_cost":5,"alarms":1}"#,
        r#",{"source":"x@0 < -9 \\ λ","slots":[2],"fronts":[0],"dirty":[false,false"#,
        r#",false],"dirty_any":false,"current_alarm":null,"last_alarm":null"#,
        r#","check_cost":0,"alarms":0}],"tenants":[{"id":"b","group":1"#,
        r#","source":"x@0 < -9 \\ λ"},{"id":"ops \"a\"\\\nλ","group":0"#,
        r#","source":"x@0 > 1 \"hot\" && leader@2 == p0"}],"stats":{"events":5"#,
        r#","messages":2,"checks":1,"alarms":1,"check_cost":5,"clause_evals":8"#,
        r#","delta_cuts":2,"peak_candidates":2,"compactions":0,"dropped_events":0"#,
        r#","retained_peak":0,"fanout_sent":0,"fanout_dropped":0},"gc":null"#,
        r#","since_gc":0}"#,
    );

    /// What the encoders before the slicer lost its online slice wrote for
    /// the same hubs: a `holds` flag on every event, an always-empty
    /// `settled_edges` list, and a dirty flag on group 0's unwatched
    /// process 1. The decoder still reads them.
    const LEGACY_HOLDS_GC: &str = concat!(
        r#"{"schema":"slicing.serve-checkpoint/v1","processes":3,"metrics_seq":11"#,
        r#","base":[0,0,0],"events":[{"p":0,"holds":true,"clock":[1,1,1]},{"p":1"#,
        r#","holds":true,"clock":[1,1,1]},{"p":2,"holds":true,"clock":[1,1,1]},{"p":0"#,
        r#","holds":true,"clock":[2,1,1]},{"p":1,"holds":true,"clock":[2,2,1]},{"p":0"#,
        r#","holds":true,"clock":[3,1,1]},{"p":2,"holds":true,"clock":[3,1,2]},{"p":1"#,
        r#","holds":true,"clock":[2,3,1]}],"vars":[["x"],["up"],["leader"]]"#,
        r#","snapshots":[[[{"t":"int","v":0}],[{"t":"int","v":-3}],[{"t":"int","v":7}]]"#,
        r#",[[{"t":"bool","v":true}],[{"t":"bool","v":false}],[{"t":"bool","v":true}]]"#,
        r#",[[{"t":"pid","v":1}],[{"t":"pid","v":0}]]],"messages":[[3,4],[5,6]]"#,
        r#","settled_edges":[],"clock_revision":2,"values":[[{"t":"int","v":7}]"#,
        r#",[{"t":"bool","v":true}],[{"t":"pid","v":0}]],"clauses":[{"p":0"#,
        r#","label":"x > 1 \"hot\""},{"p":2,"label":"leader\n== p0"},{"p":0"#,
        r#","label":"x < -9 \\ λ"}],"slots":[{"p":0,"clauses":[0],"start":0"#,
        r#","candidates":[2]},{"p":2,"clauses":[1],"start":0,"candidates":[1]},{"p":0"#,
        r#","clauses":[2],"start":0,"candidates":[]}]"#,
        r#","groups":[{"source":"x@0 > 1 \"hot\" && leader@2 == p0","slots":[0,1]"#,
        r#","fronts":[0,0],"dirty":[false,true,false],"dirty_any":false"#,
        r#","current_alarm":[3,1,2],"last_alarm":[3,1,2],"check_cost":5,"alarms":1}"#,
        r#",{"source":"x@0 < -9 \\ λ","slots":[2],"fronts":[0],"dirty":[false,false"#,
        r#",false],"dirty_any":false,"current_alarm":null"#,
        r#","last_alarm":null,"check_cost":0,"alarms":0}],"tenants":[{"id":"b","group":1"#,
        r#","source":"x@0 < -9 \\ λ"},{"id":"ops \"a\"\\\nλ","group":0"#,
        r#","source":"x@0 > 1 \"hot\" && leader@2 == p0"}],"stats":{"events":5"#,
        r#","messages":2,"checks":1,"alarms":1,"check_cost":5,"clause_evals":8"#,
        r#","delta_cuts":2,"peak_candidates":2,"compactions":0,"dropped_events":0"#,
        r#","retained_peak":7,"fanout_sent":0,"fanout_dropped":0},"gc":{"lag":1"#,
        r#","every":4},"since_gc":1}"#,
    );

    const LEGACY_HOLDS_NO_GC: &str = concat!(
        r#"{"schema":"slicing.serve-checkpoint/v1","processes":3,"metrics_seq":11"#,
        r#","base":[0,0,0],"events":[{"p":0,"holds":true,"clock":[1,1,1]},{"p":1"#,
        r#","holds":true,"clock":[1,1,1]},{"p":2,"holds":true,"clock":[1,1,1]},{"p":0"#,
        r#","holds":true,"clock":[2,1,1]},{"p":1,"holds":true,"clock":[2,2,1]},{"p":0"#,
        r#","holds":true,"clock":[3,1,1]},{"p":2,"holds":true,"clock":[3,1,2]},{"p":1"#,
        r#","holds":true,"clock":[2,3,1]}],"vars":[["x"],["up"],["leader"]]"#,
        r#","snapshots":[[[{"t":"int","v":0}],[{"t":"int","v":-3}],[{"t":"int","v":7}]]"#,
        r#",[[{"t":"bool","v":true}],[{"t":"bool","v":false}],[{"t":"bool","v":true}]]"#,
        r#",[[{"t":"pid","v":1}],[{"t":"pid","v":0}]]],"messages":[[3,4],[5,6]]"#,
        r#","settled_edges":[],"clock_revision":2,"values":[[{"t":"int","v":7}]"#,
        r#",[{"t":"bool","v":true}],[{"t":"pid","v":0}]],"clauses":[{"p":0"#,
        r#","label":"x > 1 \"hot\""},{"p":2,"label":"leader\n== p0"},{"p":0"#,
        r#","label":"x < -9 \\ λ"}],"slots":[{"p":0,"clauses":[0],"start":0"#,
        r#","candidates":[2]},{"p":2,"clauses":[1],"start":0,"candidates":[1]},{"p":0"#,
        r#","clauses":[2],"start":0,"candidates":[]}]"#,
        r#","groups":[{"source":"x@0 > 1 \"hot\" && leader@2 == p0","slots":[0,1]"#,
        r#","fronts":[0,0],"dirty":[false,true,false],"dirty_any":false"#,
        r#","current_alarm":[3,1,2],"last_alarm":[3,1,2],"check_cost":5,"alarms":1}"#,
        r#",{"source":"x@0 < -9 \\ λ","slots":[2],"fronts":[0],"dirty":[false,false"#,
        r#",false],"dirty_any":false,"current_alarm":null"#,
        r#","last_alarm":null,"check_cost":0,"alarms":0}],"tenants":[{"id":"b","group":1"#,
        r#","source":"x@0 < -9 \\ λ"},{"id":"ops \"a\"\\\nλ","group":0"#,
        r#","source":"x@0 > 1 \"hot\" && leader@2 == p0"}],"stats":{"events":5"#,
        r#","messages":2,"checks":1,"alarms":1,"check_cost":5,"clause_evals":8"#,
        r#","delta_cuts":2,"peak_candidates":2,"compactions":0,"dropped_events":0"#,
        r#","retained_peak":0,"fanout_sent":0,"fanout_dropped":0},"gc":null,"since_gc":0}"#,
    );

    /// What the encoders before event-driven settling wrote for the same
    /// hubs: the legacy fields above, and each group also carried the
    /// clock revision it last settled at. The decoder still reads them.
    const LEGACY_SEEN_REVISION_GC: &str = concat!(
        r#"{"schema":"slicing.serve-checkpoint/v1","processes":3,"metrics_seq":11"#,
        r#","base":[0,0,0],"events":[{"p":0,"holds":true,"clock":[1,1,1]},{"p":1"#,
        r#","holds":true,"clock":[1,1,1]},{"p":2,"holds":true,"clock":[1,1,1]},{"p":0"#,
        r#","holds":true,"clock":[2,1,1]},{"p":1,"holds":true,"clock":[2,2,1]},{"p":0"#,
        r#","holds":true,"clock":[3,1,1]},{"p":2,"holds":true,"clock":[3,1,2]},{"p":1"#,
        r#","holds":true,"clock":[2,3,1]}],"vars":[["x"],["up"],["leader"]]"#,
        r#","snapshots":[[[{"t":"int","v":0}],[{"t":"int","v":-3}],[{"t":"int","v":7}]]"#,
        r#",[[{"t":"bool","v":true}],[{"t":"bool","v":false}],[{"t":"bool","v":true}]]"#,
        r#",[[{"t":"pid","v":1}],[{"t":"pid","v":0}]]],"messages":[[3,4],[5,6]]"#,
        r#","settled_edges":[],"clock_revision":2,"values":[[{"t":"int","v":7}]"#,
        r#",[{"t":"bool","v":true}],[{"t":"pid","v":0}]],"clauses":[{"p":0"#,
        r#","label":"x > 1 \"hot\""},{"p":2,"label":"leader\n== p0"},{"p":0"#,
        r#","label":"x < -9 \\ λ"}],"slots":[{"p":0,"clauses":[0],"start":0"#,
        r#","candidates":[2]},{"p":2,"clauses":[1],"start":0,"candidates":[1]},{"p":0"#,
        r#","clauses":[2],"start":0,"candidates":[]}]"#,
        r#","groups":[{"source":"x@0 > 1 \"hot\" && leader@2 == p0","slots":[0,1]"#,
        r#","fronts":[0,0],"dirty":[false,true,false],"dirty_any":false,"seen_revision":2"#,
        r#","current_alarm":[3,1,2],"last_alarm":[3,1,2],"check_cost":5,"alarms":1}"#,
        r#",{"source":"x@0 < -9 \\ λ","slots":[2],"fronts":[0],"dirty":[false,false"#,
        r#",false],"dirty_any":false,"seen_revision":2,"current_alarm":null"#,
        r#","last_alarm":null,"check_cost":0,"alarms":0}],"tenants":[{"id":"b","group":1"#,
        r#","source":"x@0 < -9 \\ λ"},{"id":"ops \"a\"\\\nλ","group":0"#,
        r#","source":"x@0 > 1 \"hot\" && leader@2 == p0"}],"stats":{"events":5"#,
        r#","messages":2,"checks":1,"alarms":1,"check_cost":5,"clause_evals":8"#,
        r#","delta_cuts":2,"peak_candidates":2,"compactions":0,"dropped_events":0"#,
        r#","retained_peak":7,"fanout_sent":0,"fanout_dropped":0},"gc":{"lag":1"#,
        r#","every":4},"since_gc":1}"#,
    );

    const LEGACY_SEEN_REVISION_NO_GC: &str = concat!(
        r#"{"schema":"slicing.serve-checkpoint/v1","processes":3,"metrics_seq":11"#,
        r#","base":[0,0,0],"events":[{"p":0,"holds":true,"clock":[1,1,1]},{"p":1"#,
        r#","holds":true,"clock":[1,1,1]},{"p":2,"holds":true,"clock":[1,1,1]},{"p":0"#,
        r#","holds":true,"clock":[2,1,1]},{"p":1,"holds":true,"clock":[2,2,1]},{"p":0"#,
        r#","holds":true,"clock":[3,1,1]},{"p":2,"holds":true,"clock":[3,1,2]},{"p":1"#,
        r#","holds":true,"clock":[2,3,1]}],"vars":[["x"],["up"],["leader"]]"#,
        r#","snapshots":[[[{"t":"int","v":0}],[{"t":"int","v":-3}],[{"t":"int","v":7}]]"#,
        r#",[[{"t":"bool","v":true}],[{"t":"bool","v":false}],[{"t":"bool","v":true}]]"#,
        r#",[[{"t":"pid","v":1}],[{"t":"pid","v":0}]]],"messages":[[3,4],[5,6]]"#,
        r#","settled_edges":[],"clock_revision":2,"values":[[{"t":"int","v":7}]"#,
        r#",[{"t":"bool","v":true}],[{"t":"pid","v":0}]],"clauses":[{"p":0"#,
        r#","label":"x > 1 \"hot\""},{"p":2,"label":"leader\n== p0"},{"p":0"#,
        r#","label":"x < -9 \\ λ"}],"slots":[{"p":0,"clauses":[0],"start":0"#,
        r#","candidates":[2]},{"p":2,"clauses":[1],"start":0,"candidates":[1]},{"p":0"#,
        r#","clauses":[2],"start":0,"candidates":[]}]"#,
        r#","groups":[{"source":"x@0 > 1 \"hot\" && leader@2 == p0","slots":[0,1]"#,
        r#","fronts":[0,0],"dirty":[false,true,false],"dirty_any":false,"seen_revision":2"#,
        r#","current_alarm":[3,1,2],"last_alarm":[3,1,2],"check_cost":5,"alarms":1}"#,
        r#",{"source":"x@0 < -9 \\ λ","slots":[2],"fronts":[0],"dirty":[false,false"#,
        r#",false],"dirty_any":false,"seen_revision":2,"current_alarm":null"#,
        r#","last_alarm":null,"check_cost":0,"alarms":0}],"tenants":[{"id":"b","group":1"#,
        r#","source":"x@0 < -9 \\ λ"},{"id":"ops \"a\"\\\nλ","group":0"#,
        r#","source":"x@0 > 1 \"hot\" && leader@2 == p0"}],"stats":{"events":5"#,
        r#","messages":2,"checks":1,"alarms":1,"check_cost":5,"clause_evals":8"#,
        r#","delta_cuts":2,"peak_candidates":2,"compactions":0,"dropped_events":0"#,
        r#","retained_peak":0,"fanout_sent":0,"fanout_dropped":0},"gc":null,"since_gc":0}"#,
    );

    #[test]
    fn encoding_is_pinned_by_golden_documents() {
        for (gc, golden) in [(true, GOLDEN_GC), (false, GOLDEN_NO_GC)] {
            let state = golden_hub(gc).export_state();
            assert_eq!(encode(&state, 11), golden, "gc = {gc}");
            assert_eq!(decode_str(golden).unwrap(), (state, 11), "gc = {gc}");
        }
    }

    /// Checkpoints written by older encoders still resume: their dropped
    /// fields are read and discarded, so they restore to the hub the
    /// current documents hold.
    #[test]
    fn legacy_documents_decode_to_the_current_state() {
        for (gc, legacy) in [
            (true, LEGACY_HOLDS_GC),
            (false, LEGACY_HOLDS_NO_GC),
            (true, LEGACY_SEEN_REVISION_GC),
            (false, LEGACY_SEEN_REVISION_NO_GC),
        ] {
            let (state, metrics_seq) = decode_str(legacy).unwrap();
            assert_eq!(metrics_seq, 11);
            let resumed = MonitorHub::from_state(&state).unwrap().export_state();
            assert_eq!(resumed, golden_hub(gc).export_state(), "gc = {gc}");
        }
        // A group that had not settled since the last re-timing message
        // comes back with every watched head dirty, as the old hub would
        // have re-checked it.
        let stale =
            LEGACY_SEEN_REVISION_GC.replacen("\"seen_revision\":2", "\"seen_revision\":1", 1);
        let (state, _) = decode_str(&stale).unwrap();
        let resumed = MonitorHub::from_state(&state).unwrap().export_state();
        assert_eq!(resumed.groups[0].dirty, [true, false, true]);
        assert!(resumed.groups[0].dirty_any);
        assert_eq!(resumed.groups[1], golden_hub(true).export_state().groups[1]);
        // The legacy field is still type-checked and may not repeat.
        for bad in [
            "\"seen_revision\":\"2\"",
            "\"seen_revision\":2,\"seen_revision\":2",
        ] {
            let doc = LEGACY_SEEN_REVISION_GC.replacen("\"seen_revision\":2", bad, 1);
            assert!(decode_str(&doc).is_err(), "{bad}");
        }
    }
}
