//! A plain-text trace format for computations.
//!
//! The format is line-oriented and diff-friendly, so recorded protocol runs
//! can be checked into a repository and replayed by the examples:
//!
//! ```text
//! # comments and blank lines are ignored
//! procs 3
//! var 0 x 5            # process 0 declares x with initial value 5
//! var 1 ok true
//! var 2 peer p0
//! event 0 x=6          # appends an event to process 0, assigning x
//! event 1 label=r ok=false
//! msg 0 1 1 1          # message from (p0, pos 1) to (p1, pos 1)
//! ```
//!
//! Values are written as integers (`-3`), booleans (`true`/`false`), or
//! process ids (`p2`). The key `label` inside an `event` line attaches an
//! event label instead of assigning a variable, so `label` is reserved and
//! cannot be used as a variable name in traces.
//!
//! [`parse_line`] checks one line's syntax; [`TraceReader`] checks the
//! rules that span lines, and its documentation is the format's spec.
//! [`from_text`] and the streaming `slicing monitor` and `slicing serve`
//! all read through it, so they reject the same traces.

use std::collections::{BTreeMap, HashMap};
use std::error::Error;
use std::fmt;

use crate::builder::{BuildError, ComputationBuilder};
use crate::computation::{Computation, VarRef};
use crate::process::ProcessId;
use crate::value::Value;

/// Errors produced when parsing a textual trace.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceError {
    /// A line broke the format: its own syntax, or a rule of
    /// [`TraceReader`] (line 0 when the trace has no `procs` line).
    Syntax {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// The trace was structurally invalid (e.g. cyclic messages).
    Build(BuildError),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Syntax { line, message } => {
                write!(f, "trace syntax error on line {line}: {message}")
            }
            TraceError::Build(e) => write!(f, "trace build error: {e}"),
        }
    }
}

impl Error for TraceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TraceError::Build(e) => Some(e),
            TraceError::Syntax { .. } => None,
        }
    }
}

impl From<BuildError> for TraceError {
    fn from(e: BuildError) -> Self {
        TraceError::Build(e)
    }
}

fn syntax(line: usize, message: impl Into<String>) -> TraceError {
    TraceError::Syntax {
        line,
        message: message.into(),
    }
}

fn format_value(v: Value) -> String {
    match v {
        Value::Int(i) => i.to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Pid(p) => p.to_string(),
    }
}

/// One parsed line of the textual trace format: the unit of *streaming*
/// ingestion.
///
/// [`parse_line`] turns each input line into one of these without needing
/// the rest of the trace. Only syntax is checked here; [`TraceReader`]
/// checks the *context* (process indices in range, variables declared,
/// endpoints existing) and hands back the ops that pass.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceOp {
    /// `procs N` — the header declaring the process count.
    Procs(usize),
    /// `var p name init` — declare a variable with its initial value.
    Var {
        /// Owning process index.
        process: usize,
        /// Variable name (`label` is reserved and rejected at parse time).
        name: String,
        /// Initial value.
        initial: Value,
    },
    /// `event p [label=l] [k=v]…` — append an event, with optional label
    /// and variable writes in line order.
    Event {
        /// Process the event is appended to.
        process: usize,
        /// Optional event label (`label=` key).
        label: Option<String>,
        /// Variable assignments, in the order written on the line.
        writes: Vec<(String, Value)>,
    },
    /// `msg sp spos rp rpos` — a message edge between two event positions.
    Msg {
        /// Sender as (process index, event position).
        send: (usize, u32),
        /// Receiver as (process index, event position).
        recv: (usize, u32),
    },
}

/// Parses one line of the trace format into a [`TraceOp`].
///
/// Returns `Ok(None)` for blank lines and comments (everything after `#`
/// is stripped first). `lineno` is the 1-based line number used in error
/// messages.
///
/// # Errors
///
/// [`TraceError::Syntax`] for any malformed line: unknown directives,
/// missing fields, bad values, or the reserved variable name `label`.
pub fn parse_line(raw: &str, lineno: usize) -> Result<Option<TraceOp>, TraceError> {
    let line = raw.split('#').next().unwrap_or("").trim();
    if line.is_empty() {
        return Ok(None);
    }
    let mut tokens = line.split_whitespace();
    let kind = tokens.next().expect("non-empty line has a first token");
    let op = match kind {
        "procs" => {
            let n: usize = tokens
                .next()
                .ok_or_else(|| syntax(lineno, "procs needs a count"))?
                .parse()
                .map_err(|_| syntax(lineno, "invalid process count"))?;
            if n == 0 || n > crate::process::ProcSet::MAX_PROCESSES {
                return Err(syntax(lineno, "process count out of range"));
            }
            TraceOp::Procs(n)
        }
        "var" => {
            let process: usize = tokens
                .next()
                .ok_or_else(|| syntax(lineno, "var needs a process"))?
                .parse()
                .map_err(|_| syntax(lineno, "invalid process index"))?;
            let name = tokens
                .next()
                .ok_or_else(|| syntax(lineno, "var needs a name"))?;
            if name == "label" {
                return Err(syntax(lineno, "variable name `label` is reserved"));
            }
            let initial = parse_value(
                tokens
                    .next()
                    .ok_or_else(|| syntax(lineno, "var needs an initial value"))?,
                lineno,
            )?;
            TraceOp::Var {
                process,
                name: name.to_string(),
                initial,
            }
        }
        "event" => {
            let process: usize = tokens
                .next()
                .ok_or_else(|| syntax(lineno, "event needs a process"))?
                .parse()
                .map_err(|_| syntax(lineno, "invalid process index"))?;
            let mut label = None;
            let mut writes = Vec::new();
            for kv in tokens {
                let (key, val) = kv
                    .split_once('=')
                    .ok_or_else(|| syntax(lineno, format!("expected key=value, got {kv:?}")))?;
                if key == "label" {
                    label = Some(val.to_string());
                } else {
                    writes.push((key.to_string(), parse_value(val, lineno)?));
                }
            }
            TraceOp::Event {
                process,
                label,
                writes,
            }
        }
        "msg" => {
            let nums: Vec<&str> = tokens.collect();
            if nums.len() != 4 {
                return Err(syntax(lineno, "msg needs 4 fields"));
            }
            let sp: usize = nums[0]
                .parse()
                .map_err(|_| syntax(lineno, "invalid send process"))?;
            let spos: u32 = nums[1]
                .parse()
                .map_err(|_| syntax(lineno, "invalid send position"))?;
            let rp: usize = nums[2]
                .parse()
                .map_err(|_| syntax(lineno, "invalid recv process"))?;
            let rpos: u32 = nums[3]
                .parse()
                .map_err(|_| syntax(lineno, "invalid recv position"))?;
            TraceOp::Msg {
                send: (sp, spos),
                recv: (rp, rpos),
            }
        }
        other => {
            return Err(syntax(lineno, format!("unknown directive {other:?}")));
        }
    };
    Ok(Some(op))
}

fn parse_value(token: &str, line: usize) -> Result<Value, TraceError> {
    match token {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        _ => {}
    }
    if let Some(rest) = token.strip_prefix('p') {
        if let Ok(idx) = rest.parse::<usize>() {
            return Ok(Value::Pid(ProcessId::new(idx)));
        }
    }
    token
        .parse::<i64>()
        .map(Value::Int)
        .map_err(|_| syntax(line, format!("invalid value {token:?}")))
}

/// Serializes a computation to the textual trace format.
///
/// The result round-trips through [`from_text`]: variable declarations,
/// event order, assignments, labels and messages are all preserved.
pub fn to_text(comp: &Computation) -> String {
    let mut out = String::new();
    out.push_str("# computation-slicing trace v1\n");
    out.push_str(&format!("procs {}\n", comp.num_processes()));
    for p in comp.processes() {
        for (i, name) in comp.var_names(p).enumerate() {
            let var = comp.var(p, name).expect("listed name resolves");
            let _ = i;
            out.push_str(&format!(
                "var {} {} {}\n",
                p.as_usize(),
                name,
                format_value(comp.value_at(var, 0))
            ));
        }
    }

    // Events in their original interleaved order (event ids are assigned in
    // append order, so iterating ids reproduces it).
    for e in comp.events() {
        if comp.is_initial(e) {
            continue;
        }
        let p = comp.process_of(e);
        let pos = comp.position_of(e);
        let mut line = format!("event {}", p.as_usize());
        if let Some(l) = comp.label(e) {
            line.push_str(&format!(" label={l}"));
        }
        for name in comp.var_names(p) {
            let var = comp.var(p, name).expect("listed name resolves");
            let now = comp.value_at(var, pos);
            let before = comp.value_at(var, pos - 1);
            if now != before {
                line.push_str(&format!(" {name}={}", format_value(now)));
            }
        }
        out.push_str(&line);
        out.push('\n');
    }

    for m in comp.messages() {
        out.push_str(&format!(
            "msg {} {} {} {}\n",
            comp.process_of(m.send).as_usize(),
            comp.position_of(m.send),
            comp.process_of(m.recv).as_usize(),
            comp.position_of(m.recv)
        ));
    }
    out
}

/// The streaming reader of the trace format: [`parse_line`] plus every
/// rule that spans lines. Call [`feed`](TraceReader::feed) once per line,
/// then [`finish`](TraceReader::finish) at the end of input. A trace is
/// valid exactly when every call succeeds. The rules:
///
/// - `procs` comes first (after blank lines and comments only) and appears
///   once.
/// - A `var` names a process in range and a name not yet declared on it,
///   and comes before that process's first event.
/// - An `event` names a process in range and writes only names declared on
///   it, each with a value of the same type as the initial value.
/// - A `msg` joins two different processes in range, at positions ≥ 1
///   (position 0 is the initial event, which neither sends nor receives)
///   and ≤ the process's final event count. A message may be written
///   before its endpoints; `finish` rejects it if they never come.
///
/// Every error is a [`TraceError::Syntax`] naming the offending line. An
/// endpoint that never came is reported at its `msg` line, the first such
/// message in file order (its send before its receive).
///
/// Two faults only the causal store can see are not checked here: a
/// message given twice, and messages that form a cycle. [`from_text`]
/// rejects both as [`TraceError::Build`]; `slicing monitor` and
/// `slicing serve` print one warning and skip the message.
#[derive(Debug, Default)]
pub struct TraceReader {
    /// Per process: each declared name's dense index and initial value.
    vars: Vec<HashMap<String, (u16, Value)>>,
    /// Per process: events read so far. Empty until `procs`.
    events: Vec<u32>,
    /// Per process: the message endpoints past its events, by position,
    /// each with the first `msg` line naming it and its index in
    /// [`BAD_ENDPOINT`]. An entry leaves when its event is read.
    pending: Vec<BTreeMap<u32, (usize, usize)>>,
    /// The resolved writes of the last `event` line.
    writes: Vec<(VarRef, Value)>,
}

impl TraceReader {
    /// A reader at the start of a trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads one line and returns what [`parse_line`] made of it, once it
    /// passes every rule; `Ok(None)` for blank lines and comments.
    /// `lineno` is the 1-based line number used in error messages.
    ///
    /// # Errors
    ///
    /// [`TraceError::Syntax`] for a line [`parse_line`] rejects or one that
    /// breaks a rule of the [format](TraceReader).
    pub fn feed(&mut self, raw: &str, lineno: usize) -> Result<Option<TraceOp>, TraceError> {
        let op = parse_line(raw, lineno)?;
        if let Some(op) = &op {
            self.accept(op, lineno)
                .map_err(|message| syntax(lineno, message))?;
        }
        Ok(op)
    }

    /// Checks `op` against the lines read so far, then records it.
    fn accept(&mut self, op: &TraceOp, lineno: usize) -> Result<(), String> {
        let procs = self.events.len();
        match *op {
            TraceOp::Procs(_) if procs > 0 => Err("duplicate procs line".into()),
            TraceOp::Procs(n) => {
                self.vars = vec![HashMap::new(); n];
                self.events = vec![0; n];
                self.pending = vec![BTreeMap::new(); n];
                Ok(())
            }
            TraceOp::Var { .. } if procs == 0 => Err("var before procs".into()),
            TraceOp::Event { .. } if procs == 0 => Err("event before procs".into()),
            TraceOp::Msg { .. } if procs == 0 => Err("msg before procs".into()),
            TraceOp::Var { process, .. } | TraceOp::Event { process, .. } if process >= procs => {
                Err("process index out of range".into())
            }
            TraceOp::Var {
                process: p,
                ref name,
                initial,
            } => {
                if self.vars[p].contains_key(name) {
                    return Err(format!("variable {name:?} declared twice on process {p}"));
                }
                if self.events[p] > 0 {
                    return Err(format!(
                        "variable {name:?} declared after process {p}'s first event"
                    ));
                }
                let index = u16::try_from(self.vars[p].len())
                    .map_err(|_| format!("too many variables on process {p}"))?;
                self.vars[p].insert(name.clone(), (index, initial));
                Ok(())
            }
            TraceOp::Event {
                process: p,
                ref writes,
                ..
            } => {
                self.writes.clear();
                for (name, value) in writes {
                    let &(index, declared) = self.vars[p]
                        .get(name)
                        .ok_or_else(|| format!("unknown variable {name:?} on process {p}"))?;
                    if !declared.same_type(*value) {
                        let (want, got) = (declared.type_name(), value.type_name());
                        return Err(format!(
                            "variable {name:?} on process {p} is declared {want} but written {got}"
                        ));
                    }
                    let process = ProcessId::new(p);
                    self.writes.push((VarRef { process, index }, *value));
                }
                self.events[p] = self.events[p]
                    .checked_add(1)
                    .ok_or_else(|| format!("too many events on process {p}"))?;
                self.pending[p].remove(&self.events[p]);
                Ok(())
            }
            TraceOp::Msg { send, recv } => {
                let ends = [(send, 0), (recv, 1)];
                if let Some(&(_, end)) = ends.iter().find(|((p, pos), _)| *p >= procs || *pos == 0)
                {
                    return Err(BAD_ENDPOINT[end].into());
                }
                if send.0 == recv.0 {
                    return Err(format!("msg joins process {} to itself", send.0));
                }
                for ((p, pos), end) in ends {
                    if pos > self.events[p] {
                        self.pending[p].entry(pos).or_insert((lineno, end));
                    }
                }
                Ok(())
            }
        }
    }

    /// The writes of the last `event` line, in line order, each resolved
    /// to its variable.
    pub fn writes(&self) -> &[(VarRef, Value)] {
        &self.writes
    }

    /// The variable `name` of process `p`, once declared: the handle the
    /// reader resolves writes to, which is also the one a
    /// [`ComputationBuilder`] (or an online slicer) gives when the trace's
    /// `var` lines are declared in order.
    pub fn var(&self, p: usize, name: &str) -> Option<VarRef> {
        let &(index, _) = self.vars.get(p)?.get(name)?;
        Some(VarRef {
            process: ProcessId::new(p),
            index,
        })
    }

    /// The variables declared so far with their initial values, as a
    /// computation without events: what predicates over the trace are
    /// parsed against. Its `VarRef`s are the ones the reader hands out.
    ///
    /// # Panics
    ///
    /// Panics before the `procs` line.
    pub fn header(&self) -> Computation {
        let mut b = ComputationBuilder::new(self.vars.len());
        for (p, vars) in self.vars.iter().enumerate() {
            let mut decls: Vec<_> = vars.iter().collect();
            decls.sort_unstable_by_key(|(_, (index, _))| *index);
            for (name, &(_, initial)) in decls {
                b.declare_var(ProcessId::new(p), name, initial);
            }
        }
        b.build().expect("a computation without events is acyclic")
    }

    /// Ends the input: the trace must have had a `procs` line, and every
    /// message endpoint must have arrived.
    ///
    /// # Errors
    ///
    /// [`TraceError::Syntax`]: on line 0 without `procs`, else on the
    /// first `msg` line whose endpoint never came.
    pub fn finish(&self) -> Result<(), TraceError> {
        if self.events.is_empty() {
            return Err(syntax(0, "trace has no procs line"));
        }
        // Every endpoint still pending lies past its process's last event.
        match self.pending.iter().flat_map(BTreeMap::values).min() {
            Some(&(line, end)) => Err(syntax(line, BAD_ENDPOINT[end])),
            None => Ok(()),
        }
    }
}

/// The error for a `msg` line's send (0) or receive (1).
const BAD_ENDPOINT: [&str; 2] = ["bad send endpoint", "bad recv endpoint"];

/// Parses a computation from the textual trace format: a [`TraceReader`]
/// feeding a [`ComputationBuilder`]. Messages are added in file order once
/// every line is read, so `messages()` lists them as the trace does.
///
/// # Errors
///
/// Returns [`TraceError::Syntax`] for any line the reader rejects and
/// [`TraceError::Build`] for a repeated message or cyclic messages.
pub fn from_text(text: &str) -> Result<Computation, TraceError> {
    let mut reader = TraceReader::new();
    let mut builder: Option<ComputationBuilder> = None;
    let mut messages = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        // The reader's first op is always `Procs`, so every other one
        // finds the builder.
        match (reader.feed(raw, idx + 1)?, builder.as_mut()) {
            (Some(TraceOp::Procs(n)), _) => builder = Some(ComputationBuilder::new(n)),
            (
                Some(TraceOp::Var {
                    process,
                    name,
                    initial,
                }),
                Some(b),
            ) => {
                b.try_declare_var(ProcessId::new(process), &name, initial)?;
            }
            (Some(TraceOp::Event { process, label, .. }), Some(b)) => {
                let e = b.append_event(ProcessId::new(process));
                if let Some(l) = &label {
                    b.set_label(e, l);
                }
                for &(var, value) in reader.writes() {
                    b.assign(e, var, value)?;
                }
            }
            (Some(TraceOp::Msg { send, recv }), _) => messages.push((send, recv)),
            _ => {}
        }
    }
    reader.finish()?;
    let mut b = builder.expect("finish rejects a trace without procs");
    for ((sp, spos), (rp, rpos)) in messages {
        let send = b.event_at(ProcessId::new(sp), spos);
        let recv = b.event_at(ProcessId::new(rp), rpos);
        b.message(send, recv)?;
    }
    Ok(b.build()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::figure1;

    #[test]
    fn figure1_round_trips() {
        let original = figure1();
        let text = to_text(&original);
        let parsed = from_text(&text).expect("emitted trace parses");
        assert_eq!(parsed.num_processes(), original.num_processes());
        assert_eq!(parsed.num_events(), original.num_events());
        assert_eq!(parsed.messages(), original.messages());
        for e in original.events() {
            assert_eq!(parsed.label(e), original.label(e));
            let p = original.process_of(e);
            for name in original.var_names(p) {
                let vo = original.var(p, name).unwrap();
                let vp = parsed.var(p, name).unwrap();
                assert_eq!(
                    parsed.value_at(vp, original.position_of(e)),
                    original.value_at(vo, original.position_of(e))
                );
            }
        }
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let c = from_text("# header\n\nprocs 1\n  # indented comment\nevent 0\n").unwrap();
        assert_eq!(c.num_events(), 2);
    }

    #[test]
    fn value_parsing() {
        assert_eq!(parse_value("true", 1).unwrap(), Value::Bool(true));
        assert_eq!(parse_value("-4", 1).unwrap(), Value::Int(-4));
        assert_eq!(parse_value("p3", 1).unwrap(), Value::Pid(ProcessId::new(3)));
        assert!(parse_value("zzz", 1).is_err());
        // `p` followed by non-digits falls through to the error path.
        assert!(parse_value("px", 1).is_err());
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = from_text("procs 1\nbogus 1\n").unwrap_err();
        match err {
            TraceError::Syntax { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn event_before_procs_rejected() {
        assert!(from_text("event 0\n").is_err());
    }

    #[test]
    fn unknown_variable_rejected() {
        let err = from_text("procs 1\nevent 0 y=1\n").unwrap_err();
        assert!(err.to_string().contains("unknown variable"));
    }

    #[test]
    fn reserved_label_name_rejected() {
        assert!(from_text("procs 1\nvar 0 label 0\n").is_err());
    }

    #[test]
    fn bad_message_endpoint_rejected() {
        let err = from_text("procs 2\nevent 0\nmsg 0 1 1 5\n").unwrap_err();
        assert!(err.to_string().contains("recv endpoint"));
    }

    #[test]
    fn parse_line_streams_one_op_at_a_time() {
        assert_eq!(parse_line("# comment", 1).unwrap(), None);
        assert_eq!(parse_line("   ", 2).unwrap(), None);
        assert_eq!(parse_line("procs 3", 3).unwrap(), Some(TraceOp::Procs(3)));
        assert_eq!(
            parse_line("var 1 x 5 # trailing", 4).unwrap(),
            Some(TraceOp::Var {
                process: 1,
                name: "x".to_string(),
                initial: Value::Int(5),
            })
        );
        assert_eq!(
            parse_line("event 0 label=send x=6 ok=true", 5).unwrap(),
            Some(TraceOp::Event {
                process: 0,
                label: Some("send".to_string()),
                writes: vec![
                    ("x".to_string(), Value::Int(6)),
                    ("ok".to_string(), Value::Bool(true)),
                ],
            })
        );
        assert_eq!(
            parse_line("msg 0 1 1 2", 6).unwrap(),
            Some(TraceOp::Msg {
                send: (0, 1),
                recv: (1, 2),
            })
        );
    }

    #[test]
    fn parse_line_rejects_malformed_input_with_line_numbers() {
        for (bad, needle) in [
            ("bogus 1", "unknown directive"),
            ("procs", "procs needs a count"),
            ("procs many", "invalid process count"),
            ("procs 0", "process count out of range"),
            ("var 0 label 1", "reserved"),
            ("var 0 x", "var needs an initial value"),
            ("event x", "invalid process index"),
            ("event 0 naked", "expected key=value"),
            ("event 0 x=?", "invalid value"),
            ("msg 0 1 1", "msg needs 4 fields"),
            ("msg 0 1 1 no", "invalid recv position"),
        ] {
            match parse_line(bad, 7).unwrap_err() {
                TraceError::Syntax { line, message } => {
                    assert_eq!(line, 7, "{bad}");
                    assert!(message.contains(needle), "{bad}: {message}");
                }
                other => panic!("unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn reader_checks_every_context_rule() {
        for (text, line, needle) in [
            ("var 0 x 0\nprocs 1\n", 1, "var before procs"),
            ("procs 1\nprocs 1\n", 2, "duplicate procs line"),
            ("procs 1\nvar 3 x 0\n", 2, "process index out of range"),
            ("procs 1\nevent 1\n", 2, "process index out of range"),
            ("procs 1\nvar 0 x 0\nvar 0 x 1\n", 3, "declared twice"),
            (
                "procs 1\nevent 0\nvar 0 x 0\n",
                3,
                "after process 0's first event",
            ),
            (
                "procs 1\nvar 0 x 0\nevent 0 x=true\n",
                3,
                "declared int but written bool",
            ),
            ("procs 1\nevent 0 y=1\n", 2, "unknown variable"),
            (
                "procs 2\nevent 0\nevent 1\nmsg 0 0 1 1\n",
                4,
                "bad send endpoint",
            ),
            (
                "procs 2\nevent 0\nevent 1\nmsg 0 1 1 0\n",
                4,
                "bad recv endpoint",
            ),
            (
                "procs 2\nevent 0\nevent 1\nmsg 0 1 7 1\n",
                4,
                "bad recv endpoint",
            ),
            ("procs 2\nevent 0\nevent 0\nmsg 0 1 0 2\n", 4, "to itself"),
            (
                "procs 2\nmsg 0 1 1 4294967295\nevent 0\nevent 1\n",
                2,
                "bad recv endpoint",
            ),
            (
                "procs 2\nmsg 0 2 1 3\nmsg 0 1 1 1\nevent 0\nevent 1\n",
                2,
                "bad send endpoint",
            ),
            ("# no header\n", 0, "no procs line"),
        ] {
            let mut reader = TraceReader::new();
            let streamed = text
                .lines()
                .enumerate()
                .try_for_each(|(i, raw)| reader.feed(raw, i + 1).map(drop))
                .and_then(|()| reader.finish());
            for err in [streamed.unwrap_err(), from_text(text).unwrap_err()] {
                match err {
                    TraceError::Syntax { line: l, message } => {
                        assert_eq!(l, line, "{text:?}: {message}");
                        assert!(message.contains(needle), "{text:?}: {message}");
                    }
                    other => panic!("{text:?}: unexpected error {other:?}"),
                }
            }
        }
    }

    #[test]
    fn reader_resolves_writes_and_waits_for_endpoints() {
        let mut reader = TraceReader::new();
        assert_eq!(reader.feed("procs 2", 1).unwrap(), Some(TraceOp::Procs(2)));
        // A message may name events the trace has not reached yet.
        assert!(reader.feed("msg 0 1 1 1", 2).unwrap().is_some());
        assert!(reader.finish().is_err(), "its endpoints never came");
        reader.feed("var 1 ok true", 3).unwrap();
        reader.feed("var 1 y 0", 4).unwrap();
        let (ok, y) = (reader.var(1, "ok").unwrap(), reader.var(1, "y").unwrap());
        assert_eq!((ok.index(), y.index(), reader.var(0, "y")), (0, 1, None));
        reader.feed("event 0", 5).unwrap();
        assert!(matches!(
            reader.feed("event 1 y=3 ok=false", 6).unwrap(),
            Some(TraceOp::Event { process: 1, .. })
        ));
        assert_eq!(
            reader.writes(),
            [(y, Value::Int(3)), (ok, Value::Bool(false))]
        );
        // Each endpoint is forgotten as soon as its event is read.
        assert!(reader.pending.iter().all(BTreeMap::is_empty));
        reader.finish().expect("both endpoints arrived");
        let header = reader.header();
        assert_eq!(
            (header.var(ProcessId::new(1), "y"), header.num_events()),
            (Some(y), 2)
        );
    }

    #[test]
    fn cyclic_trace_reports_build_error() {
        let text = "procs 2\nevent 0\nevent 0\nevent 1\nevent 1\nmsg 0 2 1 1\nmsg 1 2 0 1\n";
        match from_text(text).unwrap_err() {
            TraceError::Build(BuildError::CyclicOrder) => {}
            other => panic!("unexpected error {other:?}"),
        }
    }
}
