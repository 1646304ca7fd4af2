//! Incremental construction of [`Computation`]s, with prefix compaction
//! for long-lived observers.
//!
//! Besides the classic append-only API, the builder supports *prefix
//! compaction* ([`compact`](ComputationBuilder::compact)): once the online
//! pipeline has proven a prefix of every process causally stable, the
//! builder drops that prefix's storage (events, variable snapshots,
//! messages) while keeping **absolute** positions and event ids for
//! everything retained. The first retained event of each process acts as a
//! frozen *summary* of the dropped prefix: it still carries its variable
//! snapshot, but it can no longer send or receive messages
//! ([`BuildError::CompactedEvent`]). [`build`](ComputationBuilder::build)
//! transparently re-densifies a compacted builder, producing the retained
//! suffix as a standalone [`Computation`] whose initial events are the
//! summary events.

use std::collections::HashSet;
use std::error::Error;
use std::fmt;

use crate::computation::{Computation, ProcessVars, VarRef};
use crate::cut::Cut;
use crate::cutset::CutBuildHasher;
use crate::event::{EventId, Message};
use crate::process::{ProcSet, ProcessId};
use crate::value::Value;

/// Errors reported by [`ComputationBuilder::build`] and the fallible builder
/// methods.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BuildError {
    /// The happened-before relation contains a cycle (e.g. a message sent
    /// "backwards in time").
    CyclicOrder,
    /// A message was declared between two events of the same process.
    SelfMessage {
        /// The offending process.
        process: ProcessId,
    },
    /// A message endpoint refers to a fictitious initial event, which cannot
    /// send or receive.
    MessageAtInitialEvent {
        /// The offending event.
        event: EventId,
    },
    /// The same (send, recv) pair was declared twice.
    DuplicateMessage {
        /// The duplicated message.
        message: Message,
    },
    /// An assignment targeted an event that is no longer the last event of
    /// its process.
    StaleAssignment {
        /// The event the assignment targeted.
        event: EventId,
    },
    /// A variable name was declared twice on the same process.
    DuplicateVariable {
        /// The process on which the duplicate was declared.
        process: ProcessId,
        /// The duplicated name.
        name: String,
    },
    /// A variable was declared after events were appended to its process.
    LateVariable {
        /// The process on which the late declaration happened.
        process: ProcessId,
        /// The variable name.
        name: String,
    },
    /// An observed value's runtime type differs from the type the variable
    /// was declared with (online observers validate every observation
    /// against the declared initial value before accepting it).
    TypeMismatch {
        /// The process owning the variable.
        process: ProcessId,
        /// The variable name.
        name: String,
        /// Type of the declared initial value.
        expected: &'static str,
        /// Type of the rejected observation.
        got: &'static str,
    },
    /// A watch (predicate conjunct) was registered after its process had
    /// already observed real events, so earlier events could not be
    /// classified under it.
    LateWatch {
        /// The process the watch targeted.
        process: ProcessId,
    },
    /// A message endpoint refers to an event at or below the compaction
    /// frontier: its storage was reclaimed by garbage collection (or it is
    /// the frozen summary event of a compacted prefix), so no new causal
    /// edges may touch it. A protocol that respects the configured
    /// stability lag never triggers this.
    CompactedEvent {
        /// The offending event position (absolute, on its process).
        position: u32,
        /// The process the event belonged to.
        process: ProcessId,
    },
    /// A checkpointed state failed structural validation on restore.
    InvalidState {
        /// Human-readable description of the inconsistency.
        detail: String,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::CyclicOrder => {
                write!(f, "happened-before relation contains a cycle")
            }
            BuildError::SelfMessage { process } => {
                write!(f, "message between two events of process {process}")
            }
            BuildError::MessageAtInitialEvent { event } => {
                write!(f, "initial event {event} cannot send or receive a message")
            }
            BuildError::DuplicateMessage { message } => {
                write!(
                    f,
                    "duplicate message from {} to {}",
                    message.send, message.recv
                )
            }
            BuildError::StaleAssignment { event } => {
                write!(
                    f,
                    "assignment to {event}, which is not the last event of its process"
                )
            }
            BuildError::DuplicateVariable { process, name } => {
                write!(f, "variable {name} declared twice on {process}")
            }
            BuildError::LateVariable { process, name } => {
                write!(
                    f,
                    "variable {name} declared on {process} after events were appended"
                )
            }
            BuildError::TypeMismatch {
                process,
                name,
                expected,
                got,
            } => {
                write!(
                    f,
                    "variable {name} on {process} was declared {expected} but observed {got}"
                )
            }
            BuildError::LateWatch { process } => {
                write!(
                    f,
                    "watch registered on {process} after its events were observed"
                )
            }
            BuildError::CompactedEvent { position, process } => {
                write!(
                    f,
                    "event at position {position} of {process} is at or below the \
                     compaction frontier and can no longer anchor a message"
                )
            }
            BuildError::InvalidState { detail } => {
                write!(f, "invalid checkpointed state: {detail}")
            }
        }
    }
}

impl Error for BuildError {}

/// Builder for [`Computation`]s.
///
/// Creating a builder for `n` processes implicitly creates the fictitious
/// initial event ⊥ᵢ (position 0) on each process; [`declare_var`] sets the
/// value that initial event carries. Real events are appended in process
/// order; messages add cross-process edges.
///
/// [`declare_var`]: ComputationBuilder::declare_var
///
/// # Examples
///
/// ```
/// use slicing_computation::{ComputationBuilder, Value};
///
/// let mut b = ComputationBuilder::new(2);
/// let x = b.declare_var(b.process(0), "x", Value::Int(0));
/// let send = b.step(b.process(0), &[(x, Value::Int(1))]);
/// let recv = b.append_event(b.process(1));
/// b.message(send, recv)?;
/// let comp = b.build()?;
/// assert_eq!(comp.num_events(), 4);
/// # Ok::<(), slicing_computation::BuildError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ComputationBuilder {
    num_processes: usize,
    /// Per event id (offset by `id_base`): its process.
    proc_of: Vec<ProcessId>,
    /// Per event id (offset by `id_base`): its absolute process position.
    pos_of: Vec<u32>,
    /// Per process: the retained events, positions `base[p]..len(p)`.
    per_process: Vec<Vec<EventId>>,
    messages: Vec<Message>,
    /// The same pairs as `messages`, hashed, so the duplicate check on
    /// delivery is O(1) instead of a scan of the history.
    message_set: HashSet<Message, CutBuildHasher>,
    vars: Vec<ProcessVars>,
    /// Per event id (offset by `id_base`): an optional label.
    labels: Vec<Option<String>>,
    /// Per process: number of compacted (dropped) leading positions. The
    /// event at position `base[p]` is the frozen summary of the prefix.
    base: Vec<u32>,
    /// Smallest event id whose metadata is still stored; ids below were
    /// compacted away. Metadata vectors are indexed by `id - id_base`.
    id_base: u32,
}

impl ComputationBuilder {
    /// Creates a builder for `num_processes` processes, each with its
    /// fictitious initial event already appended.
    ///
    /// # Panics
    ///
    /// Panics if `num_processes` is zero or exceeds
    /// [`ProcSet::MAX_PROCESSES`].
    pub fn new(num_processes: usize) -> Self {
        assert!(
            num_processes > 0,
            "a computation needs at least one process"
        );
        assert!(
            num_processes <= ProcSet::MAX_PROCESSES,
            "at most {} processes are supported",
            ProcSet::MAX_PROCESSES
        );
        let mut b = ComputationBuilder {
            num_processes,
            proc_of: Vec::new(),
            pos_of: Vec::new(),
            per_process: vec![Vec::new(); num_processes],
            messages: Vec::new(),
            message_set: HashSet::default(),
            vars: (0..num_processes).map(|_| ProcessVars::default()).collect(),
            labels: Vec::new(),
            base: vec![0; num_processes],
            id_base: 0,
        };
        for i in 0..num_processes {
            // snapshots[0] starts empty and grows as variables are declared.
            b.vars[i].snapshots.push(Vec::new());
            b.push_event(ProcessId::new(i));
        }
        b
    }

    fn push_event(&mut self, p: ProcessId) -> EventId {
        let id = EventId::new(self.id_base as usize + self.proc_of.len());
        let pos = self.base[p.as_usize()] + self.per_process[p.as_usize()].len() as u32;
        self.proc_of.push(p);
        self.pos_of.push(pos);
        self.per_process[p.as_usize()].push(id);
        self.labels.push(None);
        id
    }

    /// Metadata index of `e`, panicking with a clear message for events
    /// whose metadata was reclaimed by compaction.
    fn idx(&self, e: EventId) -> usize {
        e.as_usize()
            .checked_sub(self.id_base as usize)
            .unwrap_or_else(|| panic!("{e} was compacted away"))
    }

    /// The `i`-th process id.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.num_processes()`.
    pub fn process(&self, i: usize) -> ProcessId {
        assert!(i < self.num_processes, "process index out of range");
        ProcessId::new(i)
    }

    /// Number of processes.
    pub fn num_processes(&self) -> usize {
        self.num_processes
    }

    /// Number of events appended so far on process `p`, including the
    /// initial event and any compacted positions.
    pub fn len(&self, p: ProcessId) -> u32 {
        self.base[p.as_usize()] + self.per_process[p.as_usize()].len() as u32
    }

    /// Number of leading positions of `p` dropped by
    /// [`compact`](ComputationBuilder::compact) (0 when never compacted).
    /// The event at exactly this position is the retained summary event.
    pub fn base_of(&self, p: ProcessId) -> u32 {
        self.base[p.as_usize()]
    }

    /// Total retained events across all processes (including the summary
    /// events and, on uncompacted processes, the initial events).
    pub fn retained_events(&self) -> u64 {
        self.per_process.iter().map(|evs| evs.len() as u64).sum()
    }

    /// The event of process `p` at position `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `pos` was never appended or was compacted away; use
    /// [`retained_event_at`](ComputationBuilder::retained_event_at) for a
    /// non-panicking lookup.
    pub fn event_at(&self, p: ProcessId, pos: u32) -> EventId {
        self.retained_event_at(p, pos)
            .unwrap_or_else(|| panic!("position {pos} of {p} is not retained"))
    }

    /// The event of process `p` at absolute position `pos`, if that
    /// position has been appended and not compacted away.
    pub fn retained_event_at(&self, p: ProcessId, pos: u32) -> Option<EventId> {
        let rel = pos.checked_sub(self.base[p.as_usize()])? as usize;
        self.per_process[p.as_usize()].get(rel).copied()
    }

    /// Whether `e` is a currently retained event of this builder.
    pub fn is_retained(&self, e: EventId) -> bool {
        let Some(i) = e.as_usize().checked_sub(self.id_base as usize) else {
            return false;
        };
        if i >= self.proc_of.len() {
            return false;
        }
        let p = self.proc_of[i];
        self.retained_event_at(p, self.pos_of[i]) == Some(e)
    }

    /// The process event `e` belongs to.
    ///
    /// # Panics
    ///
    /// Panics if `e` was not appended by this builder or its metadata was
    /// compacted away.
    pub fn process_of(&self, e: EventId) -> ProcessId {
        self.proc_of[self.idx(e)]
    }

    /// The position of event `e` on its process (0 = the initial event).
    ///
    /// # Panics
    ///
    /// Panics if `e` was not appended by this builder or its metadata was
    /// compacted away.
    pub fn position_of(&self, e: EventId) -> u32 {
        self.pos_of[self.idx(e)]
    }

    /// The declared name of `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` was not declared on this builder.
    pub fn var_name(&self, var: VarRef) -> &str {
        &self.vars[var.process().as_usize()].names[var.index()]
    }

    /// The declared variable names of process `p`, in declaration order.
    pub fn var_names(&self, p: ProcessId) -> &[String] {
        &self.vars[p.as_usize()].names
    }

    /// Value of `var` immediately after the event of its process at the
    /// absolute position `pos` (0 = the initial value), as recorded so far.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range or compacted away.
    pub fn value_at(&self, var: VarRef, pos: u32) -> Value {
        let p = var.process().as_usize();
        let rel = pos
            .checked_sub(self.base[p])
            .unwrap_or_else(|| panic!("position {pos} of {} was compacted", var.process()));
        self.vars[p].snapshots[rel as usize][var.index()]
    }

    /// The full variable snapshot of process `p` after its event at the
    /// absolute position `pos`, in declaration order.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range or compacted away.
    pub fn snapshot_at(&self, p: ProcessId, pos: u32) -> &[Value] {
        let rel = pos
            .checked_sub(self.base[p.as_usize()])
            .unwrap_or_else(|| panic!("position {pos} of {p} was compacted"));
        &self.vars[p.as_usize()].snapshots[rel as usize]
    }

    /// The messages recorded so far between retained events.
    pub fn messages(&self) -> &[Message] {
        &self.messages
    }

    /// The retained events in event-id (observation) order — the canonical
    /// order checkpoint codecs serialize events in.
    pub fn dense_order(&self) -> Vec<EventId> {
        let mut ids: Vec<EventId> = self.per_process.iter().flatten().copied().collect();
        ids.sort_unstable_by_key(|e| e.as_u32());
        ids
    }

    /// Looks up a previously declared variable of process `p` by name.
    pub fn var(&self, p: ProcessId, name: &str) -> Option<VarRef> {
        self.vars[p.as_usize()]
            .by_name
            .get(name)
            .map(|&index| VarRef { process: p, index })
    }

    /// Declares a variable on process `p` with the given initial value
    /// (carried by the initial event ⊥ₚ).
    ///
    /// # Panics
    ///
    /// Panics if the name is already declared on `p` or if real events have
    /// already been appended to `p` (use [`try_declare_var`] for a fallible
    /// version).
    ///
    /// [`try_declare_var`]: ComputationBuilder::try_declare_var
    pub fn declare_var(&mut self, p: ProcessId, name: &str, initial: Value) -> VarRef {
        self.try_declare_var(p, name, initial)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible version of [`declare_var`](ComputationBuilder::declare_var).
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::DuplicateVariable`] if the name is taken and
    /// [`BuildError::LateVariable`] if `p` already has real events.
    pub fn try_declare_var(
        &mut self,
        p: ProcessId,
        name: &str,
        initial: Value,
    ) -> Result<VarRef, BuildError> {
        let pv = &mut self.vars[p.as_usize()];
        if pv.by_name.contains_key(name) {
            return Err(BuildError::DuplicateVariable {
                process: p,
                name: name.to_owned(),
            });
        }
        if self.per_process[p.as_usize()].len() > 1 || self.base[p.as_usize()] > 0 {
            return Err(BuildError::LateVariable {
                process: p,
                name: name.to_owned(),
            });
        }
        let index = pv.names.len() as u16;
        pv.names.push(name.to_owned());
        pv.by_name.insert(name.to_owned(), index);
        pv.snapshots[0].push(initial);
        Ok(VarRef { process: p, index })
    }

    /// Appends a new event to process `p`. The event inherits the variable
    /// values of its predecessor; use [`assign`](ComputationBuilder::assign)
    /// or [`step`](ComputationBuilder::step) to change them.
    pub fn append_event(&mut self, p: ProcessId) -> EventId {
        let prev_snapshot = self.vars[p.as_usize()]
            .snapshots
            .last()
            .expect("initial snapshot always exists")
            .clone();
        self.vars[p.as_usize()].snapshots.push(prev_snapshot);
        self.push_event(p)
    }

    /// Appends a new event to `p` and applies the given assignments.
    pub fn step(&mut self, p: ProcessId, assignments: &[(VarRef, Value)]) -> EventId {
        let e = self.append_event(p);
        for &(var, value) in assignments {
            self.assign(e, var, value)
                .expect("assignment to freshly appended event cannot be stale");
        }
        e
    }

    /// Overwrites the value of `var` at event `e`, which must be the last
    /// event of `var`'s process.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::StaleAssignment`] if `e` is not the most recent
    /// event of the variable's process.
    pub fn assign(&mut self, e: EventId, var: VarRef, value: Value) -> Result<(), BuildError> {
        let p = var.process.as_usize();
        let last = *self.per_process[p]
            .last()
            .expect("every process retains at least one event");
        if last != e || self.proc_of[self.idx(e)] != var.process {
            return Err(BuildError::StaleAssignment { event: e });
        }
        let rel = (self.pos_of[self.idx(e)] - self.base[p]) as usize;
        self.vars[p].snapshots[rel][var.index as usize] = value;
        Ok(())
    }

    /// Declares a message from event `send` to event `recv`.
    ///
    /// # Errors
    ///
    /// Returns an error if the endpoints are on the same process, either
    /// endpoint is an initial event, either endpoint is at or below the
    /// compaction frontier ([`BuildError::CompactedEvent`]), or the pair is
    /// a duplicate. Cycles are detected later, by
    /// [`build`](ComputationBuilder::build).
    pub fn message(&mut self, send: EventId, recv: EventId) -> Result<(), BuildError> {
        for &e in &[send, recv] {
            let Some(i) = e.as_usize().checked_sub(self.id_base as usize) else {
                // Metadata below id_base is gone; the position is unknown
                // but certainly below its process's frontier.
                return Err(BuildError::CompactedEvent {
                    position: 0,
                    process: ProcessId::new(0),
                });
            };
            if i >= self.proc_of.len() {
                return Err(BuildError::InvalidState {
                    detail: format!("message endpoint {e} was never observed"),
                });
            }
            let p = self.proc_of[i];
            let pos = self.pos_of[i];
            if pos == 0 {
                return Err(BuildError::MessageAtInitialEvent { event: e });
            }
            if pos <= self.base[p.as_usize()] {
                return Err(BuildError::CompactedEvent {
                    position: pos,
                    process: p,
                });
            }
        }
        if self.proc_of[self.idx(send)] == self.proc_of[self.idx(recv)] {
            return Err(BuildError::SelfMessage {
                process: self.proc_of[self.idx(send)],
            });
        }
        let message = Message { send, recv };
        if !self.message_set.insert(message) {
            return Err(BuildError::DuplicateMessage { message });
        }
        self.messages.push(message);
        Ok(())
    }

    /// Attaches a human-readable label to an event (used by examples, tests
    /// and trace dumps).
    ///
    /// # Panics
    ///
    /// Panics if `e`'s metadata was compacted away.
    pub fn set_label(&mut self, e: EventId, label: &str) {
        let i = self.idx(e);
        self.labels[i] = Some(label.to_owned());
    }

    /// Drops the storage of every position strictly below `new_base[p]` on
    /// each process `p`, keeping the event **at** `new_base[p]` as the
    /// frozen summary of the prefix. Positions and event ids of retained
    /// events stay absolute. Messages with an endpoint at or below the new
    /// base are dropped along with the prefix (their causal influence must
    /// already be folded into whatever clocks the caller maintains — the
    /// online slicer guarantees this by only compacting below a *consistent*
    /// stability cut).
    ///
    /// Returns the number of events dropped by this call.
    ///
    /// # Panics
    ///
    /// Panics if `new_base` shrinks an existing base (the frontier is
    /// monotone), reaches past the last event of a process, or has the
    /// wrong length.
    pub fn compact(&mut self, new_base: &[u32]) -> u64 {
        assert_eq!(new_base.len(), self.num_processes, "base has wrong arity");
        let mut dropped = 0u64;
        for (p, &new) in new_base.iter().enumerate() {
            let old = self.base[p];
            assert!(new >= old, "compaction frontier must be monotone");
            assert!(
                new < old + self.per_process[p].len() as u32,
                "compaction must retain the frontier event of process {p}"
            );
            let delta = (new - old) as usize;
            if delta == 0 {
                continue;
            }
            self.per_process[p].drain(..delta);
            self.vars[p].snapshots.drain(..delta);
            maybe_shrink(&mut self.per_process[p]);
            maybe_shrink(&mut self.vars[p].snapshots);
            dropped += delta as u64;
            self.base[p] = new;
        }
        if dropped == 0 {
            return 0;
        }
        {
            let pos_of = &self.pos_of;
            let proc_of = &self.proc_of;
            let base = &self.base;
            let id_base = self.id_base as usize;
            let message_set = &mut self.message_set;
            self.messages.retain(|m| {
                let live = |e: EventId| {
                    let i = e.as_usize() - id_base;
                    pos_of[i] > base[proc_of[i].as_usize()]
                };
                let keep = live(m.send) && live(m.recv);
                if !keep {
                    message_set.remove(m);
                }
                keep
            });
        }
        maybe_shrink(&mut self.messages);
        self.message_set.shrink_to(2 * self.messages.len() + 64);
        // Advance the id horizon to the smallest retained id: everything
        // below it belongs to some process's dropped prefix. (Dropped ids
        // above the horizon keep their 8-byte metadata entries — bounded by
        // cross-process skew, which the stability cut keeps small.)
        let min_id = self
            .per_process
            .iter()
            .filter_map(|evs| evs.first())
            .map(|e| e.as_u32())
            .min()
            .expect("every process retains an event");
        let delta = (min_id - self.id_base) as usize;
        if delta > 0 {
            self.proc_of.drain(..delta);
            self.pos_of.drain(..delta);
            self.labels.drain(..delta);
            self.id_base = min_id;
            maybe_shrink(&mut self.proc_of);
            maybe_shrink(&mut self.pos_of);
            maybe_shrink(&mut self.labels);
        }
        dropped
    }

    /// Reconstructs a builder from checkpointed parts.
    ///
    /// `event_procs[i]` is the process of the `i`-th retained event in
    /// observation (event-id) order; positions are assigned sequentially
    /// per process starting at `base[p]`, and ids are re-densified from 0.
    /// `snapshots[p][k]` holds the variable values (declaration order)
    /// after the `k`-th retained event of `p`; `messages` are index pairs
    /// into the event order.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::InvalidState`] when the parts are structurally
    /// inconsistent (wrong arities, out-of-range indices, empty processes,
    /// message endpoints at or below the base).
    pub fn restore(
        num_processes: usize,
        base: &[u32],
        event_procs: &[u32],
        var_names: Vec<Vec<String>>,
        snapshots: Vec<Vec<Vec<Value>>>,
        messages: &[(u32, u32)],
    ) -> Result<ComputationBuilder, BuildError> {
        let invalid = |detail: String| BuildError::InvalidState { detail };
        if num_processes == 0 || num_processes > ProcSet::MAX_PROCESSES {
            return Err(invalid(format!("{num_processes} processes out of range")));
        }
        if base.len() != num_processes
            || var_names.len() != num_processes
            || snapshots.len() != num_processes
        {
            return Err(invalid("per-process arrays have wrong arity".into()));
        }
        let mut vars = Vec::with_capacity(num_processes);
        for (p, (names, snaps)) in var_names.into_iter().zip(snapshots).enumerate() {
            let mut pv = ProcessVars::default();
            for (i, name) in names.iter().enumerate() {
                if pv.by_name.insert(name.clone(), i as u16).is_some() {
                    return Err(invalid(format!(
                        "duplicate variable {name:?} on process {p}"
                    )));
                }
            }
            for (k, row) in snaps.iter().enumerate() {
                if row.len() != names.len() {
                    return Err(invalid(format!(
                        "snapshot {k} of process {p} has {} values for {} variables",
                        row.len(),
                        names.len()
                    )));
                }
            }
            pv.names = names;
            pv.snapshots = snaps;
            vars.push(pv);
        }
        let mut b = ComputationBuilder {
            num_processes,
            proc_of: Vec::with_capacity(event_procs.len()),
            pos_of: Vec::with_capacity(event_procs.len()),
            per_process: vec![Vec::new(); num_processes],
            messages: Vec::with_capacity(messages.len()),
            message_set: HashSet::with_capacity_and_hasher(messages.len(), CutBuildHasher),
            vars,
            labels: Vec::with_capacity(event_procs.len()),
            base: base.to_vec(),
            id_base: 0,
        };
        for &p in event_procs {
            if p as usize >= num_processes {
                return Err(invalid(format!("event process {p} out of range")));
            }
            b.push_event(ProcessId::new(p as usize));
        }
        for p in 0..num_processes {
            if b.per_process[p].is_empty() {
                return Err(invalid(format!("process {p} has no retained events")));
            }
            if b.vars[p].snapshots.len() != b.per_process[p].len() {
                return Err(invalid(format!(
                    "process {p} has {} snapshots for {} retained events",
                    b.vars[p].snapshots.len(),
                    b.per_process[p].len()
                )));
            }
        }
        for &(s, r) in messages {
            let count = b.proc_of.len() as u32;
            if s >= count || r >= count {
                return Err(invalid(format!("message ({s}, {r}) out of range")));
            }
            let send = EventId::new(s as usize);
            let recv = EventId::new(r as usize);
            match b.message(send, recv) {
                Ok(()) => {}
                Err(e) => return Err(invalid(format!("message ({s}, {r}): {e}"))),
            }
        }
        Ok(b)
    }

    /// Whether any prefix has been compacted away.
    fn is_compacted(&self) -> bool {
        self.id_base > 0 || self.base.iter().any(|&b| b > 0)
    }

    /// Re-densifies a compacted builder: retained events are renumbered
    /// 0.. in id order and positions are re-based so the summary events
    /// become the initial events of the resulting suffix computation. A
    /// never-compacted builder is returned unchanged.
    fn into_dense(mut self) -> ComputationBuilder {
        if !self.is_compacted() {
            return self;
        }
        let mut ids: Vec<u32> = self
            .per_process
            .iter()
            .flat_map(|evs| evs.iter().map(|e| e.as_u32()))
            .collect();
        ids.sort_unstable();
        let remap = |e: EventId| -> EventId {
            EventId::new(
                ids.binary_search(&e.as_u32())
                    .expect("only retained events are referenced"),
            )
        };
        let mut proc_of = Vec::with_capacity(ids.len());
        let mut pos_of = Vec::with_capacity(ids.len());
        let mut labels = Vec::with_capacity(ids.len());
        for &id in &ids {
            let i = (id - self.id_base) as usize;
            let p = self.proc_of[i];
            proc_of.push(p);
            pos_of.push(self.pos_of[i] - self.base[p.as_usize()]);
            labels.push(self.labels[i].take());
        }
        let per_process = self
            .per_process
            .iter()
            .map(|evs| evs.iter().map(|&e| remap(e)).collect())
            .collect();
        let messages: Vec<Message> = self
            .messages
            .iter()
            .map(|m| Message {
                send: remap(m.send),
                recv: remap(m.recv),
            })
            .collect();
        let message_set = messages.iter().copied().collect();
        ComputationBuilder {
            num_processes: self.num_processes,
            proc_of,
            pos_of,
            per_process,
            messages,
            message_set,
            vars: self.vars,
            labels,
            base: vec![0; self.num_processes],
            id_base: 0,
        }
    }

    /// Finalizes the computation: validates acyclicity and computes vector
    /// clocks and channel prefix tables. On a compacted builder this
    /// produces the retained *suffix* as a standalone computation — the
    /// summary events become the initial events, and causal edges that were
    /// folded into the compacted prefix are not re-materialized.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::CyclicOrder`] if the message edges create a
    /// cycle in the happened-before relation.
    pub fn build(self) -> Result<Computation, BuildError> {
        self.into_dense().build_dense()
    }

    fn build_dense(self) -> Result<Computation, BuildError> {
        let num_events = self.proc_of.len();
        let n = self.num_processes;

        // Adjacency for topological processing: process-order + messages.
        let mut msgs_in: Vec<Vec<u32>> = vec![Vec::new(); num_events];
        let mut msgs_out: Vec<Vec<u32>> = vec![Vec::new(); num_events];
        for (mi, m) in self.messages.iter().enumerate() {
            msgs_out[m.send.as_usize()].push(mi as u32);
            msgs_in[m.recv.as_usize()].push(mi as u32);
        }

        let mut indegree = vec![0u32; num_events];
        for events in &self.per_process {
            for e in events.iter().skip(1) {
                indegree[e.as_usize()] += 1; // process-order predecessor
            }
        }
        for m in &self.messages {
            indegree[m.recv.as_usize()] += 1;
        }

        // Kahn's algorithm, simultaneously computing vector clocks.
        let bottom = Cut::bottom(n);
        let mut min_cut: Vec<Cut> = vec![bottom.clone(); num_events];
        let mut queue: Vec<EventId> = (0..num_events)
            .map(EventId::new)
            .filter(|e| indegree[e.as_usize()] == 0)
            .collect();
        let mut processed = 0usize;
        while let Some(e) = queue.pop() {
            processed += 1;
            let p = self.proc_of[e.as_usize()];
            let pos = self.pos_of[e.as_usize()];
            // Fold in the process-order predecessor's clock.
            if pos > 0 {
                let prev = self.per_process[p.as_usize()][pos as usize - 1];
                let prev_clock = min_cut[prev.as_usize()].clone();
                min_cut[e.as_usize()].join_assign(&prev_clock);
            }
            // Fold in the clocks of all received messages' sends.
            for &mi in &msgs_in[e.as_usize()] {
                let send = self.messages[mi as usize].send;
                let send_clock = min_cut[send.as_usize()].clone();
                min_cut[e.as_usize()].join_assign(&send_clock);
            }
            min_cut[e.as_usize()].set_count(p, pos + 1);

            // Release successors.
            if (pos as usize + 1) < self.per_process[p.as_usize()].len() {
                let next = self.per_process[p.as_usize()][pos as usize + 1];
                indegree[next.as_usize()] -= 1;
                if indegree[next.as_usize()] == 0 {
                    queue.push(next);
                }
            }
            for &mi in &msgs_out[e.as_usize()] {
                let recv = self.messages[mi as usize].recv;
                indegree[recv.as_usize()] -= 1;
                if indegree[recv.as_usize()] == 0 {
                    queue.push(recv);
                }
            }
        }
        if processed != num_events {
            return Err(BuildError::CyclicOrder);
        }

        // Channel prefix tables.
        let mut sends_prefix = vec![Vec::new(); n];
        let mut recvs_prefix = vec![Vec::new(); n];
        for i in 0..n {
            let len = self.per_process[i].len();
            sends_prefix[i] = vec![vec![0u32; len]; n];
            recvs_prefix[i] = vec![vec![0u32; len]; n];
        }
        for m in &self.messages {
            let sp = self.proc_of[m.send.as_usize()].as_usize();
            let rp = self.proc_of[m.recv.as_usize()].as_usize();
            let spos = self.pos_of[m.send.as_usize()] as usize;
            let rpos = self.pos_of[m.recv.as_usize()] as usize;
            sends_prefix[sp][rp][spos] += 1;
            recvs_prefix[rp][sp][rpos] += 1;
        }
        for i in 0..n {
            for j in 0..n {
                for p in 1..self.per_process[i].len() {
                    sends_prefix[i][j][p] += sends_prefix[i][j][p - 1];
                    recvs_prefix[i][j][p] += recvs_prefix[i][j][p - 1];
                }
            }
        }

        Ok(Computation {
            num_processes: n,
            proc_of: self.proc_of,
            pos_of: self.pos_of,
            per_process: self.per_process,
            messages: self.messages,
            msgs_in,
            msgs_out,
            min_cut,
            vars: self.vars,
            sends_prefix,
            recvs_prefix,
            labels: self.labels,
        })
    }
}

/// Returns over-sized spare capacity to the allocator. Compaction calls
/// this after draining so a long-lived builder's footprint tracks the live
/// suffix instead of the high-water mark.
fn maybe_shrink<T>(v: &mut Vec<T>) {
    if v.capacity() > 2 * v.len() + 64 {
        v.shrink_to_fit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_computation_has_only_initial_events() {
        let c = ComputationBuilder::new(3).build().unwrap();
        assert_eq!(c.num_events(), 3);
        assert!(c.is_empty());
        for p in c.processes() {
            assert_eq!(c.len(p), 1);
        }
    }

    #[test]
    #[should_panic(expected = "at least one process")]
    fn zero_processes_rejected() {
        let _ = ComputationBuilder::new(0);
    }

    #[test]
    fn self_message_rejected() {
        let mut b = ComputationBuilder::new(1);
        let e1 = b.append_event(b.process(0));
        let e2 = b.append_event(b.process(0));
        assert_eq!(
            b.message(e1, e2),
            Err(BuildError::SelfMessage {
                process: b.process(0)
            })
        );
    }

    #[test]
    fn message_at_initial_event_rejected() {
        let mut b = ComputationBuilder::new(2);
        let real = b.append_event(b.process(0));
        let init1 = EventId::new(1); // initial event of p1
        let err = b.message(real, init1).unwrap_err();
        assert_eq!(err, BuildError::MessageAtInitialEvent { event: init1 });
    }

    #[test]
    fn duplicate_message_rejected() {
        let mut b = ComputationBuilder::new(2);
        let s = b.append_event(b.process(0));
        let r = b.append_event(b.process(1));
        b.message(s, r).unwrap();
        assert!(matches!(
            b.message(s, r),
            Err(BuildError::DuplicateMessage { .. })
        ));

        // A compaction that keeps both endpoints keeps the pair known.
        let (mut b, _) = sample();
        let (s, r) = (b.event_at(b.process(0), 4), b.event_at(b.process(1), 3));
        b.compact(&[2, 1]);
        assert!(b.is_retained(s) && b.is_retained(r));
        assert!(matches!(
            b.message(s, r),
            Err(BuildError::DuplicateMessage { .. })
        ));
        // The survivors still accept fresh pairs.
        let late = b.append_event(b.process(1));
        b.message(s, late).unwrap();
        assert_eq!(b.messages().len(), 2);
    }

    #[test]
    fn cycle_detected() {
        let mut b = ComputationBuilder::new(2);
        let a1 = b.append_event(b.process(0));
        let a2 = b.append_event(b.process(0));
        let b1 = b.append_event(b.process(1));
        let b2 = b.append_event(b.process(1));
        // a2 -> b1 (message forward) and b2 -> a1 (message backward) forms a
        // cycle a1 -> a2 -> b1 -> b2 -> a1.
        b.message(a2, b1).unwrap();
        b.message(b2, a1).unwrap();
        assert_eq!(b.build().unwrap_err(), BuildError::CyclicOrder);
    }

    #[test]
    fn duplicate_variable_rejected() {
        let mut b = ComputationBuilder::new(1);
        let p = b.process(0);
        b.declare_var(p, "x", Value::Int(0));
        assert!(matches!(
            b.try_declare_var(p, "x", Value::Int(1)),
            Err(BuildError::DuplicateVariable { .. })
        ));
    }

    #[test]
    fn late_variable_rejected() {
        let mut b = ComputationBuilder::new(1);
        let p = b.process(0);
        b.append_event(p);
        assert!(matches!(
            b.try_declare_var(p, "x", Value::Int(0)),
            Err(BuildError::LateVariable { .. })
        ));
    }

    #[test]
    fn stale_assignment_rejected() {
        let mut b = ComputationBuilder::new(1);
        let p = b.process(0);
        let x = b.declare_var(p, "x", Value::Int(0));
        let e1 = b.append_event(p);
        let _e2 = b.append_event(p);
        assert_eq!(
            b.assign(e1, x, Value::Int(9)),
            Err(BuildError::StaleAssignment { event: e1 })
        );
    }

    #[test]
    fn assignment_to_wrong_process_rejected() {
        let mut b = ComputationBuilder::new(2);
        let x0 = b.declare_var(b.process(0), "x", Value::Int(0));
        let e1 = b.append_event(b.process(1));
        assert!(matches!(
            b.assign(e1, x0, Value::Int(1)),
            Err(BuildError::StaleAssignment { .. })
        ));
    }

    #[test]
    fn clocks_join_across_chains() {
        // p0: e01 -> e02 ; p1: e11 ; message e02 -> e11.
        let mut b = ComputationBuilder::new(2);
        let _e01 = b.append_event(b.process(0));
        let e02 = b.append_event(b.process(0));
        let e11 = b.append_event(b.process(1));
        b.message(e02, e11).unwrap();
        let c = b.build().unwrap();
        assert_eq!(c.min_cut(e11).counts(), &[3, 2]);
    }

    #[test]
    fn error_display_is_informative() {
        let e = BuildError::CyclicOrder;
        assert!(e.to_string().contains("cycle"));
        let e = BuildError::DuplicateVariable {
            process: ProcessId::new(1),
            name: "x".into(),
        };
        assert!(e.to_string().contains("x"));
        let e = BuildError::CompactedEvent {
            position: 7,
            process: ProcessId::new(2),
        };
        assert!(e.to_string().contains("compaction frontier"), "{e}");
    }

    /// Builds p0: 4 real events, p1: 3 real events, a few messages and a
    /// variable on p0.
    fn sample() -> (ComputationBuilder, VarRef) {
        let mut b = ComputationBuilder::new(2);
        let x = b.declare_var(b.process(0), "x", Value::Int(0));
        let mut p0 = Vec::new();
        let mut p1 = Vec::new();
        for i in 0..4i64 {
            p0.push(b.step(b.process(0), &[(x, Value::Int(i + 1))]));
            if i < 3 {
                p1.push(b.append_event(b.process(1)));
            }
        }
        b.message(p0[0], p1[1]).unwrap();
        b.message(p0[3], p1[2]).unwrap();
        (b, x)
    }

    #[test]
    fn compaction_keeps_absolute_positions_and_values() {
        let (mut b, x) = sample();
        let dropped = b.compact(&[2, 1]);
        assert_eq!(dropped, 3); // positions 0,1 of p0 and 0 of p1
        assert_eq!(b.len(b.process(0)), 5);
        assert_eq!(b.base_of(b.process(0)), 2);
        assert_eq!(b.retained_events(), 6);
        // The summary event keeps its absolute position and snapshot.
        let summary = b.event_at(b.process(0), 2);
        assert_eq!(b.position_of(summary), 2);
        assert_eq!(b.value_at(x, 2), Value::Int(2));
        assert_eq!(b.value_at(x, 4), Value::Int(4));
        assert!(!b.is_retained(EventId::new(0)));
        assert!(b.is_retained(summary));
        assert_eq!(b.retained_event_at(b.process(0), 1), None);
    }

    #[test]
    fn compaction_drops_messages_touching_the_frozen_prefix() {
        let (mut b, _) = sample();
        assert_eq!(b.messages().len(), 2);
        // p0 positions ≤ 1 dropped: the p0[0] → p1[1] message loses its
        // send side (pos 1 == new base) and is dropped.
        b.compact(&[1, 0]);
        assert_eq!(b.messages().len(), 1);
        // New messages touching the frozen summary are rejected.
        let summary = b.event_at(b.process(0), 1);
        let other = b.event_at(b.process(1), 2);
        assert!(matches!(
            b.message(summary, other),
            Err(BuildError::CompactedEvent { position: 1, .. })
        ));
    }

    #[test]
    fn compacted_builder_builds_the_suffix() {
        let (mut b, _) = sample();
        b.compact(&[2, 1]);
        let suffix = b.build().unwrap();
        assert_eq!(suffix.num_events(), 6);
        assert_eq!(suffix.num_processes(), 2);
        // The surviving message p0[3] → p1[2] maps to re-based positions.
        assert_eq!(suffix.messages().len(), 1);
        let m = suffix.messages()[0];
        assert_eq!(suffix.position_of(m.send), 2); // was absolute pos 4
        assert_eq!(suffix.position_of(m.recv), 2); // was absolute pos 3
    }

    #[test]
    fn appending_after_compaction_continues_absolute_positions() {
        let (mut b, x) = sample();
        b.compact(&[3, 2]);
        let e = b.step(b.process(0), &[(x, Value::Int(99))]);
        assert_eq!(b.position_of(e), 5);
        assert_eq!(b.value_at(x, 5), Value::Int(99));
        let r = b.append_event(b.process(1));
        b.message(e, r).unwrap();
        let suffix = b.build().unwrap();
        assert_eq!(suffix.num_events(), 4 + 2);
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn compaction_frontier_cannot_move_backwards() {
        let (mut b, _) = sample();
        b.compact(&[2, 1]);
        b.compact(&[1, 1]);
    }

    #[test]
    fn restore_round_trips_a_compacted_builder() {
        let (mut b, x) = sample();
        b.compact(&[2, 1]);
        let order = b.dense_order();
        let rank = |e: EventId| order.iter().position(|&o| o == e).unwrap() as u32;
        let event_procs: Vec<u32> = order
            .iter()
            .map(|&e| b.process_of(e).as_usize() as u32)
            .collect();
        let base: Vec<u32> = (0..2).map(|p| b.base_of(b.process(p))).collect();
        let var_names: Vec<Vec<String>> =
            (0..2).map(|p| b.var_names(b.process(p)).to_vec()).collect();
        let snapshots: Vec<Vec<Vec<Value>>> = (0..2)
            .map(|p| {
                let p = b.process(p);
                (b.base_of(p)..b.len(p))
                    .map(|pos| b.snapshot_at(p, pos).to_vec())
                    .collect()
            })
            .collect();
        let messages: Vec<(u32, u32)> = b
            .messages()
            .iter()
            .map(|m| (rank(m.send), rank(m.recv)))
            .collect();
        let r =
            ComputationBuilder::restore(2, &base, &event_procs, var_names, snapshots, &messages)
                .unwrap();
        assert_eq!(r.len(r.process(0)), b.len(b.process(0)));
        assert_eq!(r.base_of(r.process(0)), 2);
        assert_eq!(r.value_at(x, 4), b.value_at(x, 4));
        assert_eq!(r.messages().len(), b.messages().len());
        // Both build the same suffix shape.
        let cb = b.build().unwrap();
        let cr = r.build().unwrap();
        assert_eq!(cb.num_events(), cr.num_events());
    }

    #[test]
    fn restore_rejects_corrupt_parts() {
        // Message endpoint out of range.
        let err =
            ComputationBuilder::restore(1, &[0], &[0], vec![vec![]], vec![vec![vec![]]], &[(0, 9)])
                .unwrap_err();
        assert!(matches!(err, BuildError::InvalidState { .. }), "{err}");
        // A process with no retained events.
        let err = ComputationBuilder::restore(
            2,
            &[0, 0],
            &[0],
            vec![vec![], vec![]],
            vec![vec![vec![]], vec![]],
            &[],
        )
        .unwrap_err();
        assert!(matches!(err, BuildError::InvalidState { .. }), "{err}");
        // Snapshot row arity mismatch.
        let err = ComputationBuilder::restore(
            1,
            &[0],
            &[0],
            vec![vec!["x".into()]],
            vec![vec![vec![]]],
            &[],
        )
        .unwrap_err();
        assert!(matches!(err, BuildError::InvalidState { .. }), "{err}");
        // The same message twice.
        let err = ComputationBuilder::restore(
            2,
            &[0, 0],
            &[0, 1, 0, 1],
            vec![vec![], vec![]],
            vec![vec![vec![]; 2], vec![vec![]; 2]],
            &[(2, 3), (2, 3)],
        )
        .unwrap_err();
        assert!(
            matches!(&err, BuildError::InvalidState { detail } if detail.contains("duplicate")),
            "{err}"
        );
    }
}
