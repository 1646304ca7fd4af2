//! The online causal store: a growing computation's events, variable
//! snapshots and messages, with the *least-cut table* maintained
//! incrementally — a vector clock per event, extended in `O(n)` when the
//! event is observed and repaired by a monotone worklist pass when a late
//! message tightens the causal order.
//!
//! The clocks give an `O(1)` cycle check at
//! [`message`](OnlineSlicer::message) time — a cyclic observation is
//! rejected *before* it corrupts the history — and power the amortized
//! `O(1)` checks of [`MonitorHub`](../../slicing_detect/struct.MonitorHub.html),
//! which detects conjunctive predicates online from per-event least cuts
//! alone, with no constraint edges. The slice of the prefix observed so
//! far is the offline slicer's: slice
//! [`snapshot_computation`](OnlineSlicer::snapshot_computation).

use slicing_computation::{
    BuildError, Computation, ComputationBuilder, Cut, EventId, ProcessId, Value, VarRef,
};

/// Statistics returned by [`OnlineSlicer::compact`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactionStats {
    /// Events whose storage was reclaimed by this call.
    pub dropped_events: u64,
    /// Events still retained after the call (summary events included).
    pub retained_events: u64,
    /// The causal-stability frontier at the time of the call: per process
    /// `q`, how many of `q`'s events are dominated by *every* process's
    /// latest clock (the meet of the frontier clocks — itself a consistent
    /// cut, so compacting below it can never affect a future verdict).
    pub stable_frontier: Vec<u32>,
}

/// A serializable snapshot of an [`OnlineSlicer`]'s retained state.
///
/// Events are listed in observation (event-id) order; all event-valued
/// fields are indices into that order. Positions and clock counts are
/// *absolute* (they include the compacted prefix), so a restored slicer
/// continues the stream with byte-identical clocks, alarms, and stats.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlicerState {
    /// Number of processes.
    pub num_processes: usize,
    /// Per process: number of compacted leading positions (the retained
    /// summary event sits at exactly this absolute position).
    pub base: Vec<u32>,
    /// Per retained event, in observation order: its process.
    pub event_procs: Vec<u32>,
    /// Per retained event: its vector clock (absolute counts).
    pub clocks: Vec<Vec<u32>>,
    /// Per process: declared variable names, in declaration order.
    pub var_names: Vec<Vec<String>>,
    /// Per process: variable snapshots of the retained positions
    /// (`snapshots[p][k]` is the state after the `k`-th retained event).
    pub snapshots: Vec<Vec<Vec<Value>>>,
    /// Messages between retained events, as (send, recv) index pairs.
    pub messages: Vec<(u32, u32)>,
    /// Messages that grew an already-assigned clock
    /// ([`OnlineSlicer::clock_revision`]).
    pub clock_revision: u64,
}

/// An online store of a computation's causal order.
///
/// Events are observed one at a time (with their variable assignments and
/// message edges); the store keeps a per-event vector clock (the least-cut
/// table) current under late messages, reclaims causally stable history
/// with [`compact`](OnlineSlicer::compact), and checkpoints through
/// [`SlicerState`]. [`snapshot_computation`](OnlineSlicer::snapshot_computation)
/// materializes the computation-so-far for the offline slicers.
///
/// Every observation is validated before it is recorded: assignments are
/// type-checked against the declared initial value
/// ([`BuildError::TypeMismatch`]), and messages that would bend time are
/// rejected with [`BuildError::CyclicOrder`] in `O(1)`. A failed call
/// leaves the observed history exactly as it was.
///
/// # Examples
///
/// ```
/// use slicing_computation::Value;
/// use slicing_core::{slice_conjunctive, OnlineSlicer};
/// use slicing_predicates::{Conjunctive, LocalPredicate};
///
/// let mut s = OnlineSlicer::new(2);
/// let x = s.declare_var(0, "x", Value::Int(0))?;
/// let y = s.declare_var(1, "y", Value::Int(0))?;
/// let a = s.observe(0, &[(x, Value::Int(1))])?;
/// let b = s.observe(1, &[(y, Value::Int(2))])?;
/// s.message(a, b)?;
/// // The receive's least cut contains the send.
/// assert_eq!(s.clock(b).counts(), [2, 2]);
///
/// // The slice of the prefix is the offline slicer's, on a snapshot.
/// let comp = s.snapshot_computation()?;
/// let (p0, p1) = (comp.process(0), comp.process(1));
/// let pred = Conjunctive::new(vec![
///     LocalPredicate::int(comp.var(p0, "x").unwrap(), "x > 0", |v| v > 0),
///     LocalPredicate::int(comp.var(p1, "y").unwrap(), "y > 0", |v| v > 0),
/// ]);
/// assert_eq!(slice_conjunctive(&comp, &pred).count_cuts(None).value(), 1);
/// # Ok::<(), slicing_computation::BuildError>(())
/// ```
#[derive(Debug)]
pub struct OnlineSlicer {
    builder: ComputationBuilder,
    /// Per event: its vector clock — the least consistent cut containing
    /// it. Kept current under late messages by [`propagate`](Self::propagate).
    clocks: Vec<Cut>,
    /// Per event: message edges out of it, for clock propagation.
    msgs_out: Vec<Vec<EventId>>,
    /// Bumped whenever a message grows an already-assigned clock: the
    /// count of re-timing messages.
    clock_revision: u64,
    /// The `(process, position)` of every event whose clock the last
    /// [`message`](Self::message) grew, in the order the worklist grew
    /// them; cleared at the start of each call.
    retimed: Vec<(usize, u32)>,
    /// Mirrors the builder's id horizon: `clocks`/`msgs_out` are indexed
    /// by `id - id_base`; slots below were reclaimed by
    /// [`compact`](Self::compact).
    id_base: u32,
    /// Scratch for the propagation worklist.
    worklist: Vec<EventId>,
    /// Scratch for an event's successors during propagation.
    succ_scratch: Vec<EventId>,
}

impl OnlineSlicer {
    /// Creates an online slicer for `num_processes` processes.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as
    /// [`ComputationBuilder::new`].
    pub fn new(num_processes: usize) -> Self {
        let mut slicer = OnlineSlicer {
            builder: ComputationBuilder::new(num_processes),
            clocks: Vec::new(),
            msgs_out: Vec::new(),
            clock_revision: 0,
            retimed: Vec::new(),
            id_base: 0,
            worklist: Vec::new(),
            succ_scratch: Vec::new(),
        };
        // Initial events sit in every consistent cut: clock = ⊥ (all ones).
        for q in 0..num_processes {
            let init = slicer.event_at(q, 0);
            slicer.ensure_slot(init);
        }
        slicer
    }

    /// Storage slot of event `e`, panicking with a clear message for
    /// events whose storage was reclaimed by compaction.
    fn slot(&self, e: EventId) -> usize {
        e.as_usize()
            .checked_sub(self.id_base as usize)
            .unwrap_or_else(|| panic!("{e} was compacted away"))
    }

    fn ensure_slot(&mut self, e: EventId) {
        let need = self.slot(e) + 1;
        if self.clocks.len() < need {
            let n = self.builder.num_processes();
            self.clocks.resize_with(need, || Cut::bottom(n));
            self.msgs_out.resize_with(need, Vec::new);
        }
    }

    /// The newest event of `p`.
    fn last(&self, p: ProcessId) -> EventId {
        self.builder.event_at(p, self.builder.len(p) - 1)
    }

    /// Declares a variable before any event of its process is observed.
    ///
    /// # Errors
    ///
    /// Propagates [`BuildError::DuplicateVariable`] /
    /// [`BuildError::LateVariable`].
    pub fn declare_var(
        &mut self,
        process: usize,
        name: &str,
        initial: Value,
    ) -> Result<VarRef, BuildError> {
        let p = self.builder.process(process);
        let v = self.builder.try_declare_var(p, name, initial)?;
        Ok(v)
    }

    /// Observes a new event on `process` with the given assignments.
    /// Returns the event id for later [`message`](OnlineSlicer::message)
    /// calls.
    ///
    /// Assignments are validated *before* the event is recorded: a value
    /// whose runtime type differs from the variable's declared initial
    /// value is rejected with [`BuildError::TypeMismatch`], and an
    /// assignment to another process's variable with
    /// [`BuildError::StaleAssignment`]. On error no event is appended.
    ///
    /// # Errors
    ///
    /// [`BuildError::TypeMismatch`] / [`BuildError::StaleAssignment`], as
    /// above.
    pub fn observe(
        &mut self,
        process: usize,
        assignments: &[(VarRef, Value)],
    ) -> Result<EventId, BuildError> {
        let p = self.builder.process(process);
        for &(var, value) in assignments {
            if var.process() != p {
                return Err(BuildError::StaleAssignment {
                    event: self.last(var.process()),
                });
            }
            let declared = self.builder.value_at(var, self.builder.base_of(p));
            if !declared.same_type(value) {
                return Err(BuildError::TypeMismatch {
                    process: p,
                    name: self.builder.var_name(var).to_owned(),
                    expected: declared.type_name(),
                    got: value.type_name(),
                });
            }
        }
        let prev = self.last(p);
        let e = self.builder.append_event(p);
        for &(var, value) in assignments {
            self.builder.assign(e, var, value)?;
        }
        // Clock: the previous frontier event's clock advanced by one step
        // of `p` — message joins were already folded into the predecessor.
        let pos = self.builder.position_of(e);
        self.ensure_slot(e);
        let mut clock = self.clocks[self.slot(prev)].clone();
        clock.set_count(p, pos + 1);
        let slot = self.slot(e);
        self.clocks[slot] = clock;
        slicing_observe::counter("online.events_observed", 1);
        Ok(e)
    }

    /// Observes a message between two already-observed events.
    ///
    /// A message that would create a causal cycle is rejected — in `O(1)`,
    /// by a clock comparison — *before* anything is recorded, so
    /// [`snapshot_computation`](OnlineSlicer::snapshot_computation) never
    /// fails on a history this method accepted. Messages that arrive late
    /// (after their endpoints gained successors) trigger a monotone
    /// worklist repair of downstream clocks;
    /// [`retimed`](OnlineSlicer::retimed) then lists every event whose
    /// clock grew, and [`clock_revision`](OnlineSlicer::clock_revision) is
    /// bumped when any did.
    ///
    /// # Errors
    ///
    /// [`BuildError::CyclicOrder`] for time-bending messages, plus the
    /// builder's own validations (self messages, duplicates, initial
    /// events).
    pub fn message(&mut self, send: EventId, recv: EventId) -> Result<(), BuildError> {
        self.retimed.clear();
        // Endpoints below the id horizon have no slot: let the builder
        // report the typed compaction error before any clock is touched.
        let (ss, rs) = (
            send.as_usize().checked_sub(self.id_base as usize),
            recv.as_usize().checked_sub(self.id_base as usize),
        );
        let (Some(ss), Some(rs)) = (ss, rs) else {
            self.builder.message(send, recv)?;
            unreachable!("builder accepts an endpoint below the id horizon");
        };
        if ss < self.clocks.len() && rs < self.clocks.len() {
            let sp = self.builder.process_of(send);
            let rp = self.builder.process_of(recv);
            // recv →* send iff send's clock already covers recv; initial
            // events are left to the builder's own validation.
            if sp != rp
                && self.builder.position_of(send) >= 1
                && self.builder.position_of(recv) >= 1
                && self.clocks[ss].count(rp) > self.builder.position_of(recv)
            {
                return Err(BuildError::CyclicOrder);
            }
        }
        self.builder.message(send, recv)?;
        self.msgs_out[ss].push(recv);
        self.propagate(send, recv);
        Ok(())
    }

    /// Folds the new `send → recv` edge into downstream clocks: a monotone
    /// worklist pass that touches only events whose clock actually grows,
    /// recording each of them in `retimed`.
    fn propagate(&mut self, send: EventId, recv: EventId) {
        let (ss, rs) = (self.slot(send), self.slot(recv));
        if self.clocks[ss].leq(&self.clocks[rs]) {
            return; // the edge was already implied by the order so far
        }
        self.clock_revision += 1;
        let src = self.clocks[ss].clone();
        self.clocks[rs].join_assign(&src);
        self.retime(recv);
        self.worklist.clear();
        self.worklist.push(recv);
        // Every event this walk can reach lies strictly above the
        // compaction base: messages into summary events are rejected, and a
        // retained event's successors (process order or message) are
        // themselves retained, so the slots below stay untouched.
        while let Some(e) = self.worklist.pop() {
            let p = self.builder.process_of(e);
            let pos = self.builder.position_of(e);
            let es = self.slot(e);
            self.succ_scratch.clear();
            if pos + 1 < self.builder.len(p) {
                self.succ_scratch.push(self.builder.event_at(p, pos + 1));
            }
            self.succ_scratch.extend_from_slice(&self.msgs_out[es]);
            for i in 0..self.succ_scratch.len() {
                let s = self.succ_scratch[i];
                let sl = self.slot(s);
                if !self.clocks[es].leq(&self.clocks[sl]) {
                    let src = self.clocks[es].clone();
                    self.clocks[sl].join_assign(&src);
                    self.retime(s);
                    self.worklist.push(s);
                }
            }
        }
    }

    fn retime(&mut self, e: EventId) {
        let p = self.builder.process_of(e).as_usize();
        self.retimed.push((p, self.builder.position_of(e)));
    }

    /// The number of processes.
    pub fn num_processes(&self) -> usize {
        self.builder.num_processes()
    }

    /// Events observed on `process` so far, *including* the fictitious
    /// initial event (so a fresh slicer reports 1 per process).
    pub fn events_on(&self, process: usize) -> u32 {
        self.builder.len(self.builder.process(process))
    }

    /// Total events observed, including the initial events.
    pub fn num_events(&self) -> u32 {
        (0..self.num_processes()).map(|i| self.events_on(i)).sum()
    }

    /// The event at `pos` on `process` (position 0 is the initial event).
    pub fn event_at(&self, process: usize, pos: u32) -> EventId {
        self.builder.event_at(self.builder.process(process), pos)
    }

    /// The event at `pos` on `process`, or `None` if the position is out
    /// of range or its storage was compacted away — the non-panicking
    /// lookup for callers resolving positions from external input (e.g. a
    /// resumed trace referring to pre-checkpoint events).
    pub fn retained_event_at(&self, process: usize, pos: u32) -> Option<EventId> {
        let p = self.builder.process(process);
        if pos >= self.builder.len(p) {
            return None;
        }
        self.builder.retained_event_at(p, pos)
    }

    /// The vector clock of `e`: the least consistent cut containing it,
    /// kept current as messages arrive. Equals
    /// [`Computation::min_cut`](slicing_computation::Computation::min_cut)
    /// of any snapshot.
    pub fn clock(&self, e: EventId) -> &Cut {
        &self.clocks[self.slot(e)]
    }

    /// How many accepted messages grew an already-assigned clock: a count
    /// of re-timing messages, carried across checkpoints. Which clocks a
    /// message grew is [`retimed`](OnlineSlicer::retimed).
    pub fn clock_revision(&self) -> u64 {
        self.clock_revision
    }

    /// The `(process, position)` of every event whose clock the last
    /// [`message`](OnlineSlicer::message) call grew: the receive first,
    /// then each event in the order the repair grew it (an event grown
    /// along two paths is listed twice). Empty after a message the order
    /// already implied, or a rejected one. Consumers caching consistency
    /// facts about an event re-check exactly these: clocks only grow, so
    /// facts about every other event still hold.
    pub fn retimed(&self) -> &[(usize, u32)] {
        &self.retimed
    }

    /// Looks up a declared variable of `process` by name — the handle
    /// restored monitors need to rebuild their clauses against a slicer
    /// created by [`from_state`](OnlineSlicer::from_state).
    pub fn var(&self, process: usize, name: &str) -> Option<VarRef> {
        self.builder.var(self.builder.process(process), name)
    }

    /// The name `var` was declared under.
    ///
    /// # Panics
    ///
    /// Panics if `var` was not declared on this slicer.
    pub fn var_name(&self, var: VarRef) -> &str {
        self.builder.var_name(var)
    }

    /// Number of leading positions of `process` compacted away (0 until
    /// [`compact`](OnlineSlicer::compact) first drops something).
    pub fn base_of(&self, process: usize) -> u32 {
        self.builder.base_of(self.builder.process(process))
    }

    /// Events whose storage is currently retained (summary and initial
    /// events included). Under periodic compaction this tracks the
    /// unstable suffix instead of the full history.
    pub fn retained_events(&self) -> u64 {
        self.builder.retained_events()
    }

    /// The causal-stability frontier: per process `q`, the number of `q`'s
    /// events dominated by **every** process's latest clock. An event below
    /// the frontier is in every process's causal past, so no late message
    /// (which must be sent from some process's frontier-past) can ever
    /// re-time it — it is safe to fold into a summary. The frontier is the
    /// meet of the frontier clocks, hence itself a consistent cut; it only
    /// moves forward as observations arrive, and late messages merely slow
    /// its advance (they can never invalidate already-stable events).
    pub fn stable_frontier(&self) -> Vec<u32> {
        let n = self.num_processes();
        let mut g = vec![u32::MAX; n];
        for p in 0..n {
            let clk = self.clock(self.last(ProcessId::new(p)));
            for (q, slot) in g.iter_mut().enumerate() {
                *slot = (*slot).min(clk.count(ProcessId::new(q)));
            }
        }
        g
    }

    /// Reclaims the storage of stable history. The compaction cut starts
    /// from the stability frontier, is capped by `lag` (always keep the
    /// last `lag` positions of each process — headroom for protocols whose
    /// lateness bound is known) and by `keep_floor` (never drop position
    /// `keep_floor[q]` or anything after it — monitors pin their oldest
    /// live candidates here), and is then rounded **down** to a consistent
    /// cut so that no retained event can causally depend on a dropped one.
    /// Everything strictly below the final cut is dropped; the cut's
    /// frontier events remain as read-only summaries.
    ///
    /// Compaction never changes any retained clock, the verdicts of future
    /// checks, or the acceptance of messages between retained non-summary
    /// events; messages into dropped or summary events are rejected with
    /// [`BuildError::CompactedEvent`].
    pub fn compact(&mut self, keep_floor: &[u32], lag: u32) -> CompactionStats {
        let n = self.num_processes();
        assert_eq!(keep_floor.len(), n, "keep_floor has wrong arity");
        let g = self.stable_frontier();
        let mut cut: Vec<u32> = (0..n)
            .map(|q| {
                let p = self.builder.process(q);
                let cap = g[q]
                    .min(self.builder.len(p).saturating_sub(lag))
                    .min(keep_floor[q].saturating_add(1));
                cap.max(self.builder.base_of(p) + 1)
            })
            .collect();
        // Round down to a consistent cut: if the frontier event of q's
        // column causally depends on something outside the cut, retreat.
        // Clocks only grow along a process, so the positions whose event
        // fits under the cut form a prefix of the column, found by binary
        // search. Terminates because the current base cut is consistent
        // (its events' clocks are frozen — summary events accept no
        // messages).
        loop {
            let mut changed = false;
            for q in 0..n {
                let p = self.builder.process(q);
                let fits = |c: u32| {
                    let clk = &self.clocks[self.slot(self.builder.event_at(p, c - 1))];
                    (0..n).all(|r| clk.count(ProcessId::new(r)) <= cut[r])
                };
                let (mut lo, mut hi) = (self.builder.base_of(p) + 1, cut[q]);
                if hi <= lo || fits(hi) {
                    continue;
                }
                hi -= 1;
                while lo < hi {
                    let mid = hi - (hi - lo) / 2;
                    if fits(mid) {
                        lo = mid;
                    } else {
                        hi = mid - 1;
                    }
                }
                cut[q] = lo;
                changed = true;
            }
            if !changed {
                break;
            }
        }
        let new_base: Vec<u32> = cut.iter().map(|&c| c - 1).collect();
        let dropped = self.builder.compact(&new_base);
        if dropped > 0 {
            let new_id_base = (0..n)
                .map(|q| {
                    let p = self.builder.process(q);
                    self.builder.event_at(p, new_base[q]).as_u32()
                })
                .min()
                .expect("at least one process");
            let delta = (new_id_base - self.id_base) as usize;
            if delta > 0 {
                self.clocks.drain(..delta);
                self.msgs_out.drain(..delta);
                self.id_base = new_id_base;
                maybe_shrink(&mut self.clocks);
                maybe_shrink(&mut self.msgs_out);
            }
            slicing_observe::counter("online.compacted_events", dropped);
        }
        CompactionStats {
            dropped_events: dropped,
            retained_events: self.builder.retained_events(),
            stable_frontier: g,
        }
    }

    /// Serializes the retained state; see [`SlicerState`]. Pair with
    /// [`from_state`](OnlineSlicer::from_state).
    pub fn export_state(&self) -> SlicerState {
        let n = self.num_processes();
        let order = self.builder.dense_order();
        let rank = |e: EventId| -> u32 {
            order
                .binary_search_by_key(&e.as_u32(), |o| o.as_u32())
                .expect("only retained events are referenced") as u32
        };
        SlicerState {
            num_processes: n,
            base: (0..n).map(|q| self.base_of(q)).collect(),
            event_procs: order
                .iter()
                .map(|&e| self.builder.process_of(e).as_usize() as u32)
                .collect(),
            clocks: order
                .iter()
                .map(|&e| self.clock(e).counts().to_vec())
                .collect(),
            var_names: (0..n)
                .map(|q| self.builder.var_names(self.builder.process(q)).to_vec())
                .collect(),
            snapshots: (0..n)
                .map(|q| {
                    let p = self.builder.process(q);
                    (self.builder.base_of(p)..self.builder.len(p))
                        .map(|pos| self.builder.snapshot_at(p, pos).to_vec())
                        .collect()
                })
                .collect(),
            messages: self
                .builder
                .messages()
                .iter()
                .map(|m| (rank(m.send), rank(m.recv)))
                .collect(),
            clock_revision: self.clock_revision,
        }
    }

    /// Reconstructs a slicer from a checkpointed [`SlicerState`], with
    /// fresh dense event ids (positions and clocks stay absolute).
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::InvalidState`] when the state is structurally
    /// inconsistent (arity mismatches, out-of-range indices, clocks that
    /// contradict their event's position).
    pub fn from_state(state: &SlicerState) -> Result<OnlineSlicer, BuildError> {
        let invalid = |detail: String| BuildError::InvalidState { detail };
        let builder = ComputationBuilder::restore(
            state.num_processes,
            &state.base,
            &state.event_procs,
            state.var_names.clone(),
            state.snapshots.clone(),
            &state.messages,
        )?;
        let n = state.num_processes;
        let count = state.event_procs.len();
        if state.clocks.len() != count {
            return Err(invalid(format!(
                "{count} events but {} clocks",
                state.clocks.len()
            )));
        }
        let mut clocks = Vec::with_capacity(count);
        for (i, counts) in state.clocks.iter().enumerate() {
            if counts.len() != n {
                return Err(invalid(format!("clock {i} has arity {}", counts.len())));
            }
            let e = EventId::new(i);
            let own = counts[builder.process_of(e).as_usize()];
            if own != builder.position_of(e) + 1 {
                return Err(invalid(format!(
                    "clock of event {i} counts {own} own events at position {}",
                    builder.position_of(e)
                )));
            }
            clocks.push(Cut::from_counts(counts));
        }
        let mut msgs_out: Vec<Vec<EventId>> = vec![Vec::new(); count];
        for &(s, r) in &state.messages {
            msgs_out[s as usize].push(EventId::new(r as usize));
        }
        Ok(OnlineSlicer {
            builder,
            clocks,
            msgs_out,
            clock_revision: state.clock_revision,
            retimed: Vec::new(),
            id_base: 0,
            worklist: Vec::new(),
            succ_scratch: Vec::new(),
        })
    }

    /// Materializes the computation observed so far (the retained suffix,
    /// once [`compact`](OnlineSlicer::compact) dropped a prefix), for the
    /// offline slicers and detectors.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::CyclicOrder`] if observed messages formed a
    /// cycle — unreachable for histories assembled through
    /// [`message`](OnlineSlicer::message), which rejects such messages up
    /// front.
    pub fn snapshot_computation(&self) -> Result<Computation, BuildError> {
        self.builder.clone().build()
    }
}

/// Returns over-sized spare capacity to the allocator once the live suffix
/// is a small fraction of the high-water mark.
fn maybe_shrink<T>(v: &mut Vec<T>) {
    if v.capacity() > 2 * v.len() + 64 {
        v.shrink_to_fit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slicing_computation::lattice::{all_cuts, count_cuts};
    use slicing_computation::trace;
    use slicing_predicates::{Conjunctive, LocalPredicate};

    use crate::conjunctive::slice_conjunctive;

    /// Slices each snapshot offline and compares it with the slice of the
    /// same prefix built directly with a [`ComputationBuilder`].
    #[test]
    fn snapshots_match_offline_slicer_at_every_prefix() {
        let mut s = OnlineSlicer::new(2);
        let x = s.declare_var(0, "x", Value::Int(0)).unwrap();
        let y = s.declare_var(1, "y", Value::Int(1)).unwrap();
        let mut b = ComputationBuilder::new(2);
        let (p0, p1) = (b.process(0), b.process(1));
        let bx = b.declare_var(p0, "x", Value::Int(0));
        let by = b.declare_var(p1, "y", Value::Int(1));
        let slice = |comp: &Computation| {
            let xp = comp.var(comp.process(0), "x").unwrap();
            let yp = comp.var(comp.process(1), "y").unwrap();
            let pred = Conjunctive::new(vec![
                LocalPredicate::int(xp, "x > 0", |v| v > 0),
                LocalPredicate::int(yp, "y > 0", |v| v > 0),
            ]);
            all_cuts(&slice_conjunctive(comp, &pred))
        };

        let script = [(0, 1), (1, 0), (0, 0), (1, 2), (0, 3)];
        for (i, &(p, val)) in script.iter().enumerate() {
            let (var, bvar) = if p == 0 { (x, bx) } else { (y, by) };
            s.observe(p, &[(var, Value::Int(val))]).unwrap();
            b.step(b.process(p), &[(bvar, Value::Int(val))]);
            let online = s.snapshot_computation().unwrap();
            let offline = b.clone().build().unwrap();
            assert_eq!(slice(&online), slice(&offline), "prefix {}", i + 1);
        }
    }

    #[test]
    fn messages_flow_into_snapshots() {
        let mut s = OnlineSlicer::new(2);
        let e0 = s.observe(0, &[]).unwrap();
        let e1 = s.observe(1, &[]).unwrap();
        s.message(e0, e1).unwrap();
        let comp = s.snapshot_computation().unwrap();
        assert_eq!(comp.messages().len(), 1);
        assert_eq!(count_cuts(&comp, None).value(), 3);
    }

    #[test]
    fn mistyped_observation_is_rejected_without_corrupting_history() {
        let mut s = OnlineSlicer::new(1);
        let x = s.declare_var(0, "x", Value::Int(0)).unwrap();
        let err = s.observe(0, &[(x, Value::Bool(true))]).unwrap_err();
        assert!(matches!(
            err,
            BuildError::TypeMismatch {
                expected: "int",
                got: "bool",
                ..
            }
        ));
        // No half-observed event: the rejected observation left nothing.
        assert_eq!(s.events_on(0), 1);
        s.observe(0, &[(x, Value::Int(2))]).unwrap();
        let comp = s.snapshot_computation().unwrap();
        assert_eq!(comp.num_events(), 2);
    }

    #[test]
    fn cyclic_message_is_rejected_in_constant_time() {
        let mut s = OnlineSlicer::new(2);
        let a1 = s.observe(0, &[]).unwrap();
        let b1 = s.observe(1, &[]).unwrap();
        let b2 = s.observe(1, &[]).unwrap();
        s.message(a1, b1).unwrap();
        // b2 follows b1 which follows a1: a message b2 → a1 bends time.
        let err = s.message(b2, a1).unwrap_err();
        assert_eq!(err, BuildError::CyclicOrder);
        // Nothing was recorded: the snapshot still builds and has one message.
        let comp = s.snapshot_computation().unwrap();
        assert_eq!(comp.messages().len(), 1);
    }

    #[test]
    fn clocks_equal_offline_min_cuts_even_with_late_messages() {
        let mut s = OnlineSlicer::new(3);
        let mut events = Vec::new();
        for round in 0..4 {
            for p in 0..3 {
                events.push(s.observe(p, &[]).unwrap());
            }
            if round == 2 {
                // Late cross-process messages between events observed long
                // before: clocks must be repaired downstream.
                s.message(events[0], events[4]).unwrap();
                s.message(events[4], events[8]).unwrap();
            }
        }
        s.message(events[1], events[9]).unwrap();
        let comp = s.snapshot_computation().unwrap();
        for e in comp.events() {
            assert_eq!(
                s.clock(e).counts(),
                comp.min_cut(e).counts(),
                "clock of {e} diverged from the offline least-cut table"
            );
        }
        assert!(
            s.clock_revision() > 0,
            "late messages must bump the revision"
        );
    }

    /// `retimed` names exactly the events whose clock a message grew,
    /// the receive first.
    #[test]
    fn retimed_lists_exactly_the_grown_clocks() {
        let mut s = OnlineSlicer::new(3);
        let mut events = Vec::new();
        for _ in 0..4 {
            for p in 0..3 {
                events.push(s.observe(p, &[]).unwrap());
            }
        }
        // events[i] is position i / 3 + 1 of process i % 3.
        let at = |i: usize| (i % 3, (i / 3 + 1) as u32);
        // A late message into p1's second event, one the order already
        // implies, and a cyclic one.
        for (send, recv, accepted) in [(0, 4, true), (0, 7, true), (4, 0, false)] {
            let before: Vec<Cut> = events.iter().map(|&e| s.clock(e).clone()).collect();
            assert_eq!(s.message(events[send], events[recv]).is_ok(), accepted);
            let mut grown: Vec<(usize, u32)> = (0..events.len())
                .filter(|&i| *s.clock(events[i]) != before[i])
                .map(at)
                .collect();
            let mut listed = s.retimed().to_vec();
            if !grown.is_empty() {
                assert_eq!(listed[0], at(recv), "{send} -> {recv}");
            }
            listed.sort_unstable();
            listed.dedup();
            grown.sort_unstable();
            assert_eq!(listed, grown, "{send} -> {recv}");
        }
        // Only the first message re-timed anything: p1's positions 2..=4.
        assert_eq!(s.clock_revision(), 1);
    }

    /// A two-process ping-pong whose messages keep both frontier clocks
    /// tight, so the stability frontier advances with the stream.
    fn ping_pong(rounds: usize) -> (OnlineSlicer, Vec<EventId>, Vec<EventId>) {
        let mut s = OnlineSlicer::new(2);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for i in 0..rounds {
            a.push(s.observe(0, &[]).unwrap());
            b.push(s.observe(1, &[]).unwrap());
            s.message(a[i], b[i]).unwrap();
            if i > 0 {
                s.message(b[i - 1], a[i]).unwrap();
            }
        }
        (s, a, b)
    }

    #[test]
    fn compaction_reclaims_stable_history_without_touching_clocks() {
        let (mut s, a, b) = ping_pong(10);
        let g = s.stable_frontier();
        assert!(g[0] > 2 && g[1] > 2, "ping-pong must stabilize: {g:?}");
        // lag 2 keeps at least the last two positions of each process.
        let before: Vec<Vec<u32>> = a[8..]
            .iter()
            .chain(&b[8..])
            .map(|&e| s.clock(e).counts().to_vec())
            .collect();
        let total = s.retained_events();
        let stats = s.compact(&[u32::MAX, u32::MAX], 2);
        assert!(stats.dropped_events > 0, "{stats:?}");
        assert_eq!(stats.retained_events + stats.dropped_events, total);
        // Absolute bookkeeping is untouched; retained clocks are identical.
        assert_eq!(s.events_on(0), 11);
        let after: Vec<Vec<u32>> = a[8..]
            .iter()
            .chain(&b[8..])
            .map(|&e| s.clock(e).counts().to_vec())
            .collect();
        assert_eq!(before, after);
        // The suffix still snapshots.
        let comp = s.snapshot_computation().unwrap();
        assert_eq!(comp.num_events() as u64, stats.retained_events);
        assert!(count_cuts(&comp, None).value() >= 1);
        // Compacting again with nothing new to fold is a no-op.
        let again = s.compact(&[u32::MAX, u32::MAX], 2);
        assert_eq!(again.dropped_events, 0);
    }

    #[test]
    fn messages_below_the_compaction_horizon_are_rejected() {
        let (mut s, a, b) = ping_pong(10);
        s.compact(&[u32::MAX, u32::MAX], 2);
        let base = s.base_of(0);
        assert!(base > 0);
        // A very late message into reclaimed history cannot be accepted.
        let err = s.message(b[9], a[0]).unwrap_err();
        assert!(
            matches!(
                err,
                BuildError::CompactedEvent { .. } | BuildError::CyclicOrder
            ),
            "{err:?}"
        );
        // The summary events themselves are frozen too: a message between
        // the two summaries is order-compatible with the clocks but still
        // rejected as compacted.
        let summary0 = s.event_at(0, base);
        let summary1 = s.event_at(1, s.base_of(1));
        let err = s.message(summary0, summary1).unwrap_err();
        assert!(matches!(err, BuildError::CompactedEvent { .. }), "{err:?}");
        // Fresh events above the horizon are unaffected.
        let e = s.observe(0, &[]).unwrap();
        s.message(b[9], e).unwrap();
    }

    #[test]
    fn keep_floor_and_lag_pin_the_compaction_cut() {
        let (mut s, _, _) = ping_pong(10);
        // keep_floor pins position 3 of process 0.
        let stats = s.compact(&[3, u32::MAX], 0);
        assert!(s.base_of(0) <= 3, "floor violated: {stats:?}");
        // A large lag suppresses compaction entirely.
        let (mut s2, _, _) = ping_pong(10);
        let stats = s2.compact(&[u32::MAX, u32::MAX], 100);
        assert_eq!(stats.dropped_events, 0);
    }

    #[test]
    fn exported_state_round_trips_through_restore() {
        let mut s = OnlineSlicer::new(2);
        let x = s.declare_var(0, "x", Value::Int(0)).unwrap();
        let y = s.declare_var(1, "y", Value::Int(1)).unwrap();
        let mut events = Vec::new();
        for i in 0..6i64 {
            events.push(s.observe(0, &[(x, Value::Int(i % 3))]).unwrap());
            events.push(s.observe(1, &[(y, Value::Int(i))]).unwrap());
        }
        s.message(events[0], events[3]).unwrap();
        s.message(events[5], events[8]).unwrap(); // late re-timing
        s.compact(&[u32::MAX, u32::MAX], 4);

        let state = s.export_state();
        let mut r = OnlineSlicer::from_state(&state).unwrap();
        let rx = r.var(0, "x").unwrap();
        assert_eq!(r.clock_revision(), s.clock_revision());
        assert_eq!(r.retained_events(), s.retained_events());
        assert_eq!(r.export_state(), state, "export is a fixpoint");

        // Both continue identically.
        let se = s.observe(0, &[(x, Value::Int(9))]).unwrap();
        let re = r.observe(0, &[(rx, Value::Int(9))]).unwrap();
        assert_eq!(s.clock(se).counts(), r.clock(re).counts());
        let cs = s.snapshot_computation().unwrap();
        let cr = r.snapshot_computation().unwrap();
        assert_eq!(
            trace::to_text(&cs),
            trace::to_text(&cr),
            "restored snapshot diverged"
        );
    }

    #[test]
    fn restore_rejects_corrupt_clocks() {
        let mut s = OnlineSlicer::new(1);
        let x = s.declare_var(0, "x", Value::Int(5)).unwrap();
        s.observe(0, &[(x, Value::Int(7))]).unwrap();
        let mut state = s.export_state();
        OnlineSlicer::from_state(&state).unwrap();

        state.clocks[1][0] = 99; // own-count must equal position + 1
        let err = OnlineSlicer::from_state(&state).unwrap_err();
        assert!(matches!(err, BuildError::InvalidState { .. }), "{err:?}");
    }
}
