//! Fault injection: perturb a fault-free computation so that a global
//! fault (a consistent cut violating the invariant) may appear — the
//! paper's "faulty scenario" methodology.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use slicing_computation::{BuildError, Computation, ComputationBuilder, ProcessId, Value};

/// A single injected fault: variable `var_name` of `process` reads `value`
/// immediately after the event at `position`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    /// The faulty process.
    pub process: ProcessId,
    /// Event position at which the corruption takes effect (0 = initial).
    pub position: u32,
    /// Name of the corrupted variable.
    pub var_name: String,
    /// The corrupted value.
    pub value: Value,
    /// `true`: the original value is restored at the next event (a
    /// transient bit-flip); `false`: the corruption persists until the
    /// protocol's next write.
    pub transient: bool,
}

/// Rebuilds `comp` with `fault` applied.
///
/// The event structure (processes, positions, messages, labels) is
/// unchanged; only the recorded variable snapshots differ.
///
/// # Errors
///
/// Returns an error if the fault references an unknown variable or
/// out-of-range position.
pub fn inject(comp: &Computation, fault: &FaultSpec) -> Result<Computation, FaultError> {
    slicing_observe::counter("sim.faults_injected", 1);
    slicing_observe::message(slicing_observe::Level::Debug, || {
        format!(
            "fault: {} of process {} corrupted at position {} ({})",
            fault.var_name,
            fault.process.as_usize(),
            fault.position,
            if fault.transient {
                "transient"
            } else {
                "persistent"
            },
        )
    });
    comp.var(fault.process, &fault.var_name)
        .ok_or_else(|| FaultError::UnknownVariable {
            process: fault.process,
            name: fault.var_name.clone(),
        })?;
    if fault.position >= comp.len(fault.process) {
        return Err(FaultError::PositionOutOfRange {
            process: fault.process,
            position: fault.position,
        });
    }

    let n = comp.num_processes();
    let mut b = ComputationBuilder::new(n);

    // Re-declare all variables, applying the fault to initial values if it
    // targets position 0.
    for p in comp.processes() {
        let names: Vec<String> = comp.var_names(p).map(str::to_owned).collect();
        for name in names {
            let v = comp.var(p, &name).expect("listed name resolves");
            let mut initial = comp.value_at(v, 0);
            if p == fault.process && fault.position == 0 && name == fault.var_name {
                initial = fault.value;
            }
            b.try_declare_var(p, &name, initial)
                .map_err(FaultError::Build)?;
        }
    }

    // Replay events in original append order (event ids are dense in that
    // order), rewriting the affected snapshots.
    for e in comp.events() {
        if comp.is_initial(e) {
            continue;
        }
        let p = comp.process_of(e);
        let pos = comp.position_of(e);
        let ne = b.append_event(p);
        let names: Vec<String> = comp.var_names(p).map(str::to_owned).collect();
        for name in names {
            let orig_var = comp.var(p, &name).expect("listed name resolves");
            let new_var = b.var(p, &name).expect("declared above");
            let mut value = comp.value_at(orig_var, pos);
            if p == fault.process && name == fault.var_name {
                if pos == fault.position {
                    value = fault.value;
                } else if fault.transient && pos == fault.position + 1 {
                    // Restore explicitly: the carried-forward value would
                    // otherwise keep the corruption.
                    value = comp.value_at(orig_var, pos);
                } else if !fault.transient && pos > fault.position {
                    // Persist until the protocol writes a different value
                    // than it originally carried forward.
                    let orig_now = comp.value_at(orig_var, pos);
                    let orig_prev = comp.value_at(orig_var, pos - 1);
                    if orig_now == orig_prev {
                        value = fault.value;
                    }
                }
            }
            b.assign(ne, new_var, value).map_err(FaultError::Build)?;
        }
        if let Some(l) = comp.label(e) {
            let l = l.to_owned();
            b.set_label(ne, &l);
        }
    }

    for m in comp.messages() {
        let send = b.event_at(comp.process_of(m.send), comp.position_of(m.send));
        let recv = b.event_at(comp.process_of(m.recv), comp.position_of(m.recv));
        b.message(send, recv).map_err(FaultError::Build)?;
    }

    b.build().map_err(FaultError::Build)
}

/// Errors from [`inject`], [`inject_kind`] and [`inject_plan`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultError {
    /// The fault names a variable the process does not have.
    UnknownVariable {
        /// Target process.
        process: ProcessId,
        /// Unresolved name.
        name: String,
    },
    /// The fault position exceeds the process's event count.
    PositionOutOfRange {
        /// Target process.
        process: ProcessId,
        /// Offending position.
        position: u32,
    },
    /// A message fault indexes past the computation's message list.
    MessageOutOfRange {
        /// Offending index into [`Computation::messages`].
        index: usize,
        /// Number of messages in the computation.
        count: usize,
    },
    /// A delivery fault targets a message whose receive is already the
    /// last event of its process, so there is no later event to move or
    /// re-apply the delivery to.
    NoLaterDelivery {
        /// Offending index into [`Computation::messages`].
        index: usize,
    },
    /// Reconstruction failed (cannot happen for valid inputs).
    Build(BuildError),
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultError::UnknownVariable { process, name } => {
                write!(f, "process {process} has no variable {name:?}")
            }
            FaultError::PositionOutOfRange { process, position } => {
                write!(f, "position {position} out of range on {process}")
            }
            FaultError::MessageOutOfRange { index, count } => {
                write!(f, "message index {index} out of range ({count} messages)")
            }
            FaultError::NoLaterDelivery { index } => {
                write!(
                    f,
                    "message {index} is received at the last event of its process; \
                     delivery cannot be moved later"
                )
            }
            FaultError::Build(e) => write!(f, "fault injection rebuild failed: {e}"),
        }
    }
}

impl std::error::Error for FaultError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FaultError::Build(e) => Some(e),
            _ => None,
        }
    }
}

/// `?`-friendly conversion into the CLI's `String` error type, so
/// injection failures surface as exit codes instead of panics.
impl From<FaultError> for String {
    fn from(e: FaultError) -> String {
        e.to_string()
    }
}

/// One fault of any kind — the generalization of [`FaultSpec`] used by the
/// recovery loop, so rollback/replay is exercised against more than single
/// bit-flips.
///
/// Structural kinds (`DropMessage`, `DuplicateMessage`, `DelayDelivery`,
/// `CrashStop`) rebuild the computation by *delta re-application*: every
/// event's original writes (its variable changes relative to its
/// predecessor) are replayed on top of the edited event structure, so
/// suppressed or moved deliveries leave downstream state exactly as
/// corrupted as the lost or reordered messages imply.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultKind {
    /// Variable corruption — the original [`FaultSpec`] semantics.
    Corrupt(FaultSpec),
    /// Message loss: the edge of message `msg_index` (an index into
    /// [`Computation::messages`]) is removed and the receive event's
    /// writes are suppressed; the receive degenerates to an internal
    /// event that never saw the payload.
    DropMessage {
        /// Index into [`Computation::messages`].
        msg_index: usize,
    },
    /// Message duplication: the receive's writes are re-applied (and a
    /// redundant delivery edge added) at the `after`-th later event of the
    /// receiving process, clamped to its last event. Models a retransmit
    /// arriving twice.
    DuplicateMessage {
        /// Index into [`Computation::messages`].
        msg_index: usize,
        /// How many events later the duplicate lands (≥ 1; clamped).
        after: u32,
    },
    /// Delayed delivery: the edge and the receive's writes move `by`
    /// events later on the receiving process (clamped to its last event),
    /// possibly overtaking other traffic on the channel.
    DelayDelivery {
        /// Index into [`Computation::messages`].
        msg_index: usize,
        /// How many events later the delivery lands (≥ 1; clamped).
        by: u32,
    },
    /// Crash-stop: `process` takes no actions after `position`. Its later
    /// writes vanish, messages it sent after the crash are lost (their
    /// receives are suppressed), and messages addressed to it after the
    /// crash disappear from the network.
    CrashStop {
        /// The crashing process.
        process: ProcessId,
        /// Last position at which the process still acted.
        position: u32,
    },
}

impl FaultKind {
    /// Short machine-readable name of the kind (used in reports and CI).
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::Corrupt(_) => "corrupt",
            FaultKind::DropMessage { .. } => "drop-message",
            FaultKind::DuplicateMessage { .. } => "duplicate-message",
            FaultKind::DelayDelivery { .. } => "delay-delivery",
            FaultKind::CrashStop { .. } => "crash-stop",
        }
    }
}

/// A burst of faults applied in order: each fault is injected into the
/// result of the previous one, so message indices and positions refer to
/// the computation as edited so far (structural kinds preserve the event
/// structure, so indices stay stable in practice).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// The faults, applied first to last.
    pub faults: Vec<FaultKind>,
}

impl FaultPlan {
    /// A plan with a single fault.
    pub fn single(kind: FaultKind) -> Self {
        FaultPlan { faults: vec![kind] }
    }

    /// A plan applying `faults` in order.
    pub fn new(faults: Vec<FaultKind>) -> Self {
        FaultPlan { faults }
    }
}

/// Extra writes applied at event `(process, position)`.
type ExtraWrites = ((usize, u32), Vec<(String, Value)>);

/// Edits applied by the structural rebuild: suppressed events, extra
/// writes, and the replacement message list.
#[derive(Debug, Default)]
struct Edits {
    /// Events whose original writes are dropped, as `(process, position)`.
    suppress: Vec<(usize, u32)>,
    /// Writes applied (after any surviving original writes) at an event.
    extra: Vec<ExtraWrites>,
    /// The full message list of the rebuilt computation, as
    /// `(send_process, send_position, recv_process, recv_position)`.
    messages: Vec<(usize, u32, usize, u32)>,
}

/// The writes of event `(p, pos)`: variables whose recorded value differs
/// from the predecessor event's.
fn delta_writes(comp: &Computation, p: ProcessId, pos: u32) -> Vec<(String, Value)> {
    let mut writes = Vec::new();
    for name in comp.var_names(p) {
        let var = comp.var(p, name).expect("listed name resolves");
        let now = comp.value_at(var, pos);
        if now != comp.value_at(var, pos - 1) {
            writes.push((name.to_owned(), now));
        }
    }
    writes
}

/// Rebuilds `comp` with the given structural edits, re-applying each
/// surviving event's original writes on top of the carried-forward state.
fn rebuild(comp: &Computation, edits: &Edits) -> Result<Computation, FaultError> {
    let n = comp.num_processes();
    let mut b = ComputationBuilder::new(n);
    for p in comp.processes() {
        let names: Vec<String> = comp.var_names(p).map(str::to_owned).collect();
        for name in names {
            let v = comp.var(p, &name).expect("listed name resolves");
            b.try_declare_var(p, &name, comp.value_at(v, 0))
                .map_err(FaultError::Build)?;
        }
    }
    for e in comp.events() {
        if comp.is_initial(e) {
            continue;
        }
        let p = comp.process_of(e);
        let pos = comp.position_of(e);
        let key = (p.as_usize(), pos);
        let ne = b.append_event(p);
        if !edits.suppress.contains(&key) {
            for (name, value) in delta_writes(comp, p, pos) {
                let var = b.var(p, &name).expect("declared above");
                b.assign(ne, var, value).map_err(FaultError::Build)?;
            }
        }
        for (k, writes) in &edits.extra {
            if *k == key {
                for (name, value) in writes {
                    let var = b.var(p, name).expect("declared above");
                    b.assign(ne, var, *value).map_err(FaultError::Build)?;
                }
            }
        }
        if let Some(l) = comp.label(e) {
            let l = l.to_owned();
            b.set_label(ne, &l);
        }
    }
    for &(sp, spos, rp, rpos) in &edits.messages {
        let send = b.event_at(ProcessId::new(sp), spos);
        let recv = b.event_at(ProcessId::new(rp), rpos);
        b.message(send, recv).map_err(FaultError::Build)?;
    }
    b.build().map_err(FaultError::Build)
}

/// The unedited message list of `comp` in [`Edits`] form.
fn message_list(comp: &Computation) -> Vec<(usize, u32, usize, u32)> {
    comp.messages()
        .iter()
        .map(|m| {
            (
                comp.process_of(m.send).as_usize(),
                comp.position_of(m.send),
                comp.process_of(m.recv).as_usize(),
                comp.position_of(m.recv),
            )
        })
        .collect()
}

fn check_msg_index(comp: &Computation, index: usize) -> Result<(), FaultError> {
    let count = comp.messages().len();
    if index >= count {
        return Err(FaultError::MessageOutOfRange { index, count });
    }
    Ok(())
}

/// Rebuilds `comp` with one fault of any [`FaultKind`] applied.
///
/// # Errors
///
/// Returns an error when the fault references an unknown variable, an
/// out-of-range position or message index, or a delivery that cannot be
/// moved later.
pub fn inject_kind(comp: &Computation, kind: &FaultKind) -> Result<Computation, FaultError> {
    if let FaultKind::Corrupt(spec) = kind {
        return inject(comp, spec);
    }
    slicing_observe::counter("sim.faults_injected", 1);
    slicing_observe::message(slicing_observe::Level::Debug, || format!("fault: {kind:?}"));
    let mut edits = Edits {
        messages: message_list(comp),
        ..Edits::default()
    };
    match *kind {
        FaultKind::Corrupt(_) => unreachable!("handled above"),
        FaultKind::DropMessage { msg_index } => {
            check_msg_index(comp, msg_index)?;
            let (_, _, rp, rpos) = edits.messages.remove(msg_index);
            edits.suppress.push((rp, rpos));
        }
        FaultKind::DuplicateMessage { msg_index, after } => {
            check_msg_index(comp, msg_index)?;
            let (sp, spos, rp, rpos) = edits.messages[msg_index];
            let last = comp.len(ProcessId::new(rp)) - 1;
            if rpos >= last {
                return Err(FaultError::NoLaterDelivery { index: msg_index });
            }
            let target = (rpos + after.max(1)).min(last);
            edits
                .extra
                .push(((rp, target), delta_writes(comp, ProcessId::new(rp), rpos)));
            edits.messages.push((sp, spos, rp, target));
        }
        FaultKind::DelayDelivery { msg_index, by } => {
            check_msg_index(comp, msg_index)?;
            let (sp, spos, rp, rpos) = edits.messages[msg_index];
            let last = comp.len(ProcessId::new(rp)) - 1;
            if rpos >= last {
                return Err(FaultError::NoLaterDelivery { index: msg_index });
            }
            let target = (rpos + by.max(1)).min(last);
            edits.messages[msg_index] = (sp, spos, rp, target);
            edits.suppress.push((rp, rpos));
            edits
                .extra
                .push(((rp, target), delta_writes(comp, ProcessId::new(rp), rpos)));
        }
        FaultKind::CrashStop { process, position } => {
            if position >= comp.len(process) {
                return Err(FaultError::PositionOutOfRange { process, position });
            }
            let p = process.as_usize();
            for pos in (position + 1)..comp.len(process) {
                edits.suppress.push((p, pos));
            }
            let mut kept = Vec::with_capacity(edits.messages.len());
            for &(sp, spos, rp, rpos) in &edits.messages {
                if sp == p && spos > position {
                    // A post-crash send never happened: its delivery is
                    // suppressed on the receiver.
                    edits.suppress.push((rp, rpos));
                    continue;
                }
                if rp == p && rpos > position {
                    // Deliveries to a crashed process vanish.
                    continue;
                }
                kept.push((sp, spos, rp, rpos));
            }
            edits.messages = kept;
        }
    }
    rebuild(comp, &edits)
}

/// Applies every fault of `plan` in order (a multi-fault burst).
///
/// # Errors
///
/// Fails on the first fault that does not apply; the error identifies the
/// same conditions as [`inject_kind`].
pub fn inject_plan(comp: &Computation, plan: &FaultPlan) -> Result<Computation, FaultError> {
    let mut current = comp.clone();
    for kind in &plan.faults {
        current = inject_kind(&current, kind)?;
    }
    Ok(current)
}

/// A chosen site applied: the faulty computation and its fault.
fn inject_at(comp: &Computation, site: Option<FaultSpec>) -> Option<(Computation, FaultSpec)> {
    let fault = site?;
    let faulty = inject(comp, &fault).expect("sites are valid positions");
    Some((faulty, fault))
}

/// Injects a transient "secondary dropped its role" fault into a
/// primary–secondary run: at a random event where some process is acting
/// as secondary, its `isSecondary` flag reads `false` — the classic bug
/// the paper's first experiment hunts.
///
/// Returns the faulty computation and the chosen fault, or `None` if the
/// run has no event at which any process is a secondary.
pub fn inject_primary_secondary_fault(
    comp: &Computation,
    seed: u64,
) -> Option<(Computation, FaultSpec)> {
    inject_at(comp, primary_secondary_site(comp, seed))
}

/// The site [`inject_primary_secondary_fault`] picks, by the same draws, not applied.
fn primary_secondary_site(comp: &Computation, seed: u64) -> Option<FaultSpec> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut candidates: Vec<(ProcessId, u32)> = Vec::new();
    for p in comp.processes() {
        let Some(var) = comp.var(p, "isSecondary") else {
            continue;
        };
        for pos in 1..comp.len(p) {
            if comp.value_at(var, pos).expect_bool() {
                candidates.push((p, pos));
            }
        }
    }
    if candidates.is_empty() {
        return None;
    }
    let (process, position) = candidates[rng.random_range(0..candidates.len())];
    Some(FaultSpec {
        process,
        position,
        var_name: "isSecondary".to_owned(),
        value: Value::Bool(false),
        transient: true,
    })
}

/// Injects a transient partition corruption into a database-partitioning
/// run: at a random event of a random holder, its `partition` variable
/// reads a value nobody proposed.
///
/// Returns `None` if the computation has no holder events.
pub fn inject_database_fault(comp: &Computation, seed: u64) -> Option<(Computation, FaultSpec)> {
    inject_at(comp, database_site(comp, seed))
}

/// The site [`inject_database_fault`] picks, by the same draws, not applied.
fn database_site(comp: &Computation, seed: u64) -> Option<FaultSpec> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut candidates: Vec<(ProcessId, u32)> = Vec::new();
    for p in comp.processes() {
        if comp.var(p, "partition").is_none() {
            continue;
        }
        for pos in 1..comp.len(p) {
            candidates.push((p, pos));
        }
    }
    if candidates.is_empty() {
        return None;
    }
    let (process, position) = candidates[rng.random_range(0..candidates.len())];
    Some(FaultSpec {
        process,
        position,
        var_name: "partition".to_owned(),
        value: Value::Int(-1),
        transient: true,
    })
}

/// Injects a transient over-acknowledgement into a leader-election run: at
/// a random event where some process knows a leader, its `acked` log count
/// reads an impossible value — a log-matching violation against any
/// leader's actual log.
///
/// Returns `None` if no process ever follows a leader.
pub fn inject_leader_election_fault(
    comp: &Computation,
    seed: u64,
) -> Option<(Computation, FaultSpec)> {
    inject_at(comp, leader_election_site(comp, seed))
}

/// The site [`inject_leader_election_fault`] picks, by the same draws, not applied.
fn leader_election_site(comp: &Computation, seed: u64) -> Option<FaultSpec> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut candidates: Vec<(ProcessId, u32)> = Vec::new();
    for p in comp.processes() {
        let (Some(leader), Some(_)) = (comp.var(p, "leader"), comp.var(p, "acked")) else {
            continue;
        };
        for pos in 1..comp.len(p) {
            if comp.value_at(leader, pos).expect_int() >= 0 {
                candidates.push((p, pos));
            }
        }
    }
    if candidates.is_empty() {
        return None;
    }
    let (process, position) = candidates[rng.random_range(0..candidates.len())];
    Some(FaultSpec {
        process,
        position,
        var_name: "acked".to_owned(),
        value: Value::Int(999),
        transient: true,
    })
}

/// Injects a transient sum corruption into a CRDT-replication run: at a
/// random event of a random replica, its `sum` reads a value no op
/// sequence could produce — breaking both the divergence bound and the
/// replica's local delta arithmetic.
///
/// Returns `None` if no replica has events.
pub fn inject_crdt_fault(comp: &Computation, seed: u64) -> Option<(Computation, FaultSpec)> {
    inject_at(comp, crdt_site(comp, seed))
}

/// The site [`inject_crdt_fault`] picks, by the same draws, not applied.
fn crdt_site(comp: &Computation, seed: u64) -> Option<FaultSpec> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut candidates: Vec<(ProcessId, u32)> = Vec::new();
    for p in comp.processes() {
        if comp.var(p, "sum").is_none() || comp.var(p, "ops").is_none() {
            continue;
        }
        for pos in 1..comp.len(p) {
            candidates.push((p, pos));
        }
    }
    if candidates.is_empty() {
        return None;
    }
    let (process, position) = candidates[rng.random_range(0..candidates.len())];
    Some(FaultSpec {
        process,
        position,
        var_name: "sum".to_owned(),
        value: Value::Int(999),
        transient: true,
    })
}

/// Injects a transient enqueue-counter corruption into a work-queue run:
/// at a random broker event, the broker's total `enq` reads `-1`, which no
/// dominance relation survives (`hand ≥ 0 > enq` and `enq ≠ Σ enq_i`).
///
/// Note the *monotone* per-producer and per-consumer counters are left
/// untouched: the co-regular leaves of the violation spec stay sound on
/// the corrupted run.
///
/// Returns `None` if the run is not a work-queue run or the broker never
/// acted.
pub fn inject_work_queue_fault(comp: &Computation, seed: u64) -> Option<(Computation, FaultSpec)> {
    inject_at(comp, work_queue_site(comp, seed))
}

/// The site [`inject_work_queue_fault`] picks, by the same draws, not applied.
fn work_queue_site(comp: &Computation, seed: u64) -> Option<FaultSpec> {
    let mut rng = StdRng::seed_from_u64(seed);
    let broker = comp.processes().next()?;
    comp.var(broker, "enq")?;
    comp.var(broker, "hand")?;
    if comp.len(broker) < 2 {
        return None;
    }
    let position = rng.random_range(1..comp.len(broker));
    Some(FaultSpec {
        process: broker,
        position,
        var_name: "enq".to_owned(),
        value: Value::Int(-1),
        transient: true,
    })
}

/// Picks a representative injectable fault of the named `kind`
/// (`corrupt`, `drop-message`, `duplicate-message`, `delay-delivery`,
/// `crash-stop`, or `burst` for a corrupt+drop pair) for a recorded
/// protocol run. Coordinates are derived from `seed`, so equal inputs
/// yield equal plans. Returns `None` when the run offers no injection
/// site of that kind (e.g. a message fault on a message-free run) or the
/// kind is unknown.
///
/// Used by the `slicing recover` CLI, the `table_recovery` bench, and the
/// CI recovery soak, which all need "some fault of kind K that this run
/// can absorb" without hand-picking coordinates.
pub fn sample_fault_plan(comp: &Computation, kind: &str, seed: u64) -> Option<FaultPlan> {
    let corrupt = |seed| {
        [
            primary_secondary_site,
            database_site,
            leader_election_site,
            crdt_site,
            work_queue_site,
        ]
        .iter()
        .find_map(|site| site(comp, seed))
        .map(FaultKind::Corrupt)
    };
    let msg_index = |seed: u64| {
        let count = comp.messages().len();
        (count > 0).then(|| (seed as usize) % count)
    };
    let kinds = match kind {
        "corrupt" => vec![corrupt(seed)?],
        "drop-message" => vec![FaultKind::DropMessage {
            msg_index: msg_index(seed)?,
        }],
        "duplicate-message" => vec![FaultKind::DuplicateMessage {
            msg_index: msg_index(seed)?,
            after: 1 + (seed % 3) as u32,
        }],
        "delay-delivery" => vec![FaultKind::DelayDelivery {
            msg_index: msg_index(seed)?,
            by: 1 + (seed % 3) as u32,
        }],
        "crash-stop" => {
            let candidates: Vec<ProcessId> =
                comp.processes().filter(|&p| comp.len(p) >= 3).collect();
            let process = *candidates.get(seed as usize % candidates.len().max(1))?;
            vec![FaultKind::CrashStop {
                process,
                position: comp.len(process) / 2,
            }]
        }
        "burst" => {
            let mut faults = vec![corrupt(seed)?];
            if let Some(msg_index) = msg_index(seed.wrapping_add(1)) {
                faults.push(FaultKind::DropMessage { msg_index });
            }
            faults
        }
        _ => return None,
    };
    Some(FaultPlan::new(kinds))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primary_secondary::{self, PrimarySecondary};
    use crate::runtime::{run, SimConfig};
    use slicing_computation::lattice::for_each_cut;
    use slicing_computation::GlobalState;
    use slicing_predicates::Predicate;

    fn ps_run(seed: u64) -> Computation {
        let cfg = SimConfig {
            seed,
            max_events_per_process: 8,
            ..SimConfig::default()
        };
        run(&mut PrimarySecondary::new(3), &cfg).unwrap()
    }

    #[test]
    fn transient_fault_changes_exactly_one_snapshot() {
        let comp = ps_run(1);
        let p = comp.process(1);
        let fault = FaultSpec {
            process: p,
            position: 2,
            var_name: "work".to_owned(),
            value: Value::Int(999),
            transient: true,
        };
        let faulty = inject(&comp, &fault).unwrap();
        let orig = comp.var(p, "work").unwrap();
        let new = faulty.var(p, "work").unwrap();
        for pos in 0..comp.len(p) {
            let want = if pos == 2 {
                Value::Int(999)
            } else {
                comp.value_at(orig, pos)
            };
            assert_eq!(faulty.value_at(new, pos), want, "pos {pos}");
        }
        // Structure unchanged.
        assert_eq!(faulty.num_events(), comp.num_events());
        assert_eq!(faulty.messages(), comp.messages());
    }

    #[test]
    fn persistent_fault_sticks_until_next_write() {
        let comp = ps_run(2);
        let p = comp.process(2);
        let orig = comp.var(p, "work").unwrap();
        // `work` increments on every work event, so a persistent fault is
        // overwritten at the next work event; `isSecondary` is rarely
        // written, so corrupt that instead.
        let var = comp.var(p, "isSecondary").unwrap();
        let fault = FaultSpec {
            process: p,
            position: 1,
            var_name: "isSecondary".to_owned(),
            value: Value::Bool(true),
            transient: false,
        };
        let faulty = inject(&comp, &fault).unwrap();
        let fvar = faulty.var(p, "isSecondary").unwrap();
        // Corruption persists while the original carried the value
        // forward.
        let mut pos = 1;
        while pos < comp.len(p)
            && (pos == 1 || comp.value_at(var, pos) == comp.value_at(var, pos - 1))
        {
            assert_eq!(faulty.value_at(fvar, pos), Value::Bool(true), "pos {pos}");
            pos += 1;
        }
        let _ = orig;
    }

    #[test]
    fn ps_fault_creates_detectable_violation_for_some_seed() {
        // Random injection does not guarantee a violating cut, but across
        // a handful of seeds at least one must appear.
        let comp = ps_run(3);
        let mut any = false;
        for fseed in 0..10 {
            let Some((faulty, _)) = inject_primary_secondary_fault(&comp, fseed) else {
                continue;
            };
            let inv = primary_secondary::invariant(&faulty);
            let mut violated = false;
            for_each_cut(&faulty, |cut| {
                if !inv.eval(&GlobalState::new(&faulty, cut)) {
                    violated = true;
                    return false;
                }
                true
            });
            if violated {
                any = true;
                break;
            }
        }
        assert!(any, "no fault seed produced a violating cut");
    }

    #[test]
    fn database_fault_injects() {
        use crate::database::DatabasePartitioning;
        let cfg = SimConfig {
            seed: 4,
            max_events_per_process: 8,
            ..SimConfig::default()
        };
        let comp = run(&mut DatabasePartitioning::new(4), &cfg).unwrap();
        let (faulty, fault) = inject_database_fault(&comp, 1).unwrap();
        assert_eq!(fault.var_name, "partition");
        assert_eq!(faulty.num_events(), comp.num_events());
    }

    /// First seed whose run records at least one message.
    fn ps_run_with_messages(from_seed: u64) -> Computation {
        (from_seed..from_seed + 20)
            .map(ps_run)
            .find(|c| !c.messages().is_empty())
            .expect("some seed produces messages")
    }

    #[test]
    fn drop_message_suppresses_the_receive_writes() {
        let comp = ps_run_with_messages(1);
        let idx = 0;
        let m = comp.messages()[idx];
        let (rp, rpos) = (comp.process_of(m.recv), comp.position_of(m.recv));
        let faulty = inject_kind(&comp, &FaultKind::DropMessage { msg_index: idx }).unwrap();
        assert_eq!(faulty.messages().len(), comp.messages().len() - 1);
        assert_eq!(faulty.num_events(), comp.num_events());
        // The receive event carries its predecessor's values now.
        for name in comp.var_names(rp) {
            let var = faulty.var(rp, name).unwrap();
            assert_eq!(
                faulty.value_at(var, rpos),
                faulty.value_at(var, rpos - 1),
                "{name} written at a dropped delivery"
            );
        }
    }

    #[test]
    fn duplicate_message_reapplies_writes_later() {
        let comp = ps_run_with_messages(2);
        // Find a message whose receive has a later event and real writes.
        let idx = (0..comp.messages().len())
            .find(|&i| {
                let m = comp.messages()[i];
                let rp = comp.process_of(m.recv);
                let rpos = comp.position_of(m.recv);
                rpos + 1 < comp.len(rp) && !delta_writes(&comp, rp, rpos).is_empty()
            })
            .expect("some deliverable message exists");
        let m = comp.messages()[idx];
        let (rp, rpos) = (comp.process_of(m.recv), comp.position_of(m.recv));
        let faulty = inject_kind(
            &comp,
            &FaultKind::DuplicateMessage {
                msg_index: idx,
                after: 1,
            },
        )
        .unwrap();
        assert_eq!(faulty.messages().len(), comp.messages().len() + 1);
        // The duplicate's writes landed at the next event.
        let (name, value) = delta_writes(&comp, rp, rpos)[0].clone();
        let var = faulty.var(rp, &name).unwrap();
        assert_eq!(faulty.value_at(var, rpos + 1), value);
    }

    #[test]
    fn delay_delivery_moves_edge_and_writes() {
        let comp = ps_run_with_messages(3);
        let idx = (0..comp.messages().len())
            .find(|&i| {
                let m = comp.messages()[i];
                comp.position_of(m.recv) + 1 < comp.len(comp.process_of(m.recv))
            })
            .expect("some delayable message exists");
        let m = comp.messages()[idx];
        let (rp, rpos) = (comp.process_of(m.recv), comp.position_of(m.recv));
        let faulty = inject_kind(
            &comp,
            &FaultKind::DelayDelivery {
                msg_index: idx,
                by: 1,
            },
        )
        .unwrap();
        assert_eq!(faulty.messages().len(), comp.messages().len());
        // The moved edge now targets a strictly later position on rp.
        let moved = faulty
            .messages()
            .iter()
            .find(|fm| faulty.process_of(fm.recv) == rp && faulty.position_of(fm.recv) == rpos + 1)
            .expect("delayed delivery edge present");
        assert_eq!(faulty.process_of(moved.send), comp.process_of(m.send));
    }

    #[test]
    fn crash_stop_silences_the_process() {
        let comp = ps_run(4);
        let p = comp.process(1);
        let crash_at = 2;
        assert!(comp.len(p) > crash_at + 1, "run long enough to crash");
        let faulty = inject_kind(
            &comp,
            &FaultKind::CrashStop {
                process: p,
                position: crash_at,
            },
        )
        .unwrap();
        // No variable of p changes after the crash.
        for name in comp.var_names(p) {
            let var = faulty.var(p, name).unwrap();
            for pos in (crash_at + 1)..faulty.len(p) {
                assert_eq!(
                    faulty.value_at(var, pos),
                    faulty.value_at(var, crash_at),
                    "{name} changed after crash"
                );
            }
        }
        // No message endpoint touches p after the crash.
        for fm in faulty.messages() {
            for (e, _) in [(fm.send, "send"), (fm.recv, "recv")] {
                if faulty.process_of(e) == p {
                    assert!(faulty.position_of(e) <= crash_at);
                }
            }
        }
    }

    #[test]
    fn fault_plan_applies_in_order_and_is_deterministic() {
        let comp = ps_run_with_messages(5);
        let plan = FaultPlan::new(vec![
            FaultKind::DropMessage { msg_index: 0 },
            FaultKind::Corrupt(FaultSpec {
                process: comp.process(1),
                position: 1,
                var_name: "work".to_owned(),
                value: Value::Int(77),
                transient: true,
            }),
        ]);
        let a = inject_plan(&comp, &plan).unwrap();
        let b = inject_plan(&comp, &plan).unwrap();
        assert_eq!(
            slicing_computation::trace::to_text(&a),
            slicing_computation::trace::to_text(&b)
        );
        let var = a.var(comp.process(1), "work").unwrap();
        assert_eq!(a.value_at(var, 1), Value::Int(77));
        assert_eq!(a.messages().len(), comp.messages().len() - 1);
    }

    #[test]
    fn kind_errors_are_reported_not_panicked() {
        let comp = ps_run(6);
        let count = comp.messages().len();
        let err = inject_kind(&comp, &FaultKind::DropMessage { msg_index: count }).unwrap_err();
        assert!(matches!(err, FaultError::MessageOutOfRange { .. }));
        assert!(err.to_string().contains("out of range"));
        let err: String = inject_kind(
            &comp,
            &FaultKind::CrashStop {
                process: comp.process(0),
                position: 10_000,
            },
        )
        .unwrap_err()
        .into();
        assert!(err.contains("out of range"));
    }

    #[test]
    fn errors_on_bad_fault_specs() {
        let comp = ps_run(5);
        let bad_var = FaultSpec {
            process: comp.process(0),
            position: 1,
            var_name: "nope".to_owned(),
            value: Value::Int(0),
            transient: true,
        };
        assert!(matches!(
            inject(&comp, &bad_var),
            Err(FaultError::UnknownVariable { .. })
        ));
        let bad_pos = FaultSpec {
            process: comp.process(0),
            position: 10_000,
            var_name: "work".to_owned(),
            value: Value::Int(0),
            transient: true,
        };
        let err = inject(&comp, &bad_pos).unwrap_err();
        assert!(err.to_string().contains("out of range"));
    }
}
