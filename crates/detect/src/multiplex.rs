//! Predicate multiplexing: many conjunctive predicates, one event stream.
//!
//! [`MonitorHub`] is the one online-monitor engine: a production monitor
//! watches thousands of expressions (per-user alerts, per-shard
//! invariants) over the same firehose, and a single watched predicate —
//! [`OnlineMonitor`](crate::OnlineMonitor) — is the hub with one tenant.
//! Running one engine per predicate would repeat all the shared work:
//! re-timing the same clocks, re-evaluating the same local clauses, and
//! re-storing the same candidate events. The hub factors that sharing out,
//! exploiting the same structure the grafting algebra does (a
//! conjunction's slice is the edge-union of its conjuncts' slices, keyed
//! by [`GraftKey`]):
//!
//! - **one** [`OnlineSlicer`] keeps vector clocks, messages, and the
//!   stability-GC machinery for every tenant;
//! - each **distinct clause** (process + label) is evaluated once per
//!   event, however many tenants reference it;
//! - clauses of one predicate on one process form a **slot** — a shared,
//!   append-only stream of candidate positions keyed by [`GraftKey`], so
//!   tenants watching the same per-process conjunct bundle share storage;
//! - each **group** (distinct predicate) runs the Garg–Waldecker
//!   candidate-elimination settle over its slots' streams with a private
//!   cursor per slot. Settling is event-driven: a group is queued for the
//!   next check only when one of its cursor heads moves or a late message
//!   grows the clock of one of its heads
//!   ([`OnlineSlicer::retimed`]), and the settle re-examines only those
//!   heads. Each candidate is eliminated at most once ever, so the
//!   per-event check cost is amortized `O(1)` — independent of the
//!   history length and of the groups nothing touched — and the steady
//!   state allocates no cut storage;
//! - **tenants** map onto groups; N tenants watching the same predicate
//!   cost one group. Alarms fan out over bounded channels that drop
//!   laggards rather than ever blocking ingestion.
//!
//! # Examples
//!
//! ```
//! use slicing_computation::Value;
//! use slicing_detect::MonitorHub;
//! use slicing_predicates::{Conjunctive, LocalPredicate};
//!
//! let mut hub = MonitorHub::new(2);
//! let a = hub.declare_var(0, "x", Value::Int(0))?;
//! let b = hub.declare_var(1, "x", Value::Int(0))?;
//! let pred = |a, b| {
//!     Conjunctive::new(vec![
//!         LocalPredicate::int(a, "x@0 > 0", |v| v > 0),
//!         LocalPredicate::int(b, "x@1 > 0", |v| v > 0),
//!     ])
//! };
//! hub.add_tenant("alice", &pred(a, b), "x@0 > 0 && x@1 > 0")?;
//! hub.add_tenant("bob", &pred(a, b), "x@0 > 0 && x@1 > 0")?; // shares everything
//! assert_eq!(hub.group_count(), 1);
//!
//! hub.observe(0, &[(a, Value::Int(1))])?;
//! hub.observe(1, &[(b, Value::Int(2))])?;
//! let alarms = hub.check_all();
//! assert_eq!(alarms.len(), 1); // one distinct predicate fired ...
//! assert_eq!(alarms[0].tenants.len(), 2); // ... for both tenants
//! # Ok::<(), slicing_computation::BuildError>(())
//! ```

use std::collections::{HashMap, VecDeque};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Arc;

use slicing_computation::{BuildError, Computation, Cut, EventId, ProcessId, Value, VarRef};
use slicing_core::{GraftKey, OnlineSlicer, SlicerState};
use slicing_predicates::{Conjunctive, LocalPredicate};

/// Configuration for causal-stability garbage collection; see
/// [`MonitorHub::with_gc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcConfig {
    /// Always keep at least the last `lag` positions of every process,
    /// even when stability would allow dropping more — headroom for
    /// protocols whose message-lateness bound is known. Must exceed the
    /// maximum lateness (in positions) of any message the stream will
    /// deliver, or very late messages are rejected with
    /// [`BuildError::CompactedEvent`].
    pub lag: u32,
    /// Run a compaction every `every` observed events; must be positive.
    pub every: u64,
}

impl Default for GcConfig {
    /// A conservative default: keep the last 128 positions per process,
    /// compact every 1024 events.
    fn default() -> Self {
        GcConfig {
            lag: 128,
            every: 1024,
        }
    }
}

/// Deterministic counters describing a hub's work so far — pure event and
/// probe counts, no wall-clock, so the numbers gate CI. The headline claim
/// is that `events + clause_evals + check_cost` grows **sublinearly** in
/// tenant count when predicates overlap, versus the linear sum of
/// independent monitors.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HubStats {
    /// Events observed (excluding the fictitious initial events).
    pub events: u64,
    /// Messages recorded.
    pub messages: u64,
    /// Calls to [`MonitorHub::check_all`].
    pub checks: u64,
    /// Distinct alarms reported, summed over groups.
    pub alarms: u64,
    /// Total settle work (candidate-pair probes + alarm joins), summed
    /// over all groups and checks.
    pub check_cost: u64,
    /// Distinct local-clause evaluations. Each (process, label) clause is
    /// evaluated at most once per event, however many tenants use it.
    pub clause_evals: u64,
    /// Candidate positions appended to slot streams (each is shared by
    /// every group referencing the slot).
    pub delta_cuts: u64,
    /// Peak number of candidate positions stored across all slots.
    pub peak_candidates: u64,
    /// Garbage collections that actually reclaimed storage.
    pub compactions: u64,
    /// Events whose storage stability GC reclaimed.
    pub dropped_events: u64,
    /// Peak retained-event gauge observed across GC runs.
    pub retained_peak: u64,
    /// Alarms delivered into subscriber channels.
    pub fanout_sent: u64,
    /// Alarms dropped because a subscriber's channel was full — the
    /// laggard-degradation path (`serve.tenants.dropped`). Ingestion never
    /// blocks on a slow consumer.
    pub fanout_dropped: u64,
}

/// An alarm as fanned out to subscribers: one [`Arc`]'d instance per
/// distinct (group, cut), shared by every tenant channel it lands in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HubAlarm {
    /// The predicate source the alarming group was registered under.
    pub predicate: String,
    /// The least consistent cut satisfying every conjunct.
    pub cut: Cut,
    /// Hub events observed when the alarm settled.
    pub events: u64,
}

/// A newly settled alarm returned by [`MonitorHub::check_all`], with the
/// tenants it applies to.
#[derive(Debug, Clone)]
pub struct AlarmReport {
    /// The alarming group (pass to [`MonitorHub::acknowledge`]).
    pub group: u32,
    /// Tenant ids subscribed to the group, in registration order.
    pub tenants: Vec<String>,
    /// The shared alarm payload.
    pub alarm: Arc<HubAlarm>,
}

/// One distinct local clause, identified by (process, label). The closure
/// is absent between [`MonitorHub::from_state`] and the
/// [`restore_tenant`](MonitorHub::restore_tenant) call that re-registers
/// it.
#[derive(Debug)]
struct Clause {
    process: usize,
    label: String,
    pred: Option<LocalPredicate>,
    /// Memo: the event generation `truth` was computed for.
    gen: u64,
    truth: bool,
}

/// A shared per-process conjunct bundle: the append-only stream of
/// positions where every clause of the bundle held. Groups keep private
/// cursors (absolute indices) into the stream; `start` counts candidates
/// trimmed from the front once no cursor can reach them.
#[derive(Debug)]
struct Slot {
    key: GraftKey,
    process: usize,
    clauses: Vec<u32>,
    start: u64,
    candidates: VecDeque<u32>,
    /// Groups referencing this slot.
    refs: Vec<u32>,
    alive: bool,
}

impl Slot {
    fn total(&self) -> u64 {
        self.start + self.candidates.len() as u64
    }
}

/// One distinct predicate: per-slot cursors plus its settle state.
#[derive(Debug)]
struct Group {
    key: GraftKey,
    source: String,
    /// Per process: the slot watched there, if any.
    slot_of: Vec<Option<u32>>,
    /// Per process: absolute cursor into the slot's candidate stream.
    fronts: Vec<u64>,
    /// Per process: whether the head has yet to be checked against every
    /// other head — it moved, or a late message grew its clock, since it
    /// last was. Always `false` where the group watches nothing.
    dirty: Vec<bool>,
    /// Whether the group needs a settle: some head moved or was re-timed
    /// since the last one. Exactly the active groups with this set are in
    /// the hub's queue.
    dirty_any: bool,
    /// The settled verdict: the least satisfying cut so far, if any.
    current_alarm: Option<Cut>,
    /// The last reported alarm; each distinct alarm is reported once.
    last_alarm: Option<Cut>,
    check_cost: u64,
    alarms: u64,
    tenants: Vec<String>,
    subscribers: Vec<(String, SyncSender<Arc<HubAlarm>>)>,
    active: bool,
}

impl Group {
    /// Marks the head on `process` as needing a check. Returns `true` when
    /// the group was clean, i.e. when the caller must queue it.
    fn touch(&mut self, process: usize) -> bool {
        self.dirty[process] = true;
        !std::mem::replace(&mut self.dirty_any, true)
    }
}

struct TenantInfo {
    group: u32,
    source: String,
}

/// A multi-tenant online monitor: thousands of conjunctive predicates over
/// one event stream, sharing clocks, clause evaluations, and candidate
/// storage. The module-level comment describes the sharing model;
/// [`MonitorHub::check_all`] states the alarm contract.
pub struct MonitorHub {
    slicer: OnlineSlicer,
    /// Current value of every declared variable, `values[p][var.index()]`
    /// — the mirror distinct clauses are evaluated against (once per
    /// event, not once per tenant).
    values: Vec<Vec<Value>>,
    clauses: Vec<Clause>,
    clause_index: HashMap<(usize, String), u32>,
    slots: Vec<Slot>,
    slot_index: HashMap<GraftKey, u32>,
    slots_by_proc: Vec<Vec<u32>>,
    groups: Vec<Group>,
    group_index: HashMap<GraftKey, u32>,
    /// Groups the next [`check_all`](MonitorHub::check_all) must visit:
    /// each group is pushed when it turns dirty, so a clean check is
    /// `O(1)` however many groups there are.
    queued: Vec<u32>,
    tenants: HashMap<String, TenantInfo>,
    alarm_scratch: Cut,
    values_scratch: Vec<Value>,
    /// Candidate positions currently stored across live slots (running
    /// counter backing `stats.peak_candidates`).
    live_candidates: u64,
    stats: HubStats,
    gc: Option<GcConfig>,
    since_gc: u64,
}

/// A serializable snapshot of one slot; see [`HubState`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotState {
    /// Owning process.
    pub process: u32,
    /// Clause ids (indices into [`HubState::clauses`]).
    pub clauses: Vec<u32>,
    /// Candidates trimmed from the front of the stream.
    pub start: u64,
    /// Live candidate positions (absolute, strictly increasing).
    pub candidates: Vec<u32>,
}

/// A serializable snapshot of one group; see [`HubState`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupState {
    /// Representative predicate source (alarm display).
    pub source: String,
    /// Slot ids (indices into [`HubState::slots`]), at most one per
    /// process.
    pub slots: Vec<u32>,
    /// Absolute cursor per slot, aligned with `slots`.
    pub fronts: Vec<u64>,
    /// Per process: the head has yet to be compared with every other
    /// head (`false` where the group watches nothing).
    pub dirty: Vec<bool>,
    /// The group awaits a settle: a head moved or was re-timed since the
    /// last one.
    pub dirty_any: bool,
    /// Settled verdict, absolute counts.
    pub current_alarm: Option<Vec<u32>>,
    /// Last reported alarm, for dedup.
    pub last_alarm: Option<Vec<u32>>,
    /// Settle work accumulated by this group.
    pub check_cost: u64,
    /// Distinct alarms this group reported.
    pub alarms: u64,
}

/// A serializable snapshot of one tenant registration; see [`HubState`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantState {
    /// Tenant id.
    pub id: String,
    /// Group id (index into [`HubState::groups`]).
    pub group: u32,
    /// The predicate source to re-parse on resume.
    pub source: String,
}

/// A serializable snapshot of a [`MonitorHub`] — everything but the clause
/// closures, which [`restore_tenant`](MonitorHub::restore_tenant)
/// re-registers. The JSON codec lives in
/// [`checkpoint`](crate::checkpoint).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HubState {
    /// The underlying slicer's retained state.
    pub slicer: SlicerState,
    /// Current variable values, `values[p][index]`.
    pub values: Vec<Vec<Value>>,
    /// Distinct clauses as (process, label); closures restored separately.
    pub clauses: Vec<(u32, String)>,
    /// Live slots.
    pub slots: Vec<SlotState>,
    /// Live groups.
    pub groups: Vec<GroupState>,
    /// Tenant registrations.
    pub tenants: Vec<TenantState>,
    /// Deterministic work counters.
    pub stats: HubStats,
    /// Stability GC configuration, if enabled.
    pub gc: Option<GcConfig>,
    /// Events observed since the last GC run.
    pub since_gc: u64,
}

fn invalid(detail: String) -> BuildError {
    BuildError::InvalidState { detail }
}

impl MonitorHub {
    /// Creates a hub over `num_processes` processes.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`OnlineSlicer::new`].
    pub fn new(num_processes: usize) -> Self {
        MonitorHub {
            slicer: OnlineSlicer::new(num_processes),
            values: vec![Vec::new(); num_processes],
            clauses: Vec::new(),
            clause_index: HashMap::new(),
            slots: Vec::new(),
            slot_index: HashMap::new(),
            slots_by_proc: vec![Vec::new(); num_processes],
            groups: Vec::new(),
            group_index: HashMap::new(),
            queued: Vec::new(),
            tenants: HashMap::new(),
            alarm_scratch: Cut::bottom(num_processes),
            values_scratch: Vec::new(),
            live_candidates: 0,
            stats: HubStats::default(),
            gc: None,
            since_gc: 0,
        }
    }

    /// Enables causal-stability garbage collection: every
    /// [`GcConfig::every`] events the hub trims candidates no cursor can
    /// reach and compacts the slicer below the stability frontier (capped
    /// by [`GcConfig::lag`] and by the oldest live candidate on each
    /// process), keeping live state proportional to the unstable suffix
    /// instead of the full history. Compaction never changes verdicts,
    /// alarms, or deterministic counters other than the GC counters.
    ///
    /// # Panics
    ///
    /// Panics if `config.every` is zero.
    pub fn with_gc(mut self, config: GcConfig) -> Self {
        assert!(config.every > 0, "GC cadence must be positive");
        self.gc = Some(config);
        self
    }

    /// The configured GC, if any.
    pub fn gc_config(&self) -> Option<GcConfig> {
        self.gc
    }

    /// Declares a monitored variable (before its process's first event).
    ///
    /// # Errors
    ///
    /// Propagates [`BuildError`]s from the underlying slicer.
    pub fn declare_var(
        &mut self,
        process: usize,
        name: &str,
        initial: Value,
    ) -> Result<VarRef, BuildError> {
        let var = self.slicer.declare_var(process, name, initial)?;
        debug_assert_eq!(var.index(), self.values[process].len());
        self.values[process].push(initial);
        Ok(var)
    }

    /// Number of processes in the stream.
    pub fn num_processes(&self) -> usize {
        self.slicer.num_processes()
    }

    /// Looks up a declared variable by process and name.
    pub fn var(&self, process: usize, name: &str) -> Option<VarRef> {
        self.slicer.var(process, name)
    }

    /// Events observed on `process` so far, including the initial event.
    pub fn events_on(&self, process: usize) -> u32 {
        self.slicer.events_on(process)
    }

    /// The event at `pos` on `process`, or `None` if out of range or
    /// compacted away — the handle late message delivery needs.
    pub fn event_at(&self, process: usize, pos: u32) -> Option<EventId> {
        self.slicer.retained_event_at(process, pos)
    }

    /// Events whose storage is currently retained by the slicer.
    pub fn retained_events(&self) -> u64 {
        self.slicer.retained_events()
    }

    /// Deterministic work counters accumulated so far.
    pub fn stats(&self) -> HubStats {
        self.stats
    }

    /// The computation observed so far (the retained suffix once GC has
    /// compacted).
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::CyclicOrder`] if observed messages formed a
    /// cycle (unreachable for histories assembled through this hub).
    pub fn history(&self) -> Result<Computation, BuildError> {
        self.slicer.snapshot_computation()
    }

    /// The slicer's causal-stability frontier; see
    /// [`OnlineSlicer::stable_frontier`].
    pub fn stable_frontier(&self) -> Vec<u32> {
        self.slicer.stable_frontier()
    }

    /// The name a variable was declared under.
    pub(crate) fn var_name(&self, var: VarRef) -> &str {
        self.slicer.var_name(var)
    }

    /// The current value of a declared variable.
    pub(crate) fn value(&self, var: VarRef) -> Option<Value> {
        self.values
            .get(var.process().as_usize())?
            .get(var.index())
            .copied()
    }

    /// Registered tenants.
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// Live groups (distinct predicates).
    pub fn group_count(&self) -> usize {
        self.groups.iter().filter(|g| g.active).count()
    }

    /// Live slots (shared per-process conjunct bundles).
    pub fn slot_count(&self) -> usize {
        self.slots.iter().filter(|s| s.alive).count()
    }

    /// Distinct clauses ever registered.
    pub fn clause_count(&self) -> usize {
        self.clauses.len()
    }

    /// Tenant ids in arbitrary order.
    pub fn tenant_ids(&self) -> Vec<String> {
        self.tenants.keys().cloned().collect()
    }

    /// The group a tenant maps to, if registered.
    pub fn group_of(&self, tenant: &str) -> Option<u32> {
        self.tenants.get(tenant).map(|t| t.group)
    }

    /// A group's accumulated settle work (for differential pinning against
    /// standalone monitors).
    pub fn group_check_cost(&self, group: u32) -> Option<u64> {
        self.groups.get(group as usize).map(|g| g.check_cost)
    }

    /// A group's currently settled alarm cut, if any.
    pub fn group_alarm(&self, group: u32) -> Option<&Cut> {
        self.groups
            .get(group as usize)
            .and_then(|g| g.current_alarm.as_ref())
    }

    fn clause_id(&mut self, clause: &LocalPredicate) -> Result<u32, BuildError> {
        let p = clause.process().as_usize();
        if p >= self.values.len() {
            return Err(invalid(format!(
                "clause '{}' targets process {p} of a {}-process hub",
                clause.label(),
                self.values.len()
            )));
        }
        for &v in clause.vars() {
            if v.process().as_usize() != p {
                return Err(invalid(format!(
                    "clause '{}' reads a variable of another process",
                    clause.label()
                )));
            }
            if v.index() >= self.values[p].len() {
                return Err(invalid(format!(
                    "clause '{}' reads an undeclared variable of process {p}",
                    clause.label()
                )));
            }
        }
        let key = (p, clause.label().to_owned());
        if let Some(&id) = self.clause_index.get(&key) {
            // Same (process, label) ⇒ same clause; refresh the closure in
            // case this id was left hollow by a restore.
            if self.clauses[id as usize].pred.is_none() {
                self.clauses[id as usize].pred = Some(clause.clone());
            }
            return Ok(id);
        }
        let id = self.clauses.len() as u32;
        self.clauses.push(Clause {
            process: p,
            label: clause.label().to_owned(),
            pred: Some(clause.clone()),
            gen: 0,
            truth: false,
        });
        self.clause_index.insert(key, id);
        Ok(id)
    }

    /// Evaluates a distinct clause against the current value mirror, at
    /// most once per event generation.
    fn clause_truth(&mut self, cid: u32, gen: u64) -> Result<bool, BuildError> {
        let clause = &self.clauses[cid as usize];
        if clause.gen == gen {
            return Ok(clause.truth);
        }
        let mut scratch = std::mem::take(&mut self.values_scratch);
        scratch.clear();
        let truth = {
            let clause = &self.clauses[cid as usize];
            match clause.pred.as_ref() {
                None => Err(invalid(format!(
                    "clause '{}' has no closure (incomplete restore)",
                    clause.label
                ))),
                Some(pred) => {
                    for &v in pred.vars() {
                        scratch.push(self.values[clause.process][v.index()]);
                    }
                    Ok(pred.eval_values(&scratch))
                }
            }
        };
        self.values_scratch = scratch;
        let truth = truth?;
        self.stats.clause_evals += 1;
        slicing_observe::counter("serve.clause_evals", 1);
        let clause = &mut self.clauses[cid as usize];
        clause.gen = gen;
        clause.truth = truth;
        Ok(truth)
    }

    /// Registers (or replaces) a tenant watching a conjunctive predicate.
    /// `source` is the expression text, kept for alarm display and
    /// checkpoint resume. Tenants watching structurally equal predicates
    /// (same clause labels per process) share one group; overlapping
    /// per-process conjunct bundles share slots.
    ///
    /// A tenant added mid-stream starts watching from the current frontier
    /// (join-cut semantics): its candidate streams begin at the events
    /// being observed now, not at history it never saw — except where it
    /// joins an existing group, whose full candidate history it inherits.
    ///
    /// # Errors
    ///
    /// [`BuildError::InvalidState`] for a predicate with no clauses or
    /// clauses over undeclared variables; the hub is left unchanged.
    pub fn add_tenant(
        &mut self,
        id: &str,
        pred: &Conjunctive,
        source: &str,
    ) -> Result<u32, BuildError> {
        if pred.clauses().is_empty() {
            return Err(invalid(format!("tenant '{id}' has an empty predicate")));
        }
        // Validate everything before mutating group/slot structure.
        let mut clause_ids = Vec::with_capacity(pred.clauses().len());
        for clause in pred.clauses() {
            clause_ids.push(self.clause_id(clause)?);
        }
        if self.tenants.contains_key(id) {
            self.remove_tenant(id);
        }
        let key = GraftKey::from_parts(
            pred.clauses()
                .iter()
                .map(|c| (c.process().as_usize() as u32, c.label().to_owned())),
        );
        let group = match self.group_index.get(&key) {
            Some(&g) => g,
            None => self.create_group(key, clause_ids, source)?,
        };
        self.groups[group as usize].tenants.push(id.to_owned());
        self.tenants.insert(
            id.to_owned(),
            TenantInfo {
                group,
                source: source.to_owned(),
            },
        );
        slicing_observe::gauge("serve.tenants", self.tenants.len() as u64);
        slicing_observe::gauge("serve.groups", self.group_count() as u64);
        slicing_observe::gauge("serve.slots", self.slot_count() as u64);
        Ok(group)
    }

    fn create_group(
        &mut self,
        key: GraftKey,
        clause_ids: Vec<u32>,
        source: &str,
    ) -> Result<u32, BuildError> {
        let n = self.num_processes();
        // Bucket the clauses per process to form slot keys.
        let mut per_proc: Vec<Vec<u32>> = vec![Vec::new(); n];
        for cid in clause_ids {
            let p = self.clauses[cid as usize].process;
            if !per_proc[p].contains(&cid) {
                per_proc[p].push(cid);
            }
        }
        let g = self.groups.len() as u32;
        let mut slot_of = vec![None; n];
        let mut fronts = vec![0u64; n];
        for (p, cids) in per_proc.into_iter().enumerate() {
            if cids.is_empty() {
                continue;
            }
            let sid = self.slot_for(p, cids)?;
            self.slots[sid as usize].refs.push(g);
            slot_of[p] = Some(sid);
            let slot = &self.slots[sid as usize];
            // Join-cut cursor: include the current frontier event iff it
            // is the newest candidate (it satisfies the bundle "now");
            // older history stays invisible to a fresh slot's new group.
            let frontier = self.slicer.events_on(p) - 1;
            fronts[p] = if slot.candidates.back() == Some(&frontier) {
                slot.total() - 1
            } else {
                slot.total()
            };
        }
        // Only watched processes have a head to check.
        let dirty = slot_of.iter().map(Option::is_some).collect();
        self.groups.push(Group {
            key: key.clone(),
            source: source.to_owned(),
            slot_of,
            fronts,
            dirty,
            dirty_any: true,
            current_alarm: None,
            last_alarm: None,
            check_cost: 0,
            alarms: 0,
            tenants: Vec::new(),
            subscribers: Vec::new(),
            active: true,
        });
        self.group_index.insert(key, g);
        self.queued.push(g);
        Ok(g)
    }

    /// Finds or creates the slot for a per-process conjunct bundle. A
    /// fresh slot is seeded with the current frontier position iff the
    /// bundle holds there — for a hub that has seen no events yet, that is
    /// exactly the initial-event candidate a standalone monitor starts
    /// with.
    fn slot_for(&mut self, process: usize, cids: Vec<u32>) -> Result<u32, BuildError> {
        let key = GraftKey::new(
            process as u32,
            cids.iter().map(|&c| self.clauses[c as usize].label.clone()),
        );
        if let Some(&sid) = self.slot_index.get(&key) {
            return Ok(sid);
        }
        let mut holds = true;
        for &cid in &cids {
            // Evaluate outside the event generation counter: the frontier
            // values are current, but this is registration work, not
            // stream work.
            let clause = &self.clauses[cid as usize];
            let pred = clause.pred.as_ref().ok_or_else(|| {
                invalid(format!(
                    "clause '{}' has no closure (incomplete restore)",
                    clause.label
                ))
            })?;
            let mut scratch = std::mem::take(&mut self.values_scratch);
            scratch.clear();
            for &v in pred.vars() {
                scratch.push(self.values[process][v.index()]);
            }
            let ok = pred.eval_values(&scratch);
            self.values_scratch = scratch;
            self.stats.clause_evals += 1;
            slicing_observe::counter("serve.clause_evals", 1);
            if !ok {
                holds = false;
                break;
            }
        }
        let sid = self.slots.len() as u32;
        let mut candidates = VecDeque::new();
        if holds {
            candidates.push_back(self.slicer.events_on(process) - 1);
            self.live_candidates += 1;
            self.stats.peak_candidates = self.stats.peak_candidates.max(self.live_candidates);
        }
        self.slots.push(Slot {
            key: key.clone(),
            process,
            clauses: cids,
            start: 0,
            candidates,
            refs: Vec::new(),
            alive: true,
        });
        self.slot_index.insert(key, sid);
        self.slots_by_proc[process].push(sid);
        Ok(sid)
    }

    /// Deregisters a tenant. The last tenant of a group retires the group
    /// and any slots only it referenced. Returns `false` if the tenant was
    /// not registered.
    pub fn remove_tenant(&mut self, id: &str) -> bool {
        let Some(info) = self.tenants.remove(id) else {
            return false;
        };
        let g = info.group;
        let group = &mut self.groups[g as usize];
        group.tenants.retain(|t| t != id);
        group.subscribers.retain(|(t, _)| t != id);
        if group.tenants.is_empty() {
            group.active = false;
            let key = group.key.clone();
            self.group_index.remove(&key);
            let slot_ids: Vec<u32> = self.groups[g as usize]
                .slot_of
                .iter()
                .flatten()
                .copied()
                .collect();
            for sid in slot_ids {
                let slot = &mut self.slots[sid as usize];
                slot.refs.retain(|&r| r != g);
                if slot.refs.is_empty() {
                    slot.alive = false;
                    self.live_candidates -= slot.candidates.len() as u64;
                    slot.candidates = VecDeque::new();
                    self.slot_index.remove(&slot.key);
                    let p = slot.process;
                    self.slots_by_proc[p].retain(|&s| s != sid);
                }
            }
        }
        slicing_observe::gauge("serve.tenants", self.tenants.len() as u64);
        slicing_observe::gauge("serve.groups", self.group_count() as u64);
        slicing_observe::gauge("serve.slots", self.slot_count() as u64);
        true
    }

    /// Opens a bounded alarm channel for a registered tenant (replacing
    /// any previous subscription). When the channel is full at fan-out
    /// time the alarm is dropped for that tenant and counted
    /// (`serve.tenants.dropped`) — ingestion and checking never block.
    /// Returns `None` for an unknown tenant.
    pub fn subscribe(&mut self, id: &str, capacity: usize) -> Option<Receiver<Arc<HubAlarm>>> {
        let g = self.tenants.get(id)?.group;
        let (tx, rx) = sync_channel(capacity.max(1));
        let group = &mut self.groups[g as usize];
        group.subscribers.retain(|(t, _)| t != id);
        group.subscribers.push((id.to_owned(), tx));
        Some(rx)
    }

    /// Records a new event with its variable writes: one slicer clock
    /// extension, one evaluation per distinct clause on the process, one
    /// candidate append per satisfied slot — however many tenants watch.
    ///
    /// # Errors
    ///
    /// Propagates the slicer's validation errors
    /// ([`BuildError::TypeMismatch`], [`BuildError::StaleAssignment`]); on
    /// error nothing is recorded.
    pub fn observe(
        &mut self,
        process: usize,
        assignments: &[(VarRef, Value)],
    ) -> Result<EventId, BuildError> {
        let e = self.slicer.observe(process, assignments)?;
        self.stats.events += 1;
        slicing_observe::counter("serve.events", 1);
        for &(var, value) in assignments {
            self.values[process][var.index()] = value;
        }
        let gen = self.stats.events;
        let pos = self.slicer.events_on(process) - 1;
        let mut i = 0;
        while i < self.slots_by_proc[process].len() {
            let sid = self.slots_by_proc[process][i];
            i += 1;
            let mut holds = true;
            let mut c = 0;
            while c < self.slots[sid as usize].clauses.len() {
                let cid = self.slots[sid as usize].clauses[c];
                c += 1;
                if !self.clause_truth(cid, gen)? {
                    holds = false;
                    break;
                }
            }
            if !holds {
                continue;
            }
            let total_before = self.slots[sid as usize].total();
            let mut r = 0;
            while r < self.slots[sid as usize].refs.len() {
                let g = self.slots[sid as usize].refs[r];
                r += 1;
                let group = &mut self.groups[g as usize];
                // The group's stream on this process was exhausted, so
                // the new candidate is its head: the verdict may be stale.
                if group.fronts[process] == total_before && group.touch(process) {
                    self.queued.push(g);
                }
            }
            self.slots[sid as usize].candidates.push_back(pos);
            self.live_candidates += 1;
            self.stats.delta_cuts += 1;
            slicing_observe::counter("serve.delta_cuts", 1);
            if self.live_candidates > self.stats.peak_candidates {
                self.stats.peak_candidates = self.live_candidates;
                slicing_observe::gauge("serve.peak_candidates", self.live_candidates);
            }
        }
        if let Some(config) = self.gc {
            self.since_gc += 1;
            if self.since_gc >= config.every {
                self.since_gc = 0;
                self.run_gc();
            }
        }
        Ok(e)
    }

    /// Records a message between two observed events. A message that
    /// grows the clock of a group's cursor head marks that head dirty;
    /// no other cached fact can expire, because clocks only grow and so
    /// every elimination stays valid.
    ///
    /// # Errors
    ///
    /// Same contract as [`OnlineSlicer::message`].
    pub fn message(&mut self, send: EventId, recv: EventId) -> Result<(), BuildError> {
        self.slicer.message(send, recv)?;
        self.stats.messages += 1;
        slicing_observe::counter("serve.messages", 1);
        for &(p, pos) in self.slicer.retimed() {
            for &sid in &self.slots_by_proc[p] {
                let slot = &self.slots[sid as usize];
                let Ok(i) = slot.candidates.binary_search(&pos) else {
                    continue; // not a candidate, so nobody's head
                };
                let at = slot.start + i as u64;
                for &g in &slot.refs {
                    let group = &mut self.groups[g as usize];
                    if group.fronts[p] == at && group.touch(p) {
                        self.queued.push(g);
                    }
                }
            }
        }
        Ok(())
    }

    /// One stability-GC pass: trim slot streams below every referencing
    /// cursor, then compact the slicer below the stability frontier pinned
    /// by the oldest live candidate per process.
    fn run_gc(&mut self) {
        let Some(config) = self.gc else { return };
        let n = self.num_processes();
        // Trim candidates no cursor can reach any more.
        for sid in 0..self.slots.len() {
            if !self.slots[sid].alive {
                continue;
            }
            let min_front = self.slots[sid]
                .refs
                .iter()
                .map(|&g| self.groups[g as usize].fronts[self.slots[sid].process])
                .min()
                .unwrap_or(self.slots[sid].total());
            let slot = &mut self.slots[sid];
            while slot.start < min_front && !slot.candidates.is_empty() {
                slot.candidates.pop_front();
                slot.start += 1;
                self.live_candidates -= 1;
            }
            if slot.candidates.capacity() > 2 * slot.candidates.len() + 64 {
                slot.candidates.shrink_to_fit();
            }
        }
        let keep_floor: Vec<u32> = (0..n)
            .map(|p| {
                self.slots_by_proc[p]
                    .iter()
                    .filter_map(|&sid| self.slots[sid as usize].candidates.front().copied())
                    .min()
                    .unwrap_or(u32::MAX)
            })
            .collect();
        let result = self.slicer.compact(&keep_floor, config.lag);
        let stable: u64 = result.stable_frontier.iter().map(|&g| g as u64).sum();
        slicing_observe::gauge("serve.stable_frontier", stable);
        slicing_observe::gauge("serve.retained_events", result.retained_events);
        self.stats.retained_peak = self.stats.retained_peak.max(result.retained_events);
        if result.dropped_events > 0 {
            self.stats.compactions += 1;
            self.stats.dropped_events += result.dropped_events;
            slicing_observe::counter("serve.compactions", 1);
        }
    }

    /// Settles every group queued since the last check, in group order,
    /// and returns the newly settled alarms, one report per alarming
    /// group. Each report's alarm is also fanned out to the group's
    /// subscriber channels (laggards drop, never block). A group is queued
    /// when a cursor head moves (a candidate reaches an exhausted stream,
    /// registration, acknowledgement) or a late message grows a head's
    /// clock; groups nothing touched cost nothing, so a check with an
    /// empty queue is `O(1)`. Each distinct alarm is reported once.
    ///
    /// `possibly: fault` over a growing history is monotone under new
    /// events, so a group's earliest witness is stable until a late
    /// message re-times one of its heads.
    pub fn check_all(&mut self) -> Vec<AlarmReport> {
        let _span = slicing_observe::span("serve.check");
        self.stats.checks += 1;
        let mut reports = Vec::new();
        // A group is queued once per turn from clean to dirty, so the
        // queue holds no repeats.
        let mut queued = std::mem::take(&mut self.queued);
        queued.sort_unstable();
        for &g in &queued {
            let g = g as usize;
            if !self.groups[g].active {
                continue; // retired while queued
            }
            let work = self.settle_group(g);
            self.groups[g].check_cost += work;
            self.stats.check_cost += work;
            if work > 0 {
                slicing_observe::counter("serve.check_cost", work);
            }
            let group = &self.groups[g];
            if group.current_alarm.is_some() && group.current_alarm != group.last_alarm {
                let group = &mut self.groups[g];
                group.last_alarm.clone_from(&group.current_alarm);
                group.alarms += 1;
                self.stats.alarms += 1;
                slicing_observe::counter("serve.alarms", 1);
                let alarm = Arc::new(HubAlarm {
                    predicate: group.source.clone(),
                    cut: group.current_alarm.clone().expect("alarm just checked"),
                    events: self.stats.events,
                });
                let mut dead = Vec::new();
                for (tenant, tx) in &group.subscribers {
                    match tx.try_send(Arc::clone(&alarm)) {
                        Ok(()) => self.stats.fanout_sent += 1,
                        Err(TrySendError::Full(_)) => {
                            self.stats.fanout_dropped += 1;
                            slicing_observe::counter("serve.tenants.dropped", 1);
                        }
                        Err(TrySendError::Disconnected(_)) => dead.push(tenant.clone()),
                    }
                }
                if !dead.is_empty() {
                    group.subscribers.retain(|(t, _)| !dead.contains(t));
                }
                reports.push(AlarmReport {
                    group: g as u32,
                    tenants: group.tenants.clone(),
                    alarm,
                });
            }
        }
        // Settling never queues, so the queue is empty here: keep its
        // allocation.
        queued.clear();
        self.queued = queued;
        reports
    }

    /// The candidate head a group's cursor points at on `process`.
    fn head(&self, g: usize, process: usize, sid: u32) -> u32 {
        let slot = &self.slots[sid as usize];
        let front = self.groups[g].fronts[process];
        slot.candidates[(front - slot.start) as usize]
    }

    /// Candidate elimination for one group, with queue heads read through
    /// the shared slot streams: pop heads that can never front a
    /// satisfying consistent cut until the heads are mutually consistent
    /// (alarm: the join of their clocks is the least satisfying cut) or
    /// some watched stream runs dry. Only dirty heads are probed; each
    /// elimination is permanent, so total work is linear in candidates
    /// ever queued. Returns probes + joins.
    fn settle_group(&mut self, g: usize) -> u64 {
        let n = self.num_processes();
        let mut work = 0u64;
        'outer: loop {
            for p in 0..n {
                if let Some(sid) = self.groups[g].slot_of[p] {
                    if self.groups[g].fronts[p] >= self.slots[sid as usize].total() {
                        // Some conjunct has no viable candidate: no
                        // satisfying cut exists yet. The dirty heads were
                        // not all compared with each other, so they keep
                        // their flags. Only processes without a head drop
                        // theirs: the candidate that gives one a head
                        // dirties it.
                        for q in 0..n {
                            let headless = self.groups[g].slot_of[q].is_none_or(|sid| {
                                self.groups[g].fronts[q] >= self.slots[sid as usize].total()
                            });
                            if headless {
                                self.groups[g].dirty[q] = false;
                            }
                        }
                        let group = &mut self.groups[g];
                        group.dirty_any = false;
                        group.current_alarm = None;
                        return work;
                    }
                }
            }
            for p in 0..n {
                let Some(sid_p) = self.groups[g].slot_of[p] else {
                    continue;
                };
                if !self.groups[g].dirty[p] {
                    continue;
                }
                let head_p = self.head(g, p, sid_p);
                let e_p = self.slicer.event_at(p, head_p);
                for q in 0..n {
                    if q == p {
                        continue;
                    }
                    let Some(sid_q) = self.groups[g].slot_of[q] else {
                        continue;
                    };
                    let head_q = self.head(g, q, sid_q);
                    let e_q = self.slicer.event_at(q, head_q);
                    work += 2;
                    // e_q happened before e_p: e_q can never front a
                    // satisfying cut; the pop is permanent.
                    if self.slicer.clock(e_p).count(ProcessId::new(q)) > head_q + 1 {
                        self.groups[g].fronts[q] += 1;
                        self.groups[g].dirty[q] = true;
                        continue 'outer;
                    }
                    if self.slicer.clock(e_q).count(ProcessId::new(p)) > head_p + 1 {
                        self.groups[g].fronts[p] += 1;
                        continue 'outer;
                    }
                }
                self.groups[g].dirty[p] = false;
            }
            break;
        }
        // All watched heads are mutually consistent: the join of their
        // clocks is the least satisfying cut.
        work += 1;
        let mut scratch = std::mem::replace(&mut self.alarm_scratch, Cut::bottom(1));
        for p in 0..n {
            scratch.set_count(ProcessId::new(p), 1);
        }
        for p in 0..n {
            let Some(sid) = self.groups[g].slot_of[p] else {
                continue;
            };
            let head = self.head(g, p, sid);
            let e = self.slicer.event_at(p, head);
            scratch.join_assign(self.slicer.clock(e));
        }
        let group = &mut self.groups[g];
        match &mut group.current_alarm {
            Some(cut) => cut.clone_from(&scratch),
            None => group.current_alarm = Some(scratch.clone()),
        }
        group.dirty_any = false;
        self.alarm_scratch = scratch;
        work
    }

    /// Acknowledges a group's settled alarm: the witnessing heads are
    /// consumed and monitoring continues toward the *next* distinct fault
    /// instance. Returns `false` (and does nothing) if the group has no
    /// settled alarm. Long-lived deployments should acknowledge every
    /// handled alarm — un-acknowledged heads pin the GC floor.
    pub fn acknowledge(&mut self, group: u32) -> bool {
        let Some(g) = self.groups.get_mut(group as usize) else {
            return false;
        };
        if !g.active || g.current_alarm.is_none() {
            return false;
        }
        let mut queue = false;
        for p in 0..g.slot_of.len() {
            if g.slot_of[p].is_some() {
                g.fronts[p] += 1;
                queue |= g.touch(p);
            }
        }
        g.current_alarm = None;
        if queue {
            self.queued.push(group);
        }
        slicing_observe::counter("serve.alarms_acknowledged", 1);
        true
    }

    /// Serializes the hub's retained state (everything but the clause
    /// closures), compacting away retired groups and slots. Restore with
    /// [`from_state`](MonitorHub::from_state) followed by one
    /// [`restore_tenant`](MonitorHub::restore_tenant) per tenant.
    pub fn export_state(&self) -> HubState {
        // Remap live slots, groups, and the clauses they reference onto
        // dense ids.
        let mut slot_map: HashMap<u32, u32> = HashMap::new();
        let mut clause_map: HashMap<u32, u32> = HashMap::new();
        let mut clauses = Vec::new();
        let mut slots = Vec::new();
        for (sid, slot) in self.slots.iter().enumerate() {
            if !slot.alive {
                continue;
            }
            let mut cids = Vec::with_capacity(slot.clauses.len());
            for &cid in &slot.clauses {
                let new = *clause_map.entry(cid).or_insert_with(|| {
                    let c = &self.clauses[cid as usize];
                    clauses.push((c.process as u32, c.label.clone()));
                    (clauses.len() - 1) as u32
                });
                cids.push(new);
            }
            slot_map.insert(sid as u32, slots.len() as u32);
            slots.push(SlotState {
                process: slot.process as u32,
                clauses: cids,
                start: slot.start,
                candidates: slot.candidates.iter().copied().collect(),
            });
        }
        let mut group_map: HashMap<u32, u32> = HashMap::new();
        let mut groups = Vec::new();
        for (gid, group) in self.groups.iter().enumerate() {
            if !group.active {
                continue;
            }
            let mut gslots = Vec::new();
            let mut fronts = Vec::new();
            for (p, sid) in group.slot_of.iter().enumerate() {
                if let Some(sid) = sid {
                    gslots.push(slot_map[sid]);
                    fronts.push(group.fronts[p]);
                }
            }
            group_map.insert(gid as u32, groups.len() as u32);
            groups.push(GroupState {
                source: group.source.clone(),
                slots: gslots,
                fronts,
                dirty: group.dirty.clone(),
                dirty_any: group.dirty_any,
                current_alarm: group.current_alarm.as_ref().map(|c| c.counts().to_vec()),
                last_alarm: group.last_alarm.as_ref().map(|c| c.counts().to_vec()),
                check_cost: group.check_cost,
                alarms: group.alarms,
            });
        }
        let mut tenants: Vec<TenantState> = self
            .tenants
            .iter()
            .map(|(id, info)| TenantState {
                id: id.clone(),
                group: group_map[&info.group],
                source: info.source.clone(),
            })
            .collect();
        tenants.sort_by(|a, b| a.id.cmp(&b.id));
        HubState {
            slicer: self.slicer.export_state(),
            values: self.values.clone(),
            clauses,
            slots,
            groups,
            tenants,
            stats: self.stats,
            gc: self.gc,
            since_gc: self.since_gc,
        }
    }

    /// Rebuilds a hub from exported state. Clause closures are *not* in
    /// the state: the hub is inert until every tenant is re-registered via
    /// [`restore_tenant`](MonitorHub::restore_tenant) —
    /// [`unrestored_clauses`](MonitorHub::unrestored_clauses) must come
    /// back empty before observing.
    ///
    /// # Errors
    ///
    /// [`BuildError::InvalidState`] for structurally inconsistent state
    /// (out-of-range ids, non-increasing candidate streams, cursor out of
    /// bounds, alarm arity mismatch), plus the slicer's own validations.
    pub fn from_state(state: &HubState) -> Result<MonitorHub, BuildError> {
        let slicer = OnlineSlicer::from_state(&state.slicer)?;
        let n = slicer.num_processes();
        if state.values.len() != n {
            return Err(invalid(format!(
                "value mirror covers {} processes, slicer has {n}",
                state.values.len()
            )));
        }
        let mut hub = MonitorHub {
            slicer,
            values: state.values.clone(),
            clauses: Vec::new(),
            clause_index: HashMap::new(),
            slots: Vec::new(),
            slot_index: HashMap::new(),
            slots_by_proc: vec![Vec::new(); n],
            groups: Vec::new(),
            group_index: HashMap::new(),
            queued: Vec::new(),
            tenants: HashMap::new(),
            alarm_scratch: Cut::bottom(n),
            values_scratch: Vec::new(),
            live_candidates: 0,
            stats: state.stats,
            gc: state.gc,
            since_gc: state.since_gc,
        };
        if let Some(gc) = hub.gc {
            if gc.every == 0 {
                return Err(invalid("gc.every must be positive".into()));
            }
        }
        for (i, (p, label)) in state.clauses.iter().enumerate() {
            let p = *p as usize;
            if p >= n {
                return Err(invalid(format!("clause {i} targets process {p} of {n}")));
            }
            hub.clause_index.insert((p, label.clone()), i as u32);
            hub.clauses.push(Clause {
                process: p,
                label: label.clone(),
                pred: None,
                gen: 0,
                truth: false,
            });
        }
        for (i, slot) in state.slots.iter().enumerate() {
            let p = slot.process as usize;
            if p >= n {
                return Err(invalid(format!("slot {i} targets process {p} of {n}")));
            }
            if slot.clauses.is_empty() {
                return Err(invalid(format!("slot {i} has no clauses")));
            }
            for &cid in &slot.clauses {
                let c = hub
                    .clauses
                    .get(cid as usize)
                    .ok_or_else(|| invalid(format!("slot {i} references clause {cid}")))?;
                if c.process != p {
                    return Err(invalid(format!(
                        "slot {i} on process {p} references a clause of process {}",
                        c.process
                    )));
                }
            }
            let base = hub.slicer.base_of(p);
            let len = hub.slicer.events_on(p);
            let mut prev: Option<u32> = None;
            for &pos in &slot.candidates {
                if pos < base || pos >= len {
                    return Err(invalid(format!(
                        "slot {i} candidate {pos} outside retained range {base}..{len}"
                    )));
                }
                if prev.is_some_and(|q| q >= pos) {
                    return Err(invalid(format!("slot {i} candidates not increasing")));
                }
                prev = Some(pos);
            }
            let key = GraftKey::new(
                slot.process,
                slot.clauses
                    .iter()
                    .map(|&c| hub.clauses[c as usize].label.clone()),
            );
            hub.live_candidates += slot.candidates.len() as u64;
            hub.slot_index.insert(key.clone(), i as u32);
            hub.slots_by_proc[p].push(i as u32);
            hub.slots.push(Slot {
                key,
                process: p,
                clauses: slot.clauses.clone(),
                start: slot.start,
                candidates: slot.candidates.iter().copied().collect(),
                refs: Vec::new(),
                alive: true,
            });
        }
        for (i, group) in state.groups.iter().enumerate() {
            if group.slots.len() != group.fronts.len() {
                return Err(invalid(format!("group {i} slots/fronts length mismatch")));
            }
            if group.dirty.len() != n {
                return Err(invalid(format!(
                    "group {i} dirty flags cover {} of {n} processes",
                    group.dirty.len()
                )));
            }
            let mut slot_of = vec![None; n];
            let mut fronts = vec![0u64; n];
            let mut parts = Vec::new();
            for (&sid, &front) in group.slots.iter().zip(&group.fronts) {
                let slot = hub
                    .slots
                    .get(sid as usize)
                    .ok_or_else(|| invalid(format!("group {i} references slot {sid}")))?;
                let p = slot.process;
                if slot_of[p].is_some() {
                    return Err(invalid(format!("group {i} has two slots on process {p}")));
                }
                if front < slot.start || front > slot.total() {
                    return Err(invalid(format!(
                        "group {i} cursor {front} outside slot window {}..={}",
                        slot.start,
                        slot.total()
                    )));
                }
                for &cid in &slot.clauses {
                    parts.push((p as u32, hub.clauses[cid as usize].label.clone()));
                }
                slot_of[p] = Some(sid);
                fronts[p] = front;
                hub.slots[sid as usize].refs.push(i as u32);
            }
            for counts in [&group.current_alarm, &group.last_alarm]
                .into_iter()
                .flatten()
            {
                if counts.len() != n {
                    return Err(invalid(format!("group {i} alarm arity {}", counts.len())));
                }
            }
            let key = GraftKey::from_parts(parts);
            hub.group_index.insert(key.clone(), i as u32);
            if group.dirty_any {
                hub.queued.push(i as u32);
            }
            // Unwatched processes have no head: drop the flags older hubs
            // left set there.
            let dirty = group
                .dirty
                .iter()
                .zip(&slot_of)
                .map(|(&d, sid)| d && sid.is_some())
                .collect();
            hub.groups.push(Group {
                key,
                source: group.source.clone(),
                slot_of,
                fronts,
                dirty,
                dirty_any: group.dirty_any,
                current_alarm: group.current_alarm.as_ref().map(|c| Cut::from_counts(c)),
                last_alarm: group.last_alarm.as_ref().map(|c| Cut::from_counts(c)),
                check_cost: group.check_cost,
                alarms: group.alarms,
                tenants: Vec::new(),
                subscribers: Vec::new(),
                active: true,
            });
        }
        for t in &state.tenants {
            let group = hub.groups.get_mut(t.group as usize).ok_or_else(|| {
                invalid(format!("tenant '{}' references group {}", t.id, t.group))
            })?;
            group.tenants.push(t.id.clone());
            if hub
                .tenants
                .insert(
                    t.id.clone(),
                    TenantInfo {
                        group: t.group,
                        source: t.source.clone(),
                    },
                )
                .is_some()
            {
                return Err(invalid(format!("tenant '{}' registered twice", t.id)));
            }
        }
        for (i, g) in hub.groups.iter().enumerate() {
            if g.tenants.is_empty() {
                return Err(invalid(format!("group {i} has no tenants")));
            }
        }
        hub.stats.peak_candidates = hub.stats.peak_candidates.max(hub.live_candidates);
        Ok(hub)
    }

    /// Re-registers a restored tenant's clause closures, cross-validating
    /// the predicate's shape against the checkpointed group.
    ///
    /// # Errors
    ///
    /// [`BuildError::InvalidState`] if the tenant is unknown or the
    /// predicate's clause set differs from the checkpointed one.
    pub fn restore_tenant(&mut self, id: &str, pred: &Conjunctive) -> Result<(), BuildError> {
        let g = self
            .tenants
            .get(id)
            .map(|t| t.group)
            .ok_or_else(|| invalid(format!("tenant '{id}' is not in the checkpoint")))?;
        let key = GraftKey::from_parts(
            pred.clauses()
                .iter()
                .map(|c| (c.process().as_usize() as u32, c.label().to_owned())),
        );
        if key != self.groups[g as usize].key {
            return Err(invalid(format!(
                "tenant '{id}' predicate does not match the checkpointed clause set"
            )));
        }
        for clause in pred.clauses() {
            let p = clause.process().as_usize();
            for &v in clause.vars() {
                if v.process().as_usize() != p || v.index() >= self.values[p].len() {
                    return Err(invalid(format!(
                        "clause '{}' reads an undeclared variable of process {p}",
                        clause.label()
                    )));
                }
            }
            let cid = self.clause_index[&(p, clause.label().to_owned())];
            if self.clauses[cid as usize].pred.is_none() {
                self.clauses[cid as usize].pred = Some(clause.clone());
            }
        }
        Ok(())
    }

    /// Labels of clauses still missing their closure after restore —
    /// must be empty before the hub observes events again.
    pub fn unrestored_clauses(&self) -> Vec<String> {
        self.clauses
            .iter()
            .filter(|c| c.pred.is_none())
            .map(|c| format!("{}@{}", c.label, c.process))
            .collect()
    }
}

impl std::fmt::Debug for MonitorHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MonitorHub")
            .field("tenants", &self.tenants.len())
            .field("groups", &self.group_count())
            .field("slots", &self.slot_count())
            .field("clauses", &self.clauses.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OnlineMonitor;

    /// Deterministic generator shared by the equivalence tests.
    struct XorShift(u64);
    impl XorShift {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    #[test]
    fn two_tenants_share_one_group() {
        let mut hub = MonitorHub::new(2);
        let a = hub.declare_var(0, "x", Value::Int(0)).unwrap();
        let b = hub.declare_var(1, "x", Value::Int(0)).unwrap();
        let pred = || {
            Conjunctive::new(vec![
                LocalPredicate::int(a, "x@0 > 1", |v| v > 1),
                LocalPredicate::int(b, "x@1 > 1", |v| v > 1),
            ])
        };
        hub.add_tenant("alice", &pred(), "p").unwrap();
        hub.add_tenant("bob", &pred(), "p").unwrap();
        assert_eq!(hub.tenant_count(), 2);
        assert_eq!(hub.group_count(), 1);
        assert_eq!(hub.slot_count(), 2);
        let registration_evals = hub.stats().clause_evals;
        hub.observe(0, &[(a, Value::Int(2))]).unwrap();
        hub.observe(1, &[(b, Value::Int(3))]).unwrap();
        // Each clause evaluated once per event despite two tenants.
        assert_eq!(hub.stats().clause_evals - registration_evals, 2);
        let reports = hub.check_all();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].tenants, vec!["alice", "bob"]);
        assert_eq!(reports[0].alarm.cut.counts(), &[2, 2]);
    }

    /// A group sharing its slots with other tenants' groups raises exactly
    /// the alarms (and does exactly the settle work) of the same predicate
    /// watched alone.
    #[test]
    fn alarms_match_a_standalone_monitor() {
        let mut hub = MonitorHub::new(3);
        let mut m = OnlineMonitor::new(3);
        let mut hv = Vec::new();
        let mut mv = Vec::new();
        for p in 0..3 {
            hv.push(hub.declare_var(p, "x", Value::Int(0)).unwrap());
            mv.push(m.declare_var(p, "x", Value::Int(0)).unwrap());
        }
        let pred = |vars: &[VarRef]| {
            Conjunctive::new(vec![
                LocalPredicate::int(vars[0], "x@0 > 1", |v| v > 1),
                LocalPredicate::int(vars[2], "x@2 <= 3", |v| v <= 3),
            ])
        };
        hub.add_tenant("t", &pred(&hv), "x@0 > 1 && x@2 <= 3")
            .unwrap();
        // Neighbours sharing the x@0 slot and the x@2 clause.
        let x0 = LocalPredicate::int(hv[0], "x@0 > 1", |v| v > 1);
        hub.add_tenant("u", &Conjunctive::new(vec![x0]), "x@0 > 1")
            .unwrap();
        let both = Conjunctive::new(vec![
            LocalPredicate::int(hv[1], "x@1 == 2", |v| v == 2),
            LocalPredicate::int(hv[2], "x@2 <= 3", |v| v <= 3),
        ]);
        hub.add_tenant("v", &both, "x@1 == 2 && x@2 <= 3").unwrap();
        let g = hub.group_of("t").unwrap();
        for clause in pred(&mv).clauses() {
            m.watch_clause(clause.clone()).unwrap();
        }
        let mut rng = XorShift(7);
        let mut hub_events = Vec::new();
        let mut mon_events = Vec::new();
        for step in 0..200u32 {
            let p = (rng.below(3)) as usize;
            let v = Value::Int(rng.below(6) as i64);
            hub_events.push(hub.observe(p, &[(hv[p], v)]).unwrap());
            mon_events.push(m.observe(p, &[(mv[p], v)]).unwrap());
            if step % 5 == 4 {
                let from = rng.below(hub_events.len() as u64 - 1) as usize;
                let to = hub_events.len() - 1;
                let hr = hub.message(hub_events[from], hub_events[to]);
                let mr = m.message(mon_events[from], mon_events[to]);
                assert_eq!(hr.is_ok(), mr.is_ok(), "message at step {step}");
            }
            let reports = hub.check_all();
            let hub_alarm = reports
                .iter()
                .find(|r| r.group == g)
                .map(|r| r.alarm.cut.clone());
            let mon_alarm = m.check().unwrap();
            assert_eq!(hub_alarm, mon_alarm, "step {step}");
        }
        assert_eq!(hub.group_check_cost(g).unwrap(), m.stats().check_cost);
    }

    #[test]
    #[should_panic(expected = "GC cadence must be positive")]
    fn zero_gc_cadence_is_rejected() {
        let _ = MonitorHub::new(2).with_gc(GcConfig { lag: 4, every: 0 });
    }

    #[test]
    fn acknowledge_advances_to_the_next_instance() {
        let mut hub = MonitorHub::new(2);
        let mut m = OnlineMonitor::new(2);
        let a = hub.declare_var(0, "x", Value::Int(0)).unwrap();
        let b = hub.declare_var(1, "x", Value::Int(0)).unwrap();
        let ma = m.declare_var(0, "x", Value::Int(0)).unwrap();
        let mb = m.declare_var(1, "x", Value::Int(0)).unwrap();
        hub.add_tenant(
            "t",
            &Conjunctive::new(vec![
                LocalPredicate::int(a, "x@0 > 0", |v| v > 0),
                LocalPredicate::int(b, "x@1 > 0", |v| v > 0),
            ]),
            "p",
        )
        .unwrap();
        m.watch_clause(LocalPredicate::int(ma, "x@0 > 0", |v| v > 0))
            .unwrap();
        m.watch_clause(LocalPredicate::int(mb, "x@1 > 0", |v| v > 0))
            .unwrap();
        for round in 0..3 {
            hub.observe(0, &[(a, Value::Int(1))]).unwrap();
            hub.observe(1, &[(b, Value::Int(1))]).unwrap();
            m.observe(0, &[(ma, Value::Int(1))]).unwrap();
            m.observe(1, &[(mb, Value::Int(1))]).unwrap();
            let reports = hub.check_all();
            let want = m.check().unwrap();
            assert_eq!(
                reports.first().map(|r| r.alarm.cut.clone()),
                want,
                "round {round}"
            );
            if let Some(r) = reports.first() {
                assert!(hub.acknowledge(r.group));
            }
            if want.is_some() {
                assert!(m.acknowledge_alarm());
            }
        }
        assert!(!hub.acknowledge(0), "nothing settled after final ack");
    }

    #[test]
    fn mid_stream_add_and_remove() {
        let mut hub = MonitorHub::new(2);
        let a = hub.declare_var(0, "x", Value::Int(0)).unwrap();
        let b = hub.declare_var(1, "x", Value::Int(0)).unwrap();
        let pred = || {
            Conjunctive::new(vec![
                LocalPredicate::int(a, "x@0 > 0", |v| v > 0),
                LocalPredicate::int(b, "x@1 > 0", |v| v > 0),
            ])
        };
        // History the late tenant never sees: a satisfying pair.
        hub.observe(0, &[(a, Value::Int(5))]).unwrap();
        hub.observe(1, &[(b, Value::Int(5))]).unwrap();
        hub.observe(0, &[(a, Value::Int(0))]).unwrap();
        assert!(hub.check_all().is_empty(), "no tenants yet");
        hub.add_tenant("late", &pred(), "p").unwrap();
        // Join-cut semantics: the old satisfying pair is invisible; only
        // the current frontier (x@0 == 0, x@1 == 5) seeds candidates.
        assert!(hub.check_all().is_empty());
        hub.observe(0, &[(a, Value::Int(7))]).unwrap();
        let reports = hub.check_all();
        assert_eq!(reports.len(), 1);
        assert!(hub.remove_tenant("late"));
        assert!(!hub.remove_tenant("late"), "second removal is a no-op");
        assert_eq!(hub.group_count(), 0);
        assert_eq!(hub.slot_count(), 0);
        hub.observe(1, &[(b, Value::Int(9))]).unwrap();
        assert!(hub.check_all().is_empty(), "retired group stays silent");
    }

    #[test]
    fn laggard_subscriber_drops_but_never_blocks() {
        let mut hub = MonitorHub::new(1);
        let a = hub.declare_var(0, "x", Value::Int(0)).unwrap();
        hub.add_tenant(
            "slow",
            &Conjunctive::new(vec![LocalPredicate::int(a, "x@0 > 0", |v| v > 0)]),
            "x@0 > 0",
        )
        .unwrap();
        let rx = hub.subscribe("slow", 1).unwrap();
        let mut reported = 0;
        for i in 0..10 {
            hub.observe(0, &[(a, Value::Int(i + 1))]).unwrap();
            for r in hub.check_all() {
                reported += 1;
                assert!(hub.acknowledge(r.group));
            }
        }
        assert!(reported >= 3, "expected repeated alarms, got {reported}");
        let stats = hub.stats();
        assert_eq!(stats.fanout_sent, 1, "capacity-1 channel holds one alarm");
        assert_eq!(
            stats.fanout_dropped,
            reported - 1,
            "all further alarms dropped, ingestion never blocked"
        );
        // The queued alarm is still deliverable; the rest were shed.
        assert_eq!(rx.try_iter().count(), 1);
        // A disconnected subscriber is pruned without error.
        drop(rx);
        hub.observe(0, &[(a, Value::Int(99))]).unwrap();
        assert_eq!(hub.check_all().len(), 1);
    }

    #[test]
    fn state_round_trips() {
        let mut hub = MonitorHub::new(2).with_gc(GcConfig { lag: 4, every: 8 });
        let a = hub.declare_var(0, "x", Value::Int(0)).unwrap();
        let b = hub.declare_var(1, "x", Value::Int(0)).unwrap();
        let pred = || {
            Conjunctive::new(vec![
                LocalPredicate::int(a, "x@0 > 2", |v| v > 2),
                LocalPredicate::int(b, "x@1 > 2", |v| v > 2),
            ])
        };
        hub.add_tenant("t0", &pred(), "x@0 > 2 && x@1 > 2").unwrap();
        let mut rng = XorShift(11);
        for _ in 0..40 {
            let p = rng.below(2) as usize;
            let var = if p == 0 { a } else { b };
            hub.observe(p, &[(var, Value::Int(rng.below(5) as i64))])
                .unwrap();
            for r in hub.check_all() {
                hub.acknowledge(r.group);
            }
        }
        let state = hub.export_state();
        let mut restored = MonitorHub::from_state(&state).unwrap();
        restored.restore_tenant("t0", &pred()).unwrap();
        assert!(restored.unrestored_clauses().is_empty());
        assert_eq!(restored.export_state(), state);
        // Both continue identically.
        for step in 0..20 {
            let p = rng.below(2) as usize;
            let var = if p == 0 { a } else { b };
            let v = Value::Int(rng.below(5) as i64);
            hub.observe(p, &[(var, v)]).unwrap();
            restored.observe(p, &[(var, v)]).unwrap();
            let x = hub.check_all();
            let y = restored.check_all();
            assert_eq!(x.len(), y.len(), "step {step}");
            for (rx, ry) in x.iter().zip(&y) {
                assert_eq!(rx.alarm.cut, ry.alarm.cut, "step {step}");
            }
        }
        assert_eq!(hub.stats(), restored.stats());
    }

    /// Only a process a group watches can carry its dirty flag: the flags
    /// stay clear elsewhere through observations, late messages, checks,
    /// acknowledgements, GC, export and restore, and a restore drops the
    /// ones older checkpoints set.
    #[test]
    fn unwatched_processes_never_carry_a_dirty_flag() {
        let mut hub = MonitorHub::new(3).with_gc(GcConfig { lag: 2, every: 4 });
        let vars: Vec<VarRef> = (0..3)
            .map(|p| hub.declare_var(p, "x", Value::Int(0)).unwrap())
            .collect();
        let both = || {
            Conjunctive::new(vec![
                LocalPredicate::int(vars[0], "x@0 > 1", |v| v > 1),
                LocalPredicate::int(vars[1], "x@1 > 1", |v| v > 1),
            ])
        };
        let one = || Conjunctive::new(vec![LocalPredicate::int(vars[2], "x@2 > 2", |v| v > 2)]);
        let register = |hub: &mut MonitorHub| {
            hub.add_tenant("both", &both(), "x@0 > 1 && x@1 > 1")
                .unwrap();
            hub.add_tenant("one", &one(), "x@2 > 2").unwrap();
        };
        let restore = |state: &HubState| {
            let mut hub = MonitorHub::from_state(state).unwrap();
            hub.restore_tenant("both", &both()).unwrap();
            hub.restore_tenant("one", &one()).unwrap();
            hub
        };
        let unwatched_clean = |state: &HubState, at: &str| {
            for (g, group) in state.groups.iter().enumerate() {
                for (p, &dirty) in group.dirty.iter().enumerate() {
                    let watched = group
                        .slots
                        .iter()
                        .any(|&sid| state.slots[sid as usize].process as usize == p);
                    assert!(watched || !dirty, "{at}: group {g} dirty on unwatched {p}");
                }
            }
        };
        register(&mut hub);
        unwatched_clean(&hub.export_state(), "registration");
        let mut rng = XorShift(5);
        let mut events: Vec<Vec<EventId>> = vec![Vec::new(); 3];
        for step in 0..80 {
            let p = rng.below(3) as usize;
            let v = Value::Int(rng.below(4) as i64);
            events[p].push(hub.observe(p, &[(vars[p], v)]).unwrap());
            unwatched_clean(&hub.export_state(), &format!("observe {step}"));
            // A late message into an older event of another process;
            // compacted or cyclic ones are rejected and change nothing.
            let q = (p + 1 + rng.below(2) as usize) % 3;
            if !events[q].is_empty() {
                let recv = events[q][rng.below(events[q].len() as u64) as usize];
                let send = *events[p].last().unwrap();
                let _ = hub.message(send, recv);
                unwatched_clean(&hub.export_state(), &format!("message {step}"));
            }
            for report in hub.check_all() {
                if rng.below(2) == 0 {
                    hub.acknowledge(report.group);
                }
            }
            let state = hub.export_state();
            unwatched_clean(&state, &format!("check {step}"));
            if step % 20 == 19 {
                hub = restore(&state);
                assert_eq!(hub.export_state(), state, "step {step}");
            }
        }
        assert!(hub.stats().compactions > 0, "GC must have run");
        // Checkpoints of older hubs set every flag; a restore keeps only
        // the watched ones.
        let mut state = hub.export_state();
        for group in &mut state.groups {
            group.dirty.fill(true);
            group.dirty_any = true;
        }
        let restored = restore(&state).export_state();
        unwatched_clean(&restored, "legacy restore");
        assert_eq!(restored.groups[0].dirty, [true, true, false]);
        assert_eq!(restored.groups[1].dirty, [false, false, true]);
    }

    #[test]
    fn gc_bounds_retention_and_matches_verdicts() {
        let mut gc_hub = MonitorHub::new(2).with_gc(GcConfig { lag: 16, every: 32 });
        let mut plain = MonitorHub::new(2);
        let mut vars_gc = Vec::new();
        let mut vars_pl = Vec::new();
        for p in 0..2 {
            vars_gc.push(gc_hub.declare_var(p, "x", Value::Int(0)).unwrap());
            vars_pl.push(plain.declare_var(p, "x", Value::Int(0)).unwrap());
        }
        let pred = |vs: &[VarRef]| {
            Conjunctive::new(vec![
                LocalPredicate::int(vs[0], "x@0 > 6", |v| v > 6),
                LocalPredicate::int(vs[1], "x@1 > 6", |v| v > 6),
            ])
        };
        gc_hub.add_tenant("t", &pred(&vars_gc), "p").unwrap();
        plain.add_tenant("t", &pred(&vars_pl), "p").unwrap();
        let mut rng = XorShift(23);
        let mut last_gc: [Option<EventId>; 2] = [None, None];
        let mut last_pl: [Option<EventId>; 2] = [None, None];
        for step in 0..4000u64 {
            let p = rng.below(2) as usize;
            let v = Value::Int(rng.below(8) as i64);
            let eg = gc_hub.observe(p, &[(vars_gc[p], v)]).unwrap();
            let ep = plain.observe(p, &[(vars_pl[p], v)]).unwrap();
            // Cross-process messages advance the stability frontier —
            // without them nothing ever becomes stable and GC is a no-op.
            if let (Some(sg), Some(sp)) = (last_gc[1 - p], last_pl[1 - p]) {
                gc_hub.message(sg, eg).unwrap();
                plain.message(sp, ep).unwrap();
            }
            last_gc[p] = Some(eg);
            last_pl[p] = Some(ep);
            let x = gc_hub.check_all();
            let y = plain.check_all();
            assert_eq!(x.len(), y.len(), "step {step}");
            for (rx, ry) in x.iter().zip(&y) {
                assert_eq!(rx.alarm.cut, ry.alarm.cut, "step {step}");
                gc_hub.acknowledge(rx.group);
                plain.acknowledge(ry.group);
            }
        }
        assert!(gc_hub.stats().compactions > 0, "GC must have run");
        assert!(
            gc_hub.retained_events() < plain.retained_events() / 4,
            "GC'd hub retains {} vs {}",
            gc_hub.retained_events(),
            plain.retained_events()
        );
    }

    #[test]
    fn rejects_bad_predicates_and_state() {
        let mut hub = MonitorHub::new(2);
        let a = hub.declare_var(0, "x", Value::Int(0)).unwrap();
        let err = hub.add_tenant("t", &Conjunctive::new(vec![]), "p");
        assert!(matches!(err, Err(BuildError::InvalidState { .. })));
        hub.add_tenant(
            "t",
            &Conjunctive::new(vec![LocalPredicate::int(a, "x@0 > 0", |v| v > 0)]),
            "p",
        )
        .unwrap();
        let mut state = hub.export_state();
        state.groups[0].fronts[0] = 99;
        assert!(matches!(
            MonitorHub::from_state(&state),
            Err(BuildError::InvalidState { .. })
        ));
        let mut state = hub.export_state();
        state.slots[0].candidates = vec![3, 3];
        assert!(matches!(
            MonitorHub::from_state(&state),
            Err(BuildError::InvalidState { .. })
        ));
        // Observing through an unrestored clause is a typed error, not a
        // panic.
        let state = hub.export_state();
        let mut hollow = MonitorHub::from_state(&state).unwrap();
        assert_eq!(hollow.unrestored_clauses(), vec!["x@0 > 0@0".to_string()]);
        let err = hollow.observe(0, &[(a, Value::Int(1))]);
        assert!(matches!(err, Err(BuildError::InvalidState { .. })));
    }

    /// A hub over `n` processes with one `x` per process and one tenant
    /// per entry of `watch`, named by its index, watching `x@p > 0` on
    /// each listed process.
    fn threshold_hub(n: usize, watch: &[&[usize]]) -> (MonitorHub, Vec<VarRef>, Vec<Conjunctive>) {
        let mut hub = MonitorHub::new(n);
        let vars: Vec<VarRef> = (0..n)
            .map(|p| hub.declare_var(p, "x", Value::Int(0)).unwrap())
            .collect();
        let mut preds = Vec::new();
        for (t, procs) in watch.iter().enumerate() {
            let pred = Conjunctive::new(
                procs
                    .iter()
                    .map(|&p| LocalPredicate::int(vars[p], format!("x@{p} > 0"), |v| v > 0))
                    .collect(),
            );
            hub.add_tenant(&t.to_string(), &pred, "p").unwrap();
            preds.push(pred);
        }
        (hub, vars, preds)
    }

    fn offline(hub: &MonitorHub, pred: &Conjunctive) -> Option<Cut> {
        let spec = slicing_core::PredicateSpec::conjunctive(pred.clone());
        crate::detect_with_slicing(&hub.history().unwrap(), &spec, &crate::Limits::none())
            .search
            .found
    }

    /// A settle that finds one stream empty must not forget which heads
    /// it has yet to compare. Here process 2's only candidate lies below
    /// process 0's, so the predicate holds nowhere; forgetting raised
    /// ⟨2, 4, 3⟩ once process 1 got a fresh candidate.
    #[test]
    fn an_empty_stream_keeps_the_unchecked_heads_dirty() {
        let (mut hub, vars, preds) = threshold_hub(3, &[&[0, 1, 2]]);
        let obs = |hub: &mut MonitorHub, p: usize, v: i64| {
            hub.observe(p, &[(vars[p], Value::Int(v))]).unwrap()
        };
        let mut ev = Vec::new();
        for (p, v) in [(2, 1), (2, 0), (1, 1), (1, 0)] {
            ev.push(obs(&mut hub, p, v));
            assert!(hub.check_all().is_empty());
        }
        let head0 = obs(&mut hub, 0, 1);
        // Process 2's and process 1's candidates both precede it.
        hub.message(ev[1], head0).unwrap();
        hub.message(ev[3], head0).unwrap();
        assert!(hub.check_all().is_empty());
        obs(&mut hub, 1, 1);
        assert!(hub.check_all().is_empty(), "false alarm");
        assert_eq!(offline(&hub, &preds[0]), None);
    }

    /// Messages invalidate per head: only a group whose cursor head had
    /// its clock grown is settled again.
    #[test]
    fn messages_resettle_only_groups_whose_head_clock_grew() {
        let (mut hub, vars, preds) = threshold_hub(4, &[&[0, 1], &[2, 3]]);
        let mut at = Vec::new();
        for (p, v) in [(0, 1), (1, 1), (2, 1), (3, 1), (1, 0), (3, 0)] {
            at.push(hub.observe(p, &[(vars[p], Value::Int(v))]).unwrap());
        }
        assert_eq!(hub.check_all().len(), 2);
        let costs = |hub: &MonitorHub| [0, 1].map(|g| hub.group_check_cost(g).unwrap());
        let settled = costs(&hub);
        // On time into process 3's newest event, which no cursor points at.
        hub.message(at[2], at[5]).unwrap();
        assert!(hub.check_all().is_empty());
        assert_eq!(costs(&hub), settled, "no head moved");
        // Late into group 0's head on process 1: group 0 alone re-settles,
        // and its alarm moves to the new least cut.
        hub.message(at[2], at[1]).unwrap();
        let reports = hub.check_all();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].group, 0);
        assert_eq!(
            Some(&reports[0].alarm.cut),
            offline(&hub, &preds[0]).as_ref()
        );
        let now = costs(&hub);
        assert!(now[0] > settled[0]);
        assert_eq!(now[1], settled[1], "group 1's heads kept their clocks");
        assert_eq!(hub.group_alarm(1), offline(&hub, &preds[1]).as_ref());
    }

    #[test]
    fn overlapping_tenants_share_slots() {
        let mut hub = MonitorHub::new(3);
        let mut vars = Vec::new();
        for p in 0..3 {
            vars.push(hub.declare_var(p, "x", Value::Int(0)).unwrap());
        }
        let clause = |p: usize, vars: &[VarRef]| {
            LocalPredicate::int(vars[p], format!("x@{p} > 0"), |v| v > 0)
        };
        hub.add_tenant(
            "ab",
            &Conjunctive::new(vec![clause(0, &vars), clause(1, &vars)]),
            "ab",
        )
        .unwrap();
        hub.add_tenant(
            "bc",
            &Conjunctive::new(vec![clause(1, &vars), clause(2, &vars)]),
            "bc",
        )
        .unwrap();
        hub.add_tenant(
            "ac",
            &Conjunctive::new(vec![clause(0, &vars), clause(2, &vars)]),
            "ac",
        )
        .unwrap();
        // Three groups, but only three distinct single-clause slots — the
        // per-process bundles are shared pairwise.
        assert_eq!(hub.group_count(), 3);
        assert_eq!(hub.slot_count(), 3);
        assert_eq!(hub.clause_count(), 3);
        for step in 0..30u64 {
            let p = (step % 3) as usize;
            hub.observe(p, &[(vars[p], Value::Int((step % 2) as i64))])
                .unwrap();
        }
        // 30 events, one clause eval each — not one per tenant-clause.
        assert_eq!(hub.stats().clause_evals, 30 + 3);
    }
}
