//! Online fault monitoring: the paper's motivating loop — observe the
//! execution as it unfolds and raise an alarm the moment some consistent
//! cut of the history satisfies the fault.
//!
//! The monitored fault is a *conjunction of local predicates* (e.g. "no
//! process holds the token", or any single clause of a CNF invariant).
//! [`OnlineMonitor`] watches one such predicate as the single tenant of a
//! [`MonitorHub`], the one online engine: clocks, candidate queues,
//! settles, GC and checkpoints are all the hub's.

use slicing_computation::{
    BuildError, Computation, Cut, EventId, GlobalState, ProcSet, Value, VarRef,
};
use slicing_core::slice_conjunctive;
use slicing_predicates::{Conjunctive, LocalPredicate, Predicate};

use crate::enumerate::detect_bfs;
use crate::metrics::{Detection, Limits};
use crate::multiplex::{GcConfig, HubState, HubStats, MonitorHub};

/// The tenant id the monitor registers its predicate under.
const TENANT: &str = "monitor";

/// An online monitor for a conjunctive global fault.
///
/// Feed events and messages as they are observed;
/// [`check`](OnlineMonitor::check) reports the earliest consistent cut of
/// the observed history that satisfies every watched conjunct, if any,
/// once per distinct cut. Each check examines only the *delta* since the
/// last one, so steady-state monitoring costs amortized `O(1)` per event
/// and performs no cut allocations (for up to 16 processes, where cuts are
/// stored inline).
///
/// Watches are collected until the stream starts: the first
/// [`observe`](OnlineMonitor::observe) (or [`check`](OnlineMonitor::check))
/// registers them as the hub's one tenant, and a watch after that is a
/// [`BuildError::LateWatch`]. After taking corrective action (e.g. rolling
/// back to a recovery line), start a fresh monitor from the recovered
/// state; that is the paper's monitor → detect → correct loop.
///
/// # Examples
///
/// ```
/// use slicing_computation::Value;
/// use slicing_detect::OnlineMonitor;
///
/// // Watch for "both flags down" on two processes.
/// let mut m = OnlineMonitor::new(2);
/// let a = m.declare_var(0, "up", Value::Bool(true))?;
/// let b = m.declare_var(1, "up", Value::Bool(true))?;
/// m.watch_bool(a, "!up_0", |v| !v)?;
/// m.watch_bool(b, "!up_1", |v| !v)?;
///
/// m.observe(0, &[(a, Value::Bool(false))])?;
/// assert!(m.check()?.is_none()); // p1 still up
/// m.observe(1, &[(b, Value::Bool(false))])?;
/// assert!(m.check()?.is_some()); // both down at a consistent cut
/// # Ok::<(), slicing_computation::BuildError>(())
/// ```
#[derive(Debug)]
pub struct OnlineMonitor {
    hub: MonitorHub,
    /// The watched conjuncts.
    clauses: Vec<LocalPredicate>,
    /// The tenant's group, once registered.
    group: Option<u32>,
}

impl OnlineMonitor {
    /// Creates a monitor over `num_processes` processes.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`MonitorHub::new`].
    pub fn new(num_processes: usize) -> Self {
        OnlineMonitor {
            hub: MonitorHub::new(num_processes),
            clauses: Vec::new(),
            group: None,
        }
    }

    /// Enables causal-stability garbage collection; see
    /// [`MonitorHub::with_gc`].
    ///
    /// # Panics
    ///
    /// Panics if `config.every` is zero.
    pub fn with_gc(mut self, config: GcConfig) -> Self {
        self.hub = self.hub.with_gc(config);
        self
    }

    /// Wraps a hub restored from a checkpoint of a monitor watching
    /// `clauses` (the hub's one tenant, if the stream had started).
    ///
    /// # Errors
    ///
    /// [`BuildError::InvalidState`] if the hub has more than one tenant or
    /// `clauses` do not match the checkpointed clause set.
    pub fn from_hub(
        mut hub: MonitorHub,
        clauses: Vec<LocalPredicate>,
    ) -> Result<OnlineMonitor, BuildError> {
        let group = match hub.tenant_ids().as_slice() {
            [] => None,
            [id] => {
                hub.restore_tenant(id, &Conjunctive::new(clauses.clone()))?;
                hub.group_of(id)
            }
            ids => {
                return Err(BuildError::InvalidState {
                    detail: format!("a monitor has one tenant, the state has {}", ids.len()),
                })
            }
        };
        Ok(OnlineMonitor {
            hub,
            clauses,
            group,
        })
    }

    /// Declares a monitored variable (before its process's first event).
    ///
    /// # Errors
    ///
    /// Propagates [`BuildError`]s from the hub.
    pub fn declare_var(
        &mut self,
        process: usize,
        name: &str,
        initial: Value,
    ) -> Result<VarRef, BuildError> {
        self.hub.declare_var(process, name, initial)
    }

    /// Adds an integer conjunct, validated against the declared type up
    /// front so the closure can never observe a non-integer value.
    ///
    /// # Errors
    ///
    /// [`BuildError::TypeMismatch`] for a non-integer variable,
    /// [`BuildError::LateWatch`] once the stream has started.
    pub fn watch_int(
        &mut self,
        var: VarRef,
        label: impl Into<String>,
        f: impl Fn(i64) -> bool + Send + Sync + 'static,
    ) -> Result<(), BuildError> {
        self.check_type(var, "int")?;
        self.watch_clause(LocalPredicate::int(var, label, f))
    }

    /// Adds a boolean conjunct, validated against the declared type up
    /// front so the closure can never observe a non-boolean value.
    ///
    /// # Errors
    ///
    /// [`BuildError::TypeMismatch`] for a non-boolean variable,
    /// [`BuildError::LateWatch`] once the stream has started.
    pub fn watch_bool(
        &mut self,
        var: VarRef,
        label: impl Into<String>,
        f: impl Fn(bool) -> bool + Send + Sync + 'static,
    ) -> Result<(), BuildError> {
        self.check_type(var, "bool")?;
        self.watch_clause(LocalPredicate::new(vec![var], label, move |vals| {
            f(vals[0].expect_bool())
        }))
    }

    fn check_type(&self, var: VarRef, expected: &'static str) -> Result<(), BuildError> {
        match self.hub.value(var) {
            Some(declared) if declared.type_name() != expected => Err(BuildError::TypeMismatch {
                process: var.process(),
                name: self.hub.var_name(var).to_owned(),
                expected,
                got: declared.type_name(),
            }),
            _ => Ok(()),
        }
    }

    /// Adds a whole local clause (possibly over several variables of one
    /// process) as a conjunct — the bridge from CNF specifications.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::LateWatch`] once the stream has started.
    pub fn watch_clause(&mut self, clause: LocalPredicate) -> Result<(), BuildError> {
        if self.group.is_some() || self.hub.stats().events > 0 {
            return Err(BuildError::LateWatch {
                process: clause.process(),
            });
        }
        self.clauses.push(clause);
        Ok(())
    }

    /// Starts the stream: registers the watched conjuncts as the hub's one
    /// tenant.
    fn start(&mut self) -> Result<(), BuildError> {
        if self.group.is_none() && !self.clauses.is_empty() {
            let source: Vec<&str> = self.clauses.iter().map(LocalPredicate::label).collect();
            let conj = Conjunctive::new(self.clauses.clone());
            self.group = Some(self.hub.add_tenant(TENANT, &conj, &source.join(" && "))?);
        }
        Ok(())
    }

    /// Records a new event with its variable writes.
    ///
    /// # Errors
    ///
    /// Propagates the hub's validation errors
    /// ([`BuildError::TypeMismatch`], [`BuildError::StaleAssignment`]);
    /// on error nothing is recorded.
    pub fn observe(
        &mut self,
        process: usize,
        assignments: &[(VarRef, Value)],
    ) -> Result<EventId, BuildError> {
        self.start()?;
        self.hub.observe(process, assignments)
    }

    /// Records a message between two observed events.
    ///
    /// # Errors
    ///
    /// [`BuildError::CyclicOrder`] for a time-bending message (rejected in
    /// `O(1)` before anything is recorded), plus the builder's own
    /// validations (duplicates, self-messages).
    pub fn message(&mut self, send: EventId, recv: EventId) -> Result<(), BuildError> {
        self.hub.message(send, recv)
    }

    /// Checks the observed history: returns the earliest consistent cut
    /// satisfying all watched conjuncts, or `None`. Consecutive checks
    /// report the same alarm cut only once.
    ///
    /// # Errors
    ///
    /// Fails only where [`observe`](OnlineMonitor::observe) would: when
    /// the watched conjuncts cannot be registered (e.g. a clause reads an
    /// undeclared variable).
    pub fn check(&mut self) -> Result<Option<Cut>, BuildError> {
        self.start()?;
        Ok(self.hub.check_all().pop().map(|r| r.alarm.cut.clone()))
    }

    /// Acknowledges the currently settled alarm: the witnessing candidate
    /// heads are consumed and monitoring continues, watching for the
    /// *next* distinct fault instance. Returns `false` (and does nothing)
    /// if no alarm is currently settled. Un-acknowledged alarm heads pin
    /// the GC floor; see [`MonitorHub::acknowledge`].
    pub fn acknowledge_alarm(&mut self) -> bool {
        self.group.is_some_and(|g| self.hub.acknowledge(g))
    }

    /// Looks up a declared variable by process and name.
    pub fn var(&self, process: usize, name: &str) -> Option<VarRef> {
        self.hub.var(process, name)
    }

    /// The event at `pos` on `process`, or `None` if the position is out
    /// of range or compacted away — how a resuming driver translates trace
    /// positions (which survive a restart) into live event handles.
    pub fn event_at(&self, process: usize, pos: u32) -> Option<EventId> {
        self.hub.event_at(process, pos)
    }

    /// Events observed on `process` so far, including the initial event.
    pub fn events_on(&self, process: usize) -> u32 {
        self.hub.events_on(process)
    }

    /// The causal-stability frontier; see [`MonitorHub::stable_frontier`].
    pub fn stable_frontier(&self) -> Vec<u32> {
        self.hub.stable_frontier()
    }

    /// Events whose storage is currently retained.
    pub fn retained_events(&self) -> u64 {
        self.hub.retained_events()
    }

    /// Deterministic work counters accumulated so far.
    pub fn stats(&self) -> HubStats {
        self.hub.stats()
    }

    /// The hub the monitor runs on (for checkpoint writers).
    pub fn hub(&self) -> &MonitorHub {
        &self.hub
    }

    /// The hub's retained state; restore it with
    /// [`MonitorHub::from_state`] and [`from_hub`](OnlineMonitor::from_hub).
    pub fn export_state(&self) -> HubState {
        self.hub.export_state()
    }

    /// Reference check: materializes the history, slices it with the
    /// offline conjunctive slicer, and searches the slice — no incremental
    /// state, no alarm dedup. Differential tests pin
    /// [`check`](OnlineMonitor::check) to it; costs `O(history)` per call.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::CyclicOrder`] if observed messages formed a
    /// cycle (unreachable for histories assembled through this monitor).
    pub fn check_offline(&self) -> Result<Detection, BuildError> {
        let comp = self.history()?;
        let slice = slice_conjunctive(&comp, &Conjunctive::new(self.clauses.clone()));
        Ok(detect_bfs(&slice, &comp, &LeanTrue, &Limits::none()))
    }

    /// The computation observed so far (for recovery-line analysis or
    /// archiving via the trace format).
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::CyclicOrder`] if observed messages formed a
    /// cycle (unreachable for histories assembled through this monitor).
    pub fn history(&self) -> Result<Computation, BuildError> {
        self.hub.history()
    }
}

/// The residual predicate on the conjunctive slice: every slice cut
/// satisfies the conjunction, so the first reached cut is the alarm.
#[derive(Debug)]
struct LeanTrue;

impl Predicate for LeanTrue {
    fn support(&self) -> ProcSet {
        ProcSet::empty()
    }

    fn eval(&self, _state: &GlobalState<'_>) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Token-ring hand-off monitored live: "no process has the token".
    #[test]
    fn token_in_transit_raises_exactly_one_alarm() {
        let mut m = OnlineMonitor::new(2);
        let t0 = m.declare_var(0, "has_token", Value::Bool(true)).unwrap();
        let t1 = m.declare_var(1, "has_token", Value::Bool(false)).unwrap();
        m.watch_bool(t0, "!t0", |v| !v).unwrap();
        m.watch_bool(t1, "!t1", |v| !v).unwrap();

        assert_eq!(m.check().unwrap(), None);

        let send = m.observe(0, &[(t0, Value::Bool(false))]).unwrap();
        let alarm = m.check().unwrap().expect("token now in transit");
        assert_eq!(alarm.counts(), &[2, 1]);

        // Unchanged history: the same alarm is not re-reported.
        assert_eq!(m.check().unwrap(), None);

        // After the receive the alarm cut still exists in history (the
        // predicate held at a past cut); the monitor reports it once only.
        let recv = m.observe(1, &[(t1, Value::Bool(true))]).unwrap();
        m.message(send, recv).unwrap();
        assert_eq!(m.check().unwrap(), None);
    }

    #[test]
    fn alarm_moves_when_an_earlier_cut_appears() {
        // Two independent processes; the fault needs both flags true.
        let mut m = OnlineMonitor::new(2);
        let a = m.declare_var(0, "f", Value::Bool(false)).unwrap();
        let b = m.declare_var(1, "f", Value::Bool(false)).unwrap();
        m.watch_bool(a, "a", |v| v).unwrap();
        m.watch_bool(b, "b", |v| v).unwrap();

        m.observe(0, &[(a, Value::Bool(true))]).unwrap();
        m.observe(1, &[(b, Value::Bool(false))]).unwrap();
        assert_eq!(m.check().unwrap(), None);
        m.observe(1, &[(b, Value::Bool(true))]).unwrap();
        let alarm = m.check().unwrap().expect("both flags true");
        assert_eq!(alarm.counts(), &[2, 3]);
    }

    #[test]
    fn metrics_variant_reports_search_effort() {
        let mut m = OnlineMonitor::new(1);
        let x = m.declare_var(0, "x", Value::Int(0)).unwrap();
        m.watch_int(x, "x > 1", |v| v > 1).unwrap();
        m.observe(0, &[(x, Value::Int(2))]).unwrap();
        assert!(m.check().unwrap().is_some());
        let stats = m.stats();
        assert_eq!((stats.checks, stats.alarms), (1, 1));
        assert!(stats.check_cost >= 1);
        assert!(m.history().unwrap().num_events() == 2);
    }

    #[test]
    fn messages_constrain_alarms() {
        // The fault cut must be consistent: if p1's flag-up event causally
        // follows p0's flag-down event, no consistent cut has both up.
        let mut m = OnlineMonitor::new(2);
        let a = m.declare_var(0, "f", Value::Bool(true)).unwrap();
        let b = m.declare_var(1, "f", Value::Bool(false)).unwrap();
        m.watch_bool(a, "a", |v| v).unwrap();
        m.watch_bool(b, "b", |v| v).unwrap();

        let down = m.observe(0, &[(a, Value::Bool(false))]).unwrap();
        let up = m.observe(1, &[(b, Value::Bool(true))]).unwrap();
        m.message(down, up).unwrap();
        assert_eq!(m.check().unwrap(), None, "flags were never up together");
    }

    #[test]
    fn incremental_check_matches_offline_reference() {
        // A 3-process script with messages; the incremental alarm must
        // equal the offline slice-and-search verdict at every prefix.
        let mut m = OnlineMonitor::new(3);
        let vars: Vec<VarRef> = (0..3)
            .map(|i| m.declare_var(i, "x", Value::Int(0)).unwrap())
            .collect();
        for &v in &vars {
            m.watch_int(v, "x > 0", |x| x > 0).unwrap();
        }
        let script: [(usize, i64); 9] = [
            (0, 1),
            (1, 0),
            (2, 2),
            (1, 3),
            (0, 0),
            (2, 0),
            (1, 1),
            (0, 2),
            (2, 1),
        ];
        let mut events = Vec::new();
        let mut last = None;
        for (i, &(p, val)) in script.iter().enumerate() {
            let e = m.observe(p, &[(vars[p], Value::Int(val))]).unwrap();
            events.push(e);
            if i == 4 {
                m.message(events[0], events[3]).unwrap();
            }
            if i == 7 {
                m.message(events[2], events[7]).unwrap();
            }
            let offline = m.check_offline().unwrap();
            if let Some(cut) = m.check().unwrap() {
                assert_eq!(Some(&cut), offline.found.as_ref(), "prefix {i}");
                last = Some(cut);
            } else {
                // No *new* alarm: either nothing exists offline, or the
                // previously reported cut is still the verdict.
                assert_eq!(offline.found, last, "prefix {i}");
            }
        }
    }

    #[test]
    fn warm_checks_allocate_no_cuts() {
        let mut m = OnlineMonitor::new(2);
        let a = m.declare_var(0, "x", Value::Int(0)).unwrap();
        let b = m.declare_var(1, "x", Value::Int(0)).unwrap();
        m.watch_int(a, "x > 0", |v| v > 0).unwrap();
        m.watch_int(b, "x > 0", |v| v > 0).unwrap();
        // Warm up: first alarm materializes the scratch and dedup cuts.
        m.observe(0, &[(a, Value::Int(1))]).unwrap();
        m.observe(1, &[(b, Value::Int(1))]).unwrap();
        m.check().unwrap();
        // Steady state: every observe+check must run cut-allocation-free
        // (2 processes ⇒ inline cuts; the delta search reuses scratch).
        let before = slicing_computation::cut_heap_allocs();
        for i in 0..200i64 {
            m.observe(
                (i % 2) as usize,
                &[(if i % 2 == 0 { a } else { b }, Value::Int(i))],
            )
            .unwrap();
            m.check().unwrap();
        }
        assert_eq!(
            slicing_computation::cut_heap_allocs() - before,
            0,
            "warm monitor checks must not allocate cut storage"
        );
    }

    #[test]
    fn check_cost_is_flat_in_history_length() {
        // Feed k events, checking after each; total probe work must stay
        // linear in k (amortized O(1) per event), not quadratic.
        let mut m = OnlineMonitor::new(3);
        let vars: Vec<VarRef> = (0..3)
            .map(|i| m.declare_var(i, "x", Value::Int(0)).unwrap())
            .collect();
        for &v in &vars {
            m.watch_int(v, "x > 0", |x| x > 0).unwrap();
        }
        let k = 600i64;
        for i in 0..k {
            let p = (i % 3) as usize;
            // Alternate satisfying / violating values to keep queues busy.
            m.observe(p, &[(vars[p], Value::Int(if i % 5 == 0 { 0 } else { 1 }))])
                .unwrap();
            m.check().unwrap();
        }
        let stats = m.stats();
        assert_eq!(stats.events as i64, k);
        assert_eq!(stats.checks as i64, k);
        // Generous constant: with 3 processes, each check is a handful of
        // probes; anything quadratic would blow past this immediately.
        assert!(
            stats.check_cost < 20 * k as u64,
            "check cost {} not linear in {} events",
            stats.check_cost,
            k
        );
    }

    #[test]
    fn errors_do_not_poison_the_monitor() {
        let mut m = OnlineMonitor::new(2);
        let a = m.declare_var(0, "x", Value::Int(0)).unwrap();
        let b = m.declare_var(1, "x", Value::Int(0)).unwrap();
        // A mistyped watch is rejected up front …
        assert!(matches!(
            m.watch_bool(a, "x", |v| v),
            Err(BuildError::TypeMismatch { .. })
        ));
        m.watch_int(a, "x > 0", |v| v > 0).unwrap();
        m.watch_int(b, "x > 0", |v| v > 0).unwrap();
        // … a mistyped observation is rejected without panicking …
        let err = m.observe(0, &[(a, Value::Bool(true))]).unwrap_err();
        assert!(matches!(err, BuildError::TypeMismatch { .. }));
        // … a watch after the stream started is rejected without
        // panicking, even on a process with no events yet …
        let e0 = m.observe(0, &[(a, Value::Int(1))]).unwrap();
        for var in [a, b] {
            assert!(matches!(
                m.watch_int(var, "late", |v| v > 1),
                Err(BuildError::LateWatch { .. })
            ));
        }
        // … and a cyclic message is rejected before corrupting history.
        let e1 = m.observe(1, &[(b, Value::Int(1))]).unwrap();
        m.message(e0, e1).unwrap();
        let e2 = m.observe(1, &[(b, Value::Int(2))]).unwrap();
        assert_eq!(m.message(e2, e0), Err(BuildError::CyclicOrder));
        // The monitor still detects on the clean history.
        assert!(m.check().unwrap().is_some());
        assert_eq!(m.stats().messages, 1);
    }

    /// Drives a 2-process workload with periodic candidates, bidirectional
    /// messages (so the stability frontier advances on both processes),
    /// and an acknowledge after every alarm. Returns the verdict stream.
    fn drive_rounds(m: &mut OnlineMonitor, rounds: usize) -> Vec<Option<Cut>> {
        let a = m.var(0, "x").unwrap();
        let b = m.var(1, "x").unwrap();
        let (mut ea, mut eb) = (Vec::new(), Vec::new());
        let mut verdicts = Vec::new();
        for i in 0..rounds {
            let va = if i % 5 == 0 { 1 } else { -1 };
            let vb = if i % 7 == 0 { 1 } else { -1 };
            ea.push(m.observe(0, &[(a, Value::Int(va))]).unwrap());
            eb.push(m.observe(1, &[(b, Value::Int(vb))]).unwrap());
            if i % 4 == 0 {
                m.message(ea[i], eb[i]).unwrap();
            }
            if i % 4 == 2 {
                m.message(eb[i - 1], ea[i]).unwrap();
            }
            let v = m.check().unwrap();
            if v.is_some() {
                assert!(m.acknowledge_alarm());
            }
            verdicts.push(v);
        }
        verdicts
    }

    fn watched_pair(m: &mut OnlineMonitor) {
        let a = m.declare_var(0, "x", Value::Int(0)).unwrap();
        let b = m.declare_var(1, "x", Value::Int(0)).unwrap();
        m.watch_int(a, "x > 0", |v| v > 0).unwrap();
        m.watch_int(b, "x > 0", |v| v > 0).unwrap();
    }

    #[test]
    fn gc_preserves_every_verdict_while_bounding_retention() {
        let mut plain = OnlineMonitor::new(2);
        let mut gc = OnlineMonitor::new(2).with_gc(GcConfig { lag: 4, every: 8 });
        watched_pair(&mut plain);
        watched_pair(&mut gc);

        let rounds = 200;
        assert_eq!(
            drive_rounds(&mut plain, rounds),
            drive_rounds(&mut gc, rounds)
        );

        // Observable behavior is untouched by compaction...
        let (p, g) = (plain.stats(), gc.stats());
        assert_eq!(
            (p.events, p.messages, p.checks, p.alarms),
            (g.events, g.messages, g.checks, g.alarms)
        );
        assert_eq!(p.check_cost, g.check_cost, "GC must not change settle work");

        // ...while storage is: the un-GC'd monitor holds the whole run,
        // the GC'd one only the unstable suffix.
        assert_eq!(plain.retained_events(), 2 * (rounds as u64 + 1));
        assert!(g.compactions > 0 && g.dropped_events > 0);
        assert!(
            gc.retained_events() <= 60,
            "retained {} events despite GC",
            gc.retained_events()
        );
        assert!(g.retained_peak < plain.retained_events());
        let frontier = gc.stable_frontier();
        assert!(frontier.iter().all(|&g| g > 1), "both processes stabilized");
    }

    #[test]
    fn unacknowledged_alarms_pin_retention_and_acks_release_it() {
        let mut m = OnlineMonitor::new(2).with_gc(GcConfig { lag: 2, every: 4 });
        let a = m.declare_var(0, "x", Value::Int(1)).unwrap();
        let b = m.declare_var(1, "x", Value::Int(1)).unwrap();
        m.watch_int(a, "x > 0", |v| v > 0).unwrap();
        m.watch_int(b, "x > 0", |v| v > 0).unwrap();

        // Every event is a candidate and no alarm is acknowledged: the
        // alarm heads pin the GC floor at the start of history.
        let (mut ea, mut eb) = (Vec::new(), Vec::new());
        for i in 0..40usize {
            ea.push(m.observe(0, &[(a, Value::Int(1))]).unwrap());
            eb.push(m.observe(1, &[(b, Value::Int(1))]).unwrap());
            if i % 2 == 0 {
                m.message(ea[i], eb[i]).unwrap();
            } else {
                m.message(eb[i - 1], ea[i]).unwrap();
            }
            m.check().unwrap();
        }
        let pinned = m.retained_events();
        assert!(pinned >= 80, "nothing should be dropped while heads pin");

        // Handle the backlog: each ack consumes one fault instance, and
        // the following check settles the next one (if any) so the loop
        // keeps consuming until some queue runs dry.
        while m.acknowledge_alarm() {
            m.check().unwrap();
        }
        // A little more (non-candidate) traffic lets the stability
        // frontier catch up and GC reclaim the acknowledged history.
        for i in 40..60usize {
            ea.push(m.observe(0, &[(a, Value::Int(0))]).unwrap());
            eb.push(m.observe(1, &[(b, Value::Int(0))]).unwrap());
            if i % 2 == 0 {
                m.message(ea[i], eb[i]).unwrap();
            } else {
                m.message(eb[i - 1], ea[i]).unwrap();
            }
            m.check().unwrap();
        }
        let after = m.retained_events();
        assert!(
            after < pinned / 4,
            "acknowledged history must be reclaimed: {pinned} -> {after}"
        );
    }

    /// A monitor's exported state restores through the hub, and the hub's
    /// `from_state` rejects every structural corruption of it.
    #[test]
    fn from_state_rejects_corrupt_monitor_state() {
        let mut m = OnlineMonitor::new(2).with_gc(GcConfig { lag: 4, every: 8 });
        watched_pair(&mut m);
        drive_rounds(&mut m, 30);
        let good = m.export_state();
        let clauses = m.clauses.clone();
        let restored = OnlineMonitor::from_hub(MonitorHub::from_state(&good).unwrap(), clauses);
        assert_eq!(restored.unwrap().export_state(), good);

        let invalid = |s: &HubState| {
            matches!(
                MonitorHub::from_state(s),
                Err(BuildError::InvalidState { .. })
            )
        };
        let mut s = good.clone();
        s.slots[0].candidates.push(10_000); // position past the end of history
        assert!(invalid(&s));

        let mut s = good.clone();
        s.groups[0].dirty.pop(); // arity mismatch
        assert!(invalid(&s));

        let mut s = good.clone();
        s.gc = Some(GcConfig { lag: 4, every: 0 });
        assert!(invalid(&s));

        let mut s = good;
        s.groups[0].current_alarm = Some(vec![1, 1, 1]); // wrong arity
        assert!(invalid(&s));
    }
}
