//! Differential lockdown for the predicate-multiplexing hub: every one of
//! N tenants on one [`MonitorHub`] must raise exactly the alarms offline
//! slice-then-search finds on the history snapshot — at every check, with
//! late messages re-timing the history — while the hub does strictly less
//! total work than N standalone [`OnlineMonitor`]s. Plus the degradation
//! contract: a laggard subscriber loses alarms, never the ingestion path.

use std::collections::HashSet;
use std::sync::Arc;

use slicing_computation::{BuildError, Cut, Value, VarRef};
use slicing_core::PredicateSpec;
use slicing_detect::{detect_with_slicing, Limits, MonitorHub, OnlineMonitor};
use slicing_observe::{Level, MemoryRecorder};
use slicing_predicates::{Conjunctive, LocalPredicate};

/// Deterministic generator, same recurrence the inline equivalence tests
/// use, so failures reproduce bit-for-bit.
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

const PROCS: usize = 6;

/// The clause pool: one threshold clause per (process, parity) pair.
/// Tenants draw pairs of clauses from here, so distinct tenants overlap
/// heavily — the regime the hub is built for.
fn clause_pool(vars: &[VarRef]) -> Vec<(String, LocalPredicate)> {
    let mut pool = Vec::new();
    for (p, &v) in vars.iter().enumerate() {
        pool.push((
            format!("x@{p} > 3"),
            LocalPredicate::int(v, format!("x@{p} > 3"), |x| x > 3),
        ));
        pool.push((
            format!("x@{p} == 0"),
            LocalPredicate::int(v, format!("x@{p} == 0"), |x| x == 0),
        ));
    }
    pool
}

/// Tenant `i` watches clauses `i % pool` and `(i * 5 + 3) % pool` (distinct
/// processes forced by construction below).
fn tenant_clauses(i: usize, pool_len: usize) -> (usize, usize) {
    let a = i % pool_len;
    let mut b = (i * 5 + 3) % pool_len;
    // A conjunctive predicate may not read two clauses of the same
    // process slot here — keep the pair on distinct processes so the
    // group key has width 2.
    while b / 2 == a / 2 {
        b = (b + 2) % pool_len;
    }
    (a, b)
}

/// One recorded step of the shared stream.
enum Step {
    Event { process: usize, value: i64 },
    Msg { from: usize, to: usize },
}

/// The shared deterministic stream over `procs` processes: events on
/// random processes with values in `0..6`, a cross-process message every
/// few steps (index pairs into the event log), so GC frontiers and causal
/// joins are exercised. With `late`, every few steps also delivers a
/// message between two *older* events, re-timing history the hub has
/// already settled.
fn build_stream(procs: usize, seed: u64, steps: usize, late: bool) -> Vec<Step> {
    let mut rng = XorShift(seed);
    let mut stream = Vec::with_capacity(steps);
    let mut event_procs: Vec<usize> = Vec::new();
    let mut sent = HashSet::new();
    for s in 0..steps {
        let process = rng.below(procs as u64) as usize;
        stream.push(Step::Event {
            process,
            value: rng.below(6) as i64,
        });
        event_procs.push(process);
        let mut offer = |from: usize, to: usize, stream: &mut Vec<Step>| {
            // A message must cross processes and is sent once; skip bad
            // draws rather than redrawing so the stream stays a pure
            // function of the seed. Observation order is a topological
            // order, so forward messages never form a cycle.
            if event_procs[from] != event_procs[to] && sent.insert((from, to)) {
                stream.push(Step::Msg { from, to });
            }
        };
        if s % 4 == 3 && event_procs.len() > 1 {
            let to = event_procs.len() - 1;
            let from = rng.below(to as u64) as usize;
            offer(from, to, &mut stream);
        }
        if late && s % 7 == 6 && event_procs.len() > 2 {
            let to = 1 + rng.below(event_procs.len() as u64 - 2) as usize;
            let from = rng.below(to as u64) as usize;
            offer(from, to, &mut stream);
        }
    }
    stream
}

/// A hub with `tenants` tenants drawn from the clause pool; returns it
/// with the variables and each tenant's predicate.
fn tenant_hub(tenants: usize) -> (MonitorHub, Vec<VarRef>, Vec<Conjunctive>) {
    let mut hub = MonitorHub::new(PROCS);
    let vars: Vec<VarRef> = (0..PROCS)
        .map(|p| hub.declare_var(p, "x", Value::Int(0)).unwrap())
        .collect();
    let pool = clause_pool(&vars);
    let mut preds = Vec::new();
    for i in 0..tenants {
        let (a, b) = tenant_clauses(i, pool.len());
        let pred = Conjunctive::new(vec![pool[a].1.clone(), pool[b].1.clone()]);
        let source = format!("{} && {}", pool[a].0, pool[b].0);
        hub.add_tenant(&format!("t{i}"), &pred, &source).unwrap();
        preds.push(pred);
    }
    (hub, vars, preds)
}

struct HubRun {
    events: u64,
    clause_evals: u64,
    total_check_cost: u64,
}

fn run_hub(tenants: usize, stream: &[Step]) -> HubRun {
    let (mut hub, vars, _) = tenant_hub(tenants);
    let registration_evals = hub.stats().clause_evals;
    let mut event_ids = Vec::new();
    for step in stream {
        match step {
            Step::Event { process, value } => {
                let e = hub
                    .observe(*process, &[(vars[*process], Value::Int(*value))])
                    .unwrap();
                event_ids.push(e);
            }
            Step::Msg { from, to } => {
                hub.message(event_ids[*from], event_ids[*to]).unwrap();
            }
        }
        hub.check_all();
    }
    let stats = hub.stats();
    HubRun {
        events: stats.events,
        clause_evals: stats.clause_evals - registration_evals,
        total_check_cost: stats.check_cost,
    }
}

struct MonitorRun {
    events: u64,
    check_cost: u64,
}

fn run_monitor(tenant: usize, stream: &[Step]) -> MonitorRun {
    let mut m = OnlineMonitor::new(PROCS);
    let vars: Vec<VarRef> = (0..PROCS)
        .map(|p| m.declare_var(p, "x", Value::Int(0)).unwrap())
        .collect();
    let pool = clause_pool(&vars);
    let (a, b) = tenant_clauses(tenant, pool.len());
    m.watch_clause(pool[a].1.clone()).unwrap();
    m.watch_clause(pool[b].1.clone()).unwrap();
    let mut event_ids = Vec::new();
    for step in stream {
        match step {
            Step::Event { process, value } => {
                let e = m
                    .observe(*process, &[(vars[*process], Value::Int(*value))])
                    .unwrap();
                event_ids.push(e);
            }
            Step::Msg { from, to } => {
                m.message(event_ids[*from], event_ids[*to]).unwrap();
            }
        }
        m.check().unwrap();
    }
    let stats = m.stats();
    MonitorRun {
        events: stats.events,
        check_cost: stats.check_cost,
    }
}

/// Replays `stream` through `hub`, whose tenant `t{i}` watches
/// `preds[i]`, observing each value minus `shift`, and checks every
/// tenant against offline slice-then-search on the hub's history snapshot
/// after every step. A fresh alarm must be the offline least satisfying
/// cut; silence means the offline verdict is still the tenant's last
/// alarm — or was retracted by a late message (message additions remove
/// consistent cuts, so `possibly` is not monotone under them). A
/// *different* satisfying cut must be reported. Returns the alarms
/// checked and the late messages delivered; `run` names the run in
/// failures.
fn check_against_offline(
    run: &str,
    mut hub: MonitorHub,
    vars: &[VarRef],
    preds: Vec<Conjunctive>,
    stream: &[Step],
    shift: i64,
) -> (usize, usize) {
    let specs: Vec<PredicateSpec> = preds.into_iter().map(PredicateSpec::conjunctive).collect();
    let tenants = specs.len();
    let mut last: Vec<Option<Cut>> = vec![None; tenants];
    let (mut event_ids, mut alarms, mut late) = (Vec::new(), 0, 0);
    for (step, s) in stream.iter().enumerate() {
        match s {
            Step::Event { process, value } => {
                let e = hub
                    .observe(*process, &[(vars[*process], Value::Int(value - shift))])
                    .unwrap();
                event_ids.push(e);
            }
            Step::Msg { from, to } => {
                late += usize::from(*to + 1 < event_ids.len());
                match hub.message(event_ids[*from], event_ids[*to]) {
                    Ok(()) | Err(BuildError::DuplicateMessage { .. }) => {}
                    Err(e) => panic!("{run}, step {step}: forward message rejected: {e}"),
                }
            }
        }
        let mut fresh: Vec<Option<Cut>> = vec![None; tenants];
        for report in hub.check_all() {
            for id in &report.tenants {
                fresh[id[1..].parse::<usize>().unwrap()] = Some(report.alarm.cut.clone());
            }
        }
        let history = hub.history().unwrap();
        for i in 0..tenants {
            let offline = detect_with_slicing(&history, &specs[i], &Limits::none())
                .search
                .found;
            match fresh[i].take() {
                Some(cut) => {
                    assert_eq!(Some(&cut), offline.as_ref(), "{run}: t{i}, step {step}");
                    last[i] = Some(cut);
                    alarms += 1;
                }
                None => assert!(
                    offline.is_none() || offline == last[i],
                    "{run}: t{i}, step {step}: offline verdict moved to {offline:?} \
                     without an alarm"
                ),
            }
        }
    }
    (alarms, late)
}

/// The main differential: at every check of a stream with late
/// messages, each of 24 two-clause tenants multiplexed on one hub agrees
/// with offline slice-then-search.
#[test]
fn hub_alarms_match_offline_slice_then_search() {
    const TENANTS: usize = 24;
    let stream = build_stream(PROCS, 0x5eed_cafe, 240, true);
    let (hub, vars, preds) = tenant_hub(TENANTS);
    let (alarms, late) = check_against_offline("pairs", hub, &vars, preds, &stream, 0);
    assert!(alarms > TENANTS, "only {alarms} alarms: harness too weak");
    assert!(late > 10, "only {late} late messages: harness too weak");
}

/// A hub of `procs` processes whose tenants watch `x@p > 0` on 3, 4 and
/// 6 processes each: per width, one tenant from process 0 and one from
/// the last process, spread evenly over the roster.
fn wide_hub(procs: usize) -> (MonitorHub, Vec<VarRef>, Vec<Conjunctive>) {
    let mut hub = MonitorHub::new(procs);
    let vars: Vec<VarRef> = (0..procs)
        .map(|p| hub.declare_var(p, "x", Value::Int(0)).unwrap())
        .collect();
    let mut preds = Vec::new();
    for width in [3, 4, 6] {
        for first in [0, procs - 1] {
            let watched: Vec<usize> = (0..width)
                .map(|j| (first + j * procs / width) % procs)
                .collect();
            let clauses = watched
                .iter()
                .map(|&p| LocalPredicate::int(vars[p], format!("x@{p} > 0"), |x| x > 0))
                .collect();
            let source = watched
                .iter()
                .map(|p| format!("x@{p} > 0"))
                .collect::<Vec<_>>()
                .join(" && ");
            let pred = Conjunctive::new(clauses);
            hub.add_tenant(&format!("t{}", preds.len()), &pred, &source)
                .unwrap();
            preds.push(pred);
        }
    }
    (hub, vars, preds)
}

/// Wide predicates pass the same check, with and without late messages:
/// tenants over 3, 4 and 6 processes, whose clauses hold about one event
/// in three (stream values shifted down by 3). The candidate-elimination
/// settle compares every pair of heads, so three or more watched
/// processes exercise orders of elimination that pairs cannot. The
/// 17-process runs cross the 16 processes a cut stores inline.
#[test]
fn wide_tenants_match_offline_slice_then_search() {
    let (mut alarms, mut late) = (0, 0);
    for (procs, seeds, steps) in [(6, 0..8, 150), (17, 0..1, 300)] {
        for seed in seeds {
            for with_late in [false, true] {
                let stream = build_stream(procs, 0x5eed_cafe + seed, steps, with_late);
                let (hub, vars, preds) = wide_hub(procs);
                let run = format!("{procs} procs, seed {seed}, late {with_late}");
                let (a, l) = check_against_offline(&run, hub, &vars, preds, &stream, 3);
                alarms += a;
                late += l;
            }
        }
    }
    assert!(alarms > 100, "only {alarms} alarms: harness too weak");
    assert!(late > 100, "only {late} late messages: harness too weak");
}

/// The sharing claim, as a strict inequality on deterministic counters:
/// the hub's total work (one shared event ingest + one eval per distinct
/// clause + per-group settles) is strictly below the sum the same tenants
/// cost as independent monitors (N ingests + N× clause evals + N settles).
#[test]
fn multiplexed_work_is_strictly_below_the_independent_sum() {
    const TENANTS: usize = 24;
    let stream = build_stream(PROCS, 0x5eed_cafe, 400, false);
    let hub = run_hub(TENANTS, &stream);
    let mut independent_total = 0u64;
    let mut shared_settles = 0u64;
    for i in 0..TENANTS {
        let solo = run_monitor(i, &stream);
        // A standalone monitor pays its event ingest (with one clause
        // evaluation per watched clause folded into it) plus its settle
        // probes.
        independent_total += solo.events + 2 * solo.events / (PROCS as u64) + solo.check_cost;
        shared_settles += solo.check_cost;
    }
    // Distinct groups < tenants (the pool is smaller than the roster), so
    // the hub settles each shared group once where independent monitors
    // settle it once per tenant.
    let hub_total = hub.events + hub.clause_evals + hub.total_check_cost;
    assert!(
        hub.total_check_cost < shared_settles,
        "shared settles not deduplicated: hub {} vs independent {}",
        hub.total_check_cost,
        shared_settles
    );
    assert!(
        hub_total < independent_total,
        "multiplexing cost {hub_total} is not below the independent sum {independent_total}"
    );
}

/// The degradation contract: a subscriber that never drains its bounded
/// channel loses alarms past the channel capacity — counted, not
/// blocking — while a healthy subscriber on the same group keeps
/// receiving, and ingestion completes regardless.
#[test]
fn laggard_subscribers_drop_alarms_without_blocking_ingestion() {
    let rec = Arc::new(MemoryRecorder::new(Level::Trace));
    let _guard = slicing_observe::scoped(rec.clone());

    let mut hub = MonitorHub::new(2);
    let a = hub.declare_var(0, "x", Value::Int(0)).unwrap();
    let b = hub.declare_var(1, "x", Value::Int(0)).unwrap();
    let pred = Conjunctive::new(vec![
        LocalPredicate::int(a, "x@0 > 0", |v| v > 0),
        LocalPredicate::int(b, "x@1 > 0", |v| v > 0),
    ]);
    hub.add_tenant("laggard", &pred, "p").unwrap();
    hub.add_tenant("healthy", &pred, "p").unwrap();
    let laggard_rx = hub.subscribe("laggard", 2).unwrap();
    let healthy_rx = hub.subscribe("healthy", 64).unwrap();

    // Each round raises both processes then resets them, and the hub is
    // acknowledged, so every round settles a fresh distinct alarm.
    const ROUNDS: u64 = 10;
    for _ in 0..ROUNDS {
        hub.observe(0, &[(a, Value::Int(1))]).unwrap();
        hub.observe(1, &[(b, Value::Int(1))]).unwrap();
        let reports = hub.check_all();
        assert_eq!(reports.len(), 1, "each round must alarm");
        let group = reports[0].group;
        hub.acknowledge(group);
        hub.observe(0, &[(a, Value::Int(0))]).unwrap();
        hub.observe(1, &[(b, Value::Int(0))]).unwrap();
        hub.check_all();
    }

    // Ingestion finished — every event got in regardless of the laggard.
    assert_eq!(hub.stats().events, ROUNDS * 4);
    // The healthy subscriber saw every alarm; the laggard only holds its
    // channel capacity.
    assert_eq!(healthy_rx.try_iter().count() as u64, ROUNDS);
    assert_eq!(laggard_rx.try_iter().count(), 2);
    let dropped = ROUNDS - 2;
    assert_eq!(hub.stats().fanout_dropped, dropped);
    assert_eq!(hub.stats().fanout_sent, ROUNDS + 2);
    // The degradation is observable: `serve.tenants.dropped` counts every
    // alarm shed to a full channel.
    assert_eq!(rec.counter_total("serve.tenants.dropped"), dropped);
}

/// Dead subscribers (receiver dropped) are pruned instead of counted as
/// laggards: fan-out neither blocks nor inflates the drop counter.
#[test]
fn disconnected_subscribers_are_pruned_silently() {
    let rec = Arc::new(MemoryRecorder::new(Level::Trace));
    let _guard = slicing_observe::scoped(rec.clone());

    let mut hub = MonitorHub::new(2);
    let a = hub.declare_var(0, "x", Value::Int(0)).unwrap();
    let b = hub.declare_var(1, "x", Value::Int(0)).unwrap();
    let pred = Conjunctive::new(vec![
        LocalPredicate::int(a, "x@0 > 0", |v| v > 0),
        LocalPredicate::int(b, "x@1 > 0", |v| v > 0),
    ]);
    hub.add_tenant("ghost", &pred, "p").unwrap();
    drop(hub.subscribe("ghost", 1).unwrap());

    hub.observe(0, &[(a, Value::Int(1))]).unwrap();
    hub.observe(1, &[(b, Value::Int(1))]).unwrap();
    assert_eq!(hub.check_all().len(), 1);
    assert_eq!(hub.stats().fanout_dropped, 0);
    assert_eq!(rec.counter_total("serve.tenants.dropped"), 0);
}
