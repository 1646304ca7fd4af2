//! Tenant sweep for the predicate-multiplexing hub: the same fixed-seed
//! stream — eight processes, churning integer values, cross-process
//! messages — is served to 1, 16, and 256 tenants whose two-clause
//! conjunctive predicates are drawn from a bounded pool, so large rosters
//! overlap heavily. The committed baseline is `BENCH_serve.json`, a
//! `slicing.bench/v1` table.
//!
//! ```text
//! cargo run --release -p slicing-bench --bin table_serve -- \
//!     [--quick] [--procs 8] [--events 120000] [--out BENCH_serve.json]
//! ```
//!
//! Every reported number is a **deterministic counter** — a pure function
//! of the seed and flags, identical on every machine. Per-event work
//! (`cost_per_event_milli`) is clause evaluations plus settle probes per
//! event, ×1000; `first_quarter_milli` and `last_quarter_milli` are the
//! same figure over the first and last quarter of the stream. The sweep
//! asserts its headline claims in-process before writing the artifact:
//!
//! - **Sublinear cost growth.** Per-event work for 256 tenants stays
//!   under `PRED_SHAPES`× (24×) the single-tenant cost — it tracks the
//!   number of distinct predicates, never the roster size — because
//!   shared sub-slices are keyed once per distinct clause bundle, not
//!   once per tenant.
//! - **Bounded structure.** Distinct groups saturate at the predicate
//!   pool size: 256 tenants fold onto the same few dozen shared groups.
//! - **Flat cost in history length.** Every roster's last quarter costs
//!   at most 25% (plus one probe) more per event than its first, on a
//!   history four times longer, and the warm hub never allocates cut
//!   storage.
//!
//! Wall-clock is intentionally absent: this table gates the *work* of the
//! multiplexer, never time.

use slicing_computation::{cut_heap_allocs, Value, VarRef};
use slicing_detect::{HubStats, MonitorHub};
use slicing_observe::diff::{exact, gated, BenchTable, Field};
use slicing_predicates::{Conjunctive, LocalPredicate};

/// Distinct predicate shapes tenants draw from; 256 tenants spread over
/// this many groups, so group structure saturates early in the sweep.
const PRED_SHAPES: usize = 24;

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

enum Step {
    Event { process: usize, value: i64 },
    Msg { from: usize, to: usize },
}

/// The shared stream: one event per step on a seeded process, and every
/// fourth step a message from an older event into the fresh one (skipped
/// when the draw lands on the same process, keeping the stream a pure
/// function of the seed).
fn build_stream(procs: usize, steps: u64) -> Vec<Step> {
    let mut rng = XorShift(0x5e7e_bead_u64 | 1);
    let mut stream = Vec::with_capacity(steps as usize);
    let mut event_procs: Vec<usize> = Vec::new();
    for s in 0..steps {
        let process = rng.below(procs as u64) as usize;
        stream.push(Step::Event {
            process,
            value: rng.below(6) as i64,
        });
        event_procs.push(process);
        if s % 4 == 3 && event_procs.len() > 1 {
            let to = event_procs.len() - 1;
            let from = rng.below(to as u64) as usize;
            if event_procs[from] != event_procs[to] {
                stream.push(Step::Msg { from, to });
            }
        }
    }
    stream
}

/// The clause pool: three threshold clauses per process. Each predicate
/// shape pairs two clauses on distinct processes.
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
        pool.push((
            format!("x@{p} % 2 == 1"),
            LocalPredicate::int(v, format!("x@{p} % 2 == 1"), |x| x % 2 == 1),
        ));
    }
    pool
}

/// Tenant `i` watches shape `i % PRED_SHAPES`: a deterministic clause
/// pair on distinct processes. The multipliers are coprime to the pool
/// size, so all `PRED_SHAPES` shapes are distinct.
fn shape_clauses(shape: usize, pool_len: usize) -> (usize, usize) {
    let a = (shape * 5) % pool_len;
    let mut b = (shape * 11 + 7) % pool_len;
    while b / 3 == a / 3 {
        b = (b + 3) % pool_len;
    }
    (a, b)
}

/// Per-event multiplexing work between two stats snapshots, ×1000:
/// every clause evaluation plus every settle probe. The event ingest
/// itself is tenant-independent and excluded.
fn cost_milli(cur: &HubStats, prev: &HubStats) -> u64 {
    let work = cur.clause_evals - prev.clause_evals + cur.check_cost - prev.check_cost;
    work * 1000 / (cur.events - prev.events).max(1)
}

/// Serves the shared stream to `tenants` tenants on one hub and returns
/// the sweep row.
fn run_sweep(procs: usize, tenants: u64, stream: &[Step]) -> Vec<Field> {
    let allocs_before = cut_heap_allocs();
    let mut hub = MonitorHub::new(procs);
    let vars: Vec<VarRef> = (0..procs)
        .map(|p| hub.declare_var(p, "x", Value::Int(0)).expect("fresh var"))
        .collect();
    let pool = clause_pool(&vars);
    for i in 0..tenants {
        let (a, b) = shape_clauses(i as usize % PRED_SHAPES, pool.len());
        let pred = Conjunctive::new(vec![pool[a].1.clone(), pool[b].1.clone()]);
        let source = format!("{} && {}", pool[a].0, pool[b].0);
        hub.add_tenant(&format!("t{i}"), &pred, &source)
            .expect("tenant registers");
    }
    // Registration evaluates each clause on the initial state; that work
    // is not per-event, so every figure starts from here.
    let start = hub.stats();
    let events = stream
        .iter()
        .filter(|s| matches!(s, Step::Event { .. }))
        .count() as u64;
    let quarter = events / 4;
    let (mut first_quarter, mut last_quarter_start) = (start, start);
    let mut event_ids = Vec::new();
    for step in stream {
        match step {
            Step::Event { process, value } => {
                let seen = event_ids.len() as u64;
                if seen == quarter {
                    first_quarter = hub.stats();
                }
                if seen == events - quarter {
                    last_quarter_start = hub.stats();
                }
                let e = hub
                    .observe(*process, &[(vars[*process], Value::Int(*value))])
                    .expect("typed observation");
                event_ids.push(e);
            }
            Step::Msg { from, to } => {
                hub.message(event_ids[*from], event_ids[*to])
                    .expect("acyclic by construction");
            }
        }
        hub.check_all();
    }
    let stats = hub.stats();
    vec![
        exact("tenants", tenants),
        gated("groups", hub.group_count() as u64),
        gated("slots", hub.slot_count() as u64),
        exact("events", stats.events),
        exact("messages", stats.messages),
        exact("alarms", stats.alarms),
        gated("check_cost", stats.check_cost),
        gated("clause_evals", stats.clause_evals - start.clause_evals),
        gated("delta_cuts", stats.delta_cuts),
        gated("cost_per_event_milli", cost_milli(&stats, &start)),
        gated("first_quarter_milli", cost_milli(&first_quarter, &start)),
        gated(
            "last_quarter_milli",
            cost_milli(&stats, &last_quarter_start),
        ),
        gated("heap_allocs", cut_heap_allocs() - allocs_before),
    ]
}

fn main() {
    let mut quick = false;
    let mut procs: usize = 8;
    let mut events: u64 = 120_000;
    let mut out = String::from("BENCH_serve.json");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--quick" => quick = true,
            "--procs" => procs = it.next().expect("--procs N").parse().expect("integer"),
            "--events" => events = it.next().expect("--events N").parse().expect("integer"),
            "--out" => out = it.next().expect("--out PATH"),
            other => panic!("unknown flag {other}"),
        }
    }
    if quick {
        events = events.min(8_000);
    }
    assert!(procs >= 4, "the sweep needs at least four processes");

    let stream = build_stream(procs, events);
    let sweep: &[u64] = &[1, 16, 256];
    let mut table = BenchTable::new("table_serve")
        .param("quick", quick)
        .param("procs", procs as u64)
        .param("events", events);
    for &n in sweep {
        table.row(format!("tenants{n}"), run_sweep(procs, n, &stream));
    }
    let rows: Vec<String> = table.row_names().map(str::to_owned).collect();
    let cost = |row: &str| table.u64(row, "cost_per_event_milli");
    let (one, big) = (&rows[0], &rows[rows.len() - 1]);

    // Headline claim 1: per-event work scales with the number of distinct
    // predicate shapes (the structure), never the roster size — a 256×
    // roster costs less than PRED_SHAPES× (24×) the single-tenant work,
    // an order of magnitude under linear.
    assert!(
        cost(big) < cost(one) * PRED_SHAPES as u64,
        "multiplexing cost is not sublinear: {big} at {} milli/event vs {one} at {}",
        cost(big),
        cost(one)
    );
    // Per-event cost grows with roster size (more distinct groups), it
    // just grows sublinearly.
    for pair in rows.windows(2) {
        assert!(
            cost(&pair[0]) <= cost(&pair[1]),
            "cost should be monotone in tenants: {} then {}",
            cost(&pair[0]),
            cost(&pair[1])
        );
    }
    // Headline claim 2: group structure saturates at the predicate pool.
    let (groups, tenants) = (table.u64(big, "groups"), table.u64(big, "tenants"));
    assert!(
        groups <= PRED_SHAPES as u64 && groups < tenants,
        "groups did not saturate: {groups} groups for {tenants} tenants"
    );
    for row in &rows {
        assert!(
            table.u64(row, "alarms") > 0,
            "{row} never alarmed — workload too weak"
        );
        // Headline claim 3: per-event work is flat in history length. The
        // last quarter watches a history four times longer than the
        // first; an O(history) check would scale its cost by as much.
        // Allow 25% plus one probe of absolute slack.
        let (first, last) = (
            table.u64(row, "first_quarter_milli"),
            table.u64(row, "last_quarter_milli"),
        );
        assert!(
            last <= first * 125 / 100 + 1000,
            "{row}: per-event work grew with history length: {first} -> {last} milli/event"
        );
        assert_eq!(
            table.u64(row, "heap_allocs"),
            0,
            "{row}: the warm hub allocated cut storage"
        );
    }

    println!(
        "# Tenant sweep — {procs} procs, {events} events, {PRED_SHAPES} predicate shapes, sweep {sweep:?}"
    );
    print!("{}", table.render_text());
    println!(
        "# sublinear: {}x tenants for {:.1}x per-event work ({} -> {} milli/event)",
        tenants / table.u64(one, "tenants"),
        cost(big) as f64 / cost(one).max(1) as f64,
        cost(one),
        cost(big)
    );
    table.write(&out).expect("write bench artifact");
    eprintln!("# wrote {out}");
}
