//! Streaming-soak table for the online monitor: a fixed-seed event stream
//! is fed through [`OnlineMonitor`] with a check after *every* event, and
//! the per-event check cost is recorded per segment. The committed
//! artifact — `BENCH_online.json` (schema `slicing.bench-online/v1`) — is
//! the baseline CI gates against.
//!
//! ```text
//! cargo run --release -p slicing-bench --bin table_online -- \
//!     [--quick] [--procs 4] [--segments 4] [--events 2000] [--warmup 2000] \
//!     [--out BENCH_online.json]
//! ```
//!
//! Every reported number is a **deterministic counter** — a pure function
//! of the seed and flags, identical on every machine:
//!
//! - **check_cost** — candidate probes + alarm joins performed by the
//!   monitor's checks in the segment (`HubStats::check_cost` delta).
//! - **cost_per_event_milli** — `1000 × check_cost / events`, the
//!   amortized per-event check cost. The headline claim is that this is
//!   *flat across segments*: segment 4 monitors a history 4× longer than
//!   segment 1 but pays the same per event.
//! - **heap_allocs** — spilled-cut allocations during the segment's
//!   observe/check loop; must be zero (the soak stays at ≤ 16 processes,
//!   and the warm monitor reuses its scratch cut).
//! - **cost_p50/p90/p99/max** — the per-check cost distribution inside
//!   the segment, summarized with log-bucketed histograms whose
//!   percentile figures are bucket upper bounds: deterministic,
//!   order-independent, and machine-independent, so they are safe to
//!   compare across runs (though CI gates only the scale-invariant
//!   columns).
//!
//! Recorded segments start only after a warm-up phase (`--warmup` events,
//! streamed but not tabulated): during cold start many candidate queues
//! are still empty, which makes checks *cheaper* than steady state and
//! would both mask growth and skew cross-run comparisons. Wall-clock is
//! intentionally absent: this table gates the *work* of the incremental
//! algorithm, and wall-clock is never gated. `--quick` trims the segment
//! length only — never the warm-up — so per-event numbers stay
//! steady-state and comparable, and CI gates them with a 25% drift
//! allowance.

use slicing_computation::{cut_heap_allocs, Cut, EventId, Value, VarRef};
use slicing_detect::OnlineMonitor;
use slicing_observe::json::{JsonArray, JsonObject};

struct Segment {
    name: String,
    segment: u64,
    events: u64,
    checks: u64,
    check_cost: u64,
    cost_per_event_milli: u64,
    delta_cuts: u64,
    alarms: u64,
    messages: u64,
    heap_allocs: u64,
    peak_candidates: u64,
    /// Per-check cost distribution (log-bucketed percentiles, so the
    /// figures are deterministic and machine-independent like every
    /// other column): p50/p90/p99/max of the `monitor.check.cost`
    /// samples `step` records during the segment.
    cost_p50: u64,
    cost_p90: u64,
    cost_p99: u64,
    cost_max: u64,
}

impl Segment {
    fn to_json(&self) -> String {
        JsonObject::new()
            .str("name", &self.name)
            .u64("segment", self.segment)
            .u64("events", self.events)
            .u64("checks", self.checks)
            .u64("check_cost", self.check_cost)
            .u64("cost_per_event_milli", self.cost_per_event_milli)
            .u64("cost_p50", self.cost_p50)
            .u64("cost_p90", self.cost_p90)
            .u64("cost_p99", self.cost_p99)
            .u64("cost_max", self.cost_max)
            .u64("delta_cuts", self.delta_cuts)
            .u64("alarms", self.alarms)
            .u64("messages", self.messages)
            .u64("heap_allocs", self.heap_allocs)
            .u64("peak_candidates", self.peak_candidates)
            .finish()
    }
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// One soak step: observe a pseudo-random event, maybe wire a message from
/// an older event of another process (never cyclic — the fresh event is
/// maximal), and run a check.
fn step(
    m: &mut OnlineMonitor,
    vars: &[VarRef],
    rng: &mut u64,
    last_event: &mut [Option<EventId>],
    last_alarm: &mut Option<Cut>,
) {
    let procs = vars.len();
    let p = (xorshift(rng) % procs as u64) as usize;
    // Sparse greens: the conjunct holds at ~1 event in 5, so heads
    // advance and queues keep churning instead of only growing.
    let green = xorshift(rng).is_multiple_of(5);
    let e = m
        .observe(p, &[(vars[p], Value::Int(i64::from(green)))])
        .expect("typed observation");
    if xorshift(rng).is_multiple_of(3) {
        let q = (xorshift(rng) % procs as u64) as usize;
        if q != p {
            if let Some(send) = last_event[q] {
                m.message(send, e).expect("acyclic forward message");
            }
        }
    }
    last_event[p] = Some(e);
    let before = m.stats().check_cost;
    if let Some(alarm) = m.check().expect("check never fails") {
        *last_alarm = Some(alarm);
    }
    slicing_observe::sample("monitor.check.cost", m.stats().check_cost - before);
}

fn main() {
    let mut quick = false;
    let mut procs: usize = 4;
    let mut segments: u64 = 4;
    let mut events_per_segment: u64 = 2000;
    let mut warmup: u64 = 2000;
    let mut out = String::from("BENCH_online.json");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--quick" => quick = true,
            "--procs" => procs = it.next().expect("--procs N").parse().expect("integer"),
            "--segments" => segments = it.next().expect("--segments N").parse().expect("integer"),
            "--events" => {
                events_per_segment = it.next().expect("--events N").parse().expect("integer");
            }
            "--warmup" => warmup = it.next().expect("--warmup N").parse().expect("integer"),
            "--out" => out = it.next().expect("--out PATH"),
            other => panic!("unknown flag {other}"),
        }
    }
    if quick {
        events_per_segment = events_per_segment.min(500);
    }
    assert!(procs >= 2, "the soak needs at least two processes");
    assert!(
        procs <= 16,
        "the zero-allocation claim is about inline cuts (≤ 16 processes)"
    );

    let mut m = OnlineMonitor::new(procs);
    let vars: Vec<_> = (0..procs)
        .map(|i| m.declare_var(i, "x", Value::Int(0)).expect("fresh var"))
        .collect();
    for &v in &vars {
        m.watch_int(v, "x > 0", |x| x > 0).expect("watch up front");
    }

    let mut rng: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut last_event: Vec<Option<EventId>> = vec![None; procs];
    let mut last_alarm: Option<Cut> = None;
    let mut rows: Vec<Segment> = Vec::new();

    // Warm up to steady state before recording: cold-start checks are
    // artificially cheap while candidate queues are still empty.
    for _ in 0..warmup {
        step(&mut m, &vars, &mut rng, &mut last_event, &mut last_alarm);
    }
    let mut prev = m.stats();

    for seg in 1..=segments {
        let allocs_before = cut_heap_allocs();
        // A scoped recorder catches the segment's `monitor.check.cost`
        // samples for the percentile columns. Scoped to the segment so
        // each row summarizes its own distribution.
        let mem = std::sync::Arc::new(slicing_observe::MemoryRecorder::new(
            slicing_observe::Level::Trace,
        ));
        let recording = slicing_observe::scoped(mem.clone());
        for _ in 0..events_per_segment {
            step(&mut m, &vars, &mut rng, &mut last_event, &mut last_alarm);
        }
        drop(recording);
        let heap_allocs = cut_heap_allocs() - allocs_before;
        let (_, cost_p50, cost_p90, cost_p99, cost_max) =
            mem.sample_histogram("monitor.check.cost").summary();

        // Differential sanity at the segment boundary: the offline
        // reference must agree with the monitor's settled verdict.
        let offline = m.check_offline().expect("acyclic history").found;
        assert!(
            offline.is_none() || offline.as_ref() == last_alarm.as_ref(),
            "segment {seg}: offline verdict {offline:?} diverged from the monitor"
        );

        let cur = m.stats();
        let events = cur.events - prev.events;
        let check_cost = cur.check_cost - prev.check_cost;
        rows.push(Segment {
            name: format!("segment{seg}"),
            segment: seg,
            events,
            checks: cur.checks - prev.checks,
            check_cost,
            cost_per_event_milli: check_cost * 1000 / events.max(1),
            delta_cuts: cur.delta_cuts - prev.delta_cuts,
            alarms: cur.alarms - prev.alarms,
            messages: cur.messages - prev.messages,
            heap_allocs,
            peak_candidates: cur.peak_candidates,
            cost_p50,
            cost_p90,
            cost_p99,
            cost_max,
        });
        prev = cur;
    }

    // The acceptance bar, in-binary: per-event check cost must be *flat*
    // in history length. Segment `segments` watches a history `segments`×
    // longer than segment 1; an O(history) check would scale the per-event
    // cost by the same factor. Allow 25% plus a one-probe absolute slack.
    let first = &rows[0];
    let last = &rows[rows.len() - 1];
    assert!(
        last.cost_per_event_milli <= first.cost_per_event_milli * 125 / 100 + 1000,
        "per-event check cost grew with history length: {} -> {} milliprobe/event",
        first.cost_per_event_milli,
        last.cost_per_event_milli
    );
    for row in &rows {
        assert_eq!(
            row.heap_allocs, 0,
            "{}: the warm monitor allocated cut storage",
            row.name
        );
    }

    println!(
        "# Online-monitor soak — {procs} procs, {warmup} warm-up + {segments}×{events_per_segment} events, fixed seed"
    );
    println!(
        "{:<10} {:>8} {:>10} {:>12} {:>5} {:>5} {:>5} {:>10} {:>8} {:>9} {:>6} {:>10}",
        "segment",
        "events",
        "cost",
        "milli/event",
        "p50",
        "p99",
        "max",
        "delta",
        "alarms",
        "messages",
        "alloc",
        "peak cand"
    );
    for r in &rows {
        println!(
            "{:<10} {:>8} {:>10} {:>12} {:>5} {:>5} {:>5} {:>10} {:>8} {:>9} {:>6} {:>10}",
            r.name,
            r.events,
            r.check_cost,
            r.cost_per_event_milli,
            r.cost_p50,
            r.cost_p99,
            r.cost_max,
            r.delta_cuts,
            r.alarms,
            r.messages,
            r.heap_allocs,
            r.peak_candidates
        );
    }
    println!(
        "# per-event check cost: segment1 {} vs segment{segments} {} milliprobe/event (flat)",
        first.cost_per_event_milli, last.cost_per_event_milli
    );

    let doc = JsonObject::new()
        .str("schema", slicing_observe::schema::BENCH_ONLINE)
        .str("binary", "table_online")
        .bool("quick", quick)
        .u64("procs", procs as u64)
        .u64("segments", segments)
        .u64("events_per_segment", events_per_segment)
        .u64("warmup", warmup)
        .raw(
            "entries",
            &rows
                .iter()
                .fold(JsonArray::new(), |arr, r| arr.push_raw(&r.to_json()))
                .finish(),
        )
        .finish();
    std::fs::write(&out, format!("{doc}\n")).expect("write bench artifact");
    eprintln!("# wrote {} segments to {out}", rows.len());
}
