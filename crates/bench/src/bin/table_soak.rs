//! Run-forever soak for the GC'd online monitor: a fixed-seed stream of
//! one million events — late cross-process messages, periodic fault
//! bursts, acknowledged alarms — flows through an [`OnlineMonitor`] with
//! causal-stability garbage collection on, is killed at the midpoint,
//! checkpointed through the `slicing.serve-checkpoint/v1` codec, restored,
//! and run to completion. The committed baseline is `BENCH_soak.json`, a
//! `slicing.bench/v1` table.
//!
//! ```text
//! cargo run --release -p slicing-bench --bin table_soak -- \
//!     [--quick] [--procs 6] [--segments 4] [--events 1000000] \
//!     [--gc-lag 128] [--gc-every 1024] [--out BENCH_soak.json]
//! ```
//!
//! Every reported number is a **deterministic counter** — a pure function
//! of the seed and flags, identical on every machine. The soak asserts
//! its headline claims in-process before writing the artifact:
//!
//! - **Bounded retention.** `retained_peak` — the high-water mark of the
//!   `serve.retained_events` gauge — stays below a constant derived
//!   from the GC configuration, *independent of stream length*. An
//!   un-GC'd monitor run over a prefix of the same stream provides the
//!   linear-growth foil (the `plain_prefix` row).
//! - **Flat per-event cost.** The amortized check cost per event in the
//!   last segment is within 25% (plus one probe) of the first segment,
//!   even though the last segment sits on a history several times
//!   longer — and even though the stream was killed and restored from a
//!   checkpoint in between.
//! - **Invisible GC.** The GC'd first segment equals the un-GC'd prefix
//!   on events, messages, alarms, checks and check cost.
//!
//! The kill happens at the exact stream midpoint: the monitor is
//! checkpointed to a real file with [`write_hub_checkpoint`], dropped,
//! loaded back with [`load_checkpoint`], and resumed with
//! [`resume_monitor`].
//! Because restarts renumber event ids densely, the workload addresses
//! events by `(process, position)` — the coordinates that survive — and
//! translates them through [`OnlineMonitor::event_at`] at delivery time.
//! Message lateness is bounded well below the GC lag so replayed
//! deliveries always target retained events. Wall-clock is intentionally
//! absent: this table gates the *work* of the algorithm, never time.

use std::collections::VecDeque;

use slicing_computation::{cut_heap_allocs, Value};
use slicing_detect::{GcConfig, HubStats, OnlineMonitor};
use slicing_observe::diff::{exact, gated, BenchTable, Field};
use slicing_predicates::LocalPredicate;
use slicing_recover::{load_checkpoint, resume_monitor, write_hub_checkpoint};

/// Message endpoints stay within this many global steps of the tip —
/// strictly below any accepted `--gc-lag`, so late deliveries never
/// target compacted history.
const LATENESS_WINDOW: usize = 32;
/// A fault burst — one candidate observation on every process in a row —
/// fires every this-many steps, guaranteeing alarms throughout the soak.
const BURST_PERIOD: u64 = 4096;

/// One soak row: the work between two stats snapshots. Stream shape
/// and verdicts are `exact` columns; the work counters are `gated`.
fn soak_row(cur: &HubStats, prev: &HubStats, retained_peak: u64, heap_allocs: u64) -> Vec<Field> {
    let events = cur.events - prev.events;
    let check_cost = cur.check_cost - prev.check_cost;
    vec![
        exact("events", events),
        exact("messages", cur.messages - prev.messages),
        gated("checks", cur.checks - prev.checks),
        exact("alarms", cur.alarms - prev.alarms),
        gated("check_cost", check_cost),
        gated("cost_per_event_milli", check_cost * 1000 / events.max(1)),
        gated("delta_cuts", cur.delta_cuts - prev.delta_cuts),
        gated("compactions", cur.compactions - prev.compactions),
        gated("dropped_events", cur.dropped_events - prev.dropped_events),
        gated("retained_peak", retained_peak),
        gated("heap_allocs", heap_allocs),
    ]
}

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

/// The soak's moving parts besides the monitor itself: the deterministic
/// rng, the bounded ring of recently observed `(process, position)`
/// coordinates, and the global step counter driving burst scheduling.
struct Workload {
    rng: XorShift,
    recent: VecDeque<(usize, u32)>,
    step: u64,
    procs: usize,
}

impl Workload {
    fn new(procs: usize) -> Self {
        Workload {
            rng: XorShift(0x51ce_d001_u64 | 1),
            recent: VecDeque::with_capacity(LATENESS_WINDOW + 1),
            step: 0,
            procs,
        }
    }

    /// One soak step: observe (burst steps force a candidate on a
    /// round-robin process), maybe deliver a message from an older event
    /// to the fresh one, maybe deliver a *late* message between two older
    /// events, check, and acknowledge any alarm so retention never pins.
    fn step(&mut self, m: &mut OnlineMonitor) {
        let burst = self.step % BURST_PERIOD < self.procs as u64;
        let p = if burst {
            (self.step % BURST_PERIOD) as usize
        } else {
            self.rng.below(self.procs as u64) as usize
        };
        // Sparse greens (~1 in 5) keep candidate queues churning; a burst
        // makes every conjunct hold at once so a real alarm must fire.
        let green = burst || self.rng.below(5) == 0;
        let x = m.var(p, "x").expect("declared in fresh()");
        let pos = m.events_on(p);
        m.observe(p, &[(x, Value::Int(i64::from(green)))])
            .expect("typed observation");
        self.recent.push_back((p, pos));
        if self.recent.len() > LATENESS_WINDOW {
            self.recent.pop_front();
        }
        if self.rng.below(3) == 0 && self.recent.len() >= 2 {
            let si = self.rng.below(self.recent.len() as u64 - 1) as usize;
            let (sp, spos) = self.recent[si];
            if sp != p {
                self.deliver(m, (sp, spos), (p, pos));
            }
        }
        if self.rng.below(8) == 0 && self.recent.len() >= 3 {
            // A late delivery between two *older* events re-times settled
            // history; observation order is a topological order, so the
            // edge is acyclic by construction.
            let si = self.rng.below(self.recent.len() as u64 - 2) as usize;
            let ri = si + 1 + self.rng.below((self.recent.len() - 1 - si) as u64) as usize;
            let (send, recv) = (self.recent[si], self.recent[ri]);
            if send.0 != recv.0 {
                self.deliver(m, send, recv);
            }
        }
        if m.check().expect("check never fails").is_some() {
            m.acknowledge_alarm();
        }
        self.step += 1;
    }

    /// Delivers by surviving coordinates; duplicate edges (the ring can
    /// re-pick a pair) are skipped, anything else is a soak bug.
    fn deliver(&mut self, m: &mut OnlineMonitor, send: (usize, u32), recv: (usize, u32)) {
        let s = m.event_at(send.0, send.1).expect("send within lag window");
        let r = m.event_at(recv.0, recv.1).expect("recv within lag window");
        if let Err(e) = m.message(s, r) {
            assert!(
                matches!(e, slicing_computation::BuildError::DuplicateMessage { .. }),
                "unexpected delivery failure: {e}"
            );
        }
    }
}

fn fresh(procs: usize, gc: Option<GcConfig>) -> OnlineMonitor {
    let mut m = OnlineMonitor::new(procs);
    if let Some(cfg) = gc {
        m = m.with_gc(cfg);
    }
    for i in 0..procs {
        let v = m.declare_var(i, "x", Value::Int(0)).expect("fresh var");
        m.watch_int(v, "x > 0", |x| x > 0).expect("watch up front");
    }
    m
}

/// Kills the monitor at the midpoint: checkpoint to a real file, drop,
/// load, restore, re-register the clauses. Returns the resumed monitor.
fn kill_and_resume(m: OnlineMonitor, procs: usize) -> OnlineMonitor {
    let path = std::env::temp_dir().join(format!("slicing-soak-{}.ckpt", std::process::id()));
    write_hub_checkpoint(&path, m.hub(), 0, 1).expect("write midpoint checkpoint");
    let before = m.stats();
    let clauses: Vec<LocalPredicate> = (0..procs)
        .map(|i| {
            let v = m.var(i, "x").expect("declared in fresh()");
            LocalPredicate::int(v, "x > 0", |x| x > 0)
        })
        .collect();
    drop(m);
    let (state, _seq) = load_checkpoint(&path).expect("load midpoint checkpoint");
    let resumed = resume_monitor(&state, clauses).expect("resume");
    assert_eq!(
        resumed.stats(),
        before,
        "restore changed the monitor's counters"
    );
    std::fs::remove_file(&path).expect("remove checkpoint");
    resumed
}

fn main() {
    let mut quick = false;
    let mut procs: usize = 6;
    let mut segments: u64 = 4;
    let mut events: u64 = 1_000_000;
    let mut gc_lag: u32 = 128;
    let mut gc_every: u64 = 1024;
    let mut out = String::from("BENCH_soak.json");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--quick" => quick = true,
            "--procs" => procs = it.next().expect("--procs N").parse().expect("integer"),
            "--segments" => segments = it.next().expect("--segments N").parse().expect("integer"),
            "--events" => events = it.next().expect("--events N").parse().expect("integer"),
            "--gc-lag" => gc_lag = it.next().expect("--gc-lag N").parse().expect("integer"),
            "--gc-every" => gc_every = it.next().expect("--gc-every N").parse().expect("integer"),
            "--out" => out = it.next().expect("--out PATH"),
            other => panic!("unknown flag {other}"),
        }
    }
    if quick {
        events = events.min(40_000);
    }
    assert!(procs >= 2, "the soak needs at least two processes");
    assert!(
        (LATENESS_WINDOW as u32) < gc_lag,
        "message lateness must stay strictly below the GC lag"
    );
    assert!(
        segments >= 2 && segments.is_multiple_of(2),
        "the midpoint kill needs an even segment count"
    );
    let per_segment = events / segments;
    let gc = GcConfig {
        lag: gc_lag,
        every: gc_every,
    };

    let mut table = BenchTable::new("table_soak")
        .param("quick", quick)
        .param("procs", procs as u64)
        .param("segments", segments)
        .param("events_per_segment", per_segment)
        .param("gc_lag", gc_lag)
        .param("gc_every", gc_every);

    // The linear-growth foil: the same stream prefix through an un-GC'd
    // monitor. One segment is plenty to dwarf the GC'd peak.
    let mut plain = fresh(procs, None);
    let mut plain_load = Workload::new(procs);
    let plain_allocs = cut_heap_allocs();
    for _ in 0..per_segment {
        plain_load.step(&mut plain);
    }
    let plain_retained = plain.retained_events();
    table.row(
        "plain_prefix",
        soak_row(
            &plain.stats(),
            &HubStats::default(),
            plain_retained,
            cut_heap_allocs() - plain_allocs,
        ),
    );
    drop(plain);

    // The soak proper: same generator, GC on, killed and restored at the
    // exact midpoint.
    let mut m = fresh(procs, Some(gc));
    let mut load = Workload::new(procs);
    let mut prev = m.stats();
    for seg in 1..=segments {
        let allocs_before = cut_heap_allocs();
        for _ in 0..per_segment {
            load.step(&mut m);
        }
        if seg == segments / 2 {
            m = kill_and_resume(m, procs);
        }
        let cur = m.stats();
        table.row(
            format!("segment{seg}"),
            soak_row(
                &cur,
                &prev,
                cur.retained_peak,
                cut_heap_allocs() - allocs_before,
            ),
        );
        prev = cur;
    }
    let stats = m.stats();

    // Headline claim 1: retention is bounded by the GC configuration, not
    // the stream length. Between compaction attempts up to `gc_every`
    // fresh events pile up on top of the `lag` window and the candidate
    // queues; 4× that sum is a generous constant roof that a linearly
    // growing history blows through almost immediately.
    let roof = 4 * (u64::from(gc_lag) + gc_every + stats.peak_candidates + procs as u64);
    assert!(
        stats.retained_peak <= roof,
        "retention is not bounded: peak {} > roof {roof}",
        stats.retained_peak
    );
    // The un-GC'd prefix retains one event per observation; the GC'd
    // stream keeps an order of magnitude less.
    assert!(
        plain_retained >= per_segment,
        "the un-GC'd prefix retained {plain_retained} of {per_segment} events"
    );
    assert!(
        stats.retained_peak * 10 < plain_retained,
        "GC'd peak {} should undercut a tenth of the un-GC'd prefix {}",
        stats.retained_peak,
        plain_retained
    );
    assert!(stats.compactions > 0, "the soak never compacted");
    assert!(
        stats.alarms > 0,
        "the soak never alarmed — workload too weak"
    );

    // Headline claim 2: per-event check cost is flat across segments —
    // including across the midpoint kill/restore.
    let last_row = format!("segment{segments}");
    let first = table.u64("segment1", "cost_per_event_milli");
    let last = table.u64(&last_row, "cost_per_event_milli");
    assert!(
        last <= first * 125 / 100 + 1000,
        "per-event check cost grew with history length: {first} -> {last} milliprobe/event"
    );

    // Headline claim 3: GC is invisible — the GC'd first segment replays
    // the un-GC'd prefix's stream with identical verdicts and work.
    for column in ["events", "messages", "alarms", "checks", "check_cost"] {
        assert_eq!(
            table.value("segment1", column),
            table.value("plain_prefix", column),
            "GC changed {column} on the first segment"
        );
    }

    println!(
        "# Run-forever soak — {procs} procs, {segments}×{per_segment} events, GC lag {gc_lag} / every {gc_every}, kill+resume at midpoint"
    );
    print!("{}", table.render_text());
    println!(
        "# retention: GC'd peak {} vs un-GC'd prefix {plain_retained} (roof {roof}); cost {first} -> {last} milliprobe/event (flat across kill+resume)",
        stats.retained_peak
    );
    table.write(&out).expect("write bench artifact");
    eprintln!("# wrote {out}");
}
