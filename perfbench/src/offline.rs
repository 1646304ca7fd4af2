//! The offline workloads, driven through the library in this process:
//! `recover-zoo` (slice → recovery line → replay) and `detect-lattice`
//! (exhaustive lattice search by BFS, lean and POM).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use slicing_bench::Workload;
use slicing_computation::lattice::count_cuts;
use slicing_computation::trace::{from_text, to_text};
use slicing_computation::{Computation, Cut};
use slicing_core::PredicateSpec;
use slicing_detect::{
    detect_bfs, detect_lean, detect_on_slice, detect_pom, detect_resilient, Detection, Limits,
};
use slicing_observe::{Level, MemoryRecorder};
use slicing_recover::{
    recover, recovery_line, LineMethod, RecoverConfig, RecoveryLine, RecoveryOutcome,
    RecoveryVerdict, RetryPolicy,
};
use slicing_sim::crdt::CrdtReplication;
use slicing_sim::database::DatabasePartitioning;
use slicing_sim::leader_election::LeaderElection;
use slicing_sim::primary_secondary::PrimarySecondary;
use slicing_sim::work_queue::WorkQueue;
use slicing_sim::{inject_plan, resume, sample_fault_plan, Protocol, SimConfig};

use crate::gen::Rng;
use crate::spans::{traced_and_untraced, Layer, SelfTimes, Tracer};
use crate::{
    median, passes_with_setups, per_op_best, print_setups, quantile, self_peak_rss_mb, Args,
    Outcome,
};

/// The paper's two protocols and the zoo's three.
const PROTOCOLS: [Workload; 5] = [
    Workload::PrimarySecondary,
    Workload::DatabasePartitioning,
    Workload::LeaderElection,
    Workload::CrdtReplication,
    Workload::WorkQueue,
];

/// Set-ups per run: the one the timed passes start from and the rest
/// spread over the run; `setup_s` is their median. A traced run reports
/// no `setup_s` and sets up once.
const SETUPS: usize = 5;

/// Timed passes per run at the least, whatever `--seconds` allows.
const MIN_PASSES: usize = 3;

/// Seconds `f` takes; its result is dropped.
fn seconds_of<T>(f: impl FnOnce() -> T) -> f64 {
    let t0 = Instant::now();
    std::hint::black_box(f());
    t0.elapsed().as_secs_f64()
}

/// End-to-end metrics of an in-process workload from each op's best
/// latency (ms): their percentiles, and ops over their sum.
fn set_offline_metrics(out: &mut Outcome, passes: usize, mut best: Vec<f64>, setups: &mut [f64]) {
    let busy_s: f64 = best.iter().sum::<f64>() / 1e3;
    println!("{passes} passes of {} ops", best.len());
    print_setups("set-ups", setups);
    out.set("setup_s", median(setups));
    out.set("ops_per_s", best.len() as f64 / busy_s);
    out.set("p50_ms", quantile(&mut best, 0.5));
    out.set("p99_ms", quantile(&mut best, 0.99));
    out.set("peak_rss_mb", self_peak_rss_mb());
}

/// Fills each rung of a ladder of target sizes, largest first, with the
/// unused candidate nearest it in ratio; a candidate of size `u64::MAX`
/// fills no rung. Drawing corpora this way keeps their total work and
/// their tail the same from seed to seed while the runs themselves
/// change, and makes op costs a continuum rather than letting one large
/// run own the tail.
fn fill_ladder<T>(pool: Vec<(T, u64)>, mut rungs: Vec<f64>) -> Vec<(T, u64)> {
    rungs.sort_by(|a, b| b.total_cmp(a));
    let mut pool: Vec<Option<(T, u64)>> = pool.into_iter().map(Some).collect();
    rungs
        .into_iter()
        .map(|target| {
            let best = pool
                .iter()
                .enumerate()
                .filter_map(|(i, c)| match c {
                    Some((_, n)) if *n != u64::MAX => Some((i, (*n as f64 / target).ln().abs())),
                    _ => None,
                })
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .map(|(i, _)| i)
                .expect("more candidates than rungs");
            pool[best].take().expect("unused candidate")
        })
        .collect()
}

// ---------------------------------------------------------------------
// recover-zoo
// ---------------------------------------------------------------------

const FAULT_KINDS: [&str; 6] = [
    "corrupt",
    "drop-message",
    "duplicate-message",
    "delay-delivery",
    "crash-stop",
    "burst",
];
const ZOO_PROCS: usize = 4;
const ZOO_EVENTS: u32 = 12;
/// Runs per (protocol, fault kind), and per (paper protocol,
/// value-corrupting fault kind). Value-corrupting faults (`corrupt`,
/// `burst`) have fault specifications that slice approximately, and on
/// the paper's two protocols about one such run in six then needs the
/// exhaustive recovery line, which enumerates the lattice and costs about
/// 5x a median op (up to 15x); on the zoo's protocols few do. At equal
/// weights those ops are 2-3% of the corpus, right where
/// the 99th percentile falls, and the percentile would depend on how many
/// a seed draws. Three times the runs for those strata put them near 5%,
/// so the percentile falls inside their class. The weights are fixed per
/// stratum: how many runs need the exhaustive line is left to the
/// program. The corpus is 1,064 runs, so that at least ten ops lie
/// beyond the 99th percentile.
const ZOO_RUNS: usize = 28;
const ZOO_RUNS_SIZED: usize = 84;

/// Whether a stratum's runs are drawn at `ZOO_CUTS` and weighted
/// `ZOO_RUNS_SIZED`: the paper's protocols under value-corrupting faults.
fn sized(workload: Workload, kind: &str) -> bool {
    Workload::PAPER.contains(&workload) && matches!(kind, "corrupt" | "burst")
}

/// Seeded candidates drawn per run a stratum keeps. This bounds the draw:
/// a stratum whose candidates offer too few injection sites fails the
/// run instead of drawing on. Six rather than three narrowed the sized
/// strata's lattices enough to halve how far the exhaustive-line ops'
/// 75th-85th percentile cost, where the 99th percentile of all ops
/// falls, moved between seeds.
const ZOO_CANDIDATES: usize = 6;
/// Lattice size the sized strata's runs are drawn at, in the lower part
/// of their natural sizes at 4 processes x 12 events (about 1,000 to
/// 15,000 cuts). The exhaustive recovery line enumerates the lattice, so
/// drawing those runs near one size keeps the cost of the ops that make
/// up the tail the same from seed to seed; drawing it low keeps them from
/// dominating a pass, so that how many a seed draws moves `ops_per_s`
/// little. Other runs keep their natural sizes.
const ZOO_CUTS: f64 = 1500.0;
/// Replay attempts per op: a ceiling, so that a known defect shows in
/// the traced run's counts instead of failing ops. Some CRDT drop-message
/// and delay-delivery runs re-derive a violation on attempt after
/// attempt: over seeds 1-30, 11 corpora held an op that needs more than
/// the default three attempts, and one needed 15. The traced run reports
/// how many ops needed more than the default and the most any op needed.
const ZOO_ATTEMPTS: u32 = 50;

/// One corpus run, named by what selects it: its stratum and the seed of
/// its simulation and fault plan.
struct ZooPick {
    workload: Workload,
    kind: &'static str,
    sim_seed: u64,
}

struct ZooCase {
    workload: Workload,
    kind: &'static str,
    comp: Computation,
    cfg: RecoverConfig,
}

/// Chooses the corpus, outside the timed set-up. Per (protocol, fault
/// kind) it draws seeded faulty runs: for a sized stratum (see `sized`)
/// `ZOO_CANDIDATES` per run it keeps, keeping the `ZOO_RUNS_SIZED` whose
/// lattices are nearest `ZOO_CUTS` in size; for any other the first
/// `ZOO_RUNS` that offer an injection site. Only the stratum and the
/// lattice size select a run, never what recovery makes of it, so how
/// many ops need the exhaustive recovery line is left to the program.
fn select_zoo(seed: u64) -> Result<Vec<ZooPick>, String> {
    let mut off = Tracer::new(false);
    let mut picks = Vec::new();
    for (wi, &workload) in PROTOCOLS.iter().enumerate() {
        for (ki, &kind) in FAULT_KINDS.iter().enumerate() {
            let mut rng = Rng::new(seed, 100 + (wi * 10 + ki) as u64);
            let sized = sized(workload, kind);
            let runs = if sized { ZOO_RUNS_SIZED } else { ZOO_RUNS };
            let mut pool: Vec<(u64, u64)> = Vec::new();
            for _ in 0..ZOO_CANDIDATES * runs {
                if !sized && pool.len() == runs {
                    break;
                }
                let sim_seed = rng.below(1 << 40);
                if let Some(run) = faulty_run(workload, kind, sim_seed, &mut off) {
                    let cuts = if sized { exact_cuts(&run, u64::MAX) } else { 0 };
                    pool.push((sim_seed, cuts));
                }
            }
            if pool.len() < runs {
                return Err(format!(
                    "recover-zoo: only {} of {} candidate runs of {} offer a {kind} \
                     injection site, {runs} needed",
                    pool.len(),
                    ZOO_CANDIDATES * runs,
                    workload.name()
                ));
            }
            if sized {
                pool = fill_ladder(pool, vec![ZOO_CUTS; runs]);
            }
            picks.extend(pool.into_iter().map(|(sim_seed, _)| ZooPick {
                workload,
                kind,
                sim_seed,
            }));
        }
    }
    Ok(picks)
}

/// The faulty run of `kind` on `workload` that `sim_seed` simulates and
/// injects, or `None` when the clean run offers no injection site of that
/// kind.
fn faulty_run(
    workload: Workload,
    kind: &str,
    sim_seed: u64,
    tr: &mut Tracer,
) -> Option<Computation> {
    let clean = tr.time(Layer::SimulatorRun, || {
        workload.simulate(ZOO_PROCS, ZOO_EVENTS, sim_seed)
    });
    tr.time(Layer::SimulatorInject, || {
        (0..16)
            .find_map(|o| sample_fault_plan(&clean, kind, sim_seed + o))
            .and_then(|plan| inject_plan(&clean, &plan).ok())
    })
}

/// Set-up: simulates, injects and records the picked runs, loads each
/// back through `trace::from_text`, and runs `recover()` on it cold.
/// Returns the corpus and its cold outcomes.
fn zoo_setup(picks: &[ZooPick], tr: &mut Tracer) -> (Vec<ZooCase>, Vec<RecoveryOutcome>) {
    picks
        .iter()
        .map(|p| {
            let faulty = faulty_run(p.workload, p.kind, p.sim_seed, tr)
                .expect("a picked run injects as it did when picked");
            let text = to_text(&faulty);
            let comp = tr
                .time(Layer::TraceFromText, || from_text(&text))
                .expect("a recorded run reads back");
            let mut cfg = RecoverConfig {
                sim: SimConfig {
                    seed: p.sim_seed,
                    max_events_per_process: ZOO_EVENTS,
                    ..SimConfig::default()
                },
                ..RecoverConfig::default()
            };
            cfg.retry.max_attempts = ZOO_ATTEMPTS;
            let case = ZooCase {
                workload: p.workload,
                kind: p.kind,
                comp,
                cfg,
            };
            let outcome = recover_case(&case);
            (case, outcome)
        })
        .unzip()
}

/// One op: the whole fault-tolerance loop on one recorded run.
fn recover_case(c: &ZooCase) -> RecoveryOutcome {
    let w = c.workload;
    let spec_of = move |comp: &Computation| w.violation_spec(comp);
    match w {
        Workload::PrimarySecondary => recover(
            || PrimarySecondary::new(ZOO_PROCS),
            spec_of,
            &c.comp,
            &c.cfg,
        ),
        Workload::DatabasePartitioning => recover(
            || DatabasePartitioning::new(ZOO_PROCS),
            spec_of,
            &c.comp,
            &c.cfg,
        ),
        Workload::LeaderElection => {
            recover(|| LeaderElection::new(ZOO_PROCS), spec_of, &c.comp, &c.cfg)
        }
        Workload::CrdtReplication => {
            recover(|| CrdtReplication::new(ZOO_PROCS), spec_of, &c.comp, &c.cfg)
        }
        Workload::WorkQueue => recover(|| WorkQueue::new(ZOO_PROCS), spec_of, &c.comp, &c.cfg),
    }
}

fn verdict_ok(v: RecoveryVerdict) -> bool {
    matches!(
        v,
        RecoveryVerdict::Recovered | RecoveryVerdict::CleanAlready
    )
}

/// What the staged replay of one op saw.
struct Stages {
    verdict: RecoveryVerdict,
    line: Option<Cut>,
    exhaustive: bool,
    attempts: u64,
    fallbacks: u64,
    cuts: u64,
}

/// `recover()` taken apart into its stages, called in its own order, each
/// inside a span: `violation_spec`, `PredicateSpec::slice`,
/// `detect_on_slice` (or the resilient chain when it aborts),
/// `recovery_line`, then per attempt `sim::resume` and verification.
fn recover_stages<P: Protocol>(
    c: &ZooCase,
    mut make: impl FnMut() -> P,
    tr: &mut Tracer,
) -> Stages {
    let w = c.workload;
    let cfg = &c.cfg;
    let mut st = Stages {
        verdict: RecoveryVerdict::Undetermined,
        line: None,
        exhaustive: false,
        attempts: 0,
        fallbacks: 0,
        cuts: 0,
    };
    let spec: PredicateSpec = tr.time(Layer::SpecBuild, || w.violation_spec(&c.comp));
    let limits = cfg.detect.slicing.unwrap_or_else(Limits::none);
    let slice = tr.time(Layer::SliceBuild, || spec.slice(&c.comp));
    let sliced = tr.time(Layer::SearchSlice, || {
        detect_on_slice(&c.comp, &slice, &spec, Duration::ZERO, &limits)
    });
    st.cuts += sliced.search.cuts_explored;
    let detected = if sliced.search.aborted.is_none() {
        sliced.detected()
    } else {
        let r = tr.time(Layer::SearchResilient, || {
            detect_resilient(&c.comp, &spec, &cfg.detect)
        });
        st.fallbacks += r.fallbacks() as u64;
        if r.exhausted {
            return st;
        }
        r.detected()
    };
    if !detected {
        st.verdict = RecoveryVerdict::CleanAlready;
        return st;
    }
    let line = match tr.time(Layer::LineBuild, || {
        recovery_line(&c.comp, &spec, cfg.fallback_max_cuts)
    }) {
        RecoveryLine::Clean { .. } => Cut::bottom(c.comp.num_processes()),
        RecoveryLine::Line { cut, method } => {
            st.exhaustive = method == LineMethod::Exhaustive;
            cut
        }
        RecoveryLine::Unrecoverable => {
            st.verdict = RecoveryVerdict::Unrecoverable;
            return st;
        }
        RecoveryLine::Undetermined => return st,
    };
    st.line = Some(line.clone());
    for attempt in 0..cfg.retry.max_attempts.max(1) {
        let deliver_weight = if cfg.retry.backoff {
            (cfg.sim.deliver_weight >> attempt).max(1)
        } else {
            cfg.sim.deliver_weight
        };
        let attempt_cfg = SimConfig {
            seed: cfg.sim.seed.wrapping_add(u64::from(attempt) + 1),
            deliver_weight,
            ..cfg.sim.clone()
        };
        st.attempts += 1;
        let mut protocol = make();
        let Ok(replayed) = tr.time(Layer::SimulatorResume, || {
            resume(&mut protocol, &c.comp, &line, &attempt_cfg)
        }) else {
            return st;
        };
        let verify = tr.time(Layer::ReplayVerify, || {
            detect_resilient(&replayed, &w.violation_spec(&replayed), &cfg.detect)
        });
        st.fallbacks += verify.fallbacks() as u64;
        if verify.exhausted {
            return st;
        }
        if !verify.detected() {
            st.verdict = RecoveryVerdict::Recovered;
            return st;
        }
    }
    st.verdict = RecoveryVerdict::RetriesExhausted;
    st
}

fn recover_staged(c: &ZooCase, tr: &mut Tracer) -> Stages {
    match c.workload {
        Workload::PrimarySecondary => recover_stages(c, || PrimarySecondary::new(ZOO_PROCS), tr),
        Workload::DatabasePartitioning => {
            recover_stages(c, || DatabasePartitioning::new(ZOO_PROCS), tr)
        }
        Workload::LeaderElection => recover_stages(c, || LeaderElection::new(ZOO_PROCS), tr),
        Workload::CrdtReplication => recover_stages(c, || CrdtReplication::new(ZOO_PROCS), tr),
        Workload::WorkQueue => recover_stages(c, || WorkQueue::new(ZOO_PROCS), tr),
    }
}

pub fn recover_zoo(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let picks = match select_zoo(args.seed) {
        Ok(p) => p,
        Err(e) => {
            out.fail(e);
            return out;
        }
    };
    let mut build = Tracer::new(args.trace);
    let t0 = Instant::now();
    let (cases, reference) = zoo_setup(&picks, &mut build);
    let first_setup = t0.elapsed().as_secs_f64();

    let mut counts: BTreeMap<&str, u64> = BTreeMap::new();
    for r in &reference {
        *counts.entry(r.verdict.name()).or_default() += 1;
    }
    let summary: Vec<String> = counts.iter().map(|(k, v)| format!("{k}={v}")).collect();
    let exhaustive = reference
        .iter()
        .filter(|r| r.line_method == Some(LineMethod::Exhaustive))
        .count();
    println!(
        "recover-zoo seed {}: {} runs ({} protocols x {} fault kinds x {ZOO_RUNS}, \
         {ZOO_RUNS_SIZED} with lattices near {ZOO_CUTS} cuts for the paper's protocols \
         under corrupt and burst); verdicts {}; {exhaustive} exhaustive recovery lines",
        args.seed,
        cases.len(),
        PROTOCOLS.len(),
        FAULT_KINDS.len(),
        summary.join(" ")
    );
    for (c, r) in cases.iter().zip(&reference) {
        if !verdict_ok(r.verdict) {
            println!(
                "  failing op: {} / {} sim seed {}: {}",
                c.workload.name(),
                c.kind,
                c.cfg.sim.seed,
                r.verdict
            );
        }
    }

    if args.trace {
        zoo_traced(&build, &cases, &reference, &mut out);
        return out;
    }

    let mut failed = 0u64;
    let (passes, mut setups) = passes_with_setups(
        args.seconds,
        MIN_PASSES,
        SETUPS - 1,
        || {
            Ok(cases
                .iter()
                .zip(&reference)
                .map(|(c, r)| {
                    let s = Instant::now();
                    let o = std::hint::black_box(recover_case(c));
                    let ms = s.elapsed().as_secs_f64() * 1e3;
                    if !verdict_ok(o.verdict) || o.verdict != r.verdict || o.line != r.line {
                        failed += 1;
                    }
                    ms
                })
                .collect())
        },
        || Ok(seconds_of(|| zoo_setup(&picks, &mut Tracer::new(false)))),
    )
    .expect("in-process passes do not fail");
    setups.insert(0, first_setup);
    out.attempted = (passes.len() * cases.len()) as u64;
    out.failed = failed;
    set_offline_metrics(&mut out, passes.len(), per_op_best(&passes), &mut setups);
    out
}

fn zoo_traced(build: &Tracer, cases: &[ZooCase], reference: &[RecoveryOutcome], out: &mut Outcome) {
    let setup_times = SelfTimes::of(build);

    let (tr, untraced, traced, stages) = traced_and_untraced(|tr| {
        cases
            .iter()
            .map(|c| {
                tr.open(Layer::Op);
                let s = recover_staged(c, tr);
                tr.close();
                s
            })
            .collect::<Vec<_>>()
    });
    let t = SelfTimes::of(&tr);

    // Counter pass: the program's own counters, read per op through a
    // memory recorder so spans above stay free of recorder cost.
    let mut row_joins = 0;
    let mut edges_merged = 0;
    for c in cases {
        let rec = Arc::new(MemoryRecorder::new(Level::Trace));
        let guard = slicing_observe::scoped(rec.clone());
        std::hint::black_box(recover_case(c));
        drop(guard);
        row_joins += rec.counter_total("slice.j_table.row_joins");
        edges_merged += rec.counter_total("slice.graft.edges_merged");
    }

    for (i, (s, r)) in stages.iter().zip(reference).enumerate() {
        out.attempted += 1;
        if !verdict_ok(s.verdict) || s.verdict != r.verdict || s.line != r.line {
            out.failed += 1;
            println!(
                "  staged replay disagrees on op {i}: staged {} vs recover() {}",
                s.verdict, r.verdict
            );
        }
    }
    let n = cases.len() as f64;
    let detected = stages
        .iter()
        .filter(|s| s.verdict != RecoveryVerdict::CleanAlready)
        .count() as f64;
    let recovered = stages
        .iter()
        .filter(|s| s.verdict == RecoveryVerdict::Recovered)
        .count() as f64;
    zero_all(out);
    set_setup_layers(out, &setup_times);
    out.set("simulator.resume_s", t.get(Layer::SimulatorResume));
    out.set("spec.build_s", t.get(Layer::SpecBuild));
    out.set("slice.build_s", t.get(Layer::SliceBuild));
    out.set("slice.row_joins", row_joins as f64);
    out.set("slice.edges_merged", edges_merged as f64);
    out.set(
        "search.slice_s",
        t.get(Layer::SearchSlice) + t.get(Layer::SearchResilient),
    );
    out.set(
        "search.cuts",
        stages.iter().map(|s| s.cuts).sum::<u64>() as f64,
    );
    out.set(
        "resilient.fallbacks",
        stages.iter().map(|s| s.fallbacks).sum::<u64>() as f64,
    );
    out.set("line.build_s", t.get(Layer::LineBuild));
    out.set(
        "line.exhaustive_ratio",
        stages.iter().filter(|s| s.exhaustive).count() as f64 / detected.max(1.0),
    );
    out.set("replay.verify_s", t.get(Layer::ReplayVerify));
    out.set(
        "replay.attempts_per_op",
        stages.iter().map(|s| s.attempts).sum::<u64>() as f64 / detected.max(1.0),
    );
    out.set("replay.recovered_ratio", recovered / n);
    out.set(
        "replay.max_attempts",
        stages.iter().map(|s| s.attempts).max().unwrap_or(0) as f64,
    );
    let default_attempts = u64::from(RetryPolicy::default().max_attempts);
    out.set(
        "replay.ops_past_default_attempts",
        stages
            .iter()
            .filter(|s| s.attempts > default_attempts)
            .count() as f64,
    );
    set_attribution(out, &tr, traced, untraced);
}

// ---------------------------------------------------------------------
// detect-lattice
// ---------------------------------------------------------------------

/// Per protocol: processes and events per process of its runs, and the
/// lattice size of its top rung. A query on one cut costs about three
/// times as much on the CRDT protocol as on primary-secondary, so each
/// protocol's ladder tops out where its costliest query costs about what
/// the others' do, and no single protocol owns the tail. Every lattice
/// stays below 32,768 cuts (a top rung's candidates reach 1.1x it): the
/// search engines' cut storage doubles there, and with the largest
/// lattice on either side of it from seed to seed, peak RSS moved by 14%.
const LATTICE_SHAPES: [(Workload, usize, u32, f64); 5] = [
    (Workload::PrimarySecondary, 5, 12, 29_000.0),
    (Workload::DatabasePartitioning, 6, 12, 22_000.0),
    (Workload::LeaderElection, 6, 10, 19_000.0),
    (Workload::CrdtReplication, 5, 12, 11_000.0),
    (Workload::WorkQueue, 6, 10, 20_000.0),
];
/// A protocol's rungs, as halvings of its top rung: each rung √2 below
/// the one above, down to an eighth of the top (smaller lattices are too
/// rare at these run sizes to fill a rung), with the middle rung held
/// three times. With costs about equal across protocols rung by rung,
/// those fifteen middle queries hold the median; without the plateau the
/// median jumped √2 between seeds.
const LADDER: [u32; 9] = [0, 1, 2, 3, 3, 3, 4, 5, 6];
/// Seeded candidate runs per protocol the rungs are filled from.
const CANDIDATES: u64 = 80;

/// The lattice size of `comp`, or `u64::MAX` past `cap`.
fn exact_cuts(comp: &Computation, cap: u64) -> u64 {
    let count = count_cuts(comp, Some(cap));
    if count.is_exact() {
        count.value()
    } else {
        u64::MAX
    }
}

struct Query {
    workload: Workload,
    comp: Computation,
    cuts: u64,
}

/// One query run, named by what selects it: its shape and the seed of its
/// simulation.
struct LatticePick {
    workload: Workload,
    procs: usize,
    events: u32,
    sim_seed: u64,
    cuts: u64,
}

/// Chooses the query corpus, outside the timed set-up: per protocol,
/// seeded fault-free runs are simulated and their lattices counted, and
/// each rung of a fixed geometric ladder takes the unused candidate
/// nearest its size. The ladder keeps the corpus's total work the same
/// from seed to seed while the runs themselves change; rungs are filled
/// largest first.
fn select_lattice(seed: u64) -> Vec<LatticePick> {
    let mut picks = Vec::new();
    for (wi, &(workload, procs, events, top)) in LATTICE_SHAPES.iter().enumerate() {
        let mut rng = Rng::new(seed, 200 + wi as u64);
        let cap = (top * 1.1) as u64;
        let pool: Vec<(u64, u64)> = (0..CANDIDATES)
            .map(|_| {
                let sim_seed = rng.below(1 << 40);
                let clean = workload.simulate(procs, events, sim_seed);
                (sim_seed, exact_cuts(&clean, cap))
            })
            .collect();
        let rungs = LADDER
            .iter()
            .map(|&h| top / 2f64.powf(f64::from(h) / 2.0))
            .collect();
        picks.extend(
            fill_ladder(pool, rungs)
                .into_iter()
                .map(|(sim_seed, cuts)| LatticePick {
                    workload,
                    procs,
                    events,
                    sim_seed,
                    cuts,
                }),
        );
    }
    picks
}

/// Simulates and records the picked runs and reads each back through
/// `trace::from_text`.
fn build_lattice(picks: &[LatticePick], tr: &mut Tracer) -> Vec<Query> {
    picks
        .iter()
        .map(|p| {
            let clean = tr.time(Layer::SimulatorRun, || {
                p.workload.simulate(p.procs, p.events, p.sim_seed)
            });
            let text = to_text(&clean);
            let comp = tr
                .time(Layer::TraceFromText, || from_text(&text))
                .expect("a recorded run reads back");
            Query {
                workload: p.workload,
                comp,
                cuts: p.cuts,
            }
        })
        .collect()
}

/// One op's three answers.
struct Answers {
    bfs: Detection,
    lean: Detection,
    pom: Detection,
}

/// Engine calls per query.
const ENGINES: usize = 3;

/// One query: BFS, lean and POM on `¬I`, with each call's latency in ms.
fn query(q: &Query, tr: &mut Tracer) -> (Answers, [f64; ENGINES]) {
    let pred = q.workload.violation_pred(&q.comp);
    let limits = Limits::none();
    let mut ms = [0.0; ENGINES];
    let mut call = |i: usize, layer: Layer, tr: &mut Tracer, f: &dyn Fn() -> Detection| {
        let t0 = Instant::now();
        let d = tr.time(layer, f);
        ms[i] = t0.elapsed().as_secs_f64() * 1e3;
        d
    };
    let bfs = call(0, Layer::SearchBfs, tr, &|| {
        detect_bfs(&q.comp, &q.comp, &pred, &limits)
    });
    let lean = call(1, Layer::SearchLean, tr, &|| {
        detect_lean(&q.comp, &q.comp, &pred, &limits)
    });
    let pom = call(2, Layer::SearchPom, tr, &|| {
        detect_pom(&q.comp, &pred, &limits)
    });
    (Answers { bfs, lean, pom }, ms)
}

/// BFS, lean and POM must agree on the verdict (the invariant holds, so
/// none may find a violation), and lean must explore exactly BFS's cuts.
fn answers_ok(a: &Answers) -> bool {
    let all_complete = a.bfs.completed() && a.lean.completed() && a.pom.completed();
    let agree = a.bfs.detected() == a.lean.detected() && a.bfs.detected() == a.pom.detected();
    all_complete && agree && !a.bfs.detected() && a.lean.cuts_explored == a.bfs.cuts_explored
}

/// Set-up: build the corpus, then a cold first pass over each protocol's
/// largest lattice, which grows the cut arenas to their working size.
fn lattice_setup(picks: &[LatticePick], build: &mut Tracer) -> Vec<Query> {
    let queries = build_lattice(picks, build);
    let mut tr = Tracer::new(false);
    for q in queries.iter().step_by(LADDER.len()) {
        std::hint::black_box(query(q, &mut tr));
    }
    queries
}

pub fn detect_lattice(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let picks = select_lattice(args.seed);
    let mut build = Tracer::new(args.trace);
    let t0 = Instant::now();
    let queries = lattice_setup(&picks, &mut build);
    let first_setup = t0.elapsed().as_secs_f64();
    let total: u64 = queries.iter().map(|q| q.cuts).sum();
    println!(
        "detect-lattice seed {}: {} queries, {} cuts in all, {} to {} per lattice",
        args.seed,
        queries.len(),
        total,
        queries.iter().map(|q| q.cuts).min().unwrap_or(0),
        queries.iter().map(|q| q.cuts).max().unwrap_or(0)
    );

    if args.trace {
        lattice_traced(&build, &queries, &mut out);
        return out;
    }
    let mut failed = 0u64;
    let mut tr = Tracer::new(false);
    let (passes, mut setups) = passes_with_setups(
        args.seconds,
        MIN_PASSES,
        SETUPS - 1,
        || {
            Ok(queries
                .iter()
                .flat_map(|q| {
                    let (a, ms) = query(q, &mut tr);
                    if !answers_ok(&a) {
                        failed += 1;
                    }
                    ms
                })
                .collect())
        },
        || {
            Ok(seconds_of(|| {
                lattice_setup(&picks, &mut Tracer::new(false))
            }))
        },
    )
    .expect("in-process passes do not fail");
    setups.insert(0, first_setup);
    out.attempted = (passes.len() * queries.len()) as u64;
    out.failed = failed;
    // A query's latency is the sum of its engine calls' best times.
    let best: Vec<f64> = per_op_best(&passes)
        .chunks(ENGINES)
        .map(|c| c.iter().sum())
        .collect();
    set_offline_metrics(&mut out, passes.len(), best, &mut setups);
    out
}

fn lattice_traced(build: &Tracer, queries: &[Query], out: &mut Outcome) {
    let (tr, untraced, traced, answers) = traced_and_untraced(|tr| {
        queries
            .iter()
            .map(|q| {
                tr.open(Layer::Op);
                let (a, _) = query(q, tr);
                tr.close();
                a
            })
            .collect::<Vec<_>>()
    });
    let t = SelfTimes::of(&tr);
    let mut off = Tracer::new(false);

    // Counter pass for the visited-set counters.
    let mut probes = 0;
    let mut hits = 0;
    for q in queries {
        let rec = Arc::new(MemoryRecorder::new(Level::Trace));
        let guard = slicing_observe::scoped(rec.clone());
        std::hint::black_box(query(q, &mut off));
        drop(guard);
        probes += rec.counter_total("detect.visited.probes");
        hits += rec.counter_total("detect.visited.hits");
    }

    let mut cuts = [0u64; 3];
    let mut peak_live = 0;
    let mut peak_bytes = 0;
    for a in &answers {
        out.attempted += 1;
        if !answers_ok(a) {
            out.failed += 1;
        }
        cuts[0] += a.bfs.cuts_explored;
        cuts[1] += a.lean.cuts_explored;
        cuts[2] += a.pom.cuts_explored;
        peak_live = peak_live.max(a.lean.max_stored_cuts);
        peak_bytes = peak_bytes
            .max(a.bfs.peak_bytes)
            .max(a.lean.peak_bytes)
            .max(a.pom.peak_bytes);
    }
    let per_cut = |s: f64, n: u64| if n == 0 { 0.0 } else { s * 1e9 / n as f64 };
    zero_all(out);
    set_setup_layers(out, &SelfTimes::of(build));
    out.set("search.bfs_s", t.get(Layer::SearchBfs));
    out.set("search.lean_s", t.get(Layer::SearchLean));
    out.set("search.pom_s", t.get(Layer::SearchPom));
    out.set(
        "search.bfs_ns_per_cut",
        per_cut(t.get(Layer::SearchBfs), cuts[0]),
    );
    out.set(
        "search.lean_ns_per_cut",
        per_cut(t.get(Layer::SearchLean), cuts[1]),
    );
    out.set(
        "search.pom_ns_per_cut",
        per_cut(t.get(Layer::SearchPom), cuts[2]),
    );
    out.set("search.cuts", (cuts[0] + cuts[1] + cuts[2]) as f64);
    out.set("search.visited_probes", probes as f64);
    out.set(
        "search.hit_ratio",
        if probes == 0 {
            0.0
        } else {
            hits as f64 / probes as f64
        },
    );
    out.set("search.peak_live_cuts", peak_live as f64);
    out.set("search.peak_bytes", peak_bytes as f64);
    set_attribution(out, &tr, traced, untraced);
}

/// The layers a corpus build passes through: simulation, fault injection
/// and loading the recorded runs.
fn set_setup_layers(out: &mut Outcome, build: &SelfTimes) {
    out.set("trace.from_text_s", build.get(Layer::TraceFromText));
    out.set("simulator.run_s", build.get(Layer::SimulatorRun));
    out.set("simulator.inject_s", build.get(Layer::SimulatorInject));
}

/// Starts a traced outcome with every per-layer metric at 0, so layers a
/// workload never enters still appear.
pub fn zero_all(out: &mut Outcome) {
    for (name, _) in crate::PER_LAYER {
        out.set(name, 0.0);
    }
}

/// The op self time no layer covers, as seconds and as a share of all op
/// time, and the tracing overhead: traced against untraced wall time of
/// the same replay.
pub fn set_attribution(out: &mut Outcome, tr: &Tracer, traced: f64, untraced: f64) {
    let t = SelfTimes::of(tr);
    let op_self = t.get(Layer::Op);
    let op_total = tr.top_level_seconds();
    out.set("bench.op_self_s", op_self);
    out.set(
        "bench.unattributed_frac",
        if op_total > 0.0 {
            op_self / op_total
        } else {
            0.0
        },
    );
    out.set(
        "bench.trace_overhead_frac",
        if untraced > 0.0 {
            traced / untraced - 1.0
        } else {
            0.0
        },
    );
}
