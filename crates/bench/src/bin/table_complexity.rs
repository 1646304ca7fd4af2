//! The paper's §4 cost claims as deterministic work counters. The
//! committed baseline is `BENCH_complexity.json`, a `slicing.bench/v1`
//! table with one row per (family, size); each family sweeps |E|, the
//! events per process `m` or the process count `n` by doubling.
//!
//! ```text
//! cargo run --release -p slicing-bench --bin table_complexity -- [--out BENCH_complexity.json]
//! ```
//!
//! A row gates its family's work counter (`work`) and the row joins of
//! the one J table its slice builds (`row_joins`); wall-clock (`wall_us`)
//! is info. Per family the binary fits one exponent over the whole sweep,
//! `ln(work_last / work_first) / ln(size_last / size_first)`, and exits
//! non-zero when an asserted claim misses it by more than [`TOLERANCE`].
//! A claim the counters do not bear out is printed with ✗, not asserted.

use std::sync::Arc;
use std::time::Instant;

use slicing_computation::test_fixtures::{random_computation, RandomConfig, XorShift64};
use slicing_computation::{Computation, ComputationBuilder, GlobalState, ProcSet, ProcessId};
use slicing_core::{
    graft_and, graft_or, slice_co_regular, slice_conjunctive, slice_decomposable, slice_klocal,
    slice_linear, slice_postlinear, slice_regular,
};
use slicing_observe::diff::{exact, gated, info, BenchTable};
use slicing_observe::{Level, MemoryRecorder};
use slicing_predicates::{
    AtMostInTransit, BoundedDifference, Conjunctive, KLocalPredicate, LinearPredicate,
    LocalPredicate, Predicate,
};
use slicing_sim::clock_sync::synchronized_clauses;

/// How far a measured exponent may sit from the claimed one.
const TOLERANCE: f64 = 0.2;
/// Bare repetitions behind each row's wall-clock.
const REPS: u32 = 5;

/// (family, swept size, work counter, claimed exponent, asserted). The
/// monolithic §4.1 bound, O(n²|E|), prices one evaluation of the
/// conjunction at O(n), but it reads up to n(n − 1)/2 clauses: its
/// counts are reported, not asserted (EXPERIMENTS.md, "Section 4
/// complexity claims").
const CLAIMS: [(&str, &str, &str, f64, bool); 14] = [
    ("conjunctive", "E", "slice.conjunctive.evals", 1.0, true),
    ("regular", "E", "slice.linear.evals", 1.0, true),
    ("linear", "E", "slice.linear.evals", 1.0, true),
    ("channel", "E", "slice.linear.evals", 1.0, true),
    ("postlinear", "E", "slice.postlinear.evals", 1.0, true),
    ("coregular", "E", "slice.graft.row_meets", 2.0, true),
    ("graft_and", "E", "slice.graft.edges_merged", 1.0, true),
    ("graft_or", "E", "slice.graft.row_meets", 1.0, true),
    ("klocal2", "m", "slice.klocal.clauses", 1.0, true),
    ("klocal3", "m", "slice.klocal.clauses", 2.0, true),
    ("klocal2_evals", "m", "slice.conjunctive.evals", 2.0, true),
    ("klocal3_evals", "m", "slice.conjunctive.evals", 3.0, true),
    ("decomposable", "n", "slice.linear.evals", 2.0, true),
    ("monolithic", "n", "monolithic.clause_evals", 3.0, false),
];

/// The exponent `d` of `work ∝ size^d` over a sweep, fitted from its
/// first point to its last.
fn exponent(points: &[(u64, u64)]) -> f64 {
    let (&(s0, w0), &(s1, w1)) = (points.first().unwrap(), points.last().unwrap());
    (w1 as f64 / w0 as f64).ln() / (s1 as f64 / s0 as f64).ln()
}

/// Whether a measured exponent bears out the claimed one.
fn holds(measured: f64, claimed: f64) -> bool {
    (measured - claimed).abs() <= TOLERANCE
}

/// The table and each family's (size, work) points, indexed like
/// [`CLAIMS`].
struct Sweep {
    table: BenchTable,
    points: [Vec<(u64, u64)>; CLAIMS.len()],
}

impl Sweep {
    /// Runs `f` once under a recorder for the counters, then [`REPS`]
    /// times bare for the wall clock, and appends `family`'s row.
    fn row<T>(&mut self, family: &str, size: u64, comp: &Computation, mut f: impl FnMut() -> T) {
        let i = CLAIMS
            .iter()
            .position(|c| c.0 == family)
            .expect("a claimed family");
        let (name, axis, counter, ..) = CLAIMS[i];
        let rec = Arc::new(MemoryRecorder::new(Level::Trace));
        {
            let _guard = slicing_observe::scoped(rec.clone());
            std::hint::black_box(f());
        }
        let start = Instant::now();
        for _ in 0..REPS {
            std::hint::black_box(f());
        }
        let wall_us = start.elapsed().as_secs_f64() * 1e6 / f64::from(REPS);
        let work = rec.counter_total(counter);
        self.points[i].push((size, work));
        self.table.row(
            format!("{name}.{axis}{size}"),
            [
                exact("family", name),
                exact("counter", counter),
                exact("n", comp.num_processes() as u64),
                exact("events", comp.num_events() as u64),
                gated("work", work),
                gated("row_joins", rec.counter_total("slice.j_table.row_joins")),
                info("wall_us", wall_us),
            ],
        );
    }
}

/// A random computation of `n` processes with `m` events each and
/// values drawn from `0..range`.
fn random(seed: u64, n: usize, m: u32, range: i64) -> Computation {
    let cfg = RandomConfig {
        processes: n,
        events_per_process: m,
        send_percent: 30,
        recv_percent: 30,
        value_range: range,
    };
    random_computation(seed, &cfg)
}

/// `x ≥ t` on each of `procs`.
fn at_least(comp: &Computation, procs: &[usize], t: i64) -> Conjunctive {
    let x = |i| {
        comp.var(comp.process(i), "x")
            .expect("random computations host x")
    };
    let clauses = procs
        .iter()
        .map(|&i| LocalPredicate::int(x(i), format!("x >= {t}"), move |v| v >= t));
    Conjunctive::new(clauses.collect())
}

/// `n` monotone clocks with exactly `m` ticks each, in a seeded
/// interleaving: a tick gossips its clock with probability 2/5, and the
/// receiver's next tick fast-forwards to it, as `ClockSync` does. (The
/// simulator stops at the first process to reach its bound, so its
/// events per process are not fixed.)
fn clocks(n: usize, m: u32) -> Computation {
    let mut rng = XorShift64::new(17);
    let mut b = ComputationBuilder::new(n);
    let vars: Vec<_> = (0..n)
        .map(|i| b.declare_var(b.process(i), "c", 0.into()))
        .collect();
    let (mut clock, mut left, mut inbox) = (vec![0i64; n], vec![m; n], vec![None; n]);
    for _ in 0..n as u32 * m {
        let mut i = rng.index(n);
        while left[i] == 0 {
            i = (i + 1) % n;
        }
        left[i] -= 1;
        let heard = inbox[i].take();
        clock[i] = (clock[i] + 1).max(heard.map_or(0, |(_, c)| c));
        let e = b.step(b.process(i), &[(vars[i], clock[i].into())]);
        if let Some((send, _)) = heard {
            b.message(send, e).expect("forward message is acyclic");
        }
        if rng.chance(2, 5) {
            inbox[(i + 1 + rng.index(n - 1)) % n].get_or_insert((e, clock[i]));
        }
    }
    b.build().expect("forward messages are acyclic")
}

/// The §4.1 conjunction as one opaque regular predicate, which the
/// ICDCS'01 algorithm slices directly. Each evaluation counts the
/// clauses it reads as `monolithic.clause_evals`.
#[derive(Debug)]
struct Monolithic(Vec<BoundedDifference>);

impl Predicate for Monolithic {
    fn support(&self) -> ProcSet {
        let supports = self.0.iter().map(Predicate::support);
        supports.fold(ProcSet::empty(), ProcSet::union)
    }

    fn eval(&self, st: &GlobalState<'_>) -> bool {
        let false_clause = self.0.iter().position(|c| !c.eval(st));
        let read = false_clause.map_or(self.0.len(), |i| i + 1);
        slicing_observe::counter("monolithic.clause_evals", read as u64);
        false_clause.is_none()
    }
}

impl LinearPredicate for Monolithic {
    fn forbidden_process(&self, st: &GlobalState<'_>) -> ProcessId {
        let false_clause = self.0.iter().find(|c| !c.eval(st));
        false_clause
            .expect("called on a false state")
            .forbidden_process(st)
    }
}

fn main() {
    let mut out = String::from("BENCH_complexity.json");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--out" => out = it.next().expect("--out PATH"),
            other => panic!("unknown flag {other}"),
        }
    }
    let table = BenchTable::new("table_complexity")
        .param("tolerance", TOLERANCE)
        .param("reps", REPS);
    let mut sweep = Sweep {
        table,
        points: Default::default(),
    };

    // |E| doubling at n = 6: `x ≥ 1` on every process (so k = n), the
    // channel predicate on two, and the grafts of two one-process slices.
    for m in [25, 50, 100, 200] {
        let comp = &random(7, 6, m, 4);
        let size = comp.num_events() as u64;
        let all = at_least(comp, &[0, 1, 2, 3, 4, 5], 1);
        let chan = AtMostInTransit::new(comp.process(0), comp.process(1), 0);
        let s1 = slice_conjunctive(comp, &at_least(comp, &[0], 1));
        let s2 = slice_conjunctive(comp, &at_least(comp, &[1], 2));
        sweep.row("conjunctive", size, comp, || slice_conjunctive(comp, &all));
        sweep.row("regular", size, comp, || slice_regular(comp, &all));
        sweep.row("linear", size, comp, || slice_linear(comp, &all));
        sweep.row("channel", size, comp, || slice_linear(comp, &chan));
        sweep.row("postlinear", size, comp, || slice_postlinear(comp, &all));
        sweep.row("coregular", size, comp, || slice_co_regular(comp, &all));
        sweep.row("graft_and", size, comp, || graft_and(&s1, &s2));
        sweep.row("graft_or", size, comp, || graft_or(&s1, &s2));
    }

    // §4.2: m doubling at n = 3, values drawn from 0..m so that each
    // process's distinct values grow with m. The DNF has m^(k-1) clauses,
    // each sliced in O(|E|), so at fixed n its evaluations grow as m^k.
    for m in [8, 16, 32, 64] {
        let comp = &random(11, 3, m, i64::from(m));
        let x: Vec<_> = comp
            .processes()
            .map(|p| comp.var(p, "x").expect("x"))
            .collect();
        let neq = KLocalPredicate::new(vec![x[0], x[1]], "x0 != x1", |v| v[0] != v[1]);
        let sum = KLocalPredicate::new(x.clone(), "x0+x1==x2", |v| {
            v[0].expect_int() + v[1].expect_int() == v[2].expect_int()
        });
        let families = [("klocal2", &neq), ("klocal3", &sum)];
        let evals = [("klocal2_evals", &neq), ("klocal3_evals", &sum)];
        for (family, pred) in families.into_iter().chain(evals) {
            sweep.row(family, u64::from(m), comp, || slice_klocal(comp, pred));
        }
    }

    // §4.1: n doubling at 12 events per process, `|cᵢ − cⱼ| ≤ 3` for every
    // pair (k = 2, s = n − 1), sliced clause by clause and as one
    // predicate; both sides count clause evaluations.
    for n in [4, 8, 16, 32] {
        let comp = &clocks(n, 12);
        let pairs = synchronized_clauses(comp, 3);
        let whole = Monolithic(pairs.clone());
        sweep.row("decomposable", n as u64, comp, || {
            slice_decomposable(comp, &pairs)
        });
        sweep.row("monolithic", n as u64, comp, || slice_linear(comp, &whole));
    }

    println!("# §4 complexity claims: work counters by doubling, tolerance ±{TOLERANCE}");
    print!("{}", sweep.table.render_text());
    let mark = |ok: bool| if ok { "✓" } else { "✗ (reported)" };
    let mut failed = Vec::new();
    for ((name, axis, counter, claim, asserted), points) in CLAIMS.iter().zip(&sweep.points) {
        let d = exponent(points);
        println!(
            "# {name:<14} {counter:<25} {axis}^{d:.2}, claimed {axis}^{claim}  {}",
            mark(holds(d, *claim))
        );
        if *asserted && !holds(d, *claim) {
            failed.push(format!(
                "{name}: {counter} grows as {axis}^{d:.2}, not {axis}^{claim}"
            ));
        }
    }
    // The §4.1 speed-up, claimed to be a factor of n.
    let [.., dec, whole] = &sweep.points;
    let speedup = exponent(whole) - exponent(dec);
    let ratios = dec
        .iter()
        .zip(whole)
        .map(|(&(n, d), &(_, w))| format!("{:.1}× at n = {n}", w as f64 / d as f64));
    let ratios = ratios.collect::<Vec<_>>().join(", ");
    let verdict = mark(holds(speedup, 1.0));
    println!("# §4.1 speed-up {ratios}: n^{speedup:.2}, claimed n^1  {verdict}");
    assert!(failed.is_empty(), "growth claims failed: {failed:#?}");
    sweep.table.write(&out).expect("write bench artifact");
    eprintln!("# wrote {out}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_quadratic_series_fails_a_linear_claim() {
        let quadratic: Vec<(u64, u64)> = [156, 306, 606, 1206].map(|s| (s, s * s)).to_vec();
        assert!(!holds(exponent(&quadratic), 1.0));
        assert!(holds(exponent(&quadratic), 2.0));
    }

    #[test]
    fn the_measured_channel_series_passes_its_linear_claim() {
        // The channel rows' `slice.linear.evals`: 2.70×, 1.81× and 1.93×
        // per doubling, but 1.10 over the whole sweep.
        let channel = [(156, 181), (306, 489), (606, 887), (1206, 1711)];
        let d = exponent(&channel);
        assert!((d - 1.10).abs() < 0.005, "{d}");
        assert!(holds(d, 1.0));
    }
}
