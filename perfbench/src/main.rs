//! End-to-end and per-layer benchmark of the slicing system.
//!
//! ```text
//! perfbench --workload <serve-mux|monitor-trace|recover-zoo|detect-lattice>
//!           --seed <n> --seconds <s> --trace <0|1> --slicing <binary> --work <dir>
//! ```
//!
//! With `--trace 0` a run times its workload end to end and prints the
//! end-to-end metrics; with `--trace 1` it replays the same seeded inputs
//! in process with spans around every call into a layer and prints the
//! per-layer metrics. The last stdout line is one JSON object. See
//! `README.md` next to this file for the workloads, the metrics and the
//! predictions they carry.

mod gen;
mod offline;
mod online;
mod spans;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `slicing` binary the CLI workloads drive.
    pub slicing: PathBuf,
    /// Scratch directory for streams, checkpoints and metrics files.
    pub work: PathBuf,
}

/// End-to-end metrics: every workload reports each of them.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run. A workload reports 0 for a layer
/// it never enters.
const PER_LAYER: [(&str, &str); 60] = [
    ("trace.parse_s", "s"),
    ("trace.from_text_s", "s"),
    ("incremental.observe_s", "s"),
    ("incremental.message_s", "s"),
    ("incremental.retimes", "count"),
    ("incremental.retained_events", "count"),
    ("multiplex.observe_s", "s"),
    ("multiplex.message_s", "s"),
    ("multiplex.check_s", "s"),
    ("multiplex.gc_s", "s"),
    ("multiplex.clause_evals", "count"),
    ("multiplex.check_cost", "count"),
    ("multiplex.peak_candidates", "count"),
    ("multiplex.gc_reclaim_ratio", "ratio"),
    ("monitor.observe_s", "s"),
    ("monitor.message_s", "s"),
    ("monitor.check_s", "s"),
    ("monitor.gc_s", "s"),
    ("monitor.check_cost", "count"),
    ("monitor.peak_candidates", "count"),
    ("monitor.gc_reclaim_ratio", "ratio"),
    ("checkpoint.export_s", "s"),
    ("checkpoint.encode_s", "s"),
    ("checkpoint.write_s", "s"),
    ("checkpoint.bytes", "bytes"),
    ("checkpoint.decode_s", "s"),
    ("checkpoint.restore_s", "s"),
    ("snapshot.write_s", "s"),
    ("snapshot.bytes", "bytes"),
    ("simulator.run_s", "s"),
    ("simulator.inject_s", "s"),
    ("simulator.resume_s", "s"),
    ("spec.build_s", "s"),
    ("slice.build_s", "s"),
    ("slice.row_joins", "count"),
    ("slice.edges_merged", "count"),
    ("search.slice_s", "s"),
    ("search.cuts", "count"),
    ("search.bfs_s", "s"),
    ("search.lean_s", "s"),
    ("search.pom_s", "s"),
    ("search.bfs_ns_per_cut", "ns"),
    ("search.lean_ns_per_cut", "ns"),
    ("search.pom_ns_per_cut", "ns"),
    ("search.visited_probes", "count"),
    ("search.hit_ratio", "ratio"),
    ("search.peak_live_cuts", "count"),
    ("search.peak_bytes", "bytes"),
    ("resilient.fallbacks", "count"),
    ("line.build_s", "s"),
    ("line.exhaustive_ratio", "ratio"),
    ("replay.verify_s", "s"),
    ("replay.attempts_per_op", "count"),
    ("replay.recovered_ratio", "ratio"),
    ("replay.ops_past_default_attempts", "count"),
    ("replay.max_attempts", "count"),
    ("cli.unattributed_frac", "ratio"),
    ("bench.op_self_s", "s"),
    ("bench.unattributed_frac", "ratio"),
    ("bench.trace_overhead_frac", "ratio"),
];

/// What a workload run hands back: its correctness verdict, op counts,
/// and metric values by name.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Set when a check other than a per-op one failed (e.g. the child
    /// exited non-zero or its output could not be read).
    pub broken: Option<String>,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER.iter())
                .any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.metrics.insert(name, value);
    }

    pub fn fail(&mut self, why: String) {
        if self.broken.is_none() {
            self.broken = Some(why);
        }
    }
}

/// Linear-interpolated quantile `q` in [0, 1] of `samples` (sorted in
/// place), as `statistics.quantiles(..., method="inclusive")` gives it.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    samples.sort_by(f64::total_cmp);
    let pos = q * (samples.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    samples[lo] + (samples[hi] - samples[lo]) * (pos - lo as f64)
}

pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Runs `pass` over and over until `seconds` have gone by (at least
/// `min_passes` times), and `setup` `setups` times spread over the run:
/// after the first pass that ends past each k/`setups` of `seconds`
/// (k = 0, 1, ...), and at the end for any not yet run. Set-ups repeated
/// back to back would let one slow spell of the host cover them all.
/// Returns each pass's result and each set-up's seconds. A pass is fixed
/// work, so per-op figures do not depend on how many passes fit.
pub fn passes_with_setups<P>(
    seconds: f64,
    min_passes: usize,
    setups: usize,
    mut pass: impl FnMut() -> Result<P, String>,
    mut setup: impl FnMut() -> Result<f64, String>,
) -> Result<(Vec<P>, Vec<f64>), String> {
    let start = Instant::now();
    let mut passes = Vec::new();
    let mut setup_s = Vec::new();
    while passes.len() < min_passes || start.elapsed().as_secs_f64() < seconds {
        passes.push(pass()?);
        let due = seconds * setup_s.len() as f64 / setups as f64;
        if setup_s.len() < setups && start.elapsed().as_secs_f64() >= due {
            setup_s.push(setup()?);
        }
    }
    while setup_s.len() < setups {
        setup_s.push(setup()?);
    }
    Ok((passes, setup_s))
}

/// Prints each set-up's seconds in run order.
pub fn print_setups(what: &str, seconds: &[f64]) {
    let all: Vec<String> = seconds.iter().map(|s| format!("{s:.4}")).collect();
    println!("{what} (s): {}", all.join(" "));
}

/// Each op's least latency over the passes that repeat it. On a shared
/// host the workloads slow by up to 1.8x over spans of seconds (other
/// tenants share its caches and memory), so an op's fastest repetition is
/// its cost with the machine quiet, while its mean would mostly measure
/// the neighbours. Figures taken from these are a lower envelope: the
/// cost of each op at its best, not a latency or throughput one pass had.
pub fn per_op_best(passes: &[Vec<f64>]) -> Vec<f64> {
    let mut best = passes.first().cloned().unwrap_or_default();
    for pass in &passes[1..] {
        for (b, &x) in best.iter_mut().zip(pass) {
            *b = b.min(x);
        }
    }
    best
}

/// Peak resident set of this process, in MB (`VmHWM`).
pub fn self_peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Largest peak resident set among the child processes reaped so far, in
/// MB (`getrusage(RUSAGE_CHILDREN)`, whose `ru_maxrss` Linux reports in
/// KiB). The standard library exposes no rusage, hence the foreign call.
pub fn children_peak_rss_mb() -> f64 {
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable struct laid out like the C
    // `struct rusage` on 64-bit Linux (two timevals, then fourteen longs),
    // and `getrusage` writes only within it.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc == 0 {
        usage.maxrss as f64 / 1024.0
    } else {
        0.0
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut slicing = None;
    let mut work = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--slicing" => slicing = Some(PathBuf::from(value)),
            "--work" => work = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        slicing: slicing.ok_or("--slicing is required")?,
        work: work.ok_or("--work is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("perfbench: creating {}: {e}", args.work.display());
        return ExitCode::from(2);
    }
    let outcome = match args.workload.as_str() {
        "serve-mux" => online::serve_mux(&args),
        "monitor-trace" => online::monitor_trace(&args),
        "recover-zoo" => offline::recover_zoo(&args),
        "detect-lattice" => offline::detect_lattice(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    if let Some(why) = &outcome.broken {
        println!("CHECK FAILED: {why}");
    }
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = String::new();
    for (name, unit) in names {
        let Some(&value) = outcome.metrics.get(name) else {
            eprintln!("perfbench: {} did not measure {name}", args.workload);
            return ExitCode::from(3);
        };
        println!("  {name:<30} {value:>16.6} {unit}");
        if !metrics.is_empty() {
            metrics.push_str(", ");
        }
        metrics.push_str(&format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    let correct = outcome.broken.is_none() && outcome.failed == 0 && outcome.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.attempted, outcome.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
