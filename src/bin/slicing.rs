//! `slicing` — command-line predicate detection over recorded traces.
//!
//! ```text
//! slicing fixture figure1 > run.trace
//! slicing stats   run.trace "x1@0 > 1 && x3@2 <= 3"
//! slicing detect  run.trace "x1@0 > 1 && x3@2 <= 3" --engine slice
//! slicing modality run.trace "x1@0 > 1" --mode definitely
//! slicing cuts    run.trace --limit 40
//! slicing dot     run.trace "x1@0 > 1 && x3@2 <= 3" | dot -Tsvg > slice.svg
//! ```
//!
//! Traces use the line format of `slicing_computation::trace`; predicates
//! use the `var@process` expression language.

use std::process::ExitCode;

use computation_slicing::computation::lattice::{count_cuts, for_each_cut};
use computation_slicing::computation::test_fixtures;
use computation_slicing::computation::trace::from_text;
use computation_slicing::detect::{Engine, ParseEngineError};
use computation_slicing::predicates::expr::parse_predicate;
use computation_slicing::recovery::RecoveryOutcome;
use computation_slicing::sim::{self, Protocol};
use computation_slicing::slicer::dot::{computation_to_dot, slice_to_dot};
use computation_slicing::slicer::{compile_predicate, SliceStats};
use computation_slicing::{
    definitely, detect, recover, Computation, GlobalState, Limits, PredicateSpec, RecoverConfig,
    RecoveryVerdict, ResilientConfig,
};

/// Writes `args` to stdout. A closed pipe (`slicing cuts t | head -1`)
/// ends the output: the process exits 0 with nothing on stderr. Stdout
/// stays line-buffered, so `serve` and `monitor` still emit each line as
/// they print it.
fn emit(args: std::fmt::Arguments<'_>) {
    use std::io::Write;
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("writing stdout: {e}");
        std::process::exit(1);
    }
}

/// `print!` through [`emit`].
macro_rules! out {
    ($($arg:tt)*) => {
        emit(format_args!($($arg)*))
    };
}

/// `println!` through [`emit`].
macro_rules! outln {
    ($($arg:tt)*) => {
        emit(format_args!("{}\n", format_args!($($arg)*)))
    };
}

fn usage() -> &'static str {
    "usage:
  slicing [--log off|error|warn|info|debug|trace] [--report <path>] <command> ...

  slicing stats   <trace> <predicate>
  slicing detect  <trace> <predicate>
                  [--engine slicing|hybrid|pom|bfs|reverse]
                  [--max-cuts N] [--max-live-cuts N] [--cap-kb N] [--timeout-ms N]
  slicing modality <trace> <predicate> --mode possibly|definitely|invariant|controllable
  slicing monitor <trace> <predicate>
                  [--metrics <path>] [--metrics-every N]
                  [--gc-lag N] [--gc-every N]
                  [--checkpoint <path>] [--checkpoint-every N] [--checkpoint-keep K]
                  [--resume <path>]
  slicing serve   [<stream>] [--tenant id=EXPR]... [--listen <addr>]
                  [--metrics <path>] [--metrics-every N]
                  [--gc-lag N] [--gc-every N]
                  [--checkpoint <path>] [--checkpoint-every N] [--checkpoint-keep K]
                  [--resume <path>]
  slicing profile <trace> <predicate>
                  [--engine slicing|hybrid|pom|bfs|reverse] [--folded] [--out <path>]
  slicing bench-diff <baseline.json> <current.json> [--threshold T]
  slicing validate <file>...
  slicing recover --protocol ps|db [--procs N] [--events N] [--seed S]
                  [--fault corrupt|drop-message|duplicate-message|delay-delivery|crash-stop|burst|none]
                  [--attempts N] [--reinject N] [--no-backoff] [--timeout-ms N]
  slicing show    <trace> [<cut as comma list, e.g. 2,2,1>]
  slicing cuts    <trace> [--limit N]
  slicing dot     <trace> [<predicate>]
  slicing fixture figure1|grid40

`detect` and `profile` run one engine from the registry; the default,
`slicing` (also spelled `slice`), slices the predicate and searches the
slice. `bfs` is level-order search: on a computation it keeps two lattice
layers of cuts alive, so `--max-live-cuts` bounds it by the widest layer.
`hybrid` is the paper's two-step chain: partial-order methods (`pom`)
under a small memory budget, then slicing.
--log mirrors the SLICING_LOG environment variable (the flag wins) and
prints leveled span/counter traces to stderr. --report writes the detect
outcome as one `slicing.run-report/v1` JSON object to <path> (`-` for
stdout); on `recover` it writes the `slicing.recovery-report/v1` outcome,
on `monitor` and `serve` the `slicing.serve-report/v1` stream summary, and
on `bench-diff` the `slicing.bench-diff/v1` verdict document.
`recover` simulates a protocol run, injects the chosen fault, and drives
the full detect → recovery line → rollback → replay loop; detection runs
the chain slicing → pom → bfs, and `--timeout-ms` splits evenly over
those three engines. `monitor`
replays the trace through the online monitoring hub with one tenant
(amortized O(1) per check), reporting every distinct alarm cut as it
appears; the predicate must be a conjunction of local clauses.
`--metrics` streams `slicing.metrics/v1` delta snapshots (one JSONL line
every N observed events, default 100) to <path> while the monitor runs.
`--gc-lag` / `--gc-every` enable causal-stability garbage collection
(compact history more than N events behind the stable frontier,
attempted every N observations; defaults 128/1024 when either flag is
given).
`--checkpoint` writes a versioned `slicing.serve-checkpoint/v1` snapshot
of the hub to <path> — atomically, every `--checkpoint-every` N events
and once at end of stream; `--checkpoint-keep K` retains the last K
snapshot generations (<path>, <path>.1, …) and deletes older ones, so a
long-running monitor uses bounded disk. `--resume` restores a monitor
from such a snapshot and skips the prefix of the trace it already
consumed; the GC configuration travels inside the checkpoint. All
`--*-every` counts must be positive. Both `monitor` and `serve` ingest
the trace incrementally — events stream straight into the online engine
and are never materialized as a whole computation first.
`serve` multiplexes many tenant predicates over one live trace stream
(a file, `-` for stdin, or one TCP connection via `--listen`): repeat
`--tenant id=EXPR` for the initial tenants, and add or remove tenants
mid-stream with `tenant <id> <expr>` / `untenant <id>` directive lines
in the stream itself. Tenants watching overlapping conjunctions share
candidate queues through the graft cache, so the per-event cost grows
sublinearly with the tenant count. Alarms print per tenant as
`alarm tenant=<id> after N events: ...`, and `--resume` picks a killed
service back up mid-stream (feed the same stream again; the consumed
prefix is skipped). With `--report` it writes a
`slicing.serve-report/v1` summary.
`profile` runs a detection with the span profiler installed and emits
one `slicing.profile/v1` document: the merged span tree with wall time
and per-span counter attribution (per-span counters sum to the flat
totals). `--folded` prints folded-stack text for flamegraph tooling
instead; `--out` writes the JSON document to a file in either mode.
`bench-diff` compares a fresh `slicing.bench/v1` table against a
baseline with the column kinds the baseline declares: `exact` columns must
match, `gated` counters may drift at most T (default 0.25), `info`
columns (wall-clock) are never compared. It exits nonzero on any failed
check, and on a fresh table from another binary, with other columns or
other row names. `validate` parses each file (JSON or JSONL)
and checks every document against the known `slicing.*/v1` schemas; a
`slicing.serve-checkpoint/v1` document must also pass the decoder and
consistency checks `--resume` runs.

<trace> is a file path or `-` for stdin; predicates use the expression
language, e.g. \"x1@0 > 1 && x3@2 <= 3\". `detect`, `monitor` and `serve`
check a trace by the same rules (`slicing_computation::trace::TraceReader`)
and reject the same traces with the same error line; `monitor` and `serve`
may print alarms for the lines before it. The one exception is a message
given twice or messages that form a cycle, which only the causal store
sees: `detect` rejects them, `monitor` and `serve` warn once and skip."
}

/// Checks a parsed document against the schema registry. A hub
/// checkpoint must also decode and rebuild a hub, so `validate` accepts
/// exactly the checkpoints `--resume` can load.
fn validate_document(
    doc: &slicing_observe::json::JsonValue,
    text: &str,
) -> Result<&'static str, String> {
    let name = slicing_observe::schema::validate(doc).map_err(|e| e.to_string())?;
    if name == slicing_observe::schema::SERVE_CHECKPOINT {
        let (state, _) =
            computation_slicing::detect::checkpoint::decode_str(text).map_err(|e| e.to_string())?;
        MonitorHub::from_state(&state).map_err(|e| e.to_string())?;
    }
    Ok(name)
}

/// Parses a strictly positive integer flag value; zero and garbage both
/// produce a typed usage error naming the flag.
fn parse_positive(flag: &str, value: &str) -> Result<u64, String> {
    let n: u64 = value
        .parse()
        .map_err(|e| format!("{flag}: {e}\n\n{}", usage()))?;
    if n == 0 {
        return Err(format!("{flag} must be positive (got 0)\n\n{}", usage()));
    }
    Ok(n)
}

/// The whole text of a file, or of stdin for `-`.
fn read_input(path: &str) -> Result<String, String> {
    if path != "-" {
        return std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"));
    }
    let mut buf = String::new();
    std::io::Read::read_to_string(&mut std::io::stdin(), &mut buf)
        .map_err(|e| format!("reading stdin: {e}"))?;
    Ok(buf)
}

fn load_trace(path: &str) -> Result<Computation, String> {
    from_text(&read_input(path)?).map_err(|e| e.to_string())
}

/// Strips the global `--log`/`--report` flags (valid before or after the
/// subcommand), installs the stderr logger, and returns the remaining args
/// plus the report path.
fn global_flags(raw: Vec<String>) -> Result<(Vec<String>, Option<String>), String> {
    let mut args = Vec::with_capacity(raw.len());
    let mut log_level = None;
    let mut report = None;
    let mut it = raw.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--log" => {
                let value = it.next().ok_or("--log needs a level")?;
                log_level =
                    Some(slicing_observe::Level::parse(&value).ok_or_else(|| {
                        format!("unknown log level {value:?} (try debug or trace)")
                    })?);
            }
            "--report" => report = Some(it.next().ok_or("--report needs a path")?),
            _ => args.push(arg),
        }
    }
    match log_level {
        Some(level) => slicing_observe::install(std::sync::Arc::new(
            slicing_observe::StderrLogger::new(level),
        )),
        None => {
            if let Some(logger) = slicing_observe::StderrLogger::from_env() {
                slicing_observe::install(std::sync::Arc::new(logger));
            }
        }
    }
    Ok((args, report))
}

fn run() -> Result<(), String> {
    let (args, report) = global_flags(std::env::args().skip(1).collect())?;
    let Some(command) = args.first() else {
        return Err(usage().to_owned());
    };
    if report.is_some()
        && !matches!(
            command.as_str(),
            "detect" | "recover" | "monitor" | "serve" | "bench-diff"
        )
    {
        eprintln!(
            "note: --report only applies to `slicing detect`, `slicing recover`, \
             `slicing monitor`, `slicing serve`, and `slicing bench-diff`; ignoring"
        );
    }

    match command.as_str() {
        "fixture" => match args.get(1).map(String::as_str) {
            Some("figure1") => {
                out!(
                    "{}",
                    computation_slicing::computation::trace::to_text(&test_fixtures::figure1())
                );
                Ok(())
            }
            Some("grid40") => {
                out!(
                    "{}",
                    computation_slicing::computation::trace::to_text(&grid40_fixture())
                );
                Ok(())
            }
            other => Err(format!(
                "unknown fixture {other:?}; available: figure1, grid40"
            )),
        },
        "stats" => {
            let (trace, pred_src) = two_args(&args)?;
            let comp = load_trace(trace)?;
            let pred = parse_predicate(&comp, pred_src).map_err(|e| e.to_string())?;
            let spec = compile_predicate(&comp, &pred);
            let slice = spec.slice(&comp);
            let stats = SliceStats::gather(&comp, &slice, Some(5_000_000));
            outln!("{stats}");
            outln!("meta-events:");
            for (i, meta) in slice.meta_events().iter().enumerate() {
                let names: Vec<String> = meta.iter().map(|&e| comp.describe_event(e)).collect();
                outln!("  M{i}: {{{}}}", names.join(", "));
            }
            Ok(())
        }
        "detect" => {
            let (trace, pred_src) = two_args(&args)?;
            let mut engine_name = "slice".to_owned();
            let mut limits = Limits::none();
            let mut it = args[3..].iter();
            while let Some(flag) = it.next() {
                if flag == "--threads" {
                    return Err(retired_option("--threads"));
                }
                let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
                match flag.as_str() {
                    "--engine" => engine_name = value.clone(),
                    "--max-cuts" => {
                        limits.max_cuts = Some(value.parse().map_err(|e| format!("{e}"))?)
                    }
                    "--max-live-cuts" => {
                        let n: u64 = value.parse().map_err(|e| format!("{e}"))?;
                        limits = limits.with_live_cuts(n);
                    }
                    "--cap-kb" => {
                        let kb: u64 = value.parse().map_err(|e| format!("{e}"))?;
                        limits.max_bytes = Some(kb * 1024);
                    }
                    "--timeout-ms" => {
                        let ms: u64 = value.parse().map_err(|e| format!("{e}"))?;
                        limits.max_elapsed = Some(std::time::Duration::from_millis(ms));
                    }
                    other => return Err(format!("unknown flag {other}\n\n{}", usage())),
                }
            }
            let engine = parse_engine(&engine_name)?;
            let comp = load_trace(trace)?;
            let pred = parse_predicate(&comp, pred_src).map_err(|e| e.to_string())?;
            let spec = compile_predicate(&comp, &pred);
            let outcome = engine.detect(&comp, &pred, &spec, &limits);
            outln!("{engine}: {outcome}");
            if let Some(path) = &report {
                // A real slicing.run-report/v1 document, so `slicing
                // validate` and other tooling can consume it.
                let mut run =
                    slicing_observe::RunReport::new(workload_name(trace), engine_name.as_str());
                run.procs = Some(comp.num_processes() as u64);
                run.events = Some(comp.num_events() as u64);
                run.detected = Some(outcome.detected());
                run.witness = outcome.found.as_ref().map(|cut| {
                    (0..cut.num_processes())
                        .map(|p| u64::from(cut.count(computation_slicing::ProcessId::new(p))))
                        .collect()
                });
                run.aborted = outcome.aborted.map(|r| r.code().to_owned());
                run.cuts_explored = Some(outcome.cuts_explored);
                run.max_stored_cuts = Some(outcome.max_stored_cuts);
                run.peak_bytes = Some(outcome.peak_bytes);
                run.elapsed_secs = Some(outcome.elapsed.as_secs_f64());
                for (name, d) in &outcome.phases {
                    run = run.phase(name.as_str(), d.as_secs_f64());
                }
                write_report(path, &run.to_json())?;
            }
            match &outcome.found {
                Some(cut) => {
                    outln!("witness cut: {cut}");
                    let st = GlobalState::new(&comp, cut);
                    for p in comp.processes() {
                        let mut vals = Vec::new();
                        for n in comp.var_names(p) {
                            let value = st.get_named(p, n).ok_or_else(|| {
                                format!("variable {n} on {p} has no value at the witness cut")
                            })?;
                            vals.push(format!("{n}={value}"));
                        }
                        outln!(
                            "  {p} @ {}: {}",
                            comp.describe_event(st.frontier(p)),
                            vals.join(", ")
                        );
                    }
                }
                None => match outcome.aborted {
                    Some(reason) => outln!("undecided: {reason}"),
                    None => outln!("predicate does not hold anywhere"),
                },
            }
            Ok(())
        }
        "recover" => {
            let mut protocol = None;
            let mut procs = 4usize;
            let mut events = 12u32;
            let mut seed = 1u64;
            let mut fault = "corrupt".to_owned();
            let mut attempts = 3u32;
            let mut reinject = 0u32;
            let mut backoff = true;
            let mut timeout_ms = None;
            let mut it = args[1..].iter();
            while let Some(flag) = it.next() {
                if flag == "--no-backoff" {
                    backoff = false;
                    continue;
                }
                let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
                match flag.as_str() {
                    "--protocol" => protocol = Some(value.clone()),
                    "--procs" => procs = value.parse().map_err(|e| format!("{e}"))?,
                    "--events" => events = value.parse().map_err(|e| format!("{e}"))?,
                    "--seed" => seed = value.parse().map_err(|e| format!("{e}"))?,
                    "--fault" => fault = value.clone(),
                    "--attempts" => attempts = value.parse().map_err(|e| format!("{e}"))?,
                    "--reinject" => reinject = value.parse().map_err(|e| format!("{e}"))?,
                    "--timeout-ms" => timeout_ms = Some(value.parse().map_err(|e| format!("{e}"))?),
                    other => return Err(format!("unknown flag {other}\n\n{}", usage())),
                }
            }
            let protocol =
                protocol.ok_or_else(|| format!("recover needs --protocol\n\n{}", usage()))?;

            let mut cfg = RecoverConfig {
                sim: sim::SimConfig {
                    seed,
                    max_events_per_process: events,
                    ..sim::SimConfig::default()
                },
                ..RecoverConfig::default()
            };
            cfg.retry.max_attempts = attempts;
            cfg.retry.backoff = backoff;
            cfg.retry.reinject_attempts = reinject;
            if let Some(ms) = timeout_ms {
                cfg.detect = ResilientConfig::default()
                    .with_total_deadline(std::time::Duration::from_millis(ms));
            }

            let outcome = match protocol.as_str() {
                "ps" => recover_protocol(
                    || sim::primary_secondary::PrimarySecondary::new(procs),
                    sim::primary_secondary::violation_spec,
                    &fault,
                    &mut cfg,
                )?,
                "db" => recover_protocol(
                    || sim::database::DatabasePartitioning::new(procs),
                    sim::database::violation_spec,
                    &fault,
                    &mut cfg,
                )?,
                other => return Err(format!("unknown protocol {other:?} (try ps or db)")),
            };

            outln!("verdict: {}", outcome.verdict);
            if let Some(engine) = outcome.engine {
                outln!(
                    "detected by: {engine} ({} engine fallback(s))",
                    outcome.engine_fallbacks
                );
            }
            if let Some(witness) = &outcome.witness {
                outln!("witness cut: {witness}");
            }
            if let Some(line) = &outcome.line {
                let method = outcome.line_method.map_or("?", |m| m.name());
                outln!("recovery line: {line} (method {method})");
            }
            for (i, a) in outcome.attempts.iter().enumerate() {
                outln!(
                    "attempt {}: seed {} deliver-weight {}{}{}",
                    i + 1,
                    a.seed,
                    a.deliver_weight,
                    if a.reinjected { " reinjected" } else { "" },
                    if a.violation_found {
                        " -> violation recurred"
                    } else {
                        " -> clean"
                    },
                );
            }
            if let Some(path) = &report {
                write_report(path, &outcome.to_json())?;
            }
            match outcome.verdict {
                RecoveryVerdict::CleanAlready | RecoveryVerdict::Recovered => Ok(()),
                other => Err(format!("recovery failed: {other}")),
            }
        }
        "monitor" => monitor_cmd(&args, report.as_deref()),
        "serve" => serve_cmd(&args, report.as_deref()),
        "profile" => {
            let (trace, pred_src) = two_args(&args)?;
            let mut engine_name = "slice".to_owned();
            let mut folded = false;
            let mut out = None;
            let mut it = args[3..].iter();
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--folded" => folded = true,
                    "--engine" => {
                        engine_name = it.next().ok_or("--engine needs a value")?.clone();
                    }
                    "--threads" => return Err(retired_option("--threads")),
                    "--out" => out = Some(it.next().ok_or("--out needs a path")?.clone()),
                    other => return Err(format!("unknown flag {other}\n\n{}", usage())),
                }
            }
            let engine = parse_engine(&engine_name)?;
            let comp = load_trace(trace)?;
            let pred = parse_predicate(&comp, pred_src).map_err(|e| e.to_string())?;
            let spec = compile_predicate(&comp, &pred);

            // The profiler is the process-wide recorder for the run. It
            // replaces any --log stderr logger for the profiled region.
            let profiler = std::sync::Arc::new(slicing_observe::Profiler::new());
            slicing_observe::install(profiler.clone());
            let outcome = engine.detect(&comp, &pred, &spec, &Limits::none());
            slicing_observe::uninstall();

            let mut profile = profiler.report();
            profile.workload = workload_name(trace);
            profile.predicate = pred_src.to_owned();
            profile.engine = engine_name;
            let json = profile.to_json();
            if let Some(path) = &out {
                std::fs::write(path, format!("{json}\n"))
                    .map_err(|e| format!("writing {path}: {e}"))?;
            }
            if folded {
                out!("{}", profile.to_folded());
            } else if out.is_none() {
                outln!("{json}");
            }
            eprintln!("profiled: {outcome}");
            Ok(())
        }
        "bench-diff" => {
            let (base_path, cur_path) = two_args(&args)?;
            let mut threshold = slicing_observe::diff::DEFAULT_THRESHOLD;
            let mut it = args[3..].iter();
            while let Some(flag) = it.next() {
                let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
                match flag.as_str() {
                    "--threshold" => threshold = value.parse().map_err(|e| format!("{e}"))?,
                    other => return Err(format!("unknown flag {other}\n\n{}", usage())),
                }
            }
            let baseline = load_json_doc(base_path)?;
            let current = load_json_doc(cur_path)?;
            let verdict = slicing_observe::diff::diff(&baseline, &current, threshold)?;
            out!("{}", verdict.render_text());
            if let Some(path) = &report {
                write_report(path, &verdict.to_json())?;
            }
            if verdict.pass() {
                Ok(())
            } else {
                Err(format!(
                    "bench drift: {} check(s) over threshold {threshold}",
                    verdict.failures().len()
                ))
            }
        }
        "validate" => {
            let paths = &args[1..];
            if paths.is_empty() {
                return Err(format!("validate needs at least one file\n\n{}", usage()));
            }
            let mut problems = 0u64;
            for path in paths {
                let text =
                    std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
                let mut schemas: Vec<&'static str> = Vec::new();
                // A file is either one JSON document (possibly pretty,
                // spanning lines) or JSONL; try whole-file first.
                let docs: Vec<(usize, String)> = match slicing_observe::json::parse(&text) {
                    Ok(_) => vec![(1, text.clone())],
                    Err(_) => text
                        .lines()
                        .enumerate()
                        .filter(|(_, l)| !l.trim().is_empty())
                        .map(|(i, l)| (i + 1, l.to_owned()))
                        .collect(),
                };
                if docs.is_empty() {
                    eprintln!("{path}: empty file");
                    problems += 1;
                    continue;
                }
                let mut file_problems = 0u64;
                for (line, doc_text) in &docs {
                    match slicing_observe::json::parse(doc_text) {
                        Ok(doc) => match validate_document(&doc, doc_text) {
                            Ok(name) => schemas.push(name),
                            Err(e) => {
                                eprintln!("{path}:{line}: {e}");
                                file_problems += 1;
                            }
                        },
                        Err(e) => {
                            eprintln!("{path}:{line}: {e}");
                            file_problems += 1;
                        }
                    }
                }
                problems += file_problems;
                if file_problems == 0 {
                    schemas.sort_unstable();
                    schemas.dedup();
                    outln!(
                        "{path}: {} document(s) ok ({})",
                        docs.len(),
                        schemas.join(", ")
                    );
                }
            }
            if problems == 0 {
                Ok(())
            } else {
                Err(format!("validation failed: {problems} problem(s)"))
            }
        }
        "modality" => {
            let (trace, pred_src) = two_args(&args)?;
            let mode = match (args.get(3).map(String::as_str), args.get(4)) {
                (Some("--mode"), Some(m)) => m.clone(),
                _ => return Err(format!("modality needs --mode\n\n{}", usage())),
            };
            let comp = load_trace(trace)?;
            let pred = parse_predicate(&comp, pred_src).map_err(|e| e.to_string())?;
            let limits = Limits::none();
            let verdict = match mode.as_str() {
                "possibly" => {
                    let spec = compile_predicate(&comp, &pred);
                    Engine::Bfs.detect(&comp, &pred, &spec, &limits).detected()
                }
                "definitely" => definitely(&comp, &pred, &limits),
                "invariant" => detect::invariant(&comp, &pred, &limits),
                "controllable" => detect::controllable(&comp, &pred, &limits),
                other => return Err(format!("unknown mode {other}\n\n{}", usage())),
            };
            outln!("{mode}: {verdict}");
            Ok(())
        }
        "show" => {
            let trace = args.get(1).ok_or_else(|| usage().to_owned())?;
            let comp = load_trace(trace)?;
            let cut = match args.get(2) {
                Some(spec) => {
                    let counts: Result<Vec<u32>, _> =
                        spec.split(',').map(|t| t.trim().parse()).collect();
                    let cut = computation_slicing::Cut::from(
                        counts.map_err(|e| format!("invalid cut: {e}"))?,
                    );
                    if !comp.is_consistent(&cut) {
                        return Err(format!("{cut} is not a consistent cut of this trace"));
                    }
                    Some(cut)
                }
                None => None,
            };
            out!(
                "{}",
                computation_slicing::computation::render::render_space_time(&comp, cut.as_ref())
            );
            Ok(())
        }
        "cuts" => {
            let trace = args.get(1).ok_or_else(|| usage().to_owned())?;
            let mut limit = 100u64;
            if let (Some(flag), Some(value)) = (args.get(2), args.get(3)) {
                if flag == "--limit" {
                    limit = value.parse().map_err(|e| format!("{e}"))?;
                }
            }
            let comp = load_trace(trace)?;
            let mut shown = 0u64;
            for_each_cut(&comp, |cut| {
                outln!("{cut}");
                shown += 1;
                shown < limit
            });
            let total = count_cuts(&comp, Some(5_000_000));
            outln!(
                "# shown {shown} of {}{}",
                total.value(),
                if total.is_exact() { "" } else { "+" }
            );
            Ok(())
        }
        "dot" => {
            let trace = args.get(1).ok_or_else(|| usage().to_owned())?;
            let comp = load_trace(trace)?;
            match args.get(2) {
                Some(pred_src) => {
                    let pred = parse_predicate(&comp, pred_src).map_err(|e| e.to_string())?;
                    let spec = compile_predicate(&comp, &pred);
                    let slice = spec.slice(&comp);
                    out!("{}", slice_to_dot(&slice));
                }
                None => out!("{}", computation_to_dot(&comp)),
            }
            Ok(())
        }
        "help" | "--help" | "-h" => {
            outln!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n\n{}", usage())),
    }
}

/// Runs the protocol clean, injects the requested fault kind (scanning a
/// few seeds for an injectable site), and drives the recovery loop.
fn recover_protocol<P: Protocol>(
    mut make: impl FnMut() -> P,
    spec_of: fn(&Computation) -> PredicateSpec,
    fault: &str,
    cfg: &mut RecoverConfig,
) -> Result<RecoveryOutcome, String> {
    let clean = sim::run(&mut make(), &cfg.sim).map_err(|e| e.to_string())?;
    let subject = if fault == "none" {
        clean
    } else {
        let plan = (0..16)
            .find_map(|offset| sim::sample_fault_plan(&clean, fault, cfg.sim.seed + offset))
            .ok_or_else(|| {
                format!("no injectable {fault:?} fault in this run (try another --seed)")
            })?;
        let faulty = sim::inject_plan(&clean, &plan).map_err(String::from)?;
        if cfg.retry.reinject_attempts > 0 {
            cfg.reinject = Some(plan);
        }
        faulty
    };
    Ok(recover(make, spec_of, &subject, cfg))
}

/// Parses an `--engine` value through the engine registry.
fn parse_engine(name: &str) -> Result<Engine, String> {
    name.parse().map_err(|e| match e {
        ParseEngineError::Retired(_) => retired_option(&format!("--engine {name}")),
        ParseEngineError::Unknown(_) => format!("{e}\n\n{}", usage()),
    })
}

/// The one error for an option of the removed lean, parallel and
/// depth-first engines.
fn retired_option(flag: &str) -> String {
    format!(
        "{flag} is no longer supported: --engine bfs now has lean's memory bound \
         (two lattice layers of live cuts) and runs on one thread"
    )
}

/// The fixed profiling workload: a 40×40 grid (two processes, forty
/// events each, no messages — a 41² = 1681-cut lattice) with a counter
/// variable `x` per process so expression predicates parse. `x@0 > 999`
/// never holds, making an exhaustive deterministic sweep.
fn grid40_fixture() -> Computation {
    let mut b = computation_slicing::ComputationBuilder::new(2);
    let vars = [
        b.declare_var(b.process(0), "x", computation_slicing::Value::Int(0)),
        b.declare_var(b.process(1), "x", computation_slicing::Value::Int(0)),
    ];
    for (p, &var) in vars.iter().enumerate() {
        for i in 1..=40i64 {
            b.step(b.process(p), &[(var, computation_slicing::Value::Int(i))]);
        }
    }
    b.build().expect("grid40 is acyclic")
}

/// Reads and parses one JSON document from a file (or stdin via `-`).
fn load_json_doc(path: &str) -> Result<slicing_observe::json::JsonValue, String> {
    slicing_observe::json::parse(&read_input(path)?).map_err(|e| format!("{path}: {e}"))
}

/// Workload label for profile reports: the trace file's stem.
fn workload_name(trace: &str) -> String {
    if trace == "-" {
        return "stdin".to_owned();
    }
    std::path::Path::new(trace)
        .file_stem()
        .map_or_else(|| trace.to_owned(), |s| s.to_string_lossy().into_owned())
}

fn two_args(args: &[String]) -> Result<(&str, &str), String> {
    match (args.get(1), args.get(2)) {
        (Some(a), Some(b)) => Ok((a, b)),
        _ => Err(usage().to_owned()),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------------------
// Streaming trace ingestion (`monitor` and `serve`).
//
// Both long-running subcommands feed events into an online engine as the
// lines arrive instead of materializing the whole trace as a
// `Computation` first, so resident memory stays O(vars + messages), not
// O(events). `monitor` makes two passes over a seekable source (stdin is
// spooled to a temporary file); `serve` is a single pass over a live
// stream.
// ---------------------------------------------------------------------------

use computation_slicing::computation::trace::{TraceOp, TraceReader};
use computation_slicing::detect::{GcConfig, HubState, MonitorHub};
use computation_slicing::{Conjunctive, Cut, Value, VarRef};

/// A seekable handle on the trace: real files are read in place, stdin is
/// spooled to a temporary file (constant memory) so the monitor can make
/// its header pass and its replay pass over the same bytes.
struct TraceSource {
    path: std::path::PathBuf,
    spooled: bool,
}

impl TraceSource {
    fn open(arg: &str) -> Result<Self, String> {
        if arg != "-" {
            return Ok(TraceSource {
                path: arg.into(),
                spooled: false,
            });
        }
        let path = std::env::temp_dir().join(format!("slicing-stdin-{}.trace", std::process::id()));
        let mut out = std::fs::File::create(&path).map_err(|e| format!("spooling stdin: {e}"))?;
        std::io::copy(&mut std::io::stdin().lock(), &mut out)
            .map_err(|e| format!("spooling stdin: {e}"))?;
        Ok(TraceSource {
            path,
            spooled: true,
        })
    }

    fn display(&self) -> String {
        if self.spooled {
            "stdin".to_owned()
        } else {
            self.path.display().to_string()
        }
    }

    /// Reads the trace through a fresh [`TraceReader`], handing `f` each
    /// op it accepts with the reader and the line number. Returns the
    /// reader at the end of input, before its `finish`.
    fn read(
        &self,
        mut f: impl FnMut(TraceOp, &TraceReader, usize) -> Result<(), String>,
    ) -> Result<TraceReader, String> {
        use std::io::BufRead;
        let err = |e: std::io::Error| format!("reading {}: {e}", self.display());
        let file = std::fs::File::open(&self.path).map_err(err)?;
        let mut reader = TraceReader::new();
        for (i, raw) in std::io::BufReader::new(file).lines().enumerate() {
            if let Some(op) = reader
                .feed(&raw.map_err(err)?, i + 1)
                .map_err(|e| e.to_string())?
            {
                f(op, &reader, i + 1)?;
            }
        }
        Ok(reader)
    }
}

impl Drop for TraceSource {
    fn drop(&mut self) {
        if self.spooled {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

/// A message edge read from the stream: (send, receive), each by
/// (process, position).
type TraceMsg = ((usize, u32), (usize, u32));

/// Tracks which message edges have both endpoints replayed: an endpoint
/// becomes ready when its event streams past. O(messages) memory.
#[derive(Default)]
struct MsgTracker {
    remaining: Vec<u8>,
    by_endpoint: std::collections::HashMap<(usize, u32), Vec<usize>>,
}

impl MsgTracker {
    /// Registers message `idx`; returns true if it is ready right now
    /// given the already-replayed per-process positions.
    fn add(&mut self, idx: usize, msg: &TraceMsg, positions: &[u32]) -> bool {
        debug_assert_eq!(idx, self.remaining.len());
        let mut need = 0u8;
        for ep in [msg.0, msg.1] {
            if ep.1 > positions[ep.0] {
                self.by_endpoint.entry(ep).or_default().push(idx);
                need += 1;
            }
        }
        self.remaining.push(need);
        need == 0
    }

    /// The event at (process, pos) was just replayed: returns the indices
    /// of messages that became ready.
    fn touch(&mut self, process: usize, pos: u32) -> Vec<usize> {
        let Some(list) = self.by_endpoint.remove(&(process, pos)) else {
            return Vec::new();
        };
        list.into_iter()
            .filter(|&i| {
                self.remaining[i] -= 1;
                self.remaining[i] == 0
            })
            .collect()
    }
}

/// Writes a report document to `path` (stdout for `-`).
fn write_report(path: &str, json: &str) -> Result<(), String> {
    if path == "-" {
        outln!("{json}");
        Ok(())
    } else {
        std::fs::write(path, format!("{json}\n")).map_err(|e| format!("writing {path}: {e}"))
    }
}

/// The flags `monitor` and `serve` share: metrics stream, stability GC,
/// rotated checkpoints and resume.
struct OnlineFlags {
    metrics_path: Option<String>,
    metrics_every: u64,
    checkpoint_path: Option<String>,
    checkpoint_every: Option<u64>,
    checkpoint_keep: usize,
    resume_path: Option<String>,
    gc_every: Option<u64>,
    gc_lag: Option<u32>,
}

impl OnlineFlags {
    fn new() -> Self {
        OnlineFlags {
            metrics_path: None,
            metrics_every: 100,
            checkpoint_path: None,
            checkpoint_every: None,
            checkpoint_keep: 1,
            resume_path: None,
            gc_every: None,
            gc_lag: None,
        }
    }

    /// Applies one `flag value` pair; `Ok(false)` if `flag` is not shared.
    fn apply(&mut self, flag: &str, value: &str) -> Result<bool, String> {
        match flag {
            "--metrics" => self.metrics_path = Some(value.to_owned()),
            "--metrics-every" => self.metrics_every = parse_positive(flag, value)?,
            "--checkpoint" => self.checkpoint_path = Some(value.to_owned()),
            "--checkpoint-every" => self.checkpoint_every = Some(parse_positive(flag, value)?),
            "--checkpoint-keep" => {
                self.checkpoint_keep = usize::try_from(parse_positive(flag, value)?)
                    .map_err(|_| format!("{flag}: value exceeds usize range"))?
            }
            "--resume" => self.resume_path = Some(value.to_owned()),
            "--gc-every" => self.gc_every = Some(parse_positive(flag, value)?),
            "--gc-lag" => {
                self.gc_lag = Some(
                    u32::try_from(parse_positive(flag, value)?)
                        .map_err(|_| format!("{flag}: value exceeds u32 range"))?,
                )
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The checks that span flags, once every flag is in.
    fn validate(&self) -> Result<(), String> {
        if self.checkpoint_every.is_some() && self.checkpoint_path.is_none() {
            return Err(format!(
                "--checkpoint-every needs --checkpoint <path>\n\n{}",
                usage()
            ));
        }
        if self.resume_path.is_some() && (self.gc_every.is_some() || self.gc_lag.is_some()) {
            return Err("GC configuration travels inside the checkpoint; drop \
                 --gc-every/--gc-lag when using --resume"
                .to_owned());
        }
        Ok(())
    }
}

/// The observe → deliver → check loop `monitor` and `serve` share over
/// one [`MonitorHub`]: message delivery by trace coordinates, the resumed
/// prefix skipped, and the metrics stream and rotated checkpoints the
/// flags ask for. The hub itself stays with the caller, which creates it
/// when the stream says how many processes there are.
struct OnlineRun {
    flags: OnlineFlags,
    /// Live telemetry: a scoped snapshotter sees every counter, gauge, and
    /// sample the hub emits on this thread and turns them into periodic
    /// `slicing.metrics/v1` delta lines. Checkpointing needs it even
    /// without --metrics so the stream cursor can be persisted.
    snapshotter: Option<std::sync::Arc<slicing_observe::MetricsSnapshotter>>,
    metrics_out: Option<std::io::BufWriter<std::fs::File>>,
    _metrics_guard: Option<slicing_observe::ScopedRecorder>,
    tracker: MsgTracker,
    msgs: Vec<TraceMsg>,
    /// Per process: events read from the trace so far.
    positions: Vec<u32>,
    /// Events the resumed checkpoint already consumed.
    skip: u64,
    /// Events read from the trace so far.
    observed: u64,
    last_ckpt: Option<u64>,
    alarm_log: Vec<(String, u64, Cut)>,
    /// Renders an alarm line from its tenant, event count and cut.
    alarm_line: fn(&str, u64, &Cut) -> String,
}

impl OnlineRun {
    /// Loads the checkpoint `--resume` names, then opens the metrics
    /// stream (continuing the checkpoint's sequence).
    fn open(
        flags: OnlineFlags,
        alarm_line: fn(&str, u64, &Cut) -> String,
    ) -> Result<(Self, Option<HubState>), String> {
        let resume = match &flags.resume_path {
            Some(path) => Some(
                computation_slicing::recovery::load_hub_checkpoint(std::path::Path::new(path))
                    .map_err(|e| {
                        if e.kind() == std::io::ErrorKind::InvalidData {
                            e.to_string() // already carries the path
                        } else {
                            format!("{path}: {e}")
                        }
                    })?,
            ),
            None => None,
        };
        let snapshotter = (flags.metrics_path.is_some() || flags.checkpoint_path.is_some())
            .then(|| std::sync::Arc::new(slicing_observe::MetricsSnapshotter::new()));
        if let (Some(s), Some((_, seq))) = (&snapshotter, &resume) {
            s.resume_from(*seq);
        }
        let metrics_out = match &flags.metrics_path {
            Some(path) => Some(std::io::BufWriter::new(
                std::fs::File::create(path).map_err(|e| format!("creating {path}: {e}"))?,
            )),
            None => None,
        };
        let metrics_guard = snapshotter
            .as_ref()
            .map(|s| slicing_observe::scoped(s.clone()));
        let run = OnlineRun {
            flags,
            snapshotter,
            metrics_out,
            _metrics_guard: metrics_guard,
            tracker: MsgTracker::default(),
            msgs: Vec::new(),
            positions: Vec::new(),
            skip: 0,
            observed: 0,
            last_ckpt: None,
            alarm_log: Vec::new(),
            alarm_line,
        };
        Ok((run, resume.map(|(state, _)| state)))
    }

    /// The hub for a trace of `procs` processes: rebuilt from the resumed
    /// state (whose consumed events are then skipped), else fresh with the
    /// flags' GC.
    fn hub(&mut self, procs: usize, resume: Option<HubState>) -> Result<MonitorHub, String> {
        self.positions = vec![0; procs];
        let Some(state) = resume else {
            let hub = MonitorHub::new(procs);
            return Ok(match (self.flags.gc_every, self.flags.gc_lag) {
                (None, None) => hub,
                (every, lag) => hub.with_gc(GcConfig {
                    lag: lag.unwrap_or(GcConfig::default().lag),
                    every: every.unwrap_or(GcConfig::default().every),
                }),
            });
        };
        let path = self.flags.resume_path.as_deref().unwrap_or("checkpoint");
        if state.values.len() != procs {
            return Err(format!(
                "{path}: checkpoint has {} processes but the trace has {procs} — wrong trace?",
                state.values.len()
            ));
        }
        self.skip = state.stats.events;
        let hub = MonitorHub::from_state(&state).map_err(|e| format!("{path}: {e}"))?;
        outln!("resumed from {path}: {} events already consumed", self.skip);
        Ok(hub)
    }

    /// Declares a trace variable on a fresh hub; a resumed hub must
    /// already declare it, as the `VarRef` `reader` resolves its writes to.
    fn declare(
        &self,
        hub: &mut MonitorHub,
        reader: &TraceReader,
        process: usize,
        name: &str,
        initial: Value,
    ) -> Result<(), String> {
        if self.flags.resume_path.is_none() {
            let declared = hub
                .declare_var(process, name, initial)
                .map_err(|e| e.to_string())?;
            debug_assert_eq!(Some(declared), reader.var(process, name));
        } else if hub.var(process, name) != reader.var(process, name) {
            return Err(format!(
                "checkpoint does not declare {name}@{process} — wrong trace?"
            ));
        }
        Ok(())
    }

    /// Registers a message edge and delivers it once both endpoints have
    /// been read.
    fn add_msg(&mut self, hub: &mut MonitorHub, msg: TraceMsg) {
        self.msgs.push(msg);
        let idx = self.msgs.len() - 1;
        if self.tracker.add(idx, &self.msgs[idx], &self.positions) {
            self.deliver(hub, idx);
        }
    }

    /// Delivers message `idx`, which just became ready. A message the hub
    /// rejects (a repeat, a cycle, an endpoint compacted by GC) is warned
    /// about and skipped, so the stream keeps flowing. On `--resume`, a
    /// message ready before the consumed prefix's last event is part of
    /// the checkpointed state. One ready right after that event may or may
    /// not be, since the checkpoint was written either at that event or at
    /// the end of the stream, so a repeat is then taken as held, without a
    /// warning: the one message a resumed stream may skip silently.
    fn deliver(&self, hub: &mut MonitorHub, idx: usize) {
        if self.observed < self.skip {
            return;
        }
        let held = self.skip > 0 && self.observed == self.skip;
        let (send, recv) = self.msgs[idx];
        match (hub.event_at(send.0, send.1), hub.event_at(recv.0, recv.1)) {
            (Some(s), Some(r)) => match hub.message(s, r) {
                Err(computation_slicing::BuildError::DuplicateMessage { .. }) if held => {}
                Err(err) => eprintln!("warning: skipped message {s} -> {r}: {err}"),
                Ok(()) => {}
            },
            _ => eprintln!("warning: skipped message into history compacted by GC"),
        }
    }

    /// Counts the next event of process `p`. Returns `false` for an event
    /// inside the resumed prefix: the restored hub already holds it, so
    /// only the messages it completes are settled.
    fn advance(&mut self, hub: &mut MonitorHub, p: usize) -> bool {
        self.positions[p] += 1;
        self.observed += 1;
        if self.observed > self.skip {
            return true;
        }
        for idx in self.tracker.touch(p, self.positions[p]) {
            self.deliver(hub, idx);
        }
        false
    }

    /// Observes the event [`advance`](OnlineRun::advance) counted, delivers
    /// the messages it completes, then checks, snapshots metrics and
    /// checkpoints at their cadences.
    fn observe(
        &mut self,
        hub: &mut MonitorHub,
        p: usize,
        writes: &[(VarRef, Value)],
        lineno: usize,
    ) -> Result<(), String> {
        hub.observe(p, writes)
            .map_err(|e| format!("trace line {lineno}: {e}"))?;
        for idx in self.tracker.touch(p, self.positions[p]) {
            self.deliver(hub, idx);
        }
        self.check(hub);
        let ev = hub.stats().events;
        if ev.is_multiple_of(self.flags.metrics_every) {
            self.snapshot(ev)?;
        }
        if self
            .flags
            .checkpoint_every
            .is_some_and(|every| ev.is_multiple_of(every))
        {
            self.checkpoint(hub)?;
        }
        Ok(())
    }

    /// Checks every tenant and prints and logs the new alarms.
    fn check(&mut self, hub: &mut MonitorHub) {
        for r in hub.check_all() {
            for tenant in &r.tenants {
                outln!(
                    "{}",
                    (self.alarm_line)(tenant, r.alarm.events, &r.alarm.cut)
                );
                self.alarm_log
                    .push((tenant.clone(), r.alarm.events, r.alarm.cut.clone()));
            }
        }
    }

    fn snapshot(&mut self, events: u64) -> Result<(), String> {
        if let (Some(s), Some(out)) = (&self.snapshotter, self.metrics_out.as_mut()) {
            s.write_snapshot(out, events)
                .map_err(|e| format!("writing metrics: {e}"))?;
        }
        Ok(())
    }

    fn checkpoint(&mut self, hub: &MonitorHub) -> Result<(), String> {
        if let Some(path) = &self.flags.checkpoint_path {
            let seq = self.snapshotter.as_ref().map_or(0, |s| s.seq());
            computation_slicing::recovery::write_hub_checkpoint(
                std::path::Path::new(path),
                hub,
                seq,
                self.flags.checkpoint_keep,
            )
            .map_err(|e| format!("writing {path}: {e}"))?;
        }
        self.last_ckpt = Some(hub.stats().events);
        Ok(())
    }

    /// End of stream: a final checkpoint and metrics snapshot so the
    /// artifacts cover the tail whatever the cadences (each skipped when
    /// its cadence just ran, so no rotation generation is wasted on a
    /// duplicate).
    fn finish(&mut self, hub: &MonitorHub) -> Result<(), String> {
        let ev = hub.stats().events;
        if self.last_ckpt != Some(ev) {
            self.checkpoint(hub)?;
        }
        if !ev.is_multiple_of(self.flags.metrics_every) || ev == 0 {
            self.snapshot(ev)?;
        }
        if let Some(out) = self.metrics_out.as_mut() {
            use std::io::Write;
            out.flush().map_err(|e| format!("writing metrics: {e}"))?;
        }
        Ok(())
    }

    /// Writes the `slicing.serve-report/v1` stream summary to `path`:
    /// the hub's roster shape and work counters plus every alarm, per
    /// tenant, in emission order.
    fn report(&self, hub: &MonitorHub, path: &str) -> Result<(), String> {
        use slicing_observe::json::{JsonArray, JsonObject};
        let log = self
            .alarm_log
            .iter()
            .fold(JsonArray::new(), |arr, (tenant, events, cut)| {
                let cut_arr = cut
                    .counts()
                    .iter()
                    .fold(JsonArray::new(), |a, c| a.push_raw(&c.to_string()))
                    .finish();
                arr.push_raw(
                    &JsonObject::new()
                        .str("tenant", tenant)
                        .u64("events", *events)
                        .raw("cut", &cut_arr)
                        .finish(),
                )
            })
            .finish();
        let stats = hub.stats();
        let json = JsonObject::new()
            .str("schema", slicing_observe::schema::SERVE_REPORT)
            .u64("tenants", hub.tenant_count() as u64)
            .u64("groups", hub.group_count() as u64)
            .u64("slots", hub.slot_count() as u64)
            .u64("events", stats.events)
            .u64("messages", stats.messages)
            .u64("checks", stats.checks)
            .u64("alarms", stats.alarms)
            .u64("check_cost", stats.check_cost)
            .u64("clause_evals", stats.clause_evals)
            .u64("delta_cuts", stats.delta_cuts)
            .u64("peak_candidates", stats.peak_candidates)
            .u64("dropped", stats.fanout_dropped)
            .raw("alarm_log", &log)
            .finish();
        write_report(path, &json)
    }
}

/// `slicing monitor`: replay one conjunctive predicate over a recorded
/// trace through a one-tenant hub. Ingestion is streaming: a header pass
/// reads the whole trace and keeps its declarations and message edges (so
/// every message is known before its endpoints replay), then a second
/// pass feeds the events line by line.
fn monitor_cmd(args: &[String], report: Option<&str>) -> Result<(), String> {
    let (trace, pred_src) = two_args(args)?;
    let mut flags = OnlineFlags::new();
    let mut it = args[3..].iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        if !flags.apply(flag, value)? {
            return Err(format!("unknown flag {flag}\n\n{}", usage()));
        }
    }
    flags.validate()?;
    let (mut run, resume) = OnlineRun::open(flags, |_, events, cut| {
        format!("alarm after {events} events: fault possible at cut {cut}")
    })?;

    let source = TraceSource::open(trace)?;
    let (mut decls, mut msgs) = (Vec::new(), Vec::new());
    let header = source.read(|op, _, _| {
        match op {
            TraceOp::Var {
                process,
                name,
                initial,
            } => decls.push((process, name, initial)),
            TraceOp::Msg { send, recv } => msgs.push((send, recv)),
            _ => {}
        }
        Ok(())
    })?;
    header.finish().map_err(|e| e.to_string())?;
    let comp = header.header();
    let pred = parse_predicate(&comp, pred_src).map_err(|e| e.to_string())?;
    let conj = pred.to_conjunctive().ok_or_else(|| {
        "monitor needs a conjunctive predicate (local clauses joined by &&)".to_owned()
    })?;

    // A monitor checkpoint holds the one tenant; the predicate must match
    // its clause set.
    let resumed_tenant = match resume.as_ref().map(|s| s.tenants.as_slice()) {
        None => None,
        Some([t]) => Some(t.id.clone()),
        Some(ts) => {
            return Err(format!(
                "a monitor resumes a one-tenant checkpoint, this one has {}",
                ts.len()
            ))
        }
    };
    let mut hub = run.hub(comp.num_processes(), resume)?;
    for (process, name, initial) in decls {
        run.declare(&mut hub, &header, process, &name, initial)?;
    }
    match &resumed_tenant {
        Some(id) => hub.restore_tenant(id, &conj),
        None => hub.add_tenant("monitor", &conj, pred_src).map(drop),
    }
    .map_err(|e| e.to_string())?;

    for msg in msgs {
        run.add_msg(&mut hub, msg);
    }
    source.read(|op, reader, lineno| {
        // Header and messages were consumed in the first pass.
        if let TraceOp::Event { process: p, .. } = op {
            if run.advance(&mut hub, p) {
                run.observe(&mut hub, p, reader.writes(), lineno)?;
            }
        }
        Ok(())
    })?;
    run.finish(&hub)?;

    let stats = hub.stats();
    outln!(
        "monitored {} events, {} messages: {} distinct alarm cut(s)",
        stats.events,
        stats.messages,
        stats.alarms
    );
    outln!(
        "check work: {} probes + {} clause eval(s) over {} checks, peak {} queued candidates",
        stats.check_cost,
        stats.clause_evals,
        stats.checks,
        stats.peak_candidates
    );
    if let Some(path) = report {
        run.report(&hub, path)?;
    }
    Ok(())
}

/// Parses a tenant predicate expression and requires the conjunctive
/// fragment the multiplexer (like the online monitor) detects.
fn parse_tenant(comp: &Computation, expr: &str) -> Result<Conjunctive, String> {
    parse_predicate(comp, expr)
        .map_err(|e| e.to_string())?
        .to_conjunctive()
        .ok_or_else(|| "serve needs conjunctive predicates (local clauses joined by &&)".to_owned())
}

/// Completes the hub's tenant roster before the first live event:
/// re-registers checkpointed tenants (restoring clause closures), then
/// adds command-line tenants that are not already present.
fn ensure_tenants(
    hub: &mut MonitorHub,
    comp: &Computation,
    resume_tenants: &[(String, String)],
    cli_tenants: &[(String, String)],
) -> Result<(), String> {
    for (id, source) in resume_tenants {
        let conj = parse_tenant(comp, source).map_err(|e| format!("restoring tenant {id}: {e}"))?;
        hub.restore_tenant(id, &conj)
            .map_err(|e| format!("restoring tenant {id}: {e}"))?;
    }
    let hollow = hub.unrestored_clauses();
    if !hollow.is_empty() {
        return Err(format!(
            "checkpoint clauses left unrestored after tenant re-registration: {}",
            hollow.join(", ")
        ));
    }
    for (id, source) in cli_tenants {
        if hub.group_of(id).is_some() {
            continue; // already restored from the checkpoint
        }
        let conj = parse_tenant(comp, source).map_err(|e| format!("tenant {id}: {e}"))?;
        hub.add_tenant(id, &conj, source)
            .map_err(|e| format!("tenant {id}: {e}"))?;
    }
    Ok(())
}

/// `slicing serve`: multiplex many tenant predicates onto one live trace
/// stream through a shared [`MonitorHub`]. Single-pass ingestion — events
/// are observed as the lines arrive, messages are delivered as soon as
/// both endpoints exist, and `tenant <id> <expr>` / `untenant <id>`
/// directives adjust the roster mid-stream.
fn serve_cmd(args: &[String], report: Option<&str>) -> Result<(), String> {
    use std::io::BufRead;

    let mut stream: Option<String> = None;
    let mut cli_tenants: Vec<(String, String)> = Vec::new();
    let mut listen: Option<String> = None;
    let mut flags = OnlineFlags::new();
    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        if !arg.starts_with("--") {
            if let Some(first) = &stream {
                return Err(format!(
                    "unexpected argument {arg} (stream is already {first})\n\n{}",
                    usage()
                ));
            }
            stream = Some(arg.clone());
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
        match arg.as_str() {
            "--tenant" => {
                let (id, expr) = value
                    .split_once('=')
                    .ok_or_else(|| format!("--tenant needs id=EXPR (got {value:?})"))?;
                let id = id.trim();
                if id.is_empty() {
                    return Err(format!("--tenant needs a non-empty id (got {value:?})"));
                }
                cli_tenants.push((id.to_owned(), expr.trim().to_owned()));
            }
            "--listen" => listen = Some(value.clone()),
            other => {
                if !flags.apply(other, value)? {
                    return Err(format!("unknown flag {other}\n\n{}", usage()));
                }
            }
        }
    }
    flags.validate()?;
    if listen.is_some() {
        if let Some(path) = &stream {
            return Err(format!(
                "pass a stream path ({path}) or --listen, not both\n\n{}",
                usage()
            ));
        }
    }
    let (mut run, mut resume_state) = OnlineRun::open(flags, |tenant, events, cut| {
        format!("alarm tenant={tenant} after {events} events: fault possible at cut {cut}")
    })?;

    let mut input: Box<dyn BufRead> = match (&listen, stream.as_deref().unwrap_or("-")) {
        (Some(addr), _) => {
            let listener =
                std::net::TcpListener::bind(addr).map_err(|e| format!("binding {addr}: {e}"))?;
            let local = listener.local_addr().map_err(|e| e.to_string())?;
            eprintln!("serve: listening on {local}");
            let (conn, peer) = listener
                .accept()
                .map_err(|e| format!("accepting on {local}: {e}"))?;
            eprintln!("serve: stream connected from {peer}");
            Box::new(std::io::BufReader::new(conn))
        }
        (None, "-") => Box::new(std::io::stdin().lock()),
        (None, path) => Box::new(std::io::BufReader::new(
            std::fs::File::open(path).map_err(|e| format!("opening {path}: {e}"))?,
        )),
    };

    let mut reader = TraceReader::new();
    let mut hub: Option<MonitorHub> = None;
    let mut resume_tenants: Vec<(String, String)> = Vec::new();
    let mut tenants_ensured = false;
    // The computation tenant predicates are parsed against; a new
    // variable invalidates it.
    let mut header: Option<Computation> = None;

    let mut buf = String::new();
    let mut lineno = 0usize;
    loop {
        buf.clear();
        let n = input
            .read_line(&mut buf)
            .map_err(|e| format!("reading stream: {e}"))?;
        if n == 0 {
            break;
        }
        lineno += 1;
        let line = buf.trim();

        // Roster directives are a serve-only extension of the trace
        // grammar and are peeled off before the line parser sees them.
        if let Some(rest) = line.strip_prefix("tenant ") {
            let h = hub.as_mut().ok_or_else(|| {
                format!("line {lineno}: tenant directive ahead of the procs line")
            })?;
            let (id, expr) = rest.trim().split_once(char::is_whitespace).ok_or_else(|| {
                format!("line {lineno}: tenant directive needs an id and an expression")
            })?;
            let expr = expr.trim();
            let comp = header.get_or_insert_with(|| reader.header());
            if !tenants_ensured {
                ensure_tenants(h, comp, &resume_tenants, &cli_tenants)?;
                tenants_ensured = true;
            }
            let in_skip = run.observed < run.skip;
            if in_skip && h.group_of(id).is_some() {
                continue; // replay of an add the checkpoint already holds
            }
            match parse_tenant(comp, expr)
                .and_then(|conj| h.add_tenant(id, &conj, expr).map_err(|e| e.to_string()))
            {
                Ok(_) => {
                    if !in_skip {
                        outln!("tenant {id} added after {} events", h.stats().events);
                    }
                }
                // A malformed tenant must not take the stream down: every
                // other tenant keeps being served.
                Err(e) => eprintln!("warning: ignoring tenant {id} (line {lineno}): {e}"),
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("untenant ") {
            let h = hub.as_mut().ok_or_else(|| {
                format!("line {lineno}: untenant directive ahead of the procs line")
            })?;
            let id = rest.trim();
            let removed = h.remove_tenant(id);
            if run.observed >= run.skip {
                if removed {
                    outln!("tenant {id} removed after {} events", h.stats().events);
                } else {
                    eprintln!("warning: untenant {id} (line {lineno}): no such tenant");
                }
            }
            continue;
        }

        let Some(op) = reader.feed(&buf, lineno).map_err(|e| e.to_string())? else {
            continue;
        };
        // The reader's first op is always `Procs`, and only the first.
        let Some(h) = hub.as_mut() else {
            if let TraceOp::Procs(procs) = op {
                if let Some(state) = &resume_state {
                    resume_tenants = state
                        .tenants
                        .iter()
                        .map(|t| (t.id.clone(), t.source.clone()))
                        .collect();
                }
                hub = Some(run.hub(procs, resume_state.take())?);
            }
            continue;
        };
        match op {
            TraceOp::Var {
                process,
                name,
                initial,
            } => {
                run.declare(h, &reader, process, &name, initial)?;
                header = None;
            }
            TraceOp::Event { process: p, .. } => {
                if !run.advance(h, p) {
                    continue;
                }
                if !tenants_ensured {
                    let comp = header.get_or_insert_with(|| reader.header());
                    ensure_tenants(h, comp, &resume_tenants, &cli_tenants)?;
                    tenants_ensured = true;
                }
                run.observe(h, p, reader.writes(), lineno)?;
            }
            TraceOp::Msg { send, recv } => run.add_msg(h, (send, recv)),
            _ => {}
        }
    }

    reader.finish().map_err(|e| e.to_string())?;
    let h = hub.as_mut().expect("finish rejects a stream without procs");
    if !tenants_ensured {
        let comp = header.get_or_insert_with(|| reader.header());
        ensure_tenants(h, comp, &resume_tenants, &cli_tenants)?;
    }
    run.finish(h)?;

    let stats = h.stats();
    outln!(
        "served {} events, {} messages: {} alarm(s) across {} tenant(s)",
        stats.events,
        stats.messages,
        stats.alarms,
        h.tenant_count()
    );
    outln!(
        "multiplexed {} tenant(s) onto {} group(s), {} slot(s), {} distinct clause(s)",
        h.tenant_count(),
        h.group_count(),
        h.slot_count(),
        h.clause_count()
    );
    outln!(
        "check work: {} probes + {} clause eval(s) over {} checks, peak {} queued candidates",
        stats.check_cost,
        stats.clause_evals,
        stats.checks,
        stats.peak_candidates
    );
    if let Some(path) = report {
        run.report(h, path)?;
    }
    Ok(())
}
