//! The online workloads, driven through the `slicing` binary as a child
//! process: `serve-mux` (a multiplexed live stream) and `monitor-trace`
//! (one long recorded trace). Their traced runs replay the same stream
//! in process through the calls the CLI makes, in the CLI's order.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use slicing_computation::trace::{parse_line, TraceOp};
use slicing_computation::{Computation, ComputationBuilder, ProcessId, Value, VarRef};
use slicing_core::OnlineSlicer;
use slicing_detect::{GcConfig, MonitorHub, OnlineMonitor};
use slicing_observe::MetricsSnapshotter;
use slicing_predicates::expr::parse_predicate;
use slicing_predicates::Conjunctive;

use crate::gen::{self, Stream, StreamShape, PING};
use crate::offline::{set_attribution, zero_all};
use crate::spans::{traced_and_untraced, Layer, SelfTimes, Tracer};
use crate::{
    children_peak_rss_mb, median, passes_with_setups, per_op_best, print_setups, quantile, Args,
    Outcome,
};

/// Events per serve pass. Cost per event grows with the history the
/// pinned GC retains (see the known defects), so a pass is a fixed
/// stream; 50,000 events keep the retained state small enough that the
/// host's memory contention moves it little, and large enough that every
/// defect shows.
const EVENTS: u64 = 50_000;
/// Events in the monitor's trace. A monitor job is one op whose best time
/// is all its timing, so it is kept short (about 35 ms) for quiet spells
/// of the host to hold whole jobs; every defect still shows.
const MONITOR_EVENTS: u64 = 25_000;
/// Events per acknowledged serve batch: 1,000 batches per pass. GC runs
/// once per `GC_EVERY` observed events, so about one batch in twenty
/// carries a GC pass.
const BATCH: u64 = 50;
const GC_LAG: u32 = 128;
const GC_EVERY: u64 = 1024;
/// Checkpoint cadence: two checkpoints per pass, so one serve batch in
/// 500 carries one, past the 99th percentile.
const CHECKPOINT_EVERY: u64 = 25_000;
const CHECKPOINT_KEEP: usize = 2;
const METRICS_EVERY: u64 = 100;
const MSG_PER_MILLE: u64 = 250;
const LATE_PER_MILLE: u64 = 20;
/// Restarts per run, spread over it; `setup_s` is their median. A
/// monitor restart is short (a fifth of a second), so it takes more.
const RESTARTS: usize = 7;
const MONITOR_RESTARTS: usize = 11;
/// The monitor's fault predicate: the roster's first shape.
fn monitor_predicate() -> String {
    gen::shape_expr(0)
}

/// Minimum timed passes, whatever `--seconds` allows.
const MIN_PASSES: usize = 3;

struct Files {
    checkpoint: PathBuf,
    metrics: PathBuf,
    restart_metrics: PathBuf,
    trace: PathBuf,
}

impl Files {
    fn new(work: &Path, name: &str) -> Files {
        Files {
            checkpoint: work.join(format!("{name}.checkpoint.json")),
            metrics: work.join(format!("{name}.metrics.jsonl")),
            restart_metrics: work.join(format!("{name}.restart.metrics.jsonl")),
            trace: work.join(format!("{name}.trace")),
        }
    }
}

/// The GC flags both CLI workloads run with.
fn gc_flags() -> Vec<String> {
    vec![
        "--gc-lag".into(),
        GC_LAG.to_string(),
        "--gc-every".into(),
        GC_EVERY.to_string(),
    ]
}

/// serve's flags: GC, rotated checkpoints and metrics.
fn run_flags(files: &Files) -> Vec<String> {
    let rest = [
        ("--checkpoint", files.checkpoint.display().to_string()),
        ("--checkpoint-every", CHECKPOINT_EVERY.to_string()),
        ("--checkpoint-keep", CHECKPOINT_KEEP.to_string()),
        ("--metrics", files.metrics.display().to_string()),
        ("--metrics-every", METRICS_EVERY.to_string()),
    ]
    .into_iter()
    .flat_map(|(flag, value)| [flag.to_owned(), value]);
    gc_flags().into_iter().chain(rest).collect()
}

/// serve's restart flags: resume from the checkpoint (GC settings travel
/// inside it) and keep streaming metrics.
fn resume_flags(files: &Files) -> Vec<String> {
    vec![
        "--resume".into(),
        files.checkpoint.display().to_string(),
        "--metrics".into(),
        files.restart_metrics.display().to_string(),
        "--metrics-every".into(),
        METRICS_EVERY.to_string(),
    ]
}

fn serve_argv(flags: Vec<String>) -> Vec<String> {
    std::iter::once("serve".to_owned()).chain(flags).collect()
}

fn monitor_argv(files: &Files, flags: Vec<String>) -> Vec<String> {
    [
        "monitor".to_owned(),
        files.trace.display().to_string(),
        monitor_predicate(),
    ]
    .into_iter()
    .chain(flags)
    .collect()
}

/// The timed monitor job: the trace under one predicate with GC on. It
/// writes no file, so the job's time is the monitoring alone.
fn monitor_job_argv(files: &Files) -> Vec<String> {
    monitor_argv(files, gc_flags())
}

/// The same job writing one checkpoint at its end (`--checkpoint` with no
/// cadence writes only the final one), for the restart to resume from.
fn monitor_checkpoint_argv(files: &Files) -> Vec<String> {
    let checkpoint = [
        "--checkpoint".to_owned(),
        files.checkpoint.display().to_string(),
    ];
    monitor_argv(files, gc_flags().into_iter().chain(checkpoint).collect())
}

/// The monitor restart: resume from that checkpoint over the same trace.
fn monitor_resume_argv(files: &Files) -> Vec<String> {
    monitor_argv(
        files,
        vec!["--resume".into(), files.checkpoint.display().to_string()],
    )
}

/// A running child process. Dropping it kills and reaps the process if
/// it is still running, so no error path leaves one behind.
struct Running(Child);

impl Drop for Running {
    fn drop(&mut self) {
        if let Ok(None) = self.0.try_wait() {
            let _ = self.0.kill();
        }
        let _ = self.0.wait();
    }
}

fn spawn(args: &Args, argv: &[String], stdin: Stdio) -> Result<Running, String> {
    Command::new(&args.slicing)
        .args(argv)
        .env("TMPDIR", &args.work)
        .stdin(stdin)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map(Running)
        .map_err(|e| format!("spawning {}: {e}", args.slicing.display()))
}

/// Drains a child's stdout on its own thread, keeping the alarm lines.
fn collect_alarms(child: &mut Running) -> JoinHandle<Vec<String>> {
    let stdout = child.0.stdout.take().expect("stdout is piped");
    std::thread::spawn(move || {
        BufReader::new(stdout)
            .lines()
            .map_while(Result::ok)
            .filter(|l| l.starts_with("alarm "))
            .collect()
    })
}

fn is_ack(line: &str) -> bool {
    line.starts_with(&format!("warning: untenant {PING} ")) && line.ends_with("no such tenant")
}

/// Reads stderr up to the next ping acknowledgement. Any other line is a
/// warning the stream should never cause.
fn await_ack(err: &mut BufReader<std::process::ChildStderr>) -> Result<(), String> {
    let mut line = String::new();
    let n = err
        .read_line(&mut line)
        .map_err(|e| format!("reading serve stderr: {e}"))?;
    if n == 0 {
        return Err("serve exited before acknowledging a ping".into());
    }
    if is_ack(line.trim_end()) {
        Ok(())
    } else {
        Err(format!("unexpected serve stderr: {}", line.trim_end()))
    }
}

/// Waits for the child to exit; it must succeed and leave stderr empty.
fn finish(mut child: Running, what: &str) -> Result<(), String> {
    let mut rest = String::new();
    if let Some(mut err) = child.0.stderr.take() {
        let _ = err.read_to_string(&mut rest);
    }
    let status = child
        .0
        .wait()
        .map_err(|e| format!("waiting for {what}: {e}"))?;
    if !status.success() {
        return Err(format!("{what} exited with {status}: {}", rest.trim()));
    }
    if !rest.trim().is_empty() {
        return Err(format!("{what} wrote to stderr: {}", rest.trim()));
    }
    Ok(())
}

/// One timed serve pass.
struct ServePass {
    /// Per-batch latency, ms.
    latencies: Vec<f64>,
    seconds: f64,
    alarms: Vec<String>,
}

/// Feeds the stream in a closed loop: the prelude, then each batch, each
/// time waiting for serve to acknowledge the batch's closing ping. The
/// pass runs from the first batch to the child's exit, which includes
/// the final checkpoint the restart resumes from.
fn serve_pass(args: &Args, files: &Files, stream: &Stream) -> Result<ServePass, String> {
    let mut child = spawn(args, &serve_argv(run_flags(files)), Stdio::piped())?;
    let alarms = collect_alarms(&mut child);
    let mut stdin = child.0.stdin.take().expect("stdin is piped");
    let mut err = BufReader::new(child.0.stderr.take().expect("stderr is piped"));
    let bytes = stream.text.as_bytes();
    let write = |stdin: &mut std::process::ChildStdin, range: (usize, usize)| {
        stdin
            .write_all(&bytes[range.0..range.1])
            .map_err(|e| format!("writing to serve: {e}"))
    };
    write(&mut stdin, (0, stream.prelude_end))?;
    await_ack(&mut err)?;
    let start = Instant::now();
    let mut latencies = Vec::with_capacity(stream.batches.len());
    for &range in &stream.batches {
        let t0 = Instant::now();
        write(&mut stdin, range)?;
        await_ack(&mut err)?;
        latencies.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    write(
        &mut stdin,
        (stream.batches.last().map_or(0, |b| b.1), bytes.len()),
    )?;
    drop(stdin);
    child.0.stderr = Some(err.into_inner());
    finish(child, "serve")?;
    let seconds = start.elapsed().as_secs_f64();
    let alarms = alarms.join().map_err(|_| "alarm reader panicked")?;
    Ok(ServePass {
        latencies,
        seconds,
        alarms,
    })
}

/// Relaunches serve on the checkpoint the last pass wrote and feeds it
/// the same stream, read from a file so that no writer competes with
/// serve for the CPU; returns the time until serve acknowledges the ping
/// right after the consumed prefix (the stream's last ping).
fn serve_restart(args: &Args, files: &Files) -> Result<f64, String> {
    let stream = std::fs::File::open(&files.trace)
        .map_err(|e| format!("opening {}: {e}", files.trace.display()))?;
    let t0 = Instant::now();
    let mut child = spawn(args, &serve_argv(resume_flags(files)), stream.into())?;
    let alarms = collect_alarms(&mut child);
    let mut err = BufReader::new(child.0.stderr.take().expect("stderr is piped"));
    await_ack(&mut err)?;
    let seconds = t0.elapsed().as_secs_f64();
    child.0.stderr = Some(err.into_inner());
    finish(child, "serve --resume")?;
    let restarted = alarms.join().map_err(|_| "alarm reader panicked")?;
    if !restarted.is_empty() {
        return Err(format!(
            "restart raised {} alarm(s) on a consumed stream",
            restarted.len()
        ));
    }
    Ok(seconds)
}

/// The online stream; `batch` 0 leaves out the roster and the pings.
fn stream_shape(events: u64, batch: u64) -> StreamShape {
    StreamShape {
        events,
        batch,
        msg_per_mille: MSG_PER_MILLE,
        late_per_mille: LATE_PER_MILLE,
    }
}

/// Compares the child's alarm log with the in-process replay's.
fn check_alarms(out: &mut Outcome, child: &[String], replay: &[String]) -> bool {
    if child == replay {
        return true;
    }
    let first = child
        .iter()
        .zip(replay)
        .position(|(a, b)| a != b)
        .unwrap_or(child.len().min(replay.len()));
    out.fail(format!(
        "alarm log differs from the in-process replay at entry {first} \
         ({} child alarms, {} replayed): {:?} vs {:?}",
        child.len(),
        replay.len(),
        child.get(first),
        replay.get(first)
    ));
    false
}

pub fn serve_mux(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let files = Files::new(&args.work, "serve");
    let stream = gen::online_stream(args.seed, &stream_shape(EVENTS, BATCH));
    println!(
        "serve-mux seed {}: {} events, {} messages, {} tenants, {} batches of {}",
        args.seed,
        stream.events,
        stream.messages,
        gen::TENANTS,
        stream.batches.len(),
        BATCH
    );
    if let Err(e) = std::fs::write(&files.trace, &stream.text) {
        out.fail(format!("writing {}: {e}", files.trace.display()));
        return out;
    }
    if args.trace {
        serve_traced(args, &files, &stream, &mut out);
        return out;
    }
    // Each restart resumes from the checkpoint the pass before it wrote.
    let run = passes_with_setups(
        args.seconds,
        MIN_PASSES,
        RESTARTS,
        || serve_pass(args, &files, &stream),
        || serve_restart(args, &files),
    );
    let (passes, mut restarts) = match run {
        Ok(r) => r,
        Err(e) => {
            out.fail(e);
            return out;
        }
    };
    let replay = serve_replay(&stream, &files, &mut Tracer::new(false));
    for p in &passes {
        out.attempted += stream.events;
        if !check_alarms(&mut out, &p.alarms, &replay.alarms) {
            out.failed += stream.events;
        }
    }
    let latencies: Vec<Vec<f64>> = passes.iter().map(|p| p.latencies.clone()).collect();
    let mut best = per_op_best(&latencies);
    let busy_s: f64 = best.iter().sum::<f64>() / 1e3;
    println!(
        "{} passes of {} batches, {} alarm lines per pass",
        passes.len(),
        best.len(),
        replay.alarms.len()
    );
    print_setups("restarts", &restarts);
    out.set("setup_s", median(&mut restarts));
    out.set("ops_per_s", stream.events as f64 / busy_s);
    out.set("p50_ms", quantile(&mut best, 0.5));
    out.set("p99_ms", quantile(&mut best, 0.99));
    out.set("peak_rss_mb", children_peak_rss_mb());
    out
}

// ---------------------------------------------------------------------
// In-process replay of `slicing serve`
// ---------------------------------------------------------------------

/// A message edge by (process, position) endpoints.
struct Msg {
    send: (usize, u32),
    recv: (usize, u32),
}

/// Which message edges have both endpoints observed, as the CLI tracks
/// them: endpoints at position 0 are always ready, the rest when their
/// event streams past.
#[derive(Default)]
struct MsgTracker {
    remaining: Vec<u8>,
    by_endpoint: HashMap<(usize, u32), Vec<usize>>,
}

impl MsgTracker {
    fn add(&mut self, idx: usize, msg: &Msg, positions: &[u32]) -> bool {
        let mut need = 0u8;
        for ep in [msg.send, msg.recv] {
            if ep.1 > positions[ep.0] {
                self.by_endpoint.entry(ep).or_default().push(idx);
                need += 1;
            }
        }
        self.remaining.push(need);
        need == 0
    }

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

fn header_computation(procs: usize, decls: &[(usize, String, Value)]) -> Computation {
    let mut b = ComputationBuilder::new(procs);
    for (p, name, initial) in decls {
        b.try_declare_var(ProcessId::new(*p), name, *initial)
            .expect("stream declares each variable once");
    }
    b.build().expect("a header-only computation builds")
}

fn conjunctive(comp: &Computation, expr: &str) -> Conjunctive {
    parse_predicate(comp, expr)
        .expect("generated predicates parse")
        .to_conjunctive()
        .expect("generated predicates are conjunctive")
}

/// What a replay produced.
struct Replay {
    alarms: Vec<String>,
    checkpoint_bytes: u64,
    snapshot_bytes: u64,
    events: u64,
    clause_evals: u64,
    check_cost: u64,
    peak_candidates: u64,
    dropped: u64,
    retained: u64,
}

/// Writes one checkpoint the way `write_hub_checkpoint` /
/// `write_checkpoint_rotating` do, keeping `keep` generations, one span
/// per step.
fn staged_checkpoint(
    path: &Path,
    keep: usize,
    tr: &mut Tracer,
    encode: impl FnOnce(&mut Tracer) -> String,
) -> u64 {
    let text = encode(tr);
    tr.time(Layer::CheckpointWrite, || {
        slicing_recover::rotate_and_write(path, &text, keep).expect("checkpoint writes");
    });
    slicing_observe::counter("recover.checkpoints_written", 1);
    text.len() as u64 + 1
}

fn open_metrics(path: &Path) -> std::io::BufWriter<std::fs::File> {
    std::io::BufWriter::new(std::fs::File::create(path).expect("metrics file opens"))
}

/// `slicing serve` over `stream`, through the calls its ingestion loop
/// makes: `parse_line`, `MonitorHub::observe` / `message` / `check_all`,
/// `MetricsSnapshotter::write_snapshot`, and for checkpoints
/// `export_state` → `encode` → `rotate_and_write`. Each batch is one op
/// span.
fn serve_replay(stream: &Stream, files: &Files, tr: &mut Tracer) -> Replay {
    let snapshotter = Arc::new(MetricsSnapshotter::new());
    let _guard = slicing_observe::scoped(snapshotter.clone());
    let mut metrics = CountingWriter::new(open_metrics(&files.metrics));
    let mut hub: Option<MonitorHub> = None;
    let mut decls: Vec<(usize, String, Value)> = Vec::new();
    let mut header: Option<Computation> = None;
    let mut tracker = MsgTracker::default();
    let mut msgs: Vec<Msg> = Vec::new();
    let mut positions: Vec<u32> = Vec::new();
    let mut alarms = Vec::new();
    let mut last_ckpt = None;
    let mut checkpoint_bytes = 0;
    let mut in_op = false;

    let deliver = |h: &mut MonitorHub, msg: &Msg, tr: &mut Tracer| {
        let (Some(s), Some(r)) = (
            h.event_at(msg.send.0, msg.send.1),
            h.event_at(msg.recv.0, msg.recv.1),
        ) else {
            panic!("message endpoint compacted away");
        };
        tr.time(Layer::HubMessage, || h.message(s, r))
            .expect("generated messages are valid");
    };
    let check = |h: &mut MonitorHub, alarms: &mut Vec<String>, tr: &mut Tracer| {
        for r in tr.time(Layer::HubCheck, || h.check_all()) {
            for tenant in &r.tenants {
                alarms.push(format!(
                    "alarm tenant={tenant} after {} events: fault possible at cut {}",
                    r.alarm.events, r.alarm.cut
                ));
            }
        }
    };

    let prelude_lines = stream.text[..stream.prelude_end].lines().count();
    for (i, line) in stream.text.lines().enumerate() {
        let lineno = i + 1;
        let line = line.trim();
        if !in_op && lineno > prelude_lines {
            tr.open(Layer::Op);
            in_op = true;
        }
        if let Some(rest) = line.strip_prefix("tenant ") {
            let h = hub.as_mut().expect("roster follows procs");
            let (id, expr) = rest
                .trim()
                .split_once(char::is_whitespace)
                .expect("id and expression");
            let comp = header.get_or_insert_with(|| header_computation(h.num_processes(), &decls));
            let conj = conjunctive(comp, expr.trim());
            h.add_tenant(id, &conj, expr.trim())
                .expect("tenant registers");
            continue;
        }
        if let Some(rest) = line.strip_prefix("untenant ") {
            let h = hub.as_mut().expect("pings follow procs");
            assert!(!h.remove_tenant(rest.trim()), "no tenant answers the ping");
            if in_op {
                tr.close();
                in_op = false;
            }
            continue;
        }
        let Some(op) = tr
            .time(Layer::TraceParse, || parse_line(line, lineno))
            .expect("generated lines parse")
        else {
            continue;
        };
        match op {
            TraceOp::Procs(procs) => {
                hub = Some(MonitorHub::new(procs).with_gc(GcConfig {
                    lag: GC_LAG,
                    every: GC_EVERY,
                }));
                positions = vec![0; procs];
            }
            TraceOp::Var {
                process,
                name,
                initial,
            } => {
                let h = hub.as_mut().expect("vars follow procs");
                h.declare_var(process, &name, initial)
                    .expect("fresh variable");
                decls.push((process, name, initial));
                header = None;
            }
            TraceOp::Event {
                process: p, writes, ..
            } => {
                let h = hub.as_mut().expect("events follow procs");
                positions[p] += 1;
                let assignments: Vec<(VarRef, Value)> = writes
                    .iter()
                    .map(|(name, value)| (h.var(p, name).expect("declared"), *value))
                    .collect();
                let gc = (h.stats().events + 1).is_multiple_of(GC_EVERY);
                let layer = if gc { Layer::HubGc } else { Layer::HubObserve };
                tr.time(layer, || h.observe(p, &assignments))
                    .expect("typed observation");
                for idx in tracker.touch(p, positions[p]) {
                    deliver(h, &msgs[idx], tr);
                }
                let ev = h.stats().events;
                check(h, &mut alarms, tr);
                if ev.is_multiple_of(METRICS_EVERY) {
                    tr.time(Layer::SnapshotWrite, || {
                        snapshotter.write_snapshot(&mut metrics, ev)
                    })
                    .expect("metrics write");
                }
                if ev.is_multiple_of(CHECKPOINT_EVERY) {
                    checkpoint_bytes += hub_checkpoint(h, &snapshotter, files, tr);
                    last_ckpt = Some(ev);
                }
            }
            TraceOp::Msg { send, recv } => {
                let h = hub.as_mut().expect("messages follow procs");
                msgs.push(Msg { send, recv });
                let idx = msgs.len() - 1;
                if tracker.add(idx, &msgs[idx], &positions) {
                    deliver(h, &msgs[idx], tr);
                }
            }
            _ => {}
        }
    }
    if in_op {
        tr.close();
    }
    let h = hub.as_mut().expect("stream has a procs line");
    let ev = h.stats().events;
    if last_ckpt != Some(ev) {
        checkpoint_bytes += hub_checkpoint(h, &snapshotter, files, tr);
    }
    if !ev.is_multiple_of(METRICS_EVERY) {
        tr.time(Layer::SnapshotWrite, || {
            snapshotter.write_snapshot(&mut metrics, ev)
        })
        .expect("metrics write");
    }
    metrics.flush().expect("metrics flush");
    let stats = h.stats();
    Replay {
        alarms,
        checkpoint_bytes,
        snapshot_bytes: metrics.bytes,
        events: stats.events,
        clause_evals: stats.clause_evals,
        check_cost: stats.check_cost,
        peak_candidates: stats.peak_candidates,
        dropped: stats.dropped_events,
        retained: h.retained_events(),
    }
}

fn hub_checkpoint(
    h: &MonitorHub,
    snapshotter: &MetricsSnapshotter,
    files: &Files,
    tr: &mut Tracer,
) -> u64 {
    let seq = snapshotter.seq();
    staged_checkpoint(&files.checkpoint, CHECKPOINT_KEEP, tr, |tr| {
        let state = tr.time(Layer::CheckpointExport, || h.export_state());
        tr.time(Layer::CheckpointEncode, || {
            slicing_detect::serve_checkpoint::encode(&state, seq)
        })
    })
}

/// A writer that counts the bytes it passes on.
struct CountingWriter<W: Write> {
    inner: W,
    bytes: u64,
}

impl<W: Write> CountingWriter<W> {
    fn new(inner: W) -> Self {
        CountingWriter { inner, bytes: 0 }
    }
}

impl<W: Write> Write for CountingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// `slicing serve --resume` over the same stream: decode the checkpoint,
/// rebuild the hub and its tenants, then skip the consumed prefix.
fn serve_restart_replay(stream: &Stream, files: &Files, tr: &mut Tracer) {
    let snapshotter = Arc::new(MetricsSnapshotter::new());
    let _guard = slicing_observe::scoped(snapshotter.clone());
    let (state, seq) = tr
        .time(Layer::CheckpointDecode, || {
            slicing_recover::load_hub_checkpoint(&files.checkpoint)
        })
        .expect("the checkpoint the pass wrote loads");
    snapshotter.resume_from(seq);
    let skip = state.stats.events;
    let mut hub: Option<MonitorHub> = None;
    let mut decls: Vec<(usize, String, Value)> = Vec::new();
    let mut restored = false;
    let mut observed = 0u64;
    for (i, line) in stream.text.lines().enumerate() {
        let line = line.trim();
        if line.starts_with("tenant ") {
            let h = hub.as_mut().expect("roster follows procs");
            if !restored {
                let comp = header_computation(h.num_processes(), &decls);
                tr.time(Layer::CheckpointRestore, || {
                    for t in &state.tenants {
                        h.restore_tenant(&t.id, &conjunctive(&comp, &t.source))
                            .expect("checkpointed tenant restores");
                    }
                });
                restored = true;
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("untenant ") {
            let h = hub.as_mut().expect("pings follow procs");
            h.remove_tenant(rest.trim());
            if observed >= skip {
                return; // serve acknowledges the ping after the prefix
            }
            continue;
        }
        let op = tr
            .time(Layer::TraceParse, || parse_line(line, i + 1))
            .expect("generated lines parse");
        match op {
            Some(TraceOp::Procs(_)) => {
                hub = Some(
                    tr.time(Layer::CheckpointRestore, || MonitorHub::from_state(&state))
                        .expect("checkpoint state rebuilds"),
                );
            }
            Some(TraceOp::Var {
                process,
                name,
                initial,
            }) => {
                let h = hub.as_ref().expect("vars follow procs");
                assert!(
                    h.var(process, &name).is_some(),
                    "checkpoint declares {name}"
                );
                decls.push((process, name, initial));
            }
            Some(TraceOp::Event { .. }) => observed += 1,
            _ => {}
        }
    }
}

/// The events and message edges of a stream, in stream order.
enum Step {
    Event(usize, i64),
    Msg(Msg),
}

fn steps(text: &str) -> Vec<Step> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        match parse_line(line, i + 1) {
            Ok(Some(TraceOp::Event {
                process, writes, ..
            })) => {
                let Value::Int(v) = writes[0].1 else {
                    unreachable!("streams write integers")
                };
                out.push(Step::Event(process, v));
            }
            Ok(Some(TraceOp::Msg { send, recv })) => out.push(Step::Msg(Msg { send, recv })),
            _ => {}
        }
    }
    out
}

/// A bare `OnlineSlicer` pass over the stream's events and messages,
/// delivering each message as soon as both endpoints are observed —
/// in stream order (`serve`), or with every message known up front
/// (`monitor`'s two-pass replay). Returns the clock revision.
fn bare_slicer_pass(text: &str, messages_first: bool, tr: &mut Tracer) -> u64 {
    let steps = steps(text);
    let mut slicer = OnlineSlicer::new(gen::PROCS);
    let vars: Vec<VarRef> = (0..gen::PROCS)
        .map(|p| {
            slicer
                .declare_var(p, "x", Value::Int(0))
                .expect("fresh variable")
        })
        .collect();
    let mut tracker = MsgTracker::default();
    let mut positions = vec![0u32; gen::PROCS];
    let mut msgs: Vec<&Msg> = Vec::new();
    let deliver = |slicer: &mut OnlineSlicer, m: &Msg, tr: &mut Tracer| {
        let s = slicer.event_at(m.send.0, m.send.1);
        let r = slicer.event_at(m.recv.0, m.recv.1);
        tr.time(Layer::IncrementalMessage, || slicer.message(s, r))
            .expect("generated messages are valid");
    };
    if messages_first {
        for step in &steps {
            if let Step::Msg(m) = step {
                msgs.push(m);
                tracker.add(msgs.len() - 1, m, &positions);
            }
        }
    }
    for step in &steps {
        match step {
            Step::Event(p, v) => {
                tr.time(Layer::IncrementalObserve, || {
                    slicer.observe(*p, &[(vars[*p], Value::Int(*v))])
                })
                .expect("typed observation");
                positions[*p] += 1;
                for idx in tracker.touch(*p, positions[*p]) {
                    deliver(&mut slicer, msgs[idx], tr);
                }
            }
            Step::Msg(m) if !messages_first => {
                msgs.push(m);
                if tracker.add(msgs.len() - 1, m, &positions) {
                    deliver(&mut slicer, m, tr);
                }
            }
            Step::Msg(_) => {}
        }
    }
    slicer.clock_revision()
}

/// Attribution of a CLI workload: the child's wall time that the traced
/// layers do not cover.
/// Real child passes a traced run makes; the fastest is the wall time the
/// in-process layers are held against.
const CHILD_PASSES: usize = 3;

/// The share of the child's wall time the in-process layers do not cover.
/// `layers_s`, their traced self time over the child's work, is scaled by
/// the replay's untraced / traced wall time, which takes out the tracing
/// overhead. It reads below 0 when the host slowed the replay more than
/// the share is worth.
fn set_cli_attribution(
    out: &mut Outcome,
    child_seconds: f64,
    layers_s: f64,
    traced: f64,
    untraced: f64,
) {
    let attributed = layers_s * untraced / traced;
    println!(
        "child pass {child_seconds:.3} s (fastest of {CHILD_PASSES}); in-process replay \
         {untraced:.3} s untraced, {traced:.3} s traced; layers {layers_s:.3} s traced"
    );
    out.set("cli.unattributed_frac", 1.0 - attributed / child_seconds);
}

fn serve_traced(args: &Args, files: &Files, stream: &Stream, out: &mut Outcome) {
    // Real passes: the wall time to attribute, and the alarm log the
    // replay must reproduce.
    let passes: Result<Vec<ServePass>, String> = (0..CHILD_PASSES)
        .map(|_| serve_pass(args, files, stream))
        .collect();
    let passes = match passes {
        Ok(p) => p,
        Err(e) => {
            out.fail(e);
            return;
        }
    };
    let pass = &passes[0];
    let child_seconds = passes
        .iter()
        .map(|p| p.seconds)
        .fold(f64::INFINITY, f64::min);
    let (tr, untraced, traced, replay) = traced_and_untraced(|tr| serve_replay(stream, files, tr));
    let t = SelfTimes::of(&tr);
    let mut restart = Tracer::new(true);
    serve_restart_replay(stream, files, &mut restart);
    let r = SelfTimes::of(&restart);
    let mut bare = Tracer::new(true);
    let retimes = bare_slicer_pass(&stream.text, false, &mut bare);
    let b = SelfTimes::of(&bare);

    out.attempted = replay.events;
    if !check_alarms(out, &pass.alarms, &replay.alarms) {
        out.failed = replay.events;
    }
    zero_all(out);
    out.set(
        "trace.parse_s",
        t.get(Layer::TraceParse) + r.get(Layer::TraceParse),
    );
    out.set("incremental.observe_s", b.get(Layer::IncrementalObserve));
    out.set("incremental.message_s", b.get(Layer::IncrementalMessage));
    out.set("incremental.retimes", retimes as f64);
    out.set("incremental.retained_events", replay.retained as f64);
    out.set("multiplex.observe_s", t.get(Layer::HubObserve));
    out.set("multiplex.message_s", t.get(Layer::HubMessage));
    out.set("multiplex.check_s", t.get(Layer::HubCheck));
    out.set("multiplex.gc_s", t.get(Layer::HubGc));
    out.set("multiplex.clause_evals", replay.clause_evals as f64);
    out.set("multiplex.check_cost", replay.check_cost as f64);
    out.set("multiplex.peak_candidates", replay.peak_candidates as f64);
    out.set(
        "multiplex.gc_reclaim_ratio",
        replay.dropped as f64 / replay.events as f64,
    );
    set_checkpoint_metrics(out, &t, &r, &replay);
    set_cli_attribution(out, child_seconds, t.attributed(), traced, untraced);
    set_attribution(out, &tr, traced, untraced);
}

fn set_checkpoint_metrics(out: &mut Outcome, t: &SelfTimes, r: &SelfTimes, replay: &Replay) {
    out.set("checkpoint.export_s", t.get(Layer::CheckpointExport));
    out.set("checkpoint.encode_s", t.get(Layer::CheckpointEncode));
    out.set("checkpoint.write_s", t.get(Layer::CheckpointWrite));
    out.set("checkpoint.bytes", replay.checkpoint_bytes as f64);
    out.set("checkpoint.decode_s", r.get(Layer::CheckpointDecode));
    out.set("checkpoint.restore_s", r.get(Layer::CheckpointRestore));
    out.set("snapshot.write_s", t.get(Layer::SnapshotWrite));
    out.set("snapshot.bytes", replay.snapshot_bytes as f64);
}

// ---------------------------------------------------------------------
// monitor-trace
// ---------------------------------------------------------------------

/// One `slicing monitor` invocation: its wall time and alarm lines.
type Job = (f64, Vec<String>);

fn run_monitor(args: &Args, argv: &[String]) -> Result<Job, String> {
    let t0 = Instant::now();
    let mut child = spawn(args, argv, Stdio::null())?;
    let alarms = collect_alarms(&mut child);
    finish(child, "monitor")?;
    let seconds = t0.elapsed().as_secs_f64();
    let alarms = alarms.join().map_err(|_| "alarm reader panicked")?;
    Ok((seconds, alarms))
}

pub fn monitor_trace(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let files = Files::new(&args.work, "monitor");
    let stream = gen::online_stream(args.seed, &stream_shape(MONITOR_EVENTS, 0));
    if let Err(e) = std::fs::write(&files.trace, &stream.text) {
        out.fail(format!("writing {}: {e}", files.trace.display()));
        return out;
    }
    println!(
        "monitor-trace seed {}: {} events, {} messages, predicate {}",
        args.seed,
        stream.events,
        stream.messages,
        monitor_predicate()
    );
    if args.trace {
        monitor_traced(args, &files, &stream, &mut out);
        return out;
    }
    // Each restart resumes from the checkpoint an untimed copy of the job
    // wrote at its end just before; the timed jobs write nothing.
    let mut checkpoint_jobs = Vec::new();
    let run = passes_with_setups(
        args.seconds,
        MIN_PASSES,
        MONITOR_RESTARTS,
        || run_monitor(args, &monitor_job_argv(&files)),
        || {
            checkpoint_jobs.push(run_monitor(args, &monitor_checkpoint_argv(&files))?.1);
            let (seconds, alarms) = run_monitor(args, &monitor_resume_argv(&files))?;
            if !alarms.is_empty() {
                return Err(format!(
                    "restart raised {} alarm(s) on a consumed trace",
                    alarms.len()
                ));
            }
            Ok(seconds)
        },
    );
    let (passes, mut restarts) = match run {
        Ok(r) => r,
        Err(e) => {
            out.fail(e);
            return out;
        }
    };
    let replay = monitor_replay(&files, false, &mut Tracer::new(false));
    for (_, alarms) in &passes {
        out.attempted += stream.events;
        if !check_alarms(&mut out, alarms, &replay.alarms) {
            out.failed += stream.events;
        }
    }
    for alarms in &checkpoint_jobs {
        check_alarms(&mut out, alarms, &replay.alarms);
    }
    // The job is the pass's one op: its best time is both latency figures.
    let best = passes.iter().map(|p| p.0).fold(f64::INFINITY, f64::min);
    println!(
        "{} passes, {} alarm lines per pass",
        passes.len(),
        replay.alarms.len()
    );
    print_setups("restarts", &restarts);
    out.set("setup_s", median(&mut restarts));
    out.set("ops_per_s", stream.events as f64 / best);
    out.set("p50_ms", best * 1e3);
    out.set("p99_ms", best * 1e3);
    out.set("peak_rss_mb", children_peak_rss_mb());
    out
}

/// `slicing monitor` over the trace file, through the calls it makes: a
/// header pass of `parse_line`, then per event `parse_line`,
/// `OnlineMonitor::observe` / `message` / `check`. Every `BATCH` events
/// form one op span. With `checkpoint` it is the job the restart resumes
/// from instead of the timed one: a snapshotter records every counter,
/// and at the end `export_state` → `encode` → `rotate_and_write`.
fn monitor_replay(files: &Files, checkpoint: bool, tr: &mut Tracer) -> Replay {
    // As in the CLI, which keeps a snapshotter for the checkpoint's
    // stream cursor.
    let snapshotter = checkpoint.then(|| Arc::new(MetricsSnapshotter::new()));
    let _guard = snapshotter
        .as_ref()
        .map(|s| slicing_observe::scoped(s.clone()));
    let text = std::fs::read_to_string(&files.trace).expect("trace file reads");
    let (procs, decls, msgs) = scan(&text, tr);
    let comp = header_computation(procs, &decls);
    let conj = conjunctive(&comp, &monitor_predicate());
    let mut m = OnlineMonitor::new(procs).with_gc(GcConfig {
        lag: GC_LAG,
        every: GC_EVERY,
    });
    let mut var_of: Vec<HashMap<String, VarRef>> = vec![HashMap::new(); procs];
    for (p, name, initial) in &decls {
        let v = m.declare_var(*p, name, *initial).expect("fresh variable");
        var_of[*p].insert(name.clone(), v);
    }
    for clause in conj.clauses() {
        m.watch_clause(clause.clone()).expect("clause watches");
    }
    let mut tracker = MsgTracker::default();
    let mut positions = vec![0u32; procs];
    for (i, msg) in msgs.iter().enumerate() {
        assert!(
            !tracker.add(i, msg, &positions),
            "no message starts at an initial event"
        );
    }
    let deliver = |m: &mut OnlineMonitor, msg: &Msg, tr: &mut Tracer| {
        let (Some(s), Some(r)) = (
            m.event_at(msg.send.0, msg.send.1),
            m.event_at(msg.recv.0, msg.recv.1),
        ) else {
            panic!("message endpoint compacted away");
        };
        tr.time(Layer::MonitorMessage, || m.message(s, r))
            .expect("generated messages are valid");
    };
    let mut alarms = Vec::new();
    let mut observed = 0u64;
    let mut in_op = false;
    for (i, line) in text.lines().enumerate() {
        if !in_op {
            tr.open(Layer::Op);
            in_op = true;
        }
        let op = tr
            .time(Layer::TraceParse, || parse_line(line, i + 1))
            .expect("generated lines parse");
        let Some(TraceOp::Event {
            process: p, writes, ..
        }) = op
        else {
            continue;
        };
        positions[p] += 1;
        observed += 1;
        let assignments: Vec<(VarRef, Value)> = writes
            .iter()
            .map(|(name, value)| (var_of[p][name], *value))
            .collect();
        let layer = if (m.stats().events + 1).is_multiple_of(GC_EVERY) {
            Layer::MonitorGc
        } else {
            Layer::MonitorObserve
        };
        tr.time(layer, || m.observe(p, &assignments))
            .expect("typed observation");
        for idx in tracker.touch(p, positions[p]) {
            deliver(&mut m, &msgs[idx], tr);
        }
        if let Some(cut) = tr.time(Layer::MonitorCheck, || m.check()).expect("check") {
            alarms.push(format!(
                "alarm after {observed} events: fault possible at cut {cut}"
            ));
        }
        if observed.is_multiple_of(BATCH) {
            tr.close();
            in_op = false;
        }
    }
    if in_op {
        tr.close();
    }
    let checkpoint_bytes = snapshotter
        .as_ref()
        .map_or(0, |s| monitor_checkpoint(&m, s, files, tr));
    let stats = m.stats();
    Replay {
        alarms,
        checkpoint_bytes,
        snapshot_bytes: 0,
        events: stats.events,
        clause_evals: 0,
        check_cost: stats.check_cost,
        peak_candidates: stats.peak_candidates,
        dropped: stats.dropped_events,
        retained: m.retained_events(),
    }
}

/// The monitor's header pass: process count, declarations and message
/// edges, each line through `parse_line`.
fn scan(text: &str, tr: &mut Tracer) -> (usize, Vec<(usize, String, Value)>, Vec<Msg>) {
    let mut procs = 0;
    let mut decls = Vec::new();
    let mut msgs = Vec::new();
    for (i, line) in text.lines().enumerate() {
        match tr
            .time(Layer::TraceParse, || parse_line(line, i + 1))
            .expect("generated lines parse")
        {
            Some(TraceOp::Procs(n)) => procs = n,
            Some(TraceOp::Var {
                process,
                name,
                initial,
            }) => decls.push((process, name, initial)),
            Some(TraceOp::Msg { send, recv }) => msgs.push(Msg { send, recv }),
            _ => {}
        }
    }
    (procs, decls, msgs)
}

fn monitor_checkpoint(
    m: &OnlineMonitor,
    snapshotter: &MetricsSnapshotter,
    files: &Files,
    tr: &mut Tracer,
) -> u64 {
    let seq = snapshotter.seq();
    staged_checkpoint(&files.checkpoint, 1, tr, |tr| {
        let state = tr.time(Layer::CheckpointExport, || m.export_state());
        tr.time(Layer::CheckpointEncode, || {
            slicing_detect::checkpoint::encode(&state, seq)
        })
    })
}

/// `slicing monitor --resume`: the header pass again, decode the
/// checkpoint, rebuild the monitor and its clauses, then skip the
/// consumed events.
fn monitor_restart_replay(files: &Files, tr: &mut Tracer) {
    let text = std::fs::read_to_string(&files.trace).expect("trace file reads");
    let (procs, decls, _msgs) = scan(&text, tr);
    let comp = header_computation(procs, &decls);
    let conj = conjunctive(&comp, &monitor_predicate());
    let (state, _seq) = tr
        .time(Layer::CheckpointDecode, || {
            slicing_recover::load_checkpoint(&files.checkpoint)
        })
        .expect("the checkpoint the pass wrote loads");
    let m = tr
        .time(Layer::CheckpointRestore, || {
            slicing_recover::resume_monitor(&state, conj.clauses().to_vec())
        })
        .expect("checkpoint state rebuilds");
    for (p, name, _) in &decls {
        assert!(m.var(*p, name).is_some(), "checkpoint declares {name}");
    }
    for (i, line) in text.lines().enumerate() {
        tr.time(Layer::TraceParse, || parse_line(line, i + 1))
            .expect("generated lines parse");
    }
}

fn monitor_traced(args: &Args, files: &Files, stream: &Stream, out: &mut Outcome) {
    let jobs: Result<Vec<Job>, String> = (0..CHILD_PASSES)
        .map(|_| run_monitor(args, &monitor_job_argv(files)))
        .collect();
    let jobs = match jobs {
        Ok(j) => j,
        Err(e) => {
            out.fail(e);
            return;
        }
    };
    let child_seconds = jobs.iter().map(|j| j.0).fold(f64::INFINITY, f64::min);
    let child_alarms = &jobs[0].1;
    let (tr, untraced, traced, replay) = traced_and_untraced(|tr| monitor_replay(files, false, tr));
    let t = SelfTimes::of(&tr);
    // The checkpointing job: its checkpoint layer, and the file the
    // restart replay decodes.
    let mut ck = Tracer::new(true);
    let ck_replay = monitor_replay(files, true, &mut ck);
    let c = SelfTimes::of(&ck);
    let mut restart = Tracer::new(true);
    monitor_restart_replay(files, &mut restart);
    let r = SelfTimes::of(&restart);
    let mut bare = Tracer::new(true);
    let retimes = bare_slicer_pass(&stream.text, true, &mut bare);
    let b = SelfTimes::of(&bare);

    out.attempted = replay.events;
    if !check_alarms(out, child_alarms, &replay.alarms) {
        out.failed = replay.events;
    }
    zero_all(out);
    out.set(
        "trace.parse_s",
        t.get(Layer::TraceParse) + r.get(Layer::TraceParse),
    );
    out.set("incremental.observe_s", b.get(Layer::IncrementalObserve));
    out.set("incremental.message_s", b.get(Layer::IncrementalMessage));
    out.set("incremental.retimes", retimes as f64);
    out.set("incremental.retained_events", replay.retained as f64);
    out.set("monitor.observe_s", t.get(Layer::MonitorObserve));
    out.set("monitor.message_s", t.get(Layer::MonitorMessage));
    out.set("monitor.check_s", t.get(Layer::MonitorCheck));
    out.set("monitor.gc_s", t.get(Layer::MonitorGc));
    out.set("monitor.check_cost", replay.check_cost as f64);
    out.set("monitor.peak_candidates", replay.peak_candidates as f64);
    out.set(
        "monitor.gc_reclaim_ratio",
        replay.dropped as f64 / replay.events as f64,
    );
    set_checkpoint_metrics(out, &c, &r, &ck_replay);
    set_cli_attribution(out, child_seconds, t.attributed(), traced, untraced);
    set_attribution(out, &tr, traced, untraced);
}
