//! End-to-end tests of the `slicing` command-line tool.

use std::process::{Command, Output, Stdio};

fn slicing(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_slicing"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn slicing_with_stdin(args: &[&str], stdin: &str) -> Output {
    use std::io::Write;
    let mut child = Command::new(env!("CARGO_BIN_EXE_slicing"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    // Best-effort: a child that rejects its flags exits before reading
    // stdin, which surfaces here as a broken pipe — not a test failure.
    let _ = child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(stdin.as_bytes());
    child.wait_with_output().expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn figure1_trace() -> String {
    let out = slicing(&["fixture", "figure1"]);
    assert!(out.status.success());
    stdout(&out)
}

#[test]
fn fixture_emits_a_parsable_trace() {
    let trace = figure1_trace();
    assert!(trace.contains("procs 3"));
    assert!(trace.contains("var 0 x1 2"));
    // Round-trip through the library parser.
    let comp = computation_slicing::computation::trace::from_text(&trace).unwrap();
    assert_eq!(comp.num_events(), 12);
}

#[test]
fn stats_reports_the_figure1_reduction() {
    let trace = figure1_trace();
    let out = slicing_with_stdin(&["stats", "-", "x1@0 > 1 && x3@2 <= 3"], &trace);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    assert!(text.contains("28 → 6"), "{text}");
    assert!(text.contains("M3"), "{text}");
}

#[test]
fn detect_engines_agree() {
    let trace = figure1_trace();
    let pred = "x1@0 * x2@1 + x3@2 < 5 && x1@0 > 1 && x3@2 <= 3";
    let registry = computation_slicing::detect::Engine::ALL.map(|e| e.name());
    for engine in registry.into_iter().chain(["slice"]) {
        let out = slicing_with_stdin(&["detect", "-", pred, "--engine", engine], &trace);
        assert!(out.status.success(), "{engine}");
        let text = stdout(&out);
        assert!(text.contains("witness cut"), "{engine}: {text}");
    }
}

#[test]
fn detect_reports_absence() {
    let trace = figure1_trace();
    let out = slicing_with_stdin(&["detect", "-", "x1@0 > 99"], &trace);
    assert!(out.status.success());
    assert!(stdout(&out).contains("does not hold anywhere"));
}

#[test]
fn modalities_answer() {
    let trace = figure1_trace();
    for (mode, expect) in [
        ("possibly", "possibly: true"),
        ("definitely", "definitely: false"),
        ("invariant", "invariant: false"),
        ("controllable", "controllable: false"),
    ] {
        let out = slicing_with_stdin(
            &["modality", "-", "x1@0 > 1 && x3@2 <= 3", "--mode", mode],
            &trace,
        );
        assert!(out.status.success(), "{mode}");
        assert!(stdout(&out).contains(expect), "{mode}: {}", stdout(&out));
    }
}

#[test]
fn modality_possibly_answers_through_the_bfs_engine() {
    for (trace, pred, expect) in [
        (figure1_trace(), "x1@0 > 1 && x3@2 <= 3", "possibly: true"),
        (grid40_trace(), "x@0 > 1000", "possibly: false"),
    ] {
        let out = slicing_with_stdin(&["modality", "-", pred, "--mode", "possibly"], &trace);
        assert!(out.status.success(), "{pred}");
        assert_eq!(stdout(&out).trim_end(), expect, "{pred}");
    }
}

/// A reader that has gone away (`slicing cuts t | head -1`) ends the
/// output: exit status 0 and no panic. The child's stdout is a pipe whose
/// read end is already closed, so its first write fails every time.
#[test]
fn closed_stdout_ends_the_output_quietly() {
    let trace = tmp_path("closed-stdout.trace");
    std::fs::write(&trace, grid40_trace()).unwrap();
    let trace = trace.to_str().unwrap();
    for args in [
        vec!["fixture", "grid40"],
        vec!["cuts", trace, "--limit", "2000"],
        vec!["stats", trace, "x@0 > 1 && x@1 <= 3"],
    ] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_slicing"))
            .args(&args)
            .stdout(writer)
            .stderr(Stdio::piped())
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: {:?} {stderr}", out.status);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stderr.is_empty(), "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_file(trace);
}

#[test]
fn show_renders_space_time() {
    let trace = figure1_trace();
    let out = slicing_with_stdin(&["show", "-"], &trace);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains('⊥'));
    assert!(text.contains("[s1]"));
    // With a cut fence.
    let out = slicing_with_stdin(&["show", "-", "2,2,2"], &trace);
    assert!(out.status.success());
    assert!(stdout(&out).contains('|'));
    // Inconsistent cuts are rejected.
    let out = slicing_with_stdin(&["show", "-", "1,1,2"], &trace);
    assert!(!out.status.success());
}

#[test]
fn cuts_lists_with_limit() {
    let trace = figure1_trace();
    let out = slicing_with_stdin(&["cuts", "-", "--limit", "5"], &trace);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("# shown 5 of 28"), "{text}");
}

#[test]
fn dot_outputs_graphviz() {
    let trace = figure1_trace();
    let out = slicing_with_stdin(&["dot", "-"], &trace);
    assert!(out.status.success());
    assert!(stdout(&out).starts_with("digraph computation"));
    let out = slicing_with_stdin(&["dot", "-", "x1@0 > 1 && x3@2 <= 3"], &trace);
    assert!(out.status.success());
    assert!(stdout(&out).starts_with("digraph slice"));
}

#[test]
fn errors_exit_nonzero_with_usage() {
    let out = slicing(&[]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));

    let out = slicing(&["bogus"]);
    assert!(!out.status.success());

    let trace = figure1_trace();
    let out = slicing_with_stdin(&["detect", "-", "nope@0 > 1"], &trace);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("no variable"));

    let out = slicing_with_stdin(&["detect", "-", "x1@0 > 1", "--engine", "warp"], &trace);
    assert!(!out.status.success());
}

#[test]
fn help_prints_usage() {
    let out = slicing(&["help"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("usage:"));
}

#[test]
fn detect_accepts_a_timeout() {
    let trace = figure1_trace();
    let out = slicing_with_stdin(
        &[
            "detect",
            "-",
            "x1@0 > 1 && x3@2 <= 3",
            "--timeout-ms",
            "60000",
        ],
        &trace,
    );
    assert!(out.status.success());
    assert!(stdout(&out).contains("witness cut"));
}

#[test]
fn recover_runs_the_loop_and_reports() {
    let out = slicing(&[
        "--report",
        "-",
        "recover",
        "--protocol",
        "ps",
        "--procs",
        "3",
        "--events",
        "8",
        "--seed",
        "5",
        "--fault",
        "corrupt",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    assert!(text.contains("verdict: recovered"), "{text}");
    assert!(text.contains("recovery line:"), "{text}");
    assert!(text.contains("slicing.recovery-report/v1"), "{text}");
}

#[test]
fn recover_with_no_fault_is_clean() {
    let out = slicing(&[
        "recover",
        "--protocol",
        "db",
        "--procs",
        "3",
        "--events",
        "8",
        "--fault",
        "none",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout(&out).contains("verdict: clean-already"));
}

#[test]
fn recover_rejects_unknown_protocols_and_faults() {
    let out = slicing(&["recover", "--protocol", "warp"]);
    assert!(!out.status.success());

    let out = slicing(&["recover"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--protocol"));
}

// ---------------------------------------------------------------------------
// Observability surface: fixture grid40, profile, bench-diff, validate,
// monitor --metrics.
// ---------------------------------------------------------------------------

fn tmp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("slicing-cli-{}-{name}", std::process::id()))
}

fn grid40_trace() -> String {
    let out = slicing(&["fixture", "grid40"]);
    assert!(out.status.success());
    stdout(&out)
}

#[test]
fn fixture_grid40_round_trips() {
    let trace = grid40_trace();
    let comp = computation_slicing::computation::trace::from_text(&trace).unwrap();
    assert_eq!(
        comp.num_events(),
        82,
        "2 procs x (initial event + 40 steps)"
    );
}

/// The acceptance invariant of the profiler: the per-span counter sums in
/// the `slicing.profile/v1` document equal the flat totals a
/// [`MemoryRecorder`] reports for the very same deterministic run.
#[test]
fn profile_totals_match_flat_counters_on_grid40() {
    use std::collections::BTreeMap;
    use std::sync::Arc;

    let trace = grid40_trace();
    let trace_path = tmp_path("profile.trace");
    let json_path = tmp_path("profile.json");
    std::fs::write(&trace_path, &trace).unwrap();

    let out = slicing(&[
        "profile",
        trace_path.to_str().unwrap(),
        "x@0 > 999",
        "--engine",
        "bfs",
        "--out",
        json_path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let doc = slicing_observe::json::parse(&std::fs::read_to_string(&json_path).unwrap()).unwrap();
    assert_eq!(
        slicing_observe::schema::validate(&doc).unwrap(),
        slicing_observe::schema::PROFILE
    );
    assert_eq!(doc.get("engine").unwrap().as_str(), Some("bfs"));
    let mut profile_totals: BTreeMap<String, u64> = BTreeMap::new();
    for entry in doc.get("totals").unwrap().as_array().unwrap() {
        profile_totals.insert(
            entry.get("name").unwrap().as_str().unwrap().to_owned(),
            entry.get("value").unwrap().as_u64().unwrap(),
        );
    }

    // Replay the identical detection in-process under a flat recorder.
    let comp = computation_slicing::computation::trace::from_text(&trace).unwrap();
    let pred = computation_slicing::predicates::expr::parse_predicate(&comp, "x@0 > 999").unwrap();
    let mem = Arc::new(slicing_observe::MemoryRecorder::new(
        slicing_observe::Level::Trace,
    ));
    {
        let _guard = slicing_observe::scoped(mem.clone());
        let d = computation_slicing::detect_bfs(
            &comp,
            &comp,
            &pred,
            &computation_slicing::Limits::none(),
        );
        assert_eq!(d.cuts_explored, 41 * 41, "exhaustive sweep of the lattice");
    }
    let mut flat_totals: BTreeMap<String, u64> = BTreeMap::new();
    for event in mem.events() {
        if let slicing_observe::OwnedEvent::Counter { name, delta } = event {
            *flat_totals.entry(name).or_default() += delta;
        }
    }

    assert_eq!(
        profile_totals, flat_totals,
        "per-span sums must equal flat totals, counter for counter"
    );
    // Pin the headline figures so the workload can't silently change.
    assert_eq!(profile_totals.get("detect.cuts_explored"), Some(&1681));
    assert_eq!(profile_totals.get("detect.visited.inserts"), Some(&1681));

    std::fs::remove_file(&trace_path).ok();
    std::fs::remove_file(&json_path).ok();
}

#[test]
fn profile_folded_emits_span_paths() {
    let trace = grid40_trace();
    let trace_path = tmp_path("folded.trace");
    std::fs::write(&trace_path, &trace).unwrap();
    let out = slicing(&[
        "profile",
        trace_path.to_str().unwrap(),
        "x@0 > 999",
        "--engine",
        "bfs",
        "--folded",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    let bfs_line = text
        .lines()
        .find(|l| l.starts_with("detect.bfs "))
        .unwrap_or_else(|| panic!("no detect.bfs stack line in:\n{text}"));
    // `name <self_nanos>` — the weight must parse as an integer.
    let weight = bfs_line.rsplit(' ').next().unwrap();
    weight.parse::<u64>().expect("folded weight is integral");
    std::fs::remove_file(&trace_path).ok();
}

/// The eight committed bench tables.
const COMMITTED_TABLES: [&str; 9] = [
    concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_detect.json"),
    concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_protocols.json"),
    concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_soak.json"),
    concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_serve.json"),
    concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_figures.json"),
    concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_oom.json"),
    concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_slice_stats.json"),
    concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_recovery.json"),
    concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_complexity.json"),
];

#[test]
fn bench_diff_accepts_a_baseline_against_itself() {
    let baseline = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_detect.json");
    let out = slicing(&["bench-diff", baseline, baseline]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout(&out).contains("bench-diff OK"), "{}", stdout(&out));
}

/// A one-row `table_speedup` table with `cuts` explored.
fn detect_table(cuts: u64) -> String {
    format!(
        r#"{{"schema":"slicing.bench/v1","binary":"table_speedup","params":{{}},"columns":{{"detected":"exact","wall_us_per_run":"info","cuts_explored":"gated","heap_allocs":"gated"}},"entries":[{{"name":"bfs.grid40","detected":false,"wall_us_per_run":{cuts}.5,"cuts_explored":{cuts},"heap_allocs":0}}]}}"#
    )
}

#[test]
fn bench_diff_flags_drift_past_threshold() {
    let old = tmp_path("diff-old.json");
    let new = tmp_path("diff-new.json");
    std::fs::write(&old, detect_table(1000)).unwrap();
    std::fs::write(&new, detect_table(2000)).unwrap();
    let out = slicing(&["bench-diff", old.to_str().unwrap(), new.to_str().unwrap()]);
    assert!(!out.status.success(), "100% drift must fail the gate");
    let text = stdout(&out);
    assert!(text.contains("cuts_explored"), "{text}");
    assert!(
        !text.contains("wall_us_per_run"),
        "info columns never gate: {text}"
    );

    // A generous threshold lets the same pair pass.
    let out = slicing(&[
        "bench-diff",
        old.to_str().unwrap(),
        new.to_str().unwrap(),
        "--threshold",
        "2.0",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_file(&old).ok();
    std::fs::remove_file(&new).ok();
}

#[test]
fn bench_diff_rejects_mismatched_schemas() {
    let old = tmp_path("diff-mismatch-old.json");
    let new = tmp_path("diff-mismatch-new.json");
    std::fs::write(&old, detect_table(1)).unwrap();
    let stderr_of = |fresh: &str| {
        std::fs::write(&new, fresh).unwrap();
        let out = slicing(&["bench-diff", old.to_str().unwrap(), new.to_str().unwrap()]);
        assert!(!out.status.success(), "{fresh}");
        String::from_utf8_lossy(&out.stderr).into_owned()
    };
    let run_report = r#"{"schema":"slicing.run-report/v1","workload":"w","engine":"bfs","phases":[],"counters":[]}"#;
    let err = stderr_of(run_report);
    assert!(err.contains("schema"), "{err}");
    let err = stderr_of(&detect_table(1).replace("table_speedup", "table_serve"));
    assert!(err.contains("binary differs"), "{err}");
    std::fs::remove_file(&old).ok();
    std::fs::remove_file(&new).ok();
}

#[test]
fn bench_diff_rejects_repeated_row_names() {
    // Two rows named alike would collapse into one comparison; the table
    // format rejects them outright, for `validate` and `bench-diff` alike.
    let row = r#"{"name":"bfs.grid40","detected":false,"wall_us_per_run":1.5,"cuts_explored":1,"heap_allocs":0}"#;
    let twice = detect_table(1).replace(row, &format!("{row},{row}"));
    assert_ne!(twice, detect_table(1));
    let path = tmp_path("diff-repeated.json");
    std::fs::write(&path, &twice).unwrap();
    let p = path.to_str().unwrap();
    for args in [vec!["validate", p], vec!["bench-diff", p, p]] {
        let out = slicing(&args);
        assert!(!out.status.success(), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("repeated row name \"bfs.grid40\""),
            "{args:?}: {err}"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn validate_accepts_committed_artifacts_and_rejects_junk() {
    let mut args = vec!["validate"];
    args.extend(COMMITTED_TABLES);
    let out = slicing(&args);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    assert_eq!(
        text.matches("1 document(s) ok (slicing.bench/v1)").count(),
        COMMITTED_TABLES.len(),
        "{text}"
    );
    // Each committed table is a valid baseline for itself.
    for table in COMMITTED_TABLES {
        let out = slicing(&["bench-diff", table, table]);
        assert!(
            out.status.success() && stdout(&out).contains("bench-diff OK"),
            "{table}: {}{}",
            stdout(&out),
            String::from_utf8_lossy(&out.stderr)
        );
    }

    let bad = tmp_path("validate-bad.json");
    std::fs::write(&bad, r#"{"no_schema_here":true}"#).unwrap();
    let out = slicing(&["validate", bad.to_str().unwrap()]);
    assert!(!out.status.success(), "schema-less document must fail");
    std::fs::remove_file(&bad).ok();
}

/// `validate` accepts a hub checkpoint only if `--resume` could load it:
/// a document the registry's structural rule passes but the decoder
/// refuses (an unknown value tag, a repeated key) fails validation.
#[test]
fn validate_rejects_checkpoints_resume_refuses() {
    let ckpt = tmp_path("validate.ckpt");
    let path = ckpt.to_str().unwrap();
    let out = slicing_with_stdin(
        &[
            "monitor",
            "-",
            "x1@0 > 1 && x3@2 <= 3",
            "--checkpoint",
            path,
        ],
        &figure1_trace(),
    );
    assert!(out.status.success());
    let out = slicing(&["validate", path]);
    assert!(
        stdout(&out).contains("1 document(s) ok (slicing.serve-checkpoint/v1)"),
        "{}{}",
        stdout(&out),
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&ckpt).unwrap();
    for (from, to, why) in [
        (
            "\"t\":\"int\"",
            "\"t\":\"float\"",
            "unknown snapshot value tag \"float\"",
        ),
        (
            "\"since_gc\":",
            "\"since_gc\":0,\"since_gc\":",
            "checkpoint repeats field \"since_gc\"",
        ),
    ] {
        let tampered = text.replacen(from, to, 1);
        assert_ne!(tampered, text);
        std::fs::write(&ckpt, &tampered).unwrap();
        let out = slicing(&["validate", path]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{to}: {}", stdout(&out));
        assert!(err.contains(why), "{to}: {err}");
        let resume = slicing_with_stdin(
            &["monitor", "-", "x1@0 > 1 && x3@2 <= 3", "--resume", path],
            &figure1_trace(),
        );
        assert!(!resume.status.success(), "{to}: resume must refuse it too");
    }
    std::fs::remove_file(&ckpt).ok();
}

/// A three-process predicate whose only candidate on process 2 is
/// causally below the only one on process 0 holds nowhere. The monitor
/// once raised ⟨2, 4, 3⟩ here: a settle that found one stream empty
/// forgot which heads it had not yet compared.
#[test]
fn monitor_raises_no_alarm_where_detect_finds_none() {
    let trace = "# computation-slicing trace v1\nprocs 3\nvar 0 x 0\nvar 1 x 0\n\
                 var 2 x 0\nevent 2 x=1\nevent 2 x=0\nevent 1 x=1\nevent 1 x=0\n\
                 event 0 x=1\nevent 1 x=1\nmsg 2 2 0 1\nmsg 1 2 0 1\n";
    let pred = "x@0 > 0 && x@1 > 0 && x@2 > 0";
    let out = slicing_with_stdin(&["monitor", "-", pred], trace);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(!text.lines().any(|l| l.starts_with("alarm")), "{text}");
    assert!(text.contains("0 distinct alarm cut(s)"), "{text}");
    let out = slicing_with_stdin(&["detect", "-", pred, "--engine", "bfs"], trace);
    assert!(out.status.success());
    assert!(
        stdout(&out).contains("predicate does not hold anywhere"),
        "{}",
        stdout(&out)
    );
}

/// The summary counts check work as serve does — probes plus clause
/// evaluations over checks — so a working monitor never reads 0 work.
#[test]
fn monitor_summary_counts_probes_and_clause_evals() {
    let out = slicing_with_stdin(&["monitor", "-", "x1@0 > 1 && x3@2 <= 3"], &figure1_trace());
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(
        text.contains(
            "check work: 5 probes + 8 clause eval(s) over 9 checks, peak 4 queued candidates"
        ),
        "{text}"
    );
    assert!(!text.contains("milliprobe"), "{text}");
}

#[test]
fn monitor_metrics_stream_is_valid_jsonl() {
    let trace = figure1_trace();
    let trace_path = tmp_path("metrics.trace");
    let metrics_path = tmp_path("metrics.jsonl");
    std::fs::write(&trace_path, &trace).unwrap();
    let out = slicing(&[
        "monitor",
        trace_path.to_str().unwrap(),
        "x1@0 > 1 && x3@2 <= 3",
        "--metrics",
        metrics_path.to_str().unwrap(),
        "--metrics-every",
        "4",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stream = std::fs::read_to_string(&metrics_path).unwrap();
    let lines: Vec<&str> = stream.lines().filter(|l| !l.trim().is_empty()).collect();
    assert!(!lines.is_empty(), "metrics stream is empty");
    let mut prev_seq = 0;
    for line in &lines {
        let doc = slicing_observe::json::parse(line).unwrap();
        assert_eq!(
            slicing_observe::schema::validate(&doc).unwrap(),
            slicing_observe::schema::METRICS
        );
        let seq = doc.get("seq").unwrap().as_u64().unwrap();
        assert!(seq > prev_seq || prev_seq == 0, "snapshots in order");
        prev_seq = seq;
    }
    // The tail snapshot labels the final observed-event count.
    let last = slicing_observe::json::parse(lines.last().unwrap()).unwrap();
    assert_eq!(last.get("at").unwrap().as_u64(), Some(9));
    std::fs::remove_file(&trace_path).ok();
    std::fs::remove_file(&metrics_path).ok();
}

// ---------------------------------------------------------------------------
// Run-forever surface: flag validation, GC flags, checkpoint/resume.
// ---------------------------------------------------------------------------

#[test]
fn monitor_rejects_zero_and_garbage_cadences() {
    let trace = figure1_trace();
    for flag in ["--metrics-every", "--checkpoint-every"] {
        let out = slicing_with_stdin(&["monitor", "-", "x1@0 > 1", flag, "0"], &trace);
        assert!(!out.status.success(), "{flag} 0 must be rejected");
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(
            err.contains(&format!("{flag} must be positive (got 0)")),
            "{flag}: {err}"
        );
        assert!(err.contains("usage:"), "{flag}: error must carry usage");

        let out = slicing_with_stdin(&["monitor", "-", "x1@0 > 1", flag, "three"], &trace);
        assert!(!out.status.success(), "{flag} three must be rejected");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains(flag),
            "{flag}: parse error must name the flag"
        );
    }
    // --checkpoint-every without a destination is a usage error too.
    let out = slicing_with_stdin(
        &["monitor", "-", "x1@0 > 1", "--checkpoint-every", "5"],
        &trace,
    );
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("needs --checkpoint"));
}

#[test]
fn monitor_with_gc_matches_the_plain_verdict() {
    let trace = figure1_trace();
    let plain = slicing_with_stdin(&["monitor", "-", "x1@0 > 1 && x3@2 <= 3"], &trace);
    assert!(plain.status.success());
    let gc = slicing_with_stdin(
        &[
            "monitor",
            "-",
            "x1@0 > 1 && x3@2 <= 3",
            "--gc-lag",
            "16",
            "--gc-every",
            "2",
        ],
        &trace,
    );
    assert!(
        gc.status.success(),
        "{}",
        String::from_utf8_lossy(&gc.stderr)
    );
    assert_eq!(stdout(&plain), stdout(&gc), "GC changed the CLI verdict");
}

/// End-to-end kill-and-resume: checkpoint a run over a prefix trace, then
/// resume it against the full trace. The alarm line and the final
/// monitor report must be identical to the unbroken run, the checkpoint
/// must validate against the schema registry, and explicit GC flags must
/// be rejected on resume (the configuration travels in the checkpoint).
#[test]
fn monitor_checkpoint_resume_converges_to_the_unbroken_run() {
    let trace = figure1_trace();
    // The trace lists events in replay order, so the first lines form a
    // valid prefix computation: same processes, same per-process event
    // prefixes, no messages past the cut.
    let prefix: String = trace.lines().take(9).map(|l| format!("{l}\n")).collect();
    let ckpt = tmp_path("resume.ckpt");
    let pred = "x1@0 > 1 && x3@2 <= 3";

    let unbroken = slicing_with_stdin(&["--report", "-", "monitor", "-", pred], &trace);
    assert!(unbroken.status.success());

    let out = slicing_with_stdin(
        &["monitor", "-", pred, "--checkpoint", ckpt.to_str().unwrap()],
        &prefix,
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout(&out).contains("monitored 4 events"),
        "{}",
        stdout(&out)
    );
    let doc = slicing_observe::json::parse(std::fs::read_to_string(&ckpt).unwrap().trim()).unwrap();
    assert_eq!(
        slicing_observe::schema::validate(&doc).unwrap(),
        slicing_observe::schema::SERVE_CHECKPOINT
    );

    let resumed = slicing_with_stdin(
        &[
            "--report",
            "-",
            "monitor",
            "-",
            pred,
            "--resume",
            ckpt.to_str().unwrap(),
        ],
        &trace,
    );
    assert!(
        resumed.status.success(),
        "{}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let text = stdout(&resumed);
    assert!(text.contains("resumed from"), "{text}");
    assert!(
        text.contains("alarm after 7 events: fault possible at cut ⟨1, 2, 2⟩"),
        "{text}"
    );
    // Line-for-line identical from the alarm on: same alarms, same
    // cumulative stats, same report document.
    let tail = |s: &str| {
        s.lines()
            .skip_while(|l| !l.starts_with("alarm"))
            .map(str::to_owned)
            .collect::<Vec<_>>()
    };
    assert_eq!(tail(&stdout(&unbroken)), tail(&text));
    // The report is the serve report of the one tenant, `monitor`.
    let line = text
        .lines()
        .find(|l| l.starts_with('{'))
        .unwrap_or_else(|| panic!("no JSON report line in:\n{text}"));
    let doc = slicing_observe::json::parse(line).unwrap();
    assert_eq!(
        slicing_observe::schema::validate(&doc).unwrap(),
        slicing_observe::schema::SERVE_REPORT
    );
    assert_eq!(
        doc.get("alarm_log").unwrap().to_json(),
        r#"[{"tenant":"monitor","events":7,"cut":[1,2,2]}]"#
    );

    // GC flags on resume are rejected: the checkpoint owns that config.
    let out = slicing_with_stdin(
        &[
            "monitor",
            "-",
            pred,
            "--resume",
            ckpt.to_str().unwrap(),
            "--gc-lag",
            "8",
        ],
        &trace,
    );
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("travels inside the checkpoint"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_file(&ckpt).ok();
}

#[test]
fn detect_report_is_a_valid_run_report() {
    let trace = figure1_trace();
    let out = slicing_with_stdin(
        &["--report", "-", "detect", "-", "x1@0 > 1 && x3@2 <= 3"],
        &trace,
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    let line = text
        .lines()
        .find(|l| l.starts_with('{'))
        .unwrap_or_else(|| panic!("no JSON report line in:\n{text}"));
    let doc = slicing_observe::json::parse(line).unwrap();
    assert_eq!(
        slicing_observe::schema::validate(&doc).unwrap(),
        slicing_observe::schema::RUN_REPORT
    );
    assert_eq!(doc.get("engine").unwrap().as_str(), Some("slice"));
    assert_eq!(doc.get("detected").unwrap().as_bool(), Some(true));
    // Counters live in `slicing profile`'s totals, not in the run report.
    assert!(doc.get("counters").is_none(), "{line}");
    let witness: Vec<u64> = doc
        .get("witness")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|v| v.as_u64().unwrap())
        .collect();
    assert_eq!(witness, vec![1, 2, 2], "earliest satisfying cut");
}

// ---------------------------------------------------------------------------
// `slicing serve`: multi-tenant predicate multiplexing over a live stream.
// ---------------------------------------------------------------------------

#[test]
fn serve_multiplexes_tenants_over_one_stream() {
    let trace = figure1_trace();
    let out = slicing_with_stdin(
        &[
            "--report",
            "-",
            "serve",
            "--tenant",
            "a=x1@0 > 1 && x3@2 <= 3",
            "--tenant",
            "b=x1@0 > 1 && x3@2 <= 3",
            "--tenant",
            "c=x1@0 > 1",
        ],
        &trace,
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    // Tenants a and b share one group: one settle, two identical alarms.
    assert!(
        text.contains("alarm tenant=a after 7 events: fault possible at cut ⟨1, 1, 2⟩"),
        "{text}"
    );
    assert!(
        text.contains("alarm tenant=b after 7 events: fault possible at cut ⟨1, 1, 2⟩"),
        "{text}"
    );
    assert!(text.contains("alarm tenant=c after 1 events"), "{text}");
    assert!(
        text.contains("served 9 events, 4 messages: 2 alarm(s) across 3 tenant(s)"),
        "{text}"
    );
    assert!(
        text.contains("multiplexed 3 tenant(s) onto 2 group(s), 2 slot(s), 2 distinct clause(s)"),
        "{text}"
    );
    // The report is a valid serve-report document with the same story.
    let line = text
        .lines()
        .find(|l| l.starts_with('{'))
        .unwrap_or_else(|| panic!("no JSON report line in:\n{text}"));
    let doc = slicing_observe::json::parse(line).unwrap();
    assert_eq!(
        slicing_observe::schema::validate(&doc).unwrap(),
        slicing_observe::schema::SERVE_REPORT
    );
    assert_eq!(doc.get("tenants").unwrap().as_u64(), Some(3));
    assert_eq!(doc.get("groups").unwrap().as_u64(), Some(2));
    assert_eq!(doc.get("events").unwrap().as_u64(), Some(9));
    assert_eq!(
        doc.get("alarm_log").unwrap().as_array().unwrap().len(),
        3,
        "one log entry per (tenant, alarm)"
    );
}

#[test]
fn serve_roster_directives_add_and_remove_tenants_mid_stream() {
    let stream = "\
procs 2
var 0 x 0
var 1 y 0
event 0 x=0
event 1 y=0
tenant late x@0 > 0 && y@1 > 1
event 0 x=1
event 1 y=2
untenant late
event 0 x=0
event 1 y=0
tenant bad z@9 > 1
";
    let out = slicing_with_stdin(&["serve", "--tenant", "main=x@0 > 0 && y@1 > 0"], stream);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    assert!(text.contains("tenant late added after 2 events"), "{text}");
    assert!(text.contains("alarm tenant=late after 4 events"), "{text}");
    assert!(text.contains("alarm tenant=main after 4 events"), "{text}");
    assert!(
        text.contains("tenant late removed after 4 events"),
        "{text}"
    );
    // The roster at the end is just `main`; the malformed directive was
    // shed with a warning instead of killing the stream.
    assert!(
        text.contains("served 6 events, 0 messages: 2 alarm(s) across 1 tenant(s)"),
        "{text}"
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("warning: ignoring tenant bad"), "{err}");
}

#[test]
fn serve_checkpoints_rotate_and_resume_converges() {
    let trace = figure1_trace();
    let prefix: String = trace.lines().take(9).map(|l| format!("{l}\n")).collect();
    let ckpt = tmp_path("serve.ckpt");
    let tenants = [
        "--tenant",
        "a=x1@0 > 1 && x3@2 <= 3",
        "--tenant",
        "c=x1@0 > 1",
    ];

    let mut unbroken_args = vec!["serve"];
    unbroken_args.extend_from_slice(&tenants);
    let unbroken = slicing_with_stdin(&unbroken_args, &trace);
    assert!(unbroken.status.success());

    // First incarnation: 4 events, rotated checkpoints every 2 events.
    let ckpt_s = ckpt.to_str().unwrap();
    let mut args = vec!["serve"];
    args.extend_from_slice(&tenants);
    args.extend_from_slice(&[
        "--checkpoint",
        ckpt_s,
        "--checkpoint-every",
        "2",
        "--checkpoint-keep",
        "2",
    ]);
    let out = slicing_with_stdin(&args, &prefix);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // keep=2: the newest generation plus one older one, nothing else.
    let gen1 = std::path::PathBuf::from(format!("{ckpt_s}.1"));
    let gen2 = std::path::PathBuf::from(format!("{ckpt_s}.2"));
    assert!(ckpt.exists(), "newest checkpoint generation missing");
    assert!(gen1.exists(), "previous checkpoint generation missing");
    assert!(!gen2.exists(), "retention kept more than --checkpoint-keep");
    let doc = slicing_observe::json::parse(std::fs::read_to_string(&ckpt).unwrap().trim()).unwrap();
    assert_eq!(
        slicing_observe::schema::validate(&doc).unwrap(),
        slicing_observe::schema::SERVE_CHECKPOINT
    );

    // Second incarnation: resume from the checkpoint over the full
    // stream; the tail (alarms and summary) matches the unbroken run.
    let mut resume_args = vec!["serve"];
    resume_args.extend_from_slice(&tenants);
    resume_args.extend_from_slice(&["--resume", ckpt_s]);
    let resumed = slicing_with_stdin(&resume_args, &trace);
    assert!(
        resumed.status.success(),
        "{}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let text = stdout(&resumed);
    assert!(text.contains("resumed from"), "{text}");
    let tail = |s: &str| {
        s.lines()
            .skip_while(|l| !l.starts_with("alarm tenant=a"))
            .map(str::to_owned)
            .collect::<Vec<_>>()
    };
    assert_eq!(tail(&stdout(&unbroken)), tail(&text));

    std::fs::remove_file(&ckpt).ok();
    std::fs::remove_file(&gen1).ok();
}

/// A serve checkpoint carries no online-slice state, and one in the
/// older layout (a `holds` flag on every event, an empty `settled_edges`
/// list) still validates and resumes to the unbroken run's alarms.
#[test]
fn serve_resumes_from_a_checkpoint_with_the_older_slice_fields() {
    let trace = figure1_trace();
    let prefix: String = trace.lines().take(9).map(|l| format!("{l}\n")).collect();
    let ckpt = tmp_path("current.ckpt");
    let older = tmp_path("older.ckpt");
    let (ckpt_s, older_s) = (ckpt.to_str().unwrap(), older.to_str().unwrap());
    let tenants = [
        "--tenant",
        "a=x1@0 > 1 && x3@2 <= 3",
        "--tenant",
        "c=x1@0 > 1",
    ];
    let run = |extra: &[&str], stdin: &str| {
        let mut args = vec!["serve"];
        args.extend_from_slice(&tenants);
        args.extend_from_slice(extra);
        let out = slicing_with_stdin(&args, stdin);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        stdout(&out)
    };
    let unbroken = run(&[], &trace);
    run(&["--checkpoint", ckpt_s], &prefix);

    let text = std::fs::read_to_string(&ckpt).unwrap();
    assert!(!text.contains("\"holds\""), "{text}");
    assert!(!text.contains("\"settled_edges\""), "{text}");
    let older_text = text
        .replace(",\"clock\":", ",\"holds\":true,\"clock\":")
        .replace(
            ",\"clock_revision\":",
            ",\"settled_edges\":[],\"clock_revision\":",
        );
    assert!(older_text.contains("\"holds\":true") && older_text.contains("\"settled_edges\":[]"));
    std::fs::write(&older, older_text).unwrap();
    let out = slicing(&["validate", older_s]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let resumed = run(&["--resume", older_s], &trace);
    assert!(resumed.contains("resumed from"), "{resumed}");
    let tail = |s: &str| {
        s.lines()
            .skip_while(|l| !l.starts_with("alarm tenant=a"))
            .map(str::to_owned)
            .collect::<Vec<_>>()
    };
    assert!(!tail(&unbroken).is_empty(), "{unbroken}");
    assert_eq!(tail(&unbroken), tail(&resumed));

    std::fs::remove_file(&ckpt).ok();
    std::fs::remove_file(&older).ok();
}

#[test]
fn monitor_checkpoint_keep_rotates_generations() {
    let trace = figure1_trace();
    let ckpt = tmp_path("monitor-rotate.ckpt");
    let ckpt_s = ckpt.to_str().unwrap();
    let out = slicing_with_stdin(
        &[
            "monitor",
            "-",
            "x1@0 > 1 && x3@2 <= 3",
            "--checkpoint",
            ckpt_s,
            "--checkpoint-every",
            "3",
            "--checkpoint-keep",
            "3",
        ],
        &trace,
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // 9 events at cadence 3 → generations for events 9, 6, 3.
    for suffix in ["", ".1", ".2"] {
        let path = std::path::PathBuf::from(format!("{ckpt_s}{suffix}"));
        assert!(path.exists(), "missing generation {ckpt_s}{suffix}");
        let doc =
            slicing_observe::json::parse(std::fs::read_to_string(&path).unwrap().trim()).unwrap();
        assert_eq!(
            slicing_observe::schema::validate(&doc).unwrap(),
            slicing_observe::schema::SERVE_CHECKPOINT
        );
        std::fs::remove_file(&path).ok();
    }
    assert!(!std::path::PathBuf::from(format!("{ckpt_s}.3")).exists());
}

/// A checkpoint in the retired single-monitor format fails both resuming
/// subcommands with an error naming the format and the way out, not a
/// panic or a bare "unknown schema".
#[test]
fn retired_checkpoint_format_fails_resume_with_a_restart_hint() {
    let trace = figure1_trace();
    let ckpt = tmp_path("retired.ckpt");
    std::fs::write(
        &ckpt,
        "{\"schema\":\"slicing.checkpoint/v1\",\"processes\":3,\"metrics_seq\":0,\
         \"queues\":[[0],[],[]],\"dirty_any\":false}\n",
    )
    .unwrap();
    let ckpt_s = ckpt.to_str().unwrap();
    for args in [
        &["monitor", "-", "x1@0 > 1", "--resume", ckpt_s][..],
        &["serve", "--tenant", "c=x1@0 > 1", "--resume", ckpt_s][..],
    ] {
        let out = slicing_with_stdin(args, &trace);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        assert!(
            err.contains("slicing.checkpoint/v1") && err.contains("restart without --resume"),
            "{args:?}: {err}"
        );
    }
    std::fs::remove_file(&ckpt).ok();
}

/// Options of the engines folded into level-order BFS fail `detect` and
/// `profile` with one message naming the option and the way out, not a
/// panic or a bare "unknown engine".
#[test]
fn retired_engine_options_fail_with_one_typed_message() {
    let trace = figure1_trace();
    for sub in ["detect", "profile"] {
        for (option, flag) in [
            (&["--engine", "lean"][..], "--engine lean"),
            (&["--engine", "parallel"][..], "--engine parallel"),
            (&["--engine", "lean-parallel"][..], "--engine lean-parallel"),
            (&["--engine", "dfs"][..], "--engine dfs"),
            (&["--threads", "2"][..], "--threads"),
        ] {
            let mut args = vec![sub, "-", "x1@0 > 1"];
            args.extend_from_slice(option);
            let out = slicing_with_stdin(&args, &trace);
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
            assert!(!err.contains("panicked"), "{args:?}: {err}");
            assert!(
                err.contains(&format!("{flag} is no longer supported"))
                    && err.contains("--engine bfs now has lean's memory bound"),
                "{args:?}: {err}"
            );
        }
    }
}

/// Runs `detect`, `monitor` and `serve` on one trace from stdin, each
/// with the predicate `x@0 > 1`.
fn every_reader(trace: &str) -> [(&'static str, Output); 3] {
    [
        (
            "detect",
            slicing_with_stdin(&["detect", "-", "x@0 > 1"], trace),
        ),
        (
            "monitor",
            slicing_with_stdin(&["monitor", "-", "x@0 > 1"], trace),
        ),
        (
            "serve",
            slicing_with_stdin(&["serve", "--tenant", "t=x@0 > 1"], trace),
        ),
    ]
}

/// A malformed trace gets one verdict from every command that reads one:
/// `detect`, `monitor` and `serve` exit 1 with the same error line, and
/// none panics. Messages given twice or forming a cycle are the one
/// exception, because only the causal store sees them: `detect` rejects
/// the trace, and the streams print one warning, skip the message and
/// exit 0. Malformed predicates come back as errors too.
#[test]
fn malformed_input_never_panics_the_cli() {
    let header = "procs 2\nvar 0 x 0\nvar 1 y 0\n";
    let two_events = "event 0 x=2\nevent 1 y=1\n";
    let rejected = [
        (
            format!("{header}event 0 x=1\nvar 0 z 0\n"),
            "line 5: variable \"z\" declared after process 0's first event",
        ),
        (
            format!("{header}event 0 x=true\n"),
            "line 4: variable \"x\" on process 0 is declared int but written bool",
        ),
        (
            format!("{header}{two_events}msg 0 1 1 5\n"),
            "line 6: bad recv endpoint",
        ),
        (
            format!("{header}{two_events}msg 0 1 1 4294967295\n"),
            "line 6: bad recv endpoint",
        ),
        (
            format!("{header}{two_events}msg 0 1 7 1\n"),
            "line 6: bad recv endpoint",
        ),
        (
            format!("{header}{two_events}msg 0 0 1 1\n"),
            "line 6: bad send endpoint",
        ),
        (
            format!("{header}{two_events}msg 0 1 1 0\n"),
            "line 6: bad recv endpoint",
        ),
        (
            format!("{header}event 0 x=2\nevent 0 x=3\nmsg 0 1 0 2\n"),
            "line 6: msg joins process 0 to itself",
        ),
        (
            format!("{header}event 0 q=2\n"),
            "line 4: unknown variable \"q\" on process 0",
        ),
        (
            format!("{header}event 7 x=2\n"),
            "line 4: process index out of range",
        ),
        (
            "var 0 x 0\nprocs 2\n".to_owned(),
            "line 1: var before procs",
        ),
        (format!("{header}procs 2\n"), "line 4: duplicate procs line"),
        (
            format!("{header}var 0 x 1\n"),
            "line 4: variable \"x\" declared twice on process 0",
        ),
        (
            "# no header\n".to_owned(),
            "line 0: trace has no procs line",
        ),
    ];
    for (trace, line) in &rejected {
        let want = format!("trace syntax error on {line}");
        for (command, out) in every_reader(trace) {
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{command} on {trace:?}: {err}");
            assert_eq!(
                err.lines().last(),
                Some(want.as_str()),
                "{command} on {trace:?}"
            );
        }
    }

    for (trace, build_error) in [
        (
            format!("{header}{two_events}msg 0 1 1 1\nmsg 0 1 1 1\n"),
            "trace build error: duplicate message from e2 to e3",
        ),
        (
            format!("{header}{two_events}event 0 x=3\nevent 1 y=2\nmsg 0 2 1 1\nmsg 1 2 0 1\n"),
            "trace build error: happened-before relation contains a cycle",
        ),
    ] {
        let [(_, detect), streams @ ..] = every_reader(&trace);
        let err = String::from_utf8_lossy(&detect.stderr);
        assert_eq!(detect.status.code(), Some(1), "detect on {trace:?}: {err}");
        assert_eq!(err.trim_end(), build_error, "detect on {trace:?}");
        for (command, out) in streams {
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "{command} on {trace:?}: {err}");
            assert_eq!(err.lines().count(), 1, "{command} on {trace:?}: {err}");
            assert!(
                err.starts_with("warning: skipped message"),
                "{command} on {trace:?}: {err}"
            );
        }
    }

    let cases: &[(&[&str], &str, &str)] = &[
        (
            &["monitor", "-", "nope@0 > 1"],
            "procs 1\nvar 0 x 0\nevent 0 x=1\n",
            "no variable named",
        ),
        (
            &["serve", "--tenant", "t=x@0 > 1 || y@1 > 1"],
            "procs 2\nvar 0 x 0\nvar 1 y 0\n",
            "conjunctive",
        ),
        (
            &["detect", "-", "x@0 > 1"],
            "procs 1\nvar 0 x zebra\n",
            "trace syntax error",
        ),
    ];
    for (args, stdin, needle) in cases {
        let out = slicing_with_stdin(args, stdin);
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} should fail: {err}");
        assert!(
            !err.contains("panicked"),
            "{args:?} panicked on malformed input:\n{err}"
        );
        assert!(err.contains(needle), "{args:?}: wanted {needle:?} in {err}");
    }
}

/// An undecided `detect` names why its search stopped.
#[test]
fn undecided_detect_names_the_abort() {
    let trace = figure1_trace();
    for (flags, reason) in [
        // x2 reaches 0 at event h, so the division fails there.
        (
            &["x1@0 / x2@1 > 5", "--engine", "bfs"][..],
            "predicate evaluation error",
        ),
        (
            &["x1@0 > 5", "--engine", "bfs", "--max-cuts", "1"][..],
            "explored-cut limit exceeded",
        ),
    ] {
        let mut args = vec!["detect", "-"];
        args.extend_from_slice(flags);
        let out = slicing_with_stdin(&args, &trace);
        assert!(out.status.success());
        assert_eq!(
            stdout(&out).lines().last(),
            Some(format!("undecided: {reason}").as_str())
        );
    }
}

/// A resumed stream delivers every message the checkpoint does not hold:
/// one whose line follows the checkpointed event, and one whose send
/// comes after the consumed prefix while its receive lies inside it.
#[test]
fn resume_delivers_messages_the_checkpoint_missed() {
    let ckpt = tmp_path("missed.ckpt");
    let ckpt_s = ckpt.to_str().unwrap();
    let pred = "x@0 > 2 && y@1 > 1";
    let late = "procs 2\nvar 0 x 0\nvar 1 y 0\nevent 0 x=1\nevent 1 y=1\nevent 0 x=2\n\
                msg 0 1 1 1\nevent 1 y=2\nevent 0 x=3\n";
    let backward = "procs 2\nvar 0 x 0\nvar 1 y 0\nevent 1 y=1\nevent 0 x=1\nevent 0 x=3\n\
                    msg 0 2 1 1\nevent 1 y=2\n";
    let tenant = format!("t={pred}");
    let serve = ["serve", "--tenant", tenant.as_str()];
    let monitor = ["monitor", "-", pred];
    for (command, trace, checkpointed) in [
        (&serve[..], late, late),
        (&monitor[..], late, late),
        (
            &serve[..],
            backward,
            &backward[..backward.find("event 0 x=3").unwrap()],
        ),
        (
            &monitor[..],
            backward,
            &backward[..backward.find("event 0 x=3").unwrap()],
        ),
    ] {
        // The first incarnation checkpoints after three events and reads
        // on (a cadence checkpoint) or stops there (the final one).
        let mut args = command.to_vec();
        args.extend_from_slice(&["--checkpoint", ckpt_s, "--checkpoint-every", "3"]);
        args.extend_from_slice(&["--checkpoint-keep", "2"]);
        assert!(slicing_with_stdin(&args, checkpointed).status.success());
        let third = if checkpointed == trace {
            format!("{ckpt_s}.1") // the generation written at event 3
        } else {
            ckpt_s.to_owned()
        };
        let mut args = command.to_vec();
        args.extend_from_slice(&["--resume", &third]);
        let resumed = slicing_with_stdin(&args, trace);
        let err = String::from_utf8_lossy(&resumed.stderr);
        assert!(
            resumed.status.success() && err.is_empty(),
            "{command:?}: {err}"
        );
        let summary = stdout(&resumed);
        assert!(
            summary.contains("1 messages"),
            "{command:?} on {trace:?}: {summary}"
        );
        std::fs::remove_file(&ckpt).ok();
        std::fs::remove_file(format!("{ckpt_s}.1")).ok();
    }
}

/// A message into history GC compacted is warned about on resume as in
/// the unbroken run, also when it becomes ready right after the
/// checkpointed event.
#[test]
fn resume_warns_about_a_compacted_endpoint() {
    let ckpt = tmp_path("compacted.ckpt");
    let ckpt_s = ckpt.to_str().unwrap();
    // Ping-pong messages make every event stable, so GC at lag 1 drops
    // (0, 1) long before the late message from it is read.
    let mut prefix = "procs 2\nvar 0 x 0\nvar 1 y 0\n".to_owned();
    for i in 1..=8 {
        prefix.push_str(&format!("event 0 x={i}\n"));
        if i > 1 {
            prefix.push_str(&format!("msg 1 {} 0 {i}\n", i - 1));
        }
        prefix.push_str(&format!("event 1 y={i}\nmsg 0 {i} 1 {i}\n"));
    }
    let trace = format!("{prefix}msg 0 1 1 8\nevent 0 x=99\n");
    let pred = "x@0 > 1000 && y@1 > 1000";
    let tenant = format!("t={pred}");
    let gc = ["--gc-lag", "1", "--gc-every", "1"];
    for command in [&["serve", "--tenant", &tenant][..], &["monitor", "-", pred]] {
        let warned = |out: &Output| {
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "{command:?}: {err}");
            assert_eq!(
                err.trim_end(),
                "warning: skipped message into history compacted by GC",
                "{command:?}"
            );
        };
        warned(&slicing_with_stdin(&[command, &gc].concat(), &trace));
        let first = [command, &gc, &["--checkpoint", ckpt_s]].concat();
        assert!(slicing_with_stdin(&first, &prefix).status.success());
        warned(&slicing_with_stdin(
            &[command, &["--resume", ckpt_s]].concat(),
            &trace,
        ));
        std::fs::remove_file(&ckpt).ok();
    }
}
