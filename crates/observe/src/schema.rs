//! The workspace's JSON report schemas, in one place.
//!
//! Every machine-readable document a binary in this workspace emits
//! carries a `"schema"` field naming its shape and version (for example
//! `"slicing.bench/v1"`). This module owns those version strings —
//! bench binaries and the CLI reference the constants here instead of
//! re-typing literals — and provides [`validate`], a structural check
//! that the CI pipeline (and `slicing validate`) runs over emitted
//! documents before gating on them.
//!
//! Validation is deliberately shallow: it checks the `schema` field, the
//! presence and JSON type of every required field, and recurses into
//! nested entries and spans. It does not constrain values — drift gating
//! is [`crate::diff`]'s job.

use crate::json::JsonValue;

/// One detection (or simulation) run: [`crate::RunReport`].
pub const RUN_REPORT: &str = "slicing.run-report/v1";

/// A bench table — every committed `BENCH_*.json` baseline
/// ([`crate::diff::BenchTable`]).
pub const BENCH: &str = "slicing.bench/v1";

/// The recovery pipeline's outcome document.
pub const RECOVERY_REPORT: &str = "slicing.recovery-report/v1";

/// A phase-attributed span profile from `slicing profile`.
pub const PROFILE: &str = "slicing.profile/v1";

/// One live-telemetry snapshot line from the metrics stream.
pub const METRICS: &str = "slicing.metrics/v1";

/// The verdict document `slicing bench-diff` emits.
pub const BENCH_DIFF: &str = "slicing.bench-diff/v1";

/// The stream summary of `slicing serve` and `slicing monitor`.
pub const SERVE_REPORT: &str = "slicing.serve-report/v1";

/// A hub checkpoint for mid-stream restart (`slicing serve` and
/// `slicing monitor`, `--checkpoint` / `--resume`).
pub const SERVE_CHECKPOINT: &str = "slicing.serve-checkpoint/v1";

/// Every schema this workspace version knows, for enumeration in docs
/// and tools.
pub const ALL: &[&str] = &[
    RUN_REPORT,
    BENCH,
    RECOVERY_REPORT,
    PROFILE,
    METRICS,
    BENCH_DIFF,
    SERVE_REPORT,
    SERVE_CHECKPOINT,
];

/// Why [`validate`] rejected a document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaError(pub String);

impl std::fmt::Display for SchemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "schema violation: {}", self.0)
    }
}

impl std::error::Error for SchemaError {}

pub(crate) fn fail(msg: impl Into<String>) -> SchemaError {
    SchemaError(msg.into())
}

pub(crate) fn require<'a>(
    doc: &'a JsonValue,
    field: &str,
    at: &str,
) -> Result<&'a JsonValue, SchemaError> {
    doc.get(field)
        .ok_or_else(|| fail(format!("{at}: missing field {field:?}")))
}

pub(crate) fn require_str<'a>(
    doc: &'a JsonValue,
    field: &str,
    at: &str,
) -> Result<&'a str, SchemaError> {
    require(doc, field, at)?
        .as_str()
        .ok_or_else(|| fail(format!("{at}: field {field:?} must be a string")))
}

fn require_u64(doc: &JsonValue, field: &str, at: &str) -> Result<u64, SchemaError> {
    require(doc, field, at)?.as_u64().ok_or_else(|| {
        fail(format!(
            "{at}: field {field:?} must be a non-negative integer"
        ))
    })
}

fn require_bool(doc: &JsonValue, field: &str, at: &str) -> Result<bool, SchemaError> {
    require(doc, field, at)?
        .as_bool()
        .ok_or_else(|| fail(format!("{at}: field {field:?} must be a boolean")))
}

pub(crate) fn require_array<'a>(
    doc: &'a JsonValue,
    field: &str,
    at: &str,
) -> Result<&'a [JsonValue], SchemaError> {
    require(doc, field, at)?
        .as_array()
        .ok_or_else(|| fail(format!("{at}: field {field:?} must be an array")))
}

/// Validates `doc` against whichever schema its `schema` field names.
///
/// Returns the canonical schema constant on success; unknown schema
/// names are an error.
pub fn validate(doc: &JsonValue) -> Result<&'static str, SchemaError> {
    let name = require_str(doc, "schema", "document")?;
    let known = ALL
        .iter()
        .find(|s| **s == name)
        .ok_or_else(|| fail(format!("unknown schema {name:?}")))?;
    match *known {
        RUN_REPORT => validate_run_report(doc)?,
        BENCH => crate::diff::validate_table(doc)?,
        RECOVERY_REPORT => validate_recovery_report(doc)?,
        PROFILE => validate_profile(doc)?,
        METRICS => validate_metrics(doc)?,
        BENCH_DIFF => validate_bench_diff(doc)?,
        SERVE_REPORT => validate_serve_report(doc)?,
        SERVE_CHECKPOINT => validate_serve_checkpoint(doc)?,
        _ => unreachable!("ALL and the match arms list the same schemas"),
    }
    Ok(known)
}

fn validate_run_report(doc: &JsonValue) -> Result<(), SchemaError> {
    require_str(doc, "workload", "document")?;
    require_str(doc, "engine", "document")?;
    for (i, phase) in require_array(doc, "phases", "document")?.iter().enumerate() {
        let pat = format!("phases[{i}]");
        require_str(phase, "name", &pat)?;
        require(phase, "secs", &pat)?
            .as_f64()
            .ok_or_else(|| fail(format!("{pat}: field \"secs\" must be a number")))?;
    }
    Ok(())
}

/// Checks a `[{"name":..,"value":..}, ...]` counter array at `doc[field]`.
fn validate_counter_list(doc: &JsonValue, field: &str, at: &str) -> Result<(), SchemaError> {
    for (i, counter) in require_array(doc, field, at)?.iter().enumerate() {
        let cat = format!("{at}.{field}[{i}]");
        require_str(counter, "name", &cat)?;
        require_u64(counter, "value", &cat)?;
    }
    Ok(())
}

fn validate_recovery_report(doc: &JsonValue) -> Result<(), SchemaError> {
    require_str(doc, "verdict", "document")?;
    require_bool(doc, "detected", "document")?;
    require_u64(doc, "replays", "document")?;
    require_array(doc, "attempts", "document")?;
    Ok(())
}

fn validate_profile(doc: &JsonValue) -> Result<(), SchemaError> {
    require_str(doc, "workload", "document")?;
    require_str(doc, "predicate", "document")?;
    require_str(doc, "engine", "document")?;
    validate_counter_list(doc, "totals", "document")?;
    for (i, root) in require_array(doc, "roots", "document")?.iter().enumerate() {
        validate_profile_span(root, &format!("roots[{i}]"), 0)?;
    }
    Ok(())
}

fn validate_profile_span(span: &JsonValue, at: &str, depth: usize) -> Result<(), SchemaError> {
    if depth > 64 {
        return Err(fail(format!("{at}: span tree too deep")));
    }
    require_str(span, "name", at)?;
    require_u64(span, "calls", at)?;
    require_u64(span, "wall_nanos", at)?;
    validate_counter_list(span, "counters", at)?;
    for (i, child) in require_array(span, "children", at)?.iter().enumerate() {
        validate_profile_span(child, &format!("{at}.children[{i}]"), depth + 1)?;
    }
    Ok(())
}

fn validate_metrics(doc: &JsonValue) -> Result<(), SchemaError> {
    require_u64(doc, "seq", "document")?;
    validate_counter_list(doc, "counter_deltas", "document")?;
    validate_counter_list(doc, "gauges", "document")?;
    for (i, hist) in require_array(doc, "samples", "document")?
        .iter()
        .enumerate()
    {
        let hat = format!("samples[{i}]");
        require_str(hist, "name", &hat)?;
        for field in ["count", "p50", "p90", "p99", "max"] {
            require_u64(hist, field, &hat)?;
        }
    }
    Ok(())
}

fn validate_serve_report(doc: &JsonValue) -> Result<(), SchemaError> {
    for field in [
        "tenants",
        "groups",
        "slots",
        "events",
        "messages",
        "checks",
        "alarms",
        "check_cost",
        "clause_evals",
        "delta_cuts",
        "peak_candidates",
        "dropped",
    ] {
        require_u64(doc, field, "document")?;
    }
    for (i, alarm) in require_array(doc, "alarm_log", "document")?
        .iter()
        .enumerate()
    {
        let aat = format!("alarm_log[{i}]");
        require_str(alarm, "tenant", &aat)?;
        require_u64(alarm, "events", &aat)?;
        require_array(alarm, "cut", &aat)?;
    }
    Ok(())
}

fn validate_serve_checkpoint(doc: &JsonValue) -> Result<(), SchemaError> {
    let n = require_u64(doc, "processes", "document")?;
    if n == 0 {
        return Err(fail("document: \"processes\" must be positive".to_owned()));
    }
    for field in ["metrics_seq", "clock_revision", "since_gc"] {
        require_u64(doc, field, "document")?;
    }
    for field in ["base", "vars", "snapshots", "values"] {
        let arr = require_array(doc, field, "document")?;
        if arr.len() != n as usize {
            return Err(fail(format!(
                "document: field {field:?} must have one entry per process"
            )));
        }
    }
    for field in ["events", "messages", "clauses"] {
        require_array(doc, field, "document")?;
    }
    for (i, slot) in require_array(doc, "slots", "document")?.iter().enumerate() {
        let sat = format!("slots[{i}]");
        require_u64(slot, "p", &sat)?;
        require_u64(slot, "start", &sat)?;
        require_array(slot, "clauses", &sat)?;
        require_array(slot, "candidates", &sat)?;
    }
    for (i, group) in require_array(doc, "groups", "document")?.iter().enumerate() {
        let gat = format!("groups[{i}]");
        require_str(group, "source", &gat)?;
        require_bool(group, "dirty_any", &gat)?;
        require_u64(group, "check_cost", &gat)?;
        require_u64(group, "alarms", &gat)?;
        for field in ["slots", "fronts", "dirty"] {
            require_array(group, field, &gat)?;
        }
        for field in ["current_alarm", "last_alarm"] {
            require(group, field, &gat)?; // may be null
        }
    }
    for (i, tenant) in require_array(doc, "tenants", "document")?
        .iter()
        .enumerate()
    {
        let tat = format!("tenants[{i}]");
        require_str(tenant, "id", &tat)?;
        require_u64(tenant, "group", &tat)?;
        require_str(tenant, "source", &tat)?;
    }
    require(doc, "gc", "document")?; // may be null
    let stats = require(doc, "stats", "document")?;
    for field in [
        "events",
        "messages",
        "checks",
        "alarms",
        "check_cost",
        "clause_evals",
        "delta_cuts",
        "peak_candidates",
        "compactions",
        "dropped_events",
        "retained_peak",
        "fanout_sent",
        "fanout_dropped",
    ] {
        require_u64(stats, field, "document.stats")?;
    }
    Ok(())
}

fn validate_bench_diff(doc: &JsonValue) -> Result<(), SchemaError> {
    require_str(doc, "binary", "document")?;
    require_bool(doc, "pass", "document")?;
    require(doc, "threshold", "document")?
        .as_f64()
        .ok_or_else(|| fail("document: field \"threshold\" must be a number".to_owned()))?;
    for (i, row) in require_array(doc, "checks", "document")?.iter().enumerate() {
        let rat = format!("checks[{i}]");
        require_str(row, "entry", &rat)?;
        require_str(row, "field", &rat)?;
        require_bool(row, "pass", &rat)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn all_schemas_are_versioned_and_distinct() {
        let mut seen = std::collections::HashSet::new();
        for s in ALL {
            assert!(s.starts_with("slicing.") && s.ends_with("/v1"), "{s}");
            assert!(seen.insert(s), "duplicate schema {s}");
        }
    }

    #[test]
    fn run_report_round_trips_through_validate() {
        let run = crate::RunReport::new("figure1", "bfs").phase("search", 0.25);
        let doc = parse(&run.to_json()).unwrap();
        assert_eq!(validate(&doc).unwrap(), RUN_REPORT);
    }

    #[test]
    fn missing_fields_are_named_in_the_error() {
        let doc = parse("{\"schema\":\"slicing.run-report/v1\",\"workload\":\"w\"}").unwrap();
        let err = validate(&doc).unwrap_err();
        assert!(err.to_string().contains("\"engine\""), "{err}");
    }

    #[test]
    fn wrong_types_are_rejected() {
        let doc = parse(
            "{\"schema\":\"slicing.run-report/v1\",\"workload\":\"w\",\
             \"engine\":\"e\",\"phases\":[{\"name\":\"slice\",\"secs\":\"fast\"}]}",
        )
        .unwrap();
        assert!(validate(&doc).is_err());
    }

    #[test]
    fn unknown_schema_is_rejected() {
        let doc = parse("{\"schema\":\"slicing.bogus/v9\"}").unwrap();
        let err = validate(&doc).unwrap_err();
        assert!(err.to_string().contains("unknown schema"), "{err}");
    }

    #[test]
    fn committed_bench_shapes_validate() {
        let detect = "{\"schema\":\"slicing.bench/v1\",\"binary\":\"table_speedup\",\
                      \"params\":{\"quick\":false,\"grid\":40},\
                      \"columns\":{\"engine\":\"exact\",\"wall_us_per_run\":\"info\",\
                      \"detected\":\"exact\",\"cuts_explored\":\"gated\"},\
                      \"entries\":[{\"name\":\"bfs.grid40\",\"engine\":\"bfs\",\
                      \"wall_us_per_run\":110.2,\"detected\":false,\"cuts_explored\":1681}]}";
        assert_eq!(validate(&parse(detect).unwrap()).unwrap(), BENCH);
        // A table with no rows still declares its (empty) shape.
        let empty = "{\"schema\":\"slicing.bench/v1\",\"binary\":\"table_serve\",\
                     \"params\":{},\"columns\":{},\"entries\":[]}";
        assert_eq!(validate(&parse(empty).unwrap()).unwrap(), BENCH);
        let undeclared = detect.replace("\"columns\"", "\"cols\"");
        assert!(validate(&parse(&undeclared).unwrap()).is_err());
    }

    #[test]
    fn profile_documents_validate_recursively() {
        let good = "{\"schema\":\"slicing.profile/v1\",\"workload\":\"grid40\",\
                    \"predicate\":\"x@0 > 999\",\"engine\":\"bfs\",\
                    \"totals\":[{\"name\":\"detect.cuts_explored\",\"value\":1681}],\
                    \"roots\":[{\"name\":\"detect.bfs\",\"calls\":1,\"wall_nanos\":5,\
                    \"counters\":[{\"name\":\"detect.cuts_explored\",\"value\":1681}],\
                    \"children\":[{\"name\":\"inner\",\"calls\":2,\"wall_nanos\":1,\
                    \"counters\":[],\"children\":[]}]}]}";
        assert_eq!(validate(&parse(good).unwrap()).unwrap(), PROFILE);
        let bad = good.replace("\"calls\":2,", "");
        assert!(validate(&parse(&bad).unwrap()).is_err());
    }
}
