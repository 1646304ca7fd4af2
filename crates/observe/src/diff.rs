//! Mechanical drift gating between two bench documents.
//!
//! [`diff`] loads a committed baseline and a fresh run of the same bench
//! schema and checks the *deterministic* columns against each other —
//! exact-match fields (detection verdicts, witness sizes) must be equal,
//! drift-gated counters may move at most `threshold` (relative), and
//! wall-clock columns are never compared. The per-schema column rules
//! live in [`rules_for`], one audited code path replacing the ad-hoc
//! Python previously duplicated across the CI bench jobs.
//!
//! The drift metric matches those scripts exactly: `|new - old| / old`,
//! and when the baseline is zero the drift is zero iff the fresh value
//! is also zero and infinite otherwise. Baselines that pin a counter at
//! zero (`heap_allocs`) therefore require the fresh run to stay at zero
//! — no separate rule needed.

use crate::json::{JsonObject, JsonValue};

/// Default relative drift allowed on gated counters (25%, matching the
/// historical CI gates).
pub const DEFAULT_THRESHOLD: f64 = 0.25;

/// Which columns of a bench table are compared, and how.
#[derive(Debug, Clone, Copy)]
pub struct DiffRules {
    /// Entry fields that must match the baseline exactly.
    pub exact: &'static [&'static str],
    /// Numeric entry fields gated by the relative-drift threshold.
    pub gated: &'static [&'static str],
}

/// The comparison rules for a bench schema, or `None` if the schema has
/// no drift gate defined.
pub fn rules_for(schema: &str) -> Option<DiffRules> {
    match schema {
        s if s == crate::schema::BENCH_DETECT => Some(DiffRules {
            // row_joins (slicer J-table work) is an exact function of the
            // workload, like the visited-set counters — deterministic
            // columns gate, wall-clock never does.
            exact: &["detected"],
            gated: &[
                "cuts_explored",
                "probes",
                "hits",
                "inserts",
                "heap_allocs",
                "row_joins",
            ],
        }),
        s if s == crate::schema::BENCH_MEMORY => Some(DiffRules {
            exact: &["detected", "witness_size"],
            gated: &[
                "cuts_explored",
                "peak_live_cuts",
                "visited_inserts",
                "layers",
                "heap_allocs",
            ],
        }),
        s if s == crate::schema::BENCH_ONLINE => Some(DiffRules {
            exact: &[],
            gated: &["cost_per_event_milli", "heap_allocs"],
        }),
        s if s == crate::schema::BENCH_SOAK => Some(DiffRules {
            // The soak workload is seeded, so verdict-like columns must
            // reproduce exactly; bounded-resource counters are gated so a
            // deliberate GC retune doesn't need a synchronized baseline.
            exact: &["events", "messages", "alarms"],
            gated: &[
                "checks",
                "check_cost",
                "delta_cuts",
                "compactions",
                "dropped_events",
                "retained_peak",
                "heap_allocs",
            ],
        }),
        s if s == crate::schema::BENCH_SERVE => Some(DiffRules {
            // The tenant sweep is seeded, so the stream shape and alarm
            // verdicts must reproduce exactly; the sharing-dependent work
            // counters are gated so a deliberate hub retune doesn't need a
            // synchronized baseline. `--quick` shrinks the stream, so the
            // gate compares like against like via the scale-invariant
            // per-event cost, exactly as BENCH_ONLINE does.
            exact: &["tenants", "events", "messages", "alarms"],
            gated: &[
                "groups",
                "slots",
                "check_cost",
                "clause_evals",
                "delta_cuts",
                "cost_per_event_milli",
                "heap_allocs",
            ],
        }),
        s if s == crate::schema::BENCH_PROTOCOLS => Some(DiffRules {
            // Every column is an exact function of the seeded protocol
            // runs; witness sizes are part of the detection semantics and
            // must reproduce bit-for-bit, while the search-effort counters
            // get the usual drift allowance so deliberate engine retunes
            // don't need a synchronized baseline.
            exact: &["detected", "witness_size"],
            gated: &[
                "cuts_explored",
                "probes",
                "hits",
                "inserts",
                "heap_allocs",
                "row_joins",
            ],
        }),
        _ => None,
    }
}

/// How one column was compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckKind {
    /// The field must equal the baseline.
    Exact,
    /// The field may drift at most the threshold.
    Drift,
}

/// One compared column of one entry.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffCheck {
    /// Entry name (the table row key).
    pub entry: String,
    /// Field name within the entry.
    pub field: String,
    /// Comparison mode.
    pub kind: CheckKind,
    /// Baseline value.
    pub old: JsonValue,
    /// Fresh value.
    pub new: JsonValue,
    /// Relative drift, for [`CheckKind::Drift`] checks.
    pub drift: Option<f64>,
    /// Whether this check passed.
    pub pass: bool,
}

/// The outcome of diffing two bench documents.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// The shared bench schema of both inputs.
    pub bench_schema: String,
    /// The relative-drift threshold applied.
    pub threshold: f64,
    /// Every comparison performed, in entry order.
    pub checks: Vec<DiffCheck>,
}

impl DiffReport {
    /// True when every check passed.
    pub fn pass(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
    }

    /// The failing checks, for reporting.
    pub fn failures(&self) -> Vec<&DiffCheck> {
        self.checks.iter().filter(|c| !c.pass).collect()
    }

    /// Renders the verdict as one `slicing.bench-diff/v1` JSON document.
    pub fn to_json(&self) -> String {
        fn scalar(v: &JsonValue) -> String {
            match v {
                JsonValue::Bool(b) => b.to_string(),
                JsonValue::Number(n) => crate::json::number(*n),
                JsonValue::String(s) => crate::json::escape(s),
                JsonValue::Null => "null".to_owned(),
                _ => "null".to_owned(), // containers never reach checks
            }
        }
        let checks = self
            .checks
            .iter()
            .fold(crate::json::JsonArray::new(), |arr, c| {
                let mut obj = JsonObject::new()
                    .str("entry", &c.entry)
                    .str("field", &c.field)
                    .str(
                        "kind",
                        match c.kind {
                            CheckKind::Exact => "exact",
                            CheckKind::Drift => "drift",
                        },
                    )
                    .raw("old", &scalar(&c.old))
                    .raw("new", &scalar(&c.new));
                if let Some(drift) = c.drift {
                    obj = obj.f64("drift", if drift.is_finite() { drift } else { -1.0 });
                }
                arr.push_raw(&obj.bool("pass", c.pass).finish())
            })
            .finish();
        JsonObject::new()
            .str("schema", crate::schema::BENCH_DIFF)
            .str("bench_schema", &self.bench_schema)
            .f64("threshold", self.threshold)
            .bool("pass", self.pass())
            .raw("checks", &checks)
            .finish()
    }

    /// A human-readable multi-line summary (one line per failure, or a
    /// single OK line).
    pub fn render_text(&self) -> String {
        if self.pass() {
            let entries: std::collections::BTreeSet<&str> =
                self.checks.iter().map(|c| c.entry.as_str()).collect();
            return format!(
                "bench-diff OK: {} checks over {} entries within {:.0}% of baseline\n",
                self.checks.len(),
                entries.len(),
                self.threshold * 100.0
            );
        }
        let mut out = String::new();
        for c in self.failures() {
            let detail = match (c.kind, c.drift) {
                (CheckKind::Exact, _) => format!("{:?} -> {:?} (must match)", c.old, c.new),
                (_, Some(d)) if d.is_finite() => {
                    format!("{:?} -> {:?} (drift {:.0}%)", c.old, c.new, d * 100.0)
                }
                _ => format!("{:?} -> {:?} (baseline is zero)", c.old, c.new),
            };
            out.push_str(&format!("FAIL {}.{}: {}\n", c.entry, c.field, detail));
        }
        out
    }
}

/// The drift of `new` against `old`, per the CI gates' formula.
fn drift_of(old: f64, new: f64) -> f64 {
    if old != 0.0 {
        (new - old).abs() / old.abs()
    } else if new == old {
        0.0
    } else {
        f64::INFINITY
    }
}

fn entry_name(entry: &JsonValue) -> Result<&str, String> {
    entry
        .get("name")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| "entry without a \"name\" field".to_owned())
}

/// Compares `current` against `baseline` (both parsed bench documents of
/// the same schema) under `threshold`.
///
/// Structural problems — mismatched or unknown schemas, differing entry
/// sets, missing gated fields — are errors rather than failing checks:
/// the two documents are not comparable at all, which is a different
/// (and louder) condition than a counter drifting.
pub fn diff(
    baseline: &JsonValue,
    current: &JsonValue,
    threshold: f64,
) -> Result<DiffReport, String> {
    let base_schema = crate::schema::validate(baseline).map_err(|e| format!("baseline: {e}"))?;
    let cur_schema = crate::schema::validate(current).map_err(|e| format!("current: {e}"))?;
    if base_schema != cur_schema {
        return Err(format!(
            "schema mismatch: baseline is {base_schema}, current is {cur_schema}"
        ));
    }
    let rules = rules_for(base_schema)
        .ok_or_else(|| format!("no drift rules defined for schema {base_schema}"))?;
    let base_entries = baseline
        .get("entries")
        .and_then(JsonValue::as_array)
        .ok_or("baseline has no entries array")?;
    let cur_entries = current
        .get("entries")
        .and_then(JsonValue::as_array)
        .ok_or("current has no entries array")?;
    let mut by_name = std::collections::BTreeMap::new();
    for entry in base_entries {
        by_name.insert(entry_name(entry)?, entry);
    }
    let cur_names: std::collections::BTreeSet<&str> = cur_entries
        .iter()
        .map(entry_name)
        .collect::<Result<_, _>>()?;
    let base_names: std::collections::BTreeSet<&str> = by_name.keys().copied().collect();
    if cur_names != base_names {
        return Err(format!(
            "entry sets differ: baseline {base_names:?} vs current {cur_names:?}"
        ));
    }

    let mut checks = Vec::new();
    for entry in cur_entries {
        let name = entry_name(entry)?;
        let base = by_name[name];
        let field_of = |doc: &JsonValue, field: &str| -> Result<JsonValue, String> {
            doc.get(field)
                .cloned()
                .ok_or_else(|| format!("entry {name:?} is missing field {field:?}"))
        };
        for &field in rules.exact {
            let old = field_of(base, field)?;
            let new = field_of(entry, field)?;
            checks.push(DiffCheck {
                entry: name.to_owned(),
                field: field.to_owned(),
                kind: CheckKind::Exact,
                pass: old == new,
                old,
                new,
                drift: None,
            });
        }
        for &field in rules.gated {
            let old = field_of(base, field)?;
            let new = field_of(entry, field)?;
            let old_n = old
                .as_f64()
                .ok_or_else(|| format!("baseline {name}.{field} is not a number"))?;
            let new_n = new
                .as_f64()
                .ok_or_else(|| format!("current {name}.{field} is not a number"))?;
            let drift = drift_of(old_n, new_n);
            checks.push(DiffCheck {
                entry: name.to_owned(),
                field: field.to_owned(),
                kind: CheckKind::Drift,
                pass: drift <= threshold,
                old,
                new,
                drift: Some(drift),
            });
        }
    }
    Ok(DiffReport {
        bench_schema: base_schema.to_owned(),
        threshold,
        checks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn detect_doc(cuts: u64, detected: bool, heap: u64) -> JsonValue {
        parse(&format!(
            "{{\"schema\":\"slicing.bench-detect/v1\",\"binary\":\"table_speedup\",\
             \"entries\":[{{\"name\":\"bfs.grid40\",\"engine\":\"bfs\",\"detected\":{detected},\
             \"wall_us_per_run\":142.5,\"cuts_explored\":{cuts},\"probes\":5644,\"hits\":1600,\
             \"inserts\":1681,\"heap_allocs\":{heap},\"row_joins\":0}}]}}"
        ))
        .unwrap()
    }

    #[test]
    fn identical_documents_pass() {
        let doc = detect_doc(1681, false, 0);
        let report = diff(&doc, &doc, DEFAULT_THRESHOLD).unwrap();
        assert!(report.pass());
        assert_eq!(report.checks.len(), 7); // 1 exact + 6 gated
        let json = report.to_json();
        let parsed = parse(&json).unwrap();
        assert_eq!(
            crate::schema::validate(&parsed).unwrap(),
            crate::schema::BENCH_DIFF
        );
        assert_eq!(parsed.get("pass").unwrap().as_bool(), Some(true));
        assert!(report.render_text().starts_with("bench-diff OK"));
    }

    #[test]
    fn small_drift_passes_large_drift_fails() {
        let base = detect_doc(1000, false, 0);
        let ok = detect_doc(1200, false, 0); // 20% < 25%
        assert!(diff(&base, &ok, DEFAULT_THRESHOLD).unwrap().pass());
        let bad = detect_doc(1300, false, 0); // 30% > 25%
        let report = diff(&base, &bad, DEFAULT_THRESHOLD).unwrap();
        assert!(!report.pass());
        let failures = report.failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].field, "cuts_explored");
        assert!((failures[0].drift.unwrap() - 0.3).abs() < 1e-9);
        assert!(report
            .render_text()
            .contains("FAIL bfs.grid40.cuts_explored"));
    }

    #[test]
    fn zero_baseline_requires_exact_zero() {
        let base = detect_doc(1681, false, 0);
        let dirty = detect_doc(1681, false, 1);
        let report = diff(&base, &dirty, DEFAULT_THRESHOLD).unwrap();
        let failures = report.failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].field, "heap_allocs");
        assert_eq!(failures[0].drift, Some(f64::INFINITY));
        // And zero against zero is fine (exercised by the identity test).
    }

    #[test]
    fn verdict_flips_are_exact_failures() {
        let base = detect_doc(1681, false, 0);
        let flipped = detect_doc(1681, true, 0);
        let report = diff(&base, &flipped, DEFAULT_THRESHOLD).unwrap();
        let failures = report.failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].field, "detected");
        assert_eq!(failures[0].kind, CheckKind::Exact);
    }

    #[test]
    fn structural_mismatches_are_errors_not_verdicts() {
        let detect = detect_doc(1681, false, 0);
        let online = parse(
            "{\"schema\":\"slicing.bench-online/v1\",\"binary\":\"table_online\",\
             \"entries\":[{\"name\":\"segment1\",\"events\":10,\"checks\":10,\
             \"check_cost\":5,\"cost_per_event_milli\":500,\"heap_allocs\":0}]}",
        )
        .unwrap();
        assert!(diff(&detect, &online, DEFAULT_THRESHOLD)
            .unwrap_err()
            .contains("schema mismatch"));
        let renamed = parse(
            "{\"schema\":\"slicing.bench-detect/v1\",\"binary\":\"table_speedup\",\
             \"entries\":[{\"name\":\"other\",\"engine\":\"bfs\",\"detected\":false,\
             \"cuts_explored\":1,\"probes\":1,\"hits\":1,\"inserts\":1,\"heap_allocs\":0,\
             \"row_joins\":0}]}",
        )
        .unwrap();
        assert!(diff(&detect, &renamed, DEFAULT_THRESHOLD)
            .unwrap_err()
            .contains("entry sets differ"));
    }

    #[test]
    fn online_rules_gate_cost_not_absolute_counters() {
        // Quick mode changes absolute counters (shorter segments); only
        // the scale-invariant per-event cost and heap discipline gate.
        let base = parse(
            "{\"schema\":\"slicing.bench-online/v1\",\"binary\":\"table_online\",\
             \"entries\":[{\"name\":\"segment1\",\"events\":2000,\"checks\":2000,\
             \"check_cost\":11900,\"cost_per_event_milli\":5950,\"heap_allocs\":0}]}",
        )
        .unwrap();
        let quick = parse(
            "{\"schema\":\"slicing.bench-online/v1\",\"binary\":\"table_online\",\
             \"entries\":[{\"name\":\"segment1\",\"events\":500,\"checks\":500,\
             \"check_cost\":3000,\"cost_per_event_milli\":6000,\"heap_allocs\":0}]}",
        )
        .unwrap();
        let report = diff(&base, &quick, DEFAULT_THRESHOLD).unwrap();
        assert!(report.pass(), "{}", report.render_text());
        let fields: Vec<&str> = report.checks.iter().map(|c| c.field.as_str()).collect();
        assert_eq!(fields, ["cost_per_event_milli", "heap_allocs"]);
    }
}
