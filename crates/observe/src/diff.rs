//! The one bench-table format, `slicing.bench/v1`: its builder
//! ([`BenchTable`]), its validator ([`validate_table`]) and `bench-diff`
//! ([`diff`]).
//!
//! Every `table_*` binary writes one table:
//!
//! ```text
//! {"schema":"slicing.bench/v1","binary":"table_speedup",
//!  "params":{"quick":true,"grid":40},
//!  "columns":{"detected":"exact","cuts_explored":"gated","wall_us_per_run":"info"},
//!  "entries":[{"name":"bfs.grid40","detected":false,"cuts_explored":1681,
//!              "wall_us_per_run":110.2}]}
//! ```
//!
//! Each column is declared once with its [`Kind`]: `exact` columns
//! (verdicts, witness sizes, stream shape) must reproduce bit for bit,
//! `gated` counters may drift at most a relative threshold, and `info`
//! columns (wall-clock, repetition counts) are recorded but never
//! compared. Rows are flat objects under `entries`, keyed by a unique
//! `name`. Table-level `params` are recorded but never compared.
//!
//! [`diff`] takes its rules from the baseline. The fresh document must
//! name the same `binary`, declare the same columns with the same kinds
//! and carry the same row names; anything else is a structural error, so
//! a fresh run cannot relax its own gate.
//!
//! The drift metric is `|new - old| / old`. When the baseline is zero the
//! drift is zero iff the fresh value is also zero and infinite otherwise,
//! so a counter pinned at zero (`heap_allocs`) must stay at zero.

use std::collections::{BTreeMap, BTreeSet};

use crate::json::{JsonArray, JsonObject, JsonValue};
use crate::schema::{fail, require, require_array, require_str, SchemaError};

/// Default relative drift allowed on gated counters (25%).
pub const DEFAULT_THRESHOLD: f64 = 0.25;

/// How [`diff`] compares a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Must equal the baseline.
    Exact,
    /// A number that may drift at most the threshold.
    Gated,
    /// Recorded, never compared.
    Info,
}

impl Kind {
    /// The name a table declares the column with.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Exact => "exact",
            Kind::Gated => "gated",
            Kind::Info => "info",
        }
    }

    /// Parses a declared kind name.
    pub fn parse(name: &str) -> Option<Kind> {
        [Kind::Exact, Kind::Gated, Kind::Info]
            .into_iter()
            .find(|k| k.name() == name)
    }
}

/// One cell of a row: its column's name and kind, and the value.
#[derive(Debug, Clone)]
pub struct Field {
    name: &'static str,
    kind: Kind,
    value: JsonValue,
}

/// A cell of a [`Kind::Exact`] column.
pub fn exact(name: &'static str, value: impl Into<JsonValue>) -> Field {
    Field {
        name,
        kind: Kind::Exact,
        value: value.into(),
    }
}

/// A cell of a [`Kind::Gated`] column.
pub fn gated(name: &'static str, value: impl Into<JsonValue>) -> Field {
    Field {
        name,
        kind: Kind::Gated,
        value: value.into(),
    }
}

/// A cell of a [`Kind::Info`] column.
pub fn info(name: &'static str, value: impl Into<JsonValue>) -> Field {
    Field {
        name,
        kind: Kind::Info,
        value: value.into(),
    }
}

/// A `slicing.bench/v1` table under construction.
///
/// The first [`row`](Self::row) declares the columns; every later row
/// must list the same columns, with the same kinds, in the same order.
#[derive(Debug, Clone)]
pub struct BenchTable {
    binary: &'static str,
    params: Vec<(&'static str, JsonValue)>,
    columns: Vec<(&'static str, Kind)>,
    rows: Vec<(String, Vec<JsonValue>)>,
}

impl BenchTable {
    /// An empty table written by `binary`.
    pub fn new(binary: &'static str) -> Self {
        BenchTable {
            binary,
            params: Vec::new(),
            columns: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Records a table-level parameter (never compared).
    pub fn param(mut self, name: &'static str, value: impl Into<JsonValue>) -> Self {
        self.params.push((name, value.into()));
        self
    }

    /// Appends the row `name`.
    ///
    /// # Panics
    ///
    /// On a repeated row name, or a row whose columns differ from the
    /// first row's: either is a bug in the binary building the table.
    pub fn row(&mut self, name: impl Into<String>, fields: impl IntoIterator<Item = Field>) {
        let name = name.into();
        assert!(
            self.rows.iter().all(|(n, _)| *n != name),
            "repeated row name {name:?}"
        );
        let (columns, values): (Vec<_>, Vec<_>) = fields
            .into_iter()
            .map(|f| ((f.name, f.kind), f.value))
            .unzip();
        if self.rows.is_empty() {
            self.columns = columns;
        } else {
            assert_eq!(columns, self.columns, "row {name:?} declares other columns");
        }
        self.rows.push((name, values));
    }

    /// The value of `column` in row `row`.
    ///
    /// # Panics
    ///
    /// When the table has no such row or column.
    pub fn value(&self, row: &str, column: &str) -> &JsonValue {
        let (_, values) = self
            .rows
            .iter()
            .find(|(n, _)| n == row)
            .unwrap_or_else(|| panic!("no row {row:?}"));
        let i = self
            .columns
            .iter()
            .position(|(c, _)| *c == column)
            .unwrap_or_else(|| panic!("no column {column:?}"));
        &values[i]
    }

    /// [`value`](Self::value) as an unsigned integer.
    ///
    /// # Panics
    ///
    /// When the cell is absent or not an unsigned integer.
    pub fn u64(&self, row: &str, column: &str) -> u64 {
        self.value(row, column)
            .as_u64()
            .unwrap_or_else(|| panic!("{row}.{column} is not an unsigned integer"))
    }

    /// The row names, in order.
    pub fn row_names(&self) -> impl Iterator<Item = &str> {
        self.rows.iter().map(|(n, _)| n.as_str())
    }

    /// The table as one `slicing.bench/v1` JSON document.
    pub fn to_json(&self) -> String {
        let params = self
            .params
            .iter()
            .fold(JsonObject::new(), |obj, (k, v)| obj.raw(k, &v.to_json()))
            .finish();
        let columns = self
            .columns
            .iter()
            .fold(JsonObject::new(), |obj, (c, kind)| obj.str(c, kind.name()))
            .finish();
        let entries = self
            .rows
            .iter()
            .fold(JsonArray::new(), |arr, (name, values)| {
                let row = self
                    .columns
                    .iter()
                    .zip(values)
                    .fold(JsonObject::new().str("name", name), |obj, ((c, _), v)| {
                        obj.raw(c, &v.to_json())
                    });
                arr.push_raw(&row.finish())
            })
            .finish();
        JsonObject::new()
            .str("schema", crate::schema::BENCH)
            .str("binary", self.binary)
            .raw("params", &params)
            .raw("columns", &columns)
            .raw("entries", &entries)
            .finish()
    }

    /// Writes [`to_json`](Self::to_json), newline-terminated, to `path`.
    pub fn write(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, format!("{}\n", self.to_json()))
    }

    /// The table as aligned text: a header of column names, then one line
    /// per row. Fractional numbers print to one decimal, or below 1 to as
    /// many as two significant digits need (0.033, not 0.0).
    pub fn render_text(&self) -> String {
        let cell = |v: &JsonValue| match v {
            JsonValue::Number(n) if n.fract() != 0.0 => {
                let decimals = (1 - n.abs().log10().floor() as i32).max(1) as usize;
                format!("{n:.decimals$}")
            }
            JsonValue::String(s) => s.clone(),
            other => other.to_json(),
        };
        let header = std::iter::once("name".to_owned())
            .chain(self.columns.iter().map(|(c, _)| (*c).to_owned()))
            .collect();
        let lines: Vec<Vec<String>> = std::iter::once(header)
            .chain(self.rows.iter().map(|(name, values)| {
                std::iter::once(name.clone())
                    .chain(values.iter().map(cell))
                    .collect()
            }))
            .collect();
        let widths: Vec<usize> = (0..=self.columns.len())
            .map(|i| {
                lines
                    .iter()
                    .map(|l| l[i].chars().count())
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let mut out = String::new();
        for line in &lines {
            for (i, (text, &w)) in line.iter().zip(&widths).enumerate() {
                if i == 0 {
                    out.push_str(&format!("{text:<w$}"));
                } else {
                    out.push_str(&format!("  {text:>w$}"));
                }
            }
            out.push('\n');
        }
        out
    }
}

/// The columns `doc` declares, in order.
fn declared_columns(doc: &JsonValue) -> Result<Vec<(&str, Kind)>, SchemaError> {
    let decls = require(doc, "columns", "document")?
        .as_object()
        .ok_or_else(|| fail("document: field \"columns\" must be an object"))?;
    let mut columns: Vec<(&str, Kind)> = Vec::new();
    for (name, kind) in decls {
        let kind = kind.as_str().and_then(Kind::parse).ok_or_else(|| {
            fail(format!(
                "columns.{name}: kind must be \"exact\", \"gated\" or \"info\""
            ))
        })?;
        if name == "name" || columns.iter().any(|(c, _)| c == name) {
            return Err(fail(format!("columns: {name:?} is reserved or repeated")));
        }
        columns.push((name, kind));
    }
    Ok(columns)
}

/// Checks a `slicing.bench/v1` document: a `binary`, a `params` object,
/// the column declarations, and `entries` whose rows each carry a unique
/// `name` plus exactly the declared columns, with scalar values and
/// numbers in gated columns.
pub fn validate_table(doc: &JsonValue) -> Result<(), SchemaError> {
    require_str(doc, "binary", "document")?;
    require(doc, "params", "document")?
        .as_object()
        .ok_or_else(|| fail("document: field \"params\" must be an object"))?;
    let columns = declared_columns(doc)?;
    let mut names = BTreeSet::new();
    for (i, entry) in require_array(doc, "entries", "document")?
        .iter()
        .enumerate()
    {
        let at = format!("entries[{i}]");
        let name = require_str(entry, "name", &at)?;
        if !names.insert(name) {
            return Err(fail(format!("{at}: repeated row name {name:?}")));
        }
        let fields = entry.as_object().unwrap_or_default();
        for (key, value) in fields.iter().filter(|(k, _)| k != "name") {
            let kind = columns
                .iter()
                .find(|(c, _)| c == key)
                .map(|&(_, kind)| kind)
                .ok_or_else(|| fail(format!("{at}: undeclared column {key:?}")))?;
            if matches!(value, JsonValue::Array(_) | JsonValue::Object(_)) {
                return Err(fail(format!("{at}: column {key:?} must be a scalar")));
            }
            if kind == Kind::Gated && value.as_f64().is_none() {
                return Err(fail(format!("{at}: gated column {key:?} must be a number")));
            }
        }
        for (column, _) in &columns {
            require(entry, column, &at)?;
        }
        if fields.len() != columns.len() + 1 {
            return Err(fail(format!("{at}: repeated field")));
        }
    }
    Ok(())
}

/// One compared column of one entry.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffCheck {
    /// Entry name (the table row key).
    pub entry: String,
    /// Column name.
    pub field: String,
    /// How the column is compared: [`Kind::Exact`] or [`Kind::Gated`].
    pub kind: Kind,
    /// Baseline value.
    pub old: JsonValue,
    /// Fresh value.
    pub new: JsonValue,
    /// Relative drift, for gated columns.
    pub drift: Option<f64>,
    /// Whether this check passed.
    pub pass: bool,
}

/// The outcome of diffing two bench tables.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// The binary both tables came from.
    pub binary: String,
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
        let checks = self
            .checks
            .iter()
            .fold(JsonArray::new(), |arr, c| {
                let mut obj = JsonObject::new()
                    .str("entry", &c.entry)
                    .str("field", &c.field)
                    .str("kind", c.kind.name())
                    .raw("old", &c.old.to_json())
                    .raw("new", &c.new.to_json());
                if let Some(drift) = c.drift {
                    obj = obj.f64("drift", if drift.is_finite() { drift } else { -1.0 });
                }
                arr.push_raw(&obj.bool("pass", c.pass).finish())
            })
            .finish();
        JsonObject::new()
            .str("schema", crate::schema::BENCH_DIFF)
            .str("binary", &self.binary)
            .f64("threshold", self.threshold)
            .bool("pass", self.pass())
            .raw("checks", &checks)
            .finish()
    }

    /// A human-readable multi-line summary (one line per failure, or a
    /// single OK line).
    pub fn render_text(&self) -> String {
        if self.pass() {
            let entries: BTreeSet<&str> = self.checks.iter().map(|c| c.entry.as_str()).collect();
            return format!(
                "bench-diff OK: {} checks over {} entries within {:.0}% of baseline\n",
                self.checks.len(),
                entries.len(),
                self.threshold * 100.0
            );
        }
        let mut out = String::new();
        for c in self.failures() {
            let (old, new) = (c.old.to_json(), c.new.to_json());
            let detail = match (c.kind, c.drift) {
                (Kind::Exact, _) => format!("{old} -> {new} (must match)"),
                (_, Some(d)) if d.is_finite() => {
                    format!("{old} -> {new} (drift {:.0}%)", d * 100.0)
                }
                _ => format!("{old} -> {new} (baseline is zero)"),
            };
            out.push_str(&format!("FAIL {}.{}: {}\n", c.entry, c.field, detail));
        }
        out
    }
}

/// The relative drift of `new` against `old`.
fn drift_of(old: f64, new: f64) -> f64 {
    if old != 0.0 {
        (new - old).abs() / old.abs()
    } else if new == old {
        0.0
    } else {
        f64::INFINITY
    }
}

/// The rows of a validated table, keyed by name.
fn rows_by_name(doc: &JsonValue) -> BTreeMap<&str, &JsonValue> {
    let rows = doc
        .get("entries")
        .and_then(JsonValue::as_array)
        .unwrap_or_default();
    rows.iter()
        .map(|r| (r.get("name").and_then(JsonValue::as_str).unwrap_or(""), r))
        .collect()
}

/// Compares `current` against `baseline`, two parsed `slicing.bench/v1`
/// tables, under `threshold`, with the column kinds the baseline
/// declares.
///
/// Structural problems — another schema, another `binary`, other column
/// declarations, other row names — are errors rather than failing
/// checks: the two documents are not comparable at all, which is a
/// different (and louder) condition than a counter drifting.
pub fn diff(
    baseline: &JsonValue,
    current: &JsonValue,
    threshold: f64,
) -> Result<DiffReport, String> {
    for (label, doc) in [("baseline", baseline), ("current", current)] {
        let schema = crate::schema::validate(doc).map_err(|e| format!("{label}: {e}"))?;
        if schema != crate::schema::BENCH {
            return Err(format!(
                "schema mismatch: {label} is {schema}, bench-diff compares {} tables",
                crate::schema::BENCH
            ));
        }
    }
    let binary = |doc: &JsonValue| {
        doc.get("binary")
            .and_then(JsonValue::as_str)
            .unwrap_or("")
            .to_owned()
    };
    if binary(baseline) != binary(current) {
        return Err(format!(
            "binary differs: baseline is from {:?}, current from {:?}",
            binary(baseline),
            binary(current)
        ));
    }
    // Declaration order is not structure; names are unique per table.
    let sorted_columns = |doc| {
        let mut columns = declared_columns(doc).map_err(|e| e.to_string())?;
        columns.sort_by_key(|&(name, _)| name);
        Ok::<_, String>(columns)
    };
    let columns = sorted_columns(baseline)?;
    let current_columns = sorted_columns(current)?;
    if columns != current_columns {
        return Err(format!(
            "column declarations differ: baseline {columns:?} vs current {current_columns:?}"
        ));
    }
    let base_rows = rows_by_name(baseline);
    let current_rows = rows_by_name(current);
    if !base_rows.keys().eq(current_rows.keys()) {
        return Err(format!(
            "row names differ: baseline {:?} vs current {:?}",
            base_rows.keys().collect::<Vec<_>>(),
            current_rows.keys().collect::<Vec<_>>()
        ));
    }

    let mut checks = Vec::new();
    for (name, base) in &base_rows {
        let row = current_rows[name];
        for &(field, kind) in &columns {
            let old = base.get(field).cloned().unwrap_or(JsonValue::Null);
            let new = row.get(field).cloned().unwrap_or(JsonValue::Null);
            let (drift, pass) = match kind {
                Kind::Info => continue,
                Kind::Exact => (None, old == new),
                Kind::Gated => {
                    let drift = drift_of(
                        old.as_f64().unwrap_or_default(),
                        new.as_f64().unwrap_or_default(),
                    );
                    (Some(drift), drift <= threshold)
                }
            };
            checks.push(DiffCheck {
                entry: (*name).to_owned(),
                field: field.to_owned(),
                kind,
                old,
                new,
                drift,
                pass,
            });
        }
    }
    Ok(DiffReport {
        binary: binary(baseline),
        threshold,
        checks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn detect_table(cuts: u64, detected: bool, heap: u64) -> BenchTable {
        let mut table = BenchTable::new("table_speedup").param("quick", true);
        table.row(
            "bfs.grid40",
            [
                exact("engine", "bfs"),
                info("wall_us_per_run", 142.5),
                exact("detected", detected),
                gated("cuts_explored", cuts),
                gated("probes", 5644u64),
                gated("heap_allocs", heap),
            ],
        );
        table
    }

    fn detect_doc(cuts: u64, detected: bool, heap: u64) -> JsonValue {
        parse(&detect_table(cuts, detected, heap).to_json()).unwrap()
    }

    #[test]
    fn identical_documents_pass() {
        let doc = detect_doc(1681, false, 0);
        let report = diff(&doc, &doc, DEFAULT_THRESHOLD).unwrap();
        assert!(report.pass());
        assert_eq!(report.checks.len(), 5); // 2 exact + 3 gated, info skipped
        let json = report.to_json();
        let parsed = parse(&json).unwrap();
        assert_eq!(
            crate::schema::validate(&parsed).unwrap(),
            crate::schema::BENCH_DIFF
        );
        assert_eq!(parsed.get("pass").unwrap().as_bool(), Some(true));
        assert_eq!(
            parsed.get("binary").unwrap().as_str(),
            Some("table_speedup")
        );
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
            .contains("FAIL bfs.grid40.cuts_explored: 1000 -> 1300 (drift 30%)"));
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
        assert_eq!(failures[0].kind, Kind::Exact);
    }

    #[test]
    fn structural_mismatches_are_errors_not_verdicts() {
        let detect = detect_doc(1681, false, 0);
        let run = parse(&crate::RunReport::new("grid40", "bfs").to_json()).unwrap();
        assert!(diff(&detect, &run, DEFAULT_THRESHOLD)
            .unwrap_err()
            .contains("schema mismatch"));
        let text = detect_table(1681, false, 0).to_json();
        let renamed = parse(&text.replace("bfs.grid40", "other")).unwrap();
        assert!(diff(&detect, &renamed, DEFAULT_THRESHOLD)
            .unwrap_err()
            .contains("row names differ"));
    }

    #[test]
    fn fresh_runs_cannot_relax_their_own_gate() {
        let text = detect_table(1681, false, 0).to_json();
        let base = parse(&text).unwrap();
        let err = |fresh: &str| diff(&base, &parse(fresh).unwrap(), DEFAULT_THRESHOLD).unwrap_err();
        // A fresh run that declares a gated counter `info` is not compared.
        let relaxed = text.replace("\"cuts_explored\":\"gated\"", "\"cuts_explored\":\"info\"");
        assert!(err(&relaxed).contains("column declarations differ"));
        // Dropping a column, or adding one, changes the table's shape.
        let mut dropped = BenchTable::new("table_speedup");
        dropped.row("bfs.grid40", [exact("engine", "bfs")]);
        assert!(err(&dropped.to_json()).contains("column declarations differ"));
        let added = text
            .replace(
                "\"heap_allocs\":\"gated\"",
                "\"heap_allocs\":\"gated\",\"layers\":\"gated\"",
            )
            .replace("\"heap_allocs\":0", "\"heap_allocs\":0,\"layers\":81");
        assert!(err(&added).contains("column declarations differ"));
        // Another binary's table is never a baseline for this one.
        let other = text.replace("table_speedup", "table_serve");
        assert!(err(&other).contains("binary differs"));
        // Declaration order is not structure.
        let mut reordered = BenchTable::new("table_speedup");
        reordered.row(
            "bfs.grid40",
            [
                gated("heap_allocs", 0u64),
                gated("probes", 5644u64),
                gated("cuts_explored", 1681u64),
                exact("detected", false),
                info("wall_us_per_run", 1.0),
                exact("engine", "bfs"),
            ],
        );
        let reordered = parse(&reordered.to_json()).unwrap();
        assert!(diff(&base, &reordered, DEFAULT_THRESHOLD).unwrap().pass());
    }

    #[test]
    fn online_rules_gate_cost_not_absolute_counters() {
        // A shorter (`--quick`) stream changes absolute counters; a table
        // that declares them `info` gates only the scale-invariant
        // per-event cost and the heap discipline.
        let segment = |events: u64, check_cost: u64, milli: u64| {
            let mut table = BenchTable::new("table_serve");
            table.row(
                "tenants1",
                [
                    info("events", events),
                    info("check_cost", check_cost),
                    gated("cost_per_event_milli", milli),
                    gated("heap_allocs", 0u64),
                ],
            );
            parse(&table.to_json()).unwrap()
        };
        let full = segment(2000, 11900, 5950);
        let quick = segment(500, 3000, 6000);
        let report = diff(&full, &quick, DEFAULT_THRESHOLD).unwrap();
        assert!(report.pass(), "{}", report.render_text());
        let fields: Vec<&str> = report.checks.iter().map(|c| c.field.as_str()).collect();
        assert_eq!(fields, ["cost_per_event_milli", "heap_allocs"]);
    }

    #[test]
    fn small_fractions_render_with_two_significant_digits() {
        let mut table = BenchTable::new("table_oom_rate");
        for (name, ms) in [("pom", 0.033), ("slicing", 2.31), ("hybrid", 0.5)] {
            table.row(name, [info("mean_ms", ms)]);
        }
        let text = table.render_text();
        let cells: Vec<&str> = text
            .lines()
            .skip(1)
            .map(|l| l.split_whitespace().last().unwrap())
            .collect();
        assert_eq!(cells, ["0.033", "2.3", "0.50"], "{text}");
    }

    #[test]
    fn tables_round_trip_and_reject_malformed_rows() {
        let table = detect_table(1681, false, 0);
        assert_eq!(table.u64("bfs.grid40", "cuts_explored"), 1681);
        assert_eq!(table.row_names().collect::<Vec<_>>(), ["bfs.grid40"]);
        let doc = parse(&table.to_json()).unwrap();
        assert_eq!(crate::schema::validate(&doc).unwrap(), crate::schema::BENCH);
        let text = table.render_text();
        assert!(text.starts_with("name  "), "{text}");
        assert!(text.contains("142.5") && text.contains("1681"), "{text}");

        let json = table.to_json();
        let row = json
            .split("\"entries\":[")
            .nth(1)
            .unwrap()
            .trim_end_matches("]}");
        let twice = format!("{row},{row}");
        for (from, to, why) in [
            (row, twice.as_str(), "repeated row name \"bfs.grid40\""),
            ("\"gated\"", "\"bogus\"", "kind must be"),
            (
                "\"cuts_explored\":1681",
                "\"cuts_explored\":\"many\"",
                "must be a number",
            ),
            (
                "\"probes\":5644",
                "\"probes\":5644,\"extra\":1",
                "undeclared column",
            ),
            (",\"heap_allocs\":0}", "}", "missing field \"heap_allocs\""),
            ("\"engine\":\"bfs\"", "\"engine\":[1]", "must be a scalar"),
            (
                "\"params\":{\"quick\":true}",
                "\"params\":[]",
                "\"params\" must be",
            ),
        ] {
            let bad = json.replacen(from, to, 1);
            assert_ne!(bad, json, "{from}");
            let err = crate::schema::validate(&parse(&bad).unwrap()).unwrap_err();
            assert!(err.to_string().contains(why), "{from}: {err}");
        }
    }

    #[test]
    #[should_panic(expected = "declares other columns")]
    fn rows_must_share_the_first_rows_columns() {
        let mut table = detect_table(1681, false, 0);
        table.row("other", [exact("engine", "dfs")]);
    }
}
