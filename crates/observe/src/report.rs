//! Machine-readable run reports.
//!
//! A [`RunReport`] captures one detection run — workload, engine, scale
//! parameters, the detection outcome and a per-phase time breakdown — in
//! a stable JSON schema that `slicing detect --report` writes. It carries
//! no counters: `slicing profile`'s `totals` is the one place a
//! detection's counters appear.
//!
//! Schema (`slicing.run-report/v1`); absent optional fields are omitted:
//!
//! ```json
//! {
//!   "schema": "slicing.run-report/v1",
//!   "workload": "primary-secondary",
//!   "engine": "slice",
//!   "procs": 4,
//!   "events": 40,
//!   "detected": true,
//!   "aborted": null,
//!   "cuts_explored": 512,
//!   "max_stored_cuts": 128,
//!   "peak_bytes": 16384,
//!   "elapsed_secs": 0.0123,
//!   "phases": [{"name":"slice","secs":0.004},{"name":"search","secs":0.008}]
//! }
//! ```

use crate::json::{JsonArray, JsonObject};

/// Identifies the per-run schema emitted by [`RunReport::to_json`].
pub const RUN_REPORT_SCHEMA: &str = crate::schema::RUN_REPORT;

/// One run's report; see the module docs for the JSON shape.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// Workload name (e.g. `"primary-secondary"`, `"figure1"`).
    pub workload: String,
    /// Detection engine (e.g. `"slice"`, `"bfs"`, `"hybrid"`).
    pub engine: String,
    /// Number of processes in the computation.
    pub procs: Option<u64>,
    /// Events per process (or total events, per the binary's convention).
    pub events: Option<u64>,
    /// Whether the predicate was detected.
    pub detected: Option<bool>,
    /// Witness cut (events included per process) when detected.
    pub witness: Option<Vec<u64>>,
    /// Abort reason when the engine hit a resource limit.
    pub aborted: Option<String>,
    /// Global states examined.
    pub cuts_explored: Option<u64>,
    /// High-water mark of simultaneously stored cuts.
    pub max_stored_cuts: Option<u64>,
    /// Estimated peak memory of the engine's working set, in bytes.
    pub peak_bytes: Option<u64>,
    /// Total wall time of the run, in seconds.
    pub elapsed_secs: Option<f64>,
    /// Ordered per-phase wall-time breakdown, in seconds.
    pub phases: Vec<(String, f64)>,
}

impl RunReport {
    /// A report for `workload` run under `engine`; everything else is
    /// filled in by the caller.
    pub fn new(workload: impl Into<String>, engine: impl Into<String>) -> Self {
        RunReport {
            workload: workload.into(),
            engine: engine.into(),
            ..RunReport::default()
        }
    }

    /// Adds a named phase duration (builder style).
    pub fn phase(mut self, name: impl Into<String>, secs: f64) -> Self {
        self.phases.push((name.into(), secs));
        self
    }

    /// Renders the report as one JSON object.
    pub fn to_json(&self) -> String {
        let mut obj = JsonObject::new()
            .str("schema", RUN_REPORT_SCHEMA)
            .str("workload", &self.workload)
            .str("engine", &self.engine);
        if let Some(v) = self.procs {
            obj = obj.u64("procs", v);
        }
        if let Some(v) = self.events {
            obj = obj.u64("events", v);
        }
        if let Some(v) = self.detected {
            obj = obj.bool("detected", v);
        }
        if let Some(witness) = &self.witness {
            let arr = witness
                .iter()
                .fold(JsonArray::new(), |arr, c| arr.push_raw(&c.to_string()))
                .finish();
            obj = obj.raw("witness", &arr);
        }
        if self.detected.is_some() || self.aborted.is_some() {
            obj = obj.opt_str("aborted", self.aborted.as_deref());
        }
        if let Some(v) = self.cuts_explored {
            obj = obj.u64("cuts_explored", v);
        }
        if let Some(v) = self.max_stored_cuts {
            obj = obj.u64("max_stored_cuts", v);
        }
        if let Some(v) = self.peak_bytes {
            obj = obj.u64("peak_bytes", v);
        }
        if let Some(v) = self.elapsed_secs {
            obj = obj.f64("elapsed_secs", v);
        }
        let phases = self
            .phases
            .iter()
            .fold(JsonArray::new(), |arr, (name, secs)| {
                arr.push_raw(
                    &JsonObject::new()
                        .str("name", name)
                        .f64("secs", *secs)
                        .finish(),
                )
            })
            .finish();
        obj = obj.raw("phases", &phases);
        obj.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_report_omits_absent_fields() {
        let json = RunReport::new("figure1", "bfs").to_json();
        assert_eq!(
            json,
            "{\"schema\":\"slicing.run-report/v1\",\"workload\":\"figure1\",\
             \"engine\":\"bfs\",\"phases\":[]}"
        );
    }

    #[test]
    fn full_report_round_trips_every_field() {
        let mut r = RunReport::new("primary-secondary", "slice");
        r.procs = Some(4);
        r.events = Some(40);
        r.detected = Some(true);
        r.cuts_explored = Some(512);
        r.max_stored_cuts = Some(128);
        r.peak_bytes = Some(16384);
        r.elapsed_secs = Some(0.5);
        let r = r.phase("slice", 0.25).phase("search", 0.25);
        let json = r.to_json();
        assert!(json.contains("\"procs\":4"));
        assert!(json.contains("\"detected\":true"));
        assert!(json.contains("\"aborted\":null"));
        assert!(json.contains("{\"name\":\"slice\",\"secs\":0.25}"));
        assert!(!json.contains("counters"));
    }

    #[test]
    fn aborted_runs_carry_the_reason() {
        let mut r = RunReport::new("db", "pom");
        r.detected = Some(false);
        r.aborted = Some("memory".to_owned());
        assert!(r.to_json().contains("\"aborted\":\"memory\""));
    }
}
