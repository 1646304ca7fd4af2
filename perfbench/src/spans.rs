//! In-memory spans recorded around the benchmark's calls into each layer.
//! Nothing is written while a traced run works; the spans are folded
//! into per-layer self times when it ends.

use std::time::Instant;

/// The layers a span can be charged to: the program's modules, the op
/// that encloses them, and the benchmark's own glue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// One op: a serve batch, a monitor event, a `recover()` call or a
    /// lattice query. Its self time is the part no layer covers.
    Op,
    TraceParse,
    TraceFromText,
    IncrementalObserve,
    IncrementalMessage,
    HubObserve,
    HubMessage,
    HubCheck,
    HubGc,
    MonitorObserve,
    MonitorMessage,
    MonitorCheck,
    MonitorGc,
    CheckpointExport,
    CheckpointEncode,
    CheckpointWrite,
    CheckpointDecode,
    CheckpointRestore,
    SnapshotWrite,
    SimulatorRun,
    SimulatorInject,
    SimulatorResume,
    SpecBuild,
    SliceBuild,
    SearchSlice,
    SearchResilient,
    SearchBfs,
    SearchLean,
    SearchPom,
    LineBuild,
    ReplayVerify,
}

const LAYERS: usize = Layer::ReplayVerify as usize + 1;

struct Span {
    layer: Layer,
    parent: u32,
    start: Instant,
    end: Instant,
}

const NO_PARENT: u32 = u32::MAX;

/// A span log. When disabled, `time` only runs the closure, so the same
/// replay code serves the untraced reference run.
pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span; pair with [`close`](Tracer::close).
    pub fn open(&mut self, layer: Layer) {
        if !self.enabled {
            return;
        }
        let now = Instant::now();
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span {
            layer,
            parent,
            start: now,
            end: now,
        });
    }

    pub fn close(&mut self) {
        if !self.enabled {
            return;
        }
        let id = self.open.pop().expect("close matches an open span");
        self.spans[id as usize].end = Instant::now();
    }

    /// Runs `f` inside a span of `layer`.
    pub fn time<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        self.open(layer);
        let out = f();
        self.close();
        out
    }

    /// Self time per layer in seconds: each span's duration minus the
    /// time its direct children cover.
    pub fn self_seconds(&self) -> [f64; LAYERS] {
        assert!(self.open.is_empty(), "every span is closed");
        let mut out = [0.0; LAYERS];
        for s in &self.spans {
            let d = (s.end - s.start).as_secs_f64();
            out[s.layer as usize] += d;
            if s.parent != NO_PARENT {
                let parent = self.spans[s.parent as usize].layer;
                out[parent as usize] -= d;
            }
        }
        out
    }

    /// Total duration of the top-level spans, in seconds.
    pub fn top_level_seconds(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == NO_PARENT)
            .map(|s| (s.end - s.start).as_secs_f64())
            .sum()
    }
}

/// Per-layer self times of a finished traced run.
pub struct SelfTimes([f64; LAYERS]);

impl SelfTimes {
    pub fn of(tracer: &Tracer) -> SelfTimes {
        SelfTimes(tracer.self_seconds())
    }

    pub fn get(&self, layer: Layer) -> f64 {
        self.0[layer as usize]
    }

    /// Time charged to any program layer (everything but `Op` self time).
    pub fn attributed(&self) -> f64 {
        self.0
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != Layer::Op as usize)
            .map(|(_, s)| s)
            .sum()
    }
}

/// Runs a replay once to warm up, then untraced, traced, and untraced
/// again. Returns the traced run's spans, the mean untraced wall time,
/// the traced wall time, and the traced run's result.
pub fn traced_and_untraced<T>(mut replay: impl FnMut(&mut Tracer) -> T) -> (Tracer, f64, f64, T) {
    replay(&mut Tracer::new(false));
    let mut untraced = 0.0;
    let mut run_untraced = |replay: &mut dyn FnMut(&mut Tracer) -> T| {
        let t0 = Instant::now();
        replay(&mut Tracer::new(false));
        untraced += t0.elapsed().as_secs_f64() / 2.0;
    };
    run_untraced(&mut replay);
    let mut tr = Tracer::new(true);
    let t0 = Instant::now();
    let result = replay(&mut tr);
    let traced = t0.elapsed().as_secs_f64();
    run_untraced(&mut replay);
    (tr, untraced, traced, result)
}
