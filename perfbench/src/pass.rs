//! What one pass over a workload's fixed epoch sequence measured, and
//! the traced-run bookkeeping shared by every workload.

use crate::probe::Span;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// What a pass records besides the end-to-end figures.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Nothing: the epochs run exactly as a user would run them.
    Untraced,
    /// Epochs run through the program's tracing entry points into a
    /// timestamping tracer; their event streams become stage spans.
    Traced,
    /// Epochs run untraced; between epochs the benchmark times direct
    /// calls into single layers on the live state.
    Probed,
}

/// One pass: the workload's fixed, seeded episodes, each a fresh set-up
/// followed by a fixed sequence of timed epochs (or batches).
#[derive(Default)]
pub struct Pass {
    /// Set-up wall times, one per episode: everything before the first
    /// timed epoch except generating readings.
    pub setup_s: Vec<f64>,
    /// Wall time of each timed query epoch (or `serve_batch`).
    pub query_ms: Vec<f64>,
    /// Wall time of each timed epoch that re-collected every node.
    pub sweep_ms: Vec<f64>,
    /// Wall time of every timed epoch (`begin_epoch` + `serve_batch`
    /// for the service), in order.
    pub epoch_ms: Vec<f64>,
    /// Queries answered during the timed epochs.
    pub served: u64,
    /// Epochs or batches executed, set-up included.
    pub ops: u64,
    /// One line per failed output check.
    pub failures: Vec<String>,
    /// Values that are pure functions of the seed, in a fixed order.
    /// Every pass of a run must reproduce them bit for bit.
    pub det: Vec<(&'static str, f64)>,
    /// Seed-determined values only a pass of this kind produces.
    pub kind_det: Vec<(&'static str, f64)>,
}

impl Pass {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Sum of the timed epochs' wall times.
    pub fn wall_s(&self) -> f64 {
        self.epoch_ms.iter().sum::<f64>() / 1e3
    }

    pub fn det_value(&self, name: &str) -> f64 {
        self.det
            .iter()
            .chain(&self.kind_det)
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("pass did not record {name}"))
    }
}

/// Wall-clock data traced and probed passes collect outside the epoch
/// timers.
pub struct TraceLog {
    pub origin: Instant,
    pub pass: u32,
    pub episode: u32,
    pub spans: Vec<Span>,
    /// Per-layer wall-time samples (ms), keyed by metric name.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
}

impl TraceLog {
    pub fn new(origin: Instant) -> Self {
        TraceLog { origin, pass: 0, episode: 0, spans: Vec::new(), samples: BTreeMap::new() }
    }

    pub fn sample(&mut self, metric: &'static str, ms: f64) {
        self.samples.entry(metric).or_default().push(ms);
    }

    fn now(&self) -> Duration {
        self.origin.elapsed()
    }

    /// Records a span and returns its index for children to point at.
    pub fn span(
        &mut self,
        epoch: u64,
        name: &'static str,
        parent: Option<usize>,
        start: Duration,
        end: Duration,
    ) -> usize {
        let (pass, episode) = (self.pass, self.episode);
        self.spans.push(Span { pass, episode, epoch, name, parent, start, end });
        self.spans.len() - 1
    }

    /// Records a span and its duration as a sample under the same name.
    pub fn timed_span(
        &mut self,
        epoch: u64,
        name: &'static str,
        parent: Option<usize>,
        start: Duration,
        end: Duration,
    ) {
        let idx = self.span(epoch, name, parent, start, end);
        let ms = self.spans[idx].ms();
        self.sample(name, ms);
    }

    /// Times a direct call `f` as a top-level span; returns its result and
    /// duration in ms.
    pub fn span_of<R>(
        &mut self,
        epoch: u64,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let start = self.now();
        let out = f();
        let end = self.now();
        let idx = self.span(epoch, name, None, start, end);
        (out, self.spans[idx].ms())
    }

    /// Times a direct call `f` as a top-level span and as a sample of the
    /// same name.
    pub fn time<R>(&mut self, epoch: u64, name: &'static str, f: impl FnOnce() -> R) -> R {
        let (out, ms) = self.span_of(epoch, name, f);
        self.sample(name, ms);
        out
    }
}
