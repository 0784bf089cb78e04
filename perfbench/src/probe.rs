//! The benchmark's side of the program boundary: a replay value source
//! that hands over readings generated before the timer starts, and a
//! timestamping tracer whose events become wall-clock spans.

use prospector_data::ValueSource;
use prospector_obs::{JsonlTracer, TraceEvent, Tracer};
use std::time::{Duration, Instant};

/// A [`ValueSource`] that hands the program exactly one pre-generated
/// row: the benchmark loads the row for epoch `e` with [`Replay::load`]
/// before starting the epoch's timer, and the runner's `values(e)` call
/// moves it out without copying.
pub struct Replay {
    n: usize,
    row: Option<(u64, Vec<f64>)>,
}

impl Replay {
    pub fn new(n: usize) -> Self {
        Replay { n, row: None }
    }

    pub fn load(&mut self, epoch: u64, row: Vec<f64>) {
        assert_eq!(row.len(), self.n, "replay row has the wrong width");
        self.row = Some((epoch, row));
    }
}

impl ValueSource for Replay {
    fn num_nodes(&self) -> usize {
        self.n
    }

    fn values(&mut self, epoch: u64) -> Vec<f64> {
        match self.row.take() {
            Some((e, row)) if e == epoch => row,
            other => {
                panic!("replay holds {:?}, program asked for epoch {epoch}", other.map(|r| r.0))
            }
        }
    }

    fn name(&self) -> &'static str {
        "replay"
    }
}

/// Records every event with the wall-clock offset at which it arrived.
/// Events stay in memory until the benchmark takes them after the epoch.
pub struct StampTracer {
    origin: Instant,
    events: Vec<(Duration, TraceEvent)>,
}

impl StampTracer {
    pub fn new(origin: Instant) -> Self {
        StampTracer { origin, events: Vec::new() }
    }

    pub fn take(&mut self) -> Vec<(Duration, TraceEvent)> {
        std::mem::take(&mut self.events)
    }
}

impl Tracer for StampTracer {
    fn record(&mut self, event: TraceEvent) {
        self.events.push((self.origin.elapsed(), event));
    }
}

/// One timed interval: `name` inside `parent` (an index into the span
/// list), tagged with the pass, episode and epoch every span of one epoch
/// shares.
pub struct Span {
    pub pass: u32,
    pub episode: u32,
    pub epoch: u64,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end.saturating_sub(self.start)).as_secs_f64() * 1e3
    }

    pub fn to_json(&self, id: usize) -> String {
        let parent = self.parent.map_or("null".to_string(), |p| p.to_string());
        format!(
            "{{\"id\":{id},\"parent\":{parent},\"pass\":{},\"episode\":{},\"epoch\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}",
            self.pass,
            self.episode,
            self.epoch,
            self.name,
            self.start.as_secs_f64() * 1e6,
            self.end.as_secs_f64() * 1e6
        )
    }
}

/// Where inside a runner epoch the event stream says time went. Each
/// field is an arrival offset; `None` when the epoch had no such stage.
#[derive(Default)]
pub struct EpochMarks {
    pub start: Option<Duration>,
    pub plan_chosen: Option<Duration>,
    pub plan_installed: Option<Duration>,
    pub last_collection: Option<Duration>,
    pub end: Option<Duration>,
}

impl EpochMarks {
    pub fn of(events: &[(Duration, TraceEvent)]) -> Self {
        let mut m = EpochMarks::default();
        for (t, e) in events {
            match e {
                TraceEvent::EpochStart { .. } => m.start = Some(*t),
                TraceEvent::PlanChosen { .. } => m.plan_chosen = Some(*t),
                TraceEvent::PlanInstalled { .. } => m.plan_installed = Some(*t),
                TraceEvent::Energy { phase: "collection" | "retransmit", .. }
                | TraceEvent::LinkDelivery { .. } => m.last_collection = Some(*t),
                TraceEvent::EpochEnd { .. } => m.end = Some(*t),
                _ => {}
            }
        }
        m
    }

    /// (stage name, start, end) for every stage the epoch ran: planning
    /// up to `plan_chosen`, installation up to `plan_installed`,
    /// collection up to the last collection-phase event, and the finish
    /// (gate, backfill, answer) up to `epoch_end`.
    pub fn stages(&self) -> Vec<(&'static str, Duration, Duration)> {
        let mut out = Vec::new();
        let Some(start) = self.start else { return out };
        let mut cursor = start;
        if let Some(chosen) = self.plan_chosen {
            out.push(("sim.plan", cursor, chosen));
            cursor = chosen;
            if let Some(installed) = self.plan_installed {
                out.push(("sim.install", cursor, installed));
                cursor = installed;
            }
        }
        if let Some(collected) = self.last_collection.filter(|&c| c >= cursor) {
            out.push(("sim.collect", cursor, collected));
            cursor = collected;
        }
        if let Some(end) = self.end {
            out.push(("sim.finish", cursor, end));
        }
        out
    }
}

/// A traced pass replays every this many epochs' events through the
/// JSONL serializer: coprime with every sweep period, so the sampled
/// epochs mix sweeps and queries in the run's proportions.
pub const JSONL_EVERY: u64 = 3;

/// Serializes `events` through the program's [`JsonlTracer`] into
/// memory; returns the wall time it took.
pub fn replay_jsonl(events: Vec<(Duration, TraceEvent)>) -> Duration {
    let mut jsonl = JsonlTracer::new(Vec::with_capacity(events.len() * 64));
    let started = Instant::now();
    for (_, e) in events {
        jsonl.record(e);
    }
    std::hint::black_box(jsonl.into_inner());
    started.elapsed()
}
