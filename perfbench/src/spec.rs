//! The benchmark's contract: workloads, metrics, units and bounds. The
//! binary prints `BENCHMARK.json` from this table (`--print-spec`), and
//! every result it prints is checked against it.

pub const RUN_SECONDS: u64 = 25;

pub struct Workload {
    pub name: &'static str,
    /// Seed used when none is given.
    pub default_seed: u64,
    /// Wall time of one untraced full-size pass, checks included, on a
    /// 2-vCPU VM: an untraced run makes `--seconds / pass_s` passes.
    pub pass_s: f64,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "plan_geo500",
        default_seed: 31,
        pass_s: 2.0,
        why: "500-node geometric network replanned every query epoch: LP+LF planning dominates, so lp and core changes show here",
    },
    Workload {
        name: "collect_geo5k",
        default_seed: 57,
        pass_s: 1.9,
        why: "5000 nodes, 10% loss, gate, death wave, checkpoints: ARQ collection, backfill and sweeps dominate; planning is rare",
    },
    Workload {
        name: "continuous_drift",
        default_seed: 16,
        pass_s: 1.7,
        why: "3280-node tree in continuous mode: delta protocol, custody, sketches and view audit; no planner, the lp/core bypass",
    },
    Workload {
        name: "serve_tenants",
        default_seed: 11,
        pass_s: 1.3,
        why: "QueryService closed loop of 48 tenant requests per epoch: admission, plan cache and small LPs on cache misses",
    },
];

pub enum Better {
    Lower,
    Higher,
}

/// How a traced run turns its samples into a per-layer value.
pub enum Source {
    /// Median of the wall-time samples under this span name.
    Median(&'static str),
    /// Mean of the wall-time samples under this span name.
    Mean(&'static str),
    /// A seed-determined value the pass recorded under the metric's name.
    Det,
    /// Traced epoch wall time over untraced epoch wall time.
    TraceOverhead,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen.
    pub bound: f64,
    pub source: Source,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric { name, unit, better, bound, source: Source::Det }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, source: Source) -> Metric {
    Metric { name, unit, better, bound: 0.0, source }
}

use Better::{Higher, Lower};
use Source::{Det, Mean, Median, TraceOverhead};

/// Bounds are sized from ten-seed runs on a 2-vCPU VM that slows the
/// workloads by up to 1.85× for seconds to minutes at a time: every timing
/// metric takes the largest bound. The seed-determined metrics vary only
/// with the seed.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("epochs_per_s", "1/s", Higher, 0.25),
    e2e("served_qps", "1/s", Higher, 0.25),
    e2e("query_ms.p50", "ms", Lower, 0.25),
    e2e("query_ms.p95", "ms", Lower, 0.25),
    e2e("sweep_ms.p50", "ms", Lower, 0.25),
    e2e("accuracy", "frac", Higher, 0.25),
    e2e("energy_mj_per_query", "mJ", Lower, 0.1),
    e2e("served_frac", "frac", Higher, 0.05),
    e2e("peak_rss_mb", "MB", Lower, 0.15),
];

pub const PER_LAYER: &[Metric] = &[
    layer("lp.relax_ms.p50", "ms", Lower, Median("lp.relax")),
    layer("lp.iterations.mean", "count", Lower, Det),
    layer("core.plan_ms.p50", "ms", Lower, Median("core.plan")),
    layer("core.round_repair_ms.p50", "ms", Lower, Median("core.round_repair")),
    layer("core.expected_misses_ms.p50", "ms", Lower, Median("core.expected_misses")),
    layer("sim.plan_ms.p50", "ms", Lower, Median("sim.plan")),
    layer("sim.install_ms.p50", "ms", Lower, Median("sim.install")),
    layer("sim.collect_ms.p50", "ms", Lower, Median("sim.collect")),
    layer("sim.finish_ms.p50", "ms", Lower, Median("sim.finish")),
    layer("sim.retransmissions_per_epoch", "count", Lower, Det),
    layer("sim.lost_edges_per_epoch", "count", Lower, Det),
    layer("sim.backfilled_per_epoch", "count", Lower, Det),
    layer("sim.flagged_per_epoch", "count", Lower, Det),
    layer("sim.cont.deltas_per_epoch", "count", Lower, Det),
    layer("sim.cont.messages_per_epoch", "count", Lower, Det),
    layer("sim.cont.refresh_frac", "frac", Lower, Det),
    layer("net.repair_ms", "ms", Lower, Median("net.repair")),
    layer("data.window_push_ms.p50", "ms", Lower, Median("data.window_push")),
    layer("ckpt.encode_ms.p50", "ms", Lower, Median("ckpt.encode")),
    layer("ckpt.bytes", "bytes", Lower, Det),
    layer("serve.plan_ms.p50", "ms", Lower, Median("serve.plan")),
    layer("serve.cache_hit_rate", "frac", Higher, Det),
    layer("serve.rejected.energy_exhausted", "count", Lower, Det),
    layer("serve.rejected.below_band", "count", Lower, Det),
    layer("serve.rejected.deadline", "count", Lower, Det),
    layer("serve.plan_failures", "count", Lower, Det),
    layer("obs.events_per_epoch", "count", Lower, Det),
    layer("obs.jsonl_ms_per_epoch", "ms", Lower, Mean("obs.jsonl")),
    layer("obs.trace_overhead", "ratio", Lower, TraceOverhead),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

fn quoted(s: &str) -> String {
    let mut out = String::new();
    prospector_obs::json::push_str(&mut out, s);
    out
}

/// `BENCHMARK.json`, byte for byte.
pub fn benchmark_json() -> String {
    let metric = |m: &Metric, with_bound: bool| {
        let better = match m.better {
            Lower => "lower",
            Higher => "higher",
        };
        let bound = if with_bound { format!(", \"bound\": {}", m.bound) } else { String::new() };
        format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": \"{better}\"{bound}}}",
            quoted(m.name),
            quoted(m.unit)
        )
    };
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": {}, \"why\": {}}}", quoted(w.name), quoted(w.why)))
        .collect();
    let e2e: Vec<String> = END_TO_END.iter().map(|m| metric(m, true)).collect();
    let layers: Vec<String> = PER_LAYER.iter().map(|m| metric(m, false)).collect();
    format!(
        "{{\n  \"command\": [\"python3\", \"perfbench/run.py\"],\n  \"paths\": [\"perfbench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}
