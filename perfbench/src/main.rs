//! Fixed-work benchmark of the prospector workspace.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--size full|tiny]
//! perfbench --print-spec
//! ```
//!
//! A run repeats *passes*: an untraced run makes a fixed number of them,
//! sized to fill `--seconds` (at least two); a traced run repeats rounds
//! of an untraced, a traced and a probed pass for about `--seconds`. A
//! pass runs the workload's fixed, seeded episodes, each set up afresh, so
//! every seed-determined value must come out bit-identical in every pass;
//! the run checks that along with the program's own invariants. Untraced
//! runs (`--trace 0`) report the end-to-end metrics from the fastest time
//! each set-up, epoch or batch took over the passes; traced runs report
//! the per-layer ones and write their spans to `.bench_out/`.
//!
//! The last stdout line is the result object
//! `{"correct", "attempted", "failed", "metrics"}`.

mod pass;
mod probe;
mod runner;
mod serve;
mod spec;
mod stats;

use pass::{Kind, Pass, TraceLog};
use runner::RunnerWorkload;
use serve::ServeWorkload;
use spec::{Metric, Source, END_TO_END, PER_LAYER};
use std::io::Write as _;
use std::time::{Duration, Instant};

#[derive(Clone, Copy)]
pub enum Size {
    /// The sizes `BENCHMARK.json` describes.
    Full,
    /// Small enough for the smoke test.
    Tiny,
}

enum Workload {
    Runner(Box<RunnerWorkload>),
    Serve(ServeWorkload),
}

impl Workload {
    fn new(name: &str, seed: u64, size: Size) -> Option<Self> {
        Some(match name {
            "plan_geo500" => Workload::Runner(Box::new(RunnerWorkload::plan_geo500(seed, size))),
            "collect_geo5k" => {
                Workload::Runner(Box::new(RunnerWorkload::collect_geo5k(seed, size)))
            }
            "continuous_drift" => {
                Workload::Runner(Box::new(RunnerWorkload::continuous_drift(seed, size)))
            }
            "serve_tenants" => Workload::Serve(ServeWorkload::new(seed, size)),
            _ => return None,
        })
    }

    fn pass(&self, kind: Kind, log: &mut TraceLog) -> Pass {
        match self {
            Workload::Runner(w) => w.pass(kind, log),
            Workload::Serve(w) => w.pass(kind, log),
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

fn die(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--print-spec") {
        print!("{}", spec::benchmark_json());
        std::process::exit(0);
    }
    let value = |flag: &str| -> Option<&str> {
        args.iter().position(|a| a == flag).map(|i| {
            args.get(i + 1)
                .map(String::as_str)
                .unwrap_or_else(|| die(&format!("{flag} needs a value")))
        })
    };
    let workload = value("--workload").unwrap_or_else(|| die("--workload is required")).to_string();
    let known = spec::workload(&workload).unwrap_or_else(|| {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        die(&format!("unknown workload {workload:?}; known: {}", names.join(" ")))
    });
    let seed = value("--seed").map_or(known.default_seed, |s| {
        s.parse().unwrap_or_else(|_| die("--seed needs a non-negative integer"))
    });
    let seconds: f64 = value("--seconds").map_or(spec::RUN_SECONDS as f64, |s| {
        s.parse()
            .ok()
            .filter(|v: &f64| v.is_finite() && *v >= 0.0)
            .unwrap_or_else(|| die("--seconds needs a non-negative number"))
    });
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        _ => die("--trace takes 0 or 1"),
    };
    let size = match value("--size").unwrap_or("full") {
        "full" => Size::Full,
        "tiny" => Size::Tiny,
        _ => die("--size takes full or tiny"),
    };
    Args { workload, seed, seconds, trace, size }
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Checks that every pass reproduced the first pass's seed-determined
/// values bit for bit: `det` across all passes, `kind_det` within a kind.
fn check_determinism(passes: &[(Kind, Pass)], failures: &mut Vec<String>) {
    let Some((_, first)) = passes.first() else { return };
    for (i, (kind, p)) in passes.iter().enumerate().skip(1) {
        let same_kind = passes
            .iter()
            .find(|(k, _)| k == kind)
            .map(|(_, p)| p)
            .expect("p is a pass of its own kind");
        let pairs = first.det.iter().zip(&p.det).chain(same_kind.kind_det.iter().zip(&p.kind_det));
        for ((name, a), (_, b)) in pairs {
            if a.to_bits() != b.to_bits() {
                failures.push(format!("pass {i}: {name} = {b}, an earlier pass gave {a}"));
            }
        }
    }
}

fn of_kind(passes: &[(Kind, Pass)], kind: Kind) -> Vec<&Pass> {
    passes.iter().filter(|(k, _)| *k == kind).map(|(_, p)| p).collect()
}

/// The fastest time each operation took over the passes: every pass runs
/// the same operations in the same order, so element `i` of each pass's
/// samples times the same set-up, epoch or batch. A host that stalls the
/// process only ever adds time, and a stall rarely hits the same
/// operation in every pass.
fn fastest(passes: &[&Pass], samples: impl Fn(&Pass) -> &[f64]) -> Vec<f64> {
    let mut best = samples(passes[0]).to_vec();
    for p in &passes[1..] {
        for (b, &v) in best.iter_mut().zip(samples(p)) {
            *b = b.min(v);
        }
    }
    best
}

fn end_to_end(passes: &[&Pass], failures: &mut Vec<String>) -> Vec<(&'static Metric, f64)> {
    let counts = |p: &Pass| [p.setup_s.len(), p.query_ms.len(), p.sweep_ms.len(), p.epoch_ms.len()];
    if let Some(i) = passes.iter().position(|p| counts(p) != counts(passes[0])) {
        failures.push(format!("pass {i} timed other operations than pass 0"));
    }
    let setups = fastest(passes, |p| &p.setup_s);
    let query = fastest(passes, |p| &p.query_ms);
    let sweep = fastest(passes, |p| &p.sweep_ms);
    let wall = fastest(passes, |p| &p.epoch_ms).iter().sum::<f64>() / 1e3;
    let (epochs, served) = (passes[0].epoch_ms.len(), passes[0].served);
    // The tail is taken over every query sample of every pass: when the
    // host is busy for most of a run, the fastest-of figures of the
    // slowest twentieth of the operations swing with the few quiet moments
    // the run happened to get, while the pooled tail does not.
    let all_query: Vec<f64> = passes.iter().flat_map(|p| p.query_ms.iter().copied()).collect();
    let all_sweep: Vec<f64> = passes.iter().flat_map(|p| p.sweep_ms.iter().copied()).collect();
    println!(
        "# {} passes; {} query ops per pass: pooled p50 {:.6} ms, fastest-of p95 {:.6} ms; \
         {} sweep ops per pass: pooled p50 {:.6} ms",
        passes.len(),
        query.len(),
        stats::percentile(&all_query, 50.0),
        stats::percentile(&query, 95.0),
        sweep.len(),
        stats::median(&all_sweep)
    );
    END_TO_END
        .iter()
        .map(|m| {
            let v = match m.name {
                "setup_s" => stats::median(&setups),
                "epochs_per_s" => epochs as f64 / wall,
                "served_qps" => served as f64 / wall,
                "query_ms.p50" => stats::percentile(&query, 50.0),
                "query_ms.p95" => stats::percentile(&all_query, 95.0),
                "sweep_ms.p50" => stats::median(&sweep),
                "peak_rss_mb" => peak_rss_mb(),
                name => passes[0].det_value(name),
            };
            (m, v)
        })
        .collect()
}

fn per_layer(passes: &[(Kind, Pass)], log: &TraceLog) -> Vec<(&'static Metric, f64)> {
    let samples = |name: &str| log.samples.get(name).map_or(&[][..], Vec::as_slice);
    let wall = |kind| of_kind(passes, kind).iter().map(|p| p.wall_s()).sum::<f64>();
    PER_LAYER
        .iter()
        .map(|m| {
            let v = match m.source {
                Source::Median(span) => stats::median(samples(span)),
                Source::Mean(span) => stats::mean(samples(span)),
                // A layer this workload never runs reads 0.
                Source::Det => passes
                    .iter()
                    .flat_map(|(_, p)| p.det.iter().chain(&p.kind_det))
                    .find(|(n, _)| *n == m.name)
                    .map_or(0.0, |&(_, v)| v),
                Source::TraceOverhead => wall(Kind::Traced) / wall(Kind::Untraced),
            };
            (m, v)
        })
        .collect()
}

fn write_spans(workload: &str, log: &TraceLog) -> std::io::Result<()> {
    std::fs::create_dir_all(".bench_out")?;
    let file = std::fs::File::create(format!(".bench_out/spans-{workload}.jsonl"))?;
    let mut out = std::io::BufWriter::new(file);
    for (id, span) in log.spans.iter().enumerate() {
        writeln!(out, "{}", span.to_json(id))?;
    }
    out.flush()
}

fn main() {
    let args = parse_args();
    let workload = Workload::new(&args.workload, args.seed, args.size).expect("name was validated");
    let budget = Duration::from_secs_f64(args.seconds);
    // A slow host must not stretch a run much past its budget, nor past
    // its exit deadline.
    let cap = budget.mul_f64(1.3).clamp(Duration::from_secs(10), Duration::from_secs(120));
    // Untraced runs make a fixed number of plain passes, sized to fill
    // `--seconds` on the reference host, so that the fastest-of-passes
    // figures always take the minimum over as many samples. Traced runs
    // repeat rounds of an untraced, a traced and a probed pass for the
    // budget.
    let (round, fixed_rounds): (&[Kind], Option<usize>) = if args.trace {
        (&[Kind::Untraced, Kind::Traced, Kind::Probed], None)
    } else {
        let pass_s = spec::workload(&args.workload).expect("name was validated").pass_s;
        (&[Kind::Untraced], Some(((args.seconds / pass_s).round() as usize).max(2)))
    };

    let started = Instant::now();
    let mut log = TraceLog::new(started);
    let mut passes: Vec<(Kind, Pass)> = Vec::new();
    for rounds in 1.. {
        let round_started = Instant::now();
        for &kind in round {
            log.pass = passes.len() as u32;
            let p = workload.pass(kind, &mut log);
            // Per-pass figures on stderr show host drift within a run.
            eprintln!(
                "pass {}: {:.3} s timed, query p50 {:.4} ms, sweep p50 {:.4} ms",
                passes.len(),
                p.wall_s(),
                stats::median(&p.query_ms),
                stats::median(&p.sweep_ms)
            );
            passes.push((kind, p));
        }
        // Without a fixed count, stop when one more round would end further
        // past the budget than stopping now falls short of it.
        let elapsed = started.elapsed();
        let done = match fixed_rounds {
            Some(n) => rounds >= n,
            None => elapsed + round_started.elapsed() / 2 >= budget,
        };
        if done || elapsed >= cap {
            break;
        }
    }

    let mut failures: Vec<String> = Vec::new();
    for (i, (_, p)) in passes.iter().enumerate() {
        failures.extend(p.failures.iter().map(|f| format!("pass {i}: {f}")));
    }
    check_determinism(&passes, &mut failures);
    let attempted: u64 = passes.iter().map(|(_, p)| p.ops).sum();

    let metrics = if args.trace {
        if let Err(e) = write_spans(&args.workload, &log) {
            failures.push(format!("writing spans: {e}"));
        }
        per_layer(&passes, &log)
    } else {
        end_to_end(&of_kind(&passes, Kind::Untraced), &mut failures)
    };
    for (m, v) in &metrics {
        if !v.is_finite() {
            failures.push(format!("{} is not a finite number", m.name));
        }
    }

    for f in failures.iter().take(20) {
        eprintln!("check failed: {f}");
    }
    let mut obj = String::new();
    obj.push_str(&format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{",
        failures.is_empty(),
        (failures.len() as u64).min(attempted)
    ));
    for (i, (m, v)) in metrics.iter().enumerate() {
        println!("{:<36} {:>16.6} {}", m.name, v, m.unit);
        let mut value = String::new();
        prospector_obs::json::push_f64(&mut value, *v);
        obj.push_str(&format!(
            "{}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            if i > 0 { ", " } else { "" },
            m.name,
            m.unit
        ));
    }
    obj.push_str("}}");
    println!("passes {}; {:.2} s", passes.len(), started.elapsed().as_secs_f64());
    println!("{obj}");
}
