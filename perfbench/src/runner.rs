//! The three `ExperimentRunner` workloads: `plan_geo500`,
//! `collect_geo5k` and `continuous_drift`.

use crate::pass::{Kind, Pass, TraceLog};
use crate::probe::{replay_jsonl, EpochMarks, Replay, StampTracer, JSONL_EVERY};
use crate::Size;
use prospector_ckpt::Checkpoint;
use prospector_core::{
    budget_shadow_price, evaluate, ContinuousPolicy, FallbackPlanner, GatePolicy, NaiveK, Plan,
    PlanContext, Planner, SketchPrecision,
};
use prospector_data::ValueSource;
use prospector_data::{top_k_nodes, DriftField, IndependentGaussian, SamplePolicy, SampleSet};
use prospector_net::{
    epoch_seed, topology, ArqPolicy, EnergyModel, FailureModel, FaultSchedule, NetworkBuilder,
    Topology,
};
use prospector_sim::{ExperimentConfig, ExperimentRunner};
use std::hint::black_box;
use std::time::Instant;

/// Routing tree shape.
enum Shape {
    /// Random geometric placement at the figures' density (side 40·√n,
    /// radio range 70).
    Geometric {
        n: usize,
    },
    Balanced {
        fanout: usize,
        depth: usize,
    },
}

impl Shape {
    fn build(&self, seed: u64) -> Topology {
        match *self {
            Shape::Geometric { n } => {
                let side = 40.0 * (n as f64).sqrt();
                NetworkBuilder::new(n, side, side, 70.0)
                    .seed(seed)
                    .build()
                    .expect("seeded placement connects")
                    .topology
            }
            Shape::Balanced { fanout, depth } => topology::balanced(fanout, depth),
        }
    }

    fn len(&self) -> usize {
        match *self {
            Shape::Geometric { n, .. } => n,
            Shape::Balanced { fanout, depth } => (0..=depth).map(|d| fanout.pow(d as u32)).sum(),
        }
    }
}

struct Spec {
    /// Fixes the placement, the reading field and the death wave: the
    /// workload's scenario, the same for every run.
    scenario_seed: u64,
    shape: Shape,
    /// Range the per-node reading deviations are drawn from; means are
    /// drawn from 40–60.
    std: (f64, f64),
    /// `DriftField` change rate; `None` draws `IndependentGaussian`
    /// readings every epoch.
    drift: Option<f64>,
    k: usize,
    window: usize,
    /// Exploration sweep period after the warm-up (0 = warm-up only).
    sweep_every: u64,
    replan_every: u64,
    /// Collection budget as a share of the NAIVE-k plan's cost.
    budget_share: f64,
    /// Uniform per-hop loss; 0 = reliable links.
    loss: f64,
    gate: bool,
    continuous: Option<ContinuousPolicy>,
    /// Share of nodes killed in one wave halfway through the timed epochs.
    death_share: f64,
    /// Checkpoint (capture + encode, in memory) every this many epochs.
    ckpt_every: u64,
    /// Independently seeded episodes per pass, each with its own set-up:
    /// several realizations per run keep seed-to-seed differences small.
    episodes: u64,
    /// Timed epochs per episode.
    timed_epochs: u64,
    /// Time the planner's layers directly before every third query epoch.
    probe_planner: bool,
}

impl Spec {
    /// The readings: means and deviations form the workload's fixed
    /// field; `seed` drives only the draws around them.
    fn source(&self, n: usize, seed: u64) -> Box<dyn ValueSource> {
        let field =
            IndependentGaussian::random(n, 40.0..60.0, self.std.0..self.std.1, self.scenario_seed);
        let (means, std_devs) = (field.means().to_vec(), field.std_devs().to_vec());
        match self.drift {
            None => Box::new(IndependentGaussian::new(means, std_devs, seed)),
            Some(change) => Box::new(DriftField::new(means, std_devs, change, seed)),
        }
    }

    fn policy(&self) -> SamplePolicy {
        SamplePolicy::Periodic { warmup: self.window as u64, period: self.sweep_every }
    }

    fn planner(&self) -> Box<dyn Planner> {
        if self.continuous.is_some() {
            // Continuous query epochs never plan.
            Box::new(NaiveK)
        } else {
            Box::new(FallbackPlanner::standard())
        }
    }
}

pub struct RunnerWorkload {
    spec: Spec,
    seed: u64,
    n: usize,
    faults: FaultSchedule,
    death_epoch: Option<u64>,
    /// Warm-up sweeps plus the first query epoch (the first plan).
    setup_epochs: u64,
}

impl RunnerWorkload {
    pub fn plan_geo500(seed: u64, size: Size) -> Self {
        let (n, episodes, timed_epochs) = match size {
            Size::Full => (500, 16, 14),
            Size::Tiny => (60, 2, 20),
        };
        Self::new(
            Spec {
                scenario_seed: 31,
                shape: Shape::Geometric { n },
                std: (2.0, 8.0),
                drift: None,
                k: 10,
                window: 10,
                sweep_every: 10,
                replan_every: 1,
                budget_share: 0.3,
                loss: 0.0,
                gate: false,
                continuous: None,
                death_share: 0.0,
                ckpt_every: 0,
                episodes,
                timed_epochs,
                probe_planner: true,
            },
            seed,
        )
    }

    pub fn collect_geo5k(seed: u64, size: Size) -> Self {
        let (n, episodes, timed_epochs) = match size {
            Size::Full => (5000, 3, 700),
            Size::Tiny => (300, 2, 100),
        };
        Self::new(
            Spec {
                scenario_seed: 57,
                shape: Shape::Geometric { n },
                std: (1.0, 4.0),
                drift: None,
                k: 10,
                window: 5,
                sweep_every: 25,
                replan_every: 0,
                budget_share: 0.3,
                loss: 0.10,
                gate: true,
                continuous: None,
                death_share: 0.01,
                ckpt_every: 100,
                episodes,
                timed_epochs,
                probe_planner: false,
            },
            seed,
        )
    }

    pub fn continuous_drift(seed: u64, size: Size) -> Self {
        let (depth, episodes, timed_epochs) = match size {
            Size::Full => (7, 10, 100),
            Size::Tiny => (4, 2, 48),
        };
        Self::new(
            Spec {
                scenario_seed: 16,
                shape: Shape::Balanced { fanout: 3, depth },
                std: (1.0, 4.0),
                drift: Some(0.05),
                k: 16,
                // The gate needs four samples before it judges a reading.
                window: 4,
                sweep_every: 0,
                replan_every: 0,
                budget_share: 0.0,
                loss: 0.05,
                gate: true,
                continuous: Some(ContinuousPolicy {
                    tolerance: 0.5,
                    refresh_period: 16,
                    sketch: Some(SketchPrecision {
                        depth: 10,
                        compression: 16,
                        lo: 0.0,
                        hi: 100.0,
                    }),
                }),
                death_share: 0.0,
                ckpt_every: 0,
                episodes,
                timed_epochs,
                probe_planner: false,
            },
            seed,
        )
    }

    fn new(spec: Spec, seed: u64) -> Self {
        let n = spec.shape.len();
        let policy = spec.policy();
        let first_query = (0..).find(|&e| !policy.should_sample(e)).expect("a query epoch exists");
        let setup_epochs = first_query + 1;
        let deaths = (spec.death_share * n as f64).round() as usize;
        let (faults, death_epoch) = if deaths > 0 {
            let mut at = setup_epochs + spec.timed_epochs / 2;
            while policy.should_sample(at) {
                at += 1;
            }
            (FaultSchedule::random_deaths(n, deaths, at..at + 1, spec.scenario_seed), Some(at))
        } else {
            (FaultSchedule::new(), None)
        };
        RunnerWorkload { spec, seed, n, faults, death_epoch, setup_epochs }
    }

    fn failures(&self) -> Option<FailureModel> {
        (self.spec.loss > 0.0).then(|| FailureModel::uniform(self.n, self.spec.loss, 0.0))
    }

    fn config(&self, topo: &Topology, energy: &EnergyModel, seed: u64) -> ExperimentConfig {
        let spec = &self.spec;
        let naive = Plan::naive_k(topo, spec.k);
        let empty = SampleSet::new(self.n, spec.k, 1);
        let budget_mj =
            spec.budget_share * PlanContext::new(topo, energy, &empty, 0.0).plan_cost(&naive);
        ExperimentConfig {
            k: spec.k,
            window: spec.window,
            policy: spec.policy(),
            budget_mj,
            replan_every: spec.replan_every,
            replan_threshold: 0.0,
            failures: self.failures(),
            faults: self.faults.clone(),
            install_retries: 2,
            arq: ArqPolicy::default(),
            min_delivered: 0.0,
            max_retry_budget: 8,
            gate: spec.gate.then(GatePolicy::default),
            continuous: spec.continuous,
            seed,
        }
    }

    /// Runs one pass: `episodes` back-to-back episodes, each seeded from
    /// the run's seed and its index. A traced pass steps through
    /// `step_traced` and turns the event stream into stage spans; a probed
    /// pass times the layers named in the per-layer table by calling them
    /// on the live state between epochs.
    pub fn pass(&self, kind: Kind, log: &mut TraceLog) -> Pass {
        let mut out = Pass::default();
        let mut tally = Tally::default();
        for j in 0..self.spec.episodes {
            log.episode = j as u32;
            self.episode(kind, log, epoch_seed(self.seed, j), &mut tally, &mut out);
        }
        let epochs = out.epoch_ms.len().max(1) as f64;
        out.det = vec![
            ("accuracy", tally.accuracy / epochs),
            ("energy_mj_per_query", tally.energy_mj / epochs),
            ("served_frac", 1.0),
            ("sim.retransmissions_per_epoch", tally.retransmissions as f64 / epochs),
            ("sim.lost_edges_per_epoch", tally.lost_edges as f64 / epochs),
            ("sim.backfilled_per_epoch", tally.backfilled as f64 / epochs),
            ("sim.flagged_per_epoch", tally.flagged as f64 / epochs),
            ("sim.cont.deltas_per_epoch", tally.deltas as f64 / epochs),
            ("sim.cont.messages_per_epoch", tally.messages as f64 / epochs),
            ("sim.cont.refresh_frac", tally.refreshes as f64 / epochs),
            ("ckpt.bytes", tally.ckpt_bytes as f64),
        ];
        out.kind_det = match kind {
            Kind::Untraced => vec![],
            Kind::Traced => vec![("obs.events_per_epoch", tally.events as f64 / epochs)],
            Kind::Probed => vec![("lp.iterations.mean", crate::stats::mean(&tally.lp_iterations))],
        };
        out
    }

    /// One episode: set-up, then the timed epochs.
    fn episode(
        &self,
        kind: Kind,
        log: &mut TraceLog,
        seed: u64,
        tally: &mut Tally,
        out: &mut Pass,
    ) {
        let spec = &self.spec;
        let k = spec.k;
        let energy = EnergyModel::mica2();
        let failures = self.failures();
        let planner = spec.planner();
        let mut source = spec.source(self.n, seed);
        let mut replay = Replay::new(self.n);
        let mut tracer = (kind == Kind::Traced).then(|| StampTracer::new(log.origin));
        let probing = kind == Kind::Probed;

        let built = Instant::now();
        let topo = spec.shape.build(spec.scenario_seed);
        let config = self.config(&topo, &energy, seed);
        let budget_mj = config.budget_mj;
        let policy = config.policy.clone();
        let mut runner = ExperimentRunner::new(&topo, &energy, planner.as_ref(), config);
        let mut setup_s = built.elapsed().as_secs_f64();
        let mut energy_all = 0.0;

        for e in 0..self.setup_epochs + spec.timed_epochs {
            let timed = e >= self.setup_epochs;
            let sweep_due = policy.should_sample(e);
            let row = source.values(e);
            let truth = spec.continuous.is_some().then(|| row.clone());

            if probing {
                if timed && !sweep_due && spec.probe_planner && e % 3 == 0 {
                    let mut ctx =
                        PlanContext::new(runner.topology(), &energy, runner.samples(), budget_mj);
                    if let Some(f) = &failures {
                        ctx = ctx.with_failures(f).with_arq(runner.arq());
                    }
                    let (relax, relax_ms) =
                        log.span_of(e, "lp.relax", || black_box(budget_shadow_price(&ctx)));
                    let (planned, plan_ms) =
                        log.span_of(e, "core.plan", || black_box(planner.plan_traced(&ctx)));
                    // A failed relaxation (the chain then falls back) is
                    // not an LP timing.
                    if relax.is_ok() {
                        log.sample("lp.relax", relax_ms);
                    }
                    if let Ok(p) = &planned {
                        log.sample("core.plan", plan_ms);
                        if relax.is_ok() {
                            log.sample("core.round_repair", plan_ms - relax_ms);
                        }
                        if let Some(lp) = &p.lp {
                            tally.lp_iterations.push(lp.iterations as f64);
                        }
                    }
                    if let Some(plan) = runner.current_plan() {
                        log.time(e, "core.expected_misses", || {
                            black_box(evaluate::expected_misses(
                                plan,
                                runner.topology(),
                                runner.samples(),
                            ))
                        });
                    }
                }
                if sweep_due {
                    let mut window = runner.samples().clone();
                    let pushed = row.clone();
                    log.time(e, "data.window_push", || window.push(pushed));
                    black_box(&window);
                }
                if Some(e) == self.death_epoch {
                    let dead = self.faults.deaths_at(e);
                    let repaired =
                        log.time(e, "net.repair", || black_box(runner.topology().repair(&dead)));
                    out.check(repaired.is_ok(), || format!("epoch {e}: topology repair failed"));
                }
            }

            replay.load(e, row);
            let started = Instant::now();
            let stepped = match tracer.as_mut() {
                Some(t) => runner.step_traced(&mut replay, e, t),
                None => runner.step(&mut replay, e),
            };
            let ckpt = (timed && spec.ckpt_every > 0 && e % spec.ckpt_every == 0).then(|| {
                let at = Instant::now();
                let bytes = runner.checkpoint().encode();
                (at, at.elapsed(), bytes)
            });
            let elapsed = started.elapsed();
            out.ops += 1;

            let rep = match stepped {
                Ok(rep) => rep,
                Err(err) => {
                    out.failures.push(format!("epoch {e}: step failed: {err}"));
                    continue;
                }
            };
            energy_all += rep.energy_mj;
            out.check(rep.energy_mj.is_finite() && rep.energy_mj >= 0.0, || {
                format!("epoch {e}: energy {} mJ", rep.energy_mj)
            });
            let mut epoch_accuracy = rep.accuracy;
            if let (Some(state), Some(truth)) = (runner.continuous_state(), truth) {
                let answer = state.answer(k);
                out.check(answer == state.recompute_answer(k), || {
                    format!("epoch {e}: cached continuous answer differs from a recompute")
                });
                out.check(
                    state.custody_invariant_holds(runner.alive(), runner.topology().root()),
                    || format!("epoch {e}: custody invariant broken"),
                );
                // Score the cached answer against the clean readings of
                // the nodes still alive.
                let clean: Vec<f64> = truth
                    .iter()
                    .zip(runner.alive())
                    .map(|(&v, &alive)| if alive { v } else { f64::NEG_INFINITY })
                    .collect();
                let best = top_k_nodes(&clean, k);
                epoch_accuracy =
                    answer.iter().filter(|r| best.contains(&r.node)).count() as f64 / k as f64;
                if !rep.sampled {
                    out.check(epoch_accuracy == rep.accuracy, || {
                        format!(
                            "epoch {e}: runner scored {} but the answer scores {epoch_accuracy}",
                            rep.accuracy
                        )
                    });
                }
            }
            out.check((0.0..=1.0).contains(&epoch_accuracy), || {
                format!("epoch {e}: accuracy {epoch_accuracy} outside [0, 1]")
            });
            if let Some((_, _, bytes)) = &ckpt {
                let again = Checkpoint::decode(bytes).map(|c| c.encode());
                out.check(again.as_ref() == Ok(bytes), || {
                    format!("epoch {e}: checkpoint does not re-encode to the same bytes")
                });
                tally.ckpt_bytes = bytes.len();
            }

            let sweep = rep.sampled || rep.full_refresh;
            if !timed {
                setup_s += elapsed.as_secs_f64();
            } else {
                let ms = elapsed.as_secs_f64() * 1e3;
                if sweep {
                    out.sweep_ms.push(ms);
                } else {
                    out.query_ms.push(ms);
                }
                out.epoch_ms.push(ms);
                out.served += 1;
                tally.accuracy += epoch_accuracy;
                tally.energy_mj += rep.energy_mj;
                tally.retransmissions += u64::from(rep.retransmissions);
                tally.lost_edges += rep.lost_edges as u64;
                tally.backfilled += rep.backfilled as u64;
                tally.flagged += rep.flagged as u64;
                tally.deltas += rep.deltas_shipped as u64;
                tally.messages += u64::from(rep.messages);
                tally.refreshes += u64::from(rep.full_refresh);
            }

            if let (Some((at, took, _)), true) = (&ckpt, probing) {
                let from = *at - log.origin;
                log.timed_span(e, "ckpt.encode", None, from, from + *took);
            }
            if let Some(tracer) = tracer.as_mut() {
                let recorded = tracer.take();
                if timed {
                    let origin = log.origin;
                    let name = if sweep { "epoch.sweep" } else { "epoch.query" };
                    let epoch_span =
                        log.span(e, name, None, started - origin, started + elapsed - origin);
                    if !sweep {
                        for (stage, from, to) in EpochMarks::of(&recorded).stages() {
                            log.timed_span(e, stage, Some(epoch_span), from, to);
                        }
                    }
                    tally.events += recorded.len() as u64;
                    if e % JSONL_EVERY == 0 {
                        log.sample("obs.jsonl", replay_jsonl(recorded).as_secs_f64() * 1e3);
                    }
                }
            }
        }

        let total = runner.meter().total();
        out.check((total - energy_all).abs() <= 1e-9 * total.abs().max(1.0), || {
            format!("meter total {total} mJ != sum of epoch energies {energy_all} mJ")
        });
        out.setup_s.push(setup_s);
    }
}

/// Seed-determined tallies of a pass, summed over its episodes' timed
/// epochs.
#[derive(Default)]
struct Tally {
    accuracy: f64,
    energy_mj: f64,
    retransmissions: u64,
    lost_edges: u64,
    backfilled: u64,
    flagged: u64,
    deltas: u64,
    messages: u64,
    refreshes: u64,
    ckpt_bytes: usize,
    lp_iterations: Vec<f64>,
    events: u64,
}
