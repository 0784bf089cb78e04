//! `serve_tenants`: a closed loop of seeded tenant batches against one
//! `QueryService`.

use crate::pass::{Kind, Pass, TraceLog};
use crate::probe::{replay_jsonl, StampTracer, JSONL_EVERY};
use crate::Size;
use prospector_core::FallbackPlanner;
use prospector_data::{top_k_nodes, IndependentGaussian, ValueSource};
use prospector_net::{epoch_seed, EnergyModel, NetworkBuilder};
use prospector_obs::{NullTracer, Tracer};
use prospector_serve::{AdmitError, QueryRequest, QueryService, ServiceConfig, ServiceError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// The loadgen's placement and field seed.
const SCENARIO_SEED: u64 = 11;

pub struct ServeWorkload {
    seed: u64,
    nodes: usize,
    /// Requests per epoch, over four tenants.
    per_epoch: usize,
    /// Independently seeded episodes per pass, each with its own set-up.
    episodes: u64,
    /// Timed batches per episode.
    timed_epochs: u64,
}

/// Typed outcomes of offered requests.
#[derive(Default)]
struct Outcomes {
    offered: u64,
    served: u64,
    energy_exhausted: u64,
    below_band: u64,
    deadline: u64,
    /// Validation failures and any other refusal before planning.
    other_rejected: u64,
    plan_failures: u64,
    /// Accepted requests that failed after planning (cold window).
    cold: u64,
}

impl Outcomes {
    fn rejected(&self) -> u64 {
        self.energy_exhausted + self.below_band + self.deadline + self.other_rejected
    }

    fn add(&mut self, o: &Outcomes) {
        self.offered += o.offered;
        self.served += o.served;
        self.energy_exhausted += o.energy_exhausted;
        self.below_band += o.below_band;
        self.deadline += o.deadline;
        self.other_rejected += o.other_rejected;
        self.plan_failures += o.plan_failures;
        self.cold += o.cold;
    }
}

/// Seed-determined tallies of a pass, summed over its episodes' timed
/// batches.
#[derive(Default)]
struct Tally {
    outcomes: Outcomes,
    /// Sum of served responses' scores.
    accuracy: f64,
    energy_mj: f64,
    cache_hits: u64,
    cache_lookups: u64,
    events: u64,
}

impl ServeWorkload {
    pub fn new(seed: u64, size: Size) -> Self {
        let (nodes, per_epoch, episodes, timed_epochs) = match size {
            Size::Full => (120, 48, 10, 80),
            Size::Tiny => (30, 16, 2, 12),
        };
        ServeWorkload { seed, nodes, per_epoch, episodes, timed_epochs }
    }

    fn config(&self) -> ServiceConfig {
        ServiceConfig {
            window: 8,
            min_history: 1,
            band_width_mj: 5.0,
            epoch_budget_mj: self.per_epoch as f64 * 12.0,
            max_k: 8,
            sample_every: 4,
            cache: true,
            failures: None,
        }
    }

    /// One request of the `serve --loadgen` mix: k ∈ {2,3,4}, budgets
    /// {10,15,22,30} mJ, 4% sub-band budgets, 10% with a deadline of the
    /// current epoch.
    fn request(rng: &mut StdRng, id: u64, epoch: u64) -> QueryRequest {
        const KS: [usize; 3] = [2, 3, 4];
        const BUDGETS: [f64; 4] = [10.0, 15.0, 22.0, 30.0];
        let tenant = rng.random_range(0u32..4);
        let k = KS[rng.random_range(0usize..KS.len())];
        let budget_mj = if rng.random_bool(0.04) {
            1.0
        } else {
            BUDGETS[rng.random_range(0usize..BUDGETS.len())]
        };
        let deadline = rng.random_bool(0.1).then_some(epoch);
        QueryRequest { id, tenant, k, budget_mj, subset: None, deadline }
    }

    /// The readings: the loadgen's field is the workload's fixed
    /// scenario; the episode's seed drives the draws around it.
    fn source(&self, seed: u64) -> IndependentGaussian {
        let field =
            IndependentGaussian::random(self.nodes, 40.0..60.0, 1.0..4.0, SCENARIO_SEED ^ 0x5eed);
        IndependentGaussian::new(field.means().to_vec(), field.std_devs().to_vec(), seed)
    }

    fn service(&self) -> QueryService {
        let side = 40.0 * (self.nodes as f64).sqrt();
        let network = NetworkBuilder::new(self.nodes, side, side, 70.0)
            .seed(SCENARIO_SEED)
            .build()
            .expect("seeded placement connects");
        QueryService::new(
            network.topology,
            EnergyModel::mica2(),
            Box::new(FallbackPlanner::standard()),
            self.config(),
        )
        .expect("service config is valid")
    }

    /// Runs one pass: `episodes` back-to-back episodes, each seeded from
    /// the run's seed and its index. A traced pass serves through a
    /// timestamping tracer; a probed pass records the service's own
    /// planning times.
    pub fn pass(&self, kind: Kind, log: &mut TraceLog) -> Pass {
        let mut out = Pass::default();
        let mut tally = Tally::default();
        for j in 0..self.episodes {
            log.episode = j as u32;
            self.episode(kind, log, epoch_seed(self.seed, j), &mut tally, &mut out);
        }
        let o = &tally.outcomes;
        let served = o.served.max(1) as f64;
        out.det = vec![
            ("accuracy", tally.accuracy / served),
            ("energy_mj_per_query", tally.energy_mj / served),
            ("served_frac", o.served as f64 / o.offered.max(1) as f64),
            ("serve.cache_hit_rate", tally.cache_hits as f64 / tally.cache_lookups.max(1) as f64),
            ("serve.rejected.energy_exhausted", o.energy_exhausted as f64),
            ("serve.rejected.below_band", o.below_band as f64),
            ("serve.rejected.deadline", o.deadline as f64),
            ("serve.plan_failures", o.plan_failures as f64),
        ];
        if kind == Kind::Traced {
            out.kind_det = vec![(
                "obs.events_per_epoch",
                tally.events as f64 / out.epoch_ms.len().max(1) as f64,
            )];
        }
        out
    }

    /// One episode: set-up (the first epoch included), then the timed
    /// batches.
    fn episode(
        &self,
        kind: Kind,
        log: &mut TraceLog,
        seed: u64,
        tally: &mut Tally,
        out: &mut Pass,
    ) {
        let mut source = self.source(seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut next_id = 0u64;
        let mut stamp = (kind == Kind::Traced).then(|| StampTracer::new(log.origin));

        let built = Instant::now();
        let mut service = self.service();
        let mut setup_s = built.elapsed().as_secs_f64();
        let (mut billed, mut energy_before) = (0.0, 0.0);
        let mut cache_before = service.cache_stats();

        for epoch in 0..=self.timed_epochs {
            let timed = epoch > 0;
            let values = source.values(epoch);
            let batch: Vec<QueryRequest> = (0..self.per_epoch)
                .map(|_| {
                    next_id += 1;
                    Self::request(&mut rng, next_id, epoch)
                })
                .collect();
            let stats_before = service.stats();

            let tracer: &mut dyn Tracer = match stamp.as_mut() {
                Some(t) => t,
                None => &mut NullTracer,
            };
            let started = Instant::now();
            let begun = service.begin_epoch(&values, tracer);
            let batch_at = Instant::now();
            let results = service.serve_batch(&batch, tracer);
            let done = Instant::now();
            out.ops += 1;

            let begin_s = (batch_at - started).as_secs_f64();
            let batch_s = (done - batch_at).as_secs_f64();
            if !timed {
                // The first epoch's sweep and cold-cache planning are set-up.
                setup_s += begin_s + batch_s;
                energy_before = service.meter().total();
                cache_before = service.cache_stats();
            } else {
                out.query_ms.push(batch_s * 1e3);
                if begun.sampled {
                    out.sweep_ms.push(begin_s * 1e3);
                }
                out.epoch_ms.push((begin_s + batch_s) * 1e3);
            }

            let mut here = Outcomes::default();
            billed += begun.sweep_mj;
            for (req, res) in batch.iter().zip(&results) {
                here.offered += 1;
                match res {
                    Ok(resp) => {
                        here.served += 1;
                        billed += resp.energy_mj;
                        let truth = top_k_nodes(&values, req.k);
                        let hits = resp.answer.iter().filter(|r| truth.contains(&r.node)).count();
                        let score = hits as f64 / req.k as f64;
                        out.check((0.0..=1.0).contains(&score), || {
                            format!("epoch {epoch}: request {} scored {score}", req.id)
                        });
                        if timed {
                            tally.accuracy += score;
                            if kind == Kind::Probed && !resp.cached {
                                log.sample("serve.plan", resp.plan_ms);
                            }
                        }
                    }
                    Err(ServiceError::Admit(AdmitError::EnergyExhausted { .. })) => {
                        here.energy_exhausted += 1
                    }
                    Err(ServiceError::Admit(AdmitError::BudgetBelowBand { .. })) => {
                        here.below_band += 1
                    }
                    Err(ServiceError::Admit(AdmitError::DeadlineExpired { .. })) => {
                        here.deadline += 1
                    }
                    Err(ServiceError::Plan(_)) => here.plan_failures += 1,
                    Err(ServiceError::InsufficientHistory { .. }) => here.cold += 1,
                    Err(ServiceError::Request(_) | ServiceError::NoEpoch) => {
                        here.other_rejected += 1
                    }
                }
            }
            out.check(here.served + here.rejected() + here.plan_failures == here.offered, || {
                format!(
                    "epoch {epoch}: served {} + rejected {} + plan failures {} != offered {} \
                     ({} accepted requests failed on a cold window)",
                    here.served,
                    here.rejected(),
                    here.plan_failures,
                    here.offered,
                    here.cold
                )
            });
            let stats = service.stats();
            out.check(
                stats.served - stats_before.served == here.served
                    && stats.rejected - stats_before.rejected == here.rejected()
                    && stats.plan_failures - stats_before.plan_failures == here.plan_failures,
                || format!("epoch {epoch}: service counters disagree with the typed responses"),
            );
            if timed {
                out.served += here.served;
                tally.outcomes.add(&here);
            }

            if let Some(stamp) = stamp.as_mut() {
                let recorded = stamp.take();
                if timed {
                    let origin = log.origin;
                    let parent =
                        log.span(epoch, "epoch.serve", None, started - origin, done - origin);
                    let (begin, end) = (started - origin, batch_at - origin);
                    log.span(epoch, "serve.begin_epoch", Some(parent), begin, end);
                    log.span(epoch, "serve.batch", Some(parent), end, done - origin);
                    tally.events += recorded.len() as u64;
                    if epoch % JSONL_EVERY == 0 {
                        log.sample("obs.jsonl", replay_jsonl(recorded).as_secs_f64() * 1e3);
                    }
                }
            }
        }

        let total = service.meter().total();
        out.check((total - billed).abs() <= 1e-9 * total.abs().max(1.0), || {
            format!("meter total {total} mJ != sweeps + responses {billed} mJ")
        });
        let cache = service.cache_stats();
        tally.energy_mj += total - energy_before;
        tally.cache_hits += cache.hits - cache_before.hits;
        tally.cache_lookups +=
            (cache.hits + cache.misses) - (cache_before.hits + cache_before.misses);
        out.setup_s.push(setup_s);
    }
}
