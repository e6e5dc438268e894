//! Campaign trial executors shared by the `divlab` CLI and the `divd`
//! daemon.
//!
//! Both front-ends run campaigns through [`run_engine_campaign`], which
//! hands [`div_sim::run_campaign_pooled`] the same per-engine executors,
//! so a campaign submitted to the daemon renders **byte-identically** to
//! the same campaign run locally.  There is exactly one implementation of
//! "run one trial" per [`Engine`], reached through [`TrialSetup::run`]:
//!
//! * [`Engine::Reference`] — the observable [`DivProcess`] baseline under
//!   the reference scheduler matching the compiled one;
//! * [`Engine::Fast`] — the compiled scalar [`FastProcess`];
//! * [`Engine::Batch`] — [`BatchProcess`] lanes, bit-exact against the
//!   fast engine per lane; a campaign's lanes form one pool its workers
//!   share, refilled from the pending trials as lanes finish;
//! * [`Engine::Sharded`] — one [`ShardedProcess`] trial whose vertex
//!   domains step concurrently on std threads.
//!
//! Every executor is generic over an [`Observer`]; with [`NullObserver`]
//! the engines' observed entry points compile to their plain loops, so
//! observed and unobserved trials share one code path.  Executors take
//! the trial seed from the [`TrialCtx`] (never from ambient state),
//! publish fault counters, shard gauges and lane steps to the setup's
//! optional [`CampaignMonitor`], and map end states through
//! [`outcome_of`].

use std::fmt;
use std::sync::Mutex;
use std::time::Instant;

use div_core::{
    BatchLane, BatchProcess, DivProcess, EdgeScheduler, FastProcess, FastRng, FastScheduler,
    FaultPlan, FaultStats, NullObserver, Observer, RunStatus, Scheduler, ShardedProcess,
    VertexScheduler,
};
use div_graph::Graph;
use div_sim::{
    run_campaign_hooked, run_campaign_pooled, CampaignConfig, CampaignError, CampaignHooks,
    CampaignMonitor, CampaignReport, FaultTotals, LaneEngine, SeedSequence, ShardHealth, TrialCtx,
    TrialOutcome,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The simulation engines a campaign or single run can execute on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The observable [`DivProcess`] baseline.
    Reference,
    /// The compiled scalar [`FastProcess`].
    Fast,
    /// The lockstep multi-trial [`BatchProcess`].
    Batch,
    /// The domain-sharded [`ShardedProcess`].
    Sharded,
}

impl Engine {
    /// Every engine, in the order help text lists them.
    pub const ALL: [Engine; 4] = [
        Engine::Reference,
        Engine::Fast,
        Engine::Batch,
        Engine::Sharded,
    ];

    /// The engine's name on command lines and in job specs, checkpoint
    /// tags, span arguments and metric labels.
    pub fn name(self) -> &'static str {
        match self {
            Engine::Reference => "reference",
            Engine::Fast => "fast",
            Engine::Batch => "batch",
            Engine::Sharded => "sharded",
        }
    }

    /// The engine called `name`, if any.
    pub fn parse(name: &str) -> Option<Engine> {
        Engine::ALL.into_iter().find(|e| e.name() == name)
    }

    /// `"a, b or c"` over the engines' names, for error messages.
    pub fn list(engines: &[Engine]) -> String {
        let names: Vec<&str> = engines.iter().map(|e| e.name()).collect();
        match names.split_last() {
            Some((last, rest)) if !rest.is_empty() => format!("{} or {last}", rest.join(", ")),
            _ => names.concat(),
        }
    }
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Parses a scheduler name (`edge` or `vertex`) into the compiled
/// scheduler the fast, batch and sharded engines run; the reference
/// engine runs its reference counterpart.
///
/// # Errors
///
/// Names anything else.
pub fn parse_scheduler(name: &str) -> Result<FastScheduler, String> {
    [FastScheduler::Edge, FastScheduler::Vertex]
        .into_iter()
        .find(|k| k.label() == name)
        .ok_or_else(|| format!("unknown scheduler {name:?} (use edge or vertex)"))
}

/// Whether an initial opinion vector is wider than the engines' span
/// limit of 2²⁴ values, which every engine (batch lanes included)
/// shares.  The spec parsers reject such vectors, so a validated input
/// never trips this.
pub fn exceeds_lane_span(opinions: &[i64]) -> bool {
    match (opinions.iter().min(), opinions.iter().max()) {
        (Some(&lo), Some(&hi)) => hi.abs_diff(lo) >= 1 << 24,
        _ => false,
    }
}

/// Maps a bounded run's end state to the campaign outcome taxonomy.
pub fn outcome_of(status: RunStatus, two_adjacent: bool, low: i64, high: i64) -> TrialOutcome {
    match status {
        RunStatus::Consensus { opinion, steps } => TrialOutcome::Converged {
            winner: opinion,
            steps,
        },
        RunStatus::TwoAdjacent { low, high, steps } => {
            TrialOutcome::TwoAdjacent { low, high, steps }
        }
        RunStatus::StepLimit { steps } if two_adjacent => {
            TrialOutcome::TwoAdjacent { low, high, steps }
        }
        RunStatus::StepLimit { steps } => TrialOutcome::Timeout { steps },
    }
}

/// Adds a trial's fault counters to the live monitor, if one is attached.
pub fn publish_faults(monitor: Option<&CampaignMonitor>, stats: &FaultStats) {
    if let Some(m) = monitor {
        m.add_faults(&FaultTotals {
            delivered: stats.delivered,
            dropped: stats.dropped,
            suppressed: stats.suppressed,
            stale_reads: stats.stale_reads,
            noisy: stats.noisy,
            crash_events: stats.crash_events,
        });
    }
}

/// One executed trial.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialRun {
    /// How the trial ended.
    pub outcome: TrialOutcome,
    /// The fault counters, when the setup's fault plan is non-trivial.
    pub faults: Option<FaultStats>,
}

/// One campaign's trial inputs: everything an executor needs besides the
/// trial's seed and step budget.
///
/// Inputs are validated by whoever builds the setup (normally
/// [`CampaignSpec`](crate::spec::CampaignSpec)'s `build` and `campaign`:
/// graph connectivity, the fault plan against the opinions, `shards`
/// against the graph); executors treat a violation as a bug and panic,
/// which the campaign driver records as a [`TrialOutcome::Panicked`]
/// slot.
#[derive(Clone, Copy)]
pub struct TrialSetup<'a> {
    /// The interaction graph.
    pub graph: &'a Graph,
    /// The initial opinions.
    pub opinions: &'a [i64],
    /// The compiled scheduler (the reference engine runs its reference
    /// counterpart).
    pub kind: FastScheduler,
    /// The fault plan.  The sharded engine has no fault pipeline: it
    /// runs non-trivial plans on the fast engine instead.
    pub faults: &'a FaultPlan,
    /// Sharded engine: vertex domains per trial.  The trajectory is a
    /// pure function of `(seed, shards)`.
    pub shards: usize,
    /// Sharded engine: in-trial worker threads (0 = available
    /// parallelism); never changes a trajectory.
    pub shard_threads: usize,
    /// Reference and fast engines: observer sampling stride in steps.
    pub stride: u64,
    /// Batch and sharded engines: observer sampling lattice, rounded up
    /// to whole blocks or rounds (0 = the engine's own default).
    pub engine_stride: u64,
    /// Live monitor receiving fault counters, shard gauges and lane
    /// steps.
    pub monitor: Option<&'a CampaignMonitor>,
}

impl<'a> TrialSetup<'a> {
    /// A setup with the default knobs: 4 shards on all available
    /// threads, scalar samples every 64 steps, the batch/sharded engines'
    /// own sampling lattice, and no monitor.
    pub fn new(
        graph: &'a Graph,
        opinions: &'a [i64],
        kind: FastScheduler,
        faults: &'a FaultPlan,
    ) -> TrialSetup<'a> {
        TrialSetup {
            graph,
            opinions,
            kind,
            faults,
            shards: 4,
            shard_threads: 0,
            stride: 64,
            engine_stride: 0,
            monitor: None,
        }
    }

    /// Runs trial `ctx` on `engine`, watched by `obs`; pass
    /// [`NullObserver`] to run it unobserved.
    ///
    /// The batch engine runs the trial as a one-lane batch seeded with
    /// `ctx.seed`, bit-exact against the fast engine's trial for the same
    /// context.  Under a non-trivial fault plan a batch lane runs the
    /// fast engine's own faulty lane code, so a lone faulty trial runs on
    /// the fast engine — the same outcome and fault counters.  The
    /// sharded engine draws shard `p`'s stream from
    /// `SeedSequence::seed_for(ctx.seed, p)`.
    pub fn run<O: Observer>(&self, engine: Engine, ctx: &TrialCtx, obs: &mut O) -> TrialRun {
        match engine {
            Engine::Reference => {
                let mut rng = StdRng::seed_from_u64(ctx.seed);
                self.reference(ctx.step_budget, &mut rng, obs)
            }
            Engine::Batch if self.faults.is_trivial() => self.batch(ctx, obs),
            Engine::Sharded if self.faults.is_trivial() => self.sharded(ctx, obs),
            _ => self.fast(ctx, obs),
        }
    }

    /// One reference-engine trial drawing from `rng` — public so single
    /// runs can keep drawing from the command's own RNG stream.
    pub fn reference<O: Observer>(&self, budget: u64, rng: &mut StdRng, obs: &mut O) -> TrialRun {
        match self.kind {
            FastScheduler::Vertex => self.reference_under(VertexScheduler::new(), budget, rng, obs),
            _ => self.reference_under(EdgeScheduler::new(), budget, rng, obs),
        }
    }

    fn reference_under<S: Scheduler, O: Observer>(
        &self,
        scheduler: S,
        budget: u64,
        rng: &mut StdRng,
        obs: &mut O,
    ) -> TrialRun {
        let mut p = DivProcess::new(self.graph, self.opinions.to_vec(), scheduler)
            .expect("validated setup");
        let mut session = self.faults.session(self.opinions).expect("validated setup");
        let status = p.run_faulty_observed(budget, &mut session, rng, self.stride, obs);
        let s = p.state();
        let outcome = outcome_of(
            status,
            s.is_two_adjacent(),
            s.min_opinion(),
            s.max_opinion(),
        );
        self.finish(outcome, Some(*session.stats()))
    }

    fn fast<O: Observer>(&self, ctx: &TrialCtx, obs: &mut O) -> TrialRun {
        let mut rng = FastRng::seed_from_u64(ctx.seed);
        let mut p = FastProcess::new(self.graph, self.opinions.to_vec(), self.kind)
            .expect("validated setup");
        let (status, stats) = if self.faults.is_trivial() {
            let status = p.run_observed(ctx.step_budget, &mut rng, self.stride, obs);
            (status, None)
        } else {
            let mut session = self.faults.session(self.opinions).expect("validated setup");
            let status =
                p.run_faulty_observed(ctx.step_budget, &mut session, &mut rng, self.stride, obs);
            (status, Some(*session.stats()))
        };
        let outcome = outcome_of(
            status,
            p.is_two_adjacent(),
            p.min_opinion(),
            p.max_opinion(),
        );
        self.finish(outcome, stats)
    }

    fn batch<O: Observer>(&self, ctx: &TrialCtx, obs: &mut O) -> TrialRun {
        let mut batch =
            BatchProcess::new(self.graph, self.opinions.to_vec(), self.kind, &[ctx.seed])
                .expect("validated setup");
        let status = batch.run_observed(ctx.step_budget, self.engine_stride, &mut [obs])[0];
        let outcome = outcome_of(
            status,
            batch.is_two_adjacent(0),
            batch.min_opinion(0),
            batch.max_opinion(0),
        );
        if let Some(m) = self.monitor {
            m.set_lane_steps(vec![outcome.steps()]);
        }
        self.finish(outcome, None)
    }

    fn sharded<O: Observer>(&self, ctx: &TrialCtx, obs: &mut O) -> TrialRun {
        let shard_seeds: Vec<u64> = (0..self.shards as u64)
            .map(|p| SeedSequence::seed_for(ctx.seed, p))
            .collect();
        let mut p =
            ShardedProcess::new(self.graph, self.opinions.to_vec(), self.kind, &shard_seeds)
                .expect("validated setup");
        let status = p.run_observed(ctx.step_budget, self.shard_threads, self.engine_stride, obs);
        if let Some(m) = self.monitor {
            m.set_shard_health(
                p.shard_gauges()
                    .iter()
                    .map(|g| ShardHealth {
                        shard: g.shard,
                        weight: g.weight,
                        edge_cut: g.edge_cut,
                        steps: g.steps,
                        round_lag: g.round_lag,
                    })
                    .collect(),
            );
        }
        let outcome = outcome_of(
            status,
            p.is_two_adjacent(),
            p.min_opinion(),
            p.max_opinion(),
        );
        self.finish(outcome, None)
    }

    /// Publishes a finished trial's fault counters (non-trivial plans
    /// only) and packages the run.
    fn finish(&self, outcome: TrialOutcome, faults: Option<FaultStats>) -> TrialRun {
        let faults = faults.filter(|_| !self.faults.is_trivial());
        if let Some(stats) = &faults {
            publish_faults(self.monitor, stats);
        }
        TrialRun { outcome, faults }
    }
}

/// How a campaign run by [`run_engine_campaign`] watches each trial.
///
/// A trial starts when a batch lane is loaded with it, or when a scalar
/// execution of it begins (a demoted lane's retry chain reads
/// [`Engine::Fast`]), and finishes when its outcome is known — so
/// per-trial intervals run from lane load to lane finish.  Every trial
/// runs under its own `Obs`; with [`NullObserver`] the engines run their
/// plain loops.
pub trait Watch: Sync {
    /// The observer each trial runs under.
    type Obs: Observer + Send;

    /// Trial `ctx` starts on `engine`; returns its observer.
    fn start(&self, engine: Engine, ctx: &TrialCtx) -> Self::Obs;

    /// Trial `ctx` finished on `engine` with `outcome`; `obs` has seen its
    /// last event.
    fn finish(&self, engine: Engine, ctx: &TrialCtx, obs: Self::Obs, outcome: &TrialOutcome);
}

/// The watch that runs every trial unobserved.
#[derive(Debug, Clone, Copy, Default)]
pub struct Unwatched;

impl Watch for Unwatched {
    type Obs = NullObserver;

    fn start(&self, _engine: Engine, _ctx: &TrialCtx) -> NullObserver {
        NullObserver
    }

    fn finish(&self, _: Engine, _: &TrialCtx, _: NullObserver, _: &TrialOutcome) {}
}

impl TrialSetup<'_> {
    /// One trial on `engine`, watched by `watch`.
    fn watched<W: Watch>(&self, engine: Engine, ctx: &TrialCtx, watch: &W) -> TrialOutcome {
        let mut obs = watch.start(engine, ctx);
        let run = self.run(engine, ctx, &mut obs);
        watch.finish(engine, ctx, obs, &run.outcome);
        run.outcome
    }
}

/// Runs a campaign of `engine` trials on `setup` through the one
/// [`div_sim::run_campaign_pooled`] driver — the single engine-to-driver
/// dispatch behind `divlab campaign`, the `divlab compare` div row and
/// the `divd` daemon.
///
/// * Batch campaigns share one lane pool ([`BatchPool`]): each worker
///   steps up to `lanes` lanes per block, a finished lane reports at
///   once and takes the next pending trial, and workers claim lanes one
///   block at a time, so no lane idles behind a slow one.  A block that
///   panics demotes its trials to the fast engine's retry chain, which
///   the lanes are bit-exact against, so the report equals a fast
///   campaign's.  Observed under a non-trivial fault plan (the batch
///   engine has no faulty observed path) the trials run on the fast
///   engine instead.
/// * A sharded trial is parallel inside (`setup.shard_threads`
///   workers), so sharded trials run one at a time whatever
///   `cfg.threads` says.
/// * `lanes` is ignored by the other engines.
///
/// `watch` sees every trial start and finish (see [`Watch`]).
///
/// # Errors
///
/// As [`div_sim::run_campaign`].
///
/// # Panics
///
/// Panics if `engine` is [`Engine::Batch`] and `lanes == 0`.
pub fn run_engine_campaign<W: Watch>(
    engine: Engine,
    setup: &TrialSetup<'_>,
    cfg: &CampaignConfig,
    lanes: usize,
    hooks: CampaignHooks<'_>,
    watch: &W,
) -> Result<CampaignReport, CampaignError> {
    assert!(
        engine != Engine::Batch || lanes > 0,
        "need at least one lane per group"
    );
    let cfg = CampaignConfig {
        threads: if engine == Engine::Sharded {
            1
        } else {
            cfg.threads
        },
        ..cfg.clone()
    };
    let trial_on = |engine: Engine| move |ctx: &TrialCtx| setup.watched(engine, ctx, watch);
    if engine == Engine::Batch && (setup.faults.is_trivial() || !W::Obs::ENABLED) {
        let pool = BatchPool::new(setup, watch, lanes);
        return run_campaign_pooled(&cfg, hooks, &pool, trial_on(Engine::Fast));
    }
    run_campaign_hooked(&cfg, hooks, trial_on(engine))
}

/// The batch engine as a campaign's shared lane pool (see
/// [`LaneEngine`]): pool lanes are [`BatchLane`]s, and a block swaps the
/// claimed lanes into a worker batch, steps them and swaps them back out.
///
/// Fault-free lanes step one block at a time with
/// [`BatchProcess::step_block`], up to `lanes` of them together (in AVX2
/// groups of four where the kernel tier accelerates the sampler).  A
/// faulty lane runs the fast engine's faulty lane code to its end in one
/// block, one lane at a time, on the worker batch's compiled sampler.
/// Its observer sees only its start and finish samples: the batch engine
/// has no faulty observed path, so [`run_engine_campaign`] runs observed
/// faulty trials on the fast engine.
pub struct BatchPool<'a, W: Watch> {
    setup: &'a TrialSetup<'a>,
    watch: &'a W,
    /// Lanes one block steps: `lanes`, or one under a fault plan.
    group: usize,
    /// Worker batches between blocks, each with `group` lanes.
    idle: Mutex<Vec<BatchProcess<'a>>>,
}

/// One trial in a [`BatchPool`].
pub struct PoolLane<O> {
    ctx: TrialCtx,
    lane: BatchLane,
    /// Loaded but not yet reloaded into a batch: its first block starts
    /// it.
    fresh: bool,
    /// Taken when the trial finishes.
    obs: Option<O>,
    loaded: Instant,
}

impl<'a, W: Watch> BatchPool<'a, W> {
    /// The pool of a batch campaign on `setup`, stepping up to `lanes`
    /// lanes per block, whose trials `watch` sees start and finish.
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0`.
    pub fn new(setup: &'a TrialSetup<'a>, watch: &'a W, lanes: usize) -> Self {
        assert!(lanes > 0, "need at least one lane per group");
        BatchPool {
            setup,
            watch,
            group: if setup.faults.is_trivial() { lanes } else { 1 },
            idle: Mutex::new(Vec::new()),
        }
    }

    /// Lane `j` of `batch` finished: its outcome, after the observer's
    /// finish sample, the fault counters' publication and the watch's
    /// `finish`.
    fn finish(
        &self,
        batch: &BatchProcess<'_>,
        j: usize,
        lane: &mut PoolLane<W::Obs>,
        faults: Option<FaultStats>,
    ) -> TrialOutcome {
        let outcome = outcome_of(
            batch.status(j),
            batch.is_two_adjacent(j),
            batch.min_opinion(j),
            batch.max_opinion(j),
        );
        let outcome = self.setup.finish(outcome, faults).outcome;
        let mut obs = lane.obs.take().expect("a running lane has its observer");
        if W::Obs::ENABLED {
            obs.on_finish(&batch.telemetry_sample(j), lane.loaded.elapsed());
        }
        self.watch.finish(Engine::Batch, &lane.ctx, obs, &outcome);
        outcome
    }

    /// One block over the lanes swapped into `batch` (lane `j` of the
    /// batch is `lanes[j]`).
    fn step_clean(
        &self,
        batch: &mut BatchProcess<'_>,
        lanes: &mut [PoolLane<W::Obs>],
    ) -> Vec<Option<TrialOutcome>> {
        let lattice = batch.sample_lattice(self.setup.engine_stride);
        let mut results: Vec<Option<TrialOutcome>> = vec![None; lanes.len()];
        let mut active = Vec::with_capacity(lanes.len());
        for (j, p) in lanes.iter_mut().enumerate() {
            if p.fresh {
                p.fresh = false;
                batch.reload(j, p.ctx.seed);
                if W::Obs::ENABLED {
                    p.obs.on_start(&batch.telemetry_sample(j));
                }
                if batch.is_consensus(j) || p.ctx.step_budget == 0 {
                    results[j] = Some(self.finish(batch, j, p, None));
                    continue;
                }
            }
            active.push(j);
        }
        // One block, cut short for a lane whose budget or next sample
        // falls inside it.
        let b = (active.iter())
            .map(|&j| {
                let (steps, p) = (batch.steps(j), &lanes[j]);
                let room = p.ctx.step_budget - steps;
                if W::Obs::ENABLED {
                    room.min(lattice - steps % lattice)
                } else {
                    room
                }
            })
            .fold(batch.block_steps(), u64::min);
        // Unobserved pools share the plain run's block step.
        let stopped = if W::Obs::ENABLED {
            let mut observers: Vec<&mut Option<W::Obs>> =
                lanes.iter_mut().map(|p| &mut p.obs).collect();
            batch.step_block(&active, b, 0, &mut observers)
        } else {
            batch.step_block(&active, b, 0, &mut [NullObserver; 0])
        };
        for &j in &active {
            let p = &mut lanes[j];
            if !stopped.contains(&j) {
                let steps = batch.steps(j);
                if W::Obs::ENABLED && steps.is_multiple_of(lattice) {
                    p.obs.on_sample(&batch.telemetry_sample(j));
                }
                if steps < p.ctx.step_budget {
                    continue;
                }
            }
            results[j] = Some(self.finish(batch, j, p, None));
        }
        results
    }

    /// Runs each lane swapped into `batch` to its end under the fault
    /// plan.
    fn run_faulty(
        &self,
        batch: &mut BatchProcess<'_>,
        lanes: &mut [PoolLane<W::Obs>],
    ) -> Vec<Option<TrialOutcome>> {
        (lanes.iter_mut().enumerate())
            .map(|(j, p)| {
                p.fresh = false;
                batch.reload(j, p.ctx.seed);
                if W::Obs::ENABLED {
                    p.obs.on_start(&batch.telemetry_sample(j));
                }
                let (_, stats) = batch
                    .run_faulty_lane_to_consensus(j, p.ctx.step_budget, self.setup.faults)
                    .expect("validated setup");
                Some(self.finish(batch, j, p, Some(stats)))
            })
            .collect()
    }
}

impl<W: Watch> LaneEngine for BatchPool<'_, W> {
    type Lane = PoolLane<W::Obs>;

    fn group(&self) -> usize {
        self.group
    }

    fn load(&self, ctx: &TrialCtx, recycled: Option<Self::Lane>) -> Self::Lane {
        PoolLane {
            ctx: *ctx,
            lane: recycled.map(|p| p.lane).unwrap_or_default(),
            fresh: true,
            obs: Some(self.watch.start(Engine::Batch, ctx)),
            loaded: Instant::now(),
        }
    }

    fn step(&self, lanes: &mut [Self::Lane]) -> Vec<Option<TrialOutcome>> {
        let idle = self.idle.lock().expect("pool batches").pop();
        let setup = self.setup;
        let mut batch = idle.unwrap_or_else(|| {
            let seeds = vec![0; self.group];
            BatchProcess::new(setup.graph, setup.opinions.to_vec(), setup.kind, &seeds)
                .expect("validated setup")
        });
        for (j, p) in lanes.iter_mut().enumerate() {
            batch.swap_lane(j, &mut p.lane);
        }
        let results = if setup.faults.is_trivial() {
            self.step_clean(&mut batch, lanes)
        } else {
            self.run_faulty(&mut batch, lanes)
        };
        if let Some(m) = setup.monitor {
            if results.iter().any(Option::is_some) {
                m.set_lane_steps((0..lanes.len()).map(|j| batch.steps(j)).collect());
            }
        }
        for (j, p) in lanes.iter_mut().enumerate() {
            batch.swap_lane(j, &mut p.lane);
        }
        self.idle.lock().expect("pool batches").push(batch);
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_names_round_trip() {
        for engine in Engine::ALL {
            assert_eq!(Engine::parse(engine.name()), Some(engine));
            assert_eq!(engine.to_string(), engine.name());
        }
        assert_eq!(Engine::parse("warp"), None);
        assert_eq!(
            Engine::list(&Engine::ALL),
            "reference, fast, batch or sharded"
        );
        assert_eq!(Engine::list(&[Engine::Fast]), "fast");
    }

    #[test]
    fn schedulers_parse_to_compiled_kinds() {
        assert_eq!(parse_scheduler("edge"), Ok(FastScheduler::Edge));
        assert_eq!(parse_scheduler("vertex"), Ok(FastScheduler::Vertex));
        assert!(parse_scheduler("maybe")
            .unwrap_err()
            .contains("use edge or vertex"));
    }
}
