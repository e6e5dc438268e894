//! Campaign trial executors shared by the `divlab` CLI and the `divd`
//! daemon.
//!
//! Both front-ends run campaigns through [`run_engine_campaign`], which
//! hands [`div_sim::run_campaign_hooked`] the same per-engine executors,
//! so a campaign submitted to the daemon renders **byte-identically** to
//! the same campaign run locally.  There is exactly one implementation of
//! "run one trial" per [`Engine`], reached through [`TrialSetup::run`]:
//!
//! * [`Engine::Reference`] — the observable [`DivProcess`] baseline under
//!   the reference scheduler matching the compiled one;
//! * [`Engine::Fast`] — the compiled scalar [`FastProcess`];
//! * [`Engine::Batch`] — one lockstep [`BatchProcess`] stepping a whole
//!   lane group, bit-exact against the fast engine per lane;
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

use div_core::{
    BatchProcess, DivProcess, EdgeScheduler, FastProcess, FastRng, FastScheduler, FaultPlan,
    FaultStats, NullObserver, Observer, RunStatus, Scheduler, ShardedProcess, VertexScheduler,
};
use div_graph::Graph;
use div_sim::{
    run_campaign_hooked, CampaignConfig, CampaignError, CampaignHooks, CampaignMonitor,
    CampaignReport, FaultTotals, LaneGroups, SeedSequence, ShardHealth, TrialCtx, TrialOutcome,
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

    /// Runs the trials `ctxs` on `engine`, observer `l` watching trial
    /// `l`; pass [`NullObserver`]s to run unobserved.
    ///
    /// The batch engine steps `ctxs` as one lockstep group, seeding lane
    /// `l` with `ctxs[l].seed` so each lane is bit-exact against the fast
    /// engine's trial for the same context.  Observed groups under a
    /// non-trivial fault plan (the batch engine has no faulty observed
    /// path) run lane by lane on the fast engine instead — the same
    /// per-seed outcomes.  The other engines run `ctxs` one trial at
    /// a time; the sharded engine draws shard `p`'s stream from
    /// `SeedSequence::seed_for(ctx.seed, p)`.
    ///
    /// # Panics
    ///
    /// Panics unless there is exactly one observer per context.
    pub fn run<O: Observer>(
        &self,
        engine: Engine,
        ctxs: &[TrialCtx],
        observers: &mut [O],
    ) -> Vec<TrialRun> {
        assert_eq!(ctxs.len(), observers.len(), "one observer per trial");
        let lockstep = engine == Engine::Batch && (self.faults.is_trivial() || !O::ENABLED);
        if lockstep {
            return self.batch(ctxs, observers);
        }
        ctxs.iter()
            .zip(observers)
            .map(|(ctx, obs)| match engine {
                Engine::Reference => {
                    let mut rng = StdRng::seed_from_u64(ctx.seed);
                    self.reference(ctx.step_budget, &mut rng, obs)
                }
                Engine::Sharded if self.faults.is_trivial() => self.sharded(ctx, obs),
                _ => self.fast(ctx, obs),
            })
            .collect()
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

    fn batch<O: Observer>(&self, ctxs: &[TrialCtx], observers: &mut [O]) -> Vec<TrialRun> {
        let seeds: Vec<u64> = ctxs.iter().map(|c| c.seed).collect();
        let mut batch = BatchProcess::new(self.graph, self.opinions.to_vec(), self.kind, &seeds)
            .expect("validated setup");
        let budget = ctxs[0].step_budget;
        let (statuses, stats) = if self.faults.is_trivial() {
            let statuses = batch.run_observed(budget, self.engine_stride, observers);
            (statuses, None)
        } else {
            let (statuses, stats) = batch
                .run_faulty_to_consensus(budget, self.faults)
                .expect("validated setup");
            (statuses, Some(stats))
        };
        let runs: Vec<TrialRun> = statuses
            .into_iter()
            .enumerate()
            .map(|(l, status)| {
                let outcome = outcome_of(
                    status,
                    batch.is_two_adjacent(l),
                    batch.min_opinion(l),
                    batch.max_opinion(l),
                );
                self.finish(outcome, stats.as_ref().map(|s| s[l]))
            })
            .collect();
        if let Some(m) = self.monitor {
            m.set_lane_steps(runs.iter().map(|r| r.outcome.steps()).collect());
        }
        runs
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

/// A trial, or a lockstep group of trials, about to execute inside
/// [`run_engine_campaign`]; a campaign's `around` wrapper decides how to
/// run it (plain or observed) and may time it.
pub struct Pending<'a> {
    /// The engine the trials run on.
    pub engine: Engine,
    /// The trials: one for scalar engines, a lane group for batch.
    pub ctxs: &'a [TrialCtx],
    setup: &'a TrialSetup<'a>,
}

impl Pending<'_> {
    /// Runs the trials with one observer per trial.
    ///
    /// # Panics
    ///
    /// As [`TrialSetup::run`].
    pub fn run<O: Observer>(&self, observers: &mut [O]) -> Vec<TrialOutcome> {
        self.setup
            .run(self.engine, self.ctxs, observers)
            .into_iter()
            .map(|r| r.outcome)
            .collect()
    }

    /// Runs the trials unobserved.
    pub fn run_plain(&self) -> Vec<TrialOutcome> {
        self.run(&mut vec![NullObserver; self.ctxs.len()])
    }
}

/// Wraps every execution of a campaign run by [`run_engine_campaign`].
pub type Around<'a> = &'a (dyn Fn(Pending<'_>) -> Vec<TrialOutcome> + Sync);

/// Runs a campaign of `engine` trials on `setup` through the one
/// [`div_sim::run_campaign_hooked`] driver — the single engine-to-driver
/// dispatch behind `divlab campaign`, the `divlab compare` div row and
/// the `divd` daemon.
///
/// * The batch engine runs lane groups of `lanes` trials; a group that
///   panics retries trial by trial on the fast engine its lanes are
///   bit-exact against, so its report equals a fast campaign's.
/// * A sharded trial is parallel inside (`setup.shard_threads`
///   workers), so sharded trials run one at a time whatever
///   `cfg.threads` says.
/// * `lanes` is ignored by the other engines.
///
/// `around`, when given, receives every execution (a trial, a lockstep
/// group, or a demoted group's fallback trial, whose engine reads
/// [`Engine::Fast`]) and returns its outcomes; without it every
/// execution runs unobserved.
///
/// # Errors
///
/// As [`div_sim::run_campaign`].
///
/// # Panics
///
/// Panics if `engine` is [`Engine::Batch`] and `lanes == 0`.
pub fn run_engine_campaign(
    engine: Engine,
    setup: &TrialSetup<'_>,
    cfg: &CampaignConfig,
    lanes: usize,
    hooks: CampaignHooks<'_>,
    around: Option<Around<'_>>,
) -> Result<CampaignReport, CampaignError> {
    let exec = |engine: Engine, ctxs: &[TrialCtx]| {
        let pending = Pending {
            engine,
            ctxs,
            setup,
        };
        match around {
            Some(f) => f(pending),
            None => pending.run_plain(),
        }
    };
    let batched = engine == Engine::Batch;
    let group = |ctxs: &[TrialCtx]| exec(Engine::Batch, ctxs);
    let groups = batched.then_some(LaneGroups { lanes, run: &group });
    let trial_engine = if batched { Engine::Fast } else { engine };
    let trial = |ctx: &TrialCtx| {
        exec(trial_engine, std::slice::from_ref(ctx))
            .pop()
            .expect("one outcome per trial")
    };
    let cfg = CampaignConfig {
        threads: if engine == Engine::Sharded {
            1
        } else {
            cfg.threads
        },
        ..cfg.clone()
    };
    run_campaign_hooked(&cfg, hooks, groups, trial)
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
