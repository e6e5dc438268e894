//! In-process campaigns with a timer around every call into a layer.
//!
//! The traced run and the divd output check both execute campaigns here,
//! through the same public entry points `divlab` and `divd` use: the
//! graph/opinion spec parsers, the engines' constructors and run loops,
//! `div_sim`'s campaign drivers and `CampaignReport::render`.  The reports
//! must come out byte-identical to the programs' own, which is what shows
//! the timed work is the measured work.

use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use div_bench::spec;
use div_bench::trial::{exceeds_lane_span, outcome_of};
use div_core::{BatchProcess, FastProcess, FastRng, FastScheduler, FaultPlan, ShardedProcess};
use div_graph::Graph;
use div_sim::{
    run_campaign, run_campaign_batched, CampaignConfig, SeedSequence, TrialCtx, TrialOutcome,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::metrics::Recorded;
use div_sim::stats::median;

/// One campaign, as `divlab campaign` flags or a divd job spec describe it.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Graph spec.
    pub graph: String,
    /// Opinion spec.
    pub init: String,
    /// `edge` or `vertex`.
    pub scheduler: String,
    /// `fast`, `batch` or `sharded`.
    pub engine: String,
    /// Fault spec (`none` for the empty plan).
    pub faults: String,
    /// Master seed (also seeds graph and opinion generation).
    pub seed: u64,
    /// Trial count.
    pub trials: usize,
    /// Per-trial step budget.
    pub budget: u64,
    /// Batch lane-group width.
    pub lanes: usize,
    /// Sharded-engine domain count.
    pub shards: usize,
    /// Campaign workers (batch/fast) or in-trial threads (sharded).
    pub threads: usize,
    /// Checkpoint manifest, when the campaign checkpoints.
    pub checkpoint: Option<PathBuf>,
    /// Trials between checkpoint flushes.
    pub checkpoint_every: usize,
}

/// Samples of one run's layer timers, shared by the campaign's worker
/// threads.
#[derive(Debug, Default)]
pub struct Layers(Mutex<Samples>);

#[derive(Debug, Default)]
struct Samples {
    graph_build_s: Vec<f64>,
    connectivity_s: Vec<f64>,
    compile_us: Vec<f64>,
    compile_s: f64,
    run_s: f64,
    lane_steps: u64,
    group_steps: u64,
    group_capacity: u64,
    busy_s: f64,
    worker_s: f64,
    render_ms: Vec<f64>,
    edge_cut_frac: Option<f64>,
}

/// One engine execution: a scalar trial, a lockstep group or a sharded
/// trial.
struct EngineRun {
    compile: Duration,
    run: Duration,
    total: Duration,
    outcomes_steps: Vec<u64>,
    lockstep: bool,
}

impl Layers {
    fn with<T>(&self, f: impl FnOnce(&mut Samples) -> T) -> T {
        f(&mut self.0.lock().expect("layer samples are never poisoned"))
    }

    fn engine(&self, r: EngineRun) {
        self.with(|s| {
            s.compile_us.push(r.compile.as_secs_f64() * 1e6);
            s.compile_s += r.compile.as_secs_f64();
            s.run_s += r.run.as_secs_f64();
            s.busy_s += r.total.as_secs_f64();
            let steps: u64 = r.outcomes_steps.iter().sum();
            s.lane_steps += steps;
            if r.lockstep {
                let max = r.outcomes_steps.iter().copied().max().unwrap_or(0);
                s.group_steps += steps;
                s.group_capacity += max * r.outcomes_steps.len() as u64;
            }
        });
    }

    /// Total engine run time over lane steps so far, in seconds per step.
    pub fn run_s_per_step(&self) -> f64 {
        self.with(|s| s.run_s / s.lane_steps.max(1) as f64)
    }

    /// Records the graph, engine and campaign layer metrics.
    pub fn record(&self, out: &mut Recorded) {
        self.with(|s| {
            out.set("graph.build_s", median(&s.graph_build_s));
            out.set("graph.connectivity_s", median(&s.connectivity_s));
            out.set("engine.compile_us_p50", median(&s.compile_us));
            out.set("engine.compile_frac", s.compile_s / (s.compile_s + s.run_s));
            out.set(
                "engine.ns_per_step",
                s.run_s * 1e9 / s.lane_steps.max(1) as f64,
            );
            // Scalar engines waste no lanes; the ratio only drops below 1
            // where lockstep groups wait on their slowest lane.
            let occupancy = if s.group_capacity == 0 {
                1.0
            } else {
                s.group_steps as f64 / s.group_capacity as f64
            };
            out.set("batch.lane_occupancy", occupancy);
            out.set("shard.edge_cut_frac", s.edge_cut_frac.unwrap_or(0.0));
            out.set("campaign.busy_frac", s.busy_s / s.worker_s);
            out.set("campaign.render_ms", median(&s.render_ms));
        });
    }
}

/// Built campaign inputs.
struct Input {
    graph: Graph,
    opinions: Vec<i64>,
    kind: FastScheduler,
    faults: FaultPlan,
}

impl Input {
    /// Derives graph and opinions from the seed exactly as `divlab` and
    /// `JobSpec::build` do: one `StdRng`, graph first, then opinions.
    fn build(c: &Campaign, layers: &Layers) -> Result<Input, String> {
        let mut rng = StdRng::seed_from_u64(c.seed);
        let t = Instant::now();
        let graph = spec::parse_graph(&c.graph, &mut rng)?;
        let built = t.elapsed();
        let t = Instant::now();
        let connected = div_graph::algo::is_connected(&graph);
        let checked = t.elapsed();
        layers.with(|s| {
            s.graph_build_s.push(built.as_secs_f64());
            s.connectivity_s.push(checked.as_secs_f64());
        });
        if !connected {
            return Err(format!("graph {:?} is not connected", c.graph));
        }
        let opinions = spec::parse_opinions(&c.init, graph.num_vertices(), &mut rng)?;
        let kind = match c.scheduler.as_str() {
            "edge" => FastScheduler::Edge,
            "vertex" => FastScheduler::Vertex,
            other => return Err(format!("unknown scheduler {other:?}")),
        };
        let faults = FaultPlan::parse(&c.faults)?;
        Ok(Input {
            graph,
            opinions,
            kind,
            faults,
        })
    }
}

/// Runs `c` to its rendered report; returns the report and the wall
/// time from input generation to the rendered text.
///
/// # Errors
///
/// Bad specs, an unknown engine, or a checkpoint failure.
pub fn run(c: &Campaign, layers: &Layers) -> Result<(String, f64), String> {
    let start = Instant::now();
    let input = Input::build(c, layers)?;
    let mut cfg = CampaignConfig::new(c.trials, c.seed);
    cfg.step_budget = c.budget;
    cfg.checkpoint = c.checkpoint.clone();
    cfg.checkpoint_every = c.checkpoint_every;
    // As in divlab: sharded trials are parallel inside, so they run one
    // at a time and `threads` goes to the engine instead.
    cfg.threads = if c.engine == "sharded" { 1 } else { c.threads };
    let units = match c.engine.as_str() {
        "batch" => c.trials.div_ceil(c.lanes),
        _ => c.trials,
    };
    let threads = match cfg.threads {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        t => t,
    };
    let workers = threads.min(units).max(1);

    let driver = Instant::now();
    let report = match c.engine.as_str() {
        "batch" => run_campaign_batched(
            &cfg,
            c.lanes,
            |ctxs| batch_group(&input, ctxs, layers),
            |ctx| fast_trial(&input, ctx, layers),
        ),
        "fast" => run_campaign(&cfg, |ctx| fast_trial(&input, ctx, layers)),
        "sharded" => run_campaign(&cfg, |ctx| {
            sharded_trial(&input, c.shards, c.threads, ctx, layers)
        }),
        other => return Err(format!("engine {other:?} is not benchmarked")),
    }
    .map_err(|e| e.to_string())?;
    let driver_s = driver.elapsed().as_secs_f64();

    let t = Instant::now();
    let text = report.render();
    let render = t.elapsed();
    layers.with(|s| {
        s.worker_s += driver_s * workers as f64;
        s.render_ms.push(render.as_secs_f64() * 1e3);
    });
    Ok((text, start.elapsed().as_secs_f64()))
}

fn fast_trial(input: &Input, ctx: &TrialCtx, layers: &Layers) -> TrialOutcome {
    let t = Instant::now();
    let mut rng = FastRng::seed_from_u64(ctx.seed);
    let mut p = FastProcess::new(&input.graph, input.opinions.clone(), input.kind)
        .expect("inputs validated by the spec parsers");
    let compile = t.elapsed();
    let status = if input.faults.is_trivial() {
        p.run_to_consensus(ctx.step_budget, &mut rng)
    } else {
        let mut session = input
            .faults
            .session(&input.opinions)
            .expect("fault plan fits the opinions");
        p.run_faulty_to_consensus(ctx.step_budget, &mut session, &mut rng)
    };
    let run = t.elapsed() - compile;
    let outcome = outcome_of(
        status,
        p.is_two_adjacent(),
        p.min_opinion(),
        p.max_opinion(),
    );
    layers.engine(EngineRun {
        compile,
        run,
        total: t.elapsed(),
        outcomes_steps: vec![outcome.steps()],
        lockstep: false,
    });
    outcome
}

fn batch_group(input: &Input, ctxs: &[TrialCtx], layers: &Layers) -> Vec<TrialOutcome> {
    if exceeds_lane_span(&input.opinions) {
        return ctxs.iter().map(|c| fast_trial(input, c, layers)).collect();
    }
    let t = Instant::now();
    let seeds: Vec<u64> = ctxs.iter().map(|c| c.seed).collect();
    let mut batch = BatchProcess::new(&input.graph, input.opinions.clone(), input.kind, &seeds)
        .expect("inputs validated by the spec parsers");
    let compile = t.elapsed();
    let budget = ctxs[0].step_budget;
    let statuses = if input.faults.is_trivial() {
        batch.run_to_consensus(budget)
    } else {
        batch
            .run_faulty_to_consensus(budget, &input.faults)
            .expect("fault plan fits the opinions")
            .0
    };
    let run = t.elapsed() - compile;
    let outcomes: Vec<TrialOutcome> = statuses
        .into_iter()
        .enumerate()
        .map(|(l, status)| {
            outcome_of(
                status,
                batch.is_two_adjacent(l),
                batch.min_opinion(l),
                batch.max_opinion(l),
            )
        })
        .collect();
    layers.engine(EngineRun {
        compile,
        run,
        total: t.elapsed(),
        outcomes_steps: outcomes.iter().map(TrialOutcome::steps).collect(),
        lockstep: true,
    });
    outcomes
}

fn sharded_trial(
    input: &Input,
    shards: usize,
    threads: usize,
    ctx: &TrialCtx,
    layers: &Layers,
) -> TrialOutcome {
    let t = Instant::now();
    let seeds: Vec<u64> = (0..shards as u64)
        .map(|p| SeedSequence::seed_for(ctx.seed, p))
        .collect();
    let mut p = ShardedProcess::new(&input.graph, input.opinions.clone(), input.kind, &seeds)
        .expect("inputs validated by the spec parsers");
    let compile = t.elapsed();
    let status = p.run_to_consensus(ctx.step_budget, threads);
    let run = t.elapsed() - compile;
    // Each cut edge has one endpoint in each of two domains.
    let cut: u64 = p.shard_gauges().iter().map(|g| g.edge_cut).sum();
    let outcome = outcome_of(
        status,
        p.is_two_adjacent(),
        p.min_opinion(),
        p.max_opinion(),
    );
    layers.with(|s| s.edge_cut_frac = Some(cut as f64 / (2 * input.graph.num_edges()) as f64));
    layers.engine(EngineRun {
        compile,
        run,
        total: t.elapsed(),
        outcomes_steps: vec![outcome.steps()],
        lockstep: false,
    });
    outcome
}
