//! Machine-readable step-throughput smoke benchmark.
//!
//! Measures ns/step of the reference path (`DivProcess` + `StdRng`) and
//! the compiled engine (`FastProcess` + `FastRng`) for the DIV vertex and
//! edge processes on `complete_1k` and `regular8_1k`, and writes the
//! results (including the speedup ratios) to `BENCH_step_throughput.json`.
//!
//! ```text
//! perf_smoke [--steps N] [--out PATH] [--check-overhead]
//! ```
//!
//! The acceptance bar tracked by this file is a ≥ 3× ns/step improvement
//! of the fast engine over the reference path for both processes on both
//! graphs.
//!
//! A second acceptance bar guards the observability layer:
//!
//! - stepping the fast engine through the observed entry point with the
//!   disabled [`NullObserver`] must cost within 5% of the plain entry
//!   point, for **both** the edge and the vertex process (the no-op path
//!   is provably free) — on `regular8_1k`, the sparse case where
//!   per-step work is smallest and any fixed overhead shows up largest;
//! - publishing per-trial counts to a live [`CampaignMonitor`] (as
//!   `divlab --serve` does) must also cost within 5% of unmonitored runs;
//! - the batch engine (`K = 8` lanes) and the sharded engine (`P = 8`
//!   domains) driven through their `run_observed` entry points with an
//!   *enabled* sampling observer at the engines' native lattices (block
//!   boundaries / round boundaries) must each cost within 5% of the
//!   plain runs — native sampling is designed to live off the hot loop.
//!
//! The comparisons are relative and in-process, so they are
//! machine-independent; `--check-overhead` runs only these checks and
//! exits nonzero if any arm fails.  `--check-overhead --against OLD.json`
//! instead re-validates the arms *recorded* in an existing BENCH file
//! without re-measuring; arms a schema-older file does not record are
//! skipped with a note rather than erroring, so the check keeps working
//! against BENCH files written before an arm existed.
//!
//! A third section benchmarks the lockstep batch engine
//! ([`div_core::BatchProcess`]): a fixed seeded campaign (32 trials,
//! edge process) is run once trial-by-trial through the scalar fast
//! engine and once in lockstep groups of 8 lanes through the batch
//! engine, on one and on four worker threads.  The JSON gains a `batch`
//! block with `lanes`, `threads`, `ns_per_lane_step` and
//! `campaign_steps_per_sec` for each arm — both engines execute the
//! bit-identical trajectories, so the ratio is pure engine overhead.
//!
//! A fourth section records the runtime-dispatched SIMD kernel layer
//! ([`div_core::kernels`]): a fixed *sweep* campaign (every vertex at a
//! distinct opinion, so the full step budget runs in the wide-interval
//! regime the kernels optimize, with no consensus-tail variance) is run
//! single-threaded with the kernel tier pinned to each tier the host
//! supports (`scalar`, `avx2`), and the JSON gains a `simd` block with
//! the selected tier, the host's vector CPU features and per-tier
//! `ns_per_lane_step` / campaign throughput.  On AVX2
//! hosts `--check-overhead` additionally gates the selected tier's
//! sweep-campaign speedup on `complete_1k` at ≥ 2.8× the scalar engine;
//! hosts without AVX2 record `"gate": "skipped (no avx2)"` instead.
//!
//! A fifth section benchmarks the sharded-domain engine
//! ([`div_core::ShardedProcess`]): one million-vertex trial (8-regular
//! circulant, 8 shard domains) timed on 1, 2 and 4 worker threads
//! against the scalar fast engine on the same workload.  The JSON gains
//! a `shard` block recording `cores` (the machine the numbers were taken
//! on — thread arms beyond the core count measure timeslicing, not
//! scaling), `scaling_t2`, the T=2 : T=1 throughput ratio (recorded but
//! never gated), and `scaling_t4`, the T=4 : T=1 throughput ratio gated in CI
//! at ≥ 2.5× on 4-core-or-larger machines; `--check-overhead` runs the
//! gate live and skips it with a note on smaller machines.
//!
//! A sixth section records the graph-build layer, a trial's first set-up
//! cost: each spec in [`GRAPH_BUILD_SPECS`] is built [`GRAPH_BUILDS`]
//! times through [`div_bench::spec::parse_graph`] (the path every
//! `divlab` and `divd` trial takes to its graph), and the JSON gains a
//! `graph_build` block with `n`, `m` and the median and interquartile
//! range of the milliseconds per build.  The section is recorded, never
//! gated.
//!
//! A seventh section records the batch campaign end to end through its
//! shared lane pool ([`div_bench::trial::BatchPool`] in the driver loop,
//! the path of `divlab campaign --engine batch`): the converging
//! [`POOL_CAMPAIGN_INIT`] campaign on `regular:2000:8` with `K = 8` lanes
//! per block, on one and two workers, repeated [`POOL_REPEATS`] times
//! with the arms interleaved.  The JSON gains a `batch_campaign` block
//! with the median and quartiles of `steps_per_sec` and of the pool's
//! lane occupancy: the lanes each block stepped times the block's
//! seconds, summed over blocks, over the `K × workers` lane slots times
//! the campaign's wall seconds.  A block cut short of `K` lanes and a
//! worker waiting for lanes both lower it.  The section is recorded,
//! never gated.

use std::time::Instant;

use div_bench::spec::{parse_graph, parse_opinions};
use div_bench::trial::{BatchPool, Engine, TrialSetup, Unwatched};
use div_core::{
    init, BatchProcess, DivProcess, EdgeScheduler, FastProcess, FastRng, FastScheduler, FaultPlan,
    KernelTier, NullObserver, Observer, RunStatus, Scheduler, ShardedProcess, TelemetrySample,
    VertexScheduler,
};
use div_graph::{generators, Graph};
use div_sim::stats::quantile;
use div_sim::{
    run_campaign_pooled, run_lane_groups, CampaignConfig, CampaignHooks, CampaignMonitor,
    LaneEngine, SeedSequence, TrialCtx, TrialOutcome,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const DEFAULT_STEPS: u64 = 2_000_000;

/// Trials in the fixed batch-vs-scalar campaign workload.
const BATCH_TRIALS: usize = 32;

/// Lockstep lanes per group in the batch campaign arms.
const DEFAULT_LANES: usize = 8;

/// Master seed of the batch campaign workload (both arms derive trial
/// seeds from it via [`SeedSequence::seed_for`], so they replay the same
/// trajectories).
const BATCH_MASTER: u64 = 0xBA7C;

/// Maximum tolerated ratio of NullObserver-observed to plain fast-engine
/// ns/step.  The observed path is monomorphised away when
/// `Observer::ENABLED` is false, so anything above noise is a regression.
const OVERHEAD_LIMIT: f64 = 1.05;

/// Shard domains in the sharded-engine million-vertex arms.
const SHARD_COUNT: usize = 8;

/// Master seed for the sharded arms' per-shard streams.
const SHARD_MASTER: u64 = 0x5AAD;

/// Minimum T=4 : T=1 throughput ratio of the sharded engine on the
/// million-vertex workload — the CI thread-scaling gate.  Only evaluated
/// on machines with at least four cores; a 1-core container cannot
/// measure scaling and skips the gate with a note.
const SHARD_SCALING_GATE: f64 = 2.5;

/// Minimum batch-campaign : scalar-campaign throughput ratio at
/// `K = DEFAULT_LANES` lanes on one thread — the SIMD kernel acceptance
/// gate.  Evaluated on `complete_1k` (the paper's canonical family and
/// the densest per-step workload) with the auto-selected kernel tier;
/// hosts without AVX2 cannot run the vector drives and skip the gate
/// with a recorded reason instead of failing.
const SIMD_SPEEDUP_GATE: f64 = 2.8;

/// The graph-build section's specs: the benchmark's `sharded_100k`
/// circulant, its largest graph, and the random regular expander of its
/// campaign workloads.
const GRAPH_BUILD_SPECS: [&str; 2] = ["circulant:100000:1,2,3,4", "regular:2000:8"];

/// Timed builds per spec in the graph-build section.
const GRAPH_BUILDS: usize = 15;

/// The batch-campaign section's graph and opinions: the benchmark's
/// `campaign_batch_expander` job, whose consensus times are heavy-tailed.
const POOL_CAMPAIGN_GRAPH: &str = "regular:2000:8";

/// Opinion spec of the batch-campaign section (average `c ≈ 5`).
const POOL_CAMPAIGN_INIT: &str = "blocks:1x222,2x222,3x222,4x222,5x222,6x222,7x222,8x222,9x224";

/// Trials per batch campaign in the batch-campaign section.
const POOL_TRIALS: usize = 64;

/// Interleaved repeats of each arm of the batch-campaign section.
const POOL_REPEATS: usize = 7;

fn usage() -> ! {
    eprintln!(
        "usage: perf_smoke [--steps N] [--out PATH] [--check-overhead [--against OLD.json]] [--print-tier]"
    );
    std::process::exit(2);
}

fn graphs() -> Vec<(&'static str, Graph)> {
    let mut rng = StdRng::seed_from_u64(1);
    vec![
        ("complete_1k", generators::complete(1000).unwrap()),
        (
            "regular8_1k",
            generators::random_regular(1000, 8, &mut rng).unwrap(),
        ),
    ]
}

fn opinions_for(g: &Graph) -> Vec<i64> {
    let mut rng = StdRng::seed_from_u64(7);
    init::uniform_random(g.num_vertices(), 9, &mut rng).unwrap()
}

/// Times up to `steps` reference-path steps (early exit at consensus, as
/// the reference driver `run_until` does), returning (ns/step, steps).
fn time_reference<S: Scheduler>(g: &Graph, scheduler: S, steps: u64) -> (f64, u64) {
    let mut p = DivProcess::new(g, opinions_for(g), scheduler).unwrap();
    let mut rng = StdRng::seed_from_u64(3);
    // Warmup: fault in tables and caches.
    p.run_until(10_000, &mut rng, |s| s.is_consensus(), |_, _| {});
    let before = p.steps();
    let start = Instant::now();
    p.run_until(steps, &mut rng, |s| s.is_consensus(), |_, _| {});
    let elapsed = start.elapsed();
    let taken = (p.steps() - before).max(1);
    (elapsed.as_nanos() as f64 / taken as f64, taken)
}

/// Times up to `steps` fast-engine steps (early exit at consensus),
/// returning (ns/step, steps).
fn time_fast(g: &Graph, scheduler: FastScheduler, steps: u64) -> (f64, u64) {
    let mut p = FastProcess::new(g, opinions_for(g), scheduler).unwrap();
    let mut rng = FastRng::seed_from_u64(3);
    p.run_to_consensus(10_000, &mut rng);
    let before = p.steps();
    let start = Instant::now();
    p.run_to_consensus(steps, &mut rng);
    let elapsed = start.elapsed();
    let taken = (p.steps() - before).max(1);
    (elapsed.as_nanos() as f64 / taken as f64, taken)
}

/// Times up to `steps` fast-engine steps routed through the observed
/// entry point with the disabled [`NullObserver`] (early exit at
/// consensus), returning (ns/step, steps).  Mirrors [`time_fast`] exactly
/// so the two are directly comparable.
fn time_fast_observed(g: &Graph, scheduler: FastScheduler, steps: u64) -> (f64, u64) {
    let mut p = FastProcess::new(g, opinions_for(g), scheduler).unwrap();
    let mut rng = FastRng::seed_from_u64(3);
    p.run_observed(10_000, &mut rng, 64, &mut NullObserver);
    let before = p.steps();
    let start = Instant::now();
    p.run_observed(steps, &mut rng, 64, &mut NullObserver);
    let elapsed = start.elapsed();
    let taken = (p.steps() - before).max(1);
    (elapsed.as_nanos() as f64 / taken as f64, taken)
}

/// Cheapest *enabled* observer: counts samples, so the engines' sampled
/// paths stay compiled in (unlike [`NullObserver`], which monomorphises
/// them away).  Used by the batch/sharded sampled-telemetry arms.
struct CountingObserver(u64);

impl Observer for CountingObserver {
    fn on_sample(&mut self, _sample: &TelemetrySample) {
        self.0 += 1;
    }
}

/// A single overhead measurement: plain vs instrumented ns/step on one
/// graph/process pair, under the named arm (`"null_observer"`,
/// `"monitor"`, `"batch_sampled"` or `"shard_sampled"`).
struct Overhead {
    arm: &'static str,
    graph: &'static str,
    process: &'static str,
    plain_ns: f64,
    observed_ns: f64,
}

impl Overhead {
    fn ratio(&self) -> f64 {
        self.observed_ns / self.plain_ns
    }
}

/// Times one fast-engine consensus run with the per-trial live-monitor
/// publication (`trial_started` + `record_outcome`, exactly what a
/// monitored campaign slot adds) inside the timed window.  Mirrors
/// [`time_fast`] so the two are directly comparable.
fn time_fast_monitored(
    g: &Graph,
    scheduler: FastScheduler,
    steps: u64,
    monitor: &CampaignMonitor,
) -> (f64, u64) {
    let mut p = FastProcess::new(g, opinions_for(g), scheduler).unwrap();
    let mut rng = FastRng::seed_from_u64(3);
    p.run_to_consensus(10_000, &mut rng);
    let before = p.steps();
    let start = Instant::now();
    monitor.trial_started();
    let status = p.run_to_consensus(steps, &mut rng);
    let taken = (p.steps() - before).max(1);
    monitor.record_outcome(&match status {
        RunStatus::Consensus { opinion, .. } => TrialOutcome::Converged {
            winner: opinion,
            steps: taken,
        },
        RunStatus::TwoAdjacent { low, high, .. } => TrialOutcome::TwoAdjacent {
            low,
            high,
            steps: taken,
        },
        RunStatus::StepLimit { .. } => TrialOutcome::Timeout { steps: taken },
    });
    let elapsed = start.elapsed();
    (elapsed.as_nanos() as f64 / taken as f64, taken)
}

/// The instrumented arm an aggregated measurement runs.
enum Arm<'a> {
    Plain,
    NullObserver,
    Monitor(&'a CampaignMonitor),
}

/// Aggregates fresh seeded runs (each early-exiting at consensus) until at
/// least `min_steps` total steps have been timed, returning the pooled
/// ns/step.  A single run on `regular8_1k` reaches consensus well before
/// the step budget, so one measurement alone is too short to time reliably.
fn aggregate_fast(g: &Graph, scheduler: FastScheduler, min_steps: u64, arm: &Arm) -> f64 {
    let (mut ns, mut total) = (0.0, 0u64);
    while total < min_steps {
        let (per, taken) = match arm {
            Arm::Plain => time_fast(g, scheduler, min_steps),
            Arm::NullObserver => time_fast_observed(g, scheduler, min_steps),
            Arm::Monitor(m) => time_fast_monitored(g, scheduler, min_steps, m),
        };
        ns += per * taken as f64;
        total += taken;
    }
    ns / total as f64
}

/// The benchmark's copy of `regular8_1k`.  Same construction as
/// [`graphs`]: complete_1k is drawn first so the regular graph here is
/// bit-identical to the benchmark-matrix one.
fn regular8_1k() -> Graph {
    let mut rng = StdRng::seed_from_u64(1);
    let _ = generators::complete(1000).unwrap();
    generators::random_regular(1000, 8, &mut rng).unwrap()
}

/// Interleaves a plain arm against an instrumented arm across rounds (so
/// slow machine drift — thermal, noisy neighbours on a shared runner —
/// affects both equally), keeping each arm's best round; both arms replay
/// the identical seeded trajectories.
fn interleave_best_of(
    g: &Graph,
    scheduler: FastScheduler,
    steps: u64,
    instrumented: &Arm,
) -> (f64, f64) {
    let (mut plain, mut observed) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..5 {
        plain = plain.min(aggregate_fast(g, scheduler, steps, &Arm::Plain));
        observed = observed.min(aggregate_fast(g, scheduler, steps, instrumented));
    }
    (plain, observed)
}

/// Per-lane step budget of the sampled-overhead arms.  The sweep start
/// keeps every lane in the wide-interval regime for this whole budget
/// (asserted after each observed run), so the windows time steady-state
/// stepping only — the one-off `O(τ)` phase-location replay near
/// convergence is bounded work, not a per-step cost, and is
/// deliberately excluded.
const SAMPLED_ARM_STEPS: u64 = 500_000;

/// Times one sweep lane group (`K = DEFAULT_LANES` lanes, one thread —
/// see [`sweep_opinions`]) plain vs driven through
/// [`BatchProcess::run_observed`] at the engine-default block lattice
/// with one *enabled* [`CountingObserver`] per lane.  Both arms replay
/// the identical seeded trajectories over the identical step counts
/// (asserted), so the ratio is the steady-state sampling overhead of
/// the hot loop — the regime long campaigns live in.  Interleaved
/// best-of-5; returns (plain, sampled) ns per lane-step.
fn batch_sampled_pair(g: &Graph, ops: &[i64], budget: u64) -> (f64, f64) {
    let (mut plain, mut sampled) = (f64::INFINITY, f64::INFINITY);
    let (mut plain_steps, mut sampled_steps) = (0u64, 0u64);
    for _ in 0..5 {
        let (ns, steps) = batch_campaign(g, ops, SIMD_TRIALS, DEFAULT_LANES, 1, budget, None);
        plain = plain.min(ns / steps as f64);
        plain_steps = steps;
        let start = Instant::now();
        let per_trial: Vec<u64> =
            run_lane_groups(SIMD_TRIALS, BATCH_MASTER, DEFAULT_LANES, 1, |_, seeds| {
                let mut b = BatchProcess::new(g, ops.to_vec(), FastScheduler::Edge, seeds).unwrap();
                let mut obs: Vec<CountingObserver> =
                    seeds.iter().map(|_| CountingObserver(0)).collect();
                b.run_observed(budget, 0, &mut obs);
                for l in 0..seeds.len() {
                    assert!(
                        !b.is_two_adjacent(l),
                        "sampled-overhead arm left the wide-interval regime; shrink its budget"
                    );
                }
                (0..seeds.len()).map(|l| b.steps(l)).collect()
            });
        let steps: u64 = per_trial.iter().sum();
        sampled = sampled.min(start.elapsed().as_nanos() as f64 / steps as f64);
        sampled_steps = steps;
    }
    assert_eq!(
        plain_steps, sampled_steps,
        "sampling must not change the batch trajectories"
    );
    (plain, sampled)
}

/// [`time_sharded`]'s observed twin: the same million-vertex trial
/// driven through [`ShardedProcess::run_observed`] at the round lattice
/// (`sample_every = 0`) with an *enabled* [`CountingObserver`],
/// returning ns/step.
fn time_sharded_observed(g: &Graph, threads: usize, steps: u64) -> f64 {
    let seeds: Vec<u64> = (0..SHARD_COUNT as u64)
        .map(|p| SeedSequence::seed_for(SHARD_MASTER, p))
        .collect();
    let opinions = init::spread(g.num_vertices(), 9).unwrap();
    let mut p = ShardedProcess::new(g, opinions, FastScheduler::Edge, &seeds).unwrap();
    let mut obs = CountingObserver(0);
    p.run_observed(g.num_vertices() as u64, threads, 0, &mut obs);
    let before = p.steps();
    let start = Instant::now();
    p.run_observed(steps, threads, 0, &mut obs);
    let elapsed = start.elapsed();
    let taken = (p.steps() - before).max(1);
    elapsed.as_nanos() as f64 / taken as f64
}

/// Measures the disabled-observer overhead on `regular8_1k` for both the
/// edge and the vertex process, the live-monitor publication overhead
/// for the edge process, and the *enabled* sampled-telemetry overhead of
/// the batch (`K = DEFAULT_LANES`) and sharded (`P = SHARD_COUNT`)
/// engines at their native sampling lattices.
fn measure_overheads(steps: u64) -> Vec<Overhead> {
    let g = regular8_1k();
    let mut out = Vec::new();
    for (process, scheduler) in [
        ("div_vertex", FastScheduler::Vertex),
        ("div_edge", FastScheduler::Edge),
    ] {
        let (plain_ns, observed_ns) = interleave_best_of(&g, scheduler, steps, &Arm::NullObserver);
        out.push(Overhead {
            arm: "null_observer",
            graph: "regular8_1k",
            process,
            plain_ns,
            observed_ns,
        });
    }
    let monitor = CampaignMonitor::new();
    let (plain_ns, observed_ns) =
        interleave_best_of(&g, FastScheduler::Edge, steps, &Arm::Monitor(&monitor));
    out.push(Overhead {
        arm: "monitor",
        graph: "regular8_1k",
        process: "div_edge",
        plain_ns,
        observed_ns,
    });
    let budget = steps.min(SAMPLED_ARM_STEPS);
    let ops = sweep_opinions(&g);
    let (plain_ns, observed_ns) = batch_sampled_pair(&g, &ops, budget);
    out.push(Overhead {
        arm: "batch_sampled",
        graph: "regular8_1k",
        process: "div_edge",
        plain_ns,
        observed_ns,
    });
    let g1m = circulant8_1m();
    let (mut plain_ns, mut observed_ns) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..5 {
        plain_ns = plain_ns.min(time_sharded(&g1m, 1, steps));
        observed_ns = observed_ns.min(time_sharded_observed(&g1m, 1, steps));
    }
    out.push(Overhead {
        arm: "shard_sampled",
        graph: "circulant8_1M",
        process: "div_edge",
        plain_ns,
        observed_ns,
    });
    out
}

struct Row {
    graph: &'static str,
    process: &'static str,
    reference_ns: f64,
    fast_ns: f64,
}

/// One batch-vs-scalar campaign measurement: the same `BATCH_TRIALS`
/// seeded trials timed end to end through both engines.
struct BatchRow {
    graph: &'static str,
    lanes: usize,
    threads: usize,
    scalar_ns_per_step: f64,
    ns_per_lane_step: f64,
    scalar_steps_per_sec: f64,
    campaign_steps_per_sec: f64,
}

impl BatchRow {
    fn speedup(&self) -> f64 {
        self.campaign_steps_per_sec / self.scalar_steps_per_sec
    }
}

/// Runs a fixed campaign workload (`trials` seeded trials with `ops`
/// initial opinions) trial by trial through the scalar fast engine,
/// returning (total ns, total steps).
fn scalar_campaign(g: &Graph, ops: &[i64], trials: usize, budget: u64) -> (f64, u64) {
    let start = Instant::now();
    let mut total = 0u64;
    for trial in 0..trials {
        let seed = SeedSequence::seed_for(BATCH_MASTER, trial as u64);
        let mut p = FastProcess::new(g, ops.to_vec(), FastScheduler::Edge).unwrap();
        let mut rng = FastRng::seed_from_u64(seed);
        p.run_to_consensus(budget, &mut rng);
        total += p.steps();
    }
    (start.elapsed().as_nanos() as f64, total)
}

/// Runs the same workload in lockstep groups through the batch engine on
/// `threads` workers, returning (total ns, total steps).  Seeds come from
/// the same [`SeedSequence`], so every lane replays the scalar arm's
/// trajectory bit-exactly — asserted by the caller via the step totals.
/// `tier` pins a kernel tier for the per-tier SIMD section; `None` keeps
/// the engine's auto-selected tier (the production configuration).
fn batch_campaign(
    g: &Graph,
    ops: &[i64],
    trials: usize,
    lanes: usize,
    threads: usize,
    budget: u64,
    tier: Option<KernelTier>,
) -> (f64, u64) {
    let start = Instant::now();
    let per_trial: Vec<u64> = run_lane_groups(trials, BATCH_MASTER, lanes, threads, |_, seeds| {
        let mut b = BatchProcess::new(g, ops.to_vec(), FastScheduler::Edge, seeds).unwrap();
        if let Some(t) = tier {
            b.set_kernel_tier(t);
        }
        b.run_to_consensus(budget);
        (0..seeds.len()).map(|l| b.steps(l)).collect()
    });
    (start.elapsed().as_nanos() as f64, per_trial.iter().sum())
}

/// Measures the batch engine's campaign throughput against the scalar
/// fast engine on both benchmark graphs, single-threaded and on four
/// workers.  Arms are interleaved across rounds (best-of-3) so machine
/// drift hits them equally.
fn measure_batch(budget: u64) -> Vec<BatchRow> {
    let mut out = Vec::new();
    for (gname, g) in graphs() {
        let (mut scalar_ns, mut batch1_ns, mut batch4_ns) =
            (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        let (mut scalar_steps, mut batch_steps) = (0u64, 0u64);
        let ops = opinions_for(&g);
        for _ in 0..3 {
            let (ns, steps) = scalar_campaign(&g, &ops, BATCH_TRIALS, budget);
            scalar_ns = scalar_ns.min(ns);
            scalar_steps = steps;
            let (ns, steps) =
                batch_campaign(&g, &ops, BATCH_TRIALS, DEFAULT_LANES, 1, budget, None);
            batch1_ns = batch1_ns.min(ns);
            batch_steps = steps;
            let (ns, _) = batch_campaign(&g, &ops, BATCH_TRIALS, DEFAULT_LANES, 4, budget, None);
            batch4_ns = batch4_ns.min(ns);
        }
        assert_eq!(
            scalar_steps, batch_steps,
            "batch lanes must replay the scalar trajectories bit-exactly"
        );
        let steps = scalar_steps as f64;
        for (threads, batch_ns) in [(1usize, batch1_ns), (4, batch4_ns)] {
            out.push(BatchRow {
                graph: gname,
                lanes: DEFAULT_LANES,
                threads,
                scalar_ns_per_step: scalar_ns / steps,
                ns_per_lane_step: batch_ns / steps,
                scalar_steps_per_sec: steps / (scalar_ns * 1e-9),
                campaign_steps_per_sec: steps / (batch_ns * 1e-9),
            });
        }
    }
    out
}

/// One per-tier SIMD measurement: the fixed batch campaign at
/// `K = DEFAULT_LANES` lanes on one thread, forced to one kernel tier.
struct SimdTierRow {
    tier: &'static str,
    graph: &'static str,
    ns_per_lane_step: f64,
    campaign_steps_per_sec: f64,
    /// Campaign throughput relative to the scalar fast engine running
    /// the same trials trial-by-trial.
    speedup: f64,
}

/// The SIMD kernel section: which tier auto-selection picked, the CPU
/// features that drove the choice, and the per-tier campaign
/// measurements (every tier replays the identical trajectories, so the
/// ratios are pure kernel throughput).
struct SimdSection {
    lanes: usize,
    selected: &'static str,
    cpu_features: String,
    rows: Vec<SimdTierRow>,
}

impl SimdSection {
    /// The gate quantity: the auto-selected tier's campaign speedup on
    /// `complete_1k`, or `None` off x86 AVX2 (gate skips).
    fn gate_speedup(&self) -> Option<f64> {
        if !KernelTier::Avx2.is_supported() {
            return None;
        }
        self.rows
            .iter()
            .find(|r| r.tier == self.selected && r.graph == "complete_1k")
            .map(|r| r.speedup)
    }
}

/// The vector-relevant CPU features of the host, space-separated — the
/// provenance line for the recorded per-tier numbers.
fn cpu_features() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        let mut out = Vec::new();
        for (name, have) in [
            ("avx2", is_x86_feature_detected!("avx2")),
            ("avx512f", is_x86_feature_detected!("avx512f")),
            ("avx512dq", is_x86_feature_detected!("avx512dq")),
            ("avx512bw", is_x86_feature_detected!("avx512bw")),
            ("avx512vl", is_x86_feature_detected!("avx512vl")),
        ] {
            if have {
                out.push(name);
            }
        }
        if out.is_empty() {
            "none".to_string()
        } else {
            out.join(" ")
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        "non-x86_64".to_string()
    }
}

/// Trials in the SIMD sweep campaign — one full lane group.
const SIMD_TRIALS: usize = 8;

/// The SIMD sections' sweep workload: every vertex starts at a distinct
/// opinion, so the ±1 increments cannot collapse the interval within
/// any realistic step budget.  This is the regime the kernels optimize
/// — the long wide-interval phase of the incremental process — and it
/// keeps every arm on bit-identical full-budget trajectories, free of
/// the consensus-tail variance the converging `batch` block reports.
fn sweep_opinions(g: &Graph) -> Vec<i64> {
    let n = g.num_vertices();
    init::spread(n, n).unwrap()
}

/// Measures the fixed sweep campaign under **every** kernel tier the
/// host supports, single-threaded, on both benchmark graphs.  Rounds
/// interleave the scalar-engine baseline with all tiers so machine
/// drift hits every arm equally; each arm keeps its best round.
fn measure_simd(budget: u64) -> SimdSection {
    let tiers = KernelTier::supported();
    let mut rows = Vec::new();
    for (gname, g) in graphs() {
        let ops = sweep_opinions(&g);
        let mut scalar_ns = f64::INFINITY;
        let mut tier_ns = vec![f64::INFINITY; tiers.len()];
        let mut steps = 0u64;
        for _ in 0..3 {
            let (ns, s) = scalar_campaign(&g, &ops, SIMD_TRIALS, budget);
            scalar_ns = scalar_ns.min(ns);
            steps = s;
            for (slot, &t) in tiers.iter().enumerate() {
                let (ns, ts) =
                    batch_campaign(&g, &ops, SIMD_TRIALS, DEFAULT_LANES, 1, budget, Some(t));
                assert_eq!(s, ts, "tier {} diverged from the scalar replay", t.name());
                tier_ns[slot] = tier_ns[slot].min(ns);
            }
        }
        for (slot, &t) in tiers.iter().enumerate() {
            rows.push(SimdTierRow {
                tier: t.name(),
                graph: gname,
                ns_per_lane_step: tier_ns[slot] / steps as f64,
                campaign_steps_per_sec: steps as f64 / (tier_ns[slot] * 1e-9),
                speedup: scalar_ns / tier_ns[slot],
            });
        }
    }
    SimdSection {
        lanes: DEFAULT_LANES,
        selected: KernelTier::active().name(),
        cpu_features: cpu_features(),
        rows,
    }
}

/// The live SIMD acceptance gate: on hosts with AVX2, the batch
/// campaign under the auto-selected tier must beat the scalar campaign
/// by at least [`SIMD_SPEEDUP_GATE`]× on `complete_1k` at
/// `K = DEFAULT_LANES`, T=1.  Hosts without AVX2 skip with a note:
/// their only tier is the scalar baseline itself.  Returns whether the
/// gate failed.
fn check_simd_speedup(budget: u64) -> bool {
    if !KernelTier::Avx2.is_supported() {
        println!("simd gate: AVX2 unavailable on this host; skipped");
        return false;
    }
    let g = graphs().remove(0).1;
    let ops = sweep_opinions(&g);
    let tier = KernelTier::active();
    let (mut scalar_ns, mut batch_ns) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        let (ns, _) = scalar_campaign(&g, &ops, SIMD_TRIALS, budget);
        scalar_ns = scalar_ns.min(ns);
        let (ns, _) = batch_campaign(&g, &ops, SIMD_TRIALS, DEFAULT_LANES, 1, budget, Some(tier));
        batch_ns = batch_ns.min(ns);
    }
    let speedup = scalar_ns / batch_ns;
    println!(
        "simd gate (complete_1k, K={DEFAULT_LANES}, tier {}): campaign speedup {speedup:.2}x (gate >= {SIMD_SPEEDUP_GATE}x)",
        tier.name()
    );
    if speedup < SIMD_SPEEDUP_GATE {
        eprintln!(
            "FAIL: {} kernels speed the campaign up only {speedup:.2}x (gate {SIMD_SPEEDUP_GATE}x)",
            tier.name()
        );
        return true;
    }
    false
}

/// One sharded-engine single-trial measurement on the million-vertex
/// workload.
struct ShardRow {
    threads: usize,
    ns_per_step: f64,
    steps_per_sec: f64,
}

/// The million-vertex sharded-engine section: the workload description,
/// the scalar fast-engine baseline, the per-thread-count rows, the
/// T=2 : T=1 scaling ratio (recorded, never gated: on a 2-core host it
/// swings with whether the second core is free) and the T=4 : T=1 ratio
/// the CI gate reads.
struct ShardSection {
    graph: &'static str,
    n: usize,
    shards: usize,
    cores: usize,
    fast_ns_per_step: f64,
    rows: Vec<ShardRow>,
    scaling_t2: f64,
    scaling_t4: f64,
}

/// The million-vertex workload of the sharded arms: an 8-regular
/// circulant, built in `O(n)` with no quadratic intermediates.
fn circulant8_1m() -> Graph {
    generators::circulant(1_000_000, &[1, 2, 3, 4]).unwrap()
}

/// Times `steps` sharded-engine steps of one million-vertex trial on
/// `threads` workers (after a one-round warmup), returning ns/step.  The
/// nine-opinion spread cannot absorb within the budget, so no early-exit
/// distorts the window.
fn time_sharded(g: &Graph, threads: usize, steps: u64) -> f64 {
    let seeds: Vec<u64> = (0..SHARD_COUNT as u64)
        .map(|p| SeedSequence::seed_for(SHARD_MASTER, p))
        .collect();
    let opinions = init::spread(g.num_vertices(), 9).unwrap();
    let mut p = ShardedProcess::new(g, opinions, FastScheduler::Edge, &seeds).unwrap();
    p.run_to_consensus(g.num_vertices() as u64, threads);
    let before = p.steps();
    let start = Instant::now();
    p.run_to_consensus(steps, threads);
    let elapsed = start.elapsed();
    let taken = (p.steps() - before).max(1);
    elapsed.as_nanos() as f64 / taken as f64
}

/// Measures single-trial throughput of the sharded engine on the
/// million-vertex circulant for 1, 2 and 4 worker threads (interleaved
/// best-of-3, so machine drift hits the arms equally), plus the scalar
/// fast engine on the same workload as the baseline.
fn measure_shard(steps: u64) -> ShardSection {
    let g = circulant8_1m();
    let thread_counts = [1usize, 2, 4];
    let mut best = [f64::INFINITY; 3];
    let mut fast_ns = f64::INFINITY;
    for _ in 0..3 {
        fast_ns = fast_ns.min(time_fast(&g, FastScheduler::Edge, steps).0);
        for (slot, &t) in thread_counts.iter().enumerate() {
            best[slot] = best[slot].min(time_sharded(&g, t, steps));
        }
    }
    let rows: Vec<ShardRow> = thread_counts
        .iter()
        .zip(best)
        .map(|(&threads, ns)| ShardRow {
            threads,
            ns_per_step: ns,
            steps_per_sec: 1e9 / ns,
        })
        .collect();
    ShardSection {
        graph: "circulant8_1M",
        n: g.num_vertices(),
        shards: SHARD_COUNT,
        cores: available_cores(),
        fast_ns_per_step: fast_ns,
        scaling_t2: best[0] / best[1],
        scaling_t4: best[0] / best[2],
        rows,
    }
}

/// One spec of the graph-build section: quartiles of ms per build.
struct BuildRow {
    spec: &'static str,
    n: usize,
    m: usize,
    p25_ms: f64,
    median_ms: f64,
    p75_ms: f64,
}

/// Times [`GRAPH_BUILDS`] builds of each graph-build spec, each from the
/// same seed (so every build makes the same graph); the previous graph
/// is dropped outside the timed region.
fn measure_graph_build() -> Vec<BuildRow> {
    GRAPH_BUILD_SPECS
        .into_iter()
        .map(|spec| {
            let mut ms = Vec::with_capacity(GRAPH_BUILDS);
            let mut g = None;
            for _ in 0..GRAPH_BUILDS {
                let mut rng = StdRng::seed_from_u64(1);
                let start = Instant::now();
                let built = parse_graph(spec, &mut rng).expect("graph-build specs are valid");
                ms.push(start.elapsed().as_secs_f64() * 1e3);
                g = Some(built);
            }
            let g = g.expect("at least one build");
            BuildRow {
                spec,
                n: g.num_vertices(),
                m: g.num_edges(),
                p25_ms: quantile(&ms, 0.25),
                median_ms: quantile(&ms, 0.5),
                p75_ms: quantile(&ms, 0.75),
            }
        })
        .collect()
}

/// One worker count of the batch-campaign section: quartiles of campaign
/// steps per second and of pool lane occupancy.
struct PoolRow {
    threads: usize,
    steps_per_sec: [f64; 3],
    occupancy: [f64; 3],
}

/// A lane engine that adds up, per block, the lanes it stepped times the
/// block's seconds: the lane-slot time spent stepping trials.
struct Metered<E> {
    inner: E,
    lane_secs: std::sync::Mutex<f64>,
}

impl<E: LaneEngine> LaneEngine for Metered<E> {
    type Lane = E::Lane;

    fn group(&self) -> usize {
        self.inner.group()
    }

    fn load(&self, ctx: &TrialCtx, recycled: Option<E::Lane>) -> E::Lane {
        self.inner.load(ctx, recycled)
    }

    fn step(&self, lanes: &mut [E::Lane]) -> Vec<Option<TrialOutcome>> {
        let start = Instant::now();
        let results = self.inner.step(lanes);
        let secs = lanes.len() as f64 * start.elapsed().as_secs_f64();
        *self.lane_secs.lock().expect("no block time update panics") += secs;
        results
    }
}

/// Runs the batch-campaign section: [`POOL_REPEATS`] interleaved rounds
/// of the converging campaign at one and two workers.
fn measure_batch_campaign() -> Vec<PoolRow> {
    let mut rng = StdRng::seed_from_u64(SeedSequence::seed_for(1, 0));
    let g = parse_graph(POOL_CAMPAIGN_GRAPH, &mut rng).expect("valid graph spec");
    let ops =
        parse_opinions(POOL_CAMPAIGN_INIT, g.num_vertices(), &mut rng).expect("valid opinion spec");
    let faults = FaultPlan::none();
    let setup = TrialSetup::new(&g, &ops, FastScheduler::Edge, &faults);
    let threads = [1, 2];
    let mut samples: Vec<(Vec<f64>, Vec<f64>)> = vec![Default::default(); threads.len()];
    for _ in 0..POOL_REPEATS {
        for (arm, &t) in threads.iter().enumerate() {
            let mut cfg = CampaignConfig::new(POOL_TRIALS, 0x9001);
            cfg.threads = t;
            let pool = Metered {
                inner: BatchPool::new(&setup, &Unwatched, DEFAULT_LANES),
                lane_secs: std::sync::Mutex::new(0.0),
            };
            // What `run_engine_campaign` runs for a batch campaign.
            let demoted = |ctx: &TrialCtx| setup.run(Engine::Fast, ctx, &mut NullObserver).outcome;
            let start = Instant::now();
            let report = run_campaign_pooled(&cfg, CampaignHooks::default(), &pool, demoted)
                .expect("campaign without checkpoints cannot fail");
            let wall = start.elapsed().as_secs_f64();
            let steps: u64 = report.outcomes.values().map(TrialOutcome::steps).sum();
            let slots = (DEFAULT_LANES * t) as f64;
            let lane_secs = pool
                .lane_secs
                .into_inner()
                .expect("no block time update panics");
            samples[arm].0.push(steps as f64 / wall);
            samples[arm].1.push(lane_secs / (slots * wall));
        }
    }
    let quartiles = |xs: &[f64]| [0.25, 0.5, 0.75].map(|q| quantile(xs, q));
    threads
        .iter()
        .zip(&samples)
        .map(|(&threads, (rate, occ))| PoolRow {
            threads,
            steps_per_sec: quartiles(rate),
            occupancy: quartiles(occ),
        })
        .collect()
}

fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |t| t.get())
}

/// The live thread-scaling gate: on a machine with at least four cores,
/// the sharded engine must turn threads into throughput (T=4 at least
/// [`SHARD_SCALING_GATE`]× the T=1 rate on the million-vertex workload).
/// On smaller machines the gate is skipped with a note — scaling cannot
/// be measured where there is nothing to scale onto.  Returns whether
/// the gate failed.
fn check_shard_scaling(steps: u64) -> bool {
    let cores = available_cores();
    if cores < 4 {
        println!("shard scaling gate: {cores} core(s) available (< 4); skipped");
        return false;
    }
    let g = circulant8_1m();
    let (mut t1, mut t4) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        t1 = t1.min(time_sharded(&g, 1, steps));
        t4 = t4.min(time_sharded(&g, 4, steps));
    }
    let scaling = t1 / t4;
    println!(
        "shard scaling (circulant8_1M, {SHARD_COUNT} shards): T=1 {t1:.2} ns/step   T=4 {t4:.2} ns/step   scaling {scaling:.2}x (gate >= {SHARD_SCALING_GATE}x)"
    );
    if scaling < SHARD_SCALING_GATE {
        eprintln!(
            "FAIL: sharded engine scales only {scaling:.2}x on 4 threads (gate {SHARD_SCALING_GATE}x)"
        );
        return true;
    }
    false
}

/// Extracts every `"FIELD": NUMBER` occurrence inside the given
/// top-level section of a BENCH file written by this tool.  The files
/// are produced by our own stable hand-rolled writer, so plain string
/// scanning is sufficient — no JSON parser dependency needed.
fn recorded_ratios(text: &str, section: &str, field: &str) -> Option<Vec<f64>> {
    let start = text.find(&format!("\"{section}\""))?;
    // A section ends where the next top-level key begins (two-space
    // indent), or at the closing brace of the document.
    let body = &text[start..];
    let end = body
        .find("\n  \"")
        .map(|i| i + 1)
        .unwrap_or_else(|| body.rfind('}').unwrap_or(body.len()));
    let body = &body[..end];
    let needle = format!("\"{field}\":");
    let mut out = Vec::new();
    let mut rest = body;
    while let Some(i) = rest.find(&needle) {
        rest = &rest[i + needle.len()..];
        let num: String = rest
            .trim_start()
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-' || *c == 'e')
            .collect();
        if let Ok(v) = num.parse() {
            out.push(v);
        }
    }
    Some(out)
}

/// Extracts the `"gate": "..."` skip-reason string recorded inside the
/// given top-level section, if any (sections record it in place of the
/// gate number when a gate self-skipped at measurement time).
fn recorded_skip_reason(text: &str, section: &str) -> Option<String> {
    let start = text.find(&format!("\"{section}\""))?;
    let body = &text[start..];
    let end = body
        .find("\n  \"")
        .map(|i| i + 1)
        .unwrap_or_else(|| body.rfind('}').unwrap_or(body.len()));
    let body = &body[..end];
    let i = body.find("\"gate\":")?;
    let rest = body[i + "\"gate\":".len()..]
        .trim_start()
        .strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

/// `--check-overhead --against OLD.json`: re-validates the overhead arms
/// recorded in an existing BENCH file against the current limit, skipping
/// arms the file predates (older schemas) instead of erroring.  Returns
/// the process exit code.
fn check_recorded_overheads(path: &str) -> i32 {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return 2;
        }
    };
    let mut failed = false;
    for section in ["telemetry_overhead", "monitor_overhead"] {
        match recorded_ratios(&text, section, "ratio") {
            None => println!("{section}: absent from {path} (older schema); skipped"),
            Some(ratios) if ratios.is_empty() => {
                println!("{section}: no recorded ratios in {path}; skipped")
            }
            Some(ratios) => {
                for r in ratios {
                    let verdict = if r > OVERHEAD_LIMIT { "FAIL" } else { "ok" };
                    println!("{section}: recorded ratio {r:.3} (limit {OVERHEAD_LIMIT}) {verdict}");
                    failed |= r > OVERHEAD_LIMIT;
                }
            }
        }
    }
    // The batch block is informational (absolute speedups are
    // machine-dependent), but surface it so CI logs show what the file
    // claims; absence is fine for pre-batch files.
    match recorded_ratios(&text, "batch", "speedup") {
        None => println!("batch: absent from {path} (older schema); skipped"),
        Some(speedups) => {
            for s in speedups {
                println!("batch: recorded campaign speedup {s:.2}x");
            }
        }
    }
    // The simd gate applies only to files recorded on an AVX2 host; a
    // skip is recorded as a `"gate": "skipped (...)"` string instead of
    // a `gate_speedup` number, and pre-simd files lack the section.
    match recorded_ratios(&text, "simd", "gate_speedup") {
        None => println!("simd: absent from {path} (older schema); skipped"),
        Some(speedups) => match speedups.first() {
            None => {
                let reason = recorded_skip_reason(&text, "simd");
                println!(
                    "simd: gate {} in {path}; skipped",
                    reason.as_deref().unwrap_or("not recorded")
                );
            }
            Some(&s) => {
                let verdict = if s < SIMD_SPEEDUP_GATE { "FAIL" } else { "ok" };
                println!(
                    "simd: recorded campaign speedup {s:.2}x (gate >= {SIMD_SPEEDUP_GATE}x) {verdict}"
                );
                failed |= s < SIMD_SPEEDUP_GATE;
            }
        },
    }
    // The shard scaling gate applies only to files recorded on a ≥ 4-core
    // machine — a 1-core container's T=4 arm measures timeslicing, not
    // scaling.  Two recorded shapes exist: newer files replace
    // `scaling_t4` with a `"gate": "skipped (cores=N)"` string when the
    // gate could not be measured; older files record a (meaningless)
    // ratio next to the low core count.  Both are tolerated.
    let cores = recorded_ratios(&text, "shard", "cores").unwrap_or_default();
    let scalings = recorded_ratios(&text, "shard", "scaling_t4").unwrap_or_default();
    match cores.first() {
        None => println!("shard: absent from {path} (older schema); skipped"),
        Some(&c) if c < 4.0 => {
            println!("shard: recorded on {c:.0} core(s) (< 4); scaling gate skipped")
        }
        Some(_) => match scalings.first() {
            None => {
                let reason = recorded_skip_reason(&text, "shard");
                println!(
                    "shard: gate {} in {path}; skipped",
                    reason.as_deref().unwrap_or("not recorded")
                );
            }
            Some(&s) => {
                let verdict = if s < SHARD_SCALING_GATE { "FAIL" } else { "ok" };
                println!(
                    "shard: recorded T=4 scaling {s:.2}x (gate >= {SHARD_SCALING_GATE}x) {verdict}"
                );
                failed |= s < SHARD_SCALING_GATE;
            }
        },
    }
    if failed {
        1
    } else {
        0
    }
}

fn main() {
    let mut steps = DEFAULT_STEPS;
    let mut out = String::from("BENCH_step_throughput.json");
    let mut check_overhead = false;
    let mut against: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--steps" => match args.next().map(|v| v.parse::<u64>()) {
                Some(Ok(v)) if v > 0 => steps = v,
                _ => usage(),
            },
            "--out" => match args.next() {
                Some(path) => out = path,
                None => usage(),
            },
            "--check-overhead" => check_overhead = true,
            // The tier the kernel dispatcher would pick on this host
            // (after any DIV_KERNELS override), one word on stdout — CI
            // uses this to assert the selected tier is among the forced
            // tiers its matrix actually exercised.
            "--print-tier" => {
                println!("{}", KernelTier::active().name());
                return;
            }
            "--against" => match args.next() {
                Some(path) => against = Some(path),
                None => usage(),
            },
            _ => usage(),
        }
    }
    if against.is_some() && !check_overhead {
        usage();
    }

    if let (true, Some(path)) = (check_overhead, &against) {
        std::process::exit(check_recorded_overheads(path));
    }
    if check_overhead {
        let mut failed = false;
        for o in measure_overheads(steps) {
            println!(
                "{} overhead ({}/{}): plain {:.2} ns/step   instrumented {:.2} ns/step   ratio {:.3} (limit {OVERHEAD_LIMIT})",
                o.arm,
                o.graph,
                o.process,
                o.plain_ns,
                o.observed_ns,
                o.ratio()
            );
            if o.ratio() > OVERHEAD_LIMIT {
                eprintln!(
                    "FAIL: {} arm ({}/{}) costs {:.1}% over the plain path (limit {:.0}%)",
                    o.arm,
                    o.graph,
                    o.process,
                    (o.ratio() - 1.0) * 100.0,
                    (OVERHEAD_LIMIT - 1.0) * 100.0
                );
                failed = true;
            }
        }
        failed |= check_simd_speedup(steps);
        failed |= check_shard_scaling(steps);
        if failed {
            std::process::exit(1);
        }
        return;
    }

    let mut rows: Vec<Row> = Vec::new();
    for (gname, g) in graphs() {
        let (ref_v, _) = time_reference(&g, VertexScheduler::new(), steps);
        let (fast_v, _) = time_fast(&g, FastScheduler::Vertex, steps);
        rows.push(Row {
            graph: gname,
            process: "div_vertex",
            reference_ns: ref_v,
            fast_ns: fast_v,
        });
        let (ref_e, _) = time_reference(&g, EdgeScheduler::new(), steps);
        let (fast_e, _) = time_fast(&g, FastScheduler::Edge, steps);
        rows.push(Row {
            graph: gname,
            process: "div_edge",
            reference_ns: ref_e,
            fast_ns: fast_e,
        });
    }

    let overheads = measure_overheads(steps);
    let batch_rows = measure_batch(steps);
    let simd = measure_simd(steps);
    let shard = measure_shard(steps);
    let builds = measure_graph_build();
    let pool = measure_batch_campaign();

    // Hand-rolled JSON: the workspace deliberately has no serializer
    // dependency.
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"steps_per_measurement\": {steps},\n"));
    json.push_str("  \"unit\": \"ns_per_step\",\n");
    json.push_str("  \"benchmarks\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let speedup = r.reference_ns / r.fast_ns;
        json.push_str(&format!(
            "    {{\"graph\": \"{}\", \"process\": \"{}\", \"reference\": {:.2}, \"fast\": {:.2}, \"speedup\": {:.2}}}{}\n",
            r.graph,
            r.process,
            r.reference_ns,
            r.fast_ns,
            speedup,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"batch\": [\n");
    for (i, b) in batch_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"graph\": \"{}\", \"process\": \"div_edge\", \"lanes\": {}, \"threads\": {}, \
             \"scalar_ns_per_step\": {:.2}, \"ns_per_lane_step\": {:.2}, \
             \"scalar_steps_per_sec\": {:.0}, \"campaign_steps_per_sec\": {:.0}, \
             \"speedup\": {:.2}}}{}\n",
            b.graph,
            b.lanes,
            b.threads,
            b.scalar_ns_per_step,
            b.ns_per_lane_step,
            b.scalar_steps_per_sec,
            b.campaign_steps_per_sec,
            b.speedup(),
            if i + 1 < batch_rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"simd\": {{\"lanes\": {}, \"selected\": \"{}\", \"cpu_features\": \"{}\", ",
        simd.lanes, simd.selected, simd.cpu_features
    ));
    match simd.gate_speedup() {
        Some(s) => json.push_str(&format!("\"gate_speedup\": {s:.2}, \"rows\": [\n")),
        None => json.push_str("\"gate\": \"skipped (no avx2)\", \"rows\": [\n"),
    }
    for (i, r) in simd.rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"tier\": \"{}\", \"graph\": \"{}\", \"ns_per_lane_step\": {:.2}, \
             \"campaign_steps_per_sec\": {:.0}, \"speedup\": {:.2}}}{}\n",
            r.tier,
            r.graph,
            r.ns_per_lane_step,
            r.campaign_steps_per_sec,
            r.speedup,
            if i + 1 < simd.rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]},\n");
    // The scaling ratio is only recorded where it means something: on
    // a < 4-core machine the T=4 arm measures timeslicing, so the gate
    // records its skip reason instead of a bogus number.
    let shard_gate = if shard.cores >= 4 {
        format!("\"scaling_t4\": {:.2}", shard.scaling_t4)
    } else {
        format!("\"gate\": \"skipped (cores={})\"", shard.cores)
    };
    json.push_str(&format!(
        "  \"shard\": {{\"graph\": \"{}\", \"process\": \"div_edge\", \"n\": {}, \"shards\": {}, \
         \"cores\": {}, \"fast_ns_per_step\": {:.2}, \"scaling_t2\": {:.2}, {shard_gate}, \"rows\": [\n",
        shard.graph, shard.n, shard.shards, shard.cores, shard.fast_ns_per_step, shard.scaling_t2
    ));
    for (i, r) in shard.rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"threads\": {}, \"ns_per_step\": {:.2}, \"steps_per_sec\": {:.0}}}{}\n",
            r.threads,
            r.ns_per_step,
            r.steps_per_sec,
            if i + 1 < shard.rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]},\n");
    json.push_str(&format!(
        "  \"graph_build\": {{\"builds\": {GRAPH_BUILDS}, \"unit\": \"ms_per_build\", \"rows\": [\n"
    ));
    for (i, b) in builds.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"spec\": \"{}\", \"n\": {}, \"m\": {}, \"median_ms\": {:.3}, \
             \"p25_ms\": {:.3}, \"p75_ms\": {:.3}}}{}\n",
            b.spec,
            b.n,
            b.m,
            b.median_ms,
            b.p25_ms,
            b.p75_ms,
            if i + 1 < builds.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]},\n");
    json.push_str(&format!(
        "  \"batch_campaign\": {{\"graph\": \"{POOL_CAMPAIGN_GRAPH}\", \"init\": \"{POOL_CAMPAIGN_INIT}\", \
         \"process\": \"div_edge\", \"trials\": {POOL_TRIALS}, \"lanes\": {DEFAULT_LANES}, \
         \"repeats\": {POOL_REPEATS}, \"rows\": [\n"
    ));
    for (i, r) in pool.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"threads\": {}, \"steps_per_sec_median\": {:.0}, \"steps_per_sec_p25\": {:.0}, \
             \"steps_per_sec_p75\": {:.0}, \"occupancy_median\": {:.3}, \"occupancy_p25\": {:.3}, \
             \"occupancy_p75\": {:.3}}}{}\n",
            r.threads,
            r.steps_per_sec[1],
            r.steps_per_sec[0],
            r.steps_per_sec[2],
            r.occupancy[1],
            r.occupancy[0],
            r.occupancy[2],
            if i + 1 < pool.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]},\n");
    let telemetry: Vec<&Overhead> = overheads.iter().filter(|o| o.arm != "monitor").collect();
    json.push_str("  \"telemetry_overhead\": [\n");
    for (i, o) in telemetry.iter().enumerate() {
        // The scalar rows keep their historic key names; the engine
        // sampled arms record generic plain/sampled ns-per-step.
        let (plain_key, observed_key) = match o.arm {
            "null_observer" => ("fast_plain", "fast_null_observer"),
            _ => ("plain", "sampled"),
        };
        json.push_str(&format!(
            "    {{\"arm\": \"{}\", \"graph\": \"{}\", \"process\": \"{}\", \"{plain_key}\": {:.2}, \"{observed_key}\": {:.2}, \"ratio\": {:.3}, \"limit\": {OVERHEAD_LIMIT}}}{}\n",
            o.arm,
            o.graph,
            o.process,
            o.plain_ns,
            o.observed_ns,
            o.ratio(),
            if i + 1 < telemetry.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    let monitor = overheads
        .iter()
        .find(|o| o.arm == "monitor")
        .expect("monitor arm always measured");
    json.push_str(&format!(
        "  \"monitor_overhead\": {{\"graph\": \"{}\", \"process\": \"{}\", \"fast_plain\": {:.2}, \"fast_monitored\": {:.2}, \"ratio\": {:.3}, \"limit\": {OVERHEAD_LIMIT}}}\n",
        monitor.graph,
        monitor.process,
        monitor.plain_ns,
        monitor.observed_ns,
        monitor.ratio()
    ));
    json.push_str("}\n");

    for r in &rows {
        println!(
            "{:>12}/{:<10} reference {:7.2} ns/step   fast {:6.2} ns/step   speedup {:5.2}x",
            r.graph,
            r.process,
            r.reference_ns,
            r.fast_ns,
            r.reference_ns / r.fast_ns
        );
    }
    std::fs::write(&out, json).unwrap_or_else(|e| {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(1);
    });
    println!("wrote {out}");

    for b in &batch_rows {
        println!(
            "{:>12}/batch K={} T={}  scalar {:5.2} ns/step   batch {:5.2} ns/lane-step   campaign {:>12.0} steps/s   speedup {:4.2}x",
            b.graph,
            b.lanes,
            b.threads,
            b.scalar_ns_per_step,
            b.ns_per_lane_step,
            b.campaign_steps_per_sec,
            b.speedup()
        );
    }
    println!(
        "simd: selected tier {} (cpu: {})",
        simd.selected, simd.cpu_features
    );
    for r in &simd.rows {
        println!(
            "{:>12}/simd K={} tier {:6}  {:5.2} ns/lane-step   campaign {:>12.0} steps/s   speedup {:4.2}x",
            r.graph,
            simd.lanes,
            r.tier,
            r.ns_per_lane_step,
            r.campaign_steps_per_sec,
            r.speedup
        );
    }
    for r in &shard.rows {
        println!(
            "{:>13}/shard P={} T={}  scalar {:5.2} ns/step   sharded {:5.2} ns/step   {:>12.0} steps/s",
            shard.graph, shard.shards, r.threads, shard.fast_ns_per_step, r.ns_per_step, r.steps_per_sec
        );
    }
    println!(
        "shard T=2 scaling: {:.2}x on {} core(s) (recorded, not gated)",
        shard.scaling_t2, shard.cores
    );
    println!(
        "shard T=4 scaling: {:.2}x on {} core(s) (gate >= {SHARD_SCALING_GATE}x applies at 4+ cores)",
        shard.scaling_t4, shard.cores
    );
    for b in &builds {
        println!(
            "{:>24}/build n={} m={}  median {:.3} ms [IQR {:.3}–{:.3}] over {GRAPH_BUILDS} builds",
            b.spec, b.n, b.m, b.median_ms, b.p25_ms, b.p75_ms
        );
    }
    for r in &pool {
        println!(
            "{POOL_CAMPAIGN_GRAPH}/batch campaign K={DEFAULT_LANES} T={}  median {:.0} steps/s \
             [IQR {:.0}–{:.0}]   lane occupancy {:.3} [IQR {:.3}–{:.3}] over {POOL_REPEATS} runs",
            r.threads,
            r.steps_per_sec[1],
            r.steps_per_sec[0],
            r.steps_per_sec[2],
            r.occupancy[1],
            r.occupancy[0],
            r.occupancy[2]
        );
    }
    let worst = rows
        .iter()
        .map(|r| r.reference_ns / r.fast_ns)
        .fold(f64::INFINITY, f64::min);
    println!("worst-case speedup: {worst:.2}x (target >= 3x)");
    for o in &overheads {
        println!(
            "{} overhead ({}/{}): ratio {:.3} (limit {OVERHEAD_LIMIT})",
            o.arm,
            o.graph,
            o.process,
            o.ratio()
        );
    }
}
