//! Machine-readable step-throughput ledger and perf gates.
//!
//! ```text
//! perf_smoke [--steps N] [--out PATH] [--check-overhead [--against OLD.json]] [--print-tier]
//! ```
//!
//! A full run measures every section below and writes the ledger
//! `BENCH_step_throughput.json`.  Every number in it comes from one rule,
//! [`interleave`]: the arms of a measurement each run once per round for
//! [`REPEATS`] rounds, each round starting at the next arm, so slow host
//! drift (thermal, noisy neighbours on a shared runner) hits every arm
//! alike.  A row records `repeats` and the median and quartiles of each
//! arm's readings; a ratio of two arms is taken within each round and the
//! row records the median and quartiles of the per-round ratios.
//! `--steps` sets the step budget of one window.
//!
//! - `benchmarks`: ns/step of the reference path (`DivProcess` +
//!   `StdRng`) and the compiled engine (`FastProcess` + `FastRng`) for the
//!   vertex and edge processes on `complete_1k` and `regular8_1k`, and
//!   their speedup (the tracked floor is 3×).
//! - `simd`: the runtime-dispatched kernel layer ([`div_core::kernels`]).
//!   One lane group of the batch engine (`K = 8` lanes, one thread) steps a
//!   *sweep* workload — every vertex at a distinct opinion, the widest
//!   start, for the wide-interval regime the kernels optimize — pinned to each tier the host supports, against the scalar fast engine
//!   running the same trials one by one.  Gated on AVX2 hosts: the
//!   selected tier's speedup on `complete_1k` must be at least
//!   [`SIMD_SPEEDUP_GATE`]; other hosts record `"gate": "skipped (no avx2)"`.
//! - `shard`: one million-vertex trial of the sharded engine
//!   ([`div_core::ShardedProcess`], 8-regular circulant, 8 domains) on 1,
//!   2 and 4 threads against the fast engine.  `cores` records the
//!   machine (thread arms beyond it measure timeslicing, not scaling);
//!   `scaling_t2` is recorded, and `scaling_t4` is gated at
//!   ≥ [`SHARD_SCALING_GATE`] on 4+ cores and replaced by
//!   `"gate": "skipped (cores=N)"` elsewhere.
//! - `graph_build`: ms per build of each of [`GRAPH_BUILD_SPECS`] through
//!   [`div_bench::spec::parse_graph`], the path every `divlab` and `divd`
//!   trial takes to its graph.
//! - `batch_campaign`: the batch campaign end to end through its shared
//!   lane pool ([`div_bench::trial::BatchPool`], the path of
//!   `divlab campaign --engine batch`) on one and two workers: steps per
//!   second, and the lane occupancy — the lanes each block stepped times
//!   the block's seconds, over the `K × workers` lane slots times the
//!   campaign's wall seconds.
//! - `faulty`: the fast engine's faulty layer under `drop:0.1` on
//!   `regular8_1k`: the thinned block engine (`run_faulty_to_consensus`)
//!   against a per-step `step_faulty` loop on the same trajectory.
//! - `telemetry_overhead` and `monitor_overhead`: instrumented against
//!   plain runs of identical trajectories, each ratio gated at
//!   ≤ [`OVERHEAD_LIMIT`]: the disabled [`NullObserver`] through the fast
//!   engine's observed entry point (vertex and edge process, on the
//!   sparse `regular8_1k` where any fixed cost shows most), per-trial
//!   publication to a live [`CampaignMonitor`] (what `divlab --serve`
//!   adds), and the batch (`K = 8`) and sharded (`P = 8`) engines sampling
//!   an *enabled* observer at their native lattices.
//!
//! `--check-overhead` measures the gated sections (`simd`, `shard` and the
//! two overhead sections), renders them with the ledger writer and judges
//! that text with [`judge`], exiting 1 if a gate fails.  On a host under
//! four cores, where the shard gate can only skip, the check times no
//! shard arm and records just `cores` and the skip reason.
//! `--check-overhead --against OLD.json` judges a recorded ledger with the
//! same function; gates a schema-older file does not record are skipped
//! with a note.

use std::cell::Cell;
use std::time::Instant;

use div_bench::spec::{parse_graph, parse_opinions};
use div_bench::trial::{outcome_of, BatchPool, Engine, TrialSetup, Unwatched};
use div_core::{
    init, BatchProcess, DivProcess, EdgeScheduler, FastProcess, FastRng, FastScheduler, FaultPlan,
    KernelTier, NullObserver, Observer, Scheduler, ShardedProcess, TelemetrySample,
    VertexScheduler,
};
use div_graph::{generators, Graph};
use div_sim::stats::quantile;
use div_sim::{
    run_campaign_pooled, CampaignConfig, CampaignHooks, CampaignMonitor, LaneEngine, SeedSequence,
    TrialCtx, TrialOutcome,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const DEFAULT_STEPS: u64 = 2_000_000;

/// Rounds of every measurement.
const REPEATS: usize = 7;

/// Lockstep lanes per batch group.
const DEFAULT_LANES: usize = 8;

/// Master seed of the sweep workload's lane seeds (the scalar arm runs the
/// same [`SeedSequence::seed_for`] seeds, so every arm replays the same
/// trajectories).
const BATCH_MASTER: u64 = 0xBA7C;

/// Maximum tolerated instrumented : plain ratio of every overhead arm.
/// The `NullObserver` path is monomorphised away, so anything above noise
/// is a regression.
const OVERHEAD_LIMIT: f64 = 1.05;

/// Shard domains in the sharded-engine million-vertex arms.
const SHARD_COUNT: usize = 8;

/// Master seed for the sharded arms' per-shard streams.
const SHARD_MASTER: u64 = 0x5AAD;

/// Minimum T=4 : T=1 throughput ratio of the sharded engine on the
/// million-vertex workload — the CI thread-scaling gate.  Only evaluated
/// on machines with at least four cores; a smaller machine cannot
/// measure scaling and records a skip reason instead.
const SHARD_SCALING_GATE: f64 = 2.5;

/// Minimum batch : scalar sweep throughput ratio at `K = DEFAULT_LANES`
/// lanes on one thread — the SIMD kernel acceptance gate.  Evaluated on
/// `complete_1k` (the paper's canonical family and the densest per-step
/// workload) with the auto-selected kernel tier; hosts without AVX2
/// cannot run the vector drives and skip the gate with a recorded reason.
///
/// The limit was 2.8 while the scalar campaign stepped a loop that kept
/// the count table and the range walk per step.  That loop is gone:
/// the scalar campaign now runs the single-lane block loop the batch
/// engine's scalar tier runs, so a tier pinned to scalar reads ≈ 1.0.
/// Within a round, the old loop took r = 2.13 times the lane loop's time
/// (the scalar-tier `speedup` of the last ledger recorded with it; 2.19
/// in one more run), so the same absolute bar over the lane loop is
/// 2.8 / r ≈ 1.31 (1.28): the limit is 1.3.
const SIMD_SPEEDUP_GATE: f64 = 1.3;

/// The graph-build section's specs: the benchmark's `sharded_100k`
/// circulant, its largest graph, and the random regular expander of its
/// campaign workloads.
const GRAPH_BUILD_SPECS: [&str; 2] = ["circulant:100000:1,2,3,4", "regular:2000:8"];

/// The batch-campaign section's graph and opinions: the benchmark's
/// `campaign_batch_expander` job, whose consensus times are heavy-tailed.
const POOL_CAMPAIGN_GRAPH: &str = "regular:2000:8";

/// Opinion spec of the batch-campaign section (average `c ≈ 5`).
const POOL_CAMPAIGN_INIT: &str = "blocks:1x222,2x222,3x222,4x222,5x222,6x222,7x222,8x222,9x224";

/// Trials per batch campaign in the batch-campaign section.
const POOL_TRIALS: usize = 64;

/// Per-lane step budget of the batch sampled-overhead arm.  The sweep
/// start keeps every lane in the wide-interval regime for this whole
/// budget (asserted), so the windows time steady-state stepping only —
/// the one-off `O(τ)` phase-location replay near convergence is bounded
/// work, not a per-step cost, and is deliberately excluded.
const SAMPLED_ARM_STEPS: u64 = 500_000;

/// Step budget of each faulty-section window.
const FAULTY_STEPS: u64 = 200_000;

fn usage() -> ! {
    eprintln!(
        "usage: perf_smoke [--steps N] [--out PATH] [--check-overhead [--against OLD.json]] [--print-tier]"
    );
    std::process::exit(2);
}

/// `[p25, median, p75]` of a sample.
type Quartiles = [f64; 3];

fn quartiles(xs: &[f64]) -> Quartiles {
    [0.25, 0.5, 0.75].map(|q| quantile(xs, q))
}

/// The readings of a set of arms: `self.0[round][arm]`.
struct Rounds(Vec<Vec<f64>>);

impl Rounds {
    /// Quartiles of `f` over the rounds.
    fn quartiles(&self, f: impl Fn(&[f64]) -> f64) -> Quartiles {
        quartiles(&self.0.iter().map(|round| f(round)).collect::<Vec<_>>())
    }

    /// Quartiles of arm `a`'s readings.
    fn arm(&self, a: usize) -> Quartiles {
        self.quartiles(|round| round[a])
    }

    /// Quartiles of the per-round ratio of arm `num` to arm `den`.
    fn ratio(&self, num: usize, den: usize) -> Quartiles {
        self.quartiles(|round| round[num] / round[den])
    }
}

/// The one repeat rule: `run(a)` takes one reading of arm `a`; every one
/// of the `arms` arms runs once per round for [`REPEATS`] rounds, round
/// `r` starting at arm `r mod arms` (with two arms, the order
/// alternates), so drift in the host's speed hits every arm alike.
fn interleave(arms: usize, mut run: impl FnMut(usize) -> f64) -> Rounds {
    let rounds = (0..REPEATS)
        .map(|r| {
            let mut round = vec![0.0; arms];
            for k in 0..arms {
                let a = (r + k) % arms;
                round[a] = run(a);
            }
            round
        })
        .collect();
    Rounds(rounds)
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

/// The benchmark's copy of `regular8_1k`, bit-identical to [`graphs`]'
/// (which draws nothing for `complete_1k`).
fn regular8_1k() -> Graph {
    graphs().remove(1).1
}

fn opinions_for(g: &Graph) -> Vec<i64> {
    let mut rng = StdRng::seed_from_u64(7);
    init::uniform_random(g.num_vertices(), 9, &mut rng).unwrap()
}

/// Times up to `steps` reference-path steps (early exit at consensus, as
/// the reference driver `run_until` does), returning ns/step.
fn time_reference<S: Scheduler>(g: &Graph, scheduler: S, steps: u64) -> f64 {
    let mut p = DivProcess::new(g, opinions_for(g), scheduler).unwrap();
    let mut rng = StdRng::seed_from_u64(3);
    // Warmup: fault in tables and caches.
    p.run_until(10_000, &mut rng, |s| s.is_consensus(), |_, _| {});
    let before = p.steps();
    let start = Instant::now();
    p.run_until(steps, &mut rng, |s| s.is_consensus(), |_, _| {});
    let elapsed = start.elapsed();
    elapsed.as_nanos() as f64 / (p.steps() - before).max(1) as f64
}

/// The instrumentation a fast-engine window runs under.
enum Arm<'a> {
    Plain,
    /// Through the observed entry point with the disabled [`NullObserver`].
    NullObserver,
    /// Per-trial live-monitor publication (`trial_started` +
    /// `record_outcome`, what a monitored campaign slot adds) inside the
    /// timed window.
    Monitor(&'a CampaignMonitor),
}

/// Times up to `steps` fast-engine steps (early exit at consensus) under
/// `arm`, returning (ns/step, steps).  Every arm replays the same seeded
/// trajectory.
fn time_fast(g: &Graph, scheduler: FastScheduler, steps: u64, arm: &Arm) -> (f64, u64) {
    let mut p = FastProcess::new(g, opinions_for(g), scheduler).unwrap();
    let mut rng = FastRng::seed_from_u64(3);
    let mut run = |p: &mut FastProcess, budget: u64| match arm {
        Arm::NullObserver => p.run_observed(budget, &mut rng, 64, &mut NullObserver),
        _ => p.run_to_consensus(budget, &mut rng),
    };
    run(&mut p, 10_000);
    let before = p.steps();
    let start = Instant::now();
    if let Arm::Monitor(m) = arm {
        m.trial_started();
    }
    let status = run(&mut p, steps);
    if let Arm::Monitor(m) = arm {
        m.record_outcome(&outcome_of(status, false, 0, 0));
    }
    let elapsed = start.elapsed();
    let taken = (p.steps() - before).max(1);
    (elapsed.as_nanos() as f64 / taken as f64, taken)
}

/// Pools fresh seeded windows (each early-exiting at consensus) until at
/// least `min_steps` steps have been timed, returning ns/step.  A single
/// run on `regular8_1k` reaches consensus well before the step budget, so
/// one window alone is too short to time reliably.
fn aggregate_fast(g: &Graph, scheduler: FastScheduler, min_steps: u64, arm: &Arm) -> f64 {
    let (mut ns, mut total) = (0.0, 0u64);
    while total < min_steps {
        let (per, taken) = time_fast(g, scheduler, min_steps, arm);
        ns += per * taken as f64;
        total += taken;
    }
    ns / total as f64
}

/// Cheapest *enabled* observer: counts samples, so the engines' sampled
/// paths stay compiled in (unlike [`NullObserver`], which monomorphises
/// them away).
struct CountingObserver(u64);

impl Observer for CountingObserver {
    fn on_sample(&mut self, _sample: &TelemetrySample) {
        self.0 += 1;
    }
}

/// ns/step of a window of `steps` steps, among arms that replay one
/// trajectory: the first window's steps land in `seen`, and every other
/// window must match them.
fn per_step(seen: &Cell<u64>, ns: f64, steps: u64) -> f64 {
    match seen.get() {
        0 => seen.set(steps),
        first => assert_eq!(steps, first, "an arm diverged from the others' trajectory"),
    }
    ns / steps as f64
}

/// The sweep workload on one graph: one group of [`DEFAULT_LANES`]
/// seeded trials from every vertex at a distinct opinion, the widest
/// start there is, which keeps the runs in the wide-interval regime the
/// kernels optimize for as long as possible.  Every arm replays the same
/// trajectories, so each must step the total the first arm stepped.
struct Sweep<'g> {
    g: &'g Graph,
    ops: Vec<i64>,
    budget: u64,
    steps: Cell<u64>,
}

impl<'g> Sweep<'g> {
    fn new(g: &'g Graph, budget: u64) -> Self {
        let n = g.num_vertices();
        let ops = init::spread(n, n).unwrap();
        let steps = Cell::new(0);
        Sweep {
            g,
            ops,
            budget,
            steps,
        }
    }

    fn seeds() -> Vec<u64> {
        (0..DEFAULT_LANES as u64)
            .map(|i| SeedSequence::seed_for(BATCH_MASTER, i))
            .collect()
    }

    /// The trials one by one through the scalar fast engine.
    fn scalar(&self) -> f64 {
        let start = Instant::now();
        let mut total = 0u64;
        for seed in Self::seeds() {
            let mut p = FastProcess::new(self.g, self.ops.clone(), FastScheduler::Edge).unwrap();
            p.run_to_consensus(self.budget, &mut FastRng::seed_from_u64(seed));
            total += p.steps();
        }
        per_step(&self.steps, start.elapsed().as_nanos() as f64, total)
    }

    /// The trials in lockstep as one batch group.  `tier` pins a kernel
    /// tier (`None` keeps the auto-selected one); `sampled` drives
    /// [`BatchProcess::run_observed`] at the default block lattice with
    /// one enabled observer per lane, and checks that no lane left the
    /// wide-interval regime, so the window excludes the one-off
    /// phase-location replay.
    fn batch(&self, tier: Option<KernelTier>, sampled: bool) -> f64 {
        let start = Instant::now();
        let seeds = Self::seeds();
        let mut b =
            BatchProcess::new(self.g, self.ops.clone(), FastScheduler::Edge, &seeds).unwrap();
        if let Some(t) = tier {
            b.set_kernel_tier(t);
        }
        if sampled {
            let mut obs: Vec<CountingObserver> =
                seeds.iter().map(|_| CountingObserver(0)).collect();
            b.run_observed(self.budget, 0, &mut obs);
        } else {
            b.run_to_consensus(self.budget);
        }
        let ns = start.elapsed().as_nanos() as f64;
        if sampled {
            assert!(
                (0..seeds.len()).all(|l| !b.is_two_adjacent(l)),
                "the sampled arm left the wide-interval regime; shrink its budget"
            );
        }
        per_step(&self.steps, ns, (0..seeds.len()).map(|l| b.steps(l)).sum())
    }
}

/// The million-vertex workload of the sharded arms: an 8-regular
/// circulant, built in `O(n)` with no quadratic intermediates.
fn circulant8_1m() -> Graph {
    generators::circulant(1_000_000, &[1, 2, 3, 4]).unwrap()
}

/// Times `steps` sharded-engine steps of one million-vertex trial on
/// `threads` workers (after a one-round warmup), returning ns/step;
/// `sampled` drives [`ShardedProcess::run_observed`] at the round lattice
/// with an enabled observer.  The nine-opinion spread cannot absorb
/// within the budget, so no early exit distorts the window.
fn time_sharded(g: &Graph, threads: usize, steps: u64, sampled: bool) -> f64 {
    let seeds: Vec<u64> = (0..SHARD_COUNT as u64)
        .map(|p| SeedSequence::seed_for(SHARD_MASTER, p))
        .collect();
    let opinions = init::spread(g.num_vertices(), 9).unwrap();
    let mut p = ShardedProcess::new(g, opinions, FastScheduler::Edge, &seeds).unwrap();
    let mut obs = CountingObserver(0);
    let mut run = |p: &mut ShardedProcess, budget: u64| {
        if sampled {
            p.run_observed(budget, threads, 0, &mut obs);
        } else {
            p.run_to_consensus(budget, threads);
        }
    };
    run(&mut p, g.num_vertices() as u64);
    let before = p.steps();
    let start = Instant::now();
    run(&mut p, steps);
    let elapsed = start.elapsed();
    elapsed.as_nanos() as f64 / (p.steps() - before).max(1) as f64
}

/// Times one faulty-section window of at most [`FAULTY_STEPS`] steps
/// (early exit at consensus), returning ns/step: the thinned block engine,
/// or a `step_faulty` loop with a consensus check per step.
fn time_faulty(
    g: &Graph,
    plan: &FaultPlan,
    scheduler: FastScheduler,
    thinned: bool,
    seen: &Cell<u64>,
) -> f64 {
    let ops = opinions_for(g);
    let mut session = plan.session(&ops).unwrap();
    let mut p = FastProcess::new(g, ops, scheduler).unwrap();
    let mut rng = FastRng::seed_from_u64(3);
    let start = Instant::now();
    if thinned {
        p.run_faulty_to_consensus(FAULTY_STEPS, &mut session, &mut rng);
    } else {
        for _ in 0..FAULTY_STEPS {
            if p.is_consensus() {
                break;
            }
            p.step_faulty(&mut session, &mut rng);
        }
    }
    per_step(seen, start.elapsed().as_nanos() as f64, p.steps())
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

/// Runs the batch-campaign section's campaign on `threads` workers,
/// returning (steps per second, lane occupancy).
fn pool_campaign(setup: &TrialSetup, threads: usize) -> (f64, f64) {
    let mut cfg = CampaignConfig::new(POOL_TRIALS, 0x9001);
    cfg.threads = threads;
    let pool = Metered {
        inner: BatchPool::new(setup, &Unwatched, DEFAULT_LANES),
        lane_secs: std::sync::Mutex::new(0.0),
    };
    // What `run_engine_campaign` runs for a batch campaign.
    let demoted = |ctx: &TrialCtx| setup.run(Engine::Fast, ctx, &mut NullObserver).outcome;
    let start = Instant::now();
    let report = run_campaign_pooled(&cfg, CampaignHooks::default(), &pool, demoted)
        .expect("campaign without checkpoints cannot fail");
    let wall = start.elapsed().as_secs_f64();
    let steps: u64 = report.outcomes.values().map(TrialOutcome::steps).sum();
    let lane_secs = pool
        .lane_secs
        .into_inner()
        .expect("no block time update panics");
    let slots = (DEFAULT_LANES * threads) as f64;
    (steps as f64 / wall, lane_secs / (slots * wall))
}

fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |t| t.get())
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

// The ledger writer.  Hand-rolled JSON: the workspace deliberately has
// no serializer dependency.  Each section is one line of head fields
// followed by one line per row, which is what [`judge`] scans.

fn num(key: &str, v: f64, decimals: usize) -> String {
    format!("\"{key}\": {v:.decimals$}")
}

fn text(key: &str, v: &str) -> String {
    format!("\"{key}\": \"{v}\"")
}

/// The median under `key`, the quartiles under `key_p25` and `key_p75`.
fn spread(key: &str, q: Quartiles, decimals: usize) -> String {
    format!(
        "\"{key}\": {:.decimals$}, \"{key}_p25\": {:.decimals$}, \"{key}_p75\": {:.decimals$}",
        q[1], q[0], q[2]
    )
}

/// One measured row: its identifying fields, `repeats`, then its spreads.
fn row(ids: Vec<String>, spreads: Vec<String>) -> String {
    let mut fields = ids;
    fields.push(format!("\"repeats\": {REPEATS}"));
    fields.extend(spreads);
    format!("{{{}}}", fields.join(", "))
}

fn section(key: &str, head: Vec<String>, rows: Vec<String>) -> String {
    let mut fields = head;
    fields.push(format!("\"rows\": [\n    {}\n  ]", rows.join(",\n    ")));
    format!("  \"{key}\": {{{}}}", fields.join(", "))
}

fn document(steps: u64, sections: &[String]) -> String {
    format!(
        "{{\n  \"steps_per_measurement\": {steps},\n{}\n}}\n",
        sections.join(",\n")
    )
}

// The sections.

fn benchmark_row<S: Scheduler>(
    graph: &str,
    process: &str,
    g: &Graph,
    reference: fn() -> S,
    fast: FastScheduler,
    steps: u64,
) -> String {
    let r = interleave(2, |a| match a {
        0 => time_reference(g, reference(), steps),
        _ => time_fast(g, fast, steps, &Arm::Plain).0,
    });
    row(
        vec![text("graph", graph), text("process", process)],
        vec![
            spread("reference", r.arm(0), 2),
            spread("fast", r.arm(1), 2),
            spread("speedup", r.ratio(0, 1), 2),
        ],
    )
}

fn benchmarks(steps: u64) -> String {
    let mut rows = Vec::new();
    for (gname, g) in graphs() {
        let vertex = VertexScheduler::new;
        rows.push(benchmark_row(
            gname,
            "div_vertex",
            &g,
            vertex,
            FastScheduler::Vertex,
            steps,
        ));
        let edge = EdgeScheduler::new;
        rows.push(benchmark_row(
            gname,
            "div_edge",
            &g,
            edge,
            FastScheduler::Edge,
            steps,
        ));
    }
    section("benchmarks", vec![text("unit", "ns_per_step")], rows)
}

fn simd(steps: u64) -> String {
    let tiers = KernelTier::supported();
    let selected = KernelTier::active();
    let mut gate = text("gate", "skipped (no avx2)");
    let mut rows = Vec::new();
    for (gname, g) in graphs() {
        let sweep = Sweep::new(&g, steps);
        let r = interleave(1 + tiers.len(), |a| match a {
            0 => sweep.scalar(),
            _ => sweep.batch(Some(tiers[a - 1]), false),
        });
        for (i, &t) in tiers.iter().enumerate() {
            let speedup = r.ratio(0, i + 1);
            if KernelTier::Avx2.is_supported() && t == selected && gname == "complete_1k" {
                gate = num("gate_speedup", speedup[1], 3);
            }
            rows.push(row(
                vec![text("tier", t.name()), text("graph", gname)],
                vec![
                    spread("ns_per_lane_step", r.arm(i + 1), 2),
                    spread("speedup", speedup, 3),
                ],
            ));
        }
    }
    let head = vec![
        format!("\"lanes\": {DEFAULT_LANES}"),
        text("selected", selected.name()),
        text("cpu_features", &cpu_features()),
        gate,
    ];
    section("simd", head, rows)
}

/// The `shard` section.  A `check` on a host under four cores renders
/// [`shard_skipped`] instead of timing arms its gate would ignore.
fn shard(steps: u64, check: bool) -> String {
    let cores = available_cores();
    if check && cores < 4 {
        return shard_skipped(cores);
    }
    let g = &circulant8_1m();
    let threads = [1usize, 2, 4];
    let r = interleave(1 + threads.len(), |a| match a {
        0 => time_fast(g, FastScheduler::Edge, steps, &Arm::Plain).0,
        _ => time_sharded(g, threads[a - 1], steps, false),
    });
    // The T=4 ratio is recorded only where it means something: below four
    // cores it measures timeslicing, so the gate records why it skipped.
    let gate = if cores >= 4 {
        spread("scaling_t4", r.ratio(1, 3), 3)
    } else {
        text("gate", &format!("skipped (cores={cores})"))
    };
    let head = vec![
        text("graph", "circulant8_1M"),
        text("process", "div_edge"),
        format!("\"n\": {}", g.num_vertices()),
        format!("\"shards\": {SHARD_COUNT}"),
        format!("\"cores\": {cores}"),
        format!("\"repeats\": {REPEATS}"),
        spread("fast_ns_per_step", r.arm(0), 2),
        spread("scaling_t2", r.ratio(1, 2), 3),
        gate,
    ];
    let rows = (threads.iter().enumerate())
        .map(|(i, t)| {
            let ids = vec![format!("\"threads\": {t}")];
            row(ids, vec![spread("ns_per_step", r.arm(i + 1), 2)])
        })
        .collect();
    section("shard", head, rows)
}

/// The untimed `shard` section: the host's core count and the gate's
/// skip reason, all [`judge`] reads on a host under four cores.
fn shard_skipped(cores: usize) -> String {
    let head = vec![
        format!("\"cores\": {cores}"),
        text("gate", &format!("skipped (cores={cores})")),
    ];
    section("shard", head, Vec::new())
}

fn graph_build() -> String {
    let build = |spec: &str| {
        let mut rng = StdRng::seed_from_u64(1);
        parse_graph(spec, &mut rng).expect("graph-build specs are valid")
    };
    // Each build's graph is dropped after its window closes.
    let r = interleave(GRAPH_BUILD_SPECS.len(), |a| {
        let start = Instant::now();
        let _g = build(GRAPH_BUILD_SPECS[a]);
        start.elapsed().as_secs_f64() * 1e3
    });
    let rows = (GRAPH_BUILD_SPECS.iter().enumerate())
        .map(|(i, &spec)| {
            let g = build(spec);
            let ids = vec![
                text("spec", spec),
                format!("\"n\": {}", g.num_vertices()),
                format!("\"m\": {}", g.num_edges()),
            ];
            row(ids, vec![spread("ms", r.arm(i), 3)])
        })
        .collect();
    section("graph_build", vec![text("unit", "ms_per_build")], rows)
}

fn batch_campaign() -> String {
    let mut rng = StdRng::seed_from_u64(SeedSequence::seed_for(1, 0));
    let g = parse_graph(POOL_CAMPAIGN_GRAPH, &mut rng).expect("valid graph spec");
    let ops =
        parse_opinions(POOL_CAMPAIGN_INIT, g.num_vertices(), &mut rng).expect("valid opinion spec");
    let faults = FaultPlan::none();
    let setup = &TrialSetup::new(&g, &ops, FastScheduler::Edge, &faults);
    let threads = [1usize, 2];
    let mut occupancy = vec![Vec::new(); threads.len()];
    let r = interleave(threads.len(), |a| {
        let (rate, occ) = pool_campaign(setup, threads[a]);
        occupancy[a].push(occ);
        rate
    });
    let rows = (threads.iter().enumerate())
        .map(|(i, t)| {
            let spreads = vec![
                spread("steps_per_sec", r.arm(i), 0),
                spread("occupancy", quartiles(&occupancy[i]), 3),
            ];
            row(vec![format!("\"threads\": {t}")], spreads)
        })
        .collect();
    let head = vec![
        text("graph", POOL_CAMPAIGN_GRAPH),
        text("init", POOL_CAMPAIGN_INIT),
        text("process", "div_edge"),
        format!("\"trials\": {POOL_TRIALS}"),
        format!("\"lanes\": {DEFAULT_LANES}"),
    ];
    section("batch_campaign", head, rows)
}

fn faulty() -> String {
    let g = &regular8_1k();
    let plan = &FaultPlan::drop_only(0.1).unwrap();
    let mut rows = Vec::new();
    for (process, scheduler) in [
        ("div_edge", FastScheduler::Edge),
        ("div_vertex", FastScheduler::Vertex),
    ] {
        let seen = &Cell::new(0);
        let r = interleave(2, |a| time_faulty(g, plan, scheduler, a == 0, seen));
        rows.push(row(
            vec![text("process", process)],
            vec![
                spread("thinned", r.arm(0), 2),
                spread("step_faulty", r.arm(1), 2),
                spread("speedup", r.ratio(1, 0), 2),
            ],
        ));
    }
    let head = vec![
        text("graph", "regular8_1k"),
        text("faults", "drop:0.1"),
        format!("\"steps\": {FAULTY_STEPS}"),
        text("unit", "ns_per_step"),
    ];
    section("faulty", head, rows)
}

/// One overhead row: arm 0 of `r` is the plain run, arm 1 the
/// instrumented one.
fn overhead_row(arm: &str, graph: &str, process: &str, r: Rounds) -> String {
    row(
        vec![
            text("arm", arm),
            text("graph", graph),
            text("process", process),
        ],
        vec![
            spread("plain", r.arm(0), 2),
            spread("instrumented", r.arm(1), 2),
            spread("ratio", r.ratio(1, 0), 3),
            num("limit", OVERHEAD_LIMIT, 2),
        ],
    )
}

fn telemetry_overhead(steps: u64) -> String {
    let g = &regular8_1k();
    let mut rows = Vec::new();
    for (process, scheduler) in [
        ("div_vertex", FastScheduler::Vertex),
        ("div_edge", FastScheduler::Edge),
    ] {
        let arms = [Arm::Plain, Arm::NullObserver];
        let r = interleave(2, |a| aggregate_fast(g, scheduler, steps, &arms[a]));
        rows.push(overhead_row("null_observer", "regular8_1k", process, r));
    }
    let sweep = Sweep::new(g, steps.min(SAMPLED_ARM_STEPS));
    let r = interleave(2, |a| sweep.batch(None, a == 1));
    rows.push(overhead_row("batch_sampled", "regular8_1k", "div_edge", r));
    let g1m = &circulant8_1m();
    let r = interleave(2, |a| time_sharded(g1m, 1, steps, a == 1));
    rows.push(overhead_row(
        "shard_sampled",
        "circulant8_1M",
        "div_edge",
        r,
    ));
    section("telemetry_overhead", Vec::new(), rows)
}

fn monitor_overhead(steps: u64) -> String {
    let g = &regular8_1k();
    let monitor = CampaignMonitor::new();
    let arms = [Arm::Plain, Arm::Monitor(&monitor)];
    let r = interleave(2, |a| {
        aggregate_fast(g, FastScheduler::Edge, steps, &arms[a])
    });
    let rows = vec![overhead_row("monitor", "regular8_1k", "div_edge", r)];
    section("monitor_overhead", Vec::new(), rows)
}

// The gate evaluator.

/// The body of top-level `section` in a ledger: from its key to the next
/// top-level key (two-space indent) or the end of the document.
fn section_body<'a>(text: &'a str, section: &str) -> Option<&'a str> {
    let start = text.find(&format!("\"{section}\""))?;
    let body = &text[start..];
    let end = body
        .find("\n  \"")
        .map(|i| i + 1)
        .unwrap_or_else(|| body.rfind('}').unwrap_or(body.len()));
    Some(&body[..end])
}

/// Every `"field": NUMBER` in a section body.  Ledgers come from this
/// tool's own stable writer, so plain string scanning suffices.
fn numbers(body: &str, field: &str) -> Vec<f64> {
    let needle = format!("\"{field}\":");
    let mut out = Vec::new();
    let mut rest = body;
    while let Some(i) = rest.find(&needle) {
        rest = rest[i + needle.len()..].trim_start();
        let num: String = rest
            .chars()
            .take_while(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | 'e'))
            .collect();
        if let Ok(v) = num.parse() {
            out.push(v);
        }
    }
    out
}

/// The first `"field": "STRING"` in a section body.
fn string_field<'a>(body: &'a str, field: &str) -> Option<&'a str> {
    let needle = format!("\"{field}\":");
    let i = body.find(&needle)?;
    let rest = body[i + needle.len()..].trim_start().strip_prefix('"')?;
    Some(&rest[..rest.find('"')?])
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Verdict {
    Pass,
    Fail,
    Skip,
}

fn verdict(pass: bool) -> Verdict {
    if pass {
        Verdict::Pass
    } else {
        Verdict::Fail
    }
}

/// Judges every gate a ledger text records: each overhead ratio against
/// [`OVERHEAD_LIMIT`], the simd speedup against [`SIMD_SPEEDUP_GATE`] and
/// the T=4 shard scaling against [`SHARD_SCALING_GATE`].  Gates recorded
/// as skipped, measured on too few cores, or absent from an older schema
/// read [`Verdict::Skip`].
fn judge(text: &str) -> Vec<(Verdict, String)> {
    let mut out = Vec::new();
    let absent = |section: &str| (Verdict::Skip, format!("{section}: absent (older schema)"));
    for section in ["telemetry_overhead", "monitor_overhead"] {
        let Some(body) = section_body(text, section) else {
            out.push(absent(section));
            continue;
        };
        if numbers(body, "ratio").is_empty() {
            out.push((Verdict::Skip, format!("{section}: no recorded ratios")));
        }
        for line in body.lines() {
            let arm = match (string_field(line, "arm"), string_field(line, "process")) {
                (Some(arm), Some(process)) => format!(" {arm}/{process}"),
                (None, Some(process)) => format!(" {process}"),
                _ => String::new(),
            };
            for r in numbers(line, "ratio") {
                let note = format!("{section}{arm}: ratio {r:.3} (limit {OVERHEAD_LIMIT})");
                out.push((verdict(r <= OVERHEAD_LIMIT), note));
            }
        }
    }
    match section_body(text, "simd") {
        None => out.push(absent("simd")),
        Some(body) => out.push(match numbers(body, "gate_speedup").first() {
            Some(&s) => (
                verdict(s >= SIMD_SPEEDUP_GATE),
                format!("simd: campaign speedup {s:.2}x (gate >= {SIMD_SPEEDUP_GATE}x)"),
            ),
            None => (
                Verdict::Skip,
                format!(
                    "simd: gate {}",
                    string_field(body, "gate").unwrap_or("not recorded")
                ),
            ),
        }),
    }
    // Older ledgers record a (meaningless) T=4 ratio next to a low core
    // count; newer ones record a skip reason in its place.
    let shard = section_body(text, "shard");
    match shard.map(|body| (body, numbers(body, "cores").first().copied())) {
        None | Some((_, None)) => out.push(absent("shard")),
        Some((_, Some(c))) if c < 4.0 => out.push((
            Verdict::Skip,
            format!("shard: recorded on {c:.0} core(s) (< 4), too few to gate scaling"),
        )),
        Some((body, Some(_))) => out.push(match numbers(body, "scaling_t4").first() {
            Some(&s) => (
                verdict(s >= SHARD_SCALING_GATE),
                format!("shard: T=4 scaling {s:.2}x (gate >= {SHARD_SCALING_GATE}x)"),
            ),
            None => (
                Verdict::Skip,
                format!(
                    "shard: gate {}",
                    string_field(body, "gate").unwrap_or("not recorded")
                ),
            ),
        }),
    }
    out
}

/// Prints every reading of [`judge`]; returns whether a gate failed.
fn report(readings: &[(Verdict, String)]) -> bool {
    for (v, note) in readings {
        let tag = match v {
            Verdict::Pass => "ok",
            Verdict::Fail => "FAIL",
            Verdict::Skip => "skip",
        };
        println!("[{tag}] {note}");
    }
    readings.iter().any(|(v, _)| *v == Verdict::Fail)
}

/// The sections `--check-overhead` (`check`) measures and judges.
fn gated_sections(steps: u64, check: bool) -> Vec<String> {
    vec![
        simd(steps),
        shard(steps, check),
        telemetry_overhead(steps),
        monitor_overhead(steps),
    ]
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

    if check_overhead {
        let text = match &against {
            Some(path) => std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(2);
            }),
            None => {
                let text = document(steps, &gated_sections(steps, true));
                print!("{text}");
                text
            }
        };
        std::process::exit(i32::from(report(&judge(&text))));
    }

    let mut sections = vec![benchmarks(steps)];
    sections.extend(gated_sections(steps, false));
    sections.extend([graph_build(), batch_campaign(), faulty()]);
    let json = document(steps, &sections);
    std::fs::write(&out, &json).unwrap_or_else(|e| {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(1);
    });
    print!("{json}");
    println!("wrote {out}");
    report(&judge(&json));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger(sections: &[String]) -> String {
        document(1, sections)
    }

    fn ratio_section(key: &str, ratio: f64) -> String {
        section(
            key,
            Vec::new(),
            vec![row(Vec::new(), vec![num("ratio", ratio, 3)])],
        )
    }

    fn verdicts(text: &str) -> Vec<Verdict> {
        judge(text).into_iter().map(|(v, _)| v).collect()
    }

    #[test]
    fn each_gate_passes_below_its_limit_and_fails_above_it() {
        use Verdict::*;
        let eps = 2e-3;
        for (inside, want) in [(true, Pass), (false, Fail)] {
            let s = if inside { -eps } else { eps };
            let overhead = ratio_section("telemetry_overhead", OVERHEAD_LIMIT + s);
            let monitor = ratio_section("monitor_overhead", OVERHEAD_LIMIT + s);
            let simd = section(
                "simd",
                vec![num("gate_speedup", SIMD_SPEEDUP_GATE - s, 3)],
                Vec::new(),
            );
            let shard = section(
                "shard",
                vec![
                    num("cores", 4.0, 0),
                    num("scaling_t4", SHARD_SCALING_GATE - s, 3),
                ],
                Vec::new(),
            );
            let all = [overhead, monitor, simd, shard];
            let got = verdicts(&ledger(&all));
            assert!(got.len() == 4 && got.iter().all(|v| *v == want), "{got:?}");
            // Each gate alone decides its own verdict; the others skip.
            for i in 0..all.len() {
                let got = verdicts(&ledger(&all[i..=i]));
                assert_eq!(got.iter().filter(|v| **v == Skip).count(), 3, "{got:?}");
                assert_eq!(got[i], want, "{got:?}");
            }
        }
    }

    #[test]
    fn skip_reasons_and_missing_sections_are_skipped() {
        let simd = section("simd", vec![text("gate", "skipped (no avx2)")], Vec::new());
        let shard = section(
            "shard",
            vec![num("cores", 2.0, 0), text("gate", "skipped (cores=2)")],
            Vec::new(),
        );
        let readings = judge(&ledger(&[simd, shard]));
        assert!(readings.iter().all(|(v, _)| *v == Verdict::Skip));
        let notes: Vec<&str> = readings.iter().map(|(_, n)| n.as_str()).collect();
        assert_eq!(
            notes,
            [
                "telemetry_overhead: absent (older schema)",
                "monitor_overhead: absent (older schema)",
                "simd: gate skipped (no avx2)",
                "shard: recorded on 2 core(s) (< 4), too few to gate scaling",
            ]
        );
        // A 4-core ledger that recorded a skip reason, and an empty one.
        let shard = section(
            "shard",
            vec![num("cores", 4.0, 0), text("gate", "skipped (cores=4)")],
            Vec::new(),
        );
        let readings = judge(&ledger(&[shard]));
        assert_eq!(readings[3].1, "shard: gate skipped (cores=4)");
        // The untimed section a check renders under four cores reads
        // exactly like the timed one.
        let readings = judge(&ledger(&[shard_skipped(2)]));
        assert_eq!(
            readings[3].1,
            "shard: recorded on 2 core(s) (< 4), too few to gate scaling"
        );
        assert!(judge("{}").iter().all(|(v, _)| *v == Verdict::Skip));
        assert!(!report(&judge("{}")));
    }

    #[test]
    fn a_single_window_ledger_reads_as_it_always_did() {
        // A ledger of the schema before every row carried quartiles: its
        // overhead arms, simd gate and two-core shard skip.
        let text = include_str!("../../testdata/ledger_single_window.json");
        let readings = judge(text);
        let notes: Vec<&str> = readings.iter().map(|(_, n)| n.as_str()).collect();
        assert_eq!(
            notes,
            [
                "telemetry_overhead null_observer/div_vertex: ratio 1.010 (limit 1.05)",
                "telemetry_overhead null_observer/div_edge: ratio 0.999 (limit 1.05)",
                "telemetry_overhead batch_sampled/div_edge: ratio 1.005 (limit 1.05)",
                "telemetry_overhead shard_sampled/div_edge: ratio 1.035 (limit 1.05)",
                "monitor_overhead div_edge: ratio 1.001 (limit 1.05)",
                "simd: campaign speedup 1.54x (gate >= 1.3x)",
                "shard: recorded on 2 core(s) (< 4), too few to gate scaling",
            ]
        );
        let want = [[Verdict::Pass; 6].as_slice(), &[Verdict::Skip]].concat();
        assert_eq!(verdicts(text), want);
    }

    #[test]
    fn the_committed_ledger_passes_its_gates() {
        let text = include_str!("../../../../BENCH_step_throughput.json");
        assert!(!report(&judge(text)));
        let rows: Vec<&str> = text.lines().filter(|l| l.starts_with("    {")).collect();
        assert!(rows.len() >= 20, "{}", rows.len());
        for line in rows {
            let repeats = format!("\"repeats\": {REPEATS}");
            assert!(line.contains(&repeats), "{line}");
            assert!(
                line.contains("_p25\":") && line.contains("_p75\":"),
                "{line}"
            );
        }
    }

    #[test]
    fn interleave_alternates_the_order_and_reports_quartiles() {
        let readings = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0];
        let (mut log, mut calls) = (Vec::new(), [0usize; 2]);
        let r = interleave(2, |a| {
            log.push(a);
            calls[a] += 1;
            (a + 1) as f64 * readings[calls[a] - 1]
        });
        assert_eq!(calls, [REPEATS; 2]);
        for (round, pair) in log.chunks(2).enumerate() {
            assert_eq!(pair, [round % 2, 1 - round % 2], "round {round}");
        }
        // Sorted readings 1 1 2 3 4 5 9: p25 at 1.5, median 3, p75 at 4.5.
        assert_eq!(r.arm(0), [1.5, 3.0, 4.5]);
        assert_eq!(r.arm(1), [3.0, 6.0, 9.0]);
        assert_eq!(r.ratio(1, 0), [2.0; 3]);
        assert_eq!(r.ratio(0, 1), [0.5; 3]);
    }

    #[test]
    fn three_arms_rotate_which_runs_first() {
        let mut log = Vec::new();
        interleave(3, |a| {
            log.push(a);
            1.0
        });
        assert_eq!(log.len(), 3 * REPEATS);
        for (round, order) in log.chunks(3).enumerate() {
            let want: Vec<usize> = (0..3).map(|k| (round + k) % 3).collect();
            assert_eq!(order, want, "round {round}");
        }
    }
}
