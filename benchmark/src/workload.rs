//! The four workloads and the campaign-workload runner.
//!
//! Every run is a closed loop from one process: the next job starts when
//! the previous one has finished, until `--seconds` have passed.  Job
//! `i` of a run with workload seed `S` gets the seed
//! `SeedSequence::seed_for(S, i)`, so the same `S` replays the same
//! inputs while each job still draws fresh ones (the per-job work of
//! these campaigns is heavy-tailed; a run's median over distinct inputs
//! averages it out).

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use div_sim::SeedSequence;

use crate::host::{run_measured, Env};
use crate::inproc::{self, Campaign, Layers};
use crate::metrics::Recorded;
use crate::report::{self, Summary};
use crate::service;
use crate::speed::Speed;
use div_sim::stats::median;

/// The workload seed used when `--seed` is not given; goldens exist for it.
pub const DEFAULT_SEED: u64 = 1;

/// Measured seconds per run (`run_seconds` in `BENCHMARK.json`): a
/// campaign run's median covers 40 to 120 jobs.
pub const DEFAULT_SECONDS: f64 = 25.0;

/// Set-up probes per run; `setup_s` is their median.  Memory-heavy
/// set-ups vary from one process to the next, so the median needs many.
pub const SETUP_PROBES: usize = 15;

/// At most this share of converged trials may pick a winner outside
/// Theorem 2's `{⌊c⌋, ⌈c⌉}` (the law puts ≥ 1 − o(1) of its mass there;
/// these sizes measure 1–5% outside).
const OUTSIDE_PAIR_LIMIT: f64 = 0.10;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Lockstep batch campaigns on a random 8-regular expander.
    BatchExpander,
    /// Scalar vertex-process campaigns under message drops.
    FaultyVertex,
    /// 100 000-vertex sharded trials.
    Sharded100k,
    /// A job sweep through the divd daemon.
    DivdSweep,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::BatchExpander,
        Workload::FaultyVertex,
        Workload::Sharded100k,
        Workload::DivdSweep,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchExpander => "campaign_batch_expander",
            Workload::FaultyVertex => "campaign_faulty_vertex",
            Workload::Sharded100k => "sharded_100k",
            Workload::DivdSweep => "divd_sweep",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Runs the workload once.
    pub fn run(self, env: &Env, opts: &Options) -> Outcome {
        match Shape::of(self, opts.smoke) {
            Some(shape) => run_campaigns(self, &shape, env, opts),
            None => service::run_sweep(env, opts),
        }
    }
}

/// Settings of one run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub traced: bool,
    /// About 1/50 of the full sizes, for the test suite.
    pub smoke: bool,
}

impl Options {
    /// The end of the measured window, starting now.
    pub fn deadline(&self, share: f64) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds * share)
    }
}

/// What one run measured and found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric values.
    pub metrics: Recorded,
    /// Operations attempted in the measured window (trials or jobs).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Failed output checks.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Records a failed output check.
    pub fn problem(&mut self, msg: impl Into<String>) {
        self.problems.push(msg.into());
    }
}

/// A campaign workload: the `divlab campaign` flags of one job.
#[derive(Debug, Clone)]
pub struct Shape {
    graph: &'static str,
    init: &'static str,
    scheduler: &'static str,
    engine: &'static str,
    faults: &'static str,
    lanes: usize,
    shards: usize,
    threads: usize,
    trials: usize,
    budget: u64,
    checkpoint: bool,
    /// Exit code 3 (budget exhausted) is the expected outcome.
    times_out: bool,
}

impl Shape {
    /// The campaign workload's job, or `None` for the divd sweep.
    ///
    /// Opinions are shuffled blocks of fixed sizes rather than independent
    /// draws, so the average `c`, which sets how long consensus takes,
    /// does not change from job to job: a job's work then depends on its
    /// seed only through the graph, the placement and the trials.
    pub fn of(w: Workload, smoke: bool) -> Option<Shape> {
        let base = Shape {
            graph: if smoke {
                "regular:400:8"
            } else {
                "regular:2000:8"
            },
            init: if smoke {
                "blocks:1x44,2x44,3x44,4x44,5x44,6x44,7x44,8x44,9x48"
            } else {
                "blocks:1x222,2x222,3x222,4x222,5x222,6x222,7x222,8x222,9x224"
            },
            scheduler: "edge",
            engine: "fast",
            faults: "none",
            lanes: 8,
            shards: 8,
            threads: 2,
            trials: if smoke { 16 } else { 64 },
            budget: 1_000_000_000,
            checkpoint: false,
            times_out: false,
        };
        Some(match w {
            Workload::BatchExpander => Shape {
                engine: "batch",
                ..base
            },
            Workload::FaultyVertex => Shape {
                init: if smoke {
                    "blocks:1x134,2x133,3x133"
                } else {
                    "blocks:1x667,2x667,3x666"
                },
                scheduler: "vertex",
                faults: "drop:0.1",
                trials: if smoke { 8 } else { 16 },
                checkpoint: true,
                ..base
            },
            Workload::Sharded100k => Shape {
                graph: if smoke {
                    "circulant:20000:1,2,3,4"
                } else {
                    "circulant:100000:1,2,3,4"
                },
                init: "spread:9",
                engine: "sharded",
                trials: 1,
                budget: if smoke { 800_000 } else { 40_000_000 },
                times_out: true,
                ..base
            },
            Workload::DivdSweep => return None,
        })
    }

    /// The job as an in-process campaign.
    fn campaign(&self, seed: u64, checkpoint: Option<PathBuf>) -> Campaign {
        Campaign {
            graph: self.graph.to_string(),
            init: self.init.to_string(),
            scheduler: self.scheduler.to_string(),
            engine: self.engine.to_string(),
            faults: self.faults.to_string(),
            seed,
            trials: self.trials,
            budget: self.budget,
            lanes: self.lanes,
            shards: self.shards,
            threads: self.threads,
            checkpoint: checkpoint.filter(|_| self.checkpoint),
            checkpoint_every: 32,
        }
    }

    /// The `divlab` command line for job `seed`.
    fn command(&self, divlab: &Path, c: &Campaign) -> Command {
        let mut cmd = Command::new(divlab);
        cmd.arg("campaign");
        for (flag, value) in [
            ("--graph", c.graph.clone()),
            ("--init", c.init.clone()),
            ("--scheduler", c.scheduler.clone()),
            ("--engine", c.engine.clone()),
            ("--faults", c.faults.clone()),
            ("--threads", c.threads.to_string()),
            ("--trials", c.trials.to_string()),
            ("--budget", c.budget.to_string()),
            ("--seed", c.seed.to_string()),
        ] {
            cmd.args([flag, &value]);
        }
        match self.engine {
            "batch" => cmd.args(["--lanes", &c.lanes.to_string()]),
            "sharded" => cmd.args(["--shards", &c.shards.to_string()]),
            _ => &mut cmd,
        };
        if let Some(path) = &c.checkpoint {
            cmd.arg("--checkpoint").arg(path);
        }
        cmd
    }

    fn allowed_exit(&self, code: Option<i32>) -> bool {
        code == Some(0) || (self.times_out && code == Some(3))
    }
}

/// `divlab` stdout of a workload's first job at the default seed,
/// produced through a second engine path; `run` compares against it.
pub fn golden_path(root: &Path, w: Workload, smoke: bool) -> PathBuf {
    let suffix = if smoke { ".smoke" } else { "" };
    root.join(format!("benchmark/golden/{}{suffix}.txt", w.name()))
}

/// Regenerates every golden: the batch workload through `--engine fast`
/// (lanes are bit-exact against the scalar engine), the others with
/// `--threads 1` (reports are thread-count invariant).
///
/// # Errors
///
/// When a run fails or a golden cannot be written.
pub fn write_goldens(env: &Env) -> Result<(), String> {
    for smoke in [false, true] {
        for w in Workload::ALL {
            let Some(shape) = Shape::of(w, smoke) else {
                continue;
            };
            let second = match shape.engine {
                "batch" => Shape {
                    engine: "fast",
                    ..shape.clone()
                },
                _ => Shape {
                    threads: 1,
                    ..shape.clone()
                },
            };
            let ckpt = env.work.join("golden.manifest");
            let c = second.campaign(SeedSequence::seed_for(DEFAULT_SEED, 0), Some(ckpt));
            let exit = run_measured(&mut second.command(&env.divlab, &c))
                .map_err(|e| format!("cannot run divlab: {e}"))?;
            if !second.allowed_exit(exit.code) {
                return Err(format!("{}: divlab failed: {}", w.name(), exit.stderr));
            }
            let path = golden_path(&env.root, w, smoke);
            std::fs::write(&path, &exit.stdout)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            eprintln!("wrote {}", path.display());
        }
    }
    Ok(())
}

/// One finished `divlab campaign` job.
struct Job {
    wall_s: f64,
    peak_rss_mb: f64,
    stdout: String,
    steps: u64,
}

/// Runs `divlab campaign` for `c` and checks its report; failures are
/// counted against the job's trials.
fn run_job(env: &Env, shape: &Shape, c: &Campaign, out: &mut Outcome) -> Option<Job> {
    out.attempted += c.trials as u64;
    let exit = match run_measured(&mut shape.command(&env.divlab, c)) {
        Ok(exit) => exit,
        Err(e) => {
            out.failed += c.trials as u64;
            out.problem(format!("cannot run divlab: {e}"));
            return None;
        }
    };
    let summary = Summary::parse(&exit.stdout);
    match (&summary, shape.allowed_exit(exit.code)) {
        (Ok(s), true) if s.completed == s.trials && s.trials == c.trials as u64 => {
            out.failed += s.panicked;
        }
        _ => {
            out.failed += c.trials as u64;
            out.problem(format!(
                "seed {}: divlab exited {:?} without a complete report: {}",
                c.seed,
                exit.code,
                exit.stderr.trim()
            ));
            return None;
        }
    }
    Some(Job {
        wall_s: exit.wall_s,
        peak_rss_mb: exit.peak_rss_mb,
        steps: summary.map_or(0, |s| s.steps),
        stdout: exit.stdout,
    })
}

/// The median wall time of `SETUP_PROBES` runs of the workload's command
/// with one trial of one step: process start, input generation and engine
/// set-up, with no simulation to speak of.
fn setup_s(env: &Env, shape: &Shape, seed: u64, out: &mut Outcome) -> f64 {
    let probe = Shape {
        trials: 1,
        budget: 1,
        times_out: true,
        ..shape.clone()
    };
    let walls: Vec<f64> = (0..SETUP_PROBES)
        .filter_map(|k| {
            let c = probe.campaign(seed, Some(env.work.join(format!("setup-{k}.manifest"))));
            let exit = run_measured(&mut probe.command(&env.divlab, &c)).ok()?;
            if probe.allowed_exit(exit.code) {
                Some(exit.wall_s)
            } else {
                out.problem(format!("set-up probe failed: {}", exit.stderr.trim()));
                None
            }
        })
        .collect();
    if walls.is_empty() {
        f64::NAN
    } else {
        median(&walls)
    }
}

fn run_campaigns(w: Workload, shape: &Shape, env: &Env, opts: &Options) -> Outcome {
    let mut out = Outcome::default();
    let seed_of = |i: u64| SeedSequence::seed_for(opts.seed, i);
    let ckpt_dir = env.fresh_dir("checkpoints");
    if !opts.traced {
        let setup = setup_s(env, shape, seed_of(0), &mut out);
        out.metrics.set("setup_s", setup);
    }

    // In a traced run every job runs twice: through divlab (the reference
    // for the tracing overhead) and in-process under the layer timers.
    let layers = Layers::default();
    let mut speed = Speed::default();
    let mut jobs: Vec<Job> = Vec::new();
    let mut traced_walls = Vec::new();
    let deadline = opts.deadline(1.0);
    for i in 0.. {
        if !opts.traced {
            speed.sample_if_due();
        }
        let c = shape.campaign(seed_of(i), Some(ckpt_dir.join(format!("e2e-{i}"))));
        let Some(job) = run_job(env, shape, &c, &mut out) else {
            break;
        };
        if opts.traced {
            let c = Campaign {
                checkpoint: c
                    .checkpoint
                    .as_ref()
                    .map(|_| ckpt_dir.join(format!("traced-{i}"))),
                ..c
            };
            match inproc::run(&c, &layers) {
                Ok((report, wall)) if report == report::section(&job.stdout) => {
                    traced_walls.push(wall)
                }
                Ok(_) => out.problem(format!("job {i}: traced report differs from divlab's")),
                Err(e) => out.problem(format!("job {i}: traced run failed: {e}")),
            }
        }
        jobs.push(job);
        if Instant::now() >= deadline {
            break;
        }
    }
    if jobs.is_empty() {
        return out;
    }
    check_jobs(w, shape, env, opts, &jobs, &mut out);

    if opts.traced {
        layers.record(&mut out.metrics);
        let scaling = if shape.engine == "sharded" {
            thread_scaling(shape, seed_of(0), &layers, &jobs[0].stdout, &mut out)
        } else {
            0.0
        };
        out.metrics.set("shard.scaling_t2", scaling);
        let e2e: Vec<f64> = jobs.iter().map(|j| j.wall_s).collect();
        if !traced_walls.is_empty() {
            out.metrics.set(
                "trace.overhead_frac",
                median(&traced_walls) / median(&e2e) - 1.0,
            );
        }
        service::probe(env, opts, &mut out);
    } else {
        // Job times are rescaled to the reference host speed.
        let h = speed.factor();
        eprintln!(
            "div-benchmark: {}: host speed factor {h:.4} (median of {} samples)",
            w.name(),
            speed.len()
        );
        let walls: Vec<f64> = jobs.iter().map(|j| j.wall_s / h).collect();
        let busy: f64 = walls.iter().sum();
        let steps: u64 = jobs.iter().map(|j| j.steps).sum();
        out.metrics.set("job_latency_p50_ms", median(&walls) * 1e3);
        out.metrics.set("jobs_per_s", jobs.len() as f64 / busy);
        out.metrics.set("steps_per_s", steps as f64 / busy);
        let rss: Vec<f64> = jobs.iter().map(|j| j.peak_rss_mb).collect();
        out.metrics.set("peak_rss_mb", median(&rss));
    }
    out
}

/// Output checks over a run's jobs: Theorem 2's winner pair, a
/// byte-identical repeat of the first job, and the golden at the default
/// seed.
fn check_jobs(
    w: Workload,
    shape: &Shape,
    env: &Env,
    opts: &Options,
    jobs: &[Job],
    out: &mut Outcome,
) {
    let (mut outside, mut converged) = (0, 0);
    for job in jobs {
        let (lower, upper) = report::prediction(&job.stdout).unwrap_or((i64::MIN, i64::MIN));
        let (o, t) = Summary::parse(&job.stdout)
            .map(|s| s.outside(lower, upper))
            .unwrap_or((0, 0));
        outside += o;
        converged += t;
    }
    if converged > 0 && outside as f64 > OUTSIDE_PAIR_LIMIT * converged as f64 {
        out.problem(format!(
            "{outside} of {converged} converged trials won outside Theorem 2's pair"
        ));
    }

    let first = &jobs[0].stdout;
    let c = shape.campaign(
        SeedSequence::seed_for(opts.seed, 0),
        Some(env.work.join("repeat.manifest")),
    );
    let mut scratch = Outcome::default();
    match run_job(env, shape, &c, &mut scratch) {
        Some(again) if &again.stdout == first => {}
        Some(_) => out.problem("repeating the first job changed its output"),
        None => out.problem(format!(
            "repeat of the first job failed: {:?}",
            scratch.problems
        )),
    }

    if opts.seed == DEFAULT_SEED {
        let path = golden_path(&env.root, w, opts.smoke);
        match std::fs::read_to_string(&path) {
            Ok(golden) if &golden == first => {}
            Ok(_) => out.problem(format!("first job differs from {}", path.display())),
            Err(e) => out.problem(format!("cannot read {}: {e}", path.display())),
        }
    }
}

/// Reruns the first sharded job in-process on one thread: its report must
/// match the two-thread one, and the ratio of per-step engine times is the
/// in-trial thread scaling.
fn thread_scaling(shape: &Shape, seed: u64, t2: &Layers, stdout: &str, out: &mut Outcome) -> f64 {
    let one = Shape {
        threads: 1,
        ..shape.clone()
    };
    let t1 = Layers::default();
    match inproc::run(&one.campaign(seed, None), &t1) {
        Ok((report, _)) if report == report::section(stdout) => {
            t1.run_s_per_step() / t2.run_s_per_step()
        }
        Ok(_) => {
            out.problem("the one-thread sharded report differs from the two-thread one");
            0.0
        }
        Err(e) => {
            out.problem(format!("one-thread sharded run failed: {e}"));
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload at ~1/50 scale, end-to-end and traced, with every
    /// output check on; each run must emit exactly its metric table.
    #[test]
    fn smoke_runs_every_workload() {
        let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/.."));
        let env = Env::prepare(root).expect("divlab and divd build");
        let start = Instant::now();
        for traced in [false, true] {
            for w in Workload::ALL {
                let opts = Options {
                    seed: DEFAULT_SEED,
                    seconds: DEFAULT_SECONDS / 50.0,
                    traced,
                    smoke: true,
                };
                let out = w.run(&env, &opts);
                assert!(out.problems.is_empty(), "{}: {:?}", w.name(), out.problems);
                assert!(out.attempted > 0 && out.failed == 0, "{}", w.name());
                let metrics = out.metrics.finish(traced).expect("complete metric set");
                assert!(metrics.iter().all(|(_, v)| v.is_finite()), "{}", w.name());
            }
        }
        eprintln!("smoke pass: {:.1} s", start.elapsed().as_secs_f64());
    }
}
