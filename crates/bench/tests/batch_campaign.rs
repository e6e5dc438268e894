//! Thread- and grouping-invariance of batched campaigns driven by the
//! lockstep engine.
//!
//! A batch is single-threaded; parallelism comes from the workers that
//! share a campaign's lane pool (`run_engine_campaign`), or from whole
//! groups (`run_lane_groups`, `run_campaign_batched`).  These tests pin
//! the determinism contract: neither the worker-thread count nor the
//! lane grouping, refill order or failure demotion may change any lane's
//! trajectory or any campaign outcome, because lane seeds depend only on
//! the trial index.

use std::sync::Mutex;

use div_bench::trial::{run_engine_campaign, Engine, TrialSetup, Unwatched, Watch};
use div_core::{init, BatchProcess, FastScheduler, JsonlExporter, Observer};
use div_graph::generators;
use div_sim::{
    run_campaign_batched, run_lane_groups, CampaignConfig, SeedSequence, TrialCtx, TrialOutcome,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn workload() -> (div_graph::Graph, Vec<i64>) {
    let mut rng = StdRng::seed_from_u64(9);
    let g = generators::random_regular(80, 4, &mut rng).unwrap();
    let opinions = init::uniform_random(80, 7, &mut rng).unwrap();
    (g, opinions)
}

/// A lane's full observable end state — what thread sharding must not
/// perturb.
#[derive(Debug, PartialEq)]
struct LaneTrace {
    status: div_core::RunStatus,
    steps: u64,
    opinions: Vec<i64>,
}

fn batched_traces(trials: usize, lanes: usize, threads: usize) -> Vec<LaneTrace> {
    let (g, opinions) = workload();
    run_lane_groups(trials, 0xD15C, lanes, threads, |_, seeds| {
        let mut b = BatchProcess::new(&g, opinions.clone(), FastScheduler::Edge, seeds).unwrap();
        let statuses = b.run_to_consensus(200_000);
        statuses
            .into_iter()
            .enumerate()
            .map(|(l, status)| LaneTrace {
                status,
                steps: b.steps(l),
                opinions: b.opinions_of(l),
            })
            .collect()
    })
}

#[test]
fn thread_count_does_not_change_any_lane_trajectory() {
    let base = batched_traces(19, 8, 1);
    for threads in [2usize, 4, 7] {
        assert_eq!(
            base,
            batched_traces(19, 8, threads),
            "trajectories diverged at {threads} threads"
        );
    }
}

#[test]
fn lane_grouping_does_not_change_any_lane_trajectory() {
    // K=1 groups are literally scalar fast-engine runs (one lane each),
    // so equality across K also re-checks batch-vs-scalar equivalence
    // through the pool's seed discipline.
    let base = batched_traces(19, 1, 1);
    for lanes in [3usize, 8, 16] {
        assert_eq!(
            base,
            batched_traces(19, lanes, 2),
            "trajectories diverged at {lanes} lanes"
        );
    }
}

#[test]
fn batched_campaign_report_is_thread_and_lane_invariant() {
    let (g, opinions) = workload();
    let run = |lanes: usize, threads: usize| {
        let mut cfg = CampaignConfig::new(23, 0xCAFE);
        cfg.step_budget = 200_000;
        cfg.threads = threads;
        let batch = |ctxs: &[div_sim::TrialCtx]| -> Vec<TrialOutcome> {
            let seeds: Vec<u64> = ctxs.iter().map(|c| c.seed).collect();
            let mut b =
                BatchProcess::new(&g, opinions.clone(), FastScheduler::Edge, &seeds).unwrap();
            let statuses = b.run_to_consensus(ctxs[0].step_budget);
            statuses
                .into_iter()
                .map(|status| match status {
                    div_core::RunStatus::Consensus { opinion, steps } => TrialOutcome::Converged {
                        winner: opinion,
                        steps,
                    },
                    div_core::RunStatus::TwoAdjacent { low, high, steps } => {
                        TrialOutcome::TwoAdjacent { low, high, steps }
                    }
                    div_core::RunStatus::StepLimit { steps } => TrialOutcome::Timeout { steps },
                })
                .collect()
        };
        let scalar = |ctx: &div_sim::TrialCtx| {
            let group = batch(std::slice::from_ref(ctx));
            group.into_iter().next().unwrap()
        };
        run_campaign_batched(&cfg, lanes, batch, scalar)
            .unwrap()
            .render()
    };
    let base = run(8, 1);
    assert_eq!(base, run(8, 4), "thread count changed the report");
    assert_eq!(base, run(3, 2), "lane count changed the report");
    assert_eq!(
        base,
        run(1, 1),
        "scalar-equivalent grouping changed the report"
    );
}

#[test]
fn lane_seeds_follow_the_campaign_seed_discipline() {
    // The pool must hand groups exactly seed_for(master, index): the
    // property that makes batch lanes interchangeable with scalar trials.
    let seen = run_lane_groups(10, 0xABCD, 4, 1, |idxs, seeds| {
        idxs.iter()
            .zip(seeds)
            .map(|(&i, &s)| (i, s))
            .collect::<Vec<_>>()
    });
    for (i, (idx, seed)) in seen.into_iter().enumerate() {
        assert_eq!(i, idx);
        assert_eq!(seed, SeedSequence::seed_for(0xABCD, i as u64));
    }
}

/// What one guarded campaign run leaves behind: its rendered report, the
/// sorted `on_retry` trial indices, and the deterministic monitor
/// counters `(expected, started, finished, retries, converged,
/// two_adjacent, timeout, panicked, steps_total)`.
type Observed = (String, Vec<usize>, [u64; 9]);

/// An observer that panics when its trial finishes, if armed: armed on
/// the batch engine, it fails the pool block that finishes the trial.
struct Tripwire(bool);

impl Observer for Tripwire {
    fn on_finish(&mut self, _: &div_core::TelemetrySample, _: std::time::Duration) {
        assert!(!self.0, "injected block failure");
    }
}

/// Injects failures into trials as they start: scalar attempts in
/// `doomed` panic, and so does the load of a batch lane holding a trial
/// whose first attempt is doomed (the lanes are bit-exact against scalar
/// attempt 0).  Every pool block that holds trial `block` when it
/// finishes panics.
struct Doom<'a> {
    doomed: &'a [(usize, u32)],
    block: usize,
}

impl Watch for Doom<'_> {
    type Obs = Tripwire;

    fn start(&self, engine: Engine, ctx: &TrialCtx) -> Tripwire {
        assert!(
            !self.doomed.contains(&(ctx.trial, ctx.attempt)),
            "injected failure: trial {} attempt {}",
            ctx.trial,
            ctx.attempt
        );
        Tripwire(engine == Engine::Batch && ctx.trial == self.block)
    }

    fn finish(&self, _: Engine, _: &TrialCtx, _: Tripwire, _: &TrialOutcome) {}
}

/// Refactor guard for the single campaign driver: scalar campaigns and
/// pooled batch campaigns at every lane count must agree on everything
/// the driver decides — outcomes, the retry chain, live-monitor counts,
/// checkpoint/resume bytes and pre-emptive cancellation — while trial
/// attempts, lane loads and the pool block holding trial 11 fail.
#[test]
fn merged_driver_agrees_across_lane_counts_under_failures() {
    use div_core::FaultPlan;
    use div_sim::{CampaignHooks, CampaignMonitor};
    use std::sync::atomic::AtomicBool;
    use std::sync::Mutex;

    let (g, opinions) = workload();
    let faults = FaultPlan::none();
    let setup = TrialSetup::new(&g, &opinions, FastScheduler::Edge, &faults);
    // Scalar attempts that panic: trial 2 recovers on its first retry,
    // trial 9 on its second, and trial 16 exhausts all three attempts.
    let doomed = [(2, 0), (9, 0), (9, 1), (16, 0), (16, 1), (16, 2)];
    let watch = Doom {
        doomed: &doomed,
        block: 11,
    };
    let base = {
        let mut cfg = CampaignConfig::new(20, 0x6A4D);
        cfg.step_budget = 200_000;
        cfg.threads = 2;
        cfg.tag = "guard".to_string();
        cfg
    };
    let run = |engine: Engine, lanes: usize, cfg: &CampaignConfig, cancel: bool| -> Observed {
        let retries = Mutex::new(Vec::new());
        let on_retry = |i: usize| retries.lock().unwrap().push(i);
        let monitor = CampaignMonitor::new();
        let cancelled = AtomicBool::new(cancel);
        let hooks = CampaignHooks {
            monitor: Some(&monitor),
            cancel: Some(&cancelled),
            on_retry: Some(&on_retry),
            ..CampaignHooks::default()
        };
        let report =
            run_engine_campaign(engine, &setup, cfg, lanes, hooks, &watch).expect("campaign runs");
        let mut retries = retries.into_inner().unwrap();
        retries.sort_unstable();
        let s = monitor.snapshot();
        let counts = [
            s.expected,
            s.started,
            s.finished,
            s.retries,
            s.converged,
            s.two_adjacent,
            s.timeout,
            s.panicked,
            s.steps_total,
        ];
        (report.render(), retries, counts)
    };
    let dir = std::env::temp_dir().join(format!("div-batch-guard-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // Stop after 9 new trials, resume to completion: the report and the
    // final manifest must equal an uninterrupted checkpointed run's.
    let resumed = |engine: Engine, lanes: usize| -> (String, Vec<u8>, Vec<u8>) {
        let path = dir.join(format!("{engine}-{lanes}.manifest"));
        let _ = std::fs::remove_file(&path);
        let mut cfg = base.clone();
        cfg.checkpoint = Some(path.clone());
        cfg.checkpoint_every = 4;
        let mut partial = cfg.clone();
        partial.stop_after = Some(9);
        run(engine, lanes, &partial, false);
        let partial_bytes = std::fs::read(&path).unwrap();
        cfg.resume = true;
        let (report, ..) = run(engine, lanes, &cfg, false);
        (report, partial_bytes, std::fs::read(&path).unwrap())
    };

    let scalar = run(Engine::Fast, 1, &base, false);
    assert_eq!(scalar.1, vec![2, 9, 9, 16, 16], "retry chain");
    assert!(scalar.0.contains("panicked=1"), "{}", scalar.0);
    assert_eq!(scalar.2[..4], [20, 20, 20, 5]);
    let scalar_resumed = resumed(Engine::Fast, 1);
    assert_eq!(scalar_resumed.0, scalar.0, "resume changed the report");
    let scalar_cancelled = run(Engine::Fast, 1, &base, true);
    assert!(
        scalar_cancelled.0.contains("completed=0"),
        "{}",
        scalar_cancelled.0
    );
    for lanes in [1, 3, 8] {
        assert_eq!(
            run(Engine::Batch, lanes, &base, false),
            scalar,
            "lanes={lanes}"
        );
        assert_eq!(
            resumed(Engine::Batch, lanes),
            scalar_resumed,
            "lanes={lanes}"
        );
        assert_eq!(
            run(Engine::Batch, lanes, &base, true),
            scalar_cancelled,
            "lanes={lanes}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Faulty batch lanes run in the pool too, one whole lane per block, on
/// the fast engine's faulty lane code: reports and the fault counters
/// published to the monitor equal the fast engine's, for a
/// range-preserving (block engine) and a range-widening (per-step) plan.
#[test]
fn faulty_pool_lanes_equal_fast_trials_and_publish_their_fault_counters() {
    use div_core::FaultPlan;
    use div_sim::{CampaignHooks, CampaignMonitor};

    let (g, opinions) = workload();
    for spec in ["drop:0.2,stubborn:2", "noise:0.05:1"] {
        let faults = FaultPlan::parse(spec).unwrap();
        let run = |engine: Engine, lanes: usize, threads: usize| {
            let monitor = CampaignMonitor::new();
            let setup = TrialSetup {
                monitor: Some(&monitor),
                ..TrialSetup::new(&g, &opinions, FastScheduler::Vertex, &faults)
            };
            let mut cfg = CampaignConfig::new(12, 0xFA17);
            cfg.step_budget = 200_000;
            cfg.threads = threads;
            let hooks = CampaignHooks {
                monitor: Some(&monitor),
                ..CampaignHooks::default()
            };
            let report = run_engine_campaign(engine, &setup, &cfg, lanes, hooks, &Unwatched)
                .expect("campaign runs");
            (report, monitor.snapshot().faults)
        };
        let fast = run(Engine::Fast, 1, 1);
        assert!(fast.1.delivered > 0, "{spec}: {:?}", fast.1);
        assert!(fast.1.dropped + fast.1.noisy > 0, "{spec}: {:?}", fast.1);
        for lanes in [1, 8] {
            for threads in [1, 2] {
                let batch = run(Engine::Batch, lanes, threads);
                assert_eq!(batch, fast, "{spec} lanes={lanes} threads={threads}");
            }
        }
    }
}

/// A heavy-tailed instance: two 30-cliques joined by a 10-vertex path,
/// five opinions spread over them.  Consensus takes from a few thousand
/// to over a million steps, so lanes finish far apart and the pool
/// refills them mid-block-stream.
fn heavy_tailed() -> (div_graph::Graph, Vec<i64>) {
    let g = generators::barbell(30, 10).unwrap();
    let opinions = init::spread(g.num_vertices(), 5).unwrap();
    (g, opinions)
}

#[test]
fn pooled_batch_reports_equal_fast_reports_for_every_lane_and_thread_count() {
    use div_core::FaultPlan;
    use div_sim::CampaignHooks;

    let (g, opinions) = heavy_tailed();
    let faults = FaultPlan::none();
    let setup = TrialSetup::new(&g, &opinions, FastScheduler::Edge, &faults);
    let mut cfg = CampaignConfig::new(24, 0x7A11);
    cfg.step_budget = 5_000_000;
    let report = |engine: Engine, lanes: usize, threads: usize| {
        let cfg = CampaignConfig {
            threads,
            ..cfg.clone()
        };
        run_engine_campaign(
            engine,
            &setup,
            &cfg,
            lanes,
            CampaignHooks::default(),
            &Unwatched,
        )
        .unwrap()
    };
    let fast = report(Engine::Fast, 1, 1);
    let steps: Vec<u64> = fast.outcomes.values().map(TrialOutcome::steps).collect();
    let (lo, hi) = (steps.iter().min().unwrap(), steps.iter().max().unwrap());
    assert!(hi / lo >= 10, "not heavy-tailed: steps {lo}..{hi}");
    for lanes in [1, 3, 8, 64] {
        for threads in [1, 2, 4] {
            let batch = report(Engine::Batch, lanes, threads);
            assert_eq!(batch, fast, "lanes={lanes} threads={threads}");
            assert_eq!(
                batch.render(),
                fast.render(),
                "lanes={lanes} threads={threads}"
            );
        }
    }
}

/// Records which engine each trial started and finished on.
#[derive(Default)]
struct Ledger {
    starts: Mutex<Vec<(Engine, TrialCtx)>>,
    finishes: Mutex<Vec<(Engine, usize)>>,
}

struct TripOn<'a> {
    trial: usize,
    ledger: &'a Ledger,
}

impl Watch for TripOn<'_> {
    type Obs = Tripwire;

    fn start(&self, engine: Engine, ctx: &TrialCtx) -> Tripwire {
        self.ledger.starts.lock().unwrap().push((engine, *ctx));
        Tripwire(engine == Engine::Batch && ctx.trial == self.trial)
    }

    fn finish(&self, engine: Engine, ctx: &TrialCtx, _: Tripwire, _: &TrialOutcome) {
        self.ledger
            .finishes
            .lock()
            .unwrap()
            .push((engine, ctx.trial));
    }
}

#[test]
fn a_panicking_block_demotes_its_trials_and_the_pool_keeps_going() {
    use div_core::FaultPlan;
    use div_sim::CampaignHooks;

    let (g, opinions) = heavy_tailed();
    let faults = FaultPlan::none();
    let setup = TrialSetup::new(&g, &opinions, FastScheduler::Edge, &faults);
    let mut cfg = CampaignConfig::new(24, 0xB10C);
    cfg.step_budget = 5_000_000;
    cfg.threads = 2;
    let fast = run_engine_campaign(
        Engine::Fast,
        &setup,
        &cfg,
        1,
        CampaignHooks::default(),
        &Unwatched,
    )
    .unwrap();
    let ledger = Ledger::default();
    let watch = TripOn {
        trial: 11,
        ledger: &ledger,
    };
    let batch = run_engine_campaign(
        Engine::Batch,
        &setup,
        &cfg,
        8,
        CampaignHooks::default(),
        &watch,
    )
    .unwrap();
    assert_eq!(batch.render(), fast.render());
    let starts = ledger.starts.into_inner().unwrap();
    let finishes = ledger.finishes.into_inner().unwrap();
    // The demoted trials restarted on the fast engine at attempt 0 with
    // their lane's seed.
    let demoted: Vec<usize> = (starts.iter())
        .filter(|(e, _)| *e == Engine::Fast)
        .map(|(_, ctx)| {
            assert_eq!(ctx.attempt, 0, "trial {}", ctx.trial);
            assert_eq!(ctx.seed, SeedSequence::seed_for(0xB10C, ctx.trial as u64));
            ctx.trial
        })
        .collect();
    assert!(demoted.contains(&11), "{demoted:?}");
    assert!(demoted.len() <= 8, "one block's trials: {demoted:?}");
    // Every trial finished: a kept lane once, on the batch engine; a
    // demoted trial once on the fast engine (its lane may have finished
    // inside the failed block before the panic).
    for i in 0..24 {
        let on = |engine: Engine| finishes.iter().filter(|&&f| f == (engine, i)).count();
        if demoted.contains(&i) {
            assert_eq!(on(Engine::Fast), 1, "trial {i}");
        } else {
            assert_eq!((on(Engine::Batch), on(Engine::Fast)), (1, 0), "trial {i}");
        }
    }
}

/// A watch writing each trial's JSONL trajectory to memory.
#[derive(Default)]
struct Trajectories(Mutex<std::collections::BTreeMap<usize, String>>);

impl Watch for Trajectories {
    type Obs = JsonlExporter<Vec<u8>>;

    fn start(&self, _: Engine, _: &TrialCtx) -> Self::Obs {
        JsonlExporter::new(Vec::new())
    }

    fn finish(&self, _: Engine, ctx: &TrialCtx, obs: Self::Obs, _: &TrialOutcome) {
        let text = String::from_utf8(obs.finish().unwrap()).unwrap();
        self.0
            .lock()
            .unwrap()
            .insert(ctx.trial, without_elapsed(&text));
    }
}

/// `text` with every `"elapsed_ns":…` value blanked.
fn without_elapsed(text: &str) -> String {
    text.lines()
        .map(|line| match line.find("\"elapsed_ns\":") {
            Some(at) => {
                let rest = &line[at..];
                let end = rest.find(['}', ',']).unwrap_or(rest.len());
                format!("{}\"elapsed_ns\":_{}", &line[..at], &rest[end..])
            }
            None => line.to_string(),
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn observed_pool_lanes_write_the_run_observed_trajectories() {
    use div_core::FaultPlan;
    use div_sim::CampaignHooks;

    let (g, opinions) = heavy_tailed();
    let faults = FaultPlan::none();
    let mut setup = TrialSetup::new(&g, &opinions, FastScheduler::Edge, &faults);
    let mut cfg = CampaignConfig::new(12, 0x0B5);
    cfg.step_budget = 2_000_000;
    for stride in [0, 20_000] {
        setup.engine_stride = stride;
        // The reference: each trial alone through `run_observed`, the
        // whole-batch observed run.
        let want: Vec<String> = (0..cfg.trials)
            .map(|i| {
                let seed = SeedSequence::seed_for(cfg.master_seed, i as u64);
                let mut b =
                    BatchProcess::new(&g, opinions.clone(), FastScheduler::Edge, &[seed]).unwrap();
                let mut obs = [JsonlExporter::new(Vec::new())];
                b.run_observed(cfg.step_budget, stride, &mut obs);
                let [obs] = obs;
                without_elapsed(&String::from_utf8(obs.finish().unwrap()).unwrap())
            })
            .collect();
        assert!(want
            .iter()
            .all(|t| t.contains("\"two-adjacent\"") && t.contains("\"consensus\"")));
        for (lanes, threads) in [(1, 1), (3, 2), (8, 2), (8, 4)] {
            let watch = Trajectories::default();
            let cfg = CampaignConfig {
                threads,
                ..cfg.clone()
            };
            run_engine_campaign(
                Engine::Batch,
                &setup,
                &cfg,
                lanes,
                CampaignHooks::default(),
                &watch,
            )
            .unwrap();
            let got: Vec<String> = watch.0.into_inner().unwrap().into_values().collect();
            assert_eq!(got, want, "stride={stride} lanes={lanes} threads={threads}");
        }
    }
}
