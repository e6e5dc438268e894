//! Thread- and grouping-invariance of batched campaigns driven by the
//! lockstep engine.
//!
//! The batch engine itself is single-threaded per group; parallelism
//! happens at the group level (`run_lane_groups`,
//! `run_campaign_batched`).  These tests pin the determinism contract:
//! neither the worker-thread count nor the lane grouping may change any
//! lane's trajectory or any campaign outcome, because lane seeds depend
//! only on the trial index.

use div_core::{init, BatchProcess, FastScheduler};
use div_graph::generators;
use div_sim::{run_campaign_batched, run_lane_groups, CampaignConfig, SeedSequence, TrialOutcome};
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

/// Refactor guard for the single campaign driver: scalar campaigns and
/// batched campaigns at every lane count must agree on everything the
/// driver decides — outcomes, the retry chain, live-monitor counts,
/// checkpoint/resume bytes and pre-emptive cancellation — while trial
/// attempts and whole lockstep groups fail.
#[test]
fn merged_driver_agrees_across_lane_counts_under_failures() {
    use div_bench::trial::{run_engine_campaign, Engine, Pending, TrialSetup};
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
    // A lockstep group fails if any lane's first attempt would (the lanes
    // are bit-exact against scalar attempt 0), and — however the trials
    // are cut into groups — whenever it holds trial 11.
    let around = |p: Pending<'_>| {
        for ctx in p.ctxs {
            assert!(
                !doomed.contains(&(ctx.trial, ctx.attempt)),
                "injected failure: trial {} attempt {}",
                ctx.trial,
                ctx.attempt
            );
        }
        assert!(
            p.engine != Engine::Batch || p.ctxs.iter().all(|c| c.trial != 11),
            "injected group failure"
        );
        p.run_plain()
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
        let report = run_engine_campaign(engine, &setup, cfg, lanes, hooks, Some(&around))
            .expect("campaign runs");
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
