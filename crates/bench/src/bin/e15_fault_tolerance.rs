//! E15 — extension: DIV under message loss.
//!
//! The paper advertises voting processes as "simple, fault-tolerant";
//! this experiment quantifies that for DIV.  Dropping each interaction
//! independently with probability `q` leaves the surviving interactions
//! an unbiased subsample of the schedule, so the **winner law must be
//! invariant** and the completion time must dilate by exactly
//! `1/(1−q)`.  A push-sum row ([`div_baselines::PushSum`]) shows the
//! classical exact-averaging alternative for context: it gets the exact
//! real average, but needs coordinated two-vertex writes and real state.

use div_baselines::PushSum;
use div_bench::{banner, emit, ExpConfig};
use div_core::{init, theory, DivProcess, EdgeScheduler, FaultPlan};
use div_graph::generators;
use div_sim::stats::{wilson_interval, Summary, Z95};
use div_sim::table::Table;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let cfg = ExpConfig::from_args(200);
    banner(
        "E15",
        "fault tolerance: DIV under interaction loss",
        "winner law invariant under loss q; E[T] scales by 1/(1−q)",
        &cfg,
    );

    let n = cfg.size(150, 50);
    let g = generators::complete(n).unwrap();
    let half = n / 2;
    let spec = [(1i64, half), (4, n - half)]; // c = 2.5
    let pred = theory::win_prediction(2.5);

    let mut table = Table::new(&[
        "loss q",
        "P[winner = 2] (pred 0.5)",
        "P[winner ∈ {2,3}]",
        "E[T]",
        "E[T]·(1−q) (should be flat)",
    ]);
    let mut baseline_work = None;
    for q in [0.0f64, 0.25, 0.5, 0.75] {
        let plan = FaultPlan::drop_only(q).unwrap();
        let results = div_sim::run_trials(cfg.trials, cfg.seed ^ (q * 100.0) as u64, |_, seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let opinions = init::shuffled_blocks(&spec, &mut rng).unwrap();
            let mut session = plan.session(&opinions).unwrap();
            let mut p = DivProcess::new(&g, opinions, EdgeScheduler::new()).unwrap();
            let status = p.run_faulty_to_consensus(u64::MAX, &mut session, &mut rng);
            (status.consensus_opinion().unwrap(), status.steps() as f64)
        });
        let total = results.len() as u64;
        let floor_wins = results.iter().filter(|r| r.0 == pred.lower).count() as u64;
        let target = results
            .iter()
            .filter(|r| r.0 == pred.lower || r.0 == pred.upper)
            .count();
        let (lo, hi) = wilson_interval(floor_wins, total, Z95);
        let t = Summary::from_iter(results.iter().map(|r| r.1));
        let effective = t.mean * (1.0 - q);
        baseline_work.get_or_insert(effective);
        table.row(&[
            format!("{q:.2}"),
            format!("{:.3} [{lo:.3}, {hi:.3}]", floor_wins as f64 / total as f64),
            format!("{:.3}", target as f64 / total as f64),
            format!("{:.0} ± {:.0}", t.mean, t.std_error()),
            format!("{effective:.0}"),
        ]);
    }
    emit(&table, &cfg);

    // Context: exact averaging via push-sum on the same instances.
    let push_sum_steps = div_sim::run_trials(cfg.trials.min(100), cfg.seed ^ 77, |_, seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        let values = init::shuffled_blocks(&spec, &mut rng).unwrap();
        let mut p = PushSum::new(&g, &values).unwrap();
        p.run_until_converged(0.5, u64::MAX, &mut rng)
            .expect("push-sum converges") as f64
    });
    let ps = Summary::from_iter(push_sum_steps);
    println!(
        "context: push-sum reaches all-estimates-within-0.5-of-c in {:.0} ± {:.0} steps\n\
         (exact real average, but 2 coordinated writes/step and real-valued state)",
        ps.mean,
        ps.std_error()
    );
    println!(
        "\nexpected shape: P[winner = 2] is statistically identical across q; the\n\
         effective-work column E[T]·(1−q) is flat — loss only dilates the clock"
    );
}
