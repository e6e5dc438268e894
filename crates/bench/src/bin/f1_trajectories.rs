//! F1 — figure: single-run trajectories of the paper's observables.
//!
//! The paper is a brief announcement with no figures; these are the plots
//! its analysis implies.  Three panels, one DIV run each (K_n, random
//! 8-regular, path):
//!
//! * **range width** `max − min` vs steps — Theorem 1's contraction (fast
//!   on expanders, crawling on the path);
//! * **weight martingale** `S(t) − S(0)` vs steps — Lemma 3's zero drift
//!   with `O(√t)` wiggle;
//! * **distinct opinions** vs steps — the stage structure.

use div_bench::{banner, ExpConfig};
use div_core::{init, DivProcess, EdgeScheduler, RingRecorder, TelemetrySample};
use div_graph::{generators, Graph};
use div_sim::plot::Plot;
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Trajectory {
    label: &'static str,
    range: Vec<(f64, f64)>,
    drift: Vec<(f64, f64)>,
    distinct: Vec<(f64, f64)>,
}

fn run_one(label: &'static str, g: &Graph, k: usize, seed: u64, cap: u64) -> Trajectory {
    let mut rng = StdRng::seed_from_u64(seed);
    let opinions = init::uniform_random(g.num_vertices(), k, &mut rng).unwrap();
    let mut p = DivProcess::new(g, opinions, EdgeScheduler::new()).unwrap();
    // A sample every step, with room for all of them: the recorder never
    // decimates, so each range change is plotted at its exact step.
    let mut rec = RingRecorder::new(cap as usize + 2);
    p.run_observed(cap, &mut rng, 1, &mut rec);
    let mut samples = rec.samples().to_vec();
    let last = *rec.final_sample().expect("the run finished");
    if samples.last().map(|s| s.step) != Some(last.step) {
        samples.push(last);
    }
    let mut changes: Vec<&TelemetrySample> = Vec::new();
    for s in &samples {
        if changes
            .last()
            .is_none_or(|c| (c.min, c.max, c.distinct) != (s.min, s.max, s.distinct))
        {
            changes.push(s);
        }
    }
    let stride = (cap / 200).max(1);
    let s0 = samples[0].sum as f64;
    Trajectory {
        label,
        range: changes
            .iter()
            .map(|s| (s.step as f64, s.width() as f64))
            .collect(),
        drift: samples
            .iter()
            .filter(|s| s.step.is_multiple_of(stride))
            .map(|s| (s.step as f64, s.sum as f64 - s0))
            .collect(),
        distinct: changes
            .iter()
            .map(|s| (s.step as f64, s.distinct as f64))
            .collect(),
    }
}

fn main() {
    let cfg = ExpConfig::from_args(1);
    banner(
        "F1",
        "single-run trajectories",
        "range contracts fast on expanders and slowly on the path; S(t) has zero drift",
        &cfg,
    );
    let n = cfg.size(200, 60);
    let k = 9;
    let complete = generators::complete(n).unwrap();
    let regular = {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xF1);
        generators::random_regular(n, 8, &mut rng).unwrap()
    };
    let path = generators::path(n).unwrap();
    let cap = (n as u64).pow(2) * 4;
    let runs = [
        run_one("K_n", &complete, k, cfg.seed, cap),
        run_one("rand 8-regular", &regular, k, cfg.seed ^ 1, cap),
        run_one("path (non-expander)", &path, k, cfg.seed ^ 2, cap),
    ];

    let mut range_plot = Plot::new(
        format!("range width max−min vs steps (n = {n}, k = {k})"),
        72,
        16,
    );
    let mut drift_plot = Plot::new("weight drift S(t) − S(0) vs steps", 72, 16);
    let mut distinct_plot = Plot::new("distinct opinions vs steps", 72, 16);
    for r in &runs {
        range_plot.series(r.label, r.range.iter().copied());
        drift_plot.series(r.label, r.drift.iter().copied());
        distinct_plot.series(r.label, r.distinct.iter().copied());
    }
    println!("{}", range_plot.render());
    println!("{}", drift_plot.render());
    println!("{}", distinct_plot.render());
    println!(
        "expected shape: range and distinct-count curves for the expanders plunge to 1\n\
         early; the path curve decays an order of magnitude slower; all drift curves\n\
         wander near 0 at the √t scale"
    );
}
