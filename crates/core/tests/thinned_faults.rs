//! The fast engine's faulty runs against a naive oracle.
//!
//! Plans whose only faults are `drop` and `stubborn` run on the block
//! engine: bare toward-steps, one width scan per block, and a rewind of
//! the hitting block replayed step by step.  The fault-free plan (no
//! drop, no stubborn vertex) takes the block loop's check-free branch,
//! the one every clean batch lane outside a lockstep group runs.  Every
//! other plan steps one at a time.  Either way the run must equal the
//! naive loop below — public [`FastProcess::step_faulty`] calls with a
//! width check before each, which draw nothing under a trivial plan — in
//! status, step count, final opinions, RNG position and fault counters.
//! The batch engine's lanes run the same code, so this oracle is the
//! independent guard of both.

use div_core::{init, FastProcess, FastRng, FastScheduler, FaultPlan, FaultStats, RunStatus};
use div_graph::{generators, Graph};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The block length of the lane loop on graphs below 2048 vertices.
const BLOCK: u64 = 8192;

/// What one run leaves behind.
type Observed = (RunStatus, u64, Vec<i64>, FastRng, FaultStats);

/// A graph/scheduler pair by index, covering all four sampler families:
/// vertex and edge on non-complete graphs, the complete-pair sampler
/// (both processes on `K_n`) and the alias table.
fn instance(pick: u8, size: usize, seed: u64) -> (Graph, FastScheduler) {
    let n = size.max(6);
    let mut rng = StdRng::seed_from_u64(seed);
    let regular = |rng: &mut StdRng| {
        let d = if n.is_multiple_of(2) { 3 } else { 4 };
        generators::random_regular(n, d, rng).unwrap()
    };
    match pick % 5 {
        0 => (regular(&mut rng), FastScheduler::Vertex),
        1 => (generators::wheel(n).unwrap(), FastScheduler::Edge),
        2 => (generators::complete(n).unwrap(), FastScheduler::Vertex),
        3 => (generators::complete(n).unwrap(), FastScheduler::Edge),
        _ => (generators::star(n).unwrap(), FastScheduler::EdgeAlias),
    }
}

/// The oracle: width check, then budget, then one public faulty step.
fn naive(
    g: &Graph,
    opinions: &[i64],
    kind: FastScheduler,
    plan: &FaultPlan,
    seed: u64,
    budget: u64,
    stop_width: i64,
) -> Observed {
    let mut p = FastProcess::new(g, opinions.to_vec(), kind).unwrap();
    let mut session = plan.session(opinions).unwrap();
    let mut rng = FastRng::seed_from_u64(seed);
    let mut remaining = budget;
    let status = loop {
        let (lo, hi) = (p.min_opinion(), p.max_opinion());
        if hi - lo <= stop_width {
            break if lo == hi {
                RunStatus::Consensus {
                    opinion: lo,
                    steps: p.steps(),
                }
            } else {
                RunStatus::TwoAdjacent {
                    low: lo,
                    high: hi,
                    steps: p.steps(),
                }
            };
        }
        if remaining == 0 {
            break RunStatus::StepLimit { steps: p.steps() };
        }
        remaining -= 1;
        p.step_faulty(&mut session, &mut rng);
    };
    (status, p.steps(), p.opinions(), rng, *session.stats())
}

/// The engine under test, after `warmup` naive faulty steps (which shift
/// where its blocks fall relative to the first hit).
#[allow(clippy::too_many_arguments)]
fn engine(
    g: &Graph,
    opinions: &[i64],
    kind: FastScheduler,
    plan: &FaultPlan,
    seed: u64,
    warmup: u64,
    budget: u64,
    stop_width: i64,
) -> Observed {
    let mut p = FastProcess::new(g, opinions.to_vec(), kind).unwrap();
    let mut session = plan.session(opinions).unwrap();
    let mut rng = FastRng::seed_from_u64(seed);
    for _ in 0..warmup {
        p.step_faulty(&mut session, &mut rng);
    }
    let status = match stop_width {
        0 => p.run_faulty_to_consensus(budget, &mut session, &mut rng),
        _ => p.run_faulty_to_two_adjacent(budget, &mut session, &mut rng),
    };
    // The rebuilt registers must describe the final opinions.
    let ops = p.opinions();
    assert_eq!(p.sum(), ops.iter().sum::<i64>());
    assert_eq!(p.min_opinion(), *ops.iter().min().unwrap());
    assert_eq!(p.max_opinion(), *ops.iter().max().unwrap());
    for x in p.min_opinion()..=p.max_opinion() {
        assert_eq!(p.count(x), ops.iter().filter(|&&o| o == x).count());
    }
    (status, p.steps(), ops, rng, *session.stats())
}

/// The first step at which the naive loop reaches `stop_width`.
fn first_hit(
    g: &Graph,
    opinions: &[i64],
    kind: FastScheduler,
    plan: &FaultPlan,
    seed: u64,
    stop_width: i64,
) -> u64 {
    let (status, ..) = naive(g, opinions, kind, plan, seed, u64::MAX, stop_width);
    assert!(!matches!(status, RunStatus::StepLimit { .. }));
    status.steps()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every sampler family, drop rate (zero included), stubborn count
    /// and stop width: budgets anywhere from a fraction of a block to
    /// many blocks, so runs end mid-block, at a hit, or both.
    #[test]
    fn thinned_runs_equal_the_naive_loop(
        ipick in any::<u8>(),
        size in 6usize..60,
        k in 2usize..7,
        qpick in 0usize..4,
        stubborn in stubborn_count(),
        stop_width in 0i64..2,
        seed in any::<u64>(),
        budget in 1u64..80_000,
    ) {
        let (g, kind) = instance(ipick, size, seed);
        let mut orng = StdRng::seed_from_u64(seed ^ 0x7417);
        let opinions = init::uniform_random(g.num_vertices(), k, &mut orng).unwrap();
        let plan = FaultPlan {
            drop: [0.0, 0.05, 0.5, 0.9][qpick],
            stubborn,
            ..FaultPlan::default()
        };
        let want = naive(&g, &opinions, kind, &plan, seed, budget, stop_width);
        let got = engine(&g, &opinions, kind, &plan, seed, 0, budget, stop_width);
        prop_assert_eq!(got, want, "{:?} {:?} budget {}", kind, plan, budget);
    }
}

/// `stubborn ∈ {0, 3}`.
fn stubborn_count() -> impl Strategy<Value = usize> {
    (0usize..2).prop_map(|i| 3 * i)
}

/// Runs `plan` on a mid-size instance whose first hit lies well past one
/// block, with the first hit placed on the last step of a block, and
/// with budgets ending one step before, on and after the hit.
fn check_block_edges(g: &Graph, kind: FastScheduler, spec: &str, stop_width: i64) {
    let plan = FaultPlan::parse(spec).unwrap();
    let mut orng = StdRng::seed_from_u64(5);
    // A wide span puts every first hit past two blocks.
    let mut opinions = init::uniform_random(g.num_vertices(), 256, &mut orng).unwrap();
    // A stubborn bloc that disagrees with itself blocks consensus forever.
    let bloc = opinions[0];
    opinions[..plan.stubborn].fill(bloc);
    let seed = 0x5EED;
    let hit = first_hit(g, &opinions, kind, &plan, seed, stop_width);
    assert!(
        hit > 2 * BLOCK,
        "{spec}: first hit {hit} inside the first blocks"
    );
    // After `warmup` naive steps the hit is a whole number of blocks
    // away: it falls on the last step of a block.
    let warmup = hit % BLOCK;
    for budget in [hit - warmup - 1, hit - warmup, hit - warmup + 1, u64::MAX] {
        let want = naive(
            g,
            &opinions,
            kind,
            &plan,
            seed,
            warmup.saturating_add(budget),
            stop_width,
        );
        let got = engine(g, &opinions, kind, &plan, seed, warmup, budget, stop_width);
        assert_eq!(
            got, want,
            "{spec} ({kind:?}): warmup {warmup}, budget {budget}"
        );
    }
    // Budgets that end mid-block and on a block boundary, short of the hit.
    for budget in [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 17] {
        let want = naive(g, &opinions, kind, &plan, seed, budget, stop_width);
        let got = engine(g, &opinions, kind, &plan, seed, 0, budget, stop_width);
        assert!(matches!(got.0, RunStatus::StepLimit { .. }));
        assert_eq!(got, want, "{spec} ({kind:?}): budget {budget}");
    }
}

#[test]
fn first_hit_on_a_block_boundary_is_exact() {
    let mut rng = StdRng::seed_from_u64(3);
    let regular = generators::random_regular(200, 4, &mut rng).unwrap();
    let complete = generators::complete(120).unwrap();
    for spec in ["none", "drop:0.5", "drop:0.05,stubborn:3", "drop:0.9"] {
        for stop_width in [0, 1] {
            check_block_edges(&regular, FastScheduler::Vertex, spec, stop_width);
            check_block_edges(&regular, FastScheduler::Edge, spec, stop_width);
            check_block_edges(&regular, FastScheduler::EdgeAlias, spec, stop_width);
            check_block_edges(&complete, FastScheduler::Vertex, spec, stop_width);
        }
    }
}

#[test]
fn already_stopped_start_draws_nothing() {
    let g = generators::complete(10).unwrap();
    let plan = FaultPlan::parse("drop:0.5,stubborn:3").unwrap();
    for (opinions, stop_width) in [(vec![4; 10], 0), ([vec![4; 5], vec![5; 5]].concat(), 1)] {
        let want = naive(
            &g,
            &opinions,
            FastScheduler::Edge,
            &plan,
            9,
            1000,
            stop_width,
        );
        let got = engine(
            &g,
            &opinions,
            FastScheduler::Edge,
            &plan,
            9,
            0,
            1000,
            stop_width,
        );
        assert_eq!(got.1, 0);
        assert_eq!(got.3, FastRng::seed_from_u64(9), "no draw may be taken");
        assert_eq!(got, want);
    }
}

#[test]
fn range_expanding_noise_stays_per_step_and_exact() {
    // Noise reads need not be live opinions, so the width can grow back:
    // the block engine would be unsound, and the run must still equal
    // the naive loop.
    let g = generators::complete(30).unwrap();
    let opinions = init::spread(30, 4).unwrap();
    let plan = FaultPlan::parse("noise:0.3:1").unwrap();
    let mut p = FastProcess::new(&g, opinions.clone(), FastScheduler::Edge).unwrap();
    let mut session = plan.session(&opinions).unwrap();
    let mut rng = FastRng::seed_from_u64(11);
    let mut width = p.max_opinion() - p.min_opinion();
    let mut widened = false;
    for _ in 0..50_000 {
        p.step_faulty(&mut session, &mut rng);
        let now = p.max_opinion() - p.min_opinion();
        widened |= now > width;
        width = now;
    }
    assert!(widened, "noise:0.3:1 must re-expand the range here");
    for stop_width in [0, 1] {
        for budget in [1, 1023, 1024, 5000, 50_000] {
            let want = naive(
                &g,
                &opinions,
                FastScheduler::Edge,
                &plan,
                11,
                budget,
                stop_width,
            );
            let got = engine(
                &g,
                &opinions,
                FastScheduler::Edge,
                &plan,
                11,
                0,
                budget,
                stop_width,
            );
            assert_eq!(got, want, "budget {budget}, stop width {stop_width}");
        }
    }
}
