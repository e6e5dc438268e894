//! Bit-exactness of the lockstep batch engine against per-lane scalar
//! replays of the fast engine.
//!
//! The contract under test (DESIGN.md §3.4): lane `l` of a
//! [`BatchProcess`] seeded with `seeds[l]` consumes the *identical* RNG
//! word sequence, visits the identical states and stops with the
//! identical [`RunStatus`] as a scalar [`FastProcess`] run with
//! `FastRng::seed_from_u64(seeds[l])` — for every compiled scheduler,
//! under fault plans, regardless of how many lanes share the batch, and
//! under **every kernel tier the host supports** (the vectorized drives
//! must be indistinguishable from the scalar ones, not merely close).
//!
//! Clean fast runs and clean batch lanes share one block loop, so a
//! fault in it would show in both alike.  The clean-run tests therefore
//! also hold both against [`stepwise`], a per-step loop that shares no
//! code with the block loop.

use div_core::{
    init, BatchProcess, FastProcess, FastRng, FastScheduler, FaultPlan, KernelTier, RunStatus,
};
use div_graph::generators;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// A small connected workload graph chosen by an index.
fn workload_graph(pick: u8, size: usize, seed: u64) -> div_graph::Graph {
    let n = size.max(4);
    match pick % 5 {
        0 => generators::complete(n).unwrap(),
        1 => generators::cycle(n).unwrap(),
        2 => generators::wheel(n.max(4)).unwrap(),
        3 => generators::star(n).unwrap(),
        _ => {
            let mut rng = StdRng::seed_from_u64(seed);
            let d = if n.is_multiple_of(2) { 3 } else { 4 };
            generators::random_regular(n, d, &mut rng).unwrap()
        }
    }
}

/// The compiled scheduler under test, by index — all three sampler
/// families (edge list, vertex-neighbour, alias) must hold the contract.
fn scheduler(pick: u8) -> FastScheduler {
    match pick % 3 {
        0 => FastScheduler::Edge,
        1 => FastScheduler::Vertex,
        _ => FastScheduler::EdgeAlias,
    }
}

/// Distinct per-lane seeds derived from one base, mimicking the campaign
/// runner's per-trial seed discipline.
fn lane_seeds(k: usize, base: u64) -> Vec<u64> {
    (0..k as u64)
        .map(|t| base ^ t.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect()
}

/// Per-tier observables compared by the cross-tier determinism property:
/// lane statuses, lane step counts and final opinion vectors.
type TierObservables = (Vec<div_core::RunStatus>, Vec<u64>, Vec<Vec<i64>>);

/// What a clean run leaves behind: status, step count, final opinions
/// and the next word of its stream.
type Stepwise = (RunStatus, u64, Vec<i64>, u64);

/// The oracle of clean runs: a width check, then the budget, then one
/// public [`FastProcess::step_faulty`] call under the trivial plan, which
/// draws nothing beyond the pair — until the range width is at most
/// `stop_width` or `budget` steps are spent.
fn stepwise(
    g: &div_graph::Graph,
    opinions: &[i64],
    kind: FastScheduler,
    seed: u64,
    budget: u64,
    stop_width: i64,
) -> Stepwise {
    let mut p = FastProcess::new(g, opinions.to_vec(), kind).unwrap();
    let mut session = FaultPlan::none().session(opinions).unwrap();
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
    (status, p.steps(), p.opinions(), rng.next_u64())
}

/// A clean fast-engine run's [`Stepwise`] observables, through the
/// public entry point for `stop_width` (0 or 1).
fn fast_run(
    g: &div_graph::Graph,
    opinions: &[i64],
    kind: FastScheduler,
    seed: u64,
    budget: u64,
    stop_width: i64,
) -> Stepwise {
    let mut p = FastProcess::new(g, opinions.to_vec(), kind).unwrap();
    let mut rng = FastRng::seed_from_u64(seed);
    let status = match stop_width {
        0 => p.run_to_consensus(budget, &mut rng),
        _ => p.run_to_two_adjacent(budget, &mut rng),
    };
    (status, p.steps(), p.opinions(), rng.next_u64())
}

/// A fault plan chosen by an index: drop/stubborn plans (the thinned
/// block engine) and noise/stale plans (the per-step loop).
fn fault_plan(pick: u8) -> (&'static str, FaultPlan) {
    let spec = match pick % 5 {
        0 => "drop:0.2",
        1 => "noise:0.15:1",
        2 => "drop:0.1,stubborn:1",
        3 => "drop:0.3,stubborn:2",
        _ => "stale:0.2:3",
    };
    (spec, FaultPlan::parse(spec).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fault-free lanes: every lane's outcome, step count and final
    /// opinion vector equal a scalar fast-engine run with the same seed,
    /// and both equal the per-step oracle (the fast run's stream
    /// position too).
    #[test]
    fn lanes_are_bit_exact_vs_scalar_replay(
        gpick in any::<u8>(),
        spick in any::<u8>(),
        size in 4usize..40,
        k in 2usize..8,
        seed in any::<u64>(),
        lane_pick in 0usize..4,
        budget in 500u64..40_000,
    ) {
        let lanes = [1usize, 3, 8, 16][lane_pick];
        let g = workload_graph(gpick, size, seed);
        let kind = scheduler(spick);
        let mut orng = StdRng::seed_from_u64(seed ^ 0xBEEF);
        let opinions = init::uniform_random(g.num_vertices(), k, &mut orng).unwrap();
        let seeds = lane_seeds(lanes, seed);
        let mut oracle = Vec::new();
        for (l, &s) in seeds.iter().enumerate() {
            let want = stepwise(&g, &opinions, kind, s, budget, 0);
            let got = fast_run(&g, &opinions, kind, s, budget, 0);
            prop_assert_eq!(&got, &want, "lane {} against the per-step oracle", l);
            oracle.push(want);
        }

        for tier in KernelTier::supported() {
            let mut batch = BatchProcess::new(&g, opinions.clone(), kind, &seeds).unwrap();
            batch.set_kernel_tier(tier);
            let statuses = batch.run_to_consensus(budget);

            for (l, &s) in seeds.iter().enumerate() {
                let (want, want_steps, want_ops, _) = &oracle[l];
                prop_assert_eq!(statuses[l], *want, "lane {} oracle status ({})", l, tier.name());
                prop_assert_eq!(batch.steps(l), *want_steps, "lane {} oracle steps", l);
                prop_assert_eq!(&batch.opinions_of(l), want_ops, "lane {} oracle opinions", l);
                let mut p = FastProcess::new(&g, opinions.clone(), kind).unwrap();
                let mut rng = FastRng::seed_from_u64(s);
                let status = p.run_to_consensus(budget, &mut rng);
                prop_assert_eq!(statuses[l], status, "lane {} status ({})", l, tier.name());
                prop_assert_eq!(batch.steps(l), p.steps(), "lane {} steps ({})", l, tier.name());
                prop_assert_eq!(
                    batch.opinions_of(l), p.opinions(),
                    "lane {} opinions ({})", l, tier.name()
                );
                prop_assert_eq!(batch.sum(l), p.sum());
                prop_assert_eq!(batch.min_opinion(l), p.min_opinion());
                prop_assert_eq!(batch.max_opinion(l), p.max_opinion());
                prop_assert_eq!(batch.is_two_adjacent(l), p.is_two_adjacent());
            }
        }
    }

    /// Faulty lanes run the fast engine's faulty code on their columns,
    /// so this checks the lane plumbing (column load/store, step count,
    /// RNG, fresh session per lane) for every sampler family — the
    /// faulty loop itself is guarded against a naive oracle in
    /// `thinned_faults.rs`.
    #[test]
    fn faulty_lanes_are_bit_exact_vs_scalar_replay(
        gpick in any::<u8>(),
        fpick in any::<u8>(),
        size in 4usize..30,
        k in 2usize..7,
        seed in any::<u64>(),
        lane_pick in 0usize..3,
        budget in 500u64..20_000,
    ) {
        let lanes = [1usize, 3, 8][lane_pick];
        let g = workload_graph(gpick, size, seed);
        let (spec, plan) = fault_plan(fpick);
        let mut orng = StdRng::seed_from_u64(seed ^ 0xFA17);
        let opinions = init::uniform_random(g.num_vertices(), k, &mut orng).unwrap();
        let seeds = lane_seeds(lanes, seed);

        for kind in [FastScheduler::Edge, FastScheduler::Vertex, FastScheduler::EdgeAlias] {
            let mut batch = BatchProcess::new(&g, opinions.clone(), kind, &seeds).unwrap();
            let (statuses, stats) = batch.run_faulty_to_consensus(budget, &plan).unwrap();

            for (l, &s) in seeds.iter().enumerate() {
                let mut p = FastProcess::new(&g, opinions.clone(), kind).unwrap();
                let mut rng = FastRng::seed_from_u64(s);
                let mut session = plan.session(&opinions).unwrap();
                let status = p.run_faulty_to_consensus(budget, &mut session, &mut rng);
                prop_assert_eq!(statuses[l], status, "lane {} status under {} ({:?})", l, spec, kind);
                prop_assert_eq!(batch.steps(l), p.steps(), "lane {} steps under {}", l, spec);
                prop_assert_eq!(
                    batch.opinions_of(l), p.opinions(),
                    "lane {} opinions under {}", l, spec
                );
                prop_assert_eq!(
                    stats[l], *session.stats(),
                    "lane {} fault counters under {}", l, spec
                );
            }
        }
    }

    /// Cross-tier determinism: for every graph family and both paper
    /// processes, every supported tier produces byte-identical statuses,
    /// step counts and opinion vectors.  This is the tier-independence
    /// contract stated directly, without routing through the scalar
    /// engine (which the replay tests above already pin).
    #[test]
    fn all_tiers_agree_byte_for_byte(
        size in 4usize..32,
        k in 2usize..8,
        seed in any::<u64>(),
        budget in 500u64..30_000,
    ) {
        for gpick in 0u8..5 {
            let g = workload_graph(gpick, size, seed);
            for kind in [FastScheduler::Edge, FastScheduler::Vertex] {
                let mut orng = StdRng::seed_from_u64(seed ^ 0x7E57);
                let opinions = init::uniform_random(g.num_vertices(), k, &mut orng).unwrap();
                let seeds = lane_seeds(8, seed);

                let mut baseline: Option<TierObservables> = None;
                for tier in KernelTier::supported() {
                    let mut batch =
                        BatchProcess::new(&g, opinions.clone(), kind, &seeds).unwrap();
                    batch.set_kernel_tier(tier);
                    let statuses = batch.run_to_consensus(budget);
                    let steps: Vec<u64> = (0..seeds.len()).map(|l| batch.steps(l)).collect();
                    let ops: Vec<Vec<i64>> =
                        (0..seeds.len()).map(|l| batch.opinions_of(l).to_vec()).collect();
                    match &baseline {
                        None => baseline = Some((statuses, steps, ops)),
                        Some((s0, t0, o0)) => {
                            prop_assert_eq!(
                                &statuses, s0,
                                "statuses diverge on family {} under {:?} at tier {}",
                                gpick, kind, tier.name()
                            );
                            prop_assert_eq!(&steps, t0, "steps diverge at {}", tier.name());
                            prop_assert_eq!(&ops, o0, "opinions diverge at {}", tier.name());
                        }
                    }
                }
            }
        }
    }
}

/// A one-shot deep check on a denser instance than proptest's small
/// cases: two-adjacent stopping must agree lane by lane as well, and
/// with the per-step oracle.
#[test]
fn two_adjacent_stop_matches_scalar_on_a_regular_graph() {
    let mut rng = StdRng::seed_from_u64(5);
    let g = generators::random_regular(120, 6, &mut rng).unwrap();
    let opinions = init::uniform_random(120, 9, &mut rng).unwrap();
    let seeds = lane_seeds(8, 0xC0FFEE);

    let mut batch = BatchProcess::new(&g, opinions.clone(), FastScheduler::Edge, &seeds).unwrap();
    let statuses = batch.run_to_two_adjacent(u64::MAX);

    for (l, &s) in seeds.iter().enumerate() {
        let mut p = FastProcess::new(&g, opinions.clone(), FastScheduler::Edge).unwrap();
        let mut frng = FastRng::seed_from_u64(s);
        let status = p.run_to_two_adjacent(u64::MAX, &mut frng);
        assert_eq!(statuses[l], status, "lane {l}");
        assert_eq!(batch.opinions_of(l), p.opinions(), "lane {l}");
        let want = stepwise(&g, &opinions, FastScheduler::Edge, s, u64::MAX, 1);
        let got = (status, p.steps(), p.opinions(), frng.next_u64());
        assert_eq!(got, want, "lane {l} against the per-step oracle");
        assert_eq!(batch.steps(l), want.1, "lane {l} oracle steps");
    }
}

/// Spans above 2¹⁶ run natively: lane columns hold `u32` offsets under
/// the fast engine's 2²⁴ span limit, so a span-70 001 batch must replay
/// the fast engine lane for lane on every tier and both processes —
/// through a budget that ends mid-range and through consensus.  Six
/// lanes give the AVX2 tier one lockstep group plus two single lanes.
/// The fast runs must also equal the per-step oracle.
#[test]
fn span_above_u16_lanes_match_scalar_replay() {
    let g = generators::complete(16).unwrap();
    let opinions: Vec<i64> = (0..16).map(|i| i * 70_000 / 15).collect();
    assert_eq!(opinions[15] - opinions[0] + 1, 70_001);
    let seeds = lane_seeds(6, 0x7_0000);
    for kind in [FastScheduler::Edge, FastScheduler::Vertex] {
        for budget in [50_000u64, u64::MAX] {
            for (l, &s) in seeds.iter().enumerate() {
                let want = stepwise(&g, &opinions, kind, s, budget, 0);
                let got = fast_run(&g, &opinions, kind, s, budget, 0);
                let at = format!("lane {l}, {kind:?}, budget {budget}");
                assert_eq!(got, want, "{at} against the per-step oracle");
            }
            for tier in KernelTier::supported() {
                let mut batch = BatchProcess::new(&g, opinions.clone(), kind, &seeds).unwrap();
                batch.set_kernel_tier(tier);
                let statuses = batch.run_to_consensus(budget);
                for (l, &s) in seeds.iter().enumerate() {
                    let mut p = FastProcess::new(&g, opinions.clone(), kind).unwrap();
                    let mut rng = FastRng::seed_from_u64(s);
                    let status = p.run_to_consensus(budget, &mut rng);
                    let at = format!("lane {l}, {kind:?}, budget {budget}, {}", tier.name());
                    assert_eq!(statuses[l], status, "{at}");
                    assert_eq!(batch.steps(l), p.steps(), "{at}");
                    assert_eq!(batch.opinions_of(l), p.opinions(), "{at}");
                }
                if budget == u64::MAX {
                    assert!(statuses.iter().all(|s| s.consensus_opinion().is_some()));
                }
            }
        }
    }
}
