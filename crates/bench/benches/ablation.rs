//! Ablations of the design choices called out in DESIGN.md §7.
//!
//! * `edge_sampling`: the edge process drawn from the stored edge list vs
//!   the alias-table degree-biased vertex draw — same distribution,
//!   different constants.
//! * `aggregate_maintenance`: incremental `O(1)` bookkeeping per step vs
//!   recomputing the aggregates from the opinion vector (what a naive
//!   implementation would pay per observation).
//! * `early_stop`: stopping at the two-adjacent stage and rounding
//!   analytically via Lemma 5 vs simulating the final two-opinion stage to
//!   the end — the final stage dominates on K_n.
//! * `engine`: the reference `DivProcess` + `StdRng` stepping path vs the
//!   compiled `FastProcess` + `FastRng` engine (DESIGN.md §3.3) on the
//!   same graph, opinions and step budget.
//! * `batch`: K trials run one-by-one through the scalar fast engine vs
//!   one lockstep `BatchProcess` over the same compiled graph
//!   (DESIGN.md §3.4), K ∈ {4, 8, 16}, on `complete_1k` and
//!   `regular8_1k` — both arms replay identical seeded trajectories, so
//!   the ratio is pure per-step engine overhead plus the batch engine's
//!   amortised setup.
//! * `kernels`: the same eight-lane batch workload, edge and vertex
//!   process, forced through every kernel tier the host supports
//!   (`scalar`, `avx2` via `set_kernel_tier`) — the tiers replay
//!   bit-identical trajectories, so the arm ratios isolate the vector
//!   drives (the vertex arms keep the vertex family's routing to the
//!   scalar drive measurable).
//! * `faulty`: a drop-only fault plan (`drop:0.1`) on `regular8_1k`,
//!   vertex and edge process, through `FastProcess::run_faulty_to_consensus`
//!   (the thinned block engine) vs a naive loop of `step_faulty` calls
//!   with a width check per step — identical trajectories, so the ratio
//!   is the faulty layer's per-step overhead (reported in ns/step).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use div_core::{
    init, BatchProcess, BiasedVertexScheduler, DivProcess, EdgeScheduler, FastProcess, FastRng,
    FastScheduler, FaultPlan, FinishPolicy, KernelTier, OpinionState, VertexScheduler,
};
use div_graph::generators;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_edge_sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/edge_sampling");
    group.sample_size(20);
    let mut rng = StdRng::seed_from_u64(1);
    let g = generators::barabasi_albert(2000, 4, &mut rng).unwrap();
    let mk = || {
        let mut orng = StdRng::seed_from_u64(7);
        init::uniform_random(g.num_vertices(), 9, &mut orng).unwrap()
    };
    group.bench_function("edge_list", |b| {
        b.iter_batched(
            || {
                (
                    DivProcess::new(&g, mk(), EdgeScheduler::new()).unwrap(),
                    StdRng::seed_from_u64(3),
                )
            },
            |(mut p, mut rng)| {
                for _ in 0..10_000 {
                    p.step(&mut rng);
                }
                p.state().sum()
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("alias_table", |b| {
        b.iter_batched(
            || {
                (
                    DivProcess::new(&g, mk(), BiasedVertexScheduler::new(&g)).unwrap(),
                    StdRng::seed_from_u64(3),
                )
            },
            |(mut p, mut rng)| {
                for _ in 0..10_000 {
                    p.step(&mut rng);
                }
                p.state().sum()
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_aggregate_maintenance(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/aggregate_maintenance");
    group.sample_size(20);
    let g = generators::complete(500).unwrap();
    let mut rng = StdRng::seed_from_u64(2);
    let opinions = init::uniform_random(500, 9, &mut rng).unwrap();
    let st = OpinionState::new(&g, opinions.clone()).unwrap();

    group.bench_function("incremental_1k_updates", |b| {
        b.iter_batched(
            || (st.clone(), StdRng::seed_from_u64(4)),
            |(mut st, mut rng)| {
                use rand::Rng;
                for _ in 0..1000 {
                    let v = rng.gen_range(0..500);
                    let x = st.opinion(v);
                    let nx = (x + if rng.gen() { 1 } else { -1 }).clamp(1, 9);
                    st.set_opinion(v, nx);
                }
                st.sum()
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("recompute_1k_observations", |b| {
        b.iter_batched(
            || (opinions.clone(), StdRng::seed_from_u64(4)),
            |(mut ops, mut rng)| {
                use rand::Rng;
                let mut acc = 0i64;
                for _ in 0..1000 {
                    let v = rng.gen_range(0..500usize);
                    let x = ops[v];
                    ops[v] = (x + if rng.gen() { 1 } else { -1 }).clamp(1, 9);
                    // What a naive implementation pays to observe the
                    // aggregates after each step:
                    let st = OpinionState::new(&g, ops.clone()).unwrap();
                    acc += st.sum() + st.min_opinion() + st.max_opinion();
                }
                acc
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_early_stop(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/early_stop");
    group.sample_size(10);
    let g = generators::complete(256).unwrap();
    let mk = |seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        init::uniform_random(256, 7, &mut rng).unwrap()
    };
    group.bench_function("to_two_adjacent_plus_lemma5", |b| {
        let mut seed = 0u64;
        b.iter_batched(
            || {
                seed += 1;
                (mk(seed), StdRng::seed_from_u64(seed ^ 0xAA))
            },
            |(ops, mut rng)| {
                let c = init::average(&ops);
                let mut p = DivProcess::new(&g, ops, EdgeScheduler::new()).unwrap();
                p.run_to_two_adjacent(u64::MAX, &mut rng);
                // Lemma 5 analytic rounding replaces the final stage.
                div_core::theory::win_prediction(c).mean()
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("to_full_consensus", |b| {
        let mut seed = 1000u64;
        b.iter_batched(
            || {
                seed += 1;
                (mk(seed), StdRng::seed_from_u64(seed ^ 0xAA))
            },
            |(ops, mut rng)| {
                let mut p = DivProcess::new(&g, ops, EdgeScheduler::new()).unwrap();
                p.run_to_consensus(u64::MAX, &mut rng)
                    .consensus_opinion()
                    .unwrap() as f64
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("fast_analytic_two_adjacent", |b| {
        let mut seed = 2000u64;
        b.iter_batched(
            || {
                seed += 1;
                (mk(seed), FastRng::seed_from_u64(seed ^ 0xAA))
            },
            |(ops, mut rng)| {
                let mut p = FastProcess::new(&g, ops, FastScheduler::Edge).unwrap();
                p.run_with_policy(u64::MAX, &mut rng, FinishPolicy::AnalyticTwoAdjacent)
                    .consensus_opinion()
                    .unwrap() as f64
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

/// Reference stepping path vs the compiled engine, per scheduler.
fn bench_engine(c: &mut Criterion) {
    const STEPS: u64 = 10_000;
    let mut group = c.benchmark_group("ablation/engine");
    group.sample_size(20);
    let g = generators::complete(1000).unwrap();
    let mk = || {
        let mut rng = StdRng::seed_from_u64(7);
        init::uniform_random(g.num_vertices(), 9, &mut rng).unwrap()
    };
    group.bench_function("reference_vertex", |b| {
        b.iter_batched(
            || {
                (
                    DivProcess::new(&g, mk(), VertexScheduler::new()).unwrap(),
                    StdRng::seed_from_u64(3),
                )
            },
            |(mut p, mut rng)| {
                for _ in 0..STEPS {
                    p.step(&mut rng);
                }
                p.state().sum()
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("fast_vertex", |b| {
        b.iter_batched(
            || {
                (
                    FastProcess::new(&g, mk(), FastScheduler::Vertex).unwrap(),
                    FastRng::seed_from_u64(3),
                )
            },
            |(mut p, mut rng)| {
                p.run_to_consensus(STEPS, &mut rng);
                p.sum()
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("reference_edge", |b| {
        b.iter_batched(
            || {
                (
                    DivProcess::new(&g, mk(), EdgeScheduler::new()).unwrap(),
                    StdRng::seed_from_u64(3),
                )
            },
            |(mut p, mut rng)| {
                for _ in 0..STEPS {
                    p.step(&mut rng);
                }
                p.state().sum()
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("fast_edge", |b| {
        b.iter_batched(
            || {
                (
                    FastProcess::new(&g, mk(), FastScheduler::Edge).unwrap(),
                    FastRng::seed_from_u64(3),
                )
            },
            |(mut p, mut rng)| {
                p.run_to_consensus(STEPS, &mut rng);
                p.sum()
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("fast_edge_alias", |b| {
        b.iter_batched(
            || {
                (
                    FastProcess::new(&g, mk(), FastScheduler::EdgeAlias).unwrap(),
                    FastRng::seed_from_u64(3),
                )
            },
            |(mut p, mut rng)| {
                p.run_to_consensus(STEPS, &mut rng);
                p.sum()
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

/// Scalar-fast campaign loop vs the lockstep batch engine at K lanes.
/// Step budget per trial keeps the arms bounded; both run the identical
/// seeded trajectories (same per-lane seed discipline), so the comparison
/// is engine overhead, not workload variance.
fn bench_batch(c: &mut Criterion) {
    const BUDGET: u64 = 20_000;
    let mut group = c.benchmark_group("ablation/batch");
    group.sample_size(10);
    let mut grng = StdRng::seed_from_u64(1);
    let graphs = [
        ("complete_1k", generators::complete(1000).unwrap()),
        (
            "regular8_1k",
            generators::random_regular(1000, 8, &mut grng).unwrap(),
        ),
    ];
    for (gname, g) in &graphs {
        let mk = || {
            let mut rng = StdRng::seed_from_u64(7);
            init::uniform_random(g.num_vertices(), 9, &mut rng).unwrap()
        };
        for k in [4usize, 8, 16] {
            let seeds: Vec<u64> = (0..k as u64).map(|t| 0xBA7C ^ (t * 0x9E37)).collect();
            group.bench_function(format!("{gname}/scalar_fast_x{k}"), |b| {
                b.iter_batched(
                    mk,
                    |ops| {
                        let mut total = 0u64;
                        for &s in &seeds {
                            let mut p =
                                FastProcess::new(g, ops.clone(), FastScheduler::Edge).unwrap();
                            let mut rng = FastRng::seed_from_u64(s);
                            p.run_to_consensus(BUDGET, &mut rng);
                            total += p.steps();
                        }
                        total
                    },
                    BatchSize::SmallInput,
                )
            });
            group.bench_function(format!("{gname}/batch_x{k}"), |b| {
                b.iter_batched(
                    mk,
                    |ops| {
                        let mut p = BatchProcess::new(g, ops, FastScheduler::Edge, &seeds).unwrap();
                        p.run_to_consensus(BUDGET);
                        (0..k).map(|l| p.steps(l)).sum::<u64>()
                    },
                    BatchSize::SmallInput,
                )
            });
        }
    }
    group.finish();
}

/// The batch engine's kernel tiers against each other: the identical
/// eight-lane workload, on the edge and the vertex process, forced
/// through every tier the host supports (`scalar`, `avx2`).  The vertex
/// family takes the scalar drive on every tier, so its `avx2` arm
/// re-checks that routing decision.  All tiers replay the same
/// trajectories bit-exactly (DESIGN.md §3.4), so the arm ratios isolate
/// the vector drives' throughput — unsupported tiers are skipped rather
/// than measured as something else.
fn bench_kernels(c: &mut Criterion) {
    const BUDGET: u64 = 20_000;
    const LANES: usize = 8;
    let mut group = c.benchmark_group("ablation/kernels");
    group.sample_size(10);
    let mut grng = StdRng::seed_from_u64(1);
    let graphs = [
        ("complete_1k", generators::complete(1000).unwrap()),
        (
            "regular8_1k",
            generators::random_regular(1000, 8, &mut grng).unwrap(),
        ),
    ];
    let seeds: Vec<u64> = (0..LANES as u64).map(|t| 0xBA7C ^ (t * 0x9E37)).collect();
    for (gname, g) in &graphs {
        let mk = || {
            let mut rng = StdRng::seed_from_u64(7);
            init::uniform_random(g.num_vertices(), 9, &mut rng).unwrap()
        };
        for (sname, sched) in [
            ("edge", FastScheduler::Edge),
            ("vertex", FastScheduler::Vertex),
        ] {
            for tier in KernelTier::supported() {
                group.bench_function(format!("{gname}/{sname}/{}_x{LANES}", tier.name()), |b| {
                    b.iter_batched(
                        mk,
                        |ops| {
                            let mut p = BatchProcess::new(g, ops, sched, &seeds).unwrap();
                            p.set_kernel_tier(tier);
                            p.run_to_consensus(BUDGET);
                            (0..LANES).map(|l| p.steps(l)).sum::<u64>()
                        },
                        BatchSize::SmallInput,
                    )
                });
            }
        }
    }
    group.finish();
}

/// The fast engine's faulty layer under `drop:0.1`: the thinned block
/// engine against a per-step `step_faulty` loop on the same seeded
/// trajectory.  The budget stays far below the consensus time, so both
/// arms take exactly `STEPS` steps and ns/elem reads as ns/step.
fn bench_faulty(c: &mut Criterion) {
    const STEPS: u64 = 200_000;
    let mut group = c.benchmark_group("ablation/faulty");
    group.sample_size(10);
    group.throughput(Throughput::Elements(STEPS));
    let mut grng = StdRng::seed_from_u64(1);
    let g = generators::random_regular(1000, 8, &mut grng).unwrap();
    let plan = FaultPlan::drop_only(0.1).unwrap();
    let mk = || {
        let mut rng = StdRng::seed_from_u64(7);
        init::uniform_random(g.num_vertices(), 9, &mut rng).unwrap()
    };
    for (sname, sched) in [
        ("edge", FastScheduler::Edge),
        ("vertex", FastScheduler::Vertex),
    ] {
        group.bench_function(format!("regular8_1k/{sname}/thinned"), |b| {
            b.iter_batched(
                mk,
                |ops| {
                    let mut session = plan.session(&ops).unwrap();
                    let mut p = FastProcess::new(&g, ops, sched).unwrap();
                    let mut rng = FastRng::seed_from_u64(3);
                    p.run_faulty_to_consensus(STEPS, &mut session, &mut rng);
                    p.steps()
                },
                BatchSize::SmallInput,
            )
        });
        group.bench_function(format!("regular8_1k/{sname}/step_faulty"), |b| {
            b.iter_batched(
                mk,
                |ops| {
                    let mut session = plan.session(&ops).unwrap();
                    let mut p = FastProcess::new(&g, ops, sched).unwrap();
                    let mut rng = FastRng::seed_from_u64(3);
                    for _ in 0..STEPS {
                        if p.is_consensus() {
                            break;
                        }
                        p.step_faulty(&mut session, &mut rng);
                    }
                    p.steps()
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_edge_sampling,
    bench_aggregate_maintenance,
    bench_early_stop,
    bench_engine,
    bench_batch,
    bench_kernels,
    bench_faulty
);
criterion_main!(benches);
