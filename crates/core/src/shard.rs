//! The sharded-domain engine: one trial stepped by `P` concurrent shards.
//!
//! Every other engine in this crate ([`crate::DivProcess`],
//! [`crate::FastProcess`], [`crate::BatchProcess`]) steps one vertex set on
//! one thread, so single-trial throughput is capped by one core.
//! [`ShardedProcess`] is the first engine where a single trial uses the
//! whole machine: the compiled CSR graph is partitioned into `P` disjoint
//! **contiguous vertex domains** (a degree-balanced split nudged by a
//! cut-minimising greedy pass), and each shard steps the updaters of its
//! own domain concurrently on std threads.
//!
//! # Execution model
//!
//! Time is divided into **reconciliation rounds** of roughly `n` steps.
//! A run spawns its `T` worker threads once and deals shard `p` to worker
//! `p mod T`.  Every worker replays the same deterministic control loop —
//! the round's step allocation, the remaining budget and the stop test on
//! the published extremes (see *Registers*) — and the workers meet at one
//! [`Barrier`] per round.  Within a round:
//!
//! * shard `p` performs its deterministic step allocation (see below)
//!   using a **private xoshiro256++ stream** seeded from `shard_seeds[p]`;
//! * an updater `v` is drawn *inside the domain* — uniformly for the
//!   vertex process, degree-biased (per-shard packed alias table) for the
//!   edge process — and a uniform neighbour `w` is observed.  A domain of
//!   constant degree `d` draws uniformly under either law and reads
//!   neighbour `slot` of its `i`-th vertex straight from the domain's
//!   adjacency block at `i·d + slot`, through the fast engine's
//!   constant-degree picker;
//! * if `w` lies in the same domain the read is **live**; otherwise it
//!   comes from the **round-start snapshot**.  The step itself is a bare
//!   branchless toward-step on the shard's own domain slice, so shards
//!   never race on the live array (disjoint `split_at_mut` slices).
//!
//! # Reconciliation
//!
//! Only **frontier** vertices — those with a neighbour in another domain,
//! marked by the constructor's edge-cut pass — are ever read across
//! domains, so only they are published.  The snapshot is double-buffered:
//! round `r` reads buffer `r mod 2`, and a shard that has finished its
//! allocation writes its frontier into the other buffer.  Those relaxed
//! `AtomicU32` stores are ordered before every read of round `r + 1` by
//! the round's barrier, and no buffer is written while it is read, so one
//! barrier per round suffices.  Every cross-domain edge observes its value
//! as of the round start (at most one round stale), and with `P = 1`
//! every read is live, so the engine degenerates to the exact
//! asynchronous process.  The buffer parity carries across calls.
//!
//! # Registers
//!
//! Steps maintain no statistics.  At the end of a round each worker takes
//! its domains' extremes with [`crate::kernels::min_max_u32`] and
//! publishes them; every worker combines the `P` published `(lo, hi)`
//! pairs into the same stop decision.  Per-domain opinion counts, `S(t)`
//! and `Z(t)` are rescanned from the domain slice only when they are
//! read — at the end of a run and on an observed run's sample rounds —
//! and global statistics are `O(P)` combines of those per-domain
//! registers.  The distinct-opinion count looks up the domains' count
//! tables over the live range; a domain narrower than the span keeps a
//! sorted list of its opinions instead, so sampling a wide span costs
//! `O(n log n)`, not `O(P·span)`.
//!
//! # Step allocation
//!
//! Let `W_p` be the total step weight of domain `p` (vertex count for the
//! vertex process, total degree for the edge process) and `W = Σ W_p`.
//! After a cumulative target of `T` steps, shard `p` has executed exactly
//! `⌊T·W_p/W⌋` steps — an error-diffusion rule evaluated in `u128`, so
//! each shard's long-run step rate matches the scalar engine's marginal
//! law (`P[updater = v] = d(v)/2m` for the edge process, `1/n` for the
//! vertex process) to within one step per round, deterministically.
//!
//! # Determinism and fidelity
//!
//! The trajectory is a **pure function of `(shard_seeds, P)`** — the
//! thread count only changes which OS thread executes which shard, never
//! the result, and the same seeds replay bit-identically.  Statistically
//! the process differs from the scalar engine only through the ≤ 1-round
//! staleness of cross-domain reads (comparable to the `stale:P:AGE` fault
//! model, which preserves absorption); the per-step marginal law is
//! exact, the opinion range never expands across rounds, and consensus
//! states are absorbing.  The Theorem 2 / Lemma 5 acceptance suites are
//! re-run against this engine in `tests/shard_acceptance.rs`, and
//! `tests/shard_digests.rs` pins exact trajectories.

use std::cell::Cell;
use std::ops::Deref;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering::Relaxed};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

use div_graph::Graph;
use rand::SeedableRng;

use crate::engine::{bounded_u32_half, bounded_u64, packed_alias_slots, Pick, RegularVertexPick};
use crate::kernels::{self, KernelTier};
use crate::rng::FastRng;
use crate::telemetry::{Observer, Phase, PhaseEvent, TelemetrySample};
use crate::{DivError, FastScheduler, OpinionState, RunStatus};

/// How an updater and its neighbour are drawn inside one shard domain.
#[derive(Debug, Clone)]
enum ShardSampler {
    /// A domain of constant degree, under either law (degree-biased is
    /// uniform there): a uniform vertex `i` and slot from one word, the
    /// neighbour read from the domain's adjacency block at
    /// `i·degree + slot`.
    Regular { degree: u32 },
    /// A uniform vertex of an irregular domain: the vertex process.
    Uniform,
    /// A degree-biased vertex of an irregular domain via a packed alias
    /// table over its degrees (see `engine::packed_alias_slots`): the
    /// edge process.
    Alias(Vec<u64>),
}

/// One domain's statistic registers: the opinions it holds plus the
/// extremes and (degree-weighted) sums of the domain.  Rescanned from the
/// domain slice when read ([`Shard::rescan`]), never maintained per step.
///
/// A domain narrower than the span keeps no count table: scanning one
/// would cost `O(span)` per sample, so it lists its held opinions
/// instead, at `O(len log len)`.
#[derive(Debug, Clone, Default)]
struct ShardRegs {
    /// `N_i(t)` restricted to this domain, indexed by span offset; empty
    /// when the span is wider than the domain.
    counts: Vec<u32>,
    /// The distinct offsets held, ascending, when `counts` is empty.
    held: Vec<u32>,
    /// Smallest span offset held in this domain.
    lo: u32,
    /// Largest span offset held in this domain.
    hi: u32,
    /// `Σ_{v ∈ domain} (X_v − base)`.
    sum_off: i64,
    /// `Σ_{v ∈ domain} d(v)·(X_v − base)` — the `Z(t)` register.
    dw_off: i64,
}

/// One vertex domain: its boundaries, private RNG stream, updater
/// sampler, frontier and statistic registers.
#[derive(Debug, Clone)]
struct Shard {
    /// First vertex of the domain.
    start: u32,
    /// One past the last vertex of the domain.
    end: u32,
    rng: FastRng,
    sampler: ShardSampler,
    regs: ShardRegs,
    /// The domain's vertices with a neighbour in another domain,
    /// ascending: the only ones any other domain reads.
    frontier: Vec<u32>,
    /// Edges with exactly one endpoint in this domain.
    edge_cut: u64,
}

/// One bare branchless DIV step of domain vertex `i` toward the observed
/// span offset `target`.
#[inline(always)]
fn toward(local: &mut [u32], i: usize, target: u32) {
    let x = local[i];
    local[i] = x + (target > x) as u32 - (target < x) as u32;
}

impl Shard {
    /// Executes `steps` domain-internal steps: updaters from this domain,
    /// in-domain reads live from `local`, cross-domain reads from the
    /// round-start `snapshot`.  Writes touch only `local`.
    fn run(&mut self, graph: &Graph, snapshot: &[AtomicU32], local: &mut [u32], steps: u64) {
        let start = self.start as usize;
        let len = local.len();
        let rng = &mut self.rng;
        let observe = |local: &[u32], w: usize| match local.get(w.wrapping_sub(start)) {
            Some(&x) => x,
            None => snapshot[w].load(Relaxed),
        };
        match self.sampler {
            ShardSampler::Regular { degree } => {
                // The scalar engine's constant-degree vertex picker over
                // the domain's block of the adjacency table.
                let (offsets, adjacency) = graph.csr();
                let pick = RegularVertexPick {
                    neighbors: &adjacency[offsets[start]..offsets[start + len]],
                    n: len as u32,
                    d: degree,
                };
                for _ in 0..steps {
                    let (i, w) = pick.pick(rng);
                    toward(local, i as usize, observe(local, w as usize));
                }
            }
            ShardSampler::Uniform => {
                for _ in 0..steps {
                    // The same word discipline, with the degree looked up.
                    let (i, w) = loop {
                        let word = rng.next_word();
                        let Some(i) = bounded_u32_half((word >> 32) as u32, len as u32) else {
                            continue;
                        };
                        let v = start + i as usize;
                        let d = graph.degree(v) as u32;
                        let Some(slot) = bounded_u32_half(word as u32, d) else {
                            continue;
                        };
                        break (i as usize, graph.neighbor(v, slot as usize));
                    };
                    toward(local, i, observe(local, w));
                }
            }
            ShardSampler::Alias(ref slots) => {
                for _ in 0..steps {
                    // Word one: degree-biased domain vertex (high half the
                    // slot, low half the keep-vs-alias test); word two:
                    // uniform neighbour.
                    let i = loop {
                        let word = rng.next_word();
                        let Some(i) = bounded_u32_half((word >> 32) as u32, len as u32) else {
                            continue;
                        };
                        let slot = slots[i as usize];
                        break if (word as u32) < (slot >> 32) as u32 {
                            i as usize
                        } else {
                            (slot as u32) as usize
                        };
                    };
                    let v = start + i;
                    let d = graph.degree(v);
                    let w = graph.neighbor(v, bounded_u64(rng, d as u64) as usize);
                    toward(local, i, observe(local, w));
                }
            }
        }
    }

    /// Writes the frontier's current values into `snapshot`.
    fn publish(&self, local: &[u32], snapshot: &[AtomicU32]) {
        let start = self.start as usize;
        for &v in &self.frontier {
            snapshot[v as usize].store(local[v as usize - start], Relaxed);
        }
    }

    /// Recomputes the registers from the domain slice `local`: from the
    /// count table on a span no wider than the domain, from the opinions
    /// themselves on a wider one.
    fn rescan(&mut self, graph: &Graph, local: &[u32]) {
        let regs = &mut self.regs;
        if regs.counts.is_empty() {
            regs.held.clear();
            regs.held.extend_from_slice(local);
            regs.held.sort_unstable();
            regs.held.dedup();
            regs.sum_off = local.iter().map(|&x| x as i64).sum();
            regs.lo = *regs.held.first().expect("domains are non-empty");
            regs.hi = *regs.held.last().expect("domains are non-empty");
        } else {
            histogram(local, &mut regs.counts);
            regs.sum_off = (regs.counts.iter().enumerate())
                .map(|(off, &c)| off as i64 * c as i64)
                .sum();
            let mut held = (regs.counts.iter().enumerate())
                .filter(|&(_, &c)| c > 0)
                .map(|(off, _)| off as u32);
            regs.lo = held.next().expect("domains are non-empty");
            regs.hi = held.next_back().unwrap_or(regs.lo);
        }
        regs.dw_off = match self.sampler {
            ShardSampler::Regular { degree } => degree as i64 * regs.sum_off,
            _ => (local.iter().zip(self.start as usize..))
                .map(|(&x, v)| x as i64 * graph.degree(v) as i64)
                .sum(),
        };
    }
}

/// Overwrites `counts` with the opinion counts of `local`.
fn histogram(local: &[u32], counts: &mut [u32]) {
    counts.fill(0);
    for &x in local {
        counts[x as usize] += 1;
    }
}

/// The double-buffered frontier snapshot, indexed by vertex: round `r`
/// reads buffer `r mod 2` and publishes into the other.  After
/// construction only frontier entries are ever read or written.
#[derive(Debug)]
struct Snapshot([Vec<AtomicU32>; 2]);

impl Clone for Snapshot {
    fn clone(&self) -> Self {
        Snapshot(
            (self.0.each_ref())
                .map(|b| b.iter().map(|x| AtomicU32::new(x.load(Relaxed))).collect()),
        )
    }
}

/// One shard domain's balance gauges, read at a round boundary — the
/// per-shard families `divlab --serve` exposes for the sharded engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardGauge {
    /// The domain index `p` (`0 ≤ p < P`).
    pub shard: usize,
    /// The domain's step weight `W_p` (vertex count for the vertex
    /// process, total degree for the edge process).
    pub weight: u64,
    /// Edges with exactly one endpoint in this domain — every one is a
    /// potential snapshot (stale) read.
    pub edge_cut: u64,
    /// Steps this shard has executed so far (the error-diffusion
    /// allocation realised).
    pub steps: u64,
    /// Steps this shard executed in the most recent round — the upper
    /// bound on how stale its writes are in the snapshot other domains
    /// read (the snapshot-refresh age, in steps).
    pub round_lag: u64,
}

/// Sharded-domain DIV process: one trial stepped by `P` concurrent vertex
/// domains with deterministic round-boundary reconciliation.  See the
/// module docs for the execution model and fidelity contract.
///
/// # Examples
///
/// ```
/// use div_core::{init, ShardedProcess, FastScheduler, RunStatus};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = div_graph::generators::complete(60)?;
/// let opinions = init::blocks(&[(1, 30), (5, 30)])?;
/// // Four shards, seeded individually; threads only affect wall-clock.
/// let mut p = ShardedProcess::new(&g, opinions, FastScheduler::Edge, &[1, 2, 3, 4])?;
/// match p.run_to_consensus(10_000_000, 1) {
///     RunStatus::Consensus { opinion, .. } => assert_eq!(opinion, 3),
///     other => panic!("did not converge: {other:?}"),
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ShardedProcess<'g> {
    graph: &'g Graph,
    kind: FastScheduler,
    base: i64,
    /// Domain boundaries: shard `p` owns vertices `[bounds[p], bounds[p+1])`.
    bounds: Vec<u32>,
    /// The live opinion offsets, written only through disjoint per-domain
    /// slices.
    live: Vec<u32>,
    /// The frontier values cross-domain observations read.
    snapshot: Snapshot,
    shards: Vec<Shard>,
    /// Step weight of each domain (`W_p`).
    weights: Vec<u64>,
    /// `W = Σ W_p`.
    total_weight: u64,
    round_len: u64,
    /// Rounds executed so far; its parity picks the snapshot buffer the
    /// next round reads.
    rounds: u64,
    /// Cumulative *target* steps handed to the allocator: shard `p` has
    /// executed exactly `⌊target·W_p/W⌋` steps (see [`share`]).
    target: u64,
    /// The target length of the most recent round (`0` before the first).
    last_round: u64,
}

/// Shard `p`'s executed steps after a cumulative target of `target`:
/// `⌊target·W_p/W⌋`, in `u128` so the diffusion is exact for any
/// reachable step count.
fn share(target: u64, weight: u64, total_weight: u64) -> u64 {
    (target as u128 * weight as u128 / total_weight as u128) as u64
}

/// Steps executed by all shards after a cumulative target of `target`.
fn executed(weights: &[u64], total_weight: u64, target: u64) -> u64 {
    (weights.iter())
        .map(|&w| share(target, w, total_weight))
        .sum()
}

/// A trajectory sample combined from per-domain registers: `O(P)` sums
/// and extremes; distinct opinions by `O(P·width)` count lookups when
/// every domain keeps a count table, else by merging the domains' held
/// opinions (`O(n log n)`, independent of the span).
fn combine<R: Deref<Target = ShardRegs>>(
    step: u64,
    base: i64,
    graph: &Graph,
    regs: &[R],
) -> TelemetrySample {
    let n = graph.num_vertices() as i64;
    let total_degree = graph.total_degree() as i64;
    let lo = regs.iter().map(|r| r.lo).min().expect("P >= 1") as usize;
    let hi = regs.iter().map(|r| r.hi).max().expect("P >= 1") as usize;
    let dws = base * total_degree + regs.iter().map(|r| r.dw_off).sum::<i64>();
    TelemetrySample {
        step,
        sum: base * n + regs.iter().map(|r| r.sum_off).sum::<i64>(),
        z_weight: n as f64 * dws as f64 / total_degree as f64,
        min: base + lo as i64,
        max: base + hi as i64,
        distinct: if regs.iter().all(|r| !r.counts.is_empty()) {
            (lo..=hi)
                .filter(|&off| regs.iter().any(|r| r.counts[off] > 0))
                .count()
        } else {
            let mut held: Vec<u32> = Vec::new();
            for r in regs {
                match r.counts.is_empty() {
                    true => held.extend_from_slice(&r.held),
                    false => held.extend((r.lo..=r.hi).filter(|&off| r.counts[off as usize] > 0)),
                }
            }
            held.sort_unstable();
            held.dedup();
            held.len()
        },
    }
}

/// What the workers of one run share: the round plan's fixed inputs, the
/// snapshot, the boards every worker publishes into before the round's
/// barrier, and the barrier.  The boards are double-buffered by round
/// parity like the snapshot: round `r` writes and reads slot `r mod 2`,
/// which nobody writes again before every worker has passed the barrier
/// of round `r + 1`.
struct Board<'a> {
    weights: &'a [u64],
    total_weight: u64,
    round_len: u64,
    stop_width: u32,
    /// Rescan and publish the registers every this many rounds of the run
    /// (`None` for a plain run).
    sample_rounds: Option<u64>,
    tier: KernelTier,
    snapshot: &'a Snapshot,
    /// Each domain's round-end extremes, `hi << 32 | lo`.
    extremes: [Vec<AtomicU64>; 2],
    /// Each domain's registers on sample rounds.
    regs: [Vec<Mutex<ShardRegs>>; 2],
    barrier: Barrier,
    /// The round at whose barrier a panicking worker stands in
    /// (`u64::MAX` while none has): the others stop once past it.
    failed: AtomicU64,
}

/// Keeps a panicking worker from stranding the others at the barrier.
/// `owes` is the round whose barrier the others still expect the worker
/// at; on unwind the guard records that round as failed and takes the
/// worker's place at its barrier, after which every worker leaves its
/// loop and the panic reaches the caller through the thread scope.  The
/// round number keeps the others from acting on the flag one barrier
/// early, when it is raised after a barrier they have already passed.
struct Unwind<'b, 'a> {
    board: &'b Board<'a>,
    owes: Cell<Option<u64>>,
}

impl Drop for Unwind<'_, '_> {
    fn drop(&mut self) {
        if let (true, Some(round)) = (std::thread::panicking(), self.owes.get()) {
            self.board.failed.store(round, Relaxed);
            self.board.barrier.wait();
        }
    }
}

impl Board<'_> {
    /// The global opinion-range width from the extremes published in slot
    /// `parity`.
    fn width(&self, parity: usize) -> u32 {
        let (lo, hi) = self.extremes[parity]
            .iter()
            .map(|e| e.load(Relaxed))
            .fold((u32::MAX, 0), |(lo, hi), e| {
                (lo.min(e as u32), hi.max((e >> 32) as u32))
            });
        hi - lo
    }
}

/// The control state every worker replays: identical inputs and the same
/// published extremes give every worker the same allocation, budget and
/// stop decision, so they agree on each round without exchanging more
/// than the extremes.
#[derive(Debug, Clone, Copy)]
struct Plan {
    /// Rounds executed by the process.
    round: u64,
    /// Rounds executed by this run.
    rounds_run: u64,
    /// Cumulative target steps.
    target: u64,
    /// The run's remaining budget target.
    budget: u64,
    /// The target length of the most recent round.
    last_round: u64,
    /// The global opinion-range width at the latest round boundary.
    width: u32,
}

impl Plan {
    /// Whether another round runs.
    fn continues(&self, board: &Board<'_>) -> bool {
        self.width > board.stop_width && self.budget > 0
    }
}

/// A shard dealt to a worker, with its domain slice of the live array.
struct Task<'s> {
    p: usize,
    shard: &'s mut Shard,
    local: &'s mut [u32],
}

/// One worker's run: the control loop over its `crew` of shards, one
/// barrier per round.  `after` runs once each round's barrier has passed,
/// with the advanced plan, the round's board slot and whether it was a
/// sample round; only the coordinator's does anything.  On exit the
/// crew's registers are rescanned when any round ran.
fn work(
    graph: &Graph,
    board: &Board<'_>,
    mut plan: Plan,
    crew: &mut [Task<'_>],
    mut after: impl FnMut(&Board<'_>, &Plan, usize, bool),
) -> Plan {
    let unwind = Unwind {
        board,
        owes: Cell::new(None),
    };
    while plan.continues(board) {
        unwind.owes.set(Some(plan.round));
        let b = board.round_len.min(plan.budget);
        let parity = (plan.round % 2) as usize;
        let sampled =
            (board.sample_rounds).is_some_and(|k| (plan.rounds_run + 1).is_multiple_of(k));
        for t in crew.iter_mut() {
            let w = board.weights[t.p];
            let steps = share(plan.target + b, w, board.total_weight)
                - share(plan.target, w, board.total_weight);
            t.shard
                .run(graph, &board.snapshot.0[parity], t.local, steps);
            // Relaxed stores suffice here and below: the barrier orders
            // them before every load of round `r + 1`, and no slot is
            // stored to while another worker may load it.
            t.shard.publish(t.local, &board.snapshot.0[parity ^ 1]);
            let (lo, hi) = if sampled {
                t.shard.rescan(graph, t.local);
                let mut slot = board.regs[parity][t.p]
                    .lock()
                    .expect("slots are locked only to copy registers in or out");
                slot.clone_from(&t.shard.regs);
                (slot.lo, slot.hi)
            } else {
                kernels::min_max_u32(t.local, board.tier)
            };
            board.extremes[parity][t.p].store(u64::from(hi) << 32 | u64::from(lo), Relaxed);
        }
        board.barrier.wait();
        if board.failed.load(Relaxed) == plan.round {
            break;
        }
        plan = Plan {
            round: plan.round + 1,
            rounds_run: plan.rounds_run + 1,
            target: plan.target + b,
            budget: plan.budget - b,
            last_round: b,
            width: board.width(parity),
        };
        unwind.owes.set(plan.continues(board).then_some(plan.round));
        after(board, &plan, parity, sampled);
    }
    unwind.owes.set(None);
    if plan.rounds_run > 0 {
        for t in crew.iter_mut() {
            t.shard.rescan(graph, t.local);
        }
    }
    plan
}

impl<'g> ShardedProcess<'g> {
    /// Compiles the partition, per-shard samplers, frontiers and
    /// registers.  One shard per seed; shard `p` draws from
    /// `FastRng::seed_from_u64(shard_seeds[p])`, so deriving the seeds
    /// with `SeedSequence::seed_for(trial_seed, p)` makes the whole
    /// trajectory a pure function of `(trial_seed, P)`.
    ///
    /// # Errors
    ///
    /// Everything [`OpinionState::new`] rejects, plus
    /// [`DivError::InvalidInit`] when there are more shards than
    /// vertices (every domain must own at least one vertex).
    ///
    /// # Panics
    ///
    /// Panics if `shard_seeds` is empty — the engine needs at least one
    /// domain.
    pub fn new(
        graph: &'g Graph,
        opinions: Vec<i64>,
        scheduler: FastScheduler,
        shard_seeds: &[u64],
    ) -> Result<Self, DivError> {
        assert!(
            !shard_seeds.is_empty(),
            "sharding needs at least one domain"
        );
        // Reference-path validation keeps the engines' error contracts
        // identical (also bounds the span for the dense count registers).
        let reference = OpinionState::new(graph, opinions)?;
        let n = reference.num_vertices();
        let p = shard_seeds.len();
        if p > n {
            return Err(DivError::invalid_init(format!(
                "cannot split {n} vertices into {p} shard domains"
            )));
        }
        let base = reference.min_opinion();
        let span = (reference.max_opinion() - base) as usize + 1;
        let live: Vec<u32> = reference
            .opinions()
            .iter()
            .map(|&x| (x - base) as u32)
            .collect();
        let bounds = partition(graph, scheduler, p);
        let weights: Vec<u64> = (0..p)
            .map(|k| domain_weight(graph, scheduler, bounds[k], bounds[k + 1]))
            .collect();
        let total_weight: u64 = weights.iter().sum();
        let (offsets, adjacency) = graph.csr();
        let shards: Vec<Shard> = (0..p)
            .map(|k| {
                let (start, end) = (bounds[k] as usize, bounds[k + 1] as usize);
                // The edge-cut pass: every adjacency entry leaving the
                // domain is one of its cut edges (each is a potential
                // snapshot read), and its source is a frontier vertex.
                let (mut frontier, mut edge_cut) = (Vec::new(), 0u64);
                for v in start..end {
                    let out = adjacency[offsets[v]..offsets[v + 1]]
                        .iter()
                        .filter(|&&w| !(start..end).contains(&(w as usize)))
                        .count();
                    if out > 0 {
                        frontier.push(v as u32);
                        edge_cut += out as u64;
                    }
                }
                let d0 = graph.degree(start);
                let sampler = if (start..end).all(|v| graph.degree(v) == d0) {
                    // Constant degree: degree-biased is uniform, so both
                    // laws skip the table and address neighbours directly
                    // (the regular families land here).
                    ShardSampler::Regular { degree: d0 as u32 }
                } else {
                    match scheduler {
                        FastScheduler::Vertex => ShardSampler::Uniform,
                        FastScheduler::Edge | FastScheduler::EdgeAlias => {
                            let degrees: Vec<u64> =
                                (start..end).map(|v| graph.degree(v) as u64).collect();
                            ShardSampler::Alias(packed_alias_slots(&degrees))
                        }
                    }
                };
                let mut shard = Shard {
                    start: start as u32,
                    end: end as u32,
                    rng: FastRng::seed_from_u64(shard_seeds[k]),
                    sampler,
                    regs: ShardRegs {
                        counts: if span <= end - start {
                            vec![0; span]
                        } else {
                            Vec::new()
                        },
                        ..ShardRegs::default()
                    },
                    frontier,
                    edge_cut,
                };
                shard.rescan(graph, &live[start..end]);
                shard
            })
            .collect();
        let snapshot = Snapshot([0, 1].map(|_| live.iter().map(|&x| AtomicU32::new(x)).collect()));
        // One round ≈ one expected update per vertex, so a cross-domain
        // read is at most one sweep stale (the fidelity contract) while
        // the O(n) end-of-round extreme scans stay O(1) per step.
        let round_len = n as u64;
        Ok(ShardedProcess {
            graph,
            kind: scheduler,
            base,
            bounds,
            live,
            snapshot,
            shards,
            weights,
            total_weight,
            round_len,
            rounds: 0,
            target: 0,
            last_round: 0,
        })
    }

    /// The graph the process runs on.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// The compiled interaction law.
    pub fn scheduler(&self) -> FastScheduler {
        self.kind
    }

    /// The number of shard domains (`P`).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The domain boundaries: shard `p` owns vertices
    /// `[bounds[p], bounds[p+1])`.
    pub fn shard_bounds(&self) -> &[u32] {
        &self.bounds
    }

    /// Steps executed so far (summed over all shards) — `O(P)`.
    pub fn steps(&self) -> u64 {
        executed(&self.weights, self.total_weight, self.target)
    }

    /// `S(t) = Σ_v X_v` — an `O(P)` register combine.
    pub fn sum(&self) -> i64 {
        let off: i64 = self.shards.iter().map(|s| s.regs.sum_off).sum();
        self.base * self.live.len() as i64 + off
    }

    /// `Σ_v d(v)·X_v` in exact integer arithmetic — an `O(P)` combine of
    /// the per-shard `Z(t)` registers.
    pub fn degree_weighted_sum(&self) -> i64 {
        let off: i64 = self.shards.iter().map(|s| s.regs.dw_off).sum();
        self.base * self.graph.total_degree() as i64 + off
    }

    /// `Z(t) = n·Σ_v π_v X_v` (the vertex-process martingale).
    pub fn z_weight(&self) -> f64 {
        self.live.len() as f64 * self.degree_weighted_sum() as f64
            / self.graph.total_degree() as f64
    }

    /// The smallest opinion currently held (`O(P)`).
    pub fn min_opinion(&self) -> i64 {
        self.base + self.lo() as i64
    }

    /// The largest opinion currently held (`O(P)`).
    pub fn max_opinion(&self) -> i64 {
        self.base + self.hi() as i64
    }

    /// `N_i(t)` for `opinion` (0 outside the initial span) — `O(P)`, or
    /// an `O(len)` scan of each domain whose span is wider than it.
    pub fn count(&self, opinion: i64) -> usize {
        let Ok(off) = u32::try_from(opinion - self.base) else {
            return 0;
        };
        (self.shards.iter())
            .map(|s| match s.regs.counts.is_empty() {
                true => (self.live[s.start as usize..s.end as usize].iter())
                    .filter(|&&x| x == off)
                    .count(),
                false => s.regs.counts.get(off as usize).map_or(0, |&c| c as usize),
            })
            .sum()
    }

    /// Whether all vertices agree.
    pub fn is_consensus(&self) -> bool {
        self.width() == 0
    }

    /// Whether at most two adjacent opinions remain (the paper's `τ`).
    pub fn is_two_adjacent(&self) -> bool {
        self.width() <= 1
    }

    /// The current opinion vector, indexed by vertex (`O(n)`).
    pub fn opinions(&self) -> Vec<i64> {
        self.live
            .iter()
            .map(|&off| self.base + off as i64)
            .collect()
    }

    /// The combined trajectory sample at the current (round-boundary)
    /// state — an `O(P·width)` or `O(n log n)` combine of the per-domain
    /// registers.  A pure function of the trajectory, so it is identical
    /// for every thread count.
    pub fn telemetry_sample(&self) -> TelemetrySample {
        let regs: Vec<&ShardRegs> = self.shards.iter().map(|s| &s.regs).collect();
        combine(self.steps(), self.base, self.graph, &regs)
    }

    /// Per-domain balance gauges at the current round boundary: step
    /// weight, boundary edge cut, realised step count and the most
    /// recent round's allocation (the snapshot-refresh age bound).
    pub fn shard_gauges(&self) -> Vec<ShardGauge> {
        let before = self.target - self.last_round;
        (self.shards.iter().zip(&self.weights))
            .enumerate()
            .map(|(p, (s, &w))| {
                let steps = share(self.target, w, self.total_weight);
                ShardGauge {
                    shard: p,
                    weight: w,
                    edge_cut: s.edge_cut,
                    steps,
                    round_lag: steps - share(before, w, self.total_weight),
                }
            })
            .collect()
    }

    fn lo(&self) -> u32 {
        self.shards.iter().map(|s| s.regs.lo).min().expect("P >= 1")
    }

    fn hi(&self) -> u32 {
        self.shards.iter().map(|s| s.regs.hi).max().expect("P >= 1")
    }

    fn width(&self) -> u32 {
        self.hi() - self.lo()
    }

    /// Runs until consensus or (approximately) `max_steps` additional
    /// steps, on `threads` worker threads (`0` = available parallelism;
    /// the count never changes the trajectory, only the wall-clock).
    ///
    /// Stop conditions are evaluated at reconciliation-round boundaries,
    /// so the reported step count is the first **round boundary** at or
    /// after the hit, not the exact hitting step; consensus is absorbing,
    /// so the terminal state is unaffected.  The budget is respected as a
    /// target: the executed count never exceeds `max_steps` and falls
    /// short by fewer than `P` steps.
    pub fn run_to_consensus(&mut self, max_steps: u64, threads: usize) -> RunStatus {
        self.run_rounds(max_steps, threads, 0, None, |_, _, _, _| {})
    }

    /// Runs until at most two adjacent opinions remain (the paper's `τ`)
    /// or the budget target is spent — round-boundary semantics as in
    /// [`ShardedProcess::run_to_consensus`].
    pub fn run_to_two_adjacent(&mut self, max_steps: u64, threads: usize) -> RunStatus {
        self.run_rounds(max_steps, threads, 1, None, |_, _, _, _| {})
    }

    /// Runs to consensus with an [`Observer`] attached, emitting the
    /// combined sample at reconciliation-round boundaries.
    ///
    /// `sample_every` asks for at most one sample per that many steps
    /// (rounded up to whole rounds; `0` = every round boundary).  On a
    /// sample round every worker rescans its domains' registers before
    /// the round's barrier and the calling thread combines them after it.
    /// Phase transitions are reported at round-boundary granularity — the
    /// first boundary at or after the hit, matching the engine's own
    /// step-reporting contract ([`ShardedProcess::run_to_consensus`]) —
    /// and the sampled content is a pure function of `(shard_seeds, P)`,
    /// so it is bit-identical across thread counts.
    ///
    /// With a disabled observer ([`Observer::ENABLED`] = `false`) this
    /// is exactly [`ShardedProcess::run_to_consensus`]: no register is
    /// rescanned and no sampling machinery is touched.
    pub fn run_observed<O: Observer>(
        &mut self,
        max_steps: u64,
        threads: usize,
        sample_every: u64,
        obs: &mut O,
    ) -> RunStatus {
        if !O::ENABLED {
            return self.run_to_consensus(max_steps, threads);
        }
        let started = Instant::now();
        obs.on_start(&self.telemetry_sample());
        let rounds_per_sample = sample_every.div_ceil(self.round_len).max(1);
        let (base, graph) = (self.base, self.graph);
        let mut seen_two_adjacent = self.width() <= 1;
        let status = self.run_rounds(
            max_steps,
            threads,
            0,
            Some(rounds_per_sample),
            |board, plan, parity, sampled| {
                let step = executed(board.weights, board.total_weight, plan.target);
                if !seen_two_adjacent && plan.width <= 1 {
                    seen_two_adjacent = true;
                    obs.on_phase(&PhaseEvent {
                        phase: Phase::TwoAdjacent,
                        step,
                    });
                }
                if plan.width == 0 {
                    obs.on_phase(&PhaseEvent {
                        phase: Phase::Consensus,
                        step,
                    });
                } else if sampled {
                    let regs: Vec<_> = board.regs[parity]
                        .iter()
                        .map(|r| r.lock().expect("workers hold no register slot now"))
                        .collect();
                    let sample = combine(step, base, graph, &regs);
                    drop(regs);
                    obs.on_sample(&sample);
                }
            },
        );
        obs.on_finish(&self.telemetry_sample(), started.elapsed());
        status
    }

    /// Resolves a requested thread count to the worker count actually
    /// used (`0` = available parallelism, clamped to `[1, P]`).
    fn worker_count(&self, threads: usize) -> usize {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, |t| t.get())
        } else {
            threads
        };
        threads.min(self.shards.len()).max(1)
    }

    /// The one round loop behind every run.  Spawns `threads − 1` workers
    /// once (the calling thread is worker 0, the coordinator), deals
    /// shard `p` to worker `p mod threads`, and runs [`work`] on every
    /// worker until the range width is at most `stop_width` or the budget
    /// is spent; `after` is the coordinator's per-round hook.  The deal
    /// is pure bookkeeping — each shard's work is self-contained — so the
    /// trajectory is thread-count-invariant.
    fn run_rounds(
        &mut self,
        max_steps: u64,
        threads: usize,
        stop_width: u32,
        sample_rounds: Option<u64>,
        after: impl FnMut(&Board<'_>, &Plan, usize, bool),
    ) -> RunStatus {
        let threads = self.worker_count(threads);
        let start = Plan {
            round: self.rounds,
            rounds_run: 0,
            target: self.target,
            budget: max_steps,
            last_round: self.last_round,
            width: self.width(),
        };
        let p = self.shards.len();
        let board = Board {
            weights: &self.weights,
            total_weight: self.total_weight,
            round_len: self.round_len,
            stop_width,
            sample_rounds,
            tier: KernelTier::active(),
            snapshot: &self.snapshot,
            extremes: [0, 1].map(|_| (0..p).map(|_| AtomicU64::new(0)).collect()),
            regs: [0, 1].map(|_| (0..p).map(|_| Mutex::default()).collect()),
            barrier: Barrier::new(threads),
            failed: AtomicU64::new(u64::MAX),
        };
        let mut crews: Vec<Vec<Task<'_>>> = (0..threads).map(|_| Vec::new()).collect();
        let mut rest: &mut [u32] = &mut self.live;
        for (k, shard) in self.shards.iter_mut().enumerate() {
            let len = (shard.end - shard.start) as usize;
            let (local, tail) = std::mem::take(&mut rest).split_at_mut(len);
            rest = tail;
            crews[k % threads].push(Task { p: k, shard, local });
        }
        let graph = self.graph;
        let end = std::thread::scope(|scope| {
            let mut crews = crews.into_iter();
            let mut own = crews.next().expect("threads >= 1");
            for mut crew in crews {
                let board = &board;
                scope.spawn(move || work(graph, board, start, &mut crew, |_, _, _, _| {}));
            }
            work(graph, &board, start, &mut own, after)
        });
        self.rounds = end.round;
        self.target = end.target;
        self.last_round = end.last_round;
        self.status_snapshot()
    }

    fn status_snapshot(&self) -> RunStatus {
        if self.is_consensus() {
            RunStatus::Consensus {
                opinion: self.min_opinion(),
                steps: self.steps(),
            }
        } else if self.is_two_adjacent() {
            RunStatus::TwoAdjacent {
                low: self.min_opinion(),
                high: self.max_opinion(),
                steps: self.steps(),
            }
        } else {
            RunStatus::StepLimit {
                steps: self.steps(),
            }
        }
    }
}

/// The step weight of domain `[start, end)` under the compiled law.
fn domain_weight(graph: &Graph, kind: FastScheduler, start: u32, end: u32) -> u64 {
    match kind {
        FastScheduler::Vertex => (end - start) as u64,
        FastScheduler::Edge | FastScheduler::EdgeAlias => {
            (start..end).map(|v| graph.degree(v as usize) as u64).sum()
        }
    }
}

/// Partitions `[0, n)` into `p` contiguous domains: weight-balanced
/// boundaries (prefix bisection on the step-weight distribution) nudged
/// by a greedy cut-minimising pass — each boundary slides inside a
/// `±n/(8p)` window to the position crossed by the fewest edges, so
/// cross-domain (snapshot-read) traffic shrinks where the graph allows
/// it.  Every domain keeps at least one vertex: boundary `k` stays in
/// `[bounds[k−1] + 1, n − (p − k)]`, even when the step weight piles up
/// at either end of the vertex order.
fn partition(graph: &Graph, kind: FastScheduler, p: usize) -> Vec<u32> {
    let n = graph.num_vertices();
    let mut prefix = vec![0u64; n + 1];
    for v in 0..n {
        prefix[v + 1] = prefix[v] + domain_weight(graph, kind, v as u32, v as u32 + 1);
    }
    let total = prefix[n];
    // cross[b] = #edges (u, v) with u < b ≤ v, via a difference array.
    let mut diff = vec![0i64; n + 1];
    for e in 0..graph.num_edges() {
        let (u, v) = graph.edge(e);
        let (lo, hi) = if u < v { (u, v) } else { (v, u) };
        diff[lo + 1] += 1;
        diff[hi + 1] -= 1;
    }
    let mut cross = vec![0i64; n + 1];
    for b in 1..=n {
        cross[b] = cross[b - 1] + diff[b];
    }
    let window = (n / (8 * p)).max(1);
    let mut bounds = vec![0u32; p + 1];
    bounds[p] = n as u32;
    for k in 1..p {
        let target = (total as u128 * k as u128 / p as u128) as u64;
        let naive = prefix.partition_point(|&x| x < target).min(n);
        // The last position that leaves a vertex for each later domain.
        let last = n - (p - k);
        let lo = (bounds[k - 1] as usize + 1)
            .max(naive.saturating_sub(window))
            .min(last);
        let hi = (naive + window).min(last).max(lo);
        let mut best = lo;
        for b in lo..=hi {
            let closer = b.abs_diff(naive) < best.abs_diff(naive);
            if cross[b] < cross[best] || (cross[b] == cross[best] && closer) {
                best = b;
            }
        }
        bounds[k] = best as u32;
    }
    bounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;
    use div_graph::generators;
    use rand::rngs::StdRng;

    fn seeds(p: usize, base: u64) -> Vec<u64> {
        (0..p as u64).map(|i| base ^ (i << 32) ^ i).collect()
    }

    #[test]
    fn partition_covers_and_is_strictly_increasing() {
        let mut rng = StdRng::seed_from_u64(3);
        let regular = generators::random_regular(200, 6, &mut rng).unwrap();
        let check = |g: &Graph, p: usize| {
            let n = g.num_vertices() as u32;
            for kind in [FastScheduler::Vertex, FastScheduler::Edge] {
                let b = partition(g, kind, p);
                assert_eq!(b.len(), p + 1);
                assert_eq!(b[0], 0);
                assert_eq!(b[p], n);
                assert!(b.windows(2).all(|w| w[0] < w[1]), "P={p} {kind:?}: {b:?}");
            }
        };
        for p in [1usize, 2, 3, 7, 16] {
            check(&regular, p);
        }
        // Edge-process weight piled up at the end of the vertex order
        // (the hub of `multipartite:20,1` is vertex 20), at the start
        // (the star's hub is vertex 0) and at both hubs of a double star:
        // every P up to one vertex per domain must stay admissible.
        let hubs = [
            generators::complete_multipartite(&[20, 1]).unwrap(),
            generators::star(21).unwrap(),
            generators::double_star(6, 9).unwrap(),
        ];
        for g in &hubs {
            for p in 1..=g.num_vertices() {
                check(g, p);
            }
        }
    }

    #[test]
    fn histogram_counts_every_layout_and_span() {
        for (span, len) in [(9, 1_003), (3, 2)] {
            let cyclic: Vec<u32> = (0..len).map(|v| (v * 7 % span) as u32).collect();
            let runs: Vec<u32> = (0..len).map(|v| (v * span / len) as u32).collect();
            for local in [cyclic, runs] {
                let mut counts = vec![1u32; span];
                histogram(&local, &mut counts);
                let mut naive = vec![0u32; span];
                for &x in &local {
                    naive[x as usize] += 1;
                }
                assert_eq!(counts, naive, "span {span}, {len} vertices");
            }
        }
    }

    #[test]
    fn hub_last_graphs_shard_without_panicking() {
        let g = generators::complete_multipartite(&[20, 1]).unwrap();
        let opinions = init::spread(21, 5).unwrap();
        for p in [7, 8, 11, 19, 21] {
            let mut proc =
                ShardedProcess::new(&g, opinions.clone(), FastScheduler::Edge, &seeds(p, 8))
                    .unwrap();
            let status = proc.run_to_consensus(10_000_000, 2);
            assert!(status.consensus_opinion().is_some(), "P={p}: {status:?}");
        }
    }

    #[test]
    fn partition_exploits_small_cuts() {
        // Two K_20 blobs joined by one bridge edge: the single cheap cut
        // sits at vertex 20, and the greedy pass must find it.
        let mut blob = div_graph::GraphBuilder::new(40).unwrap();
        for u in 0..20u32 {
            for v in (u + 1)..20 {
                blob.add_edge(u as usize, v as usize).unwrap();
                blob.add_edge(u as usize + 20, v as usize + 20).unwrap();
            }
        }
        blob.add_edge(19, 20).unwrap();
        let g = blob.build().unwrap();
        let b = partition(&g, FastScheduler::Vertex, 2);
        assert_eq!(b, vec![0, 20, 40]);
    }

    #[test]
    fn single_shard_matches_scalar_semantics() {
        // P = 1: every read is live, so the engine is the exact
        // asynchronous process (its own RNG stream, but the same
        // dynamics) and must reach the same kind of verdict.
        let g = generators::complete(60).unwrap();
        let opinions = init::blocks(&[(1, 30), (5, 30)]).unwrap();
        let mut p = ShardedProcess::new(&g, opinions, FastScheduler::Edge, &[7]).unwrap();
        let status = p.run_to_consensus(10_000_000, 1);
        assert_eq!(status.consensus_opinion(), Some(3));
        assert!(p.is_consensus());
        assert_eq!(p.sum(), 3 * 60);
    }

    #[test]
    fn same_seeds_same_shards_replay_bit_identically() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = generators::random_regular(120, 6, &mut rng).unwrap();
        let opinions = init::spread(120, 7).unwrap();
        let s = seeds(4, 0xD0);
        let mut a = ShardedProcess::new(&g, opinions.clone(), FastScheduler::Edge, &s).unwrap();
        let mut b = ShardedProcess::new(&g, opinions, FastScheduler::Edge, &s).unwrap();
        let sa = a.run_to_consensus(2_000_000, 1);
        let sb = b.run_to_consensus(2_000_000, 1);
        assert_eq!(sa, sb);
        assert_eq!(a.opinions(), b.opinions());
        assert_eq!(a.steps(), b.steps());
    }

    #[test]
    fn thread_count_does_not_change_the_trajectory() {
        let mut rng = StdRng::seed_from_u64(12);
        let g = generators::random_regular(150, 4, &mut rng).unwrap();
        let opinions = init::spread(150, 9).unwrap();
        let s = seeds(5, 0xBEE);
        let mut one = ShardedProcess::new(&g, opinions.clone(), FastScheduler::Vertex, &s).unwrap();
        let mut four = ShardedProcess::new(&g, opinions, FastScheduler::Vertex, &s).unwrap();
        let s1 = one.run_to_consensus(3_000_000, 1);
        let s4 = four.run_to_consensus(3_000_000, 4);
        assert_eq!(s1, s4);
        assert_eq!(one.opinions(), four.opinions());
        assert_eq!(one.steps(), four.steps());
    }

    #[test]
    fn registers_agree_with_rescan() {
        let g = generators::wheel(30).unwrap();
        let opinions = init::spread(30, 6).unwrap();
        let s = seeds(3, 5);
        let mut p = ShardedProcess::new(&g, opinions, FastScheduler::Edge, &s).unwrap();
        for _ in 0..40 {
            p.run_to_consensus(2_000, 1);
            let ops = p.opinions();
            assert_eq!(p.sum(), ops.iter().sum::<i64>());
            assert_eq!(p.min_opinion(), *ops.iter().min().unwrap());
            assert_eq!(p.max_opinion(), *ops.iter().max().unwrap());
            let dws: i64 = ops
                .iter()
                .enumerate()
                .map(|(v, &x)| p.graph().degree(v) as i64 * x)
                .sum();
            assert_eq!(p.degree_weighted_sum(), dws);
            for x in 1..=6 {
                assert_eq!(p.count(x), ops.iter().filter(|&&o| o == x).count());
            }
            if p.is_consensus() {
                break;
            }
        }
        assert!(p.is_consensus(), "complete-ish graph converges quickly");
    }

    #[test]
    fn wide_span_registers_and_samples_agree_with_a_rescan() {
        // Domains narrower than the span take their registers from their
        // opinions instead of a count table; samples, counts and extremes
        // must not notice.  Span 21 over 4 domains of 10 vertices and a
        // span of 5·10⁶ over 2 domains are wide everywhere; span 4 over 11
        // domains of 3 or 4 vertices mixes both kinds.
        let g = generators::wheel(40).unwrap();
        for (opinions, shards) in [
            (init::spread(40, 21).unwrap(), 4),
            (init::blocks(&[(0, 20), (5_000_000, 20)]).unwrap(), 2),
            (init::spread(40, 4).unwrap(), 11),
        ] {
            let mut p =
                ShardedProcess::new(&g, opinions, FastScheduler::Edge, &seeds(shards, 8)).unwrap();
            let mut rec = crate::telemetry::RingRecorder::new(1 << 12);
            p.run_observed(30_000, 1, 1, &mut rec);
            assert!(!rec.samples().is_empty());
            let ops = p.opinions();
            let sample = p.telemetry_sample();
            let mut distinct = ops.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(sample.distinct, distinct.len());
            assert_eq!(sample.sum, ops.iter().sum::<i64>());
            assert_eq!(sample.min, distinct[0]);
            assert_eq!(sample.max, *distinct.last().unwrap());
            for &x in &distinct {
                assert_eq!(p.count(x), ops.iter().filter(|&&o| o == x).count());
            }
            for s in rec.samples() {
                assert!(s.distinct >= 1 && s.min <= s.max, "{s:?}");
            }
        }
    }

    #[test]
    fn budget_is_a_hard_ceiling_and_near_target() {
        let g = generators::cycle(64).unwrap();
        let opinions = init::spread(64, 8).unwrap();
        let s = seeds(4, 99);
        let mut p = ShardedProcess::new(&g, opinions, FastScheduler::Vertex, &s).unwrap();
        let status = p.run_to_consensus(10_000, 1);
        let steps = status.steps();
        assert!(steps <= 10_000, "executed {steps} > budget");
        assert!(steps > 10_000 - s.len() as u64, "executed only {steps}");
    }

    #[test]
    fn zero_step_stop_semantics_match_the_scalar_engine() {
        let g = generators::complete(10).unwrap();
        let mut p = ShardedProcess::new(&g, vec![4; 10], FastScheduler::Vertex, &[1, 2]).unwrap();
        assert_eq!(
            p.run_to_consensus(1000, 2),
            RunStatus::Consensus {
                opinion: 4,
                steps: 0
            }
        );
    }

    #[test]
    fn more_shards_than_vertices_is_rejected() {
        let g = generators::complete(3).unwrap();
        let err =
            ShardedProcess::new(&g, vec![1, 2, 3], FastScheduler::Edge, &[1, 2, 3, 4]).unwrap_err();
        assert!(matches!(err, DivError::InvalidInit { .. }), "{err:?}");
    }

    #[test]
    fn construction_propagates_state_errors() {
        let g = generators::complete(3).unwrap();
        assert!(ShardedProcess::new(&g, vec![], FastScheduler::Edge, &[1]).is_err());
        assert!(ShardedProcess::new(&g, vec![1], FastScheduler::Edge, &[1]).is_err());
    }

    #[test]
    fn observed_run_matches_plain_run_and_is_thread_invariant() {
        use crate::telemetry::RingRecorder;
        let mut rng = StdRng::seed_from_u64(21);
        let g = generators::random_regular(150, 6, &mut rng).unwrap();
        let opinions = init::spread(150, 9).unwrap();
        let s = seeds(5, 0x0B5);
        let mut plain = ShardedProcess::new(&g, opinions.clone(), FastScheduler::Edge, &s).unwrap();
        let mut one = ShardedProcess::new(&g, opinions.clone(), FastScheduler::Edge, &s).unwrap();
        let mut four = ShardedProcess::new(&g, opinions, FastScheduler::Edge, &s).unwrap();
        let sp = plain.run_to_consensus(5_000_000, 1);
        let mut rec1 = RingRecorder::new(4096);
        let mut rec4 = RingRecorder::new(4096);
        let s1 = one.run_observed(5_000_000, 1, 0, &mut rec1);
        let s4 = four.run_observed(5_000_000, 4, 0, &mut rec4);
        assert_eq!(s1, sp, "the observer must not perturb the trajectory");
        assert_eq!(s1, s4, "thread count must not change the observed run");
        // The sampled content (not just the verdict) is thread-invariant.
        assert_eq!(rec1.samples(), rec4.samples());
        assert_eq!(rec1.phases(), rec4.phases());
        assert_eq!(rec1.final_sample(), rec4.final_sample());
        assert_eq!(rec1.consensus_step(), Some(s1.steps()));
        assert!(rec1.two_adjacent_step().is_some());
        assert_eq!(rec1.samples()[0].step, 0);
        // Samples agree with the register combine discipline.
        let fin = rec1.final_sample().unwrap();
        assert_eq!(fin.distinct, 1);
        assert_eq!(fin.min, fin.max);
    }

    #[test]
    fn a_panicking_observer_reaches_the_caller_instead_of_stranding_workers() {
        // Panics mid-run (the first sample, with rounds still to come)
        // and on the last round (consensus, when the other workers have
        // already left their loop).
        struct Boom(Option<Phase>);
        impl Observer for Boom {
            fn on_sample(&mut self, _: &TelemetrySample) {
                assert!(self.0.is_some(), "observer failed on a sample");
            }
            fn on_phase(&mut self, event: &PhaseEvent) {
                assert_ne!(Some(event.phase), self.0, "observer failed on a phase");
            }
        }
        let g = generators::complete(40).unwrap();
        let opinions = init::spread(40, 3).unwrap();
        for boom in [None, Some(Phase::Consensus)] {
            let mut p =
                ShardedProcess::new(&g, opinions.clone(), FastScheduler::Vertex, &seeds(4, 1))
                    .unwrap();
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                p.run_observed(50_000_000, 2, 0, &mut Boom(boom))
            }));
            assert!(
                run.is_err(),
                "{boom:?}: the observer's panic must propagate"
            );
        }
    }

    #[test]
    fn observed_sampling_decimates_to_whole_rounds() {
        use crate::telemetry::RingRecorder;
        let g = generators::cycle(64).unwrap();
        let opinions = init::spread(64, 8).unwrap();
        let s = seeds(4, 3);
        let mut dense =
            ShardedProcess::new(&g, opinions.clone(), FastScheduler::Vertex, &s).unwrap();
        let mut sparse = ShardedProcess::new(&g, opinions, FastScheduler::Vertex, &s).unwrap();
        let mut rec_dense = RingRecorder::new(1 << 16);
        let mut rec_sparse = RingRecorder::new(1 << 16);
        dense.run_observed(50_000, 1, 0, &mut rec_dense);
        // 4 rounds' worth of steps per sample → roughly a quarter of the
        // interior samples, on the same trajectory.
        sparse.run_observed(50_000, 1, 4 * 64, &mut rec_sparse);
        assert_eq!(dense.opinions(), sparse.opinions());
        let interior_dense = rec_dense.samples().len();
        let interior_sparse = rec_sparse.samples().len();
        assert!(
            interior_sparse < interior_dense,
            "{interior_sparse} vs {interior_dense}"
        );
        // Every sparse sample appears in the dense record (same lattice).
        for s in rec_sparse.samples() {
            assert!(rec_dense.samples().contains(s), "missing {s:?}");
        }
    }

    #[test]
    fn shard_gauges_account_for_every_step_and_cut_edge() {
        let mut rng = StdRng::seed_from_u64(33);
        let g = generators::random_regular(200, 6, &mut rng).unwrap();
        let opinions = init::spread(200, 7).unwrap();
        let s = seeds(4, 0xCAFE);
        let mut p = ShardedProcess::new(&g, opinions, FastScheduler::Edge, &s).unwrap();
        p.run_to_consensus(10_000, 2);
        let gauges = p.shard_gauges();
        assert_eq!(gauges.len(), 4);
        assert_eq!(gauges.iter().map(|g| g.steps).sum::<u64>(), p.steps());
        let total_weight: u64 = gauges.iter().map(|g| g.weight).sum();
        assert_eq!(total_weight, g.total_degree() as u64);
        // Each cut edge is counted once by each of its two domains.
        let cut_sum: u64 = gauges.iter().map(|g| g.edge_cut).sum();
        assert_eq!(cut_sum % 2, 0);
        assert!(cut_sum / 2 <= g.num_edges() as u64);
        for gauge in &gauges {
            assert!(gauge.round_lag <= 200, "lag {} > round", gauge.round_lag);
        }
        // The sample combine agrees with a rescan.
        let sample = p.telemetry_sample();
        let ops = p.opinions();
        assert_eq!(sample.sum, ops.iter().sum::<i64>());
        assert_eq!(sample.min, *ops.iter().min().unwrap());
        assert_eq!(sample.max, *ops.iter().max().unwrap());
        let mut distinct = ops.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(sample.distinct, distinct.len());
        assert_eq!(sample.step, p.steps());
    }

    #[test]
    fn alias_domains_cover_irregular_graphs() {
        // A double star is sharply irregular, forcing the per-shard alias
        // sampler; the process must still reach a consensus in range.
        let g = generators::double_star(6, 8).unwrap();
        let n = g.num_vertices();
        let opinions = init::spread(n, 5).unwrap();
        let mut p = ShardedProcess::new(&g, opinions, FastScheduler::Edge, &seeds(2, 17)).unwrap();
        let status = p.run_to_consensus(20_000_000, 2);
        let w = status.consensus_opinion().expect("double star converges");
        assert!((1..=5).contains(&w), "winner {w}");
    }
}
