//! Lockstep multi-trial batch stepping engine.
//!
//! A Monte-Carlo campaign runs many independent trials of the same
//! instance (one graph, one initial opinion vector, per-trial seeds).
//! [`FastProcess`] executes those trials one at a time at ~5 ns/step,
//! and every one of those steps pays for more than the step itself: the
//! per-opinion count table, the live-range walk and the convergence
//! check that exact stopping needs are all maintained *incrementally*,
//! on the hot path.
//!
//! [`BatchProcess`] runs `K` trials ("lanes") of one compiled instance
//! and splits that per-step work into three rates:
//!
//! * **per lane-step** (the hot loop): one sampler draw from the lane's
//!   own stream and one bare branchless toward-step — a `u32` load /
//!   compare / store against the lane's opinion column.  No counts, no
//!   range bookkeeping, no stopping check.  The lane's RNG lives in
//!   registers for the whole block instead of being re-loaded from the
//!   lane array every step.
//! * **per block** (every `B = max(4n, 8192)` lane-steps, the block
//!   rule of the fast engine's lane loop): a contiguous min/max scan of
//!   the lane's column.  Fault-free DIV never widens the live opinion range (a
//!   vertex moves *toward* a held opinion, so it can never pass the
//!   current extremes), so a lane whose width is above the stop target
//!   at a block boundary was above it for the whole block — deferred
//!   checking loses nothing.
//! * **once per finishing lane**: a lane that crossed the stop width
//!   inside a block is rewound to the block-start snapshot (its column
//!   and its RNG) and finished step by step with full bookkeeping at its
//!   exact first hit.
//!
//! Opinion state is one contiguous `u32` column of offsets per lane,
//! indexed by vertex: the fast engine's own representation and span
//! limit (2²⁴ values).  So a lane needs no
//! engine of its own: every lane outside an AVX2 lockstep group runs
//! the fast engine's single-lane block loop (`crate::engine::Lane`) on
//! its borrowed column, and the same code finishes every exact first
//! hit.  `K` in-flight trials still fit in cache together, and column
//! scans, snapshots and rewinds are straight-line `memcpy`/scan loops.
//! Cross-lane SIMD on the *opinion words* never aligns (each lane steps
//! an independently drawn vertex), but the *draw* does: on the AVX2
//! [`crate::kernels`] tier the drive phase steps active lanes of the
//! complete-pair and edge families in lockstep groups of four,
//! generating four xoshiro words and four masked Lemire draws per
//! vector operation while the toward-stores stay per-lane — see
//! [`crate::KernelTier`] for the dispatch and the module docs of
//! [`crate::kernels`] for why every tier is bit-exact.  The per-lane stat
//! registers (`S(t)`, `Z(t)`, min/max, distinct, `N_i(t)`) are derived
//! from the columns by contiguous scans when read; they never burden
//! the hot loop.
//!
//! # What is shared, what is per-lane
//!
//! Shared across lanes (compiled/validated **once** per batch):
//! the graph, the [`CompiledSampler`] tables (alias slots, complete-pair
//! ranges, Lemire constants), the base offset and span, the initial
//! opinion vector.
//!
//! Strictly per-lane: the xoshiro256++ stream, the opinion column and
//! the step counter.  **No random draw is ever shared between lanes** —
//! sharing draws would correlate trials and break the bit-exactness
//! contract below.
//!
//! # Scheduling: one block step, any set of lanes
//!
//! [`BatchProcess::step_block`] steps any set of the batch's lanes by
//! one block and reports the lanes that stopped; every run is a loop of
//! it.  [`BatchProcess::run_to_consensus`] steps the lanes still above
//! the stop width until the budget runs out, and
//! [`BatchProcess::run_observed`] cuts the same loop at its sample
//! lattice.  A campaign does not run a batch of `K` trials to completion:
//! a lockstep group of `K` waits on its slowest lane, and consensus
//! times on expanders are heavy-tailed, so most lane slots would idle
//! (one `campaign_batch_expander` job of the benchmark kept ≈ 29% of its
//! group lane-steps busy).  Instead a campaign keeps a pool of
//! [`BatchLane`]s — column, stream and step count, detached from any
//! batch — that its workers share.  A worker moves the lanes it claims
//! into its own small batch with [`BatchProcess::swap_lane`] (no copy),
//! steps them one block, and moves them back; a finished lane's buffers
//! take the next trial, which [`BatchProcess::reload`] starts from the
//! initial opinions at step zero.  So lane slots stay occupied until the
//! campaign runs out of trials, the AVX2 groups stay full, and the
//! campaign's last lanes are split across workers.
//!
//! # The bit-exactness contract
//!
//! Lane `l` seeded with `s` produces *exactly* the trajectory, step
//! count, final status and fault statistics of
//! `FastProcess::new(..)` driven by `FastRng::seed_from_u64(s)`:
//!
//! * per step, one [`CompiledSampler::pick`] from the lane's stream —
//!   the same draw order (including Lemire rejection redraws) as the
//!   scalar engine;
//! * a lane's steps, final state and RNG position freeze at its exact
//!   first hit of the stop width (block overshoot is rewound and
//!   finished by the fast engine's own lane code);
//! * faulty lanes run the fast engine's faulty code itself, one lane
//!   at a time on the lane's column: drop/stubborn plans on its block
//!   engine, every other plan step by step through
//!   [`FaultSession::filter`] (noise and stale reads can widen the range,
//!   so the monotonicity argument above does not apply to them);
//! * the analytic finish ([`FinishPolicy::AnalyticTwoAdjacent`]) makes
//!   the same single bounded draw from the lane's stream at `τ`.
//!
//! The property tests in `crates/core/tests/` assert lane-vs-scalar
//! equality across random graphs, seeds, lane counts and fault plans.
//!
//! # Examples
//!
//! ```
//! use div_core::{init, BatchProcess, FastScheduler, RunStatus};
//! use div_graph::generators;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let g = generators::complete(40)?;
//! let opinions = init::blocks(&[(1, 20), (5, 20)])?;
//! let seeds: Vec<u64> = (0..8).map(|t| 1000 + t).collect();
//! let mut batch = BatchProcess::new(&g, opinions, FastScheduler::Edge, &seeds)?;
//! for status in batch.run_to_consensus(10_000_000) {
//!     match status {
//!         // The winner is random (Theorem 2) but must lie in the
//!         // initial range — width never expands fault-free.
//!         RunStatus::Consensus { opinion, .. } => assert!((1..=5).contains(&opinion)),
//!         other => panic!("lane did not converge: {other:?}"),
//!     }
//! }
//! # Ok(())
//! # }
//! ```

use std::time::Instant;

use div_graph::Graph;
use rand::SeedableRng;

use crate::engine::{block_len, bounded_u64, CompiledSampler, FastState, Lane};
use crate::error::DivError;
use crate::fault::{FaultPlan, FaultStats};
use crate::kernels::{self, KernelTier};
use crate::process::RunStatus;
use crate::rng::FastRng;
use crate::scheduler::SelectionBias;
use crate::state::OpinionState;
use crate::telemetry::{NullObserver, Observer, Phase, PhaseEvent, TelemetrySample};
use crate::{FastScheduler, FinishPolicy};

/// One lane's state: its opinion column, its RNG stream and its step
/// counter.  Lanes live in a [`BatchProcess`];
/// [`BatchProcess::swap_lane`] moves one out and another in without
/// copying, which is how a lane pool shared by several workers hands
/// trials from one worker's batch to another's.  A default lane is empty
/// until [`BatchProcess::reload`] fills it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchLane {
    /// Offsets into the batch's span, indexed by vertex.
    column: Vec<u32>,
    rng: FastRng,
    steps: u64,
    /// Whether this lane's `τ` is behind it (reported, or passed before
    /// observation began): observed blocks locate `τ` only for lanes
    /// still short of it.
    tau_seen: bool,
}

impl Default for BatchLane {
    fn default() -> Self {
        BatchLane {
            column: Vec::new(),
            rng: FastRng::seed_from_u64(0),
            steps: 0,
            tau_seen: false,
        }
    }
}

/// Buffers the block step keeps from one call to the next.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// Block-start columns of a lockstep group: the rewind source.
    group: Vec<u32>,
    /// The single-lane loop's block snapshot.
    single: Vec<u32>,
    /// One cell per span offset: the count table of exact finishes.
    counts: Vec<u32>,
    /// Block-start columns of observed lanes still short of `τ`, in the
    /// order of `tau_starts`.
    tau_cols: Vec<u32>,
    /// `(lane, block-start RNG, block-start steps)` of those lanes.
    tau_starts: Vec<(usize, FastRng, u64)>,
}

/// `K` trials of one DIV instance stepped in lockstep (see the module
/// docs for the layout and the bit-exactness contract).
#[derive(Debug, Clone)]
pub struct BatchProcess<'g> {
    graph: &'g Graph,
    kind: FastScheduler,
    sampler: CompiledSampler,
    span: usize,
    base: i64,
    /// The shared initial opinion vector (fault sessions validate
    /// stubborn/crash sets against it, exactly as the scalar engine does).
    initial: Vec<i64>,
    /// The initial opinions as offsets: every lane's column at load.
    start: Vec<u32>,
    lanes: Vec<BatchLane>,
    /// Which kernel tier drives the hot loop (see [`crate::kernels`]).
    /// Pure performance knob: every tier is bit-exact, so changing it
    /// can never change a result.
    tier: KernelTier,
    scratch: Scratch,
}

impl<'g> BatchProcess<'g> {
    /// Compiles a batch: one lane per seed, all lanes starting from the
    /// same `opinions` vector.  Lane `l` draws from
    /// `FastRng::seed_from_u64(seeds[l])`, so pairing lane `l` with trial
    /// seeds from `div_sim::SeedSequence::seed_for` reproduces the scalar
    /// campaign exactly.
    ///
    /// # Errors
    ///
    /// Exactly the validation errors of [`OpinionState::new`], the same
    /// contract as [`FastProcess::new`](crate::FastProcess::new): lanes
    /// hold every span up to 2²⁴.
    ///
    /// # Panics
    ///
    /// Panics if `seeds` is empty — a batch needs at least one lane.
    pub fn new(
        graph: &'g Graph,
        opinions: Vec<i64>,
        scheduler: FastScheduler,
        seeds: &[u64],
    ) -> Result<Self, DivError> {
        assert!(!seeds.is_empty(), "a batch needs at least one lane");
        let reference = OpinionState::new(graph, opinions)?;
        let base = reference.min_opinion();
        let span = (reference.max_opinion() - base) as usize + 1;
        let initial = reference.opinions().to_vec();
        let start: Vec<u32> = initial.iter().map(|&x| (x - base) as u32).collect();
        let mut batch = BatchProcess {
            graph,
            kind: scheduler,
            sampler: CompiledSampler::compile(graph, scheduler),
            span,
            base,
            initial,
            start,
            lanes: vec![BatchLane::default(); seeds.len()],
            tier: KernelTier::active(),
            scratch: Scratch::default(),
        };
        for (l, &seed) in seeds.iter().enumerate() {
            batch.reload(l, seed);
        }
        Ok(batch)
    }

    /// The kernel tier currently driving this batch.
    pub fn kernel_tier(&self) -> KernelTier {
        self.tier
    }

    /// Pins the kernel tier, overriding both autodetection and the
    /// `DIV_KERNELS` environment override.  Results are identical on
    /// every tier (the bit-exactness contract); this hook exists so
    /// tests and benchmarks can exercise a specific tier without racing
    /// on process-global environment state.
    ///
    /// # Panics
    ///
    /// Panics if the current CPU does not support `tier` — a pinned tier
    /// must never degrade silently.
    pub fn set_kernel_tier(&mut self, tier: KernelTier) {
        assert!(
            tier.is_supported(),
            "kernel tier {} is not supported on this CPU",
            tier.name()
        );
        self.tier = tier;
    }

    /// The number of lanes.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// The number of vertices (shared across lanes).
    pub fn num_vertices(&self) -> usize {
        self.initial.len()
    }

    /// The scheduler the batch was compiled for.
    pub fn scheduler(&self) -> FastScheduler {
        self.kind
    }

    /// Steps per block: the most steps a lane takes between two width
    /// checks of the plain run.
    pub fn block_steps(&self) -> u64 {
        block_len(self.initial.len())
    }

    /// The observed runs' sample lattice for a requested `sample_every`:
    /// that many lane-steps rounded up to whole blocks, or
    /// `BatchProcess::DEFAULT_SAMPLE_BLOCKS` blocks for `0`.  Lane
    /// samples fall on its multiples.
    pub fn sample_lattice(&self, sample_every: u64) -> u64 {
        let block = self.block_steps();
        if sample_every == 0 {
            Self::DEFAULT_SAMPLE_BLOCKS * block
        } else {
            block * sample_every.div_ceil(block).max(1)
        }
    }

    /// Reloads lane `l` with a fresh trial: the initial opinions, the
    /// stream `FastRng::seed_from_u64(seed)` and zero steps — exactly the
    /// lane [`BatchProcess::new`] builds for `seed`.
    pub fn reload(&mut self, l: usize, seed: u64) {
        let (mn, mx) = kernels::min_max_u32(&self.start, self.tier);
        let lane = &mut self.lanes[l];
        lane.column.clear();
        lane.column.extend_from_slice(&self.start);
        lane.rng = FastRng::seed_from_u64(seed);
        lane.steps = 0;
        lane.tau_seen = mx - mn <= 1;
    }

    /// Exchanges lane `l` with `lane`, without copying either.  A lane
    /// moved in must come from a batch of the same instance, or be
    /// [reloaded](BatchProcess::reload) before it steps.
    pub fn swap_lane(&mut self, l: usize, lane: &mut BatchLane) {
        std::mem::swap(&mut self.lanes[l], lane);
    }

    /// Lane `l`'s column of offsets, indexed by vertex.
    fn column(&self, l: usize) -> &[u32] {
        &self.lanes[l].column
    }

    /// Smallest and largest offset currently held in lane `l` (one
    /// contiguous `O(n)` scan, vectorised per the active kernel tier).
    fn column_min_max(&self, l: usize) -> (u32, u32) {
        kernels::min_max_u32(self.column(l), self.tier)
    }

    fn width(&self, l: usize) -> u32 {
        let (mn, mx) = self.column_min_max(l);
        mx - mn
    }

    /// Steps taken by lane `l` so far.
    pub fn steps(&self, l: usize) -> u64 {
        self.lanes[l].steps
    }

    /// `S(t)` for lane `l` (`O(n)` column scan).
    pub fn sum(&self, l: usize) -> i64 {
        let off: i64 = self.column(l).iter().map(|&x| x as i64).sum();
        self.base * self.initial.len() as i64 + off
    }

    /// The smallest opinion currently held in lane `l`.
    pub fn min_opinion(&self, l: usize) -> i64 {
        self.base + self.column_min_max(l).0 as i64
    }

    /// The largest opinion currently held in lane `l`.
    pub fn max_opinion(&self, l: usize) -> i64 {
        self.base + self.column_min_max(l).1 as i64
    }

    /// `N_i(t)` for `opinion` in lane `l` (0 outside the initial span;
    /// `O(n)` column scan).
    pub fn count(&self, l: usize, opinion: i64) -> usize {
        let off = opinion - self.base;
        if !(0..self.span as i64).contains(&off) {
            return 0;
        }
        let off = off as u32;
        self.column(l).iter().filter(|&&x| x == off).count()
    }

    /// Whether lane `l` has reached consensus.
    pub fn is_consensus(&self, l: usize) -> bool {
        self.width(l) == 0
    }

    /// Whether lane `l` holds at most two adjacent opinions (the paper's
    /// `τ`).
    pub fn is_two_adjacent(&self, l: usize) -> bool {
        self.width(l) <= 1
    }

    /// The number of distinct opinions currently held in lane `l` —
    /// `O(n + width)` via a dense presence table over the live range
    /// (cheap enough for per-sample use, unlike a sort).
    pub fn distinct(&self, l: usize) -> usize {
        let (mn, mx) = self.column_min_max(l);
        let mut seen = vec![false; (mx - mn) as usize + 1];
        for &x in self.column(l) {
            seen[(x - mn) as usize] = true;
        }
        seen.iter().filter(|&&s| s).count()
    }

    /// Lane `l`'s current opinion vector, indexed by vertex.
    pub fn opinions_of(&self, l: usize) -> Vec<i64> {
        self.column(l)
            .iter()
            .map(|&x| self.base + x as i64)
            .collect()
    }

    /// The telemetry sample for lane `l`, matching the scalar engine's
    /// [`TelemetrySample`] fields exactly (all registers are `O(n)`
    /// column scans, computed only when sampled).
    pub fn telemetry_sample(&self, l: usize) -> TelemetrySample {
        let n = self.initial.len();
        let two_m = self.graph.total_degree() as i64;
        let dw_off: i64 = self
            .column(l)
            .iter()
            .enumerate()
            .map(|(v, &x)| self.graph.degree(v) as i64 * x as i64)
            .sum();
        let dws = self.base * two_m + dw_off;
        let (mn, mx) = self.column_min_max(l);
        TelemetrySample {
            step: self.lanes[l].steps,
            sum: self.sum(l),
            z_weight: n as f64 * (dws as f64 / two_m as f64),
            min: self.base + mn as i64,
            max: self.base + mx as i64,
            distinct: self.distinct(l),
        }
    }

    /// Lane `l`'s status against consensus: `Consensus` once it holds one
    /// opinion, else `StepLimit` at its current step count — what a run
    /// to consensus reports for the lane when it stops.
    pub fn status(&self, l: usize) -> RunStatus {
        self.result_for(l, 0)
    }

    /// Lane `l`'s result after a run to `stop_width`: classified like the
    /// scalar `status()` when the lane got there, `StepLimit` when the
    /// budget ran out first (matching `run_blocks`, which only classifies
    /// on a hit).
    fn result_for(&self, l: usize, stop_width: u32) -> RunStatus {
        let (mn, mx) = self.column_min_max(l);
        let w = mx - mn;
        let steps = self.lanes[l].steps;
        if w > stop_width {
            RunStatus::StepLimit { steps }
        } else if w == 0 {
            RunStatus::Consensus {
                opinion: self.base + mn as i64,
                steps,
            }
        } else {
            RunStatus::TwoAdjacent {
                low: self.base + mn as i64,
                high: self.base + mx as i64,
                steps,
            }
        }
    }

    /// One block of the hot loop over any set of lanes: each lane of
    /// `lanes` (distinct, all above `stop_width`) takes `steps` bare
    /// toward-steps, or stops at its exact first hit of `stop_width`
    /// inside them.  Returns the lanes that stopped.
    ///
    /// Where the kernel tier accelerates the sampler family (the AVX2
    /// tier, complete-pair and edge families), the lanes are driven in
    /// lockstep groups of four (breaking the per-lane RNG dependency
    /// chain), and a grouped lane whose block holds its first hit is
    /// rewound and finished by the fast engine's finishing code; leftover
    /// lanes — and every lane of an unaccelerated batch — run the fast
    /// engine's single-lane block loop.  Lanes never
    /// interact, so neither the grouping nor how a run is cut into blocks
    /// changes any lane's trajectory.
    ///
    /// With enabled observers (`observers[l]` watches lane `l`), a lane
    /// whose width reaches 1 for the first time reports `τ` at its exact
    /// step, located by the same finishing code run from a block-start
    /// copy of the lane in scratch buffers, and a lane that stops at
    /// consensus reports it.  Samples are the caller's.  With a disabled
    /// observer type `observers` may be empty.
    ///
    /// This is the one block step of [`BatchProcess::run_to_consensus`],
    /// [`BatchProcess::run_observed`] and of a lane pool that moves lanes
    /// in and out with [`BatchProcess::swap_lane`].
    pub fn step_block<O: Observer>(
        &mut self,
        lanes: &[usize],
        steps: u64,
        stop_width: u32,
        observers: &mut [O],
    ) -> Vec<usize> {
        let n = self.initial.len();
        let grouped = kernels::accelerates(self.tier, &self.sampler);
        let BatchProcess {
            graph,
            sampler,
            base,
            span,
            lanes: states,
            tier,
            scratch,
            ..
        } = self;
        let (graph, base, tier) = (*graph, *base, *tier);
        if scratch.counts.len() != *span {
            scratch.counts = vec![0; *span];
        }
        if O::ENABLED {
            scratch.tau_cols.clear();
            scratch.tau_starts.clear();
            for &l in lanes {
                let lane = &states[l];
                if !lane.tau_seen {
                    scratch.tau_cols.extend_from_slice(&lane.column);
                    scratch.tau_starts.push((l, lane.rng, lane.steps));
                }
            }
        }
        let mut finished = Vec::new();
        let mut chunks = lanes.chunks_exact(kernels::GROUP);
        let rest = if grouped {
            for chunk in chunks.by_ref() {
                let idx: [usize; kernels::GROUP] = core::array::from_fn(|j| chunk[j]);
                let mut group = states.get_disjoint_mut(idx).expect("lanes are distinct");
                scratch.group.clear();
                for lane in &group {
                    scratch.group.extend_from_slice(&lane.column);
                }
                let mut rngs: [FastRng; kernels::GROUP] = core::array::from_fn(|j| group[j].rng);
                let mut cols = group.each_mut().map(|lane| lane.column.as_mut_slice());
                kernels::drive_group(tier, sampler, &mut cols, &mut rngs, steps);
                for (j, lane) in group.into_iter().enumerate() {
                    let (mn, mx) = kernels::min_max_u32(&lane.column, tier);
                    if mx - mn > stop_width {
                        lane.rng = rngs[j];
                        lane.steps += steps;
                        continue;
                    }
                    // Crossed inside the block: rewind the column (the
                    // RNG was left at the snapshot) and finish the lane
                    // at its exact first hit.
                    lane.column
                        .copy_from_slice(&scratch.group[j * n..(j + 1) * n]);
                    Lane {
                        graph,
                        sampler,
                        state: &mut FastState::lane(&mut lane.column, &mut scratch.counts),
                        base,
                        steps: &mut lane.steps,
                        tier,
                    }
                    .finish(None, &mut lane.rng, stop_width, steps);
                    finished.push(chunk[j]);
                }
            }
            chunks.remainder()
        } else {
            lanes
        };
        for &l in rest {
            let lane = &mut states[l];
            let hit = Lane {
                graph,
                sampler,
                state: &mut FastState::lane(&mut lane.column, &mut scratch.counts),
                base,
                steps: &mut lane.steps,
                tier,
            }
            .run_blocks(steps, None, &mut lane.rng, stop_width, &mut scratch.single);
            if hit {
                finished.push(l);
            }
        }
        if O::ENABLED {
            for (k, &(l, mut rng, mut step)) in scratch.tau_starts.iter().enumerate() {
                let lane = &mut states[l];
                let (mn, mx) = kernels::min_max_u32(&lane.column, tier);
                if mx - mn > 1 {
                    continue;
                }
                lane.tau_seen = true;
                Lane {
                    graph,
                    sampler,
                    state: &mut FastState::lane(
                        &mut scratch.tau_cols[k * n..(k + 1) * n],
                        &mut scratch.counts,
                    ),
                    base,
                    steps: &mut step,
                    tier,
                }
                .finish(None, &mut rng, 1, steps);
                observers[l].on_phase(&PhaseEvent {
                    phase: Phase::TwoAdjacent,
                    step,
                });
            }
            for &l in &finished {
                let lane = &states[l];
                let (mn, mx) = kernels::min_max_u32(&lane.column, tier);
                if mn == mx {
                    observers[l].on_phase(&PhaseEvent {
                        phase: Phase::Consensus,
                        step: lane.steps,
                    });
                }
            }
        }
        finished
    }

    /// Every lane above `stop_width` takes at most `max_steps` additional
    /// steps, block by block through [`BatchProcess::step_block`]; a lane
    /// leaves the active set at its exact first hit.
    fn run_width(&mut self, max_steps: u64, stop_width: u32) -> Vec<RunStatus> {
        let k = self.lanes.len();
        let mut active: Vec<usize> = (0..k).filter(|&l| self.width(l) > stop_width).collect();
        let block = self.block_steps();
        let mut remaining = max_steps;
        while remaining > 0 && !active.is_empty() {
            let b = block.min(remaining);
            remaining -= b;
            let finished = self.step_block(&active, b, stop_width, &mut [NullObserver; 0]);
            active.retain(|l| !finished.contains(l));
        }
        (0..k).map(|l| self.result_for(l, stop_width)).collect()
    }

    /// Runs every lane until consensus or until `max_steps` additional
    /// steps per lane.  Equivalent to `FastProcess::run_to_consensus` on
    /// each lane independently.
    pub fn run_to_consensus(&mut self, max_steps: u64) -> Vec<RunStatus> {
        self.run_width(max_steps, 0)
    }

    /// Runs every lane until at most two adjacent opinions remain (the
    /// paper's `τ`) or until `max_steps` additional steps per lane.
    pub fn run_to_two_adjacent(&mut self, max_steps: u64) -> Vec<RunStatus> {
        self.run_width(max_steps, 1)
    }

    /// How many blocks one default sampling chunk spans: per-lane
    /// register snapshots cost a handful of `O(n)` column scans, so
    /// spacing them ~32 blocks (≈ 128·n lane-steps) apart keeps the
    /// sampled engine within the 5% telemetry overhead budget that
    /// `perf_smoke --check-overhead` enforces.
    const DEFAULT_SAMPLE_BLOCKS: u64 = 32;

    /// Runs every lane to consensus with one [`Observer`] per lane
    /// attached, sampling per-lane register snapshots at block-aligned
    /// boundaries.
    ///
    /// The run is the plain run's block loop, [`BatchProcess::step_block`],
    /// cut into chunks of the sample lattice
    /// ([`BatchProcess::sample_lattice`]); blocks are bit-exact however a
    /// run is cut (trajectory, step counts **and** RNG positions), so
    /// attaching observers never changes any lane's outcome.  At each
    /// full chunk's end an active lane contributes one
    /// [`TelemetrySample`] (all registers are `O(n)` column scans, paid
    /// only when sampled); the sampled steps sit on the lattice, which
    /// downstream sinks re-infer by gcd.
    ///
    /// Phase events are **exact**, matching the scalar engine's
    /// contract: consensus steps come from the engine's own
    /// rewind-and-finish bookkeeping, and the `τ` step is located by the
    /// block step's scratch replay — the live lane state is never
    /// touched.  Phases already satisfied at run start emit no event,
    /// exactly like `FastProcess::run_observed`.
    ///
    /// With a disabled observer type this is exactly
    /// [`BatchProcess::run_to_consensus`].
    ///
    /// # Panics
    ///
    /// Panics unless `observers.len()` equals the lane count.
    pub fn run_observed<O: Observer>(
        &mut self,
        max_steps: u64,
        sample_every: u64,
        observers: &mut [O],
    ) -> Vec<RunStatus> {
        let k = self.lanes.len();
        assert_eq!(
            observers.len(),
            k,
            "run_observed needs exactly one observer per lane"
        );
        if !O::ENABLED {
            return self.run_to_consensus(max_steps);
        }
        let block = self.block_steps();
        let chunk = self.sample_lattice(sample_every);
        let started = Instant::now();
        for (l, obs) in observers.iter_mut().enumerate() {
            obs.on_start(&self.telemetry_sample(l));
        }
        for l in 0..k {
            self.lanes[l].tau_seen = self.width(l) <= 1;
        }
        let mut active: Vec<usize> = (0..k).filter(|&l| self.width(l) > 0).collect();
        let mut remaining = max_steps;
        while remaining > 0 && !active.is_empty() {
            let c = chunk.min(remaining);
            remaining -= c;
            let mut left = c;
            while left > 0 && !active.is_empty() {
                let b = block.min(left);
                left -= b;
                let finished = self.step_block(&active, b, 0, observers);
                active.retain(|l| !finished.contains(l));
            }
            // Full chunks end on the sample lattice; a final partial
            // chunk (budget tail) is covered by the finish sample instead,
            // keeping the lattice exact.
            if c == chunk {
                for &l in &active {
                    observers[l].on_sample(&self.telemetry_sample(l));
                }
            }
        }
        let elapsed = started.elapsed();
        for (l, obs) in observers.iter_mut().enumerate() {
            obs.on_finish(&self.telemetry_sample(l), elapsed);
        }
        (0..k).map(|l| self.result_for(l, 0)).collect()
    }

    /// Runs every lane under a finish policy, mirroring
    /// `FastProcess::run_with_policy`: the analytic finish stops each lane
    /// at `τ` and resolves the winner with one bounded draw from that
    /// lane's stream (Lemma 5's stationary weights).
    pub fn run_with_policy(&mut self, max_steps: u64, policy: FinishPolicy) -> Vec<RunStatus> {
        match policy {
            FinishPolicy::Simulate => self.run_to_consensus(max_steps),
            FinishPolicy::AnalyticTwoAdjacent => {
                let statuses = self.run_to_two_adjacent(max_steps);
                statuses
                    .into_iter()
                    .enumerate()
                    .map(|(l, status)| match status {
                        RunStatus::TwoAdjacent { low, high, steps } => {
                            let high_wins = match self.kind.selection_bias() {
                                SelectionBias::Stationary => {
                                    let n = self.initial.len() as u64;
                                    let hits = self.count(l, high) as u64;
                                    bounded_u64(&mut self.lanes[l].rng, n) < hits
                                }
                                SelectionBias::UniformVertex => {
                                    let two_m = self.graph.total_degree() as u64;
                                    let mass = self.degree_mass_of(l, high);
                                    bounded_u64(&mut self.lanes[l].rng, two_m) < mass
                                }
                            };
                            RunStatus::Consensus {
                                opinion: if high_wins { high } else { low },
                                steps,
                            }
                        }
                        done => done,
                    })
                    .collect()
            }
        }
    }

    /// `d(A_i)` for `opinion` in lane `l` (`O(n)` column scan, only
    /// needed once per lane, at `τ`).
    fn degree_mass_of(&self, l: usize, opinion: i64) -> u64 {
        let off = (opinion - self.base) as u32;
        self.column(l)
            .iter()
            .enumerate()
            .filter(|&(_, &x)| x == off)
            .map(|(v, _)| self.graph.degree(v) as u64)
            .sum()
    }

    /// Runs every lane to consensus under a fault plan.
    ///
    /// Each lane gets its own fresh [`FaultSession`](crate::FaultSession)
    /// (validated against the shared initial opinions) and runs, one lane
    /// after another, the very code of
    /// [`FastProcess::run_faulty_to_consensus`](crate::FastProcess::run_faulty_to_consensus)
    /// on its column, from its step count and with its RNG, on the
    /// batch's compiled sampler: drop/stubborn plans on the block engine,
    /// every other plan step by step.
    ///
    /// Like the scalar engine's faulty runners, each call builds fresh
    /// sessions — crash/stale timers restart, so chunking a faulty run is
    /// *not* equivalent to one long call.
    ///
    /// # Errors
    ///
    /// Whatever [`FaultPlan::session`] rejects for this instance.
    pub fn run_faulty_to_consensus(
        &mut self,
        max_steps: u64,
        plan: &FaultPlan,
    ) -> Result<(Vec<RunStatus>, Vec<FaultStats>), DivError> {
        self.run_faulty_width(max_steps, plan, 0)
    }

    /// Runs every lane to the two-adjacent time `τ` under a fault plan.
    /// See [`BatchProcess::run_faulty_to_consensus`] for the session
    /// semantics.
    ///
    /// # Errors
    ///
    /// Whatever [`FaultPlan::session`] rejects for this instance.
    pub fn run_faulty_to_two_adjacent(
        &mut self,
        max_steps: u64,
        plan: &FaultPlan,
    ) -> Result<(Vec<RunStatus>, Vec<FaultStats>), DivError> {
        self.run_faulty_width(max_steps, plan, 1)
    }

    fn run_faulty_width(
        &mut self,
        max_steps: u64,
        plan: &FaultPlan,
        stop_width: u32,
    ) -> Result<(Vec<RunStatus>, Vec<FaultStats>), DivError> {
        (0..self.lanes.len())
            .map(|l| self.run_faulty_lane(l, max_steps, plan, stop_width))
            .collect::<Result<Vec<_>, _>>()
            .map(|runs| runs.into_iter().unzip())
    }

    /// Runs lane `l` alone to consensus under a fault plan, with a fresh
    /// session: one lane's share of
    /// [`BatchProcess::run_faulty_to_consensus`], for a lane pool whose
    /// faulty lanes run one at a time.
    ///
    /// # Errors
    ///
    /// Whatever [`FaultPlan::session`] rejects for this instance.
    pub fn run_faulty_lane_to_consensus(
        &mut self,
        l: usize,
        max_steps: u64,
        plan: &FaultPlan,
    ) -> Result<(RunStatus, FaultStats), DivError> {
        self.run_faulty_lane(l, max_steps, plan, 0)
    }

    fn run_faulty_lane(
        &mut self,
        l: usize,
        max_steps: u64,
        plan: &FaultPlan,
        stop_width: u32,
    ) -> Result<(RunStatus, FaultStats), DivError> {
        let mut session = plan.session(&self.initial)?;
        let counts = &mut self.scratch.counts;
        if counts.len() != self.span {
            *counts = vec![0; self.span];
        }
        let lane = &mut self.lanes[l];
        let mut state = FastState::lane(&mut lane.column, counts);
        state.recount();
        Lane {
            graph: self.graph,
            sampler: &self.sampler,
            state: &mut state,
            base: self.base,
            steps: &mut lane.steps,
            tier: self.tier,
        }
        .run_faulty(max_steps, &mut session, &mut lane.rng, stop_width);
        Ok((self.result_for(l, stop_width), *session.stats()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{init, FastProcess};
    use div_graph::generators;

    fn seeds(k: usize, base: u64) -> Vec<u64> {
        (0..k as u64).map(|t| base ^ (t * 0x9E37)).collect()
    }

    fn uniform(n: usize, k: usize, seed: u64) -> Vec<i64> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        init::uniform_random(n, k, &mut rng).unwrap()
    }

    fn regular(n: usize, d: usize, seed: u64) -> Graph {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        generators::random_regular(n, d, &mut rng).unwrap()
    }

    fn scalar_statuses(
        g: &Graph,
        opinions: &[i64],
        kind: FastScheduler,
        seeds: &[u64],
        budget: u64,
    ) -> Vec<(RunStatus, Vec<i64>, u64)> {
        seeds
            .iter()
            .map(|&s| {
                let mut rng = FastRng::seed_from_u64(s);
                let mut p = FastProcess::new(g, opinions.to_vec(), kind).unwrap();
                let status = p.run_to_consensus(budget, &mut rng);
                (status, p.opinions(), p.steps())
            })
            .collect()
    }

    #[test]
    fn lanes_match_scalar_fast_engine() {
        let g = generators::complete(30).unwrap();
        let opinions = uniform(30, 7, 99);
        for kind in [FastScheduler::Vertex, FastScheduler::Edge] {
            let seeds = seeds(8, 0xBEEF);
            let mut batch = BatchProcess::new(&g, opinions.clone(), kind, &seeds).unwrap();
            let got = batch.run_to_consensus(1_000_000);
            let want = scalar_statuses(&g, &opinions, kind, &seeds, 1_000_000);
            for (l, (status, final_opinions, steps)) in want.into_iter().enumerate() {
                assert_eq!(got[l], status, "lane {l} status ({kind:?})");
                assert_eq!(batch.opinions_of(l), final_opinions, "lane {l} opinions");
                assert_eq!(batch.steps(l), steps, "lane {l} steps");
            }
        }
    }

    #[test]
    fn chunked_runs_match_one_shot() {
        let g = regular(64, 8, 4);
        let opinions = uniform(64, 9, 5);
        let seeds = seeds(4, 77);
        let mut one = BatchProcess::new(&g, opinions.clone(), FastScheduler::Edge, &seeds).unwrap();
        let mut chunked =
            BatchProcess::new(&g, opinions.clone(), FastScheduler::Edge, &seeds).unwrap();
        let final_one = one.run_to_consensus(1_000_000);
        let mut final_chunked = chunked.run_to_consensus(500);
        let mut spent = 500u64;
        while final_chunked
            .iter()
            .any(|s| matches!(s, RunStatus::StepLimit { .. }))
        {
            assert!(spent < 2_000_000, "chunked run did not converge");
            final_chunked = chunked.run_to_consensus(500);
            spent += 500;
        }
        assert_eq!(final_one, final_chunked);
        for l in 0..seeds.len() {
            assert_eq!(one.opinions_of(l), chunked.opinions_of(l), "lane {l}");
            assert_eq!(
                one.lanes[l].rng, chunked.lanes[l].rng,
                "lane {l} rng position"
            );
        }
    }

    #[test]
    fn observed_run_matches_scalar_observed_exactly() {
        use crate::telemetry::RingRecorder;
        let g = regular(48, 6, 9);
        let opinions = uniform(48, 8, 11);
        for kind in [FastScheduler::Vertex, FastScheduler::Edge] {
            let seeds = seeds(6, 0xFACE);
            let mut batch = BatchProcess::new(&g, opinions.clone(), kind, &seeds).unwrap();
            let mut recs: Vec<RingRecorder> = (0..seeds.len())
                .map(|_| RingRecorder::new(1 << 14))
                .collect();
            let got = batch.run_observed(2_000_000, 0, &mut recs);
            for (l, &s) in seeds.iter().enumerate() {
                let mut rng = FastRng::seed_from_u64(s);
                let mut p = FastProcess::new(&g, opinions.clone(), kind).unwrap();
                let mut rec = RingRecorder::new(1 << 14);
                let status = p.run_observed(2_000_000, &mut rng, 64, &mut rec);
                assert_eq!(got[l], status, "lane {l} status ({kind:?})");
                assert_eq!(batch.opinions_of(l), p.opinions(), "lane {l} opinions");
                assert_eq!(batch.lanes[l].rng, rng, "lane {l} rng position");
                // Phase events are exact on both engines, so they agree
                // to the step — including τ, located by the scratch
                // replay on the batch side.
                assert_eq!(recs[l].phases(), rec.phases(), "lane {l} phases");
                assert_eq!(
                    recs[l].final_sample(),
                    rec.final_sample(),
                    "lane {l} final sample"
                );
            }
        }
    }

    #[test]
    fn observed_null_observer_is_the_plain_run() {
        use crate::telemetry::NullObserver;
        let g = generators::complete(30).unwrap();
        let opinions = uniform(30, 7, 3);
        let seeds = seeds(4, 0xAB);
        let mut plain =
            BatchProcess::new(&g, opinions.clone(), FastScheduler::Edge, &seeds).unwrap();
        let mut observed = BatchProcess::new(&g, opinions, FastScheduler::Edge, &seeds).unwrap();
        let a = plain.run_to_consensus(1_000_000);
        let mut null = vec![NullObserver; seeds.len()];
        let b = observed.run_observed(1_000_000, 0, &mut null);
        assert_eq!(a, b);
        for l in 0..seeds.len() {
            assert_eq!(plain.lanes[l].rng, observed.lanes[l].rng, "lane {l} rng");
        }
    }

    #[test]
    fn observed_samples_sit_on_the_chunk_lattice() {
        use crate::telemetry::RingRecorder;
        let g = generators::cycle(256).unwrap();
        let opinions = init::spread(256, 9).unwrap();
        let seeds = seeds(2, 7);
        let mut batch = BatchProcess::new(&g, opinions, FastScheduler::Vertex, &seeds).unwrap();
        let mut recs: Vec<RingRecorder> = (0..seeds.len())
            .map(|_| RingRecorder::new(1 << 14))
            .collect();
        // sample_every = one block (n = 256 → block = 8192): the densest
        // lattice the chunking can offer.  A 256-cycle mixes slowly, so
        // the budget spans many chunks.
        batch.run_observed(300_000, 1, &mut recs);
        for (l, rec) in recs.iter().enumerate() {
            assert!(rec.samples().len() > 1, "lane {l} sampled");
            for s in rec.samples() {
                assert_eq!(s.step % 8192, 0, "lane {l} step {} off lattice", s.step);
            }
            for pair in rec.samples().windows(2) {
                assert!(pair[1].step > pair[0].step, "lane {l} steps increase");
                // Fault-free width never expands (the module invariant
                // the block engine itself relies on).
                assert!(pair[1].width() <= pair[0].width(), "lane {l} width");
            }
        }
    }

    #[test]
    #[should_panic(expected = "one observer per lane")]
    fn observed_rejects_observer_count_mismatch() {
        use crate::telemetry::RingRecorder;
        let g = generators::complete(10).unwrap();
        let mut batch = BatchProcess::new(
            &g,
            init::spread(10, 3).unwrap(),
            FastScheduler::Edge,
            &[1, 2],
        )
        .unwrap();
        let mut recs = vec![RingRecorder::new(16)];
        batch.run_observed(1000, 0, &mut recs);
    }

    #[test]
    fn trivial_fault_plan_matches_fault_free_stream() {
        let g = generators::wheel(41).unwrap();
        let opinions = uniform(41, 6, 11);
        let seeds = seeds(3, 1234);
        let mut plain =
            BatchProcess::new(&g, opinions.clone(), FastScheduler::Vertex, &seeds).unwrap();
        let mut faulty =
            BatchProcess::new(&g, opinions.clone(), FastScheduler::Vertex, &seeds).unwrap();
        let a = plain.run_to_consensus(200_000);
        let (b, stats) = faulty
            .run_faulty_to_consensus(200_000, &FaultPlan::default())
            .unwrap();
        assert_eq!(a, b);
        for (l, s) in stats.iter().enumerate() {
            assert_eq!(s.delivered, faulty.steps(l), "lane {l} delivered");
            assert_eq!(
                (
                    s.dropped,
                    s.suppressed,
                    s.crash_events,
                    s.stale_reads,
                    s.noisy
                ),
                (0, 0, 0, 0, 0),
                "lane {l} fault counters"
            );
            assert_eq!(
                plain.lanes[l].rng, faulty.lanes[l].rng,
                "lane {l} rng position"
            );
        }
    }

    #[test]
    fn faulty_lanes_match_scalar_replay() {
        let g = generators::complete(24).unwrap();
        let opinions = uniform(24, 5, 42);
        let plan = FaultPlan {
            drop: 0.2,
            ..FaultPlan::default()
        };
        let seeds = seeds(6, 9);
        let mut batch =
            BatchProcess::new(&g, opinions.clone(), FastScheduler::Edge, &seeds).unwrap();
        let (statuses, stats) = batch.run_faulty_to_consensus(300_000, &plan).unwrap();
        for (l, &s) in seeds.iter().enumerate() {
            let mut rng = FastRng::seed_from_u64(s);
            let mut p = FastProcess::new(&g, opinions.clone(), FastScheduler::Edge).unwrap();
            let mut session = plan.session(&opinions).unwrap();
            let status = p.run_faulty_to_consensus(300_000, &mut session, &mut rng);
            assert_eq!(statuses[l], status, "lane {l} status");
            assert_eq!(batch.opinions_of(l), p.opinions(), "lane {l} opinions");
            assert_eq!(stats[l], *session.stats(), "lane {l} fault stats");
        }
    }

    #[test]
    fn analytic_policy_matches_scalar() {
        let g = generators::complete(40).unwrap();
        let opinions = init::blocks(&[(1, 13), (2, 27)]).unwrap();
        for kind in [FastScheduler::Vertex, FastScheduler::Edge] {
            let seeds = seeds(8, 0xA11C);
            let mut batch = BatchProcess::new(&g, opinions.clone(), kind, &seeds).unwrap();
            let got = batch.run_with_policy(1_000_000, FinishPolicy::AnalyticTwoAdjacent);
            for (l, &s) in seeds.iter().enumerate() {
                let mut rng = FastRng::seed_from_u64(s);
                let mut p = FastProcess::new(&g, opinions.clone(), kind).unwrap();
                let want =
                    p.run_with_policy(1_000_000, &mut rng, FinishPolicy::AnalyticTwoAdjacent);
                assert_eq!(got[l], want, "lane {l} ({kind:?})");
                assert_eq!(batch.lanes[l].rng, rng, "lane {l} rng position");
            }
        }
    }

    #[test]
    fn single_lane_is_just_the_fast_engine() {
        let g = generators::cycle(50).unwrap();
        let opinions = uniform(50, 4, 8);
        let mut batch =
            BatchProcess::new(&g, opinions.clone(), FastScheduler::Edge, &[321]).unwrap();
        let got = batch.run_to_consensus(5_000_000).remove(0);
        let mut rng = FastRng::seed_from_u64(321);
        let mut p = FastProcess::new(&g, opinions, FastScheduler::Edge).unwrap();
        let want = p.run_to_consensus(5_000_000, &mut rng);
        assert_eq!(got, want);
    }

    #[test]
    fn stat_registers_match_scalar_accessors() {
        let g = regular(48, 6, 2);
        let opinions = uniform(48, 9, 3);
        let seeds = seeds(5, 0xCAFE);
        let mut batch =
            BatchProcess::new(&g, opinions.clone(), FastScheduler::Vertex, &seeds).unwrap();
        batch.run_to_consensus(2_000);
        for (l, &s) in seeds.iter().enumerate() {
            let mut rng = FastRng::seed_from_u64(s);
            let mut p = FastProcess::new(&g, opinions.clone(), FastScheduler::Vertex).unwrap();
            p.run_to_consensus(batch.steps(l), &mut rng);
            assert_eq!(batch.sum(l), p.sum(), "lane {l} S(t)");
            assert_eq!(batch.min_opinion(l), p.min_opinion(), "lane {l} min");
            assert_eq!(batch.max_opinion(l), p.max_opinion(), "lane {l} max");
            assert_eq!(
                batch.is_two_adjacent(l),
                p.is_two_adjacent(),
                "lane {l} two-adjacent"
            );
            for x in 0..10 {
                assert_eq!(batch.count(l, x), p.count(x), "lane {l} count({x})");
            }
            let sample = batch.telemetry_sample(l);
            assert_eq!(sample.sum, p.sum(), "lane {l} sample sum");
            assert_eq!(sample.step, batch.steps(l), "lane {l} sample step");
        }
    }

    #[test]
    fn span_too_large_is_rejected() {
        // Lanes hold the fast engine's span limit, 2²⁴ values: one more is
        // rejected, exactly as `FastProcess::new` rejects it.
        let g = generators::complete(4).unwrap();
        let opinions = vec![0, 1, 2, 1 << 24];
        let err = BatchProcess::new(&g, opinions, FastScheduler::Edge, &[1]).unwrap_err();
        assert!(matches!(err, DivError::SpanTooLarge { .. }));
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn empty_seed_list_panics() {
        let g = generators::complete(4).unwrap();
        let _ = BatchProcess::new(&g, vec![1, 2, 1, 2], FastScheduler::Edge, &[]);
    }
}
