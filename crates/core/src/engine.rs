//! The high-throughput stepping engine.
//!
//! [`FastProcess`] runs the same DIV dynamic as [`crate::DivProcess`] but
//! is built for Monte-Carlo volume rather than observability.  The two
//! implementations are kept deliberately redundant: the reference process
//! is the correctness oracle (statistical acceptance tests run against
//! both), the engine is what experiments actually spend their cycles in.
//!
//! What the engine does differently, per step:
//!
//! * **One RNG word where the reference draws two or three.**  The edge
//!   process draws a single index into a precompiled array of all `2m`
//!   *directed* edges, folding the endpoint flip into the same draw; the
//!   vertex process splits one 64-bit word into two 32-bit halves (vertex,
//!   neighbour slot).
//! * **One neighbour load on constant-degree graphs.**  There the vertex
//!   process reads `neighbors[v·d + slot]` straight from the graph's CSR
//!   table instead of chasing `offsets[v]`, `offsets[v+1]` and then
//!   `neighbors` — the same draw, so the same trajectory.
//! * **Lemire bounded sampling** (multiply-shift with exact rejection)
//!   instead of the generic `gen_range` plumbing.
//! * **[`FastRng`] (xoshiro256++)** instead of `StdRng` — a handful of ALU
//!   ops per word instead of a ChaCha block.
//! * **Block stepping**: the stop condition is hoisted out of the inner
//!   loop and checked once per block.  Both stop predicates are *monotone*
//!   along a DIV trajectory (the opinion range never expands, so
//!   "range width ≤ w" never becomes false once true), hence a block whose
//!   endpoint satisfies the predicate contains the first hit; the engine
//!   rewinds to the block's start snapshot and replays stepwise to report
//!   the exact first-hit step count — block size never changes results.
//! * **One lane loop**: [`Lane`] runs bare blocks — one pick and one
//!   [`toward`] step, no per-opinion counts, one min/max scan per block —
//!   with an exact rewind to the first hit.  Every batch lane outside an
//!   AVX2 lockstep group runs it fault-free (a check-free loop), and so
//!   do drop and stubborn plans: those faults only delete steps, so the
//!   range still never expands.  There a step adds the stubborn check (no
//!   draw) and, when the drop rate is positive, one drop draw compared
//!   as an integer ([`FaultSession::filter`]'s exact draw order); fault
//!   counters are booked once per block.  Noise, stale and crash faults
//!   step one at a time through [`FaultSession::filter`].
//! * **Branchless updates**: the signum and the aggregate increments
//!   compile to arithmetic, not branches; the only data-dependent branch
//!   left is the (rare) range-boundary shrink.
//! * **Optional analytic finish** ([`FinishPolicy::AnalyticTwoAdjacent`]):
//!   after the two-adjacent time `τ` the process is exactly two-opinion
//!   pull voting, whose absorption law Lemma 5 gives in closed form —
//!   `P[high wins] = N_high/n` (edge process) or `d(A_high)/2m` (vertex
//!   process).  The engine can sample that law directly (with an exact
//!   integer draw) instead of simulating the long final stage.
//!
//! [`FastRng`]: crate::FastRng

use std::ops::DerefMut;
use std::time::Instant;

use div_graph::Graph;
use rand::{Rng, RngCore};

use crate::kernels::{self, KernelTier};
use crate::telemetry::{Observer, Phase, PhaseEvent, TelemetrySample};
use crate::{DivError, FaultSession, OpinionState, RunStatus, SelectionBias};

/// Phase thresholds in crossing order: range width ≤ 1 is the paper's
/// `τ`, width 0 is consensus.
const PHASES: [(u32, Phase); 2] = [(1, Phase::TwoAdjacent), (0, Phase::Consensus)];

/// Which interaction law [`FastProcess`] compiles.
///
/// Mirrors the reference schedulers: `Vertex` ↔ [`crate::VertexScheduler`],
/// `Edge` ↔ [`crate::EdgeScheduler`], `EdgeAlias` ↔
/// [`crate::BiasedVertexScheduler`] (the degree-biased reformulation of the
/// edge process, kept for ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FastScheduler {
    /// Uniform vertex observes a uniform neighbour (the vertex process).
    Vertex,
    /// Uniform directed edge: updater, observed (the edge process).
    Edge,
    /// Degree-biased vertex via a packed alias table, then a uniform
    /// neighbour — distributionally identical to `Edge`.
    EdgeAlias,
}

impl FastScheduler {
    /// The selection bias of the compiled law (decides which Lemma 5
    /// formula applies).
    pub fn selection_bias(self) -> SelectionBias {
        match self {
            FastScheduler::Vertex => SelectionBias::UniformVertex,
            FastScheduler::Edge | FastScheduler::EdgeAlias => SelectionBias::Stationary,
        }
    }

    /// Display label matching the reference schedulers' labels.
    pub fn label(self) -> &'static str {
        match self {
            FastScheduler::Vertex => "vertex",
            FastScheduler::Edge => "edge",
            FastScheduler::EdgeAlias => "edge(alias)",
        }
    }
}

/// How a run that reaches the two-adjacent stage is brought to consensus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FinishPolicy {
    /// Simulate the final two-opinion stage step by step (the default; the
    /// reported step count is the true absorption time).
    #[default]
    Simulate,
    /// Stop simulating at `τ` and sample the winner from the exact Lemma 5
    /// absorption law with one integer draw.  The reported `steps` is the
    /// step count at `τ`, not the absorption time, and the internal state
    /// is left at `τ`.
    AnalyticTwoAdjacent,
}

/// Steps per block of the bare block loops ([`Lane`] and the batch
/// engine's lockstep groups).  A block pays one `O(n)` snapshot and one
/// `O(n)` scan, and the block that holds a run's first hit is replayed
/// once at replay speed, so long blocks cost almost nothing.
pub(crate) fn block_len(n: usize) -> u64 {
    (4 * n as u64).max(8192)
}

/// The bare DIV step on a column of offsets: `v` moves one unit toward
/// `w`'s opinion (branchless signum, no bookkeeping).  Every bare block
/// loop, scalar and AVX2, steps through this one function.
#[inline(always)]
pub(crate) fn toward(col: &mut [u32], v: usize, w: usize) {
    let xv = col[v];
    let xw = col[w];
    let delta = (xw > xv) as i32 - (xw < xv) as i32;
    col[v] = (xv as i32 + delta) as u32;
}

/// 64-bit Lemire bounded draw with exact rejection: uniform in `[0, range)`.
#[inline(always)]
pub(crate) fn bounded_u64<R: RngCore + ?Sized>(rng: &mut R, range: u64) -> u64 {
    debug_assert!(range > 0);
    let mut m = (rng.next_u64() as u128) * (range as u128);
    if (m as u64) < range {
        // Slow path (probability `range/2⁶⁴`): compute the exact rejection
        // threshold and redraw below it.
        let t = range.wrapping_neg() % range;
        while (m as u64) < t {
            m = (rng.next_u64() as u128) * (range as u128);
        }
    }
    (m >> 64) as u64
}

/// 32-bit Lemire step on a pre-drawn word half: `Some(value)` on accept.
/// Rejection (probability `< range/2³²`) asks the caller to redraw.
#[inline(always)]
pub(crate) fn bounded_u32_half(half: u32, range: u32) -> Option<u32> {
    debug_assert!(range > 0);
    let m = (half as u64) * (range as u64);
    let frac = m as u32;
    if frac < range {
        let t = range.wrapping_neg() % range;
        if frac < t {
            return None;
        }
    }
    Some((m >> 32) as u32)
}

/// The precompiled interaction sampler.  Shared with the batch engine
/// (`crate::batch`): the tables depend only on the graph and the
/// scheduler, so one compilation serves every lane of a batch.
///
/// [`CompiledSampler::compile`] picks the family from the graph: a
/// complete graph takes `CompletePair` under either law, another
/// constant-degree graph takes `RegularVertex` under the vertex law, and
/// every other vertex-law graph `Vertex`.  The two vertex families draw
/// identical streams; they differ only in how the neighbour is found.
#[derive(Debug, Clone)]
pub(crate) enum CompiledSampler {
    /// One word: high half picks the vertex, low half the neighbour slot,
    /// read through the graph's CSR offsets (any degree sequence).
    Vertex { n: u32 },
    /// The vertex process on a constant-degree graph: [`Vertex`]'s word
    /// discipline, but the neighbour is `neighbors[v·d + slot]` of the
    /// graph's own CSR table — one load, no offsets.
    ///
    /// [`Vertex`]: CompiledSampler::Vertex
    RegularVertex { n: u32, d: u32 },
    /// Closed-form sampler for complete graphs: a uniform ordered pair of
    /// distinct vertices from one word, no tables.  `K_n` is regular, so
    /// the edge and vertex processes draw the *same* law and both compile
    /// to this.
    CompletePair { n: u32 },
    /// The edge list flattened to `[a₀, b₀, a₁, b₁, …]` (`2m` entries);
    /// a single draw `j ∈ [0, 2m)` addresses the directed edge
    /// `(endpoints[j], endpoints[j ^ 1])`, so the endpoint flip is the low
    /// bit of the same draw and both loads share a cache line.
    Edge { endpoints: Vec<u32>, two_m: u64 },
    /// Packed Walker alias table over the degree distribution:
    /// `slot = threshold << 32 | alias`.  One word draws the (biased)
    /// vertex — high half picks the slot, low half decides slot vs alias —
    /// and a second word picks the neighbour.
    Alias { slots: Vec<u64>, n: u32 },
}

impl CompiledSampler {
    pub(crate) fn compile(g: &Graph, kind: FastScheduler) -> CompiledSampler {
        // A simple graph with m = n(n−1)/2 is complete: both the vertex
        // process (uniform v, uniform neighbour) and the edge process
        // (uniform directed edge — identical on any regular graph) reduce
        // to a uniform ordered pair of distinct vertices.
        let n = g.num_vertices() as u64;
        let complete = g.num_edges() as u64 == n * (n - 1) / 2 && n > 1;
        match kind {
            FastScheduler::Vertex | FastScheduler::Edge if complete => {
                CompiledSampler::CompletePair { n: n as u32 }
            }
            FastScheduler::Vertex if g.is_regular() => CompiledSampler::RegularVertex {
                n: n as u32,
                d: g.max_degree() as u32,
            },
            FastScheduler::Vertex => CompiledSampler::Vertex {
                n: g.num_vertices() as u32,
            },
            FastScheduler::Edge => {
                let m = g.num_edges();
                let mut endpoints = Vec::with_capacity(2 * m);
                for e in 0..m {
                    let (a, b) = g.edge(e);
                    endpoints.push(a as u32);
                    endpoints.push(b as u32);
                }
                CompiledSampler::Edge {
                    endpoints,
                    two_m: 2 * m as u64,
                }
            }
            FastScheduler::EdgeAlias => CompiledSampler::Alias {
                slots: packed_alias_table(g),
                n: g.num_vertices() as u32,
            },
        }
    }

    /// Draws the ordered pair `(updater, observed)`.
    #[inline(always)]
    pub(crate) fn pick<R: RngCore + ?Sized>(&self, g: &Graph, rng: &mut R) -> (usize, usize) {
        let (v, w) = match *self {
            CompiledSampler::Vertex { n } => VertexPick { g, n }.pick(rng),
            CompiledSampler::RegularVertex { n, d } => RegularVertexPick::of(g, n, d).pick(rng),
            CompiledSampler::CompletePair { n } => CompletePairPick { n }.pick(rng),
            CompiledSampler::Edge {
                ref endpoints,
                two_m,
            } => EdgePick { endpoints, two_m }.pick(rng),
            CompiledSampler::Alias { ref slots, n } => AliasPick { g, slots, n }.pick(rng),
        };
        (v as usize, w as usize)
    }

    /// Matches the sampler family **once** and hands `d` the family's
    /// [`Pick`], so a loop inside [`Drive::drive`] is monomorphic: no
    /// per-step dispatch.  [`Lane`]'s bare blocks run through here.
    #[inline(always)]
    pub(crate) fn drive<D: Drive>(&self, g: &Graph, d: D) -> D::Out {
        match *self {
            CompiledSampler::Vertex { n } => d.drive(VertexPick { g, n }),
            CompiledSampler::RegularVertex { n, d: deg } => {
                d.drive(RegularVertexPick::of(g, n, deg))
            }
            CompiledSampler::CompletePair { n } => d.drive(CompletePairPick { n }),
            CompiledSampler::Edge {
                ref endpoints,
                two_m,
            } => d.drive(EdgePick { endpoints, two_m }),
            CompiledSampler::Alias { ref slots, n } => d.drive(AliasPick { g, slots, n }),
        }
    }
}

/// One sampler family's draw of an ordered `(updater, observed)` pair.
/// The five implementations below are the only scalar implementation of
/// the interaction law.
pub(crate) trait Pick {
    /// Draws one pair from `rng`.
    fn pick<R: RngCore + ?Sized>(&self, rng: &mut R) -> (u32, u32);
}

/// A loop over one sampler family's [`Pick`]; see
/// [`CompiledSampler::drive`].
pub(crate) trait Drive {
    /// What the loop reports.
    type Out;
    /// Runs the loop, drawing each pair with `pick`.
    fn drive<P: Pick>(self, pick: P) -> Self::Out;
}

/// One word: high half picks the vertex, low half the neighbour slot.
struct VertexPick<'a> {
    g: &'a Graph,
    n: u32,
}

impl Pick for VertexPick<'_> {
    #[inline(always)]
    fn pick<R: RngCore + ?Sized>(&self, rng: &mut R) -> (u32, u32) {
        loop {
            let word = rng.next_u64();
            let Some(v) = bounded_u32_half((word >> 32) as u32, self.n) else {
                continue;
            };
            let d = self.g.degree(v as usize) as u32;
            let Some(slot) = bounded_u32_half(word as u32, d) else {
                continue;
            };
            return (v, self.g.neighbor(v as usize, slot as usize) as u32);
        }
    }
}

/// [`VertexPick`]'s draw on a constant-degree adjacency table: `n`
/// vertices of degree `d`, the neighbours of vertex `v` at
/// `neighbors[v·d .. v·d + d]`.  The same word and the same rejections
/// as [`VertexPick`], so on a regular graph the two draw identical
/// streams.  The sharded engine draws its constant-degree domains
/// through it too, over the domain's block of the table.
pub(crate) struct RegularVertexPick<'a> {
    pub(crate) neighbors: &'a [u32],
    pub(crate) n: u32,
    pub(crate) d: u32,
}

impl<'a> RegularVertexPick<'a> {
    /// The picker over all of `g`'s table (`g` must be `d`-regular).
    #[inline(always)]
    fn of(g: &'a Graph, n: u32, d: u32) -> Self {
        RegularVertexPick {
            neighbors: g.csr().1,
            n,
            d,
        }
    }
}

impl Pick for RegularVertexPick<'_> {
    #[inline(always)]
    fn pick<R: RngCore + ?Sized>(&self, rng: &mut R) -> (u32, u32) {
        loop {
            let word = rng.next_u64();
            let Some(v) = bounded_u32_half((word >> 32) as u32, self.n) else {
                continue;
            };
            let Some(slot) = bounded_u32_half(word as u32, self.d) else {
                continue;
            };
            return (
                v,
                self.neighbors[v as usize * self.d as usize + slot as usize],
            );
        }
    }
}

/// A uniform ordered pair of distinct vertices from one word.
struct CompletePairPick {
    n: u32,
}

impl Pick for CompletePairPick {
    #[inline(always)]
    fn pick<R: RngCore + ?Sized>(&self, rng: &mut R) -> (u32, u32) {
        loop {
            let word = rng.next_u64();
            let Some(v) = bounded_u32_half((word >> 32) as u32, self.n) else {
                continue;
            };
            let Some(w) = bounded_u32_half(word as u32, self.n - 1) else {
                continue;
            };
            // Skip over v: maps [0, n−1) onto [0, n) \ {v}.
            return (v, w + (w >= v) as u32);
        }
    }
}

/// One draw `j ∈ [0, 2m)` addresses the directed edge
/// `(endpoints[j], endpoints[j ^ 1])`.
struct EdgePick<'a> {
    endpoints: &'a [u32],
    two_m: u64,
}

impl Pick for EdgePick<'_> {
    #[inline(always)]
    fn pick<R: RngCore + ?Sized>(&self, rng: &mut R) -> (u32, u32) {
        let j = bounded_u64(rng, self.two_m) as usize;
        (self.endpoints[j], self.endpoints[j ^ 1])
    }
}

/// One word draws the degree-biased vertex from the packed alias table,
/// a second picks the neighbour.
struct AliasPick<'a> {
    g: &'a Graph,
    slots: &'a [u64],
    n: u32,
}

impl Pick for AliasPick<'_> {
    #[inline(always)]
    fn pick<R: RngCore + ?Sized>(&self, rng: &mut R) -> (u32, u32) {
        let v = loop {
            let word = rng.next_u64();
            let Some(i) = bounded_u32_half((word >> 32) as u32, self.n) else {
                continue;
            };
            let slot = self.slots[i as usize];
            break if (word as u32) < (slot >> 32) as u32 {
                i as usize
            } else {
                (slot as u32) as usize
            };
        };
        let d = self.g.degree(v) as u64;
        (
            v as u32,
            self.g.neighbor(v, bounded_u64(rng, d) as usize) as u32,
        )
    }
}

/// Builds the packed alias table for `g`'s degree distribution; see
/// [`packed_alias_slots`] for the encoding.
fn packed_alias_table(g: &Graph) -> Vec<u64> {
    let degrees: Vec<u64> = g.vertices().map(|v| g.degree(v) as u64).collect();
    packed_alias_slots(&degrees)
}

/// Builds a packed Walker alias table over arbitrary integer `weights` in
/// integer arithmetic: slot `i` keeps itself with probability
/// `threshold_i/2³²` where `threshold_i` approximates `L·w_i/W` (mod 1) to
/// within `2⁻³²` (`L` slots, total weight `W`); saturated slots alias to
/// themselves, so the approximation error only shifts mass between a slot
/// and its alias partner.  Shared by the scalar engine (weights = degrees
/// of the whole graph) and the sharded engine (weights = degrees of one
/// shard domain).
pub(crate) fn packed_alias_slots(weights: &[u64]) -> Vec<u64> {
    let len = weights.len() as u128;
    let total: u128 = weights.iter().map(|&w| w as u128).sum();
    assert!(total > 0, "weighted draw needs positive total weight");
    const ONE: u128 = 1 << 32;
    // Fixed-point scaled probabilities: L·w_i/W in 32.32.
    let mut scaled: Vec<u128> = weights
        .iter()
        .map(|&w| (w as u128 * len * ONE + total / 2) / total)
        .collect();
    let mut alias: Vec<u32> = (0..weights.len() as u32).collect();
    let mut small: Vec<usize> = Vec::new();
    let mut large: Vec<usize> = Vec::new();
    for (i, &p) in scaled.iter().enumerate() {
        if p < ONE {
            small.push(i);
        } else {
            large.push(i);
        }
    }
    while let (Some(s), Some(l)) = (small.pop(), large.pop()) {
        alias[s] = l as u32;
        scaled[l] = (scaled[l] + scaled[s]) - ONE;
        if scaled[l] < ONE {
            small.push(l);
        } else {
            large.push(l);
        }
    }
    // Leftovers are full slots (threshold saturates; alias = self keeps
    // them exact even when the 32-bit threshold clips to 2³²−1).
    for i in small.into_iter().chain(large) {
        scaled[i] = ONE;
        alias[i] = i as u32;
    }
    scaled
        .into_iter()
        .zip(alias)
        .map(|(p, a)| ((p.min(ONE - 1) as u64) << 32) | a as u64)
        .collect()
}

/// Compact opinion state: opinions as offsets into the initial span.
/// [`FastProcess`] owns its vectors (`S = Vec<u32>`); a batch lane
/// borrows its column and a shared counts table (`S = &mut [u32]`).
#[derive(Debug, Clone)]
pub(crate) struct FastState<S = Vec<u32>> {
    /// `opinions[v] = X_v − base`, always within `[0, span)`.
    opinions: S,
    /// One cell per offset of the span.
    counts: S,
    /// Smallest/largest offset currently held.
    lo: u32,
    hi: u32,
    /// `Σ_v (X_v − base)`; `S(t)` is `base·n + sum_off`.
    sum_off: i64,
}

impl FastState {
    /// The state holding `opinions`, offsets into a span of `span` values.
    pub(crate) fn from_offsets(opinions: Vec<u32>, span: usize) -> FastState {
        let mut state = FastState {
            opinions,
            counts: vec![0; span],
            lo: 0,
            hi: 0,
            sum_off: 0,
        };
        state.recount();
        state
    }
}

impl<'a> FastState<&'a mut [u32]> {
    /// A batch lane's state: its column, with `counts` (one cell per
    /// offset of the span) as scratch.  Uncounted: `counts`, `lo`, `hi`
    /// and `sum_off` mean nothing until [`FastState::recount`].
    pub(crate) fn lane(opinions: &'a mut [u32], counts: &'a mut [u32]) -> Self {
        FastState {
            opinions,
            counts,
            lo: 0,
            hi: 0,
            sum_off: 0,
        }
    }
}

impl<S: DerefMut<Target = [u32]>> FastState<S> {
    /// Rebuilds `counts`, `sum_off` and `lo/hi` from `opinions`, in
    /// `O(n + span)`: what the bare blocks skip per step.
    pub(crate) fn recount(&mut self) {
        self.counts.fill(0);
        let mut sum_off = 0i64;
        for &x in self.opinions.iter() {
            self.counts[x as usize] += 1;
            sum_off += x as i64;
        }
        self.sum_off = sum_off;
        self.lo = self.counts.iter().position(|&c| c > 0).expect("non-empty") as u32;
        self.hi = self.counts.iter().rposition(|&c| c > 0).expect("non-empty") as u32;
    }

    /// One DIV step: move `v` one unit toward `w`'s opinion.  The signum
    /// and all aggregate increments are branchless; when the pair already
    /// agrees every update is a provable no-op (`±0` / `−1+1`), so the
    /// equal-opinion case needs no early exit.
    #[inline(always)]
    fn apply(&mut self, v: usize, w: usize) {
        let xv = self.opinions[v];
        let xw = self.opinions[w];
        let delta = (xw > xv) as i64 - (xw < xv) as i64;
        let old = xv as usize;
        let new = (xv as i64 + delta) as usize;
        self.opinions[v] = new as u32;
        self.sum_off += delta;
        self.counts[old] -= 1;
        self.counts[new] += 1;
        // Rare branch: the last holder of a boundary opinion moved off it.
        // DIV never expands the range (`new` lies between `xv` and `xw`,
        // both inside `[lo, hi]`), so only shrinks need handling.
        if self.counts[old] == 0 {
            if old as u32 == self.lo {
                while self.counts[self.lo as usize] == 0 {
                    self.lo += 1;
                }
            }
            if old as u32 == self.hi {
                while self.counts[self.hi as usize] == 0 {
                    self.hi -= 1;
                }
            }
        }
    }

    /// One step toward an *arbitrary* observed offset (faulty runs): move
    /// `v` one unit toward `target`.  Unlike [`FastState::apply`], the
    /// observed value need not be a live opinion — noisy or stale reads
    /// can drag `v` past the current `[lo, hi]` (never past the initial
    /// span, the fault layer clamps there), so the range may re-expand.
    #[inline(always)]
    fn apply_observed(&mut self, v: usize, target: u32) {
        let xv = self.opinions[v];
        let delta = (target > xv) as i64 - (target < xv) as i64;
        if delta == 0 {
            return;
        }
        let old = xv as usize;
        let new = (xv as i64 + delta) as usize;
        self.opinions[v] = new as u32;
        self.sum_off += delta;
        self.counts[old] -= 1;
        self.counts[new] += 1;
        // Expand first so the shrink walks below stay bounded by an
        // occupied cell, then handle a vacated boundary as usual.
        if (new as u32) < self.lo {
            self.lo = new as u32;
        }
        if (new as u32) > self.hi {
            self.hi = new as u32;
        }
        if self.counts[old] == 0 {
            if old as u32 == self.lo {
                while self.counts[self.lo as usize] == 0 {
                    self.lo += 1;
                }
            }
            if old as u32 == self.hi {
                while self.counts[self.hi as usize] == 0 {
                    self.hi -= 1;
                }
            }
        }
    }

    #[inline(always)]
    fn width(&self) -> u32 {
        self.hi - self.lo
    }
}

/// One trajectory on the block engine: the compiled law, the state it
/// steps and its step counter.  [`FastProcess`] lends its own fields and
/// a batch lane lends its column, so the fast and batch engines share
/// this one lane loop: clean batch lanes, every faulty run and every
/// exact first hit.
pub(crate) struct Lane<'a, S> {
    pub(crate) graph: &'a Graph,
    pub(crate) sampler: &'a CompiledSampler,
    pub(crate) state: &'a mut FastState<S>,
    pub(crate) base: i64,
    pub(crate) steps: &'a mut u64,
    /// The tier of the end-of-block min/max scans.
    pub(crate) tier: KernelTier,
}

impl<S: DerefMut<Target = [u32]>> Lane<'_, S> {
    /// One step through [`FaultSession::filter`], reporting the updating
    /// vertex and its opinion delta (what observed runs need to maintain
    /// the degree-weighted sum incrementally).
    fn step<R: Rng + ?Sized>(&mut self, faults: &mut FaultSession, rng: &mut R) -> (usize, i64) {
        let (v, w) = self.sampler.pick(self.graph, rng);
        *self.steps += 1;
        let base = self.base;
        let opinions = &self.state.opinions;
        let before = self.state.sum_off;
        if let Some(x) = faults.filter(*self.steps, v, w, |u| base + opinions[u] as i64, rng) {
            let target = (x - base).clamp(0, self.state.counts.len() as i64 - 1) as u32;
            self.state.apply_observed(v, target);
        }
        (v, self.state.sum_off - before)
    }

    /// Steps under a fault plan until the range width is at most
    /// `stop_width` (`true`) or `max_steps` steps are spent (`false`),
    /// with the per-step semantics of [`Lane::step`]: width check, then
    /// budget, then one step.  Range-preserving plans take the block
    /// engine, every other plan the per-step loop.  The state must be
    /// counted on entry, and is on return.
    pub(crate) fn run_faulty<R: Rng + Clone>(
        &mut self,
        max_steps: u64,
        faults: &mut FaultSession,
        rng: &mut R,
        stop_width: u32,
    ) -> bool {
        if self.state.width() <= stop_width {
            return true;
        }
        if faults.plan().preserves_range() {
            let hit = self.run_blocks(max_steps, Some(faults), rng, stop_width, &mut Vec::new());
            if !hit {
                self.state.recount();
            }
            return hit;
        }
        let mut remaining = max_steps;
        while self.state.width() > stop_width {
            if remaining == 0 {
                return false;
            }
            remaining -= 1;
            self.step(faults, rng);
        }
        true
    }

    /// The block engine, for clean lanes (`faults = None`) and
    /// drop/stubborn plans: steps until the range width is at most
    /// `stop_width` (`true`) or `max_steps` steps are spent (`false`).
    /// Each block takes bare toward-steps (no counts, no `sum_off`, no
    /// width check), then one min/max scan.  The width stays monotone,
    /// so a block whose end is above `stop_width` was above it
    /// throughout, and one whose end is not is rewound (opinions and RNG)
    /// and finished by [`Lane::finish`].  The width must start above
    /// `stop_width`; the state may start uncounted ([`FastState::lane`])
    /// and is counted only after a hit.  `snap` holds each block's
    /// snapshot; one buffer serves every block of the run (and, for a
    /// caller stepping block by block, every call).
    pub(crate) fn run_blocks<R: Rng + Clone>(
        &mut self,
        max_steps: u64,
        mut faults: Option<&mut FaultSession>,
        rng: &mut R,
        stop_width: u32,
        snap: &mut Vec<u32>,
    ) -> bool {
        let (stubborn, drop_below) = faults.as_deref().map_or((0, 0), |f| {
            (f.plan().stubborn as u32, f.plan().drop_threshold())
        });
        let block = block_len(self.state.opinions.len());
        let mut remaining = max_steps;
        while remaining > 0 {
            let b = block.min(remaining);
            snap.clear();
            snap.extend_from_slice(&self.state.opinions);
            let snap_rng = rng.clone();
            let (dropped, suppressed) = self.sampler.drive(
                self.graph,
                BareBlock {
                    col: &mut self.state.opinions,
                    rng,
                    steps: b,
                    stubborn,
                    drop_below,
                },
            );
            let (lo, hi) = kernels::min_max_u32(&self.state.opinions, self.tier);
            if hi - lo <= stop_width {
                self.state.opinions.copy_from_slice(snap);
                *rng = snap_rng;
                self.finish(faults, rng, stop_width, b);
                return true;
            }
            if let Some(f) = faults.as_deref_mut() {
                f.record_thinned(b, dropped, suppressed);
            }
            *self.steps += b;
            remaining -= b;
        }
        false
    }

    /// Counts the state, then steps one at a time with full bookkeeping
    /// (through [`Lane::step`] under a plan) to the first step at which
    /// the width is at most `stop_width`.  Starts from a block start —
    /// a rewound lane or a scratch copy of one — whose block of `limit`
    /// steps ended at or below `stop_width`, so the hit is within
    /// `limit` steps.
    pub(crate) fn finish<R: Rng>(
        &mut self,
        mut faults: Option<&mut FaultSession>,
        rng: &mut R,
        stop_width: u32,
        limit: u64,
    ) {
        self.state.recount();
        debug_assert!(
            self.state.width() > stop_width,
            "replay starts above the stop width"
        );
        for _ in 0..limit {
            match faults.as_deref_mut() {
                Some(f) => {
                    self.step(f, rng);
                }
                None => {
                    let (v, w) = self.sampler.pick(self.graph, rng);
                    self.state.apply(v, w);
                    *self.steps += 1;
                }
            }
            if self.state.width() <= stop_width {
                return;
            }
        }
        unreachable!("stop held at block end but not in replay");
    }
}

/// One bare block for [`CompiledSampler::drive`]: `steps` draws, each a
/// [`toward`] step unless filtered exactly as [`FaultSession::filter`]
/// filters a drop/stubborn plan — a stubborn updater (`v < stubborn`)
/// is suppressed without a draw, then one word is drawn iff
/// `drop_below > 0` and the interaction is lost when
/// `word >> 11 < drop_below`.  With neither fault the loop carries no
/// check at all.  Reports `(dropped, suppressed)`.
struct BareBlock<'a, R> {
    col: &'a mut [u32],
    rng: &'a mut R,
    steps: u64,
    stubborn: u32,
    drop_below: u64,
}

impl<R: RngCore + Clone> Drive for BareBlock<'_, R> {
    type Out = (u64, u64);

    #[inline(always)]
    fn drive<P: Pick>(self, pick: P) -> (u64, u64) {
        let col = self.col;
        // A register-resident copy of the stream, written back at the end.
        let mut rng = self.rng.clone();
        let (mut dropped, mut suppressed) = (0u64, 0u64);
        if self.stubborn == 0 && self.drop_below == 0 {
            for _ in 0..self.steps {
                let (v, w) = pick.pick(&mut rng);
                toward(col, v as usize, w as usize);
            }
        } else {
            for _ in 0..self.steps {
                let (v, w) = pick.pick(&mut rng);
                if v < self.stubborn {
                    suppressed += 1;
                    continue;
                }
                let lost = self.drop_below > 0 && (rng.next_u64() >> 11) < self.drop_below;
                dropped += lost as u64;
                let xv = col[v as usize];
                let xw = col[w as usize];
                let delta = ((xw > xv) as i32 - (xw < xv) as i32) * !lost as i32;
                col[v as usize] = (xv as i32 + delta) as u32;
            }
        }
        *self.rng = rng;
        (dropped, suppressed)
    }
}

/// High-throughput DIV process; see the module docs for the design
/// and [`crate::DivProcess`] for the observable reference implementation.
///
/// # Examples
///
/// ```
/// use div_core::{init, FastProcess, FastRng, FastScheduler, RunStatus};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = div_graph::generators::complete(60)?;
/// let mut rng = FastRng::seed_from_u64(1);
/// let opinions = init::blocks(&[(1, 30), (5, 30)])?;
/// let mut p = FastProcess::new(&g, opinions, FastScheduler::Edge)?;
/// match p.run_to_consensus(10_000_000, &mut rng) {
///     RunStatus::Consensus { opinion, .. } => assert_eq!(opinion, 3),
///     other => panic!("did not converge: {other:?}"),
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FastProcess<'g> {
    graph: &'g Graph,
    kind: FastScheduler,
    sampler: CompiledSampler,
    state: FastState,
    base: i64,
    steps: u64,
    /// The tier of the faulty block engine's width scans (a pure speed
    /// knob, see [`crate::kernels`]).
    tier: KernelTier,
}

impl<'g> FastProcess<'g> {
    /// Compiles the sampler tables and the compact state.
    ///
    /// # Errors
    ///
    /// Exactly the validation errors of [`OpinionState::new`].
    pub fn new(
        graph: &'g Graph,
        opinions: Vec<i64>,
        scheduler: FastScheduler,
    ) -> Result<Self, DivError> {
        // Reference-path validation keeps the two engines' error contracts
        // identical.
        let reference = OpinionState::new(graph, opinions)?;
        let base = reference.min_opinion();
        let span = (reference.max_opinion() - base) as usize + 1;
        let opinions_off: Vec<u32> = reference
            .opinions()
            .iter()
            .map(|&x| (x - base) as u32)
            .collect();
        Ok(FastProcess {
            graph,
            kind: scheduler,
            sampler: CompiledSampler::compile(graph, scheduler),
            state: FastState::from_offsets(opinions_off, span),
            base,
            steps: 0,
            tier: KernelTier::active(),
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

    /// Steps taken so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// `S(t) = Σ_v X_v`.
    pub fn sum(&self) -> i64 {
        self.base * self.state.opinions.len() as i64 + self.state.sum_off
    }

    /// The smallest opinion currently held.
    pub fn min_opinion(&self) -> i64 {
        self.base + self.state.lo as i64
    }

    /// The largest opinion currently held.
    pub fn max_opinion(&self) -> i64 {
        self.base + self.state.hi as i64
    }

    /// `N_i(t)` for `opinion` (0 outside the initial span).
    pub fn count(&self, opinion: i64) -> usize {
        let off = opinion - self.base;
        if (0..self.state.counts.len() as i64).contains(&off) {
            self.state.counts[off as usize] as usize
        } else {
            0
        }
    }

    /// Whether all vertices agree.
    pub fn is_consensus(&self) -> bool {
        self.state.width() == 0
    }

    /// Whether at most two adjacent opinions remain (the paper's `τ`).
    pub fn is_two_adjacent(&self) -> bool {
        self.state.width() <= 1
    }

    /// The current opinion vector, indexed by vertex.
    pub fn opinions(&self) -> Vec<i64> {
        self.state
            .opinions
            .iter()
            .map(|&off| self.base + off as i64)
            .collect()
    }

    /// Rebuilds a full [`OpinionState`] from the compact state (`O(n)`;
    /// for interop with observers and the theory helpers).
    pub fn opinion_state(&self) -> OpinionState {
        OpinionState::new(self.graph, self.opinions())
            .expect("compact state stays within the validated span")
    }

    /// Draws one `(updater, observed)` pair from the compiled sampler
    /// without stepping — the hook the distributional acceptance tests
    /// exercise.
    pub fn sample_pair<R: RngCore + ?Sized>(&self, rng: &mut R) -> (usize, usize) {
        self.sampler.pick(self.graph, rng)
    }

    /// Runs until consensus or until `max_steps` additional steps.
    pub fn run_to_consensus<R: RngCore + Clone>(
        &mut self,
        max_steps: u64,
        rng: &mut R,
    ) -> RunStatus {
        self.run_blocks(max_steps, rng, 0)
    }

    /// Runs until at most two adjacent opinions remain (`τ`), or until
    /// `max_steps` additional steps.
    pub fn run_to_two_adjacent<R: RngCore + Clone>(
        &mut self,
        max_steps: u64,
        rng: &mut R,
    ) -> RunStatus {
        self.run_blocks(max_steps, rng, 1)
    }

    /// Runs to consensus under the given [`FinishPolicy`].
    ///
    /// With [`FinishPolicy::AnalyticTwoAdjacent`], simulation stops at `τ`
    /// and the winner is drawn from the exact Lemma 5 law — `N_high/n`
    /// under the edge process, `d(A_high)/2m` under the vertex process —
    /// using one exact integer draw (no floating-point rounding).  The
    /// returned step count is then the step count at `τ` and the internal
    /// state remains the `τ`-state.
    pub fn run_with_policy<R: RngCore + Clone>(
        &mut self,
        max_steps: u64,
        rng: &mut R,
        policy: FinishPolicy,
    ) -> RunStatus {
        match policy {
            FinishPolicy::Simulate => self.run_to_consensus(max_steps, rng),
            FinishPolicy::AnalyticTwoAdjacent => match self.run_to_two_adjacent(max_steps, rng) {
                RunStatus::TwoAdjacent { low, high, steps } => {
                    let high_wins = match self.kind.selection_bias() {
                        SelectionBias::Stationary => {
                            let n = self.state.opinions.len() as u64;
                            bounded_u64(rng, n) < self.count(high) as u64
                        }
                        SelectionBias::UniformVertex => {
                            let two_m = self.graph.total_degree() as u64;
                            bounded_u64(rng, two_m) < self.degree_mass_of(high)
                        }
                    };
                    RunStatus::Consensus {
                        opinion: if high_wins { high } else { low },
                        steps,
                    }
                }
                done => done,
            },
        }
    }

    /// Performs one step under a fault model, at engine speed.
    ///
    /// The pair comes from the compiled sampler exactly as in fault-free
    /// stepping; the observation is routed through
    /// [`FaultSession::filter`].  With a trivial plan the RNG stream is
    /// identical to the fault-free engine's.
    pub fn step_faulty<R: Rng + ?Sized>(&mut self, faults: &mut FaultSession, rng: &mut R) {
        self.lane().step(faults, rng);
    }

    /// This process's trajectory as a [`Lane`].
    fn lane(&mut self) -> Lane<'_, Vec<u32>> {
        Lane {
            graph: self.graph,
            sampler: &self.sampler,
            state: &mut self.state,
            base: self.base,
            steps: &mut self.steps,
            tier: self.tier,
        }
    }

    /// Runs under a fault model until consensus or budget exhaustion,
    /// with exactly the trajectory, step count, RNG position and fault
    /// counters of a loop of [`FastProcess::step_faulty`] calls that
    /// stops at the first consensus.
    ///
    /// Plans whose only faults are drop and stubborn keep the opinion
    /// range non-expanding, so they run on the block engine: bare thinned
    /// toward-steps, one width scan per block, and a rewind of the
    /// hitting block (hence `R: Clone`) replayed step by step to the exact
    /// first hit.  Noise and stale reads can re-expand the range (the
    /// stop predicate is no longer monotone) and crash timers depend on
    /// the step, so plans with them step one at a time, with one width
    /// comparison per step.  As with the reference engine, pass a finite
    /// budget — fault plans can obstruct consensus entirely.
    pub fn run_faulty_to_consensus<R: Rng + Clone>(
        &mut self,
        max_steps: u64,
        faults: &mut FaultSession,
        rng: &mut R,
    ) -> RunStatus {
        self.run_faulty_width(max_steps, faults, rng, 0)
    }

    /// Runs under a fault model until at most two adjacent opinions
    /// remain, or until the budget is spent.
    pub fn run_faulty_to_two_adjacent<R: Rng + Clone>(
        &mut self,
        max_steps: u64,
        faults: &mut FaultSession,
        rng: &mut R,
    ) -> RunStatus {
        self.run_faulty_width(max_steps, faults, rng, 1)
    }

    fn run_faulty_width<R: Rng + Clone>(
        &mut self,
        max_steps: u64,
        faults: &mut FaultSession,
        rng: &mut R,
        stop_width: u32,
    ) -> RunStatus {
        if self.lane().run_faulty(max_steps, faults, rng, stop_width) {
            self.status()
        } else {
            RunStatus::StepLimit { steps: self.steps }
        }
    }

    /// Runs to consensus with telemetry: stride-boundary samples plus
    /// exact phase-transition events delivered to `obs`.
    ///
    /// Block stepping stays intact — the engine cuts blocks at stride
    /// boundaries to take samples and reuses the block-snapshot replay to
    /// locate the `τ` and consensus crossings at their **exact** steps
    /// (both predicates are monotone along fault-free trajectories).
    /// With a disabled observer ([`Observer::ENABLED`]` == false`, e.g.
    /// [`crate::NullObserver`]) this monomorphises to a direct call to
    /// the unobserved block engine: provably zero overhead.
    ///
    /// Samples land on the lattice `stride·ℕ` of the *global* step
    /// counter; the initial state is always reported via
    /// [`Observer::on_start`] and the terminal one via
    /// [`Observer::on_finish`].
    ///
    /// # Panics
    ///
    /// Panics if `stride == 0`.
    pub fn run_observed<R: RngCore + Clone, O: Observer>(
        &mut self,
        max_steps: u64,
        rng: &mut R,
        stride: u64,
        obs: &mut O,
    ) -> RunStatus {
        self.run_blocks_observed(max_steps, rng, 0, stride, obs)
    }

    /// [`FastProcess::run_observed`] stopping at the two-adjacent stage
    /// (the paper's `τ`) instead of consensus.
    ///
    /// # Panics
    ///
    /// Panics if `stride == 0`.
    pub fn run_observed_to_two_adjacent<R: RngCore + Clone, O: Observer>(
        &mut self,
        max_steps: u64,
        rng: &mut R,
        stride: u64,
        obs: &mut O,
    ) -> RunStatus {
        self.run_blocks_observed(max_steps, rng, 1, stride, obs)
    }

    /// Runs under a fault model to consensus with telemetry: stride
    /// samples, first-entry phase events, and the session's fault
    /// counters (delivered to [`Observer::on_faults`] just before
    /// [`Observer::on_finish`]).
    ///
    /// Observed faulty runs step one at a time, so phase events are
    /// exact — but since noise and stale reads can re-expand the range,
    /// only the *first* entry into each phase is reported.  With a
    /// disabled observer this delegates to
    /// [`FastProcess::run_faulty_to_consensus`].
    ///
    /// # Panics
    ///
    /// Panics if `stride == 0`.
    pub fn run_faulty_observed<R: Rng + Clone, O: Observer>(
        &mut self,
        max_steps: u64,
        faults: &mut FaultSession,
        rng: &mut R,
        stride: u64,
        obs: &mut O,
    ) -> RunStatus {
        if !O::ENABLED {
            return self.run_faulty_width(max_steps, faults, rng, 0);
        }
        assert!(stride > 0, "stride must be positive");
        let start = Instant::now();
        let mut dw_off = self.degree_weighted_off_sum();
        obs.on_start(&self.telemetry_sample_at(self.steps, dw_off));
        let mut next_phase = self.first_pending_phase();
        let mut remaining = max_steps;
        while self.state.width() > 0 {
            if remaining == 0 {
                obs.on_faults(faults.stats());
                obs.on_finish(
                    &self.telemetry_sample_at(self.steps, dw_off),
                    start.elapsed(),
                );
                return RunStatus::StepLimit { steps: self.steps };
            }
            remaining -= 1;
            let (v, delta) = self.lane().step(faults, rng);
            dw_off += delta * self.graph.degree(v) as i64;
            let width = self.state.width();
            while next_phase < PHASES.len() && width <= PHASES[next_phase].0 {
                obs.on_phase(&PhaseEvent {
                    phase: PHASES[next_phase].1,
                    step: self.steps,
                });
                next_phase += 1;
            }
            if width > 0 && self.steps.is_multiple_of(stride) {
                obs.on_sample(&self.telemetry_sample_at(self.steps, dw_off));
            }
        }
        obs.on_faults(faults.stats());
        obs.on_finish(
            &self.telemetry_sample_at(self.steps, dw_off),
            start.elapsed(),
        );
        self.status()
    }

    /// The observed block engine: [`FastProcess::run_blocks`] with blocks
    /// additionally cut at stride boundaries for sampling.  A sub-block
    /// whose endpoint crosses a phase (or the stop predicate) triggers
    /// the usual rewind-and-replay from the big block's snapshot, which
    /// locates the crossing's exact step; monotonicity guarantees the
    /// replay sees it.  Emitted samples are deduplicated against replays
    /// via `last_sampled`.
    fn run_blocks_observed<R: RngCore + Clone, O: Observer>(
        &mut self,
        max_steps: u64,
        rng: &mut R,
        stop_width: u32,
        stride: u64,
        obs: &mut O,
    ) -> RunStatus {
        if !O::ENABLED {
            return self.run_blocks(max_steps, rng, stop_width);
        }
        assert!(stride > 0, "stride must be positive");
        let start = Instant::now();
        let mut dw_off = self.degree_weighted_off_sum();
        obs.on_start(&self.telemetry_sample_at(self.steps, dw_off));
        if self.state.width() <= stop_width {
            obs.on_finish(
                &self.telemetry_sample_at(self.steps, dw_off),
                start.elapsed(),
            );
            return self.status();
        }
        let mut next_phase = self.first_pending_phase();
        let block = (self.state.opinions.len() as u64).max(1024);
        let mut snap = Vec::new();
        let mut remaining = max_steps;
        let mut last_sampled = self.steps;
        while remaining > 0 {
            let b = block.min(remaining);
            snap.clone_from(&self.state.opinions);
            let snap_rng = rng.clone();
            let snap_dw = dw_off;
            let mut done = 0u64;
            while done < b {
                let to_boundary = stride - (self.steps + done) % stride;
                let sub = to_boundary.min(b - done);
                for _ in 0..sub {
                    let (v, w) = self.sampler.pick(self.graph, rng);
                    let before = self.state.sum_off;
                    self.state.apply(v, w);
                    dw_off += (self.state.sum_off - before) * self.graph.degree(v) as i64;
                }
                done += sub;
                let width = self.state.width();
                let phase_hit = next_phase < PHASES.len() && width <= PHASES[next_phase].0;
                if width <= stop_width || phase_hit {
                    // The crossing is inside the block: rewind to the
                    // block snapshot and replay the identical RNG stream
                    // stepwise to locate its exact step.
                    self.state.opinions.copy_from_slice(&snap);
                    self.state.recount();
                    *rng = snap_rng.clone();
                    dw_off = snap_dw;
                    let base_steps = self.steps;
                    for i in 1..=done {
                        let (v, w) = self.sampler.pick(self.graph, rng);
                        let before = self.state.sum_off;
                        self.state.apply(v, w);
                        dw_off += (self.state.sum_off - before) * self.graph.degree(v) as i64;
                        let step_no = base_steps + i;
                        let w_now = self.state.width();
                        while next_phase < PHASES.len() && w_now <= PHASES[next_phase].0 {
                            obs.on_phase(&PhaseEvent {
                                phase: PHASES[next_phase].1,
                                step: step_no,
                            });
                            next_phase += 1;
                        }
                        if w_now <= stop_width {
                            self.steps = step_no;
                            obs.on_finish(
                                &self.telemetry_sample_at(self.steps, dw_off),
                                start.elapsed(),
                            );
                            return self.status();
                        }
                        if step_no.is_multiple_of(stride) && step_no > last_sampled {
                            last_sampled = step_no;
                            obs.on_sample(&self.telemetry_sample_at(step_no, dw_off));
                        }
                    }
                    // The stop predicate did not fire, so the hit was a
                    // phase crossing only (now emitted); the replay has
                    // advanced state and RNG back to the sub-block end.
                } else if (self.steps + done).is_multiple_of(stride) {
                    last_sampled = self.steps + done;
                    obs.on_sample(&self.telemetry_sample_at(last_sampled, dw_off));
                }
            }
            self.steps += b;
            remaining -= b;
        }
        obs.on_finish(
            &self.telemetry_sample_at(self.steps, dw_off),
            start.elapsed(),
        );
        RunStatus::StepLimit { steps: self.steps }
    }

    /// The index into [`PHASES`] of the first phase this state has not
    /// yet entered (phases already satisfied at run start emit no event).
    fn first_pending_phase(&self) -> usize {
        let width = self.state.width();
        PHASES
            .iter()
            .position(|&(t, _)| width > t)
            .unwrap_or(PHASES.len())
    }

    /// `Σ_v d(v)·(X_v − base)` by an `O(n)` scan — the one-off seed for
    /// the incrementally maintained degree-weighted sum of observed runs.
    fn degree_weighted_off_sum(&self) -> i64 {
        self.state
            .opinions
            .iter()
            .enumerate()
            .map(|(v, &off)| self.graph.degree(v) as i64 * off as i64)
            .sum()
    }

    /// Builds the telemetry sample for an explicit step count (the block
    /// engine advances `self.steps` only at block granularity).
    fn telemetry_sample_at(&self, step: u64, dw_off: i64) -> TelemetrySample {
        let n = self.state.opinions.len();
        let two_m = self.graph.total_degree() as i64;
        // Σ_v d(v)·X_v = base·2m + dw_off; matches OpinionState::z_weight.
        let dws = self.base * two_m + dw_off;
        // Scanning the live count cells costs O(span); on a span wider
        // than n, counting the n opinions themselves is cheaper.
        let (lo, hi) = (self.state.lo as usize, self.state.hi as usize);
        let distinct = if hi - lo < n {
            self.state.counts[lo..=hi]
                .iter()
                .filter(|&&c| c > 0)
                .count()
        } else {
            let mut held = self.state.opinions.clone();
            held.sort_unstable();
            held.dedup();
            held.len()
        };
        TelemetrySample {
            step,
            sum: self.sum(),
            z_weight: n as f64 * (dws as f64 / two_m as f64),
            min: self.min_opinion(),
            max: self.max_opinion(),
            distinct,
        }
    }

    /// `d(A_i)` for `opinion`, by an `O(n)` scan (only needed once, at `τ`).
    fn degree_mass_of(&self, opinion: i64) -> u64 {
        let off = (opinion - self.base) as u32;
        self.state
            .opinions
            .iter()
            .enumerate()
            .filter(|&(_, &o)| o == off)
            .map(|(v, _)| self.graph.degree(v) as u64)
            .sum()
    }

    /// The block engine.  `stop_width` is 0 (consensus) or 1 (two
    /// adjacent); both predicates are monotone along DIV trajectories, so
    /// checking only at block boundaries and replaying the hitting block
    /// from its snapshot reproduces the exact stepwise semantics.
    fn run_blocks<R: RngCore + Clone>(
        &mut self,
        max_steps: u64,
        rng: &mut R,
        stop_width: u32,
    ) -> RunStatus {
        if self.state.width() <= stop_width {
            return self.status();
        }
        // The snapshot is the opinions alone (O(n) per block, amortised
        // O(1) per step); `counts` is span-sized, so a rewind rebuilds it
        // once instead of every block copying it.
        let block = (self.state.opinions.len() as u64).max(1024);
        let mut snap = Vec::new();
        let mut remaining = max_steps;
        while remaining > 0 {
            let b = block.min(remaining);
            snap.clone_from(&self.state.opinions);
            let snap_rng = rng.clone();
            for _ in 0..b {
                let (v, w) = self.sampler.pick(self.graph, rng);
                self.state.apply(v, w);
            }
            if self.state.width() <= stop_width {
                // The first hit is inside this block: rewind and replay
                // the identical RNG stream with per-step checks.
                self.state.opinions.copy_from_slice(&snap);
                self.state.recount();
                *rng = snap_rng;
                for _ in 0..b {
                    let (v, w) = self.sampler.pick(self.graph, rng);
                    self.state.apply(v, w);
                    self.steps += 1;
                    if self.state.width() <= stop_width {
                        return self.status();
                    }
                }
                unreachable!("stop held at block end but not in replay");
            }
            self.steps += b;
            remaining -= b;
        }
        RunStatus::StepLimit { steps: self.steps }
    }

    /// The stopped-state classification at the current instant.
    fn status(&self) -> RunStatus {
        if self.is_consensus() {
            RunStatus::Consensus {
                opinion: self.min_opinion(),
                steps: self.steps,
            }
        } else if self.is_two_adjacent() {
            RunStatus::TwoAdjacent {
                low: self.min_opinion(),
                high: self.max_opinion(),
                steps: self.steps,
            }
        } else {
            RunStatus::StepLimit { steps: self.steps }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{init, FastRng};
    use div_graph::generators;
    use rand::SeedableRng;
    use std::collections::HashSet;

    #[test]
    fn bounded_u64_is_in_range_and_covers() {
        let mut rng = FastRng::seed_from_u64(0);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let x = bounded_u64(&mut rng, 7);
            assert!(x < 7);
            seen[x as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn bounded_u32_half_is_in_range() {
        let mut rng = FastRng::seed_from_u64(1);
        for _ in 0..1000 {
            let word = rng.next_u64();
            if let Some(x) = bounded_u32_half(word as u32, 13) {
                assert!(x < 13);
            }
        }
    }

    /// Chi-squared uniformity statistic over `range` cells for `draws`
    /// Lemire draws, compared against the Wilson–Hilferty approximation
    /// of the `α = 0.001` critical value (exact enough for df ≥ 2).
    fn chi_square_bounded_u64(seed: u64, range: u64, draws: u64) {
        let mut rng = FastRng::seed_from_u64(seed);
        let mut counts = vec![0u64; range as usize];
        for _ in 0..draws {
            counts[bounded_u64(&mut rng, range) as usize] += 1;
        }
        let expected = draws as f64 / range as f64;
        let stat: f64 = counts
            .iter()
            .map(|&c| {
                let d = c as f64 - expected;
                d * d / expected
            })
            .sum();
        let df = (range - 1) as f64;
        // Wilson–Hilferty: χ²_α ≈ df·(1 − 2/(9df) + z_α·√(2/(9df)))³ with
        // z_0.001 = 3.0902.
        let h = 2.0 / (9.0 * df);
        let critical = df * (1.0 - h + 3.0902 * h.sqrt()).powi(3);
        assert!(
            stat < critical,
            "range {range}: chi² {stat:.1} ≥ critical {critical:.1} — modulo bias?"
        );
    }

    /// Modulo-bias guard: spans that do not divide 2⁶⁴ must stay uniform
    /// under Lemire's exact rejection.  3 and 5 exercise the tiny-range
    /// fast path (rejection probability ≈ range/2⁶⁴ ≈ 0), 1000003 (prime)
    /// exercises a range whose naive `% range` bias would be detectable.
    #[test]
    fn chi_square_accepts_lemire_on_non_dividing_spans() {
        chi_square_bounded_u64(0xD1CE_0001, 3, 60_000);
        chi_square_bounded_u64(0xD1CE_0002, 5, 100_000);
        chi_square_bounded_u64(0xD1CE_0003, 1_000_003, 10_000_030);
    }

    #[test]
    fn bounded_u64_unbiased_on_awkward_span() {
        // Span 3 does not divide 2⁶⁴; exact rejection keeps it uniform.
        let mut rng = FastRng::seed_from_u64(2);
        let mut counts = [0u64; 3];
        let n = 300_000;
        for _ in 0..n {
            counts[bounded_u64(&mut rng, 3) as usize] += 1;
        }
        for &c in &counts {
            let f = c as f64 / n as f64;
            assert!((f - 1.0 / 3.0).abs() < 0.005, "freq {f}");
        }
    }

    #[test]
    fn alias_table_masses_match_degrees() {
        // Decode the packed table and check each vertex's total mass is
        // n·d(v)/2m of the table, to within the 2⁻³² packing error.
        let g = generators::double_star(3, 5).unwrap();
        let slots = packed_alias_table(&g);
        let n = g.num_vertices();
        let mut mass = vec![0.0f64; n];
        const ONE: f64 = 4294967296.0;
        for (i, &slot) in slots.iter().enumerate() {
            let p = ((slot >> 32) as u32) as f64 / ONE;
            let a = (slot as u32) as usize;
            if a == i {
                // Self-alias: the slot keeps itself regardless of the draw.
                mass[i] += 1.0;
            } else {
                mass[i] += p;
                mass[a] += 1.0 - p;
            }
        }
        for (v, &m) in mass.iter().enumerate() {
            let expect = g.degree(v) as f64 * n as f64 / g.total_degree() as f64;
            assert!(
                (m - expect).abs() < 1e-6,
                "vertex {v}: mass {m} vs {expect}"
            );
        }
    }

    /// Checks the process's compiled sampler against the claimed pair law
    /// with the same chi-squared bar as the reference schedulers.
    fn check_sampler(p: &FastProcess<'_>, seed: u64, expected: impl Fn(usize, usize) -> f64) {
        let mut rng = FastRng::seed_from_u64(seed);
        crate::test_util::check_pair_distribution(
            p.graph(),
            || p.sample_pair(&mut rng),
            expected,
            200_000,
        );
    }

    #[test]
    fn vertex_sampler_distribution_on_star() {
        // Star is not complete (for n ≥ 3), so this exercises the general
        // CSR path, not the CompletePair shortcut.
        let g = generators::star(6).unwrap();
        let p = FastProcess::new(&g, vec![0; 6], FastScheduler::Vertex).unwrap();
        assert!(matches!(p.sampler, CompiledSampler::Vertex { .. }));
        let n = g.num_vertices() as f64;
        check_sampler(&p, 10, |v, w| {
            if g.has_edge(v, w) {
                1.0 / (n * g.degree(v) as f64)
            } else {
                0.0
            }
        });
    }

    #[test]
    fn edge_sampler_distribution_on_double_star() {
        let g = generators::double_star(2, 4).unwrap();
        let p = FastProcess::new(&g, vec![0; g.num_vertices()], FastScheduler::Edge).unwrap();
        assert!(matches!(p.sampler, CompiledSampler::Edge { .. }));
        let two_m = 2.0 * g.num_edges() as f64;
        check_sampler(
            &p,
            11,
            |v, w| {
                if g.has_edge(v, w) {
                    1.0 / two_m
                } else {
                    0.0
                }
            },
        );
    }

    #[test]
    fn alias_sampler_distribution_on_double_star() {
        let g = generators::double_star(2, 4).unwrap();
        let p = FastProcess::new(&g, vec![0; g.num_vertices()], FastScheduler::EdgeAlias).unwrap();
        assert!(matches!(p.sampler, CompiledSampler::Alias { .. }));
        let two_m = 2.0 * g.num_edges() as f64;
        check_sampler(
            &p,
            12,
            |v, w| {
                if g.has_edge(v, w) {
                    1.0 / two_m
                } else {
                    0.0
                }
            },
        );
    }

    #[test]
    fn complete_pair_sampler_distribution() {
        // On K_n both processes compile to the closed-form pair sampler,
        // and 1/(n·d(v)) = 1/2m = 1/(n(n−1)) agree.
        let g = generators::complete(7).unwrap();
        let uniform = 1.0 / (7.0 * 6.0);
        for kind in [FastScheduler::Vertex, FastScheduler::Edge] {
            let p = FastProcess::new(&g, vec![0; 7], kind).unwrap();
            assert!(matches!(p.sampler, CompiledSampler::CompletePair { .. }));
            check_sampler(&p, 13, |v, w| if v == w { 0.0 } else { uniform });
        }
    }

    #[test]
    fn vertex_family_follows_the_degree_sequence() {
        let family = |g: &Graph, kind| CompiledSampler::compile(g, kind);
        // Irregular graphs keep the CSR-offset family.
        for g in [
            generators::star(6).unwrap(),
            generators::wheel(9).unwrap(),
            generators::path(7).unwrap(),
        ] {
            assert!(matches!(
                family(&g, FastScheduler::Vertex),
                CompiledSampler::Vertex { .. }
            ));
        }
        // Constant degree compiles to the one-load family, except K_n,
        // whose closed-form pair sampler takes precedence.
        let g = generators::circulant(12, &[1, 4]).unwrap();
        assert!(matches!(
            family(&g, FastScheduler::Vertex),
            CompiledSampler::RegularVertex { n: 12, d: 4 }
        ));
        assert!(matches!(
            family(&g, FastScheduler::Edge),
            CompiledSampler::Edge { .. }
        ));
        for n in [2, 3, 7] {
            let g = generators::complete(n).unwrap();
            assert!(matches!(
                family(&g, FastScheduler::Vertex),
                CompiledSampler::CompletePair { .. }
            ));
        }
    }

    #[test]
    fn regular_vertex_sampler_distribution() {
        let g = generators::circulant(11, &[1, 3]).unwrap();
        let p = FastProcess::new(&g, vec![0; 11], FastScheduler::Vertex).unwrap();
        assert!(matches!(p.sampler, CompiledSampler::RegularVertex { .. }));
        check_sampler(&p, 14, |v, w| {
            if g.has_edge(v, w) {
                1.0 / (11.0 * 4.0)
            } else {
                0.0
            }
        });
    }

    /// A constant-degree graph chosen by an index: random regular,
    /// cycle, circulant, hypercube or torus (never complete).
    fn constant_degree_graph(pick: u8, size: usize, seed: u64) -> Graph {
        let n = size.max(10);
        match pick % 5 {
            0 => {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let d = 3 + (seed % 5) as usize;
                let n = if (n * d).is_multiple_of(2) { n } else { n + 1 };
                generators::random_regular(n, d, &mut rng).unwrap()
            }
            1 => generators::cycle(n).unwrap(),
            2 => generators::circulant(n, &[1, 2, 3][..1 + (seed % 3) as usize]).unwrap(),
            3 => generators::hypercube(2 + (seed % 6) as u32).unwrap(),
            _ => generators::torus2d(3 + size % 5, 3 + (seed % 7) as usize).unwrap(),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(16))]

        /// The constant-degree family draws exactly the pair stream of a
        /// naive `degree`/`neighbor` vertex sampler with the same word
        /// discipline, and leaves the RNG at the same position.
        #[test]
        fn regular_vertex_pick_matches_naive_csr_draws(
            pick in proptest::prelude::any::<u8>(),
            size in 8usize..120,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let g = constant_degree_graph(pick, size, seed);
            let n = g.num_vertices() as u32;
            let p = FastProcess::new(&g, vec![0; n as usize], FastScheduler::Vertex).unwrap();
            proptest::prop_assert!(matches!(p.sampler, CompiledSampler::RegularVertex { .. }));
            let mut fast = FastRng::seed_from_u64(seed);
            let mut naive = FastRng::seed_from_u64(seed);
            for _ in 0..100_000 {
                let expect = loop {
                    let word = naive.next_u64();
                    let Some(v) = bounded_u32_half((word >> 32) as u32, n) else {
                        continue;
                    };
                    let v = v as usize;
                    let Some(slot) = bounded_u32_half(word as u32, g.degree(v) as u32) else {
                        continue;
                    };
                    break (v, g.neighbor(v, slot as usize));
                };
                proptest::prop_assert_eq!(p.sample_pair(&mut fast), expect);
            }
            proptest::prop_assert_eq!(fast, naive);
        }
    }

    #[test]
    fn wide_span_block_runs_match_the_batch_engine() {
        // A span of 16 000 001 on K_16: the block engine's snapshot must
        // not scale with the span (it once copied `counts` every block),
        // and the fast engine must still agree with the batch engine.
        let g = generators::complete(16).unwrap();
        let opinions = init::blocks(&[(0, 8), (16_000_000, 8)]).unwrap();
        let seeds = [3, 4];
        let mut batch =
            crate::BatchProcess::new(&g, opinions.clone(), FastScheduler::Vertex, &seeds).unwrap();
        let statuses = batch.run_to_consensus(200_000);
        for (l, &seed) in seeds.iter().enumerate() {
            let mut p = FastProcess::new(&g, opinions.clone(), FastScheduler::Vertex).unwrap();
            let mut rng = FastRng::seed_from_u64(seed);
            let status = p.run_to_consensus(200_000, &mut rng);
            assert_eq!(status, RunStatus::StepLimit { steps: 200_000 });
            assert_eq!(statuses[l], status);
            assert_eq!(batch.opinions_of(l), p.opinions());
        }
    }

    #[test]
    fn fast_matches_reference_on_k_n() {
        let g = generators::complete(60).unwrap();
        let opinions = init::blocks(&[(1, 30), (5, 30)]).unwrap();
        let mut rng = FastRng::seed_from_u64(1);
        let mut p = FastProcess::new(&g, opinions, FastScheduler::Edge).unwrap();
        let status = p.run_to_consensus(10_000_000, &mut rng);
        assert_eq!(status.consensus_opinion(), Some(3));
        assert!(p.is_consensus());
        assert_eq!(p.sum(), 3 * 60);
        assert_eq!(p.steps(), status.steps());
    }

    #[test]
    fn zero_step_stop_semantics_match_reference() {
        let g = generators::complete(10).unwrap();
        let mut rng = FastRng::seed_from_u64(2);
        let mut p = FastProcess::new(&g, vec![4; 10], FastScheduler::Vertex).unwrap();
        assert_eq!(
            p.run_to_consensus(1000, &mut rng),
            RunStatus::Consensus {
                opinion: 4,
                steps: 0
            }
        );
    }

    #[test]
    fn step_limit_is_exact() {
        let g = generators::path(50).unwrap();
        let mut rng = FastRng::seed_from_u64(3);
        let opinions = init::spread(50, 5).unwrap();
        let mut p = FastProcess::new(&g, opinions, FastScheduler::Vertex).unwrap();
        let status = p.run_to_consensus(10, &mut rng);
        assert_eq!(status, RunStatus::StepLimit { steps: 10 });
        assert_eq!(p.steps(), 10);
        // An odd, non-block-aligned budget also lands exactly.
        let status = p.run_to_consensus(1537, &mut rng);
        assert_eq!(status.steps(), 1547);
    }

    #[test]
    fn block_size_does_not_change_first_hit_step() {
        // Same seed, same graph: the step count at τ must be identical
        // whether found by the block engine or by naive stepping, because
        // the block replay reproduces the exact stepwise semantics.
        let g = generators::complete(40).unwrap();
        let opinions = init::spread(40, 8).unwrap();

        let mut rng = FastRng::seed_from_u64(4);
        let mut fast = FastProcess::new(&g, opinions.clone(), FastScheduler::Edge).unwrap();
        let fast_status = fast.run_to_two_adjacent(10_000_000, &mut rng);

        // Naive replay: one sampler draw per step from the same stream.
        let mut rng = FastRng::seed_from_u64(4);
        let mut naive = FastProcess::new(&g, opinions, FastScheduler::Edge).unwrap();
        let mut steps = 0u64;
        while !naive.is_two_adjacent() {
            let (v, w) = naive.sample_pair(&mut rng);
            naive.state.apply(v, w);
            steps += 1;
        }
        assert_eq!(fast_status.steps(), steps);
        assert_eq!(fast.min_opinion(), naive.min_opinion());
        assert_eq!(fast.opinions(), naive.opinions());
    }

    #[test]
    fn fast_state_aggregates_stay_exact() {
        let g = generators::wheel(20).unwrap();
        let mut rng = FastRng::seed_from_u64(5);
        let opinions = init::uniform_random(20, 9, &mut rng).unwrap();
        let mut p = FastProcess::new(&g, opinions, FastScheduler::Vertex).unwrap();
        for _ in 0..2000 {
            let (v, w) = p.sample_pair(&mut rng);
            p.state.apply(v, w);
            // Cross-check against the exhaustively validated OpinionState.
            p.opinion_state().check_invariants();
            let expect_sum: i64 = p.opinions().iter().sum();
            assert_eq!(p.sum(), expect_sum);
            if p.is_consensus() {
                break;
            }
        }
    }

    #[test]
    fn analytic_finish_returns_floor_or_ceil() {
        let g = generators::complete(50).unwrap();
        let mut rng = FastRng::seed_from_u64(6);
        let opinions = init::spread(50, 6).unwrap();
        let c = init::average(&opinions);
        let mut p = FastProcess::new(&g, opinions, FastScheduler::Edge).unwrap();
        let status = p.run_with_policy(10_000_000, &mut rng, FinishPolicy::AnalyticTwoAdjacent);
        let w = status.consensus_opinion().expect("analytic finish decides");
        assert!(w == c.floor() as i64 || w == c.ceil() as i64, "winner {w}");
        // The internal state is left at τ, not simulated to consensus.
        assert!(p.is_two_adjacent());
    }

    #[test]
    fn analytic_finish_on_already_stopped_state() {
        let g = generators::complete(8).unwrap();
        let mut rng = FastRng::seed_from_u64(7);
        let mut p = FastProcess::new(&g, vec![2; 8], FastScheduler::Edge).unwrap();
        let status = p.run_with_policy(100, &mut rng, FinishPolicy::AnalyticTwoAdjacent);
        assert_eq!(
            status,
            RunStatus::Consensus {
                opinion: 2,
                steps: 0
            }
        );
    }

    #[test]
    fn accessors_and_labels() {
        let g = generators::complete(6).unwrap();
        let p = FastProcess::new(&g, vec![1, 1, 2, 2, 3, 3], FastScheduler::EdgeAlias).unwrap();
        assert_eq!(p.scheduler(), FastScheduler::EdgeAlias);
        assert_eq!(p.scheduler().label(), "edge(alias)");
        assert_eq!(p.scheduler().selection_bias(), SelectionBias::Stationary);
        assert_eq!(FastScheduler::Vertex.label(), "vertex");
        assert_eq!(FastScheduler::Edge.label(), "edge");
        assert_eq!(
            FastScheduler::Vertex.selection_bias(),
            SelectionBias::UniformVertex
        );
        assert_eq!(p.count(1), 2);
        assert_eq!(p.count(99), 0);
        assert_eq!(p.min_opinion(), 1);
        assert_eq!(p.max_opinion(), 3);
        assert_eq!(p.sum(), 12);
        assert_eq!(p.graph().num_vertices(), 6);
        assert!(!p.is_consensus());
        assert!(!p.is_two_adjacent());
        assert_eq!(p.opinions(), vec![1, 1, 2, 2, 3, 3]);
    }

    #[test]
    fn construction_propagates_state_errors() {
        let g = generators::complete(3).unwrap();
        assert!(FastProcess::new(&g, vec![], FastScheduler::Edge).is_err());
        assert!(FastProcess::new(&g, vec![1], FastScheduler::Edge).is_err());
    }

    #[test]
    fn apply_observed_handles_range_reexpansion() {
        let g = generators::complete(4).unwrap();
        let mut p = FastProcess::new(&g, vec![0, 4, 2, 2], FastScheduler::Edge).unwrap();
        // Shrink the live range to {2} first.
        p.state.apply_observed(0, 2);
        p.state.apply_observed(0, 2);
        p.state.apply_observed(1, 2);
        p.state.apply_observed(1, 2);
        assert!(p.is_consensus());
        assert_eq!((p.min_opinion(), p.max_opinion()), (2, 2));
        // A noisy observation drags vertex 0 back below the live range.
        p.state.apply_observed(0, 0);
        assert_eq!((p.min_opinion(), p.max_opinion()), (1, 2));
        assert!(!p.is_consensus());
        assert_eq!(p.sum(), 1 + 2 + 2 + 2);
        p.opinion_state().check_invariants();
        // And past the top boundary too.
        p.state.apply_observed(2, 4);
        p.state.apply_observed(2, 4);
        assert_eq!((p.min_opinion(), p.max_opinion()), (1, 4));
        p.opinion_state().check_invariants();
    }

    #[test]
    fn trivial_fault_plan_matches_clean_engine_exactly() {
        use crate::FaultPlan;
        let g = generators::complete(40).unwrap();
        let opinions = init::spread(40, 6).unwrap();
        let mut clean = FastProcess::new(&g, opinions.clone(), FastScheduler::Edge).unwrap();
        let mut faulty = FastProcess::new(&g, opinions.clone(), FastScheduler::Edge).unwrap();
        let mut session = FaultPlan::none().session(&opinions).unwrap();
        let mut rc = FastRng::seed_from_u64(20);
        let mut rf = FastRng::seed_from_u64(20);
        let status = clean.run_to_consensus(10_000_000, &mut rc);
        let faulty_status = faulty.run_faulty_to_consensus(10_000_000, &mut session, &mut rf);
        assert_eq!(status, faulty_status);
        assert_eq!(clean.opinions(), faulty.opinions());
        assert_eq!(session.stats().delivered, status.steps());
    }

    #[test]
    fn stubborn_bloc_pins_consensus_to_its_value() {
        use crate::FaultPlan;
        // A stubborn sixth of K_60 at opinion 9 versus a majority at 1:
        // fault-free DIV would settle near the mean (≈ 2.3); stubborn
        // vertices drag everyone to 9 instead.
        let g = generators::complete(60).unwrap();
        let mut opinions = vec![1i64; 60];
        for o in opinions.iter_mut().take(10) {
            *o = 9;
        }
        let plan = FaultPlan::parse("stubborn:10").unwrap();
        let mut session = plan.session(&opinions).unwrap();
        let mut p = FastProcess::new(&g, opinions, FastScheduler::Edge).unwrap();
        let mut rng = FastRng::seed_from_u64(21);
        let status = p.run_faulty_to_consensus(100_000_000, &mut session, &mut rng);
        assert_eq!(status.consensus_opinion(), Some(9));
    }

    #[test]
    fn observed_run_matches_plain_run_exactly() {
        use crate::RingRecorder;
        let g = generators::complete(40).unwrap();
        let opinions = init::spread(40, 8).unwrap();

        let mut plain = FastProcess::new(&g, opinions.clone(), FastScheduler::Edge).unwrap();
        let mut rng = FastRng::seed_from_u64(40);
        let plain_status = plain.run_to_consensus(10_000_000, &mut rng);

        let mut observed = FastProcess::new(&g, opinions.clone(), FastScheduler::Edge).unwrap();
        let mut rng = FastRng::seed_from_u64(40);
        let mut rec = RingRecorder::new(1 << 20);
        let observed_status = observed.run_observed(10_000_000, &mut rng, 64, &mut rec);

        assert_eq!(plain_status, observed_status);
        assert_eq!(plain.opinions(), observed.opinions());
        assert_eq!(rec.consensus_step(), Some(plain_status.steps()));

        // The τ event matches a third twin run stopped at τ.
        let mut tau = FastProcess::new(&g, opinions, FastScheduler::Edge).unwrap();
        let mut rng = FastRng::seed_from_u64(40);
        let tau_status = tau.run_to_two_adjacent(10_000_000, &mut rng);
        assert_eq!(rec.two_adjacent_step(), Some(tau_status.steps()));
    }

    #[test]
    fn observed_phase_events_match_naive_stepping() {
        use crate::{Phase, RingRecorder};
        let g = generators::complete(40).unwrap();
        let opinions = init::spread(40, 8).unwrap();

        let mut observed = FastProcess::new(&g, opinions.clone(), FastScheduler::Edge).unwrap();
        let mut rng = FastRng::seed_from_u64(41);
        let mut rec = RingRecorder::new(1 << 20);
        observed.run_observed(10_000_000, &mut rng, 64, &mut rec);

        // Naive replay of the identical stream, checking widths per step.
        let mut naive = FastProcess::new(&g, opinions, FastScheduler::Edge).unwrap();
        let mut rng = FastRng::seed_from_u64(41);
        let mut steps = 0u64;
        let (mut naive_tau, mut naive_consensus) = (None, None);
        while !naive.is_consensus() {
            let (v, w) = naive.sample_pair(&mut rng);
            naive.state.apply(v, w);
            steps += 1;
            if naive_tau.is_none() && naive.is_two_adjacent() {
                naive_tau = Some(steps);
            }
            if naive.is_consensus() {
                naive_consensus = Some(steps);
            }
        }
        assert_eq!(
            rec.phases()
                .iter()
                .map(|e| (e.phase, e.step))
                .collect::<Vec<_>>(),
            vec![
                (Phase::TwoAdjacent, naive_tau.unwrap()),
                (Phase::Consensus, naive_consensus.unwrap())
            ]
        );
    }

    #[test]
    fn observed_samples_are_stride_decimations() {
        use crate::RingRecorder;
        // Samples at stride 64 must be exactly the stride-1 samples
        // restricted to the 64-lattice: sampling never perturbs the run.
        let g = generators::complete(40).unwrap();
        let opinions = init::spread(40, 8).unwrap();

        let mut fine = RingRecorder::new(1 << 20);
        let mut p1 = FastProcess::new(&g, opinions.clone(), FastScheduler::Vertex).unwrap();
        let mut rng = FastRng::seed_from_u64(42);
        p1.run_observed(20_000, &mut rng, 1, &mut fine);

        let mut coarse = RingRecorder::new(1 << 20);
        let mut p64 = FastProcess::new(&g, opinions, FastScheduler::Vertex).unwrap();
        let mut rng = FastRng::seed_from_u64(42);
        p64.run_observed(20_000, &mut rng, 64, &mut coarse);

        assert_eq!(fine.decimation_factor(), 1, "capacity must not decimate");
        let on_lattice: Vec<_> = fine
            .samples()
            .iter()
            .filter(|s| s.step.is_multiple_of(64))
            .copied()
            .collect();
        assert_eq!(on_lattice, coarse.samples().to_vec());
        assert!(coarse.samples().len() > 2);

        // Spot-check the incremental Z against the O(n) reference rebuild.
        let last = coarse.final_sample().unwrap();
        let state = p64.opinion_state();
        assert_eq!(last.sum, state.sum());
        assert!((last.z_weight - state.z_weight()).abs() < 1e-9);
        assert_eq!(last.distinct, state.distinct_count());
    }

    #[test]
    fn sampled_distinct_matches_a_naive_count() {
        use crate::RingRecorder;
        // A narrow span, where the live count cells are scanned, and a
        // span of 16 000 001 on 16 vertices, where the opinions are
        // counted instead (a scan of the count cells per sample once
        // made observed wide-span runs crawl).
        let g = generators::complete(16).unwrap();
        let narrow = init::spread(16, 5).unwrap();
        let wide = init::blocks(&[(0, 8), (16_000_000, 8)]).unwrap();
        for opinions in [narrow, wide] {
            let mut observed =
                FastProcess::new(&g, opinions.clone(), FastScheduler::Vertex).unwrap();
            let mut rec = RingRecorder::new(1 << 16);
            observed.run_observed(5_000, &mut FastRng::seed_from_u64(6), 1, &mut rec);

            let distinct = |ops: Vec<i64>| ops.into_iter().collect::<HashSet<_>>().len();
            let mut naive = FastProcess::new(&g, opinions, FastScheduler::Vertex).unwrap();
            let mut rng = FastRng::seed_from_u64(6);
            let mut want = vec![distinct(naive.opinions())];
            for _ in 0..5_000 {
                let (v, w) = naive.sample_pair(&mut rng);
                naive.state.apply(v, w);
                want.push(distinct(naive.opinions()));
            }
            let samples: Vec<_> = rec.samples().iter().chain(rec.final_sample()).collect();
            assert!(samples.len() > 100);
            for s in samples {
                assert_eq!(s.distinct, want[s.step as usize], "step {}", s.step);
            }
        }
    }

    #[test]
    fn null_observer_is_bit_identical_to_plain_run() {
        use crate::NullObserver;
        let g = generators::complete(40).unwrap();
        let opinions = init::spread(40, 6).unwrap();

        let mut plain = FastProcess::new(&g, opinions.clone(), FastScheduler::Edge).unwrap();
        let mut rng_a = FastRng::seed_from_u64(43);
        let sa = plain.run_to_consensus(10_000_000, &mut rng_a);

        let mut nulled = FastProcess::new(&g, opinions, FastScheduler::Edge).unwrap();
        let mut rng_b = FastRng::seed_from_u64(43);
        let sb = nulled.run_observed(10_000_000, &mut rng_b, 64, &mut NullObserver);

        assert_eq!(sa, sb);
        assert_eq!(plain.opinions(), nulled.opinions());
        // Identical downstream RNG stream: no draw was added or lost.
        assert_eq!(rng_a.next_u64(), rng_b.next_u64());
    }

    #[test]
    fn observed_run_from_stopped_state_emits_only_start_and_finish() {
        use crate::RingRecorder;
        let g = generators::complete(8).unwrap();
        let mut p = FastProcess::new(&g, vec![3; 8], FastScheduler::Edge).unwrap();
        let mut rng = FastRng::seed_from_u64(44);
        let mut rec = RingRecorder::new(16);
        let status = p.run_observed(1000, &mut rng, 8, &mut rec);
        assert_eq!(status.steps(), 0);
        assert!(rec.phases().is_empty(), "pre-satisfied phases emit nothing");
        assert_eq!(rec.samples().len(), 1); // the initial sample
        assert_eq!(rec.final_sample().unwrap().step, 0);
    }

    #[test]
    fn faulty_observed_run_reports_fault_stats_and_phases() {
        use crate::{FaultPlan, Phase, RingRecorder};
        let g = generators::complete(50).unwrap();
        let opinions = init::spread(50, 5).unwrap();
        let plan = FaultPlan::parse("drop:0.3").unwrap();
        let mut session = plan.session(&opinions).unwrap();
        let mut p = FastProcess::new(&g, opinions, FastScheduler::Edge).unwrap();
        let mut rng = FastRng::seed_from_u64(45);
        let mut rec = RingRecorder::new(1 << 16);
        let status = p.run_faulty_observed(10_000_000, &mut session, &mut rng, 64, &mut rec);
        assert!(status.consensus_opinion().is_some());
        let stats = rec.fault_stats().expect("faulty runs surface counters");
        assert!(stats.dropped > 0);
        assert_eq!(stats, session.stats());
        assert_eq!(rec.consensus_step(), Some(status.steps()));
        assert_eq!(
            rec.phases().first().map(|e| e.phase),
            Some(Phase::TwoAdjacent)
        );
        // Samples sit on the stride lattice and the run was timed.
        assert!(rec.samples()[1..].iter().all(|s| s.step.is_multiple_of(64)));
        assert!(rec.elapsed().is_some());
    }

    #[test]
    fn faulty_observed_with_trivial_plan_matches_clean_observed() {
        use crate::{FaultPlan, RingRecorder};
        let g = generators::complete(40).unwrap();
        let opinions = init::spread(40, 6).unwrap();

        let mut clean_rec = RingRecorder::new(1 << 16);
        let mut clean = FastProcess::new(&g, opinions.clone(), FastScheduler::Edge).unwrap();
        let mut rng = FastRng::seed_from_u64(46);
        let clean_status = clean.run_observed(10_000_000, &mut rng, 64, &mut clean_rec);

        let mut faulty_rec = RingRecorder::new(1 << 16);
        let mut session = FaultPlan::none().session(&opinions).unwrap();
        let mut faulty = FastProcess::new(&g, opinions, FastScheduler::Edge).unwrap();
        let mut rng = FastRng::seed_from_u64(46);
        let faulty_status =
            faulty.run_faulty_observed(10_000_000, &mut session, &mut rng, 64, &mut faulty_rec);

        assert_eq!(clean_status, faulty_status);
        assert_eq!(clean_rec.samples(), faulty_rec.samples());
        assert_eq!(clean_rec.phases(), faulty_rec.phases());
    }

    #[test]
    fn negative_opinions_work() {
        let g = generators::complete(20).unwrap();
        let mut rng = FastRng::seed_from_u64(8);
        let opinions = init::blocks(&[(-3, 10), (-1, 10)]).unwrap();
        let mut p = FastProcess::new(&g, opinions, FastScheduler::Edge).unwrap();
        let status = p.run_to_consensus(10_000_000, &mut rng);
        let w = status.consensus_opinion().unwrap();
        assert!((-3..=-1).contains(&w), "winner {w}");
    }
}
