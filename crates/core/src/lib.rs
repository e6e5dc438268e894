//! Discrete incremental voting (DIV) — the asynchronous, mean-seeking
//! opinion dynamic of Cooper, Radzik and Shiraga (PODC 2023 brief
//! announcement; full version *Discrete Incremental Voting on Expanders*).
//!
//! # The process
//!
//! Vertices of a connected graph hold integer opinions from `{1, …, k}`.
//! At each asynchronous step a vertex `v` and a neighbour `w` are chosen
//! (by the [`VertexScheduler`] or the [`EdgeScheduler`]), and `v` moves its
//! opinion **one unit toward** `X_w`:
//!
//! ```text
//! X_v < X_w  ⟹  X_v ← X_v + 1
//! X_v = X_w  ⟹  X_v unchanged
//! X_v > X_w  ⟹  X_v ← X_v − 1
//! ```
//!
//! On expander graphs (`λ·k = o(1)`) the process reaches consensus on
//! `⌊c⌋` or `⌈c⌉`, where `c` is the initial average opinion (degree-
//! weighted for the vertex process) — DIV computes the **mean**, where
//! classic pull voting computes the **mode** and median voting the
//! **median**.
//!
//! # Quick start
//!
//! ```
//! use div_core::{init, DivProcess, EdgeScheduler, RunStatus};
//! use div_graph::generators;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let g = generators::complete(60)?;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! // 30 vertices at opinion 1, 30 at opinion 5: average 3.
//! let opinions = init::blocks(&[(1, 30), (5, 30)])?;
//! let mut process = DivProcess::new(&g, opinions, EdgeScheduler::new())?;
//! match process.run_to_consensus(10_000_000, &mut rng) {
//!     RunStatus::Consensus { opinion, .. } => assert_eq!(opinion, 3),
//!     other => panic!("did not converge: {other:?}"),
//! }
//! # Ok(())
//! # }
//! ```
//!
//! # Crate layout
//!
//! * [`DivProcess`] — the dynamic itself, with `O(1)` steps and exact
//!   integer bookkeeping of every quantity in the paper's lemmas
//!   (`S(t)`, `Z(t)`, `N_i(t)`, `π(A_i(t))`, live opinion range).
//! * [`init`] — initial-opinion constructors.
//! * [`VertexScheduler`] / [`EdgeScheduler`] / [`BiasedVertexScheduler`] —
//!   the paper's two selection rules plus an alias-table reformulation of
//!   the edge process used for ablation.
//! * [`StageLog`] — records the elimination order of extreme opinions (the
//!   `{1,2,5} → … → {3}` traces of the paper's introduction).
//! * [`theory`] — the paper's quantitative predictions: Lemma 5 win
//!   probabilities, the eq. (4) time bound, the Azuma tail (5).
//! * [`FaultPlan`] / [`FaultSession`] — the fault-injection layer (message
//!   drop, observation noise, stale reads, stubborn and crash–recover
//!   vertices), pluggable into both stepping engines.
//! * [`FastProcess`] / [`FastRng`] — the high-throughput stepping engine
//!   (precompiled samplers, block stepping, xoshiro256++) for Monte-Carlo
//!   volume; [`DivProcess`] stays the observable correctness oracle.
//! * [`kernels`] — runtime-dispatched SIMD kernels (AVX2 or scalar,
//!   selected by [`KernelTier`] and overridable via `DIV_KERNELS`)
//!   behind the batch and sharded engines' hot paths; both tiers are
//!   bit-exact against the scalar engine.
//! * [`telemetry`] — zero-cost-when-disabled [`Observer`] hooks threaded
//!   through both engines (`run_observed`): stride samples of `S(t)`/
//!   `Z(t)`/range/distinct count, exact phase-transition events, fault
//!   counters, wall-clock timings; [`RingRecorder`] and the JSONL/CSV
//!   exporters are the built-in sinks.
//! * [`trace`] — the shared reader for exported traces: parses the JSONL
//!   and CSV formats back into [`Trace`] values, so offline tooling
//!   (`divlab analyze`) re-derives the paper's trajectory checks from
//!   disk alone.
//! * [`spans`] — Chrome-trace-event lifecycle spans ([`SpanEvent`],
//!   canonical renderer/parser, deterministic [`span_id`]s) covering
//!   submit → schedule → attempt → outcome → report-write intervals;
//!   the files load directly into Perfetto / `chrome://tracing`.

// Unsafe policy: `unsafe_code` is denied crate-wide and re-allowed only
// in the vector kernel module `kernels::avx2` (plus the dispatchers in
// `kernels` that call into it).  Its entry points are
// `#[target_feature(enable = "avx2")]` functions, called only after the
// runtime feature check passed; its interior unsafety is limited to
// in-bounds vector loads, size-equal transmutes and the lockstep drives'
// unchecked column and edge-table accesses, bounded once per drive by
// `kernels::drive_group`'s entry asserts and per step by an index clamp.
// Unsafe operations inside any `unsafe fn` still require explicit blocks.
#![deny(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

mod batch;
mod engine;
mod error;
mod fault;
pub mod init;
pub mod kernels;
mod process;
mod rng;
mod scheduler;
mod shard;
pub mod spans;
mod stage;
mod state;
mod synchronous;
pub mod telemetry;
#[cfg(test)]
mod test_util;
pub mod theory;
pub mod trace;

pub use batch::{BatchLane, BatchProcess};
pub use engine::{FastProcess, FastScheduler, FinishPolicy};
pub use error::DivError;
pub use fault::{CrashFault, FaultPlan, FaultSession, FaultStats, NoiseFault, StaleFault};
pub use kernels::KernelTier;
pub use process::{DivProcess, RunStatus, StepEvent};
pub use rng::FastRng;
pub use scheduler::{
    BiasedVertexScheduler, EdgeScheduler, Scheduler, SelectionBias, VertexScheduler,
};
pub use shard::{ShardGauge, ShardedProcess};
pub use spans::{
    hex_id, parse_spans, render_spans, span_id, SpanClock, SpanError, SpanEvent, SpanValue,
};
pub use stage::{EliminationEvent, StageLog};
pub use state::OpinionState;
pub use synchronous::SynchronousDiv;
pub use telemetry::{
    CsvExporter, JsonlExporter, NullObserver, Observer, Phase, PhaseEvent, RingRecorder,
    SampledObserver, TelemetrySample,
};
pub use trace::{read_spans, read_trace, Trace, TraceError};

/// Crate-wide result alias.
pub type Result<T, E = DivError> = std::result::Result<T, E>;
