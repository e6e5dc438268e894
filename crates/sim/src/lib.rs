//! Monte-Carlo experiment harness for the DIV reproduction.
//!
//! The experiment binaries in `div-bench` all follow the same shape: run
//! many independent seeded trials of a voting process, aggregate, and
//! print a predicted-vs-measured table.  This crate provides those shared
//! pieces:
//!
//! * [`SeedSequence`] — deterministic per-trial seeds from one master seed
//!   (SplitMix64), so every experiment is exactly reproducible;
//! * [`run_trials`] — parallel trial execution over scoped threads, with
//!   per-slot panic isolation ([`run_trials_caught`]);
//! * [`run_campaign`] — the resilient campaign layer on top: bounded
//!   deterministic retries, a `TrialOutcome` taxonomy instead of
//!   all-or-nothing, and crash-safe checkpoint manifests with exact
//!   resume; [`run_campaign_batched`] drives the same machinery through
//!   a group executor, demoting failed groups to the scalar retry chain,
//!   [`run_campaign_hooked`] adds a live monitor, cancellation and
//!   per-trial callbacks, and [`run_campaign_pooled`] — the one driver
//!   behind all three — shares a pool of [`LaneEngine`] lanes among the
//!   workers, refilled from the pending trials as lanes finish;
//! * [`MetricsRegistry`] — named counters/gauges/histograms with a
//!   deterministic rendering, folded into campaign reports and
//!   manifests;
//! * [`CampaignMonitor`] / [`MetricsServer`] — live monitoring: lock-free
//!   atomic counters published by running campaigns,
//!   scraped over HTTP as Prometheus text format (`/metrics`), JSON
//!   (`/progress`) and a liveness probe (`/healthz`);
//! * [`stats`] — summaries, confidence intervals (normal and Wilson),
//!   quantiles and histograms;
//! * [`regression`] — least-squares and log–log growth-exponent fits, for
//!   the eq. (4) scaling experiments;
//! * [`table`] — fixed-width ASCII tables ("the rows the paper reports")
//!   with CSV export.
//!
//! # Examples
//!
//! ```
//! use div_sim::{run_trials, stats::Summary, SeedSequence};
//!
//! // Estimate E[max of 2 dice] with 1000 parallel seeded trials.
//! let outcomes = run_trials(1000, 0xD1CE, |_, seed| {
//!     use rand::{Rng, SeedableRng};
//!     let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
//!     let (a, b): (u8, u8) = (rng.gen_range(1..=6), rng.gen_range(1..=6));
//!     a.max(b) as f64
//! });
//! let s = Summary::from_iter(outcomes.iter().copied());
//! assert!((s.mean - 4.47).abs() < 0.2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod gof;
pub mod http;
pub mod metrics;
pub mod monitor;
pub mod plot;
pub mod regression;
mod runner;
mod seed;
pub mod serve;
pub mod stats;
pub mod table;

pub use campaign::{
    run_campaign, run_campaign_batched, run_campaign_hooked, run_campaign_pooled, CampaignConfig,
    CampaignError, CampaignHooks, CampaignReport, LaneEngine, LaneGroups, TrialCtx, TrialOutcome,
};
pub use metrics::MetricsRegistry;
pub use monitor::{
    CampaignMonitor, EngineInfo, FaultTotals, MonitorPhase, MonitorSnapshot, PhaseSteps,
    ShardHealth, PHASE_BUCKETS,
};
pub use runner::{
    run_trials, run_trials_caught, run_trials_with_threads, TrialPanic, NON_STRING_PANIC,
};
pub use seed::SeedSequence;
pub use serve::MetricsServer;
