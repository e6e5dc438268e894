//! Live campaign monitoring: lock-free counters published while a
//! Monte-Carlo campaign runs.
//!
//! A multi-hour [`crate::run_campaign`] used to be a black box until its
//! final report.  [`CampaignMonitor`] closes that gap: the campaign's
//! worker slots publish trial lifecycle events into
//! plain atomic counters (no mutex anywhere on the trial path), and any
//! thread can take a [`MonitorSnapshot`] at any time — the HTTP server in
//! [`crate::serve`] does exactly that for every `/metrics` scrape.
//!
//! # Snapshot consistency
//!
//! Counters are monotone and published in a fixed order: a worker bumps
//! `started` before its trial, then the outcome-class counter, steps and
//! histograms, and `finished` **last**.  [`CampaignMonitor::snapshot`]
//! reads in the *reverse* order (`finished` first, `started` last), so a
//! scrape can never observe `finished > started`, and every trial counted
//! in `finished` already has its outcome class, steps and histogram
//! contribution visible.  A scrape taken after the campaign returns sees
//! exactly the final report's outcome counts.
//!
//! # Step-rate EWMA
//!
//! `steps_per_second` is an exponentially weighted moving average
//! (α = 0.2) of the instantaneous rate measured between consecutive
//! outcome records, so it tracks the recent throughput of the worker pool
//! rather than the lifetime mean.  It is wall-clock derived and therefore
//! the one deliberately non-deterministic reading in the snapshot.
//!
//! # Per-phase step histograms
//!
//! Steps-to-phase are collected in fixed power-of-two buckets (upper
//! bounds `2⁰, 2¹, …, 2⁶²`, atomically incremented) and reassembled by
//! [`PhaseSteps::histogram`] into a [`crate::stats::Histogram`] over the
//! log₂ domain, so the snapshot plugs straight into the existing
//! statistics tooling.  Converged trials record their exact consensus
//! step; two-adjacent first-hit steps are only known to observed runs and
//! arrive via [`CampaignMonitor::record_phase_step`].
//!
//! # Engine-native gauges
//!
//! Campaigns running the batch or sharded engines additionally publish
//! low-rate structural gauges: per-shard health ([`ShardHealth`], set at
//! round boundaries via [`CampaignMonitor::set_shard_health`]), per-lane
//! step counts ([`CampaignMonitor::set_lane_steps`]), the engine/kernel
//! identity ([`CampaignMonitor::set_engine_info`]) and a running count of
//! emitted telemetry samples.  These are updated a few times per second
//! at most, so they live behind a `Mutex` rather than widening the
//! lock-free trial path.

use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::Mutex;
use std::time::Instant;

use crate::campaign::TrialOutcome;
use crate::stats::Histogram;

/// Number of finite power-of-two buckets in a phase histogram (upper
/// bounds `2⁰ … 2⁶²`; larger step counts land in the implicit `+Inf`
/// overflow bucket).
pub const PHASE_BUCKETS: usize = 63;

/// EWMA smoothing factor for the steps-per-second estimate.
const RATE_ALPHA: f64 = 0.2;

/// The trajectory phases the monitor keeps step histograms for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MonitorPhase {
    /// First step with at most two adjacent opinions left.
    TwoAdjacent,
    /// First step with a single opinion left.
    Consensus,
}

impl MonitorPhase {
    /// Stable snake_case label (used as the Prometheus `phase` label).
    pub fn label(self) -> &'static str {
        match self {
            MonitorPhase::TwoAdjacent => "two_adjacent",
            MonitorPhase::Consensus => "consensus",
        }
    }
}

/// Aggregated fault-injection counters, summed across trials.
///
/// Field-for-field the same six counters as `div_core::FaultStats`; the
/// sim crate stays engine-agnostic, so callers copy the values over.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultTotals {
    /// Interactions delivered (possibly noisy or stale).
    pub delivered: u64,
    /// Interactions lost to message drop or a crashed neighbour.
    pub dropped: u64,
    /// Interactions suppressed (stubborn or down updater).
    pub suppressed: u64,
    /// Delivered reads answered from a stale snapshot.
    pub stale_reads: u64,
    /// Delivered reads perturbed by noise.
    pub noisy: u64,
    /// Crash events triggered.
    pub crash_events: u64,
}

impl FaultTotals {
    /// `(label, value)` pairs in a fixed render order.
    pub fn kinds(&self) -> [(&'static str, u64); 6] {
        [
            ("delivered", self.delivered),
            ("dropped", self.dropped),
            ("suppressed", self.suppressed),
            ("stale_reads", self.stale_reads),
            ("noisy", self.noisy),
            ("crashes", self.crash_events),
        ]
    }
}

/// Per-shard health gauges published by a sharded-engine campaign.
///
/// Field-for-field the same readings as `div_core::ShardGauge`; the sim
/// crate stays engine-agnostic, so callers copy the values over (exactly
/// as [`FaultTotals`] mirrors the core fault counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardHealth {
    /// Shard index (the Prometheus `shard` label).
    pub shard: usize,
    /// Total stationary weight owned by the shard.
    pub weight: u64,
    /// Edges with exactly one endpoint in this shard.
    pub edge_cut: u64,
    /// Steps executed by the shard so far.
    pub steps: u64,
    /// Steps the shard was allocated in the most recent round
    /// (snapshot-refresh age proxy).
    pub round_lag: u64,
}

/// Engine identity published once per campaign (`div_engine_info`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineInfo {
    /// Engine name (`fast`, `batch`, `sharded`, …).
    pub engine: String,
    /// Active SIMD kernel tier (`scalar`, `avx2`, …).
    pub kernel_tier: String,
}

/// One phase's atomically collected step buckets.
#[derive(Debug)]
struct AtomicPhaseSteps {
    bins: [AtomicU64; PHASE_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Default for AtomicPhaseSteps {
    fn default() -> Self {
        AtomicPhaseSteps {
            bins: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

impl AtomicPhaseSteps {
    fn record(&self, steps: u64) {
        let idx = bucket_index(steps);
        if idx < PHASE_BUCKETS {
            self.bins[idx].fetch_add(1, SeqCst);
        }
        self.sum.fetch_add(steps, SeqCst);
        self.count.fetch_add(1, SeqCst);
    }

    fn snapshot(&self, phase: MonitorPhase) -> PhaseSteps {
        PhaseSteps {
            phase,
            bins: self.bins.iter().map(|b| b.load(SeqCst)).collect(),
            sum: self.sum.load(SeqCst),
            count: self.count.load(SeqCst),
        }
    }
}

/// The finite bucket for a step count: the first `i` with
/// `steps <= 2^i`, or [`PHASE_BUCKETS`] when it exceeds every finite
/// bound (the `+Inf` bucket).
fn bucket_index(steps: u64) -> usize {
    if steps <= 1 {
        0
    } else {
        64 - (steps - 1).leading_zeros() as usize
    }
}

/// The exclusive upper bound of finite bucket `i`, i.e. `2^i`.
pub fn bucket_bound(i: usize) -> u64 {
    1u64 << i
}

/// A consistent point-in-time copy of one phase's step histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseSteps {
    /// Which phase the steps belong to.
    pub phase: MonitorPhase,
    /// Counts per finite power-of-two bucket (`bins[i]` holds trials
    /// whose step count's first bound `2^i` — see [`bucket_bound`]).
    pub bins: Vec<u64>,
    /// Total steps over all recorded trials (including overflowed ones).
    pub sum: u64,
    /// Trials recorded (including overflowed ones).
    pub count: u64,
}

impl PhaseSteps {
    /// Trials beyond the last finite bucket.
    pub fn overflow(&self) -> u64 {
        self.count - self.bins.iter().sum::<u64>()
    }

    /// The buckets reassembled as a [`Histogram`] over the log₂ domain:
    /// bin `i` covers step counts with first power-of-two bound `2^i`, so
    /// quantiles and renderings read in doublings.
    pub fn histogram(&self) -> Histogram {
        Histogram::from_parts(
            0.0,
            PHASE_BUCKETS as f64,
            self.bins.clone(),
            0,
            self.overflow(),
        )
    }
}

/// Lock-free publication point for a running campaign.
///
/// Workers call [`CampaignMonitor::trial_started`],
/// [`CampaignMonitor::trial_retried`] and
/// [`CampaignMonitor::record_outcome`]; readers call
/// [`CampaignMonitor::snapshot`].  All methods take `&self` and touch
/// only atomics, so one monitor is shared freely across the pool (and
/// with the `/metrics` server thread) behind an `Arc` or a plain
/// reference.
#[derive(Debug)]
pub struct CampaignMonitor {
    expected: AtomicU64,
    started: AtomicU64,
    finished: AtomicU64,
    retries: AtomicU64,
    converged: AtomicU64,
    two_adjacent: AtomicU64,
    timeout: AtomicU64,
    panicked: AtomicU64,
    steps_total: AtomicU64,
    rate_bits: AtomicU64,
    last_record_ns: AtomicU64,
    faults: [AtomicU64; 6],
    phase_two_adjacent: AtomicPhaseSteps,
    phase_consensus: AtomicPhaseSteps,
    telemetry_samples: AtomicU64,
    shard_health: Mutex<Vec<ShardHealth>>,
    lane_steps: Mutex<Vec<u64>>,
    engine_info: Mutex<Option<EngineInfo>>,
    epoch: Instant,
}

impl Default for CampaignMonitor {
    fn default() -> Self {
        Self::new()
    }
}

impl CampaignMonitor {
    /// A fresh monitor; the wall clock for `elapsed_seconds` and the
    /// step-rate EWMA starts now.
    pub fn new() -> Self {
        CampaignMonitor {
            expected: AtomicU64::new(0),
            started: AtomicU64::new(0),
            finished: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            converged: AtomicU64::new(0),
            two_adjacent: AtomicU64::new(0),
            timeout: AtomicU64::new(0),
            panicked: AtomicU64::new(0),
            steps_total: AtomicU64::new(0),
            rate_bits: AtomicU64::new(0.0f64.to_bits()),
            last_record_ns: AtomicU64::new(0),
            faults: Default::default(),
            phase_two_adjacent: AtomicPhaseSteps::default(),
            phase_consensus: AtomicPhaseSteps::default(),
            telemetry_samples: AtomicU64::new(0),
            shard_health: Mutex::new(Vec::new()),
            lane_steps: Mutex::new(Vec::new()),
            engine_info: Mutex::new(None),
            epoch: Instant::now(),
        }
    }

    /// Declares how many trials the campaign will run in total.
    pub fn set_expected(&self, trials: u64) {
        self.expected.store(trials, SeqCst);
    }

    /// A worker is about to run a trial (call before the first attempt).
    pub fn trial_started(&self) {
        self.started.fetch_add(1, SeqCst);
    }

    /// A trial attempt panicked and will be retried with a fresh seed.
    pub fn trial_retried(&self) {
        self.retries.fetch_add(1, SeqCst);
    }

    /// A trial finished: classifies the outcome, accumulates its steps,
    /// feeds the consensus-phase histogram (converged trials report their
    /// exact consensus step) and the step-rate EWMA, and bumps `finished`
    /// last so scrapes stay consistent.
    pub fn record_outcome(&self, outcome: &TrialOutcome) {
        let steps = match outcome {
            TrialOutcome::Converged { steps, .. } => {
                self.converged.fetch_add(1, SeqCst);
                self.phase_consensus.record(*steps);
                *steps
            }
            TrialOutcome::TwoAdjacent { steps, .. } => {
                self.two_adjacent.fetch_add(1, SeqCst);
                *steps
            }
            TrialOutcome::Timeout { steps } => {
                self.timeout.fetch_add(1, SeqCst);
                *steps
            }
            TrialOutcome::Panicked { .. } => {
                self.panicked.fetch_add(1, SeqCst);
                0
            }
        };
        self.steps_total.fetch_add(steps, SeqCst);
        self.note_rate(steps);
        self.finished.fetch_add(1, SeqCst);
    }

    /// Records an exact first-hit phase step observed inside a trial
    /// (e.g. relayed from a telemetry observer's phase events).
    ///
    /// Converged trials' consensus steps are already recorded by
    /// [`CampaignMonitor::record_outcome`]; relaying an observer's
    /// consensus event as well would double-count, so observed campaigns
    /// forward only [`MonitorPhase::TwoAdjacent`] events here.
    pub fn record_phase_step(&self, phase: MonitorPhase, steps: u64) {
        match phase {
            MonitorPhase::TwoAdjacent => self.phase_two_adjacent.record(steps),
            MonitorPhase::Consensus => self.phase_consensus.record(steps),
        }
    }

    /// Adds one trial's fault counters to the aggregate.
    pub fn add_faults(&self, totals: &FaultTotals) {
        for (slot, (_, v)) in self.faults.iter().zip(totals.kinds()) {
            slot.fetch_add(v, SeqCst);
        }
    }

    /// Counts telemetry samples emitted by engine-native observers.
    pub fn add_telemetry_samples(&self, n: u64) {
        self.telemetry_samples.fetch_add(n, SeqCst);
    }

    /// Replaces the per-shard health gauges (sharded engine, once per
    /// round boundary — not on the trial hot path).
    pub fn set_shard_health(&self, gauges: Vec<ShardHealth>) {
        *self.shard_health.lock().unwrap() = gauges;
    }

    /// Replaces the per-lane step gauges (batch engine, once per sample
    /// chunk — not on the trial hot path).
    pub fn set_lane_steps(&self, steps: Vec<u64>) {
        *self.lane_steps.lock().unwrap() = steps;
    }

    /// Publishes the engine identity rendered as `div_engine_info`.
    pub fn set_engine_info(&self, engine: &str, kernel_tier: &str) {
        *self.engine_info.lock().unwrap() = Some(EngineInfo {
            engine: engine.to_string(),
            kernel_tier: kernel_tier.to_string(),
        });
    }

    /// Folds `steps` into the steps-per-second EWMA using the wall-clock
    /// gap since the previous record.
    fn note_rate(&self, steps: u64) {
        let now = self.epoch.elapsed().as_nanos() as u64;
        let prev = self.last_record_ns.swap(now, SeqCst);
        let dt = now.saturating_sub(prev);
        if dt == 0 {
            return;
        }
        let inst = steps as f64 * 1e9 / dt as f64;
        let mut cur = self.rate_bits.load(SeqCst);
        loop {
            let old = f64::from_bits(cur);
            let new = if old == 0.0 {
                inst
            } else {
                RATE_ALPHA * inst + (1.0 - RATE_ALPHA) * old
            };
            match self
                .rate_bits
                .compare_exchange(cur, new.to_bits(), SeqCst, SeqCst)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// A consistent point-in-time copy of every counter (see the module
    /// docs for the ordering guarantee: never `finished > started`, and
    /// outcome classes cover at least the `finished` count).
    pub fn snapshot(&self) -> MonitorSnapshot {
        // `finished` first and `started` last — the reverse of the
        // publication order — so the invariants hold under concurrency.
        let finished = self.finished.load(SeqCst);
        let snapshot = MonitorSnapshot {
            finished,
            converged: self.converged.load(SeqCst),
            two_adjacent: self.two_adjacent.load(SeqCst),
            timeout: self.timeout.load(SeqCst),
            panicked: self.panicked.load(SeqCst),
            steps_total: self.steps_total.load(SeqCst),
            steps_per_second: f64::from_bits(self.rate_bits.load(SeqCst)),
            retries: self.retries.load(SeqCst),
            faults: {
                let f: Vec<u64> = self.faults.iter().map(|a| a.load(SeqCst)).collect();
                FaultTotals {
                    delivered: f[0],
                    dropped: f[1],
                    suppressed: f[2],
                    stale_reads: f[3],
                    noisy: f[4],
                    crash_events: f[5],
                }
            },
            phase_two_adjacent: self.phase_two_adjacent.snapshot(MonitorPhase::TwoAdjacent),
            phase_consensus: self.phase_consensus.snapshot(MonitorPhase::Consensus),
            telemetry_samples: self.telemetry_samples.load(SeqCst),
            shard_health: self.shard_health.lock().unwrap().clone(),
            lane_steps: self.lane_steps.lock().unwrap().clone(),
            engine_info: self.engine_info.lock().unwrap().clone(),
            elapsed_seconds: self.epoch.elapsed().as_secs_f64(),
            expected: self.expected.load(SeqCst),
            started: self.started.load(SeqCst),
        };
        debug_assert!(snapshot.finished <= snapshot.started);
        snapshot
    }
}

/// A point-in-time copy of a [`CampaignMonitor`]'s counters, with the
/// consistency guarantees described in the module docs.  Rendering
/// methods live here (not on the monitor) so they are trivially testable
/// and a scrape pays for exactly one atomic sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorSnapshot {
    /// Trials the campaign intends to run.
    pub expected: u64,
    /// Trials started (≥ `finished`, always).
    pub started: u64,
    /// Trials finished with a recorded outcome.
    pub finished: u64,
    /// Attempts retried after a panic.
    pub retries: u64,
    /// Finished trials that converged.
    pub converged: u64,
    /// Finished trials stuck at two adjacent opinions.
    pub two_adjacent: u64,
    /// Finished trials that timed out with ≥ 3 opinions.
    pub timeout: u64,
    /// Finished trials whose every attempt panicked.
    pub panicked: u64,
    /// Steps accumulated over finished trials.
    pub steps_total: u64,
    /// EWMA of the recent step completion rate (wall-clock derived).
    pub steps_per_second: f64,
    /// Aggregated fault counters.
    pub faults: FaultTotals,
    /// Step histogram for first hits of the two-adjacent phase.
    pub phase_two_adjacent: PhaseSteps,
    /// Step histogram for consensus (converged trials' exact steps).
    pub phase_consensus: PhaseSteps,
    /// Telemetry samples emitted by engine-native observers.
    pub telemetry_samples: u64,
    /// Per-shard health gauges (empty unless a sharded campaign runs).
    pub shard_health: Vec<ShardHealth>,
    /// Per-lane step gauges (empty unless a batch campaign runs).
    pub lane_steps: Vec<u64>,
    /// Engine identity, when the campaign has published one.
    pub engine_info: Option<EngineInfo>,
    /// Wall-clock seconds since the monitor was created.
    pub elapsed_seconds: f64,
}

impl MonitorSnapshot {
    /// `(label, value)` outcome pairs in the report's render order.
    pub fn outcomes(&self) -> [(&'static str, u64); 4] {
        [
            ("converged", self.converged),
            ("two_adjacent", self.two_adjacent),
            ("timeout", self.timeout),
            ("panicked", self.panicked),
        ]
    }

    /// The snapshot in Prometheus text exposition format 0.0.4.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::with_capacity(2048);
        let mut scalar = |name: &str, kind: &str, help: &str, value: String| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} {kind}\n{name} {value}\n"
            ));
        };
        scalar(
            "div_trials_expected",
            "gauge",
            "Total trials configured for the campaign.",
            self.expected.to_string(),
        );
        scalar(
            "div_trials_started_total",
            "counter",
            "Trials started (including resumed ones).",
            self.started.to_string(),
        );
        scalar(
            "div_trials_finished_total",
            "counter",
            "Trials finished with a recorded outcome.",
            self.finished.to_string(),
        );
        out.push_str(
            "# HELP div_trials_total Finished trials by outcome class.\n\
             # TYPE div_trials_total counter\n",
        );
        for (label, v) in self.outcomes() {
            out.push_str(&format!("div_trials_total{{outcome=\"{label}\"}} {v}\n"));
        }
        let mut scalar = |name: &str, kind: &str, help: &str, value: String| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} {kind}\n{name} {value}\n"
            ));
        };
        scalar(
            "div_trial_retries_total",
            "counter",
            "Trial attempts retried after a panic.",
            self.retries.to_string(),
        );
        scalar(
            "div_steps_total",
            "counter",
            "Simulation steps accumulated over finished trials.",
            self.steps_total.to_string(),
        );
        scalar(
            "div_steps_per_second",
            "gauge",
            "EWMA of the recent step completion rate.",
            format_value(self.steps_per_second),
        );
        scalar(
            "div_campaign_elapsed_seconds",
            "gauge",
            "Wall-clock seconds since the monitor started.",
            format_value(self.elapsed_seconds),
        );
        scalar(
            "div_telemetry_samples_total",
            "counter",
            "Telemetry samples emitted by engine-native observers.",
            self.telemetry_samples.to_string(),
        );
        if let Some(info) = &self.engine_info {
            out.push_str(&format!(
                "# HELP div_engine_info Engine identity (value is always 1).\n\
                 # TYPE div_engine_info gauge\n\
                 div_engine_info{{engine=\"{}\",kernel_tier=\"{}\"}} 1\n",
                info.engine, info.kernel_tier
            ));
        }
        if !self.shard_health.is_empty() {
            for (name, help, read) in [
                (
                    "div_shard_weight",
                    "Stationary weight owned by each shard.",
                    (|s: &ShardHealth| s.weight) as fn(&ShardHealth) -> u64,
                ),
                (
                    "div_shard_edge_cut",
                    "Edges with exactly one endpoint in each shard.",
                    |s: &ShardHealth| s.edge_cut,
                ),
                (
                    "div_shard_steps",
                    "Steps executed by each shard.",
                    |s: &ShardHealth| s.steps,
                ),
                (
                    "div_shard_round_lag",
                    "Steps allocated to each shard in the latest round.",
                    |s: &ShardHealth| s.round_lag,
                ),
            ] {
                out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} gauge\n"));
                for s in &self.shard_health {
                    out.push_str(&format!("{name}{{shard=\"{}\"}} {}\n", s.shard, read(s)));
                }
            }
        }
        if !self.lane_steps.is_empty() {
            out.push_str(
                "# HELP div_lane_steps Steps executed by each batch lane.\n\
                 # TYPE div_lane_steps gauge\n",
            );
            for (lane, steps) in self.lane_steps.iter().enumerate() {
                out.push_str(&format!("div_lane_steps{{lane=\"{lane}\"}} {steps}\n"));
            }
        }
        out.push_str(
            "# HELP div_fault_events_total Aggregated fault-injection counters.\n\
             # TYPE div_fault_events_total counter\n",
        );
        for (kind, v) in self.faults.kinds() {
            out.push_str(&format!("div_fault_events_total{{kind=\"{kind}\"}} {v}\n"));
        }
        out.push_str(
            "# HELP div_phase_steps Steps at which finished trials first hit each phase.\n\
             # TYPE div_phase_steps histogram\n",
        );
        for phase in [&self.phase_two_adjacent, &self.phase_consensus] {
            let label = phase.phase.label();
            let mut cumulative = 0u64;
            let last = phase
                .bins
                .iter()
                .rposition(|&c| c > 0)
                .map(|i| i + 1)
                .unwrap_or(0);
            for (i, c) in phase.bins.iter().take(last).enumerate() {
                cumulative += c;
                out.push_str(&format!(
                    "div_phase_steps_bucket{{phase=\"{label}\",le=\"{}\"}} {cumulative}\n",
                    bucket_bound(i)
                ));
            }
            out.push_str(&format!(
                "div_phase_steps_bucket{{phase=\"{label}\",le=\"+Inf\"}} {}\n",
                phase.count
            ));
            out.push_str(&format!(
                "div_phase_steps_sum{{phase=\"{label}\"}} {}\n",
                phase.sum
            ));
            out.push_str(&format!(
                "div_phase_steps_count{{phase=\"{label}\"}} {}\n",
                phase.count
            ));
        }
        out
    }

    /// The snapshot as a single JSON object (the `/progress` payload).
    pub fn render_progress_json(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push_str(&format!(
            "{{\"expected\":{},\"started\":{},\"finished\":{},\"retries\":{},",
            self.expected, self.started, self.finished, self.retries
        ));
        out.push_str("\"outcomes\":{");
        for (i, (label, v)) in self.outcomes().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{label}\":{v}"));
        }
        out.push_str(&format!(
            "}},\"steps_total\":{},\"steps_per_second\":{},\"elapsed_seconds\":{},",
            self.steps_total,
            format_value(self.steps_per_second),
            format_value(self.elapsed_seconds)
        ));
        out.push_str("\"faults\":{");
        for (i, (kind, v)) in self.faults.kinds().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{kind}\":{v}"));
        }
        out.push_str("},\"phases\":{");
        for (i, phase) in [&self.phase_two_adjacent, &self.phase_consensus]
            .iter()
            .enumerate()
        {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{{\"count\":{},\"steps_sum\":{}}}",
                phase.phase.label(),
                phase.count,
                phase.sum
            ));
        }
        out.push_str("}}");
        out
    }
}

/// Finite floats render via Rust's shortest-roundtrip `Display`;
/// non-finite values fall back to the Prometheus spellings.
fn format_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        (if v > 0.0 { "+Inf" } else { "-Inf" }).to_string()
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn converged(steps: u64) -> TrialOutcome {
        TrialOutcome::Converged { winner: 3, steps }
    }

    #[test]
    fn bucket_index_matches_bounds() {
        for (steps, idx) in [(0u64, 0usize), (1, 0), (2, 1), (3, 2), (4, 2), (5, 3)] {
            assert_eq!(bucket_index(steps), idx, "steps {steps}");
            assert!(steps <= bucket_bound(idx));
            if idx > 0 {
                assert!(steps > bucket_bound(idx - 1));
            }
        }
        assert_eq!(bucket_index(1 << 62), 62);
        assert!(bucket_index((1 << 62) + 1) >= PHASE_BUCKETS, "overflows");
    }

    #[test]
    fn outcomes_classify_and_accumulate() {
        let m = CampaignMonitor::new();
        m.set_expected(4);
        for outcome in [
            converged(100),
            TrialOutcome::TwoAdjacent {
                low: 1,
                high: 2,
                steps: 50,
            },
            TrialOutcome::Timeout { steps: 75 },
            TrialOutcome::Panicked {
                attempts: 3,
                message: "x".into(),
            },
        ] {
            m.trial_started();
            m.record_outcome(&outcome);
        }
        m.trial_retried();
        let s = m.snapshot();
        assert_eq!(s.expected, 4);
        assert_eq!((s.started, s.finished), (4, 4));
        assert_eq!(
            (s.converged, s.two_adjacent, s.timeout, s.panicked),
            (1, 1, 1, 1)
        );
        assert_eq!(s.steps_total, 225, "panicked trials contribute no steps");
        assert_eq!(s.retries, 1);
        assert_eq!(s.phase_consensus.count, 1);
        assert_eq!(s.phase_consensus.sum, 100);
        assert_eq!(s.phase_two_adjacent.count, 0);
    }

    #[test]
    fn phase_histogram_reassembles_into_stats_histogram() {
        let m = CampaignMonitor::new();
        for steps in [1u64, 2, 3, 1000, u64::MAX] {
            m.record_phase_step(MonitorPhase::TwoAdjacent, steps);
        }
        let s = m.snapshot().phase_two_adjacent;
        assert_eq!(s.count, 5);
        assert_eq!(s.overflow(), 1, "u64::MAX exceeds every finite bucket");
        let h = s.histogram();
        assert_eq!(h.count(), 5);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.bins()[0], 1, "steps=1 in bucket 0");
        assert_eq!(h.bins()[1], 1, "steps=2 in bucket 1");
        assert_eq!(h.bins()[2], 1, "steps=3 in bucket 2");
        assert_eq!(h.bins()[10], 1, "steps=1000 in bucket 10 (le 1024)");
    }

    #[test]
    fn snapshot_never_sees_finished_ahead_of_started() {
        use std::sync::atomic::AtomicBool;
        let m = CampaignMonitor::new();
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    while !stop.load(SeqCst) {
                        m.trial_started();
                        m.record_outcome(&converged(10));
                    }
                });
            }
            scope.spawn(|| {
                for _ in 0..5000 {
                    let s = m.snapshot();
                    assert!(
                        s.finished <= s.started,
                        "finished {} > started {}",
                        s.finished,
                        s.started
                    );
                    let classes = s.converged + s.two_adjacent + s.timeout + s.panicked;
                    assert!(
                        classes >= s.finished,
                        "finished trial missing its class: {classes} < {}",
                        s.finished
                    );
                }
                stop.store(true, SeqCst);
            });
        });
    }

    #[test]
    fn ewma_tracks_a_rate() {
        let m = CampaignMonitor::new();
        assert_eq!(m.snapshot().steps_per_second, 0.0);
        m.trial_started();
        m.record_outcome(&converged(1_000_000));
        let rate = m.snapshot().steps_per_second;
        assert!(rate > 0.0, "rate {rate}");
    }

    #[test]
    fn prometheus_rendering_is_well_formed() {
        let m = CampaignMonitor::new();
        m.set_expected(2);
        m.trial_started();
        m.trial_started();
        m.record_outcome(&converged(100));
        m.record_outcome(&TrialOutcome::Timeout { steps: 50 });
        m.add_faults(&FaultTotals {
            delivered: 10,
            dropped: 2,
            ..FaultTotals::default()
        });
        m.record_phase_step(MonitorPhase::TwoAdjacent, 60);
        let text = m.snapshot().render_prometheus();
        assert!(text.contains("# TYPE div_trials_total counter"));
        assert!(text.contains("div_trials_total{outcome=\"converged\"} 1"));
        assert!(text.contains("div_trials_total{outcome=\"timeout\"} 1"));
        assert!(text.contains("div_trials_started_total 2"));
        assert!(text.contains("div_steps_total 150"));
        assert!(text.contains("# TYPE div_steps_per_second gauge"));
        assert!(text.contains("div_fault_events_total{kind=\"delivered\"} 10"));
        assert!(text.contains("div_phase_steps_bucket{phase=\"consensus\",le=\"+Inf\"} 1"));
        assert!(text.contains("div_phase_steps_bucket{phase=\"consensus\",le=\"128\"} 1"));
        assert!(text.contains("div_phase_steps_sum{phase=\"two_adjacent\"} 60"));
        assert!(text.contains("div_phase_steps_count{phase=\"two_adjacent\"} 1"));
        // Every non-comment line is `name[{labels}] value` with a finite
        // or Prometheus-special value.
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (_, value) = line.rsplit_once(' ').expect("sample line has a value");
            assert!(
                value.parse::<f64>().is_ok() || value == "+Inf" || value == "NaN",
                "bad value in {line:?}"
            );
        }
    }

    #[test]
    fn engine_gauges_render_only_when_published() {
        let m = CampaignMonitor::new();
        let bare = m.snapshot().render_prometheus();
        assert!(bare.contains("div_telemetry_samples_total 0"));
        assert!(!bare.contains("div_engine_info"));
        assert!(!bare.contains("div_shard_weight"));
        assert!(!bare.contains("div_lane_steps"));

        m.add_telemetry_samples(7);
        m.set_engine_info("sharded", "avx2");
        m.set_shard_health(vec![
            ShardHealth {
                shard: 0,
                weight: 10,
                edge_cut: 3,
                steps: 100,
                round_lag: 12,
            },
            ShardHealth {
                shard: 1,
                weight: 14,
                edge_cut: 3,
                steps: 140,
                round_lag: 16,
            },
        ]);
        m.set_lane_steps(vec![5, 6]);
        let text = m.snapshot().render_prometheus();
        assert!(text.contains("div_telemetry_samples_total 7"));
        assert!(text.contains("div_engine_info{engine=\"sharded\",kernel_tier=\"avx2\"} 1"));
        assert!(text.contains("# TYPE div_shard_weight gauge"));
        assert!(text.contains("div_shard_weight{shard=\"1\"} 14"));
        assert!(text.contains("div_shard_edge_cut{shard=\"0\"} 3"));
        assert!(text.contains("div_shard_steps{shard=\"1\"} 140"));
        assert!(text.contains("div_shard_round_lag{shard=\"0\"} 12"));
        assert!(text.contains("div_lane_steps{lane=\"1\"} 6"));
        // Replacement semantics: a later publish swaps the whole set.
        m.set_shard_health(vec![ShardHealth {
            shard: 0,
            weight: 24,
            edge_cut: 0,
            steps: 300,
            round_lag: 8,
        }]);
        let text = m.snapshot().render_prometheus();
        assert!(text.contains("div_shard_weight{shard=\"0\"} 24"));
        assert!(!text.contains("shard=\"1\""));
    }

    #[test]
    fn progress_json_is_balanced_and_complete() {
        let m = CampaignMonitor::new();
        m.set_expected(3);
        m.trial_started();
        m.record_outcome(&converged(10));
        let json = m.snapshot().render_progress_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces: {json}"
        );
        for key in [
            "\"expected\":3",
            "\"started\":1",
            "\"finished\":1",
            "\"outcomes\"",
            "\"converged\":1",
            "\"steps_total\":10",
            "\"steps_per_second\"",
            "\"faults\"",
            "\"phases\"",
            "\"consensus\":{\"count\":1,\"steps_sum\":10}",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn format_value_handles_specials() {
        assert_eq!(format_value(1.5), "1.5");
        assert_eq!(format_value(f64::NAN), "NaN");
        assert_eq!(format_value(f64::INFINITY), "+Inf");
        assert_eq!(format_value(f64::NEG_INFINITY), "-Inf");
    }
}
