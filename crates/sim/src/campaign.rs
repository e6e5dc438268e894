//! Resilient Monte-Carlo campaigns.
//!
//! [`run_campaign`] hardens the basic [`crate::run_trials`] pool into
//! something a multi-hour study can be left alone with:
//!
//! * **Panic isolation with bounded retry** — each trial attempt runs
//!   under `catch_unwind`; a panicked attempt is retried up to
//!   [`CampaignConfig::max_retries`] times with a fresh deterministic
//!   sub-seed, and a slot that exhausts its retries is recorded as
//!   [`TrialOutcome::Panicked`] instead of sinking the campaign.
//! * **Step-budget watchdogs** — the per-trial closure receives its
//!   budget via [`TrialCtx::step_budget`] and reports
//!   [`TrialOutcome::Timeout`]/[`TrialOutcome::TwoAdjacent`] when a trial
//!   fails to converge, so one pathological seed cannot wedge a worker.
//! * **Crash-safe checkpointing** — completed trials are periodically
//!   flushed to an on-disk manifest (written to a temp sibling and
//!   atomically renamed), and a killed campaign resumes *exactly*: the
//!   same master seed plus the same manifest produce a final report
//!   byte-identical to an uninterrupted run, because per-trial seeds
//!   depend only on `(master_seed, trial, attempt)` and the report is a
//!   pure function of the outcome set.
//!
//! The outcome taxonomy is deliberately engine-agnostic (plain integers,
//! no `div-core` types), so the sim crate stays a generic harness.
//!
//! # Manifest format
//!
//! A line-based text format (the workspace has no serde):
//!
//! ```text
//! divlab-campaign v1
//! master 3405691582
//! trials 500
//! tag regular:1000:8 uniform:5 edge fast drop:0.2 1000000000
//! trial 0 converged 3 81243
//! trial 1 two-adjacent 2 3 1000000000
//! trial 2 timeout 1000000000
//! trial 3 panicked 3 index out of bounds
//! metric counter outcomes.converged = 1
//! ```
//!
//! Trial lines appear in ascending index order; `tag` and panic messages
//! are backslash-escaped (`\n`, `\r`, `\\`) so the format stays
//! one-record-per-line.  The `tag` records the campaign parameters and is
//! checked on resume, so a manifest can never be replayed against a
//! different experiment.  `metric` lines carry the aggregated
//! [`MetricsRegistry`] rollup for human inspection; they are recomputed
//! from the trial records on every write and *skipped* on load, so they
//! can never disagree with the outcomes.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::fmt;
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Condvar, Mutex, MutexGuard, PoisonError};

use div_oplog::atomic_write;

use crate::monitor::CampaignMonitor;
use crate::runner::panic_message;
use crate::{MetricsRegistry, SeedSequence};

/// How a single campaign trial ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrialOutcome {
    /// The process reached consensus within its budget.
    Converged {
        /// The consensus opinion.
        winner: i64,
        /// Steps taken to reach it.
        steps: u64,
    },
    /// The budget ran out with at most two adjacent opinions left.
    TwoAdjacent {
        /// The smaller surviving opinion.
        low: i64,
        /// The larger surviving opinion.
        high: i64,
        /// Steps taken (the exhausted budget).
        steps: u64,
    },
    /// The budget ran out with three or more opinions still live.
    Timeout {
        /// Steps taken (the exhausted budget).
        steps: u64,
    },
    /// Every attempt panicked; the slot is reported, not re-raised.
    Panicked {
        /// Attempts made (1 + retries).
        attempts: u32,
        /// The final attempt's panic message.
        message: String,
    },
}

impl TrialOutcome {
    /// Whether the trial converged cleanly.
    pub fn is_converged(&self) -> bool {
        matches!(self, TrialOutcome::Converged { .. })
    }

    /// The consensus opinion, when converged.
    pub fn winner(&self) -> Option<i64> {
        match *self {
            TrialOutcome::Converged { winner, .. } => Some(winner),
            _ => None,
        }
    }

    /// The steps the trial executed (zero for panicked trials, whose
    /// step counts are unknown).
    pub fn steps(&self) -> u64 {
        match *self {
            TrialOutcome::Converged { steps, .. }
            | TrialOutcome::TwoAdjacent { steps, .. }
            | TrialOutcome::Timeout { steps } => steps,
            TrialOutcome::Panicked { .. } => 0,
        }
    }

    /// One manifest line for trial `i`; inverse of
    /// [`TrialOutcome::parse_line`].  Public so services persisting
    /// outcomes elsewhere (e.g. a daemon's oplog) reuse the exact
    /// manifest encoding instead of inventing a second one.
    pub fn manifest_line(&self, i: usize) -> String {
        match self {
            TrialOutcome::Converged { winner, steps } => {
                format!("trial {i} converged {winner} {steps}")
            }
            TrialOutcome::TwoAdjacent { low, high, steps } => {
                format!("trial {i} two-adjacent {low} {high} {steps}")
            }
            TrialOutcome::Timeout { steps } => format!("trial {i} timeout {steps}"),
            TrialOutcome::Panicked { attempts, message } => {
                format!("trial {i} panicked {attempts} {}", escape(message))
            }
        }
    }

    /// Parses one `trial …` manifest line; inverse of
    /// [`TrialOutcome::manifest_line`].
    pub fn parse_line(line: &str) -> Option<(usize, TrialOutcome)> {
        let fields: Vec<&str> = line.split(' ').collect();
        if fields.len() < 4 || fields[0] != "trial" {
            return None;
        }
        let i: usize = fields[1].parse().ok()?;
        let outcome = match fields[2] {
            "converged" if fields.len() == 5 => TrialOutcome::Converged {
                winner: fields[3].parse().ok()?,
                steps: fields[4].parse().ok()?,
            },
            "two-adjacent" if fields.len() == 6 => TrialOutcome::TwoAdjacent {
                low: fields[3].parse().ok()?,
                high: fields[4].parse().ok()?,
                steps: fields[5].parse().ok()?,
            },
            "timeout" if fields.len() == 4 => TrialOutcome::Timeout {
                steps: fields[3].parse().ok()?,
            },
            "panicked" => {
                // The message is everything after the fourth space; it may
                // itself contain spaces (but no raw newlines — escaped).
                let message = line.splitn(5, ' ').nth(4).unwrap_or("");
                TrialOutcome::Panicked {
                    attempts: fields[3].parse().ok()?,
                    message: unescape(message),
                }
            }
            _ => return None,
        };
        Some((i, outcome))
    }
}

/// Per-attempt context handed to the trial closure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialCtx {
    /// The trial index within the campaign.
    pub trial: usize,
    /// The deterministic seed for this attempt: attempt 0 uses
    /// `SeedSequence::seed_for(master, trial)`, retry `a` re-derives
    /// `SeedSequence::seed_for(that, a)` — fresh randomness, still a pure
    /// function of `(master, trial, attempt)`.
    pub seed: u64,
    /// Which attempt this is (0 = first).
    pub attempt: u32,
    /// The step budget the trial must respect.
    pub step_budget: u64,
}

/// Observation and control hooks for an in-flight campaign, used by
/// front-ends and services embedding the campaign engine (`divlab`, the
/// `divd` daemon).
///
/// All hooks are optional; [`CampaignHooks::default`] is a no-op set.
///
/// * `monitor` — live publication: the campaign declares `cfg.trials` as
///   expected, replays resumed outcomes into it, and every worker
///   publishes trial starts (as each trial leaves the pending queue),
///   panic retries and finished outcomes as they happen — so an HTTP
///   scrape (see [`crate::MetricsServer`]) watches the campaign in
///   flight, and a scrape taken after the campaign returns agrees
///   exactly with the report's counts.
/// * `cancel` — checked every time a trial is claimed from the pending
///   queue.  Once set, no *new* trial starts; trials in flight (batch
///   lanes included) finish, the collector drains, the final checkpoint
///   is written, and the campaign returns its partial report — exactly
///   the state a later `resume` continues from.
/// * `on_trial` — called from the collector thread, in completion
///   order, after the outcome is recorded (and before any checkpoint
///   flush it triggers).  A daemon uses it to stream per-trial results
///   and journal progress.
/// * `on_retry` — called whenever a panicked attempt is about to be
///   retried, with the trial index.
/// * `resumed` — outcomes a previous run already recorded elsewhere
///   (e.g. a daemon's journal), taken exactly like a loaded manifest's:
///   replayed into the monitor, counted in [`CampaignReport::resumed`],
///   and never run again.
#[derive(Clone, Copy, Default)]
pub struct CampaignHooks<'a> {
    /// Live monitor (see type docs).
    pub monitor: Option<&'a CampaignMonitor>,
    /// Cooperative cancellation flag (see type docs).
    pub cancel: Option<&'a AtomicBool>,
    /// Per-completed-trial callback `(trial index, outcome)`.
    pub on_trial: Option<TrialHook<'a>>,
    /// Per-retry callback (trial index).
    pub on_retry: Option<&'a (dyn Fn(usize) + Sync)>,
    /// Prior outcomes by trial index (see type docs).
    pub resumed: Option<&'a BTreeMap<usize, TrialOutcome>>,
}

/// A shared per-trial callback `(trial index, outcome)`.
pub type TrialHook<'a> = &'a (dyn Fn(usize, &TrialOutcome) + Sync);

/// A lockstep group executor: steps the given attempt-0 contexts together
/// and returns one outcome per context.
pub type GroupFn<'a> = &'a (dyn Fn(&[TrialCtx]) -> Vec<TrialOutcome> + Sync);

/// How [`run_campaign_hooked`] groups trials for a group executor:
/// workers hand `run` up to `lanes` trials at a time and it steps them to
/// completion (see [`run_campaign_batched`]).
#[derive(Clone, Copy)]
pub struct LaneGroups<'a> {
    /// Trials per lockstep group (≥ 1).
    pub lanes: usize,
    /// The group executor.
    pub run: GroupFn<'a>,
}

/// An engine whose lanes the workers of one campaign share: the
/// executor of [`run_campaign_pooled`].
///
/// The campaign keeps a pool of loaded lanes.  A worker claims up to
/// [`LaneEngine::group`] of them, steps them one block with
/// [`LaneEngine::step`] and hands back those still running; a lane that
/// finished reports its outcome at once and its buffers take the next
/// pending trial through [`LaneEngine::load`].  Lanes never interact, so
/// which worker steps which lane, and with which others, is free: a
/// bit-exact engine gives every trial the outcome of its scalar run.
pub trait LaneEngine: Sync {
    /// One loaded trial's state.
    type Lane: Send;

    /// The most lanes one block should step together (≥ 1): the
    /// engine's lockstep group width.
    fn group(&self) -> usize;

    /// Loads the attempt-0 trial `ctx` into a lane, reusing a finished
    /// lane's buffers when given one.
    fn load(&self, ctx: &TrialCtx, recycled: Option<Self::Lane>) -> Self::Lane;

    /// Steps `lanes` by one block.  Returns one entry per lane: its
    /// outcome once it has finished, `None` while it runs on.  A panic,
    /// or a result of the wrong length, demotes every trial of the block
    /// to the scalar retry chain.
    fn step(&self, lanes: &mut [Self::Lane]) -> Vec<Option<TrialOutcome>>;
}

impl fmt::Debug for CampaignHooks<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CampaignHooks")
            .field("monitor", &self.monitor.is_some())
            .field("cancel", &self.cancel.map(|c| c.load(Ordering::Relaxed)))
            .field("on_trial", &self.on_trial.is_some())
            .field("on_retry", &self.on_retry.is_some())
            .field("resumed", &self.resumed.map(BTreeMap::len))
            .finish()
    }
}

impl fmt::Debug for LaneGroups<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LaneGroups")
            .field("lanes", &self.lanes)
            .finish_non_exhaustive()
    }
}

impl CampaignHooks<'_> {
    /// Whether cancellation has been requested.
    fn cancelled(&self) -> bool {
        self.cancel.is_some_and(|c| c.load(Ordering::SeqCst))
    }
}

/// Campaign parameters; construct with [`CampaignConfig::new`] and adjust
/// the public fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignConfig {
    /// Total number of trials in the campaign.
    pub trials: usize,
    /// The master seed every per-trial seed derives from.
    pub master_seed: u64,
    /// Worker threads (0 = available parallelism).
    pub threads: usize,
    /// Step budget handed to each trial via [`TrialCtx`].
    pub step_budget: u64,
    /// Retries after a panicked attempt before the slot is recorded as
    /// [`TrialOutcome::Panicked`].
    pub max_retries: u32,
    /// Manifest path for checkpoint/resume (`None` disables both).
    pub checkpoint: Option<PathBuf>,
    /// Completed trials between checkpoint flushes (the final flush always
    /// happens; clamped to ≥ 1).
    pub checkpoint_every: usize,
    /// Load previously completed trials from the manifest before running.
    pub resume: bool,
    /// Execute at most this many *new* trials, then stop and report the
    /// partial campaign (for incremental runs and kill/resume tests).
    pub stop_after: Option<usize>,
    /// Free-form parameter fingerprint stored in the manifest and checked
    /// on resume.
    pub tag: String,
}

impl CampaignConfig {
    /// A config with sane defaults: auto threads, a `10⁹`-step budget,
    /// 2 retries, checkpoint every 32 trials (once a path is set).
    pub fn new(trials: usize, master_seed: u64) -> Self {
        CampaignConfig {
            trials,
            master_seed,
            threads: 0,
            step_budget: 1_000_000_000,
            max_retries: 2,
            checkpoint: None,
            checkpoint_every: 32,
            resume: false,
            stop_after: None,
            tag: String::new(),
        }
    }
}

/// The aggregate result of [`run_campaign`].
///
/// [`CampaignReport::render`] is a pure function of
/// `(master_seed, trials, outcomes)` — resume bookkeeping is deliberately
/// excluded so an interrupted-and-resumed campaign renders byte-identical
/// to an uninterrupted one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignReport {
    /// The campaign's master seed.
    pub master_seed: u64,
    /// The campaign's total trial count (≥ `outcomes.len()` when partial).
    pub trials: usize,
    /// Completed trials, keyed by index.
    pub outcomes: BTreeMap<usize, TrialOutcome>,
    /// How many outcomes were resumed (from a manifest or prior
    /// outcomes) rather than run.
    pub resumed: usize,
}

impl CampaignReport {
    /// Completed trials (run + resumed).
    pub fn completed(&self) -> usize {
        self.outcomes.len()
    }

    /// Whether every trial in the campaign has an outcome.
    pub fn is_complete(&self) -> bool {
        self.completed() == self.trials
    }

    /// Whether any completed trial failed to converge (two-adjacent,
    /// timeout, or panicked) — the "degraded" exit condition.
    pub fn is_degraded(&self) -> bool {
        self.outcomes.values().any(|o| !o.is_converged())
    }

    /// `(converged, two_adjacent, timeout, panicked)` counts.
    pub fn counts(&self) -> (u64, u64, u64, u64) {
        let mut c = (0, 0, 0, 0);
        for o in self.outcomes.values() {
            match o {
                TrialOutcome::Converged { .. } => c.0 += 1,
                TrialOutcome::TwoAdjacent { .. } => c.1 += 1,
                TrialOutcome::Timeout { .. } => c.2 += 1,
                TrialOutcome::Panicked { .. } => c.3 += 1,
            }
        }
        c
    }

    /// Histogram of consensus winners over the converged trials.
    pub fn winner_histogram(&self) -> BTreeMap<i64, u64> {
        crate::stats::tally(self.outcomes.values().filter_map(|o| o.winner()))
    }

    /// The aggregated metrics rollup, derived purely from the outcome
    /// set — outcome-class counters, the convergence-rate gauge, and a
    /// steps-to-consensus histogram whose bounds come from the observed
    /// extremes (so the same outcomes always bin identically).
    pub fn metrics(&self) -> MetricsRegistry {
        metrics_of(&self.outcomes)
    }

    /// The deterministic textual report (see the type docs).
    pub fn render(&self) -> String {
        let (conv, two, timeout, panicked) = self.counts();
        let mut out = format!(
            "campaign master={} trials={} completed={}\n\
             outcomes converged={conv} two-adjacent={two} timeout={timeout} panicked={panicked}\n",
            self.master_seed,
            self.trials,
            self.completed()
        );
        let hist = self.winner_histogram();
        if !hist.is_empty() {
            out.push_str("winners");
            for (w, c) in &hist {
                out.push_str(&format!(" {w}={c}"));
            }
            out.push('\n');
        }
        // The phase-step summary is always present so downstream parsers
        // see a well-formed report even when no trial converged (an
        // all-timeout or all-panicked campaign must degrade, not vanish).
        let steps: Vec<f64> = self
            .outcomes
            .values()
            .filter_map(|o| match o {
                TrialOutcome::Converged { steps, .. } => Some(*steps as f64),
                _ => None,
            })
            .collect();
        if steps.is_empty() {
            out.push_str("steps-to-consensus none (no converged trials)\n");
        } else {
            let s = crate::stats::Summary::from_iter(steps);
            out.push_str(&format!(
                "steps-to-consensus mean={:.1} min={} max={}\n",
                s.mean, s.min as u64, s.max as u64
            ));
        }
        let metrics = self.metrics();
        if !metrics.is_empty() {
            out.push_str("metrics\n");
            out.push_str(&metrics.render());
        }
        out
    }
}

/// The metrics rollup for an outcome set (shared by
/// [`CampaignReport::metrics`] and the manifest writer, so both always
/// agree).
fn metrics_of(outcomes: &BTreeMap<usize, TrialOutcome>) -> MetricsRegistry {
    let mut m = MetricsRegistry::new();
    if outcomes.is_empty() {
        return m;
    }
    let mut steps_total = 0u64;
    let mut converged_steps: Vec<u64> = Vec::new();
    for o in outcomes.values() {
        let (class, steps) = match o {
            TrialOutcome::Converged { steps, .. } => {
                converged_steps.push(*steps);
                ("outcomes.converged", *steps)
            }
            TrialOutcome::TwoAdjacent { steps, .. } => ("outcomes.two_adjacent", *steps),
            TrialOutcome::Timeout { steps } => ("outcomes.timeout", *steps),
            TrialOutcome::Panicked { .. } => ("outcomes.panicked", 0),
        };
        m.add(class, 1);
        steps_total += steps;
    }
    m.add("steps.simulated", steps_total);
    m.set_gauge(
        "outcomes.converged_rate",
        converged_steps.len() as f64 / outcomes.len() as f64,
    );
    // Bounds from the observed extremes: a pure function of the outcome
    // set, so resumed and uninterrupted campaigns bin alike.  A fold
    // (rather than `min().unwrap()`) keeps the all-timeout/all-panicked
    // case total: with no converged trials there is simply no histogram.
    let extremes = converged_steps
        .iter()
        .fold(None::<(u64, u64)>, |acc, &s| match acc {
            None => Some((s, s)),
            Some((lo, hi)) => Some((lo.min(s), hi.max(s))),
        });
    if let Some((lo, hi)) = extremes {
        for s in &converged_steps {
            m.observe(
                "steps.to_consensus",
                lo as f64,
                hi as f64 + 1.0,
                8,
                *s as f64,
            );
        }
    }
    m
}

/// What can go wrong outside the trials themselves.
#[derive(Debug)]
pub enum CampaignError {
    /// Checkpoint IO failed.
    Io(std::io::Error),
    /// The manifest was malformed or does not match this campaign.
    Manifest(String),
    /// A resumed outcome (from a manifest or [`CampaignHooks::resumed`])
    /// names a trial index the campaign does not have.
    TrialOutOfRange {
        /// The offending trial index.
        trial: usize,
        /// The campaign's trial count.
        trials: usize,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Io(e) => write!(f, "checkpoint io error: {e}"),
            CampaignError::Manifest(m) => write!(f, "manifest error: {m}"),
            CampaignError::TrialOutOfRange { trial, trials } => write!(
                f,
                "resumed outcome for trial {trial} of a {trials}-trial campaign"
            ),
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<std::io::Error> for CampaignError {
    fn from(e: std::io::Error) -> Self {
        CampaignError::Io(e)
    }
}

/// Runs the campaign: claims pending trial indices across workers,
/// isolates and retries panicking attempts, streams finished outcomes to
/// the collector for periodic checkpointing, and returns the aggregate
/// report.
///
/// When `cfg.resume` is set and the manifest exists, its completed trials
/// are loaded (after a header check) and only the remainder is executed.
///
/// # Errors
///
/// Returns [`CampaignError`] for checkpoint IO failures, a mismatched or
/// malformed manifest, or a resumed outcome outside `0..cfg.trials`;
/// trial failures are *data* ([`TrialOutcome`]), never errors.
pub fn run_campaign<F>(cfg: &CampaignConfig, trial_fn: F) -> Result<CampaignReport, CampaignError>
where
    F: Fn(&TrialCtx) -> TrialOutcome + Sync,
{
    run_campaign_hooked(cfg, CampaignHooks::default(), trial_fn)
}

/// [`run_campaign`] driven by a **group executor**: workers hand
/// `batch_fn` up to `lanes` pending trials at a time as a slice of
/// [`TrialCtx`]s (attempt 0, the same per-trial seeds the scalar campaign
/// would use), which steps them to completion and returns one
/// [`TrialOutcome`] per context.
///
/// This is [`run_campaign_pooled`] with each group as one block of
/// `lanes` trials, and a group can be cut smaller at the campaign's tail
/// so the last trials spread over the workers.
/// Resilience composes with the scalar machinery: a `batch_fn` call
/// that panics, or that returns the wrong number of outcomes, demotes
/// every trial of that group to the scalar path — `trial_fn` with the
/// standard retry chain, whose attempt 0 reuses the very seed the batch
/// lane was given.  A batch engine that is bit-exact against `trial_fn`
/// therefore yields a report identical to [`run_campaign`]'s, whatever
/// fails.  Checkpoint/resume, `stop_after` and the outcome taxonomy are
/// untouched: resumed holes simply make non-contiguous groups.
///
/// # Errors
///
/// Identical to [`run_campaign`].
///
/// # Panics
///
/// Panics if `lanes == 0`.
pub fn run_campaign_batched<F, G>(
    cfg: &CampaignConfig,
    lanes: usize,
    batch_fn: F,
    trial_fn: G,
) -> Result<CampaignReport, CampaignError>
where
    F: Fn(&[TrialCtx]) -> Vec<TrialOutcome> + Sync,
    G: Fn(&TrialCtx) -> TrialOutcome + Sync,
{
    let groups = LaneGroups {
        lanes,
        run: &batch_fn,
    };
    run_campaign_pooled(cfg, CampaignHooks::default(), &groups, trial_fn)
}

/// [`run_campaign`] with [`CampaignHooks`] (live monitor, cooperative
/// cancellation, per-trial and retry callbacks) for front-ends and
/// services embedding the engine.
///
/// Every trial runs through `trial_fn` and its retry chain, as an
/// executor of the one driver loop of [`run_campaign_pooled`]: scalar
/// trials are lanes of one that finish in their first block.
///
/// # Errors
///
/// Identical to [`run_campaign`].
pub fn run_campaign_hooked<G>(
    cfg: &CampaignConfig,
    hooks: CampaignHooks<'_>,
    trial_fn: G,
) -> Result<CampaignReport, CampaignError>
where
    G: Fn(&TrialCtx) -> TrialOutcome + Sync,
{
    let scalar = ScalarTrials {
        cfg,
        hooks,
        trial_fn: &trial_fn,
    };
    run_campaign_pooled(cfg, hooks, &scalar, &trial_fn)
}

/// The campaign driver: every worker runs the one loop of a lane pool
/// shared by all workers, over the engine `engine`.
///
/// The pool holds at most `engine.group() × workers` loaded trials, one
/// block's worth per worker.  A worker fills free lanes from the pending
/// queue (each claim checks `cancel` and marks the trial started on the
/// monitor), takes up to `min(engine.group(), ⌈loaded / workers⌉)`
/// lanes, steps them one block and returns them.  A lane that finished reports its outcome at once —
/// to the monitor, `on_trial` and the checkpoint collector — and frees
/// its slot for the next pending trial.  Because claims shrink as the
/// pool drains, the campaign's last lanes are split across the workers
/// instead of queuing behind one.  A worker with nothing to claim waits
/// for lanes to come back, and leaves once the pool and the queue are
/// both empty.
///
/// A block that panics (or returns the wrong number of entries), and a
/// load that panics, demote exactly the trials they held to `trial_fn`
/// with the standard retry chain; the other workers keep going.  With a
/// bit-exact engine the report is identical to [`run_campaign`]'s for
/// every group width and thread count.
///
/// # Errors
///
/// Identical to [`run_campaign`].
///
/// # Panics
///
/// Panics if `engine.group() == 0`.
pub fn run_campaign_pooled<E, G>(
    cfg: &CampaignConfig,
    hooks: CampaignHooks<'_>,
    engine: &E,
    trial_fn: G,
) -> Result<CampaignReport, CampaignError>
where
    E: LaneEngine,
    G: Fn(&TrialCtx) -> TrialOutcome + Sync,
{
    assert!(engine.group() > 0, "need at least one lane per block");
    let trial_fn: &TrialFn<'_> = &trial_fn;
    let mut plan = Plan::load(cfg, &hooks)?;
    if !plan.scheduled.is_empty() {
        let threads = if cfg.threads == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        } else {
            cfg.threads
        };
        let workers = threads.min(plan.scheduled.len()).max(1);
        let queue = TrialQueue {
            cfg,
            hooks: &hooks,
            scheduled: &plan.scheduled,
            next: AtomicUsize::new(0),
        };
        let pool = Pool {
            engine,
            capacity: engine.group() * workers,
            workers,
            state: Mutex::new(PoolState {
                ready: VecDeque::new(),
                spare: Vec::new(),
                live: 0,
                waiting: 0,
                closed: false,
            }),
            wake: Condvar::new(),
        };
        let (tx, rx) = mpsc::channel::<(usize, TrialOutcome)>();
        let outcomes = &mut plan.outcomes;
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                let (pool, queue) = (&pool, &queue);
                scope.spawn(move || {
                    let _close = CloseOnUnwind(pool);
                    let mut report = |i: usize, outcome: TrialOutcome| {
                        if let Some(m) = hooks.monitor {
                            m.record_outcome(&outcome);
                        }
                        tx.send((i, outcome)).is_ok()
                    };
                    // Demoted trials: the attempt chain, whose attempt 0
                    // reuses the lane's seed, so a healthy scalar engine
                    // reproduces exactly what the lane would have.
                    let demote = |i: usize| run_one_trial(cfg, i, &hooks, trial_fn);
                    let mut held = Held::default();
                    while pool.work(queue, &mut held, &mut report, &demote) {}
                });
            }
            drop(tx);
            collect(cfg, &hooks, rx, outcomes)
        })?;
    }
    plan.finish(cfg)
}

/// A campaign's per-trial closure, behind one pointer so the driver is
/// compiled once per engine rather than once per closure.
type TrialFn<'a> = dyn Fn(&TrialCtx) -> TrialOutcome + Sync + 'a;

/// The campaign state around the worker loop: the outcomes so far
/// (resumed from the manifest or the prior-outcomes hook) and the trials
/// this run starts.
struct Plan {
    outcomes: BTreeMap<usize, TrialOutcome>,
    resumed: usize,
    scheduled: Vec<usize>,
}

impl Plan {
    /// Loads the manifest when resuming and takes the hooks' prior
    /// outcomes, refusing any outside `0..cfg.trials`; replays the
    /// resumed outcomes into the monitor, and schedules the pending
    /// trials (at most `cfg.stop_after` of them).
    fn load(cfg: &CampaignConfig, hooks: &CampaignHooks<'_>) -> Result<Plan, CampaignError> {
        let mut outcomes: BTreeMap<usize, TrialOutcome> = BTreeMap::new();
        if let Some(path) = &cfg.checkpoint {
            if cfg.resume && path.exists() {
                let manifest = Manifest::load(path)?;
                manifest.check_matches(cfg)?;
                outcomes = manifest.outcomes;
            }
        }
        if let Some(prior) = hooks.resumed {
            outcomes.extend(prior.iter().map(|(&i, o)| (i, o.clone())));
        }
        if let Some(&trial) = outcomes.keys().next_back().filter(|&&i| i >= cfg.trials) {
            return Err(CampaignError::TrialOutOfRange {
                trial,
                trials: cfg.trials,
            });
        }
        let resumed = outcomes.len();
        if let Some(m) = hooks.monitor {
            m.set_expected(cfg.trials as u64);
            for outcome in outcomes.values() {
                m.trial_started();
                m.record_outcome(outcome);
            }
        }
        let pending = (0..cfg.trials).filter(|i| !outcomes.contains_key(i));
        let scheduled: Vec<usize> = match cfg.stop_after {
            Some(k) => pending.take(k).collect(),
            None => pending.collect(),
        };
        Ok(Plan {
            outcomes,
            resumed,
            scheduled,
        })
    }

    /// Writes the final manifest and returns the report.
    fn finish(self, cfg: &CampaignConfig) -> Result<CampaignReport, CampaignError> {
        if let Some(path) = &cfg.checkpoint {
            write_manifest(path, cfg, &self.outcomes)?;
        }
        Ok(CampaignReport {
            master_seed: cfg.master_seed,
            trials: cfg.trials,
            outcomes: self.outcomes,
            resumed: self.resumed,
        })
    }
}

/// The collector: records outcomes in completion order, calls
/// `on_trial`, and flushes the manifest every `cfg.checkpoint_every`
/// outcomes, until every worker has hung up.
fn collect(
    cfg: &CampaignConfig,
    hooks: &CampaignHooks<'_>,
    rx: mpsc::Receiver<(usize, TrialOutcome)>,
    outcomes: &mut BTreeMap<usize, TrialOutcome>,
) -> Result<(), CampaignError> {
    let flush_every = cfg.checkpoint_every.max(1);
    let mut since_flush = 0usize;
    for (i, outcome) in rx {
        if let Some(f) = hooks.on_trial {
            f(i, &outcome);
        }
        outcomes.insert(i, outcome);
        since_flush += 1;
        if let Some(path) = &cfg.checkpoint {
            if since_flush >= flush_every {
                write_manifest(path, cfg, outcomes)?;
                since_flush = 0;
            }
        }
    }
    Ok(())
}

/// The trials a campaign still has to start, claimed one at a time.
struct TrialQueue<'a> {
    cfg: &'a CampaignConfig,
    hooks: &'a CampaignHooks<'a>,
    scheduled: &'a [usize],
    next: AtomicUsize,
}

impl TrialQueue<'_> {
    /// The next pending trial's attempt-0 context, marked started on the
    /// monitor; `None` once the queue is drained or the campaign is
    /// cancelled.
    fn claim(&self) -> Option<TrialCtx> {
        if self.hooks.cancelled() {
            return None;
        }
        let &trial = self
            .scheduled
            .get(self.next.fetch_add(1, Ordering::Relaxed))?;
        if let Some(m) = self.hooks.monitor {
            m.trial_started();
        }
        Some(TrialCtx {
            trial,
            seed: SeedSequence::seed_for(self.cfg.master_seed, trial as u64),
            attempt: 0,
            step_budget: self.cfg.step_budget,
        })
    }
}

/// The lane pool the workers of one campaign share.
struct Pool<'e, E: LaneEngine> {
    engine: &'e E,
    /// Most lanes loaded at once: `engine.group() × workers`.
    capacity: usize,
    workers: usize,
    state: Mutex<PoolState<E::Lane>>,
    /// Signalled whenever lanes come back or the pool closes.
    wake: Condvar,
}

struct PoolState<L> {
    /// Loaded lanes no worker holds, longest-waiting first.
    ready: VecDeque<(TrialCtx, L)>,
    /// Finished lanes, kept for their buffers.
    spare: Vec<L>,
    /// Loaded lanes not yet finished: `ready` plus those workers hold.
    live: usize,
    /// Workers waiting for lanes to come back.
    waiting: usize,
    /// Set when a worker stops early; every worker then leaves.
    closed: bool,
}

/// The lanes one worker holds for a block.
struct Held<L> {
    ctxs: Vec<TrialCtx>,
    lanes: Vec<L>,
}

impl<L> Default for Held<L> {
    fn default() -> Self {
        Held {
            ctxs: Vec::new(),
            lanes: Vec::new(),
        }
    }
}

/// Closes the pool if its worker unwinds, so no other worker waits for
/// lanes that will never come back.
struct CloseOnUnwind<'p, 'e, E: LaneEngine>(&'p Pool<'e, E>);

impl<E: LaneEngine> Drop for CloseOnUnwind<'_, '_, E> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.close();
        }
    }
}

impl<E: LaneEngine> Pool<'_, E> {
    /// The pool state.  Nothing that can panic runs under the lock (loads
    /// are caught), so a poisoned lock still guards a consistent state,
    /// and the workers must keep draining it to finish the campaign.
    fn lock(&self) -> MutexGuard<'_, PoolState<E::Lane>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn close(&self) {
        self.lock().closed = true;
        self.wake.notify_all();
    }

    /// One turn of the worker loop: refill free lanes, claim lanes, step
    /// them one block, report what finished.  `false` once the worker
    /// should leave.
    fn work(
        &self,
        queue: &TrialQueue<'_>,
        held: &mut Held<E::Lane>,
        report: &mut dyn FnMut(usize, TrialOutcome) -> bool,
        demote: &dyn Fn(usize) -> TrialOutcome,
    ) -> bool {
        let mut demoted: Vec<usize> = Vec::new();
        {
            let mut st = self.lock();
            loop {
                if st.closed {
                    return false;
                }
                while st.live < self.capacity {
                    let Some(ctx) = queue.claim() else { break };
                    let recycled = st.spare.pop();
                    match catch_unwind(AssertUnwindSafe(|| self.engine.load(&ctx, recycled))) {
                        Ok(lane) => {
                            st.ready.push_back((ctx, lane));
                            st.live += 1;
                        }
                        Err(_) => demoted.push(ctx.trial),
                    }
                }
                if !demoted.is_empty() {
                    break;
                }
                let claim = self.engine.group().min(st.live.div_ceil(self.workers));
                while held.lanes.len() < claim {
                    let Some((ctx, lane)) = st.ready.pop_front() else {
                        break;
                    };
                    held.ctxs.push(ctx);
                    held.lanes.push(lane);
                }
                if !held.lanes.is_empty() {
                    break;
                }
                if st.live == 0 {
                    // Nothing loaded and nothing left to load.
                    self.wake.notify_all();
                    return false;
                }
                st.waiting += 1;
                st = self.wake.wait(st).unwrap_or_else(PoisonError::into_inner);
                st.waiting -= 1;
            }
        }
        let mut finished: Vec<(usize, TrialOutcome)> = Vec::new();
        if !held.lanes.is_empty() {
            let stepped = catch_unwind(AssertUnwindSafe(|| self.engine.step(&mut held.lanes)))
                .ok()
                .filter(|v| v.len() == held.lanes.len());
            let mut st = self.lock();
            match stepped {
                Some(results) => {
                    let lanes = held.ctxs.drain(..).zip(held.lanes.drain(..));
                    for ((ctx, lane), result) in lanes.zip(results) {
                        match result {
                            Some(outcome) => {
                                finished.push((ctx.trial, outcome));
                                st.spare.push(lane);
                                st.live -= 1;
                            }
                            None => st.ready.push_back((ctx, lane)),
                        }
                    }
                }
                None => {
                    st.live -= held.lanes.len();
                    held.lanes.clear();
                    demoted.extend(held.ctxs.drain(..).map(|c| c.trial));
                }
            }
            if st.waiting > 0 {
                self.wake.notify_all();
            }
        }
        for (i, outcome) in finished {
            if !report(i, outcome) {
                self.close();
                return false;
            }
        }
        for i in demoted {
            if !report(i, demote(i)) {
                self.close();
                return false;
            }
        }
        true
    }
}

/// The scalar executor: each trial is a lane of one that finishes in its
/// first block, through `trial_fn` and its retry chain.
struct ScalarTrials<'a> {
    cfg: &'a CampaignConfig,
    hooks: CampaignHooks<'a>,
    trial_fn: &'a TrialFn<'a>,
}

impl LaneEngine for ScalarTrials<'_> {
    type Lane = TrialCtx;

    fn group(&self) -> usize {
        1
    }

    fn load(&self, ctx: &TrialCtx, _recycled: Option<TrialCtx>) -> TrialCtx {
        *ctx
    }

    fn step(&self, lanes: &mut [TrialCtx]) -> Vec<Option<TrialOutcome>> {
        (lanes.iter())
            .map(|ctx| {
                Some(run_one_trial(
                    self.cfg,
                    ctx.trial,
                    &self.hooks,
                    self.trial_fn,
                ))
            })
            .collect()
    }
}

/// The group executor: a block is one `run` call over the claimed
/// trials, which finishes them all.
impl LaneEngine for LaneGroups<'_> {
    type Lane = TrialCtx;

    fn group(&self) -> usize {
        self.lanes
    }

    fn load(&self, ctx: &TrialCtx, _recycled: Option<TrialCtx>) -> TrialCtx {
        *ctx
    }

    fn step(&self, lanes: &mut [TrialCtx]) -> Vec<Option<TrialOutcome>> {
        (self.run)(lanes).into_iter().map(Some).collect()
    }
}

/// One slot: run the attempt chain until an outcome or retry exhaustion.
fn run_one_trial(
    cfg: &CampaignConfig,
    trial: usize,
    hooks: &CampaignHooks<'_>,
    trial_fn: &TrialFn<'_>,
) -> TrialOutcome {
    let base = SeedSequence::seed_for(cfg.master_seed, trial as u64);
    let mut last = String::new();
    for attempt in 0..=cfg.max_retries {
        let seed = if attempt == 0 {
            base
        } else {
            if let Some(m) = hooks.monitor {
                m.trial_retried();
            }
            if let Some(f) = hooks.on_retry {
                f(trial);
            }
            SeedSequence::seed_for(base, attempt as u64)
        };
        let ctx = TrialCtx {
            trial,
            seed,
            attempt,
            step_budget: cfg.step_budget,
        };
        match catch_unwind(AssertUnwindSafe(|| trial_fn(&ctx))) {
            Ok(outcome) => return outcome,
            Err(payload) => last = panic_message(payload.as_ref()),
        }
    }
    TrialOutcome::Panicked {
        attempts: cfg.max_retries + 1,
        message: last,
    }
}

/// Backslash-escapes newlines so any string fits in one manifest line.
fn escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('\n', "\\n")
        .replace('\r', "\\r")
}

/// Inverse of [`escape`].
fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('\\') => out.push('\\'),
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

/// A loaded checkpoint manifest.
struct Manifest {
    master: u64,
    trials: usize,
    tag: String,
    outcomes: BTreeMap<usize, TrialOutcome>,
}

impl Manifest {
    fn load(path: &Path) -> Result<Manifest, CampaignError> {
        let text = fs::read_to_string(path)?;
        let bad = |line_no: usize, what: &str| {
            CampaignError::Manifest(format!("{}:{}: {what}", path.display(), line_no + 1))
        };
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, "divlab-campaign v1")) => {}
            _ => return Err(bad(0, "missing `divlab-campaign v1` header")),
        }
        let mut master: Option<u64> = None;
        let mut trials: Option<usize> = None;
        let mut tag: Option<String> = None;
        let mut outcomes = BTreeMap::new();
        for (no, line) in lines {
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("master ") {
                master = Some(rest.parse().map_err(|_| bad(no, "bad master seed"))?);
            } else if let Some(rest) = line.strip_prefix("trials ") {
                trials = Some(rest.parse().map_err(|_| bad(no, "bad trial count"))?);
            } else if let Some(rest) = line.strip_prefix("tag ") {
                tag = Some(unescape(rest));
            } else if line == "tag" {
                tag = Some(String::new());
            } else if line.starts_with("trial ") {
                let (i, o) =
                    TrialOutcome::parse_line(line).ok_or_else(|| bad(no, "bad trial record"))?;
                outcomes.insert(i, o);
            } else if line.starts_with("metric ") || line == "metric" {
                // Aggregated metrics are recomputed from the trial
                // records on every write; the stored copies are
                // informational and deliberately not trusted here.
            } else {
                return Err(bad(no, "unrecognised record"));
            }
        }
        Ok(Manifest {
            master: master.ok_or_else(|| bad(0, "missing master record"))?,
            trials: trials.ok_or_else(|| bad(0, "missing trials record"))?,
            tag: tag.unwrap_or_default(),
            outcomes,
        })
    }

    /// Refuses to resume a manifest written by a different campaign.
    fn check_matches(&self, cfg: &CampaignConfig) -> Result<(), CampaignError> {
        if self.master != cfg.master_seed {
            return Err(CampaignError::Manifest(format!(
                "manifest master seed {} does not match campaign seed {}",
                self.master, cfg.master_seed
            )));
        }
        if self.trials != cfg.trials {
            return Err(CampaignError::Manifest(format!(
                "manifest trial count {} does not match campaign trials {}",
                self.trials, cfg.trials
            )));
        }
        if self.tag != cfg.tag {
            return Err(CampaignError::Manifest(format!(
                "manifest tag {:?} does not match campaign tag {:?}",
                self.tag, cfg.tag
            )));
        }
        Ok(())
    }
}

/// Serialises the manifest and replaces the file atomically and durably
/// (via [`div_oplog::atomic_write`]) — a kill can lose at most the last
/// `checkpoint_every` trials, never corrupt the file.
fn write_manifest(
    path: &Path,
    cfg: &CampaignConfig,
    outcomes: &BTreeMap<usize, TrialOutcome>,
) -> Result<(), CampaignError> {
    let mut text = String::with_capacity(64 + outcomes.len() * 32);
    text.push_str("divlab-campaign v1\n");
    text.push_str(&format!("master {}\n", cfg.master_seed));
    text.push_str(&format!("trials {}\n", cfg.trials));
    text.push_str(&format!("tag {}\n", escape(&cfg.tag)));
    for (i, o) in outcomes {
        text.push_str(&o.manifest_line(*i));
        text.push('\n');
    }
    for line in metrics_of(outcomes).render().lines() {
        text.push_str(&format!("metric {line}\n"));
    }
    atomic_write(path, text.as_bytes())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_manifest(label: &str) -> PathBuf {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        std::env::temp_dir().join(format!(
            "div-campaign-{label}-{}-{}.manifest",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn outcome_for(ctx: &TrialCtx) -> TrialOutcome {
        TrialOutcome::Converged {
            winner: (ctx.seed % 3) as i64,
            steps: ctx.seed % 1000,
        }
    }

    #[test]
    fn manifest_lines_round_trip() {
        let cases = [
            (
                0usize,
                TrialOutcome::Converged {
                    winner: -2,
                    steps: 12345,
                },
            ),
            (
                7,
                TrialOutcome::TwoAdjacent {
                    low: 3,
                    high: 4,
                    steps: 99,
                },
            ),
            (42, TrialOutcome::Timeout { steps: 1_000_000 }),
            (
                3,
                TrialOutcome::Panicked {
                    attempts: 3,
                    message: "index 12 out of\nbounds \\ with spaces".to_string(),
                },
            ),
            (
                4,
                TrialOutcome::Panicked {
                    attempts: 1,
                    message: String::new(),
                },
            ),
        ];
        for (i, o) in cases {
            let line = o.manifest_line(i);
            assert!(!line.contains('\n'), "line breaks leak: {line:?}");
            let (pi, po) = TrialOutcome::parse_line(&line).expect("round trip");
            assert_eq!((pi, po), (i, o));
        }
        assert!(TrialOutcome::parse_line("trial x converged 1 2").is_none());
        assert!(TrialOutcome::parse_line("trial 1 wat 1 2").is_none());
    }

    #[test]
    fn escape_round_trips() {
        for s in ["", "plain", "a\nb", "a\\nb", "tr\\ail\\", "\r\n\\"] {
            assert_eq!(unescape(&escape(s)), s, "for {s:?}");
            assert!(!escape(s).contains('\n'));
        }
    }

    #[test]
    fn campaign_runs_to_completion_without_checkpoint() {
        let cfg = CampaignConfig::new(20, 0xC0FFEE);
        let report = run_campaign(&cfg, outcome_for).unwrap();
        assert!(report.is_complete());
        assert!(!report.is_degraded());
        assert_eq!(report.completed(), 20);
        assert_eq!(report.resumed, 0);
        let (conv, two, timeout, panicked) = report.counts();
        assert_eq!((conv, two, timeout, panicked), (20, 0, 0, 0));
        assert_eq!(report.winner_histogram().values().sum::<u64>(), 20);
    }

    #[test]
    fn report_is_thread_count_invariant() {
        let mut one = CampaignConfig::new(33, 5);
        one.threads = 1;
        let mut many = CampaignConfig::new(33, 5);
        many.threads = 8;
        let a = run_campaign(&one, outcome_for).unwrap();
        let b = run_campaign(&many, outcome_for).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn panicking_slot_is_recorded_not_raised() {
        let mut cfg = CampaignConfig::new(10, 77);
        cfg.max_retries = 1;
        let report = run_campaign(&cfg, |ctx| {
            assert!(ctx.trial != 4, "slot four always explodes");
            outcome_for(ctx)
        })
        .unwrap();
        assert!(report.is_complete());
        assert!(report.is_degraded());
        match &report.outcomes[&4] {
            TrialOutcome::Panicked { attempts, message } => {
                assert_eq!(*attempts, 2);
                assert!(message.contains("slot four always explodes"));
            }
            other => panic!("expected panic record, got {other:?}"),
        }
        assert_eq!(report.counts().0, 9);
    }

    #[test]
    fn retry_recovers_with_fresh_subseed() {
        let cfg = CampaignConfig::new(6, 123);
        let report = run_campaign(&cfg, |ctx| {
            // Trial 2 fails on its first attempt only; the retry must run
            // with a different (but deterministic) seed and succeed.
            assert!(!(ctx.trial == 2 && ctx.attempt == 0), "transient failure");
            if ctx.trial == 2 {
                let base = SeedSequence::seed_for(123, 2);
                assert_eq!(ctx.seed, SeedSequence::seed_for(base, ctx.attempt as u64));
                assert_ne!(ctx.seed, base);
            }
            outcome_for(ctx)
        })
        .unwrap();
        assert!(!report.is_degraded(), "retry should have recovered");
        assert!(report.outcomes[&2].is_converged());
    }

    #[test]
    fn checkpoint_and_resume_reproduce_uninterrupted_run() {
        let path = temp_manifest("resume");
        let mut cfg = CampaignConfig::new(30, 0xABCD);
        cfg.checkpoint = Some(path.clone());
        cfg.checkpoint_every = 5;
        cfg.tag = "unit-test".to_string();

        // Phase 1: run only 12 trials, then "die".
        let mut partial = cfg.clone();
        partial.stop_after = Some(12);
        let p = run_campaign(&partial, outcome_for).unwrap();
        assert!(!p.is_complete());
        assert_eq!(p.completed(), 12);

        // Phase 2: resume to completion.
        let mut resume = cfg.clone();
        resume.resume = true;
        let resumed = run_campaign(&resume, outcome_for).unwrap();
        assert!(resumed.is_complete());
        assert_eq!(resumed.resumed, 12);
        let manifest_bytes = fs::read(&path).unwrap();

        // Uninterrupted control with the same master seed.
        let control_path = temp_manifest("control");
        let mut control = cfg.clone();
        control.checkpoint = Some(control_path.clone());
        let c = run_campaign(&control, outcome_for).unwrap();

        assert_eq!(resumed.outcomes, c.outcomes);
        assert_eq!(
            resumed.render(),
            c.render(),
            "reports must be byte-identical"
        );
        assert_eq!(manifest_bytes, fs::read(&control_path).unwrap());
        fs::remove_file(&path).ok();
        fs::remove_file(&control_path).ok();
    }

    #[test]
    fn resume_rejects_mismatched_manifest() {
        let path = temp_manifest("mismatch");
        let mut cfg = CampaignConfig::new(8, 1);
        cfg.checkpoint = Some(path.clone());
        run_campaign(&cfg, outcome_for).unwrap();

        for mutate in [
            |c: &mut CampaignConfig| c.master_seed = 2,
            |c: &mut CampaignConfig| c.trials = 9,
            |c: &mut CampaignConfig| c.tag = "different".to_string(),
        ] {
            let mut other = cfg.clone();
            other.resume = true;
            mutate(&mut other);
            match run_campaign(&other, outcome_for) {
                Err(CampaignError::Manifest(msg)) => {
                    assert!(msg.contains("does not match"), "{msg}")
                }
                other => panic!("expected manifest mismatch, got {other:?}"),
            }
        }
        // A trial record the campaign does not have: the manifest edited
        // so that trial 4 claims to be trial 99.
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, text.replace("\ntrial 4 ", "\ntrial 99 ")).unwrap();
        let mut other = cfg.clone();
        other.resume = true;
        match run_campaign(&other, outcome_for) {
            Err(CampaignError::TrialOutOfRange {
                trial: 99,
                trials: 8,
            }) => {}
            other => panic!("expected an out-of-range trial, got {other:?}"),
        }
        fs::remove_file(&path).ok();
    }

    #[test]
    fn prior_outcomes_resume_like_a_manifest() {
        let cfg = CampaignConfig::new(30, 0xABCD);
        let mut partial = cfg.clone();
        partial.stop_after = Some(12);
        let prior = run_campaign(&partial, outcome_for).unwrap().outcomes;

        let ran = Mutex::new(Vec::new());
        let on_trial = |i: usize, _: &TrialOutcome| ran.lock().unwrap().push(i);
        let monitor = CampaignMonitor::new();
        let hooks = CampaignHooks {
            monitor: Some(&monitor),
            on_trial: Some(&on_trial),
            resumed: Some(&prior),
            ..CampaignHooks::default()
        };
        let resumed = run_campaign_hooked(&cfg, hooks, outcome_for).unwrap();
        assert_eq!(resumed.resumed, 12);
        let mut ran = ran.into_inner().unwrap();
        ran.sort_unstable();
        assert_eq!(ran, (12..30).collect::<Vec<_>>(), "prior trials ran again");
        assert_eq!(monitor.snapshot().finished, 30);
        let control = run_campaign(&cfg, outcome_for).unwrap();
        assert_eq!(resumed.render(), control.render());

        let mut stray = prior;
        stray.insert(30, TrialOutcome::Timeout { steps: 1 });
        let hooks = CampaignHooks {
            resumed: Some(&stray),
            ..CampaignHooks::default()
        };
        match run_campaign_hooked(&cfg, hooks, outcome_for) {
            Err(CampaignError::TrialOutOfRange {
                trial: 30,
                trials: 30,
            }) => {}
            other => panic!("expected an out-of-range trial, got {other:?}"),
        }
    }

    #[test]
    fn malformed_manifest_is_a_parse_error() {
        let path = temp_manifest("malformed");
        fs::write(&path, "not a manifest\n").unwrap();
        let mut cfg = CampaignConfig::new(4, 3);
        cfg.checkpoint = Some(path.clone());
        cfg.resume = true;
        match run_campaign(&cfg, outcome_for) {
            Err(CampaignError::Manifest(msg)) => assert!(msg.contains("header"), "{msg}"),
            other => panic!("expected parse error, got {other:?}"),
        }
        fs::remove_file(&path).ok();
    }

    #[test]
    fn batched_campaign_matches_scalar_campaign() {
        let cfg = CampaignConfig::new(29, 0xBA7C4);
        let scalar = run_campaign(&cfg, outcome_for).unwrap();
        for lanes in [1, 3, 8, 64] {
            let batched = run_campaign_batched(
                &cfg,
                lanes,
                |ctxs| ctxs.iter().map(outcome_for).collect(),
                outcome_for,
            )
            .unwrap();
            assert_eq!(batched, scalar, "lanes={lanes}");
            assert_eq!(batched.render(), scalar.render(), "lanes={lanes}");
        }
    }

    #[test]
    fn batched_campaign_is_thread_count_invariant() {
        let mut one = CampaignConfig::new(33, 5);
        one.threads = 1;
        let mut many = one.clone();
        many.threads = 8;
        let batch = |ctxs: &[TrialCtx]| ctxs.iter().map(outcome_for).collect::<Vec<_>>();
        let a = run_campaign_batched(&one, 4, batch, outcome_for).unwrap();
        let b = run_campaign_batched(&many, 4, batch, outcome_for).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn panicking_batch_group_falls_back_to_scalar_trials() {
        let cfg = CampaignConfig::new(20, 0xFA11);
        let scalar = run_campaign(&cfg, outcome_for).unwrap();
        // Group containing trial 5 always dies; its trials must come back
        // through the scalar path with identical outcomes.
        let batched = run_campaign_batched(
            &cfg,
            4,
            |ctxs| {
                assert!(!ctxs.iter().any(|c| c.trial == 5), "group exploded");
                ctxs.iter().map(outcome_for).collect()
            },
            outcome_for,
        )
        .unwrap();
        assert_eq!(batched, scalar);
    }

    #[test]
    fn wrong_arity_batch_group_falls_back_to_scalar_trials() {
        let cfg = CampaignConfig::new(10, 7);
        let scalar = run_campaign(&cfg, outcome_for).unwrap();
        let batched = run_campaign_batched(
            &cfg,
            5,
            |ctxs| {
                let mut v: Vec<TrialOutcome> = ctxs.iter().map(outcome_for).collect();
                if ctxs[0].trial == 0 {
                    v.pop(); // first group under-delivers
                }
                v
            },
            outcome_for,
        )
        .unwrap();
        assert_eq!(batched, scalar);
    }

    #[test]
    fn batched_campaign_checkpoints_and_resumes_exactly() {
        let path = temp_manifest("batched-resume");
        let mut cfg = CampaignConfig::new(30, 0xABCD);
        cfg.checkpoint = Some(path.clone());
        cfg.checkpoint_every = 5;
        cfg.tag = "unit-test".to_string();
        let batch = |ctxs: &[TrialCtx]| ctxs.iter().map(outcome_for).collect::<Vec<_>>();

        let mut partial = cfg.clone();
        partial.stop_after = Some(11);
        let p = run_campaign_batched(&partial, 4, batch, outcome_for).unwrap();
        assert_eq!(p.completed(), 11);

        let mut resume = cfg.clone();
        resume.resume = true;
        let resumed = run_campaign_batched(&resume, 4, batch, outcome_for).unwrap();
        assert!(resumed.is_complete());
        assert_eq!(resumed.resumed, 11);

        // The scalar control must agree outcome-for-outcome.
        let control = run_campaign(&CampaignConfig::new(30, 0xABCD), outcome_for).unwrap();
        assert_eq!(resumed.outcomes, control.outcomes);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn batched_campaign_publishes_to_monitor() {
        let monitor = CampaignMonitor::new();
        let cfg = CampaignConfig::new(12, 3);
        let hooks = CampaignHooks {
            monitor: Some(&monitor),
            ..CampaignHooks::default()
        };
        let batch = |ctxs: &[TrialCtx]| ctxs.iter().map(outcome_for).collect::<Vec<_>>();
        let groups = LaneGroups {
            lanes: 5,
            run: &batch,
        };
        let report = run_campaign_pooled(&cfg, hooks, &groups, outcome_for).unwrap();
        assert!(report.is_complete());
        let s = monitor.snapshot();
        assert_eq!((s.expected, s.started, s.finished), (12, 12, 12));
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn batched_campaign_rejects_zero_lanes() {
        let cfg = CampaignConfig::new(2, 1);
        let _ = run_campaign_batched(
            &cfg,
            0,
            |c| c.iter().map(outcome_for).collect(),
            outcome_for,
        );
    }

    #[test]
    fn hooks_stream_trials_and_cancel_then_resume_byte_identical() {
        use std::sync::Mutex;
        let path = temp_manifest("hooked-cancel");
        let mut cfg = CampaignConfig::new(40, 0xF00D);
        cfg.checkpoint = Some(path.clone());
        cfg.checkpoint_every = 1;
        cfg.threads = 2;
        cfg.tag = "hooked".to_string();

        // Cancel as soon as a handful of trials have streamed through
        // the on_trial hook.
        let cancel = AtomicBool::new(false);
        let seen: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        let on_trial = |i: usize, o: &TrialOutcome| {
            assert!(o.is_converged());
            let mut seen = seen.lock().unwrap();
            seen.push(i);
            if seen.len() >= 5 {
                cancel.store(true, Ordering::SeqCst);
            }
        };
        let hooks = CampaignHooks {
            cancel: Some(&cancel),
            on_trial: Some(&on_trial),
            ..CampaignHooks::default()
        };
        // Trials must take long enough for the cancel flag to land
        // before the workers drain the whole schedule.
        let slow_trial = |ctx: &TrialCtx| {
            std::thread::sleep(std::time::Duration::from_millis(3));
            outcome_for(ctx)
        };
        let partial = run_campaign_hooked(&cfg, hooks, slow_trial).unwrap();
        let streamed = seen.lock().unwrap().len();
        assert_eq!(partial.completed(), streamed, "every outcome streamed");
        assert!(
            partial.completed() < 40,
            "cancellation must stop the campaign early (got {})",
            partial.completed()
        );

        // Resuming from the cancelled checkpoint completes the campaign
        // and renders byte-identically to an uninterrupted control run.
        let mut resume = cfg.clone();
        resume.resume = true;
        let resumed = run_campaign_hooked(&resume, CampaignHooks::default(), outcome_for).unwrap();
        assert!(resumed.is_complete());
        let mut control_cfg = CampaignConfig::new(40, 0xF00D);
        control_cfg.tag = "hooked".to_string();
        let control = run_campaign(&control_cfg, outcome_for).unwrap();
        assert_eq!(resumed.render(), control.render());
        fs::remove_file(&path).ok();
    }

    #[test]
    fn batched_hooks_cancel_between_groups() {
        let cancel = AtomicBool::new(true); // cancelled before any work
        let hooks = CampaignHooks {
            cancel: Some(&cancel),
            ..CampaignHooks::default()
        };
        let cfg = CampaignConfig::new(20, 7);
        let batch = |ctxs: &[TrialCtx]| ctxs.iter().map(outcome_for).collect::<Vec<_>>();
        let groups = LaneGroups {
            lanes: 4,
            run: &batch,
        };
        let report = run_campaign_pooled(&cfg, hooks, &groups, outcome_for).unwrap();
        assert_eq!(report.completed(), 0, "pre-cancelled campaign runs nothing");
    }

    /// A lane engine whose trial `i` needs `1 + seed mod 7` blocks (two
    /// under a hand-off script), and whose blocks panic while they hold
    /// trial `doom`.
    struct Blocks {
        group: usize,
        doom: Option<usize>,
        /// The trials each panicking block held.
        exploded: std::sync::Mutex<Vec<Vec<usize>>>,
        /// Lanes stepped by more than one worker thread.
        movers: std::sync::Mutex<std::collections::BTreeSet<usize>>,
        /// How long each block takes.
        pace: std::time::Duration,
        handoff: Option<HandOff>,
    }

    impl Blocks {
        fn new(group: usize, doom: Option<usize>) -> Blocks {
            Blocks {
                group,
                doom,
                exploded: std::sync::Mutex::new(Vec::new()),
                movers: std::sync::Mutex::new(Default::default()),
                pace: std::time::Duration::ZERO,
                handoff: None,
            }
        }

        /// The campaign has reported trial `i` (an `on_trial` hook).
        fn reported(&self, i: usize) {
            if let Some(h) = &self.handoff {
                h.state.lock().unwrap().reported.insert(i);
                h.changed.notify_all();
            }
        }
    }

    /// A handshake that makes a lane change workers on every schedule,
    /// for three trials of two blocks on two workers in blocks of at most
    /// two lanes.  The first claim takes two of the three lanes, and its
    /// block returns only once the third trial is reported, so two lanes
    /// remain and each later claim takes one.  A worker does not step
    /// while a lane it put back waits in the pool, so the lane the first
    /// worker leaves behind goes to the other worker.
    #[derive(Default)]
    struct HandOff {
        state: Mutex<HandOffState>,
        changed: Condvar,
    }

    #[derive(Default)]
    struct HandOffState {
        loaded: std::collections::BTreeSet<usize>,
        reported: std::collections::BTreeSet<usize>,
        /// Unfinished lanes in the pool, by the worker that stepped them.
        parked: BTreeMap<usize, std::thread::ThreadId>,
    }

    impl HandOff {
        /// Before a block: the held lanes leave the pool, then the worker
        /// waits until no lane it put back is still there.
        fn claim(&self, held: &[usize], me: std::thread::ThreadId) {
            let mut st = self.state.lock().unwrap();
            for t in held {
                st.parked.remove(t);
            }
            self.changed.notify_all();
            let _st = (self.changed)
                .wait_while(st, |st| st.parked.values().any(|&w| w == me))
                .unwrap();
        }

        /// After a block: a block of several lanes waits until every
        /// other loaded trial is reported, then the unfinished lanes go
        /// back to the pool.
        fn put_back(&self, held: &[usize], unfinished: &[usize], me: std::thread::ThreadId) {
            let mut st = self.state.lock().unwrap();
            if held.len() > 1 {
                st = (self.changed)
                    .wait_while(st, |st| {
                        (st.loaded.iter()).any(|t| !held.contains(t) && !st.reported.contains(t))
                    })
                    .unwrap();
            }
            for &t in unfinished {
                st.parked.insert(t, me);
            }
        }
    }

    impl LaneEngine for Blocks {
        type Lane = (TrialCtx, u64, Option<std::thread::ThreadId>);

        fn group(&self) -> usize {
            self.group
        }

        fn load(&self, ctx: &TrialCtx, _recycled: Option<Self::Lane>) -> Self::Lane {
            if let Some(h) = &self.handoff {
                h.state.lock().unwrap().loaded.insert(ctx.trial);
                return (*ctx, 2, None);
            }
            (*ctx, 1 + ctx.seed % 7, None)
        }

        fn step(&self, lanes: &mut [Self::Lane]) -> Vec<Option<TrialOutcome>> {
            std::thread::sleep(self.pace);
            let trials: Vec<usize> = lanes.iter().map(|l| l.0.trial).collect();
            if self.doom.is_some_and(|d| trials.contains(&d)) {
                self.exploded.lock().unwrap().push(trials);
                panic!("injected block failure");
            }
            let me = std::thread::current().id();
            if let Some(h) = &self.handoff {
                h.claim(&trials, me);
            }
            let results: Vec<Option<TrialOutcome>> = (lanes.iter_mut())
                .map(|(ctx, left, last)| {
                    if last.is_some_and(|t| t != me) {
                        self.movers.lock().unwrap().insert(ctx.trial);
                    }
                    *last = Some(me);
                    *left -= 1;
                    (*left == 0).then(|| outcome_for(ctx))
                })
                .collect();
            if let Some(h) = &self.handoff {
                let unfinished: Vec<usize> = (trials.iter().zip(&results))
                    .filter(|(_, r)| r.is_none())
                    .map(|(&t, _)| t)
                    .collect();
                h.put_back(&trials, &unfinished, me);
            }
            results
        }
    }

    #[test]
    fn pooled_campaign_matches_scalar_for_every_lane_and_thread_count() {
        let cfg = CampaignConfig::new(41, 0x9001);
        let scalar = run_campaign(&cfg, outcome_for).unwrap();
        for lanes in [1, 3, 4, 8, 64] {
            for threads in [1, 2, 4] {
                let cfg = CampaignConfig {
                    threads,
                    ..cfg.clone()
                };
                let engine = Blocks::new(lanes, None);
                let pooled =
                    run_campaign_pooled(&cfg, CampaignHooks::default(), &engine, outcome_for)
                        .unwrap();
                assert_eq!(pooled, scalar, "lanes={lanes} threads={threads}");
            }
        }
    }

    #[test]
    fn panicking_block_demotes_exactly_its_trials() {
        use std::sync::Mutex;
        let mut cfg = CampaignConfig::new(30, 0xD00D);
        cfg.threads = 2;
        let scalar = run_campaign(&cfg, outcome_for).unwrap();
        let engine = Blocks::new(4, Some(13));
        let demoted: Mutex<Vec<(usize, u64, u32)>> = Mutex::new(Vec::new());
        let trial = |ctx: &TrialCtx| {
            demoted
                .lock()
                .unwrap()
                .push((ctx.trial, ctx.seed, ctx.attempt));
            outcome_for(ctx)
        };
        let pooled = run_campaign_pooled(&cfg, CampaignHooks::default(), &engine, trial).unwrap();
        assert_eq!(pooled, scalar);
        let exploded = engine.exploded.into_inner().unwrap();
        assert_eq!(exploded.len(), 1, "one block held the doomed trial");
        let mut held = exploded[0].clone();
        held.sort_unstable();
        let mut demoted = demoted.into_inner().unwrap();
        demoted.sort_unstable();
        let want: Vec<(usize, u64, u32)> = (held.iter())
            .map(|&i| (i, SeedSequence::seed_for(0xD00D, i as u64), 0))
            .collect();
        assert_eq!(
            demoted, want,
            "the scalar chain reran exactly the block's trials"
        );
    }

    #[test]
    fn lanes_move_between_workers_as_the_pool_drains() {
        // With two workers sharing a pool, lanes change hands: the tail
        // is split instead of queuing behind one worker.  The hand-off
        // script forces the split whatever the scheduler does.
        let mut cfg = CampaignConfig::new(3, 0x7A1);
        cfg.threads = 2;
        let engine = Blocks {
            handoff: Some(HandOff::default()),
            ..Blocks::new(2, None)
        };
        let on_trial = |i: usize, _: &TrialOutcome| engine.reported(i);
        let hooks = CampaignHooks {
            on_trial: Some(&on_trial),
            ..CampaignHooks::default()
        };
        run_campaign_pooled(&cfg, hooks, &engine, outcome_for).unwrap();
        assert!(!engine.movers.into_inner().unwrap().is_empty());
    }

    #[test]
    fn mid_run_cancel_starts_nothing_new_and_finishes_lanes_in_flight() {
        let monitor = CampaignMonitor::new();
        let cancel = AtomicBool::new(false);
        let finished = AtomicUsize::new(0);
        let started_at_cancel = AtomicUsize::new(0);
        let on_trial = |_: usize, _: &TrialOutcome| {
            if finished.fetch_add(1, Ordering::SeqCst) + 1 == 10 {
                cancel.store(true, Ordering::SeqCst);
                let started = monitor.snapshot().started as usize;
                started_at_cancel.store(started, Ordering::SeqCst);
            }
        };
        let hooks = CampaignHooks {
            monitor: Some(&monitor),
            cancel: Some(&cancel),
            on_trial: Some(&on_trial),
            ..CampaignHooks::default()
        };
        let mut cfg = CampaignConfig::new(400, 0xCA7);
        cfg.threads = 2;
        let engine = Blocks {
            pace: std::time::Duration::from_micros(200),
            ..Blocks::new(4, None)
        };
        let report = run_campaign_pooled(&cfg, hooks, &engine, outcome_for).unwrap();
        let s = monitor.snapshot();
        // Every trial that started finished, and after the cancel at most
        // one claim per worker (already past its cancel check) started.
        assert_eq!(s.started, s.finished);
        assert_eq!(report.completed() as u64, s.finished);
        assert!(report.completed() >= 10);
        let at_cancel = started_at_cancel.load(Ordering::SeqCst) as u64;
        assert!(s.started <= at_cancel + 2, "{} vs {at_cancel}", s.started);
        assert!(report.completed() < 400);
    }

    /// [`Blocks`], checking at every load that the monitor counted
    /// exactly the trials loaded so far as started.
    struct Counted<'m> {
        inner: Blocks,
        monitor: &'m CampaignMonitor,
        loads: AtomicUsize,
    }

    impl LaneEngine for Counted<'_> {
        type Lane = <Blocks as LaneEngine>::Lane;

        fn group(&self) -> usize {
            self.inner.group()
        }

        fn load(&self, ctx: &TrialCtx, recycled: Option<Self::Lane>) -> Self::Lane {
            let loads = self.loads.fetch_add(1, Ordering::SeqCst) as u64 + 1;
            assert_eq!(
                self.monitor.snapshot().started,
                loads,
                "trial {}",
                ctx.trial
            );
            self.inner.load(ctx, recycled)
        }

        fn step(&self, lanes: &mut [Self::Lane]) -> Vec<Option<TrialOutcome>> {
            self.inner.step(lanes)
        }
    }

    #[test]
    fn monitor_counts_each_trial_as_it_starts_and_finishes() {
        let monitor = CampaignMonitor::new();
        let seen: std::sync::Mutex<Vec<u64>> = std::sync::Mutex::new(Vec::new());
        let on_trial = |_: usize, _: &TrialOutcome| {
            seen.lock().unwrap().push(monitor.snapshot().finished);
        };
        let hooks = CampaignHooks {
            monitor: Some(&monitor),
            on_trial: Some(&on_trial),
            ..CampaignHooks::default()
        };
        let mut cfg = CampaignConfig::new(60, 0x5EE);
        cfg.threads = 2;
        let engine = Counted {
            inner: Blocks::new(4, None),
            monitor: &monitor,
            loads: AtomicUsize::new(0),
        };
        // A load whose check fails is demoted to this chain, which panics.
        let no_demotion = |_: &TrialCtx| -> TrialOutcome { panic!("a trial was demoted") };
        let report = run_campaign_pooled(&cfg, hooks, &engine, no_demotion).unwrap();
        assert!(!report.is_degraded(), "a load saw a wrong started count");
        // Each outcome is counted finished before `on_trial` sees it.
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), 60);
        for (k, &finished) in seen.iter().enumerate() {
            assert!(finished > k as u64, "{k}: {finished}");
        }
        let s = monitor.snapshot();
        assert_eq!((s.expected, s.started, s.finished), (60, 60, 60));
    }

    #[test]
    fn retry_hook_fires_per_retried_attempt() {
        let retries = AtomicUsize::new(0);
        let on_retry = |_i: usize| {
            retries.fetch_add(1, Ordering::SeqCst);
        };
        let hooks = CampaignHooks {
            on_retry: Some(&on_retry),
            ..CampaignHooks::default()
        };
        let mut cfg = CampaignConfig::new(3, 11);
        cfg.max_retries = 2;
        cfg.threads = 1;
        let report = run_campaign_hooked(&cfg, hooks, |ctx| {
            if ctx.trial == 1 && ctx.attempt == 0 {
                panic!("first attempt fails");
            }
            outcome_for(ctx)
        })
        .unwrap();
        assert!(report.is_complete());
        assert_eq!(retries.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn render_mentions_every_outcome_class() {
        let mut outcomes = BTreeMap::new();
        outcomes.insert(
            0,
            TrialOutcome::Converged {
                winner: 3,
                steps: 100,
            },
        );
        outcomes.insert(
            1,
            TrialOutcome::TwoAdjacent {
                low: 3,
                high: 4,
                steps: 500,
            },
        );
        outcomes.insert(2, TrialOutcome::Timeout { steps: 500 });
        outcomes.insert(
            3,
            TrialOutcome::Panicked {
                attempts: 3,
                message: "x".into(),
            },
        );
        let report = CampaignReport {
            master_seed: 9,
            trials: 5,
            outcomes,
            resumed: 0,
        };
        let text = report.render();
        assert!(text.contains("converged=1 two-adjacent=1 timeout=1 panicked=1"));
        assert!(text.contains("completed=4"));
        assert!(text.contains("winners 3=1"));
        assert!(!report.is_complete());
        assert!(report.is_degraded());
    }

    #[test]
    fn all_timeout_campaign_reports_instead_of_panicking() {
        // Regression: with a budget so small no trial converges, the
        // step statistics used to reach min()/max() over an empty
        // converged set.  The campaign must finish, render a well-formed
        // report with an explicit empty phase-step summary, and stay on
        // the degraded (exit 3) path.
        let mut cfg = CampaignConfig::new(4, 77);
        cfg.threads = 1;
        let report = run_campaign(&cfg, |_ctx| TrialOutcome::Timeout { steps: 1 }).unwrap();
        assert!(report.is_complete());
        assert!(report.is_degraded());
        assert_eq!(report.counts(), (0, 0, 4, 0));
        let text = report.render();
        assert!(
            text.contains("steps-to-consensus none (no converged trials)"),
            "{text}"
        );
        assert!(!text.contains("winners"), "{text}");
        let metrics = report.metrics();
        let rendered = metrics.render();
        assert!(rendered.contains("outcomes.timeout"), "{rendered}");
        assert!(!rendered.contains("steps.to_consensus"), "{rendered}");
    }
}
