//! The durable campaign daemon: HTTP front-end, fair work queue, worker
//! pool, and WAL-style oplog persistence.
//!
//! # Durability model
//!
//! Every job state transition is appended to the oplog (`oplog.div` in
//! the data directory) as one atomic [`div_oplog::Oplog`] bundle,
//! fsynced before the daemon acts on it:
//!
//! ```text
//! submit <id> <client> <spec…>   # accepted; spec = CampaignSpec::render
//! schedule <id>                  # claimed by a worker
//! outcome <id> trial <i> …       # one completed trial (manifest encoding)
//! retried <id> <i>               # a panicked attempt was retried
//! cancel <id>                    # client cancel intent
//! complete <id> clean|degraded|cancelled
//! fail <id> <message>
//! ```
//!
//! On startup the daemon replays the oplog (truncating any torn tail),
//! reconstructs every job, re-enqueues `queued` jobs, and re-enqueues
//! jobs that were `running` at the crash *at the front* of the queue
//! with `resume` — the campaign engine reloads the job's checkpoint
//! manifest and only runs the missing trials.  Because
//! [`CampaignReport::render`] is a pure function of
//! `(master seed, trials, outcomes)` and every input is re-derived from
//! the journalled spec, a killed-and-recovered campaign's report is
//! byte-identical to an uninterrupted run's.
//!
//! # Backpressure
//!
//! The work queue is bounded: a submission that finds it full is
//! rejected with `429` and `Retry-After` *before* anything is
//! journalled.  Queued jobs are dispatched fairly: one queue lane per
//! client, serviced round-robin, so a client burst cannot starve
//! others.  While draining (SIGTERM or `POST /admin/drain`) submissions
//! get `503`, in-flight campaigns are cooperatively cancelled through
//! their checkpoint path, and the oplog is sealed.
//!
//! # Lifecycle spans
//!
//! Every job also leaves a wall-clock trace: the daemon stamps
//! submit/schedule instants on one shared [`SpanClock`], the campaign
//! hooks record one `attempt` span per completed trial (plus `retry`
//! markers), and at the terminal transition the whole tree — `queued`,
//! `running`, the attempts, the `report-write` — is rendered with
//! [`render_spans`] and written atomically to
//! `<data>/spans/job-<id>.json`, a Chrome-trace array loadable in
//! Perfetto.  Span *identities* are deterministic
//! ([`span_id`]`(job id, trial seed, attempt)`), so re-runs and
//! crash-recovered replays produce the same tree with the same ids,
//! differing only in timestamps.  `GET /campaigns/{id}/spans` serves
//! the file; `GET /campaigns/{id}/progress` serves the live
//! expected/started/finished counters as JSON.
//!
//! # Settled records
//!
//! A job in flight is a full `Job`: spec, cancel flag, outcome map and
//! span buffers.  At its terminal transition — and for terminal jobs
//! found by recovery — it is replaced by a `Settled` record holding only
//! what the endpoints still serve: client, state, class, seed, trial
//! count, retries, error and the outcome lines joined into one string.
//! `/report` re-renders from that record with the same pure
//! [`CampaignReport::render`] recovery uses, so live and recovered jobs
//! share one report path and a long-lived daemon keeps a few hundred
//! bytes per finished job.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use div_core::{hex_id, render_spans, span_id, SpanClock, SpanEvent};
use div_oplog::{atomic_write, Oplog, Replay};
use div_sim::http::{HttpLimits, HttpServer, Request, Response};
use div_sim::{CampaignHooks, CampaignReport, SeedSequence, TrialOutcome};

use div_bench::spec::{CampaignInputs, Front};
use div_bench::trial::{run_engine_campaign, Unwatched};

use crate::job::JobState;
use crate::JobSpec;

/// Daemon tunables; construct with [`DaemonConfig::new`] and adjust.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Data directory: oplog, checkpoints, reports, endpoint file.
    pub data_dir: PathBuf,
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Concurrent campaign workers.
    pub workers: usize,
    /// Work queue capacity; submissions beyond it get `429`.
    pub queue_capacity: usize,
    /// HTTP socket limits (timeouts, head/body caps, connection cap).
    pub limits: HttpLimits,
}

impl DaemonConfig {
    /// Defaults: loopback auto-port, 2 workers, a 32-deep queue, and
    /// HTTP limits sized for an API endpoint (256 connections, 64 KiB
    /// bodies).
    pub fn new(data_dir: impl Into<PathBuf>) -> DaemonConfig {
        DaemonConfig {
            data_dir: data_dir.into(),
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_capacity: 32,
            limits: HttpLimits {
                max_body_bytes: 64 * 1024,
                max_connections: 256,
                ..HttpLimits::default()
            },
        }
    }
}

/// One job's in-memory record (the oplog is the durable copy).
#[derive(Debug)]
struct Job {
    client: String,
    spec: JobSpec,
    state: JobState,
    /// Cooperative cancellation flag handed to the campaign engine.
    cancel: Arc<AtomicBool>,
    /// Whether a client cancel was journalled (distinguishes a cancel
    /// from a drain: both set `cancel`, only this makes it terminal).
    cancel_requested: bool,
    /// Completed trials, keyed by index, in manifest-line encoding.
    results: BTreeMap<usize, String>,
    retries: u64,
    /// Set by a journalled `fail`; carried into the settled record.
    error: Option<String>,
    /// Whether this job was reconstructed from the oplog after a crash.
    recovered: bool,
    /// Submit instant on the daemon's [`SpanClock`] (0 for recovered
    /// jobs — their pre-crash wall clock is gone).
    submitted_us: u64,
    /// Claim instant, once a worker journalled `schedule`.
    scheduled_us: Option<u64>,
    /// Per-trial `attempt`/`retry` spans recorded by the campaign
    /// hooks, in completion order.
    trial_spans: Vec<SpanEvent>,
    /// Retries so far per trial index — the `attempt` component of the
    /// deterministic span id.
    trial_attempts: BTreeMap<usize, u32>,
}

impl Job {
    fn new(client: String, spec: JobSpec) -> Job {
        Job {
            client,
            spec,
            state: JobState::Queued,
            cancel: Arc::new(AtomicBool::new(false)),
            cancel_requested: false,
            results: BTreeMap::new(),
            retries: 0,
            error: None,
            recovered: false,
            submitted_us: 0,
            scheduled_us: None,
            trial_spans: Vec::new(),
            trial_attempts: BTreeMap::new(),
        }
    }
}

/// A terminal job, reduced to what its endpoints still serve.
#[derive(Debug)]
struct Settled {
    client: Box<str>,
    state: JobState,
    /// The status `class`: `clean`, `degraded`, `partial` or `failed`.
    class: &'static str,
    recovered: bool,
    seed: u64,
    trials: usize,
    retries: u64,
    error: Option<Box<str>>,
    /// The journalled outcome lines in trial order, each `\n`-terminated.
    outcomes: Box<str>,
}

impl Settled {
    fn from_job(job: &Job) -> Settled {
        debug_assert!(job.state.is_terminal(), "only terminal jobs settle");
        let class = match job.state {
            JobState::Failed => "failed",
            JobState::Cancelled => "partial",
            _ => {
                let degraded = job
                    .results
                    .values()
                    .filter_map(|l| TrialOutcome::parse_line(l))
                    .any(|(_, o)| !o.is_converged());
                if degraded {
                    "degraded"
                } else {
                    "clean"
                }
            }
        };
        let mut outcomes = String::new();
        for line in job.results.values() {
            outcomes.push_str(line);
            outcomes.push('\n');
        }
        Settled {
            client: job.client.as_str().into(),
            state: job.state,
            class,
            recovered: job.recovered,
            seed: job.spec.seed,
            trials: job.spec.trials,
            retries: job.retries,
            error: job.error.as_deref().map(Into::into),
            outcomes: outcomes.into_boxed_str(),
        }
    }
}

/// Renders the campaign report implied by journalled outcome lines — the
/// same pure function of `(master seed, trials, outcomes)` the engine
/// uses, so the served report equals the one written at completion.
fn render_report<'a>(seed: u64, trials: usize, lines: impl Iterator<Item = &'a str>) -> String {
    CampaignReport {
        master_seed: seed,
        trials,
        outcomes: lines.filter_map(TrialOutcome::parse_line).collect(),
        resumed: 0,
    }
    .render()
}

/// One row of the job table: a job in flight, or a finished job's
/// settled record.  A job is `Live` exactly while it is not terminal.
#[derive(Debug)]
enum Entry {
    Live(Box<Job>),
    Settled(Settled),
}

/// The counters every job endpoint reports, live or settled.
struct Summary<'a> {
    client: &'a str,
    state: JobState,
    trials: usize,
    done: usize,
    retries: u64,
    recovered: bool,
}

impl Entry {
    fn state(&self) -> JobState {
        match self {
            Entry::Live(job) => job.state,
            Entry::Settled(s) => s.state,
        }
    }

    fn summary(&self) -> Summary<'_> {
        match self {
            Entry::Live(job) => Summary {
                client: &job.client,
                state: job.state,
                trials: job.spec.trials,
                done: job.results.len(),
                retries: job.retries,
                recovered: job.recovered,
            },
            Entry::Settled(s) => Summary {
                client: &s.client,
                state: s.state,
                trials: s.trials,
                done: s.outcomes.lines().count(),
                retries: s.retries,
                recovered: s.recovered,
            },
        }
    }
}

/// Trial spans rotate over this many `tid` lanes (`1 + trial % k`), so
/// overlapping attempts render on separate Perfetto rows; lane 0 is the
/// job lifecycle.
const TRIAL_SPAN_LANES: u64 = 4;

/// The deterministic seed of trial `i`'s first attempt — the same
/// derivation the campaign engine uses, so span ids can be recomputed
/// from `(job id, master seed, trial, attempt)` alone.
fn trial_seed(master: u64, trial: usize) -> u64 {
    SeedSequence::seed_for(master, trial as u64)
}

/// Builds the job's lifecycle span tree in journal order: the `queued`
/// wait (submit → schedule), the `running` interval (schedule → end)
/// carrying the terminal state, then every hook-recorded trial span.
/// A pure function of the job record plus the end instant, so recovery
/// tests can pin the tree against a synthetic journal.
fn assemble_spans(id: u64, job: &Job, end_us: u64) -> Vec<SpanEvent> {
    let mut events = Vec::with_capacity(job.trial_spans.len() + 3);
    let queued_end = job.scheduled_us.unwrap_or(end_us);
    events.push(
        SpanEvent::complete(
            "queued",
            "job",
            job.submitted_us,
            queued_end.saturating_sub(job.submitted_us),
            id,
            0,
        )
        .arg_text("id", &hex_id(span_id(id, job.spec.seed, 0)))
        .arg_text("client", &job.client),
    );
    if let Some(scheduled) = job.scheduled_us {
        events.push(
            SpanEvent::complete(
                "running",
                "job",
                scheduled,
                end_us.saturating_sub(scheduled),
                id,
                0,
            )
            .arg_text("engine", &job.spec.engine)
            .arg_int("trials", job.spec.trials as i64)
            .arg_int("done", job.results.len() as i64)
            .arg_int("retries", job.retries as i64)
            .arg_text("state", &job.state.to_string()),
        );
    }
    events.extend(job.trial_spans.iter().cloned());
    events
}

/// Bounded multi-client queue with round-robin dispatch: one FIFO lane
/// per client, serviced in rotation, so no client's burst can starve
/// another's single job.
#[derive(Debug)]
struct FairQueue {
    capacity: usize,
    /// Round-robin ring of clients (a client stays in the ring once
    /// seen; empty lanes are skipped).
    ring: Vec<String>,
    lanes: HashMap<String, VecDeque<u64>>,
    cursor: usize,
    len: usize,
}

impl FairQueue {
    fn new(capacity: usize) -> FairQueue {
        FairQueue {
            capacity,
            ring: Vec::new(),
            lanes: HashMap::new(),
            cursor: 0,
            len: 0,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn is_full(&self) -> bool {
        self.len >= self.capacity
    }

    fn lane(&mut self, client: &str) -> &mut VecDeque<u64> {
        if !self.lanes.contains_key(client) {
            self.ring.push(client.to_string());
            self.lanes.insert(client.to_string(), VecDeque::new());
        }
        self.lanes.get_mut(client).expect("just inserted")
    }

    /// Enqueues at the back of the client's lane.  Recovery uses this
    /// too, ignoring capacity — jobs accepted before a crash are never
    /// dropped, even if the daemon restarts with a smaller queue.
    fn push_back(&mut self, client: &str, id: u64) {
        self.lane(client).push_back(id);
        self.len += 1;
    }

    /// Enqueues at the front of the client's lane (crashed `running`
    /// jobs go here so resumption precedes fresh work).
    fn push_front(&mut self, client: &str, id: u64) {
        self.lane(client).push_front(id);
        self.len += 1;
    }

    /// Pops the next job round-robin across client lanes.
    fn pop(&mut self) -> Option<u64> {
        if self.len == 0 || self.ring.is_empty() {
            return None;
        }
        for step in 0..self.ring.len() {
            let at = (self.cursor + step) % self.ring.len();
            let client = &self.ring[at];
            if let Some(id) = self.lanes.get_mut(client).and_then(|l| l.pop_front()) {
                self.cursor = (at + 1) % self.ring.len();
                self.len -= 1;
                return Some(id);
            }
        }
        None
    }

    /// Removes a queued job wherever it sits (client cancel).
    fn remove(&mut self, id: u64) -> bool {
        for lane in self.lanes.values_mut() {
            if let Some(pos) = lane.iter().position(|&q| q == id) {
                lane.remove(pos);
                self.len -= 1;
                return true;
            }
        }
        false
    }
}

/// Mutable daemon state behind the one lock.
struct Inner {
    jobs: BTreeMap<u64, Entry>,
    queue: FairQueue,
    /// `None` once sealed during drain.
    oplog: Option<Oplog>,
    next_id: u64,
    draining: bool,
    running: usize,
    rejected: u64,
}

impl Inner {
    /// Journals one bundle; the error decides admission (submit) or is
    /// surfaced on stderr (progress ops — the checkpoint manifest still
    /// guards resume).
    fn commit(&mut self, ops: &[String]) -> io::Result<()> {
        match &mut self.oplog {
            Some(log) => log.commit(ops).map(|_| ()),
            None => Ok(()), // sealed during drain; nothing left to journal
        }
    }

    fn commit_warn(&mut self, ops: &[String]) {
        if let Err(e) = self.commit(ops) {
            eprintln!("divd: oplog append failed ({e}); continuing un-journalled");
        }
    }

    /// Job `id`, if it is still in flight.
    fn live(&mut self, id: u64) -> Option<&mut Job> {
        match self.jobs.get_mut(&id) {
            Some(Entry::Live(job)) => Some(job),
            _ => None,
        }
    }

    /// Replaces job `id`'s full record with its settled one; called at
    /// every terminal transition.
    fn settle(&mut self, id: u64) {
        if let Some(entry) = self.jobs.get_mut(&id) {
            if let Entry::Live(job) = entry {
                *entry = Entry::Settled(Settled::from_job(job));
            }
        }
    }
}

struct Shared {
    inner: Mutex<Inner>,
    /// Wakes workers (queue push, drain).
    work: Condvar,
    data_dir: PathBuf,
    /// The trace epoch every lifecycle span measures from.
    clock: SpanClock,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn checkpoint_path(&self, id: u64) -> PathBuf {
        self.data_dir
            .join("checkpoints")
            .join(format!("job-{id}.manifest"))
    }

    fn report_path(&self, id: u64) -> PathBuf {
        self.data_dir.join("reports").join(format!("job-{id}.txt"))
    }

    fn spans_path(&self, id: u64) -> PathBuf {
        self.data_dir.join("spans").join(format!("job-{id}.json"))
    }

    /// Renders the job's lifecycle span tree and writes it atomically
    /// next to the report.  Called at every terminal transition; purely
    /// observational, so failures warn instead of failing the job.
    fn write_spans(&self, id: u64, job: &Job, end_us: u64, tail: Option<SpanEvent>) {
        let mut events = assemble_spans(id, job, end_us);
        if let Some(span) = tail {
            events.push(span);
        }
        let text = render_spans(&events);
        if let Err(e) = atomic_write(&self.spans_path(id), text.as_bytes()) {
            eprintln!("divd: span trace write for job {id} failed: {e}");
        }
    }

    /// Stops admission and cooperatively cancels in-flight campaigns.
    fn begin_drain(&self) {
        let mut inner = self.lock();
        if inner.draining {
            return;
        }
        inner.draining = true;
        for entry in inner.jobs.values() {
            if let Entry::Live(job) = entry {
                if job.state == JobState::Running {
                    job.cancel.store(true, Ordering::SeqCst);
                }
            }
        }
        drop(inner);
        self.work.notify_all();
    }
}

/// A running daemon: HTTP server + worker pool over the shared state.
pub struct Daemon {
    shared: Arc<Shared>,
    server: Option<HttpServer>,
    workers: Vec<JoinHandle<()>>,
}

impl Daemon {
    /// Creates the data directory layout, replays the oplog, re-queues
    /// recovered work, starts the worker pool, binds the HTTP API and
    /// publishes the bound address to `<data>/endpoint`.
    ///
    /// # Errors
    ///
    /// Propagates data-directory creation, oplog open and socket bind
    /// failures.
    pub fn start(cfg: DaemonConfig) -> io::Result<Daemon> {
        std::fs::create_dir_all(cfg.data_dir.join("checkpoints"))?;
        std::fs::create_dir_all(cfg.data_dir.join("reports"))?;
        std::fs::create_dir_all(cfg.data_dir.join("spans"))?;
        let (oplog, replay) = Oplog::open(&cfg.data_dir.join("oplog.div"))?;
        let mut inner = recover(&replay, cfg.queue_capacity);
        let recovered_jobs = inner.jobs.len();
        if recovered_jobs > 0 {
            eprintln!(
                "divd: recovered {} job(s) from oplog ({} queued for work{})",
                recovered_jobs,
                inner.queue.len(),
                match &replay.torn {
                    Some(t) => format!("; truncated torn tail: {}", t.reason),
                    None => String::new(),
                }
            );
        }
        inner.oplog = Some(oplog);

        let shared = Arc::new(Shared {
            inner: Mutex::new(inner),
            work: Condvar::new(),
            data_dir: cfg.data_dir.clone(),
            clock: SpanClock::new(),
        });

        let mut workers = Vec::new();
        for _ in 0..cfg.workers.max(1) {
            let shared = Arc::clone(&shared);
            workers.push(std::thread::spawn(move || worker_loop(&shared)));
        }

        let routes = Arc::clone(&shared);
        let server = HttpServer::bind(&cfg.addr, cfg.limits, move |req| route(&routes, req))?;
        let addr = server.local_addr();
        atomic_write(
            &cfg.data_dir.join("endpoint"),
            format!("{addr}\n").as_bytes(),
        )?;

        Ok(Daemon {
            shared,
            server: Some(server),
            workers,
        })
    }

    /// The bound API address.
    ///
    /// # Panics
    ///
    /// Panics after [`Daemon::drain`] consumed the server (drain takes
    /// `self`, so this cannot be observed).
    pub fn local_addr(&self) -> SocketAddr {
        self.server
            .as_ref()
            .expect("server alive until drain")
            .local_addr()
    }

    /// Whether a drain has been requested (SIGTERM path polls this to
    /// notice `POST /admin/drain`).
    pub fn draining(&self) -> bool {
        self.shared.lock().draining
    }

    /// Graceful shutdown: stop admitting, cooperatively cancel in-flight
    /// campaigns (each writes its final checkpoint and leaves its job
    /// `running` in the oplog, i.e. resumable), join the workers, seal
    /// the oplog and stop the HTTP server.
    pub fn drain(mut self) {
        self.shared.begin_drain();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        let oplog = self.shared.lock().oplog.take();
        if let Some(log) = oplog {
            if let Err(e) = log.seal() {
                eprintln!("divd: oplog seal failed: {e}");
            }
        }
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // A dropped (not drained) daemon still unblocks its workers.
        self.shared.begin_drain();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

// ---------------------------------------------------------------------
// Oplog replay
// ---------------------------------------------------------------------

/// Rebuilds daemon state from a replayed oplog; see the module docs for
/// the op grammar and the recovery rules per state.
fn recover(replay: &Replay, queue_capacity: usize) -> Inner {
    let mut jobs: BTreeMap<u64, Job> = BTreeMap::new();
    for bundle in &replay.bundles {
        for op in &bundle.ops {
            if let Err(msg) = apply_op(&mut jobs, op) {
                eprintln!("divd: skipping unreadable oplog op: {msg}");
            }
        }
    }

    let next_id = jobs.keys().next_back().map_or(1, |&id| id + 1);
    let jobs: BTreeMap<u64, Entry> = jobs
        .into_iter()
        .map(|(id, mut job)| {
            // A running job with journalled cancel intent died before its
            // worker could finalise: finalise it now, from the journal.
            if job.state == JobState::Running && job.cancel_requested {
                job.state = JobState::Cancelled;
            }
            job.recovered = true;
            let entry = if job.state.is_terminal() {
                Entry::Settled(Settled::from_job(&job))
            } else {
                Entry::Live(Box::new(job))
            };
            (id, entry)
        })
        .collect();

    // Crashed `running` jobs resume first; then still-queued jobs in
    // submission order.  Recovery ignores queue capacity: accepted work
    // is never dropped.
    let mut queue = FairQueue::new(queue_capacity);
    let live = || {
        jobs.iter().filter_map(|(&id, entry)| match entry {
            Entry::Live(job) => Some((id, job)),
            Entry::Settled(_) => None,
        })
    };
    for (id, job) in live() {
        if job.state == JobState::Running {
            queue.push_front(&job.client, id);
        }
    }
    for (id, job) in live() {
        if job.state == JobState::Queued {
            queue.push_back(&job.client, id);
        }
    }

    Inner {
        jobs,
        queue,
        oplog: None,
        next_id,
        draining: false,
        running: 0,
        rejected: 0,
    }
}

/// Applies one journalled op to the job map.
fn apply_op(jobs: &mut BTreeMap<u64, Job>, op: &str) -> Result<(), String> {
    let (verb, rest) = op.split_once(' ').unwrap_or((op, ""));
    let id_and = |rest: &str| -> Result<(u64, String), String> {
        let (id, tail) = rest.split_once(' ').unwrap_or((rest, ""));
        Ok((
            id.parse().map_err(|_| format!("bad job id in {op:?}"))?,
            tail.to_string(),
        ))
    };
    match verb {
        "submit" => {
            let (id, tail) = id_and(rest)?;
            let (client, spec_text) = tail
                .split_once(' ')
                .ok_or_else(|| format!("submit without spec: {op:?}"))?;
            let spec = JobSpec::parse(spec_text)
                .map_err(|e| format!("journalled spec unreadable: {e}"))?;
            jobs.insert(id, Job::new(client.to_string(), spec));
        }
        "schedule" => {
            let (id, _) = id_and(rest)?;
            if let Some(job) = jobs.get_mut(&id) {
                if !job.state.is_terminal() {
                    job.state = JobState::Running;
                }
            }
        }
        "outcome" => {
            let (id, line) = id_and(rest)?;
            let (i, _) = TrialOutcome::parse_line(&line)
                .ok_or_else(|| format!("bad outcome line in {op:?}"))?;
            if let Some(job) = jobs.get_mut(&id) {
                job.results.insert(i, line);
            }
        }
        "retried" => {
            let (id, _) = id_and(rest)?;
            if let Some(job) = jobs.get_mut(&id) {
                job.retries += 1;
            }
        }
        "cancel" => {
            let (id, _) = id_and(rest)?;
            if let Some(job) = jobs.get_mut(&id) {
                job.cancel_requested = true;
                if job.state == JobState::Queued {
                    job.state = JobState::Cancelled;
                }
            }
        }
        "complete" => {
            let (id, class) = id_and(rest)?;
            if let Some(job) = jobs.get_mut(&id) {
                job.state = if class == "cancelled" {
                    JobState::Cancelled
                } else {
                    JobState::Completed
                };
            }
        }
        "fail" => {
            let (id, msg) = id_and(rest)?;
            if let Some(job) = jobs.get_mut(&id) {
                job.state = JobState::Failed;
                job.error = Some(msg);
            }
        }
        other => return Err(format!("unknown op verb {other:?}")),
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let id = {
            let mut inner = shared.lock();
            loop {
                if inner.draining {
                    return;
                }
                if let Some(id) = inner.queue.pop() {
                    break id;
                }
                inner = shared.work.wait(inner).unwrap_or_else(|e| e.into_inner());
            }
        };
        run_job(shared, id);
    }
}

/// Runs one job start to finish (or to cancellation/drain).
fn run_job(shared: &Arc<Shared>, id: u64) {
    let (spec, cancel) = {
        let mut inner = shared.lock();
        // A settled job was cancelled between pop and claim.
        let Some(job) = inner.live(id) else {
            return;
        };
        let spec = job.spec.clone();
        let cancel = Arc::clone(&job.cancel);
        job.state = JobState::Running;
        job.scheduled_us = Some(shared.clock.now_us());
        inner.running += 1;
        inner.commit_warn(&[format!("schedule {id}")]);
        (spec, cancel)
    };

    let result = spec
        .build()
        .map_err(|e| format!("campaign setup failed: {e}"))
        .and_then(|(inputs, _)| run_engine(shared, id, &spec, &inputs, &cancel));

    let mut inner = shared.lock();
    inner.running -= 1;
    let Some(job) = inner.live(id) else {
        return;
    };
    let user_cancelled = job.cancel_requested;
    match result {
        Err(msg) => {
            inner.commit_warn(&[format!("fail {id} {msg}")]);
            let job = inner.live(id).expect("present above");
            job.state = JobState::Failed;
            job.error = Some(msg);
            let end_us = shared.clock.now_us();
            shared.write_spans(id, job, end_us, None);
            inner.settle(id);
        }
        Ok(report) => {
            if report.is_complete() || user_cancelled {
                let class = if user_cancelled && !report.is_complete() {
                    "cancelled"
                } else if report.is_degraded() {
                    "degraded"
                } else {
                    "clean"
                };
                let text = report.render();
                // Report durable before the terminal op: a crash between
                // the two leaves the job `running`, and resume re-renders
                // the identical bytes.
                let write_start = shared.clock.now_us();
                if let Err(e) = atomic_write(&shared.report_path(id), text.as_bytes()) {
                    eprintln!("divd: report write for job {id} failed: {e}");
                }
                let end_us = shared.clock.now_us();
                inner.commit_warn(&[format!("complete {id} {class}")]);
                let job = inner.live(id).expect("present above");
                job.state = if class == "cancelled" {
                    JobState::Cancelled
                } else {
                    JobState::Completed
                };
                let report_span = SpanEvent::complete(
                    "report-write",
                    "job",
                    write_start,
                    end_us.saturating_sub(write_start),
                    id,
                    0,
                )
                .arg_text("class", class);
                shared.write_spans(id, job, end_us, Some(report_span));
                inner.settle(id);
            }
            // else: partial because of drain — leave the job `running`
            // in the oplog; its checkpoint manifest carries the progress
            // and the next daemon resumes it.
        }
    }
}

/// Runs the job's campaign with hooks that journal every completed
/// trial and retry.  The report is produced by exactly the code path
/// `divlab` uses ([`run_engine_campaign`]), so daemon
/// and CLI reports for the same spec are byte-identical.
fn run_engine(
    shared: &Arc<Shared>,
    id: u64,
    spec: &JobSpec,
    inputs: &CampaignInputs,
    cancel: &AtomicBool,
) -> Result<CampaignReport, String> {
    let mut campaign = spec.campaign(inputs, Front::Daemon, false)?;
    if let Some(why) = &campaign.demotion {
        eprintln!("divd: job {id}: {why}");
    }
    let manifest = shared.checkpoint_path(id);
    campaign.cfg.resume = manifest.exists();
    campaign.cfg.checkpoint = Some(manifest);

    let on_trial = |i: usize, outcome: &TrialOutcome| {
        let line = outcome.manifest_line(i);
        let now_us = shared.clock.now_us();
        let mut inner = shared.lock();
        inner.commit_warn(&[format!("outcome {id} {line}")]);
        if let Some(job) = inner.live(id) {
            // The hook fires at completion; the span covers schedule →
            // outcome, so Perfetto shows per-trial completion order.
            let start = job.scheduled_us.unwrap_or(0);
            let attempt = job.trial_attempts.get(&i).copied().unwrap_or(0);
            let label = line.split_whitespace().nth(2).unwrap_or("unknown");
            job.trial_spans.push(
                SpanEvent::complete(
                    "attempt",
                    "trial",
                    start,
                    now_us.saturating_sub(start),
                    id,
                    1 + (i as u64 % TRIAL_SPAN_LANES),
                )
                .arg_text(
                    "id",
                    &hex_id(span_id(id, trial_seed(spec.seed, i), attempt)),
                )
                .arg_int("trial", i as i64)
                .arg_int("attempt", i64::from(attempt))
                .arg_text("outcome", label),
            );
            job.results.insert(i, line);
        }
    };
    let on_retry = |i: usize| {
        let now_us = shared.clock.now_us();
        let mut inner = shared.lock();
        inner.commit_warn(&[format!("retried {id} {i}")]);
        if let Some(job) = inner.live(id) {
            job.retries += 1;
            let attempt = {
                let n = job.trial_attempts.entry(i).or_insert(0);
                *n += 1;
                *n
            };
            job.trial_spans.push(
                SpanEvent::complete(
                    "retry",
                    "trial",
                    now_us,
                    0,
                    id,
                    1 + (i as u64 % TRIAL_SPAN_LANES),
                )
                .arg_text(
                    "id",
                    &hex_id(span_id(id, trial_seed(spec.seed, i), attempt)),
                )
                .arg_int("trial", i as i64)
                .arg_int("attempt", i64::from(attempt)),
            );
        }
    };
    let hooks = CampaignHooks {
        cancel: Some(cancel),
        on_trial: Some(&on_trial),
        on_retry: Some(&on_retry),
        ..CampaignHooks::default()
    };
    let c = &campaign;
    run_engine_campaign(c.engine, &c.setup, &c.cfg, c.lanes, hooks, &Unwatched)
        .map_err(|e| e.to_string())
}

// ---------------------------------------------------------------------
// HTTP API
// ---------------------------------------------------------------------

/// Routes one request; see `README.md` for the endpoint table.
fn route(shared: &Arc<Shared>, req: &Request) -> Response {
    let path = req.path.as_str();
    match (req.method.as_str(), path) {
        ("GET", "/healthz") => Response::text(200, "ok\n"),
        ("GET", "/status") => status(shared),
        ("GET", "/campaigns") => list(shared),
        ("POST", "/campaigns") => submit(shared, req),
        ("POST", "/admin/drain") => {
            shared.begin_drain();
            Response::text(202, "draining\n")
        }
        _ => {
            if let Some(rest) = path.strip_prefix("/campaigns/") {
                campaign_route(shared, req, rest)
            } else {
                Response::text(404, "no such endpoint\n")
            }
        }
    }
}

/// `/campaigns/{id}[/results|/report|/progress|/spans]` dispatch.
fn campaign_route(shared: &Arc<Shared>, req: &Request, rest: &str) -> Response {
    let (id_str, sub) = rest.split_once('/').unwrap_or((rest, ""));
    let Ok(id) = id_str.parse::<u64>() else {
        return Response::text(404, "campaign ids are integers\n");
    };
    match (req.method.as_str(), sub) {
        ("GET", "") => job_status(shared, id),
        ("GET", "results") => job_results(shared, id),
        ("GET", "report") => job_report(shared, id),
        ("GET", "progress") => job_progress(shared, id),
        ("GET", "spans") => job_spans(shared, id),
        ("DELETE", "") => job_cancel(shared, id),
        ("GET", _) => Response::text(404, "no such endpoint\n"),
        _ => Response::text(405, "method not allowed\n"),
    }
}

/// Validates the `X-Client` fairness token: short, filesystem- and
/// oplog-safe.
fn client_of(req: &Request) -> Result<String, Response> {
    let client = req.header("x-client").unwrap_or("anon");
    let ok = !client.is_empty()
        && client.len() <= 64
        && client
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'.');
    if ok {
        Ok(client.to_string())
    } else {
        Err(Response::text(
            400,
            "X-Client must be 1-64 chars of [A-Za-z0-9._-]\n",
        ))
    }
}

fn submit(shared: &Arc<Shared>, req: &Request) -> Response {
    let client = match client_of(req) {
        Ok(c) => c,
        Err(resp) => return resp,
    };
    let Ok(body) = std::str::from_utf8(&req.body) else {
        return Response::text(400, "spec must be UTF-8 text\n");
    };
    let spec = match JobSpec::parse(body) {
        Ok(s) => s,
        Err(e) => return Response::text(400, format!("bad spec: {e}\n")),
    };
    // Semantic validation up front: a spec that cannot build must be a
    // clean 400 now, not a `failed` job later.
    let checked = spec
        .build()
        .and_then(|(inputs, _)| spec.campaign(&inputs, Front::Daemon, false).map(drop));
    if let Err(e) = checked {
        return Response::text(400, format!("bad spec: {e}\n"));
    }

    let mut inner = shared.lock();
    if inner.draining {
        return Response::text(503, "draining; submit to the next daemon\n")
            .header("Retry-After", "5");
    }
    if inner.queue.is_full() {
        inner.rejected += 1;
        return Response::text(429, "queue full; retry shortly\n").header("Retry-After", "1");
    }
    let id = inner.next_id;
    // Durable before visible: the submit op is fsynced before the job
    // exists anywhere else, so an accepted id always survives a crash.
    if let Err(e) = inner.commit(&[format!("submit {id} {client} {}", spec.render())]) {
        return Response::text(500, format!("oplog append failed: {e}\n"));
    }
    inner.next_id += 1;
    let mut job = Job::new(client.clone(), spec);
    job.submitted_us = shared.clock.now_us();
    inner.jobs.insert(id, Entry::Live(Box::new(job)));
    inner.queue.push_back(&client, id);
    drop(inner);
    shared.work.notify_all();
    Response::text(201, format!("id {id}\n")).header("Location", format!("/campaigns/{id}"))
}

fn status(shared: &Arc<Shared>) -> Response {
    let inner = shared.lock();
    let mut by_state: BTreeMap<&str, u64> = BTreeMap::new();
    for s in ["queued", "running", "completed", "cancelled", "failed"] {
        by_state.insert(s, 0);
    }
    for entry in inner.jobs.values() {
        *by_state
            .entry(match entry.state() {
                JobState::Queued => "queued",
                JobState::Running => "running",
                JobState::Completed => "completed",
                JobState::Cancelled => "cancelled",
                JobState::Failed => "failed",
            })
            .or_default() += 1;
    }
    let mut out = String::new();
    for (state, n) in &by_state {
        out.push_str(&format!("divd_jobs_{state} {n}\n"));
    }
    out.push_str(&format!("divd_queue_depth {}\n", inner.queue.len()));
    out.push_str(&format!("divd_queue_capacity {}\n", inner.queue.capacity));
    out.push_str(&format!("divd_workers_busy {}\n", inner.running));
    out.push_str(&format!("divd_rejected_total {}\n", inner.rejected));
    out.push_str(&format!("divd_draining {}\n", u8::from(inner.draining)));
    Response::text(200, out)
}

fn list(shared: &Arc<Shared>) -> Response {
    let inner = shared.lock();
    let mut out = String::new();
    for (id, entry) in &inner.jobs {
        let job = entry.summary();
        out.push_str(&format!(
            "{id} {} {} {}/{}\n",
            job.state, job.client, job.done, job.trials
        ));
    }
    Response::text(200, out)
}

fn job_status(shared: &Arc<Shared>, id: u64) -> Response {
    let inner = shared.lock();
    let Some(entry) = inner.jobs.get(&id) else {
        return Response::text(404, "no such campaign\n");
    };
    let job = entry.summary();
    let mut out = format!(
        "id {id}\nclient {}\nstate {}\ntrials {}\ndone {}\nretries {}\nrecovered {}\n",
        job.client,
        job.state,
        job.trials,
        job.done,
        job.retries,
        u8::from(job.recovered),
    );
    if let Entry::Settled(settled) = entry {
        out.push_str(&format!("class {}\n", settled.class));
        if let Some(e) = &settled.error {
            out.push_str(&format!("error {}\n", e.replace('\n', " ")));
        }
    }
    Response::text(200, out)
}

/// Live trial counters as JSON, in the same `expected`/`started`/
/// `finished` shape the campaign monitor's `/progress` serves — so one
/// `metrics_check progress` invocation validates either source.  The
/// daemon only learns of a trial when its outcome is journalled, so
/// `started` equals `finished` (in-flight attempts are invisible by
/// design: nothing is observable before it is durable).
fn job_progress(shared: &Arc<Shared>, id: u64) -> Response {
    let inner = shared.lock();
    let Some(entry) = inner.jobs.get(&id) else {
        return Response::text(404, "no such campaign\n");
    };
    let job = entry.summary();
    let finished = job.done;
    let body = format!(
        "{{\"id\":{id},\"state\":\"{}\",\"expected\":{},\"started\":{finished},\
         \"finished\":{finished},\"retries\":{}}}\n",
        job.state, job.trials, job.retries
    );
    Response::with_type(200, "application/json", body.into_bytes())
}

/// Serves the terminal lifecycle span trace (Chrome trace-event JSON).
/// `409` until the job is terminal — the tree is only assembled once
/// the outcome is settled, mirroring the report endpoint.
fn job_spans(shared: &Arc<Shared>, id: u64) -> Response {
    let state = match shared.lock().jobs.get(&id) {
        Some(entry) => entry.state(),
        None => return Response::text(404, "no such campaign\n"),
    };
    if !state.is_terminal() {
        return Response::text(409, format!("job is {state}; no span trace yet\n"));
    }
    match std::fs::read(shared.spans_path(id)) {
        Ok(bytes) => Response::with_type(200, "application/json", bytes),
        // Terminal without a trace file: recovered from a journal whose
        // daemon died before writing it.  Honest 404, not a crash.
        Err(_) => Response::text(404, "no span trace for this campaign\n"),
    }
}

/// Serves the final report, re-rendered from the settled record outside
/// the lock.  `409` until the job is terminal, and for a failed job,
/// which has no report.
fn job_report(shared: &Arc<Shared>, id: u64) -> Response {
    let (seed, trials, outcomes) = match shared.lock().jobs.get(&id) {
        None => return Response::text(404, "no such campaign\n"),
        Some(Entry::Settled(s)) if s.state != JobState::Failed => {
            (s.seed, s.trials, s.outcomes.clone())
        }
        Some(entry) => {
            return Response::text(409, format!("job is {}; no report yet\n", entry.state()))
        }
    };
    Response::text(200, render_report(seed, trials, outcomes.lines()))
}

/// How long an open `/results` stream sleeps between looks at its job.
const RESULTS_POLL: Duration = Duration::from_millis(25);

/// Streams journalled per-trial outcomes as they land, ending with an
/// `end <state>` line once the job is terminal (or the daemon drains).
/// The stream looks at the job every [`RESULTS_POLL`] and never writes
/// while holding the lock.
fn job_results(shared: &Arc<Shared>, id: u64) -> Response {
    if !shared.lock().jobs.contains_key(&id) {
        return Response::text(404, "no such campaign\n");
    }
    let shared = Arc::clone(shared);
    Response::stream(200, "text/plain; charset=utf-8", move |w| {
        let mut sent: BTreeSet<usize> = BTreeSet::new();
        loop {
            let (batch, fin) = {
                let inner = shared.lock();
                let Some(entry) = inner.jobs.get(&id) else {
                    drop(inner);
                    return writeln!(w, "end gone");
                };
                let batch: Vec<(usize, String)> = match entry {
                    Entry::Live(job) => job
                        .results
                        .iter()
                        .filter(|(i, _)| !sent.contains(*i))
                        .map(|(&i, line)| (i, line.clone()))
                        .collect(),
                    Entry::Settled(s) => s
                        .outcomes
                        .lines()
                        .filter_map(|line| {
                            let (i, _) = TrialOutcome::parse_line(line)?;
                            (!sent.contains(&i)).then(|| (i, line.to_string()))
                        })
                        .collect(),
                };
                let fin = if entry.state().is_terminal() {
                    Some(entry.state().to_string())
                } else if inner.draining {
                    Some("draining".to_string())
                } else {
                    None
                };
                (batch, fin)
            };
            for (i, line) in batch {
                writeln!(w, "{line}")?;
                sent.insert(i);
            }
            w.flush()?;
            if let Some(state) = fin {
                return writeln!(w, "end {state}");
            }
            std::thread::sleep(RESULTS_POLL);
        }
    })
}

fn job_cancel(shared: &Arc<Shared>, id: u64) -> Response {
    let mut inner = shared.lock();
    let state = match inner.jobs.get(&id) {
        Some(entry) => entry.state(),
        None => return Response::text(404, "no such campaign\n"),
    };
    if state.is_terminal() {
        return Response::text(409, format!("already {state}\n"));
    }
    inner.commit_warn(&[format!("cancel {id}")]);
    let job = inner.live(id).expect("a non-terminal job is live");
    job.cancel_requested = true;
    if state == JobState::Queued {
        job.state = JobState::Cancelled;
        let end_us = shared.clock.now_us();
        shared.write_spans(id, job, end_us, None);
        inner.queue.remove(id);
        inner.settle(id);
        Response::text(200, "cancelled\n")
    } else {
        job.cancel.store(true, Ordering::SeqCst);
        Response::text(202, "cancelling; partial report will follow\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use div_core::parse_spans;

    fn spec_text(trials: usize) -> String {
        format!("graph complete:8\ntrials {trials}\nseed 3\nbudget 100000\n")
    }

    fn synthetic_job(id: u64, state_ops: &[String]) -> BTreeMap<u64, Job> {
        let mut jobs = BTreeMap::new();
        let submit = format!("submit {id} alice {}", spec_text(4));
        apply_op(&mut jobs, &submit).unwrap();
        for op in state_ops {
            apply_op(&mut jobs, op).unwrap();
        }
        jobs
    }

    #[test]
    fn fair_queue_round_robins_across_clients() {
        let mut q = FairQueue::new(16);
        q.push_back("a", 1);
        q.push_back("a", 2);
        q.push_back("a", 3);
        q.push_back("b", 10);
        q.push_back("c", 20);
        // A's burst does not starve b and c: dispatch interleaves.
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec![1, 10, 20, 2, 3]);
        assert_eq!(q.len(), 0);
        assert!(q.pop().is_none());
    }

    #[test]
    fn fair_queue_capacity_and_removal() {
        let mut q = FairQueue::new(2);
        q.push_back("a", 1);
        assert!(!q.is_full());
        q.push_back("b", 2);
        assert!(q.is_full());
        assert!(q.remove(1));
        assert!(!q.remove(1));
        assert_eq!(q.pop(), Some(2));
    }

    #[test]
    fn fair_queue_push_front_preempts() {
        let mut q = FairQueue::new(8);
        q.push_back("a", 1);
        q.push_front("a", 9);
        assert_eq!(q.pop(), Some(9));
        assert_eq!(q.pop(), Some(1));
    }

    #[test]
    fn apply_op_walks_the_state_machine() {
        let jobs = synthetic_job(7, &[]);
        assert_eq!(jobs[&7].state, JobState::Queued);
        assert_eq!(jobs[&7].client, "alice");
        assert_eq!(jobs[&7].spec.trials, 4);

        let jobs = synthetic_job(7, &["schedule 7".to_string()]);
        assert_eq!(jobs[&7].state, JobState::Running);

        let jobs = synthetic_job(
            7,
            &[
                "schedule 7".to_string(),
                "outcome 7 trial 0 converged 2 55".to_string(),
                "retried 7 1".to_string(),
                "complete 7 clean".to_string(),
            ],
        );
        assert_eq!(jobs[&7].state, JobState::Completed);
        assert_eq!(jobs[&7].results.len(), 1);
        assert_eq!(jobs[&7].retries, 1);

        let jobs = synthetic_job(7, &["fail 7 boom went the manifest".to_string()]);
        assert_eq!(jobs[&7].state, JobState::Failed);
        assert_eq!(jobs[&7].error.as_deref(), Some("boom went the manifest"));
    }

    #[test]
    fn apply_op_rejects_garbage_without_panicking() {
        let mut jobs = BTreeMap::new();
        for bad in [
            "frobnicate 3",
            "submit notanid alice graph complete:8",
            "submit 3",
            "outcome 3 not a trial line",
        ] {
            assert!(apply_op(&mut jobs, bad).is_err(), "{bad:?}");
        }
        // Ops about unknown jobs are ignored, not errors (the submit may
        // have been in a truncated torn tail).
        apply_op(&mut jobs, "schedule 99").unwrap();
        apply_op(&mut jobs, "cancel 99").unwrap();
        assert!(jobs.is_empty());
    }

    #[test]
    fn recover_classifies_and_requeues() {
        // Build a replay through a real oplog round-trip.
        let dir = std::env::temp_dir().join(format!("divd-recover-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("oplog.div");
        let _ = std::fs::remove_file(&path);
        let (mut log, _) = Oplog::open(&path).unwrap();
        let ops = [
            format!("submit 1 a {}", spec_text(4)), // completed
            format!("submit 2 a {}", spec_text(4)), // crashed while running
            format!("submit 3 b {}", spec_text(4)), // still queued
            format!("submit 4 b {}", spec_text(4)), // cancelled while running
            "schedule 1".to_string(),
            "outcome 1 trial 0 converged 2 55".to_string(),
            "complete 1 clean".to_string(),
            "schedule 2".to_string(),
            "outcome 2 trial 1 converged 3 99".to_string(),
            "schedule 4".to_string(),
            "cancel 4".to_string(),
        ];
        for op in &ops {
            log.commit(std::slice::from_ref(op)).unwrap();
        }
        drop(log);
        let (_, replay) = Oplog::open(&path).unwrap();
        let inner = recover(&replay, 8);

        // Terminal jobs come back settled, everything else live.
        assert!(matches!(&inner.jobs[&1], Entry::Settled(s) if s.state == JobState::Completed));
        assert!(matches!(&inner.jobs[&2], Entry::Live(j) if j.state == JobState::Running));
        assert_eq!(inner.jobs[&2].summary().done, 1);
        assert!(matches!(&inner.jobs[&3], Entry::Live(j) if j.state == JobState::Queued));
        // Cancel intent on a crashed running job resolves to cancelled,
        // its partial outcome kept for the re-rendered report.
        assert!(matches!(&inner.jobs[&4], Entry::Settled(s) if s.state == JobState::Cancelled));
        assert!(inner.jobs.values().all(|e| e.summary().recovered));
        assert_eq!(inner.next_id, 5);

        // The crashed job resumes before the queued one.
        let mut queue = inner.queue;
        assert_eq!(queue.pop(), Some(2));
        assert_eq!(queue.pop(), Some(3));
        assert_eq!(queue.pop(), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn span_tree_matches_the_journal_op_sequence() {
        // Journal: submit → schedule → two outcomes → complete clean.
        let mut jobs = synthetic_job(
            7,
            &[
                "schedule 7".to_string(),
                "outcome 7 trial 0 converged 2 55".to_string(),
                "outcome 7 trial 1 converged 2 60".to_string(),
                "complete 7 clean".to_string(),
            ],
        );
        let job = jobs.get_mut(&7).unwrap();
        job.submitted_us = 10;
        job.scheduled_us = Some(40);
        // As the on_trial hook records them, in completion order.
        for (i, done_us) in [(0usize, 90u64), (1, 120)] {
            job.trial_spans.push(
                SpanEvent::complete(
                    "attempt",
                    "trial",
                    40,
                    done_us - 40,
                    7,
                    1 + (i as u64 % TRIAL_SPAN_LANES),
                )
                .arg_text("id", &hex_id(span_id(7, trial_seed(job.spec.seed, i), 0)))
                .arg_int("trial", i as i64)
                .arg_int("attempt", 0)
                .arg_text("outcome", "converged"),
            );
        }
        let events = assemble_spans(7, job, 150);
        let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["queued", "running", "attempt", "attempt"]);
        // `queued` covers submit → schedule; `running` covers schedule
        // → end; every span sits on the job's pid lane.
        assert_eq!((events[0].ts_us, events[0].dur_us), (10, 30));
        assert_eq!((events[1].ts_us, events[1].dur_us), (40, 110));
        assert!(events.iter().all(|e| e.pid == 7));
        // The `running` span carries the journal's terminal verdict and
        // the journalled trial counts.
        let args: BTreeMap<&str, &div_core::SpanValue> = events[1]
            .args
            .iter()
            .map(|(k, v)| (k.as_str(), v))
            .collect();
        assert_eq!(
            args["state"],
            &div_core::SpanValue::Text("completed".into())
        );
        assert_eq!(args["done"], &div_core::SpanValue::Int(2));
        assert_eq!(args["trials"], &div_core::SpanValue::Int(4));
        // The tree round-trips byte-identically through the canonical
        // renderer — i.e. it is a valid Perfetto-loadable trace.
        let text = render_spans(&events);
        assert_eq!(parse_spans(&text).unwrap(), events);
    }

    #[test]
    fn span_tree_of_a_never_scheduled_job_is_queued_only() {
        // A job cancelled while queued: the trace is the queue wait
        // alone, closed at the cancel instant.
        let jobs = synthetic_job(3, &["cancel 3".to_string()]);
        let events = assemble_spans(3, &jobs[&3], 500);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "queued");
        assert_eq!((events[0].ts_us, events[0].dur_us), (0, 500));
        assert!(parse_spans(&render_spans(&events)).is_ok());
    }

    #[test]
    fn recovered_report_matches_engine_render() {
        // The journal-derived report must be the same pure function the
        // engine computes: master seed + trials + outcomes, nothing else.
        let jobs = synthetic_job(
            5,
            &[
                "schedule 5".to_string(),
                "outcome 5 trial 0 converged 2 55".to_string(),
                "outcome 5 trial 2 timeout 100000".to_string(),
            ],
        );
        let job = &jobs[&5];
        let mut outcomes = BTreeMap::new();
        outcomes.insert(
            0,
            TrialOutcome::Converged {
                winner: 2,
                steps: 55,
            },
        );
        outcomes.insert(2, TrialOutcome::Timeout { steps: 100_000 });
        let expect = CampaignReport {
            master_seed: 3,
            trials: 4,
            outcomes,
            resumed: 0,
        }
        .render();
        let lines = job.results.values().map(String::as_str);
        assert_eq!(render_report(job.spec.seed, job.spec.trials, lines), expect);
    }

    /// A daemon state over `jobs`, with no oplog and no threads.
    fn shared_with(dir: &std::path::Path, jobs: BTreeMap<u64, Entry>) -> Arc<Shared> {
        let mut inner = recover(&Replay::from_bytes(&[]), 8);
        inner.jobs = jobs;
        Arc::new(Shared {
            inner: Mutex::new(inner),
            work: Condvar::new(),
            data_dir: dir.to_path_buf(),
            clock: SpanClock::new(),
        })
    }

    /// `(status, body)` of `GET path`, streams drained to the end.
    fn get(shared: &Arc<Shared>, path: &str) -> (u16, Vec<u8>) {
        let req = Request {
            method: "GET".to_string(),
            path: path.to_string(),
            query: String::new(),
            headers: Vec::new(),
            body: Vec::new(),
        };
        let resp = route(shared, &req);
        let body = match resp.body {
            div_sim::http::Body::Bytes(bytes) => bytes,
            div_sim::http::Body::Stream(write) => {
                let mut out = Vec::new();
                write(&mut out).unwrap();
                out
            }
        };
        (resp.status, body)
    }

    /// What the job endpoints answered for a terminal job held as a full
    /// [`Job`]: the formats and derivations the daemon used before jobs
    /// settled, restated as the reference the settled records must meet.
    fn full_record_answers(id: u64, job: &Job, spans: &[u8]) -> Vec<(String, u16, Vec<u8>)> {
        let outcomes = || {
            job.results
                .values()
                .filter_map(|l| TrialOutcome::parse_line(l))
        };
        let class = match job.state {
            JobState::Failed => "failed",
            JobState::Cancelled => "partial",
            _ if outcomes().any(|(_, o)| !o.is_converged()) => "degraded",
            _ => "clean",
        };
        let mut status = format!(
            "id {id}\nclient {}\nstate {}\ntrials {}\ndone {}\nretries {}\nrecovered {}\n\
             class {class}\n",
            job.client,
            job.state,
            job.spec.trials,
            job.results.len(),
            job.retries,
            u8::from(job.recovered),
        );
        if let Some(e) = &job.error {
            status.push_str(&format!("error {}\n", e.replace('\n', " ")));
        }
        let mut results = String::new();
        for line in job.results.values() {
            results.push_str(&format!("{line}\n"));
        }
        results.push_str(&format!("end {}\n", job.state));
        let report = match job.state {
            JobState::Failed => (409, "job is failed; no report yet\n".to_string()),
            _ => (
                200,
                CampaignReport {
                    master_seed: job.spec.seed,
                    trials: job.spec.trials,
                    outcomes: outcomes().collect(),
                    resumed: 0,
                }
                .render(),
            ),
        };
        let done = job.results.len();
        let progress = format!(
            "{{\"id\":{id},\"state\":\"{}\",\"expected\":{},\"started\":{done},\
             \"finished\":{done},\"retries\":{}}}\n",
            job.state, job.spec.trials, job.retries
        );
        let list = format!(
            "{id} {} {} {done}/{}\n",
            job.state, job.client, job.spec.trials
        );
        let base = format!("/campaigns/{id}");
        vec![
            (base.clone(), 200, status.into_bytes()),
            (format!("{base}/results"), 200, results.into_bytes()),
            (format!("{base}/report"), report.0, report.1.into_bytes()),
            (format!("{base}/progress"), 200, progress.into_bytes()),
            (format!("{base}/spans"), 200, spans.to_vec()),
            ("/campaigns".to_string(), 200, list.into_bytes()),
        ]
    }

    #[test]
    fn settled_jobs_answer_every_endpoint_like_full_records() {
        let dir = std::env::temp_dir().join(format!("divd-settled-{}", std::process::id()));
        std::fs::create_dir_all(dir.join("spans")).unwrap();
        let ops = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let cases = [
            (
                "completed",
                ops(&[
                    "schedule 7",
                    "outcome 7 trial 1 converged 2 60",
                    "outcome 7 trial 0 converged 2 55",
                    "outcome 7 trial 3 converged 3 70",
                    "outcome 7 trial 2 converged 2 58",
                    "complete 7 clean",
                ]),
            ),
            (
                "degraded",
                ops(&[
                    "schedule 7",
                    "outcome 7 trial 0 converged 2 55",
                    "outcome 7 trial 1 timeout 100000",
                    "outcome 7 trial 2 two-adjacent 2 3 900",
                    "retried 7 3",
                    "outcome 7 trial 3 panicked 3 boom\\x5Cn at step 9",
                    "complete 7 degraded",
                ]),
            ),
            ("queued-then-cancelled", ops(&["cancel 7"])),
            (
                "failed",
                ops(&[
                    "schedule 7",
                    "outcome 7 trial 0 converged 2 55",
                    "fail 7 checkpoint manifest mismatch\nfor tag",
                ]),
            ),
            // Crashed while running with a journalled cancel: recovery
            // finalises it as cancelled.
            (
                "recovered",
                ops(&["schedule 7", "outcome 7 trial 2 converged 3 99", "cancel 7"]),
            ),
        ];
        for (label, case_ops) in cases {
            let mut jobs = synthetic_job(7, &case_ops);
            let spans = format!("[{label}]\n").into_bytes();
            std::fs::write(dir.join("spans").join("job-7.json"), &spans).unwrap();
            let settled = if label == "recovered" {
                let mut submit = vec![format!("submit 7 alice {}", spec_text(4))];
                submit.extend(case_ops.iter().cloned());
                let replay = Replay {
                    bundles: vec![div_oplog::Bundle {
                        seq: 1,
                        ops: submit,
                    }],
                    ..Replay::from_bytes(&[])
                };
                let job = jobs.get_mut(&7).unwrap();
                job.state = JobState::Cancelled;
                job.recovered = true;
                recover(&replay, 8).jobs
            } else {
                let mut settled = BTreeMap::new();
                settled.insert(7, Entry::Settled(Settled::from_job(&jobs[&7])));
                settled
            };
            assert!(matches!(settled[&7], Entry::Settled(_)), "{label}");
            let shared = shared_with(&dir, settled);
            for (path, status, body) in full_record_answers(7, &jobs[&7], &spans) {
                let (got_status, got) = get(&shared, &path);
                assert_eq!(
                    (got_status, String::from_utf8_lossy(&got)),
                    (status, String::from_utf8_lossy(&body)),
                    "{label}: GET {path}"
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
