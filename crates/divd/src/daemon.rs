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
//! jobs that were `running` at the crash *at the front* of the queue —
//! their replayed `outcome` ops, the only durable record of their
//! progress, go to the campaign driver as prior outcomes, and only the
//! missing trials run.  Every trial is a pure function of `(spec, seed,
//! index)`, so a lost outcome costs recomputation, never correctness;
//! and [`CampaignReport::render`] is a pure function of `(master seed,
//! trials, outcomes)`, so a killed-and-recovered campaign's report is
//! byte-identical to an uninterrupted run's.
//!
//! # Backpressure
//!
//! The work queue is bounded: a submission that finds it full is
//! rejected with `429` and `Retry-After` *before* anything is
//! journalled.  Queued jobs are dispatched fairly: one queue lane per
//! client, serviced round-robin, so a client burst cannot starve
//! others.  While draining (SIGTERM or `POST /admin/drain`) submissions
//! get `503`, in-flight campaigns are cooperatively cancelled (their
//! running trials finish and are journalled), and the oplog is sealed.
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
//! # Settled rows
//!
//! A job in flight is a full `Job`: spec, cancel flag, outcome map and
//! span buffers.  At its terminal transition — and for terminal jobs
//! found by recovery — it is replaced by a fixed 32-byte `Settled` row in
//! a table dense by job id: the job's oplog byte range (its `submit`
//! frame to its terminal frame), trial, done and retry counts, an
//! interned client index, state, class and the recovered flag.  The
//! outcome lines, master seed and error text stay in the journal:
//! `/results`, `/report` and a failed job's status re-read the range with
//! [`read_range`] outside the lock and fold it with the same `apply_op`
//! recovery uses, and `/report` re-renders with the same pure
//! [`CampaignReport::render`], so live and recovered jobs share one
//! report path.  A job whose journal missed an op (a failed append, or
//! an op after the drain sealed the log) keeps its full record instead.
//!
//! # Result streams
//!
//! `GET /campaigns/{id}/results` waits on the `progress` condition
//! variable, which every journalled outcome, terminal transition and
//! drain notifies, and writes each outcome line once, then `end <state>`.
//! Streams never write while holding the daemon lock.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::io;
use std::net::SocketAddr;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use div_core::{hex_id, render_spans, span_id, SpanClock, SpanEvent};
use div_oplog::{atomic_write, read_range, Oplog, Replay};
use div_sim::http::{HttpLimits, HttpServer, Request, Response};
use div_sim::{CampaignHooks, CampaignReport, SeedSequence, TrialOutcome};

use div_bench::spec::{CampaignInputs, Front};
use div_bench::trial::{run_engine_campaign, Unwatched};

use crate::job::JobState;
use crate::JobSpec;

/// Daemon tunables; construct with [`DaemonConfig::new`] and adjust.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Data directory: oplog, reports, span traces, endpoint file.
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
    /// Completed trials, keyed by index.
    results: BTreeMap<usize, TrialOutcome>,
    retries: u64,
    /// Set by a journalled `fail`.
    error: Option<String>,
    /// Whether this job was reconstructed from the oplog after a crash.
    recovered: bool,
    /// The job's oplog bytes: its `submit` frame to its latest frame.
    journal: Range<u64>,
    /// Whether every op about the job reached the oplog, so that its
    /// journal range holds all of it.
    journalled: bool,
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
            journal: 0..0,
            journalled: true,
            submitted_us: 0,
            scheduled_us: None,
            trial_spans: Vec::new(),
            trial_attempts: BTreeMap::new(),
        }
    }

    fn degraded(&self) -> bool {
        self.results.values().any(|o| !o.is_converged())
    }

    /// The outcome lines `/results` serves, in trial order, skipping
    /// the trials already `sent`.
    fn unsent(&self, sent: &BTreeSet<usize>) -> Vec<(usize, String)> {
        self.results
            .iter()
            .filter(|(i, _)| !sent.contains(*i))
            .map(|(&i, o)| (i, o.manifest_line(i)))
            .collect()
    }

    /// The report implied by the job's outcomes — the same pure function
    /// of `(master seed, trials, outcomes)` the engine uses, so the
    /// served report equals the one written at completion.
    fn report(&self) -> String {
        CampaignReport {
            master_seed: self.spec.seed,
            trials: self.spec.trials,
            outcomes: self.results.clone(),
            resumed: 0,
        }
        .render()
    }
}

/// A finished job's fixed-size row.  Everything else the endpoints serve
/// (outcome lines, master seed, error text) is re-read from the job's
/// journal range.
#[derive(Debug, Clone, Copy)]
struct Settled {
    /// Oplog offset of the job's `submit` frame.
    offset: u64,
    /// Length of the job's journal range, through its terminal frame.
    len: u32,
    trials: u32,
    done: u32,
    retries: u32,
    /// Index into [`Clients`].
    client: u32,
    state: JobState,
    degraded: bool,
    recovered: bool,
}

impl Settled {
    /// The row of finished `job`, or `None` when its journal range does
    /// not hold all of it or a count does not fit the row; such a job
    /// keeps its full record.
    fn of(job: &Job, client: u32) -> Option<Settled> {
        if !job.journalled || !job.state.is_terminal() {
            return None;
        }
        Some(Settled {
            offset: job.journal.start,
            len: u32::try_from(job.journal.end.checked_sub(job.journal.start)?).ok()?,
            trials: u32::try_from(job.spec.trials).ok()?,
            done: u32::try_from(job.results.len()).ok()?,
            retries: u32::try_from(job.retries).ok()?,
            client,
            state: job.state,
            degraded: job.degraded(),
            recovered: job.recovered,
        })
    }

    fn journal(&self) -> Range<u64> {
        self.offset..self.offset + u64::from(self.len)
    }
}

/// The job id an op is about (its second word).
fn op_job_id(op: &str) -> Option<u64> {
    op.split(' ').nth(1)?.parse().ok()
}

/// Rebuilds finished job `id` from the journal range of its row: the same
/// ops, folded by the same [`apply_op`] recovery uses, so the record
/// serves exactly what the job held when it settled.
fn reread(oplog: &Path, id: u64, row: &Settled) -> io::Result<Job> {
    let range = row.journal();
    let mut jobs = BTreeMap::new();
    for bundle in read_range(oplog, range.start, range.end)? {
        for op in bundle.ops.iter().filter(|op| op_job_id(op) == Some(id)) {
            // An op recovery skips is skipped here too.
            let _ = apply_op(&mut jobs, op);
        }
    }
    jobs.remove(&id).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("oplog bytes {range:?} do not hold job {id}'s submit"),
        )
    })
}

/// Interned client names: a settled row holds an index, not a string.
#[derive(Debug, Default)]
struct Clients {
    names: Vec<Box<str>>,
    index: HashMap<Box<str>, u32>,
}

impl Clients {
    fn intern(&mut self, name: &str) -> Option<u32> {
        if let Some(&i) = self.index.get(name) {
            return Some(i);
        }
        let i = u32::try_from(self.names.len()).ok()?;
        self.names.push(name.into());
        self.index.insert(name.into(), i);
        Some(i)
    }

    fn name(&self, i: u32) -> &str {
        &self.names[i as usize]
    }
}

/// A job as its endpoints see it: a full record (in flight, or finished
/// without a whole journal), or a settled row and its client's name.
#[derive(Clone, Copy)]
enum Entry<'a> {
    Live(&'a Job),
    Settled(&'a Settled, &'a str),
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

impl<'a> Entry<'a> {
    fn state(self) -> JobState {
        match self {
            Entry::Live(job) => job.state,
            Entry::Settled(row, _) => row.state,
        }
    }

    /// The status class, once the job is finished.
    fn class(self) -> Option<&'static str> {
        let (state, degraded) = match self {
            Entry::Live(job) => (job.state, job.degraded()),
            Entry::Settled(row, _) => (row.state, row.degraded),
        };
        Some(match state {
            JobState::Queued | JobState::Running => return None,
            JobState::Failed => "failed",
            JobState::Cancelled => "partial",
            JobState::Completed if degraded => "degraded",
            JobState::Completed => "clean",
        })
    }

    fn summary(self) -> Summary<'a> {
        match self {
            Entry::Live(job) => Summary {
                client: &job.client,
                state: job.state,
                trials: job.spec.trials,
                done: job.results.len(),
                retries: job.retries,
                recovered: job.recovered,
            },
            Entry::Settled(row, client) => Summary {
                client,
                state: row.state,
                trials: row.trials as usize,
                done: row.done as usize,
                retries: u64::from(row.retries),
                recovered: row.recovered,
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
/// carrying the terminal `state`, then every hook-recorded trial span.
/// A pure function of the job record plus the end instant, so recovery
/// tests can pin the tree against a synthetic journal.
fn assemble_spans(id: u64, job: &Job, state: JobState, end_us: u64) -> Vec<SpanEvent> {
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
            .arg_text("state", &state.to_string()),
        );
    }
    events.extend(job.trial_spans.iter().cloned());
    events
}

/// Renders job `id`'s lifecycle span tree, ended at `end_us` in `state`,
/// plus an optional closing span.
fn span_trace(id: u64, job: &Job, state: JobState, end_us: u64, tail: Option<SpanEvent>) -> String {
    let mut events = assemble_spans(id, job, state, end_us);
    events.extend(tail);
    render_spans(&events)
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

/// How many ids beyond the settled table's end, besides those of jobs in
/// flight, a settling job's slot may lie (ids a replay skipped) before
/// the job keeps its full record rather than grow the table.
const SETTLED_GAP: usize = 1024;

/// The settled-table slot of job `id`.
fn slot(id: u64) -> Option<usize> {
    usize::try_from(id.checked_sub(1)?).ok()
}

/// Mutable daemon state behind the one lock.
struct Inner {
    /// Jobs in flight, and finished jobs whose journal missed an op.
    live: BTreeMap<u64, Box<Job>>,
    /// Settled rows, dense by job id (`settled[id - 1]`).
    settled: Vec<Option<Settled>>,
    clients: Clients,
    queue: FairQueue,
    /// `None` once sealed during drain.
    oplog: Option<Oplog>,
    next_id: u64,
    draining: bool,
    running: usize,
    rejected: u64,
}

impl Inner {
    /// Journals one op; returns the byte range of its frame, or `None`
    /// once the drain has sealed the log.  The error decides admission
    /// (submit) or is surfaced on stderr (see [`Inner::journal`]).
    fn commit(&mut self, op: String) -> io::Result<Option<Range<u64>>> {
        let Some(log) = &mut self.oplog else {
            return Ok(None);
        };
        let start = log.len();
        log.commit(&[op])?;
        Ok(Some(start..log.len()))
    }

    /// Journals one op about job `id` and extends the job's journal
    /// range over it.  A failed append only warns: an unjournalled
    /// outcome means a resumed job runs that trial again, and the job,
    /// its journal no longer whole, keeps its full record once finished.
    fn journal(&mut self, id: u64, op: String) {
        let end = match self.commit(op) {
            Ok(frame) => frame.map(|f| f.end),
            Err(e) => {
                eprintln!("divd: oplog append failed ({e}); continuing un-journalled");
                None
            }
        };
        if let Some(job) = self.live.get_mut(&id) {
            match end {
                Some(end) => job.journal.end = end,
                None => job.journalled = false,
            }
        }
    }

    /// Job `id`, if it is still in flight.
    fn live(&mut self, id: u64) -> Option<&mut Job> {
        self.live
            .get_mut(&id)
            .filter(|job| !job.state.is_terminal())
            .map(|job| &mut **job)
    }

    fn entry(&self, id: u64) -> Option<Entry<'_>> {
        if let Some(job) = self.live.get(&id) {
            return Some(Entry::Live(job));
        }
        let row = self.settled.get(slot(id)?)?.as_ref()?;
        Some(Entry::Settled(row, self.clients.name(row.client)))
    }

    /// Every job, in id order.
    fn entries(&self) -> impl Iterator<Item = (u64, Entry<'_>)> {
        (0..self.next_id).filter_map(move |id| Some((id, self.entry(id)?)))
    }

    /// Replaces finished job `id`'s full record with its settled row;
    /// called at every terminal transition.  A job its journal range
    /// does not hold keeps its full record.
    fn settle(&mut self, id: u64) {
        let Some(job) = self.live.get(&id) else {
            return;
        };
        let bound = self.settled.len() + self.live.len() + SETTLED_GAP;
        let Some(at) = slot(id).filter(|&at| at <= bound) else {
            return;
        };
        let Some(row) = self
            .clients
            .intern(&job.client)
            .and_then(|client| Settled::of(job, client))
        else {
            return;
        };
        self.live.remove(&id);
        if self.settled.len() <= at {
            self.settled.resize(at + 1, None);
        }
        self.settled[at] = Some(row);
    }
}

struct Shared {
    inner: Mutex<Inner>,
    /// Wakes workers (queue push, drain).
    work: Condvar,
    /// Wakes `/results` streams: every journalled outcome, terminal
    /// transition and drain.
    progress: Condvar,
    data_dir: PathBuf,
    /// The trace epoch every lifecycle span measures from.
    clock: SpanClock,
}

impl Shared {
    /// Creates the data directory layout and rebuilds the daemon state
    /// from its oplog, re-queueing recovered work.
    fn open(cfg: &DaemonConfig) -> io::Result<Shared> {
        std::fs::create_dir_all(cfg.data_dir.join("reports"))?;
        std::fs::create_dir_all(cfg.data_dir.join("spans"))?;
        let (oplog, replay) = Oplog::open(&cfg.data_dir.join("oplog.div"))?;
        let mut inner = recover(&replay, cfg.queue_capacity);
        let recovered_jobs = inner.entries().count();
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
        Ok(Shared {
            inner: Mutex::new(inner),
            work: Condvar::new(),
            progress: Condvar::new(),
            data_dir: cfg.data_dir.clone(),
            clock: SpanClock::new(),
        })
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn report_path(&self, id: u64) -> PathBuf {
        self.data_dir.join("reports").join(format!("job-{id}.txt"))
    }

    fn spans_path(&self, id: u64) -> PathBuf {
        self.data_dir.join("spans").join(format!("job-{id}.json"))
    }

    fn oplog_path(&self) -> PathBuf {
        self.data_dir.join("oplog.div")
    }

    /// Writes a job's span trace atomically next to its report.  Purely
    /// observational, so a failure warns instead of failing the job.
    fn write_spans(&self, id: u64, text: &str) {
        if let Err(e) = atomic_write(&self.spans_path(id), text.as_bytes()) {
            eprintln!("divd: span trace write for job {id} failed: {e}");
        }
    }

    /// Writes job `id`'s report durably; returns the write's start and
    /// end instants.
    fn write_report(&self, id: u64, report: &CampaignReport) -> (u64, u64) {
        let text = report.render();
        let start = self.clock.now_us();
        if let Err(e) = atomic_write(&self.report_path(id), text.as_bytes()) {
            eprintln!("divd: report write for job {id} failed: {e}");
        }
        (start, self.clock.now_us())
    }

    /// Stops admission, cooperatively cancels in-flight campaigns and
    /// ends every open result stream.
    fn begin_drain(&self) {
        let mut inner = self.lock();
        if inner.draining {
            return;
        }
        inner.draining = true;
        for job in inner.live.values() {
            if job.state == JobState::Running {
                job.cancel.store(true, Ordering::SeqCst);
            }
        }
        drop(inner);
        self.work.notify_all();
        self.progress.notify_all();
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
        let shared = Arc::new(Shared::open(&cfg)?);

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
    /// campaigns (each journals the trials it had running and leaves its
    /// job `running` in the oplog, i.e. resumable), join the workers,
    /// seal the oplog and stop the HTTP server.
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
                eprintln!("divd: skipping oplog op: {msg}");
                continue;
            }
            // A job's journal range runs from its `submit` frame to the
            // frame of its latest op.
            if let Some(job) = op_job_id(op).and_then(|id| jobs.get_mut(&id)) {
                if op.starts_with("submit ") {
                    job.journal.start = bundle.offset;
                }
                job.journal.end = bundle.end;
            }
        }
    }

    let mut inner = Inner {
        live: BTreeMap::new(),
        settled: Vec::new(),
        clients: Clients::default(),
        queue: FairQueue::new(queue_capacity),
        oplog: None,
        next_id: jobs.keys().next_back().map_or(1, |&id| id + 1),
        draining: false,
        running: 0,
        rejected: 0,
    };
    for (id, mut job) in jobs {
        // A running job with journalled cancel intent died before its
        // worker could finalise: finalise it now, from the journal.
        if job.state == JobState::Running && job.cancel_requested {
            job.state = JobState::Cancelled;
        }
        job.recovered = true;
        inner.live.insert(id, Box::new(job));
        inner.settle(id);
    }

    // Crashed `running` jobs resume first; then still-queued jobs in
    // submission order.  Recovery ignores queue capacity: accepted work
    // is never dropped.
    for (&id, job) in &inner.live {
        if job.state == JobState::Running {
            inner.queue.push_front(&job.client, id);
        }
    }
    for (&id, job) in &inner.live {
        if job.state == JobState::Queued {
            inner.queue.push_back(&job.client, id);
        }
    }
    inner
}

/// Applies one journalled op to the job map.  An unreadable op, or an
/// outcome for a trial its job does not have, is an error the replay
/// skips.
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
            let (i, outcome) = TrialOutcome::parse_line(&line)
                .ok_or_else(|| format!("bad outcome line in {op:?}"))?;
            if let Some(job) = jobs.get_mut(&id) {
                if i >= job.spec.trials {
                    return Err(format!(
                        "outcome for trial {i} of a {}-trial job: {op:?}",
                        job.spec.trials
                    ));
                }
                job.results.insert(i, outcome);
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

/// Runs one job start to finish (or to cancellation/drain), resuming
/// from the outcomes its journal already holds.
fn run_job(shared: &Arc<Shared>, id: u64) {
    let Some((spec, cancel, prior)) = claim(shared, id) else {
        return;
    };
    let result = spec
        .build()
        .map_err(|e| format!("campaign setup failed: {e}"))
        .and_then(|(inputs, _)| run_engine(shared, id, &spec, &inputs, &cancel, &prior));
    finish(shared, id, result);
}

/// Claims job `id` for a worker: marks it running and journals
/// `schedule`.  `None` when the job was cancelled between pop and claim.
fn claim(
    shared: &Shared,
    id: u64,
) -> Option<(JobSpec, Arc<AtomicBool>, BTreeMap<usize, TrialOutcome>)> {
    let mut inner = shared.lock();
    let job = inner.live(id)?;
    job.state = JobState::Running;
    job.scheduled_us = Some(shared.clock.now_us());
    let claimed = (
        job.spec.clone(),
        Arc::clone(&job.cancel),
        job.results.clone(),
    );
    inner.running += 1;
    inner.journal(id, format!("schedule {id}"));
    Some(claimed)
}

/// Ends job `id`'s run: journals `complete` or `fail`, settles the job
/// and wakes its streams.  A run a drain cut short journals nothing: the
/// job stays `running` in the oplog and the next daemon resumes it from
/// its journalled outcomes.
///
/// The report file is durable before the terminal op, so a crash between
/// the two leaves the job `running` and resume re-renders the identical
/// bytes; the span trace is on disk before the job turns terminal.  Both
/// are written outside the lock, except a cancelled job's partial report,
/// which depends on the cancel intent read under it.
fn finish(shared: &Shared, id: u64, result: Result<CampaignReport, String>) {
    // A complete report's bytes and class are fixed whatever a later
    // cancel does.
    let written = match &result {
        Ok(report) if report.is_complete() => Some(shared.write_report(id, report)),
        _ => None,
    };
    let mut inner = shared.lock();
    inner.running -= 1;
    let Some(job) = inner.live(id) else {
        return;
    };
    let (op, state, end_us, tail) = match &result {
        Err(msg) => (
            format!("fail {id} {msg}"),
            JobState::Failed,
            shared.clock.now_us(),
            None,
        ),
        Ok(report) => {
            let (class, state) = if report.is_complete() {
                let class = if report.is_degraded() {
                    "degraded"
                } else {
                    "clean"
                };
                (class, JobState::Completed)
            } else if job.cancel_requested {
                ("cancelled", JobState::Cancelled)
            } else {
                return;
            };
            let (write_start, end_us) = written.unwrap_or_else(|| shared.write_report(id, report));
            let span = SpanEvent::complete(
                "report-write",
                "job",
                write_start,
                end_us.saturating_sub(write_start),
                id,
                0,
            )
            .arg_text("class", class);
            (format!("complete {id} {class}"), state, end_us, Some(span))
        }
    };
    let trace = span_trace(id, job, state, end_us, tail);
    drop(inner);
    shared.write_spans(id, &trace);

    let mut inner = shared.lock();
    inner.journal(id, op);
    if let Some(job) = inner.live(id) {
        job.state = state;
        job.error = result.err();
    }
    inner.settle(id);
    drop(inner);
    shared.progress.notify_all();
}

/// The `on_trial` hook: journals trial `i`'s outcome, records its
/// `attempt` span and wakes the result streams.
fn record_outcome(shared: &Shared, id: u64, seed: u64, i: usize, outcome: &TrialOutcome) {
    let line = outcome.manifest_line(i);
    let now_us = shared.clock.now_us();
    let mut inner = shared.lock();
    inner.journal(id, format!("outcome {id} {line}"));
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
            .arg_text("id", &hex_id(span_id(id, trial_seed(seed, i), attempt)))
            .arg_int("trial", i as i64)
            .arg_int("attempt", i64::from(attempt))
            .arg_text("outcome", label),
        );
        job.results.insert(i, outcome.clone());
    }
    drop(inner);
    shared.progress.notify_all();
}

/// The `on_retry` hook: journals the retry and records its span.
fn record_retry(shared: &Shared, id: u64, seed: u64, i: usize) {
    let now_us = shared.clock.now_us();
    let mut inner = shared.lock();
    inner.journal(id, format!("retried {id} {i}"));
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
            .arg_text("id", &hex_id(span_id(id, trial_seed(seed, i), attempt)))
            .arg_int("trial", i as i64)
            .arg_int("attempt", i64::from(attempt)),
        );
    }
}

/// Runs the job's campaign from its `prior` journalled outcomes, with
/// hooks that journal every further completed trial and retry.  The
/// report is produced by exactly the code path `divlab` uses
/// ([`run_engine_campaign`]), so daemon and CLI reports for the same
/// spec are byte-identical.
fn run_engine(
    shared: &Arc<Shared>,
    id: u64,
    spec: &JobSpec,
    inputs: &CampaignInputs,
    cancel: &AtomicBool,
    prior: &BTreeMap<usize, TrialOutcome>,
) -> Result<CampaignReport, String> {
    let campaign = spec.campaign(inputs, Front::Run, false)?;
    if let Some(why) = &campaign.demotion {
        eprintln!("divd: job {id}: {why}");
    }
    let on_trial =
        |i: usize, outcome: &TrialOutcome| record_outcome(shared, id, spec.seed, i, outcome);
    let on_retry = |i: usize| record_retry(shared, id, spec.seed, i);
    let hooks = CampaignHooks {
        cancel: Some(cancel),
        on_trial: Some(&on_trial),
        on_retry: Some(&on_retry),
        resumed: Some(prior),
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
        .and_then(|(inputs, _)| spec.campaign(&inputs, Front::Run, false).map(drop));
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
    let frame = match inner.commit(format!("submit {id} {client} {}", spec.render())) {
        Ok(frame) => frame,
        Err(e) => return Response::text(500, format!("oplog append failed: {e}\n")),
    };
    inner.next_id += 1;
    let mut job = Job::new(client.clone(), spec);
    job.submitted_us = shared.clock.now_us();
    job.journalled = frame.is_some();
    job.journal = frame.unwrap_or(0..0);
    inner.live.insert(id, Box::new(job));
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
    for (_, entry) in inner.entries() {
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
    for (id, entry) in inner.entries() {
        let job = entry.summary();
        out.push_str(&format!(
            "{id} {} {} {}/{}\n",
            job.state, job.client, job.done, job.trials
        ));
    }
    Response::text(200, out)
}

/// The `500` a settled job answers when its journal range cannot be read.
fn unreadable(id: u64, e: &io::Error) -> Response {
    Response::text(500, format!("job {id}'s journal is unreadable: {e}\n"))
}

fn job_status(shared: &Arc<Shared>, id: u64) -> Response {
    let inner = shared.lock();
    let Some(entry) = inner.entry(id) else {
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
    if let Some(class) = entry.class() {
        out.push_str(&format!("class {class}\n"));
    }
    // Only a failed job has an error, and a settled one keeps it in the
    // journal.
    let error = match entry {
        Entry::Live(job) => job.error.clone(),
        Entry::Settled(row, _) if row.state == JobState::Failed => {
            let row = *row;
            drop(inner);
            match reread(&shared.oplog_path(), id, &row) {
                Ok(job) => job.error,
                Err(e) => return unreadable(id, &e),
            }
        }
        Entry::Settled(..) => None,
    };
    if let Some(e) = error {
        out.push_str(&format!("error {}\n", e.replace('\n', " ")));
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
    let Some(entry) = inner.entry(id) else {
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
    let state = match shared.lock().entry(id) {
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

/// Serves the final report, re-rendered from the job's journalled
/// outcomes outside the lock.  `409` until the job is terminal, and for
/// a failed job, which has no report.
fn job_report(shared: &Arc<Shared>, id: u64) -> Response {
    let inner = shared.lock();
    let row = match inner.entry(id) {
        None => return Response::text(404, "no such campaign\n"),
        Some(entry) if !entry.state().is_terminal() || entry.state() == JobState::Failed => {
            return Response::text(409, format!("job is {}; no report yet\n", entry.state()))
        }
        Some(Entry::Live(job)) => return Response::text(200, job.report()),
        Some(Entry::Settled(row, _)) => *row,
    };
    drop(inner);
    match reread(&shared.oplog_path(), id, &row) {
        Ok(job) => Response::text(200, job.report()),
        Err(e) => unreadable(id, &e),
    }
}

/// Streams journalled per-trial outcomes as they land, ending with an
/// `end <state>` line once the job is terminal (or the daemon drains).
/// The stream waits on [`Shared::progress`] and never writes while
/// holding the lock; a job already settled is answered whole.
fn job_results(shared: &Arc<Shared>, id: u64) -> Response {
    let settled = match shared.lock().entry(id) {
        None => return Response::text(404, "no such campaign\n"),
        Some(Entry::Settled(row, _)) => Some(*row),
        Some(Entry::Live(_)) => None,
    };
    if let Some(row) = settled {
        return match settled_results(shared, id, &row, &BTreeSet::new()) {
            Ok(body) => Response::text(200, body),
            Err(e) => unreadable(id, &e),
        };
    }
    let shared = Arc::clone(shared);
    Response::stream(200, "text/plain; charset=utf-8", move |w| {
        let mut sent: BTreeSet<usize> = BTreeSet::new();
        let mut inner = shared.lock();
        loop {
            let (batch, end) = match inner.entry(id) {
                None => (Vec::new(), Some("gone".to_string())),
                Some(Entry::Settled(row, _)) => {
                    let row = *row;
                    drop(inner);
                    return w.write_all(settled_results(&shared, id, &row, &sent)?.as_bytes());
                }
                Some(Entry::Live(job)) => {
                    let end = if job.state.is_terminal() {
                        Some(job.state.to_string())
                    } else if inner.draining {
                        Some("draining".to_string())
                    } else {
                        None
                    };
                    (job.unsent(&sent), end)
                }
            };
            if batch.is_empty() && end.is_none() {
                inner = shared
                    .progress
                    .wait(inner)
                    .unwrap_or_else(|e| e.into_inner());
                continue;
            }
            drop(inner);
            for (i, line) in batch {
                writeln!(w, "{line}")?;
                sent.insert(i);
            }
            w.flush()?;
            if let Some(state) = end {
                return writeln!(w, "end {state}");
            }
            inner = shared.lock();
        }
    })
}

/// The rest of a settled job's `/results` body: the outcome lines not
/// yet `sent`, re-read from its journal, then `end <state>`.
fn settled_results(
    shared: &Shared,
    id: u64,
    row: &Settled,
    sent: &BTreeSet<usize>,
) -> io::Result<String> {
    let job = reread(&shared.oplog_path(), id, row)?;
    let mut body = String::new();
    for (_, line) in job.unsent(sent) {
        body.push_str(&line);
        body.push('\n');
    }
    body.push_str(&format!("end {}\n", row.state));
    Ok(body)
}

fn job_cancel(shared: &Arc<Shared>, id: u64) -> Response {
    let mut inner = shared.lock();
    let state = match inner.entry(id) {
        Some(entry) => entry.state(),
        None => return Response::text(404, "no such campaign\n"),
    };
    if state.is_terminal() {
        return Response::text(409, format!("already {state}\n"));
    }
    inner.journal(id, format!("cancel {id}"));
    let job = inner.live(id).expect("a non-terminal job is live");
    job.cancel_requested = true;
    if state == JobState::Queued {
        let end_us = shared.clock.now_us();
        let trace = span_trace(id, job, JobState::Cancelled, end_us, None);
        shared.write_spans(id, &trace);
        job.state = JobState::Cancelled;
        inner.queue.remove(id);
        inner.settle(id);
        drop(inner);
        shared.progress.notify_all();
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
    use std::time::{Duration, Instant};

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

        let jobs = synthetic_job(7, &["fail 7 boom went the setup".to_string()]);
        assert_eq!(jobs[&7].state, JobState::Failed);
        assert_eq!(jobs[&7].error.as_deref(), Some("boom went the setup"));
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
            // A trial the 4-trial job does not have: skipped on replay.
            "outcome 2 trial 4 converged 3 99".to_string(),
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
        let entry = |id| inner.entry(id).unwrap();
        assert!(matches!(entry(1), Entry::Settled(s, "a") if s.state == JobState::Completed));
        assert!(matches!(entry(2), Entry::Live(j) if j.state == JobState::Running));
        assert_eq!(entry(2).summary().done, 1);
        assert!(matches!(entry(3), Entry::Live(j) if j.state == JobState::Queued));
        // Cancel intent on a crashed running job resolves to cancelled,
        // its partial outcome kept for the re-rendered report.
        assert!(matches!(entry(4), Entry::Settled(s, "b") if s.state == JobState::Cancelled));
        assert_eq!(entry(4).summary().done, 0);
        assert_eq!(inner.entries().count(), 4);
        assert!(inner.entries().all(|(_, e)| e.summary().recovered));
        assert_eq!(inner.next_id, 5);
        // A settled row's journal range re-reads to what replay built.
        let Entry::Settled(row, _) = entry(1) else {
            unreachable!()
        };
        let job = reread(&path, 1, row).unwrap();
        assert_eq!(job.results.len(), 1);
        assert_eq!((job.spec.seed, job.state), (3, JobState::Completed));

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
        let events = assemble_spans(7, job, job.state, 150);
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
        let events = assemble_spans(3, &jobs[&3], jobs[&3].state, 500);
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
        assert_eq!(job.report(), expect);
    }

    /// A daemon state over `inner`, reading its journal from
    /// `<dir>/oplog.div`, with no threads.
    fn shared_with(dir: &Path, inner: Inner) -> Arc<Shared> {
        Arc::new(Shared {
            inner: Mutex::new(inner),
            work: Condvar::new(),
            progress: Condvar::new(),
            data_dir: dir.to_path_buf(),
            clock: SpanClock::new(),
        })
    }

    fn request(method: &str, path: &str, body: &str) -> Request {
        Request {
            method: method.to_string(),
            path: path.to_string(),
            query: String::new(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    /// `(status, body)` of `GET path`, streams drained to the end.
    fn get(shared: &Arc<Shared>, path: &str) -> (u16, Vec<u8>) {
        let resp = route(shared, &request("GET", path, ""));
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
        let class = match job.state {
            JobState::Failed => "failed",
            JobState::Cancelled => "partial",
            _ if job.results.values().any(|o| !o.is_converged()) => "degraded",
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
        for (&i, o) in &job.results {
            results.push_str(&format!("{}\n", o.manifest_line(i)));
        }
        results.push_str(&format!("end {}\n", job.state));
        let report = match job.state {
            JobState::Failed => (409, "job is failed; no report yet\n".to_string()),
            _ => (
                200,
                CampaignReport {
                    master_seed: job.spec.seed,
                    trials: job.spec.trials,
                    outcomes: job.results.clone(),
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
                    "fail 7 campaign setup failed\nfor graph",
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
            // The job's journal as a daemon writes it: its submit, then
            // one bundle per op.
            let path = dir.join("oplog.div");
            let _ = std::fs::remove_file(&path);
            let (mut log, _) = Oplog::open(&path).unwrap();
            let start = log.len();
            let submit = format!("submit 7 alice {}", spec_text(4));
            for op in std::iter::once(&submit).chain(&case_ops) {
                log.commit(std::slice::from_ref(op)).unwrap();
            }
            let end = log.len();
            drop(log);
            let inner = if label == "recovered" {
                let job = jobs.get_mut(&7).unwrap();
                job.state = JobState::Cancelled;
                job.recovered = true;
                recover(&Oplog::open(&path).unwrap().1, 8)
            } else {
                // Settled as a worker settles it: the full record, with
                // the journal range its ops were written to.
                let mut inner = recover(&Replay::from_bytes(&[]), 8);
                let mut job = synthetic_job(7, &case_ops).remove(&7).unwrap();
                job.journal = start..end;
                inner.live.insert(7, Box::new(job));
                inner.next_id = 8;
                inner.settle(7);
                inner
            };
            assert!(
                matches!(inner.entry(7), Some(Entry::Settled(..))),
                "{label}"
            );
            let shared = shared_with(&dir, inner);
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

    #[test]
    fn a_settled_row_is_32_bytes() {
        assert!(std::mem::size_of::<Settled>() <= 32);
        assert_eq!(
            std::mem::size_of::<Option<Settled>>(),
            std::mem::size_of::<Settled>()
        );
    }

    /// A fresh data directory for `label`.
    fn fresh_dir(label: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("divd-{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A daemon state on a fresh data directory, with a real oplog and no
    /// threads, holding one submitted 4-trial job: id 1, seed 3.
    fn one_job(label: &str) -> (PathBuf, Arc<Shared>) {
        let dir = fresh_dir(label);
        let shared = Arc::new(Shared::open(&DaemonConfig::new(&dir)).unwrap());
        let resp = route(&shared, &request("POST", "/campaigns", &spec_text(4)));
        assert_eq!(resp.status, 201);
        (dir, shared)
    }

    /// Trial `i`'s outcome in the wake-up tests.
    fn converged(i: usize) -> TrialOutcome {
        TrialOutcome::Converged {
            winner: 2,
            steps: 50 + i as u64,
        }
    }

    /// Forwards every write to a channel, as it happens.
    struct ChannelWriter(std::sync::mpsc::Sender<Vec<u8>>);

    impl io::Write for ChannelWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let _ = self.0.send(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// An open `/results` stream, written on its own thread.
    ///
    /// The pauses in [`Stream::open`] and [`Stream::expect`] let the
    /// stream block on the condition variable before the test acts.  A
    /// stream not yet blocked sees the change under the lock anyway, so
    /// a short pause can only hide a missed notification, never fail a
    /// working one.
    struct Stream {
        rx: std::sync::mpsc::Receiver<Vec<u8>>,
        text: String,
        writer: std::thread::JoinHandle<io::Result<()>>,
    }

    impl Stream {
        /// Opens job `id`'s stream and gives it time to deliver what it
        /// has and block.
        fn open(shared: &Arc<Shared>, id: u64) -> Stream {
            let resp = route(
                shared,
                &request("GET", &format!("/campaigns/{id}/results"), ""),
            );
            let div_sim::http::Body::Stream(write) = resp.body else {
                panic!("a job in flight streams its results");
            };
            let (tx, rx) = std::sync::mpsc::channel();
            let writer = std::thread::spawn(move || write(&mut ChannelWriter(tx)));
            std::thread::sleep(Duration::from_millis(50));
            Stream {
                rx,
                text: String::new(),
                writer,
            }
        }

        /// Waits for `line`, failing after 5 s: a stream nobody wakes
        /// never delivers it, so a missed notification fails the test
        /// instead of hanging it.
        fn expect(&mut self, line: &str) {
            let deadline = Instant::now() + Duration::from_secs(5);
            let whole = format!("{line}\n");
            while !self.text.split_inclusive('\n').any(|l| l == whole) {
                let left = deadline.saturating_duration_since(Instant::now());
                match self.rx.recv_timeout(left) {
                    Ok(bytes) => self.text.push_str(&String::from_utf8(bytes).unwrap()),
                    Err(_) => panic!("stream never sent {line:?}; got {:?}", self.text),
                }
            }
            std::thread::sleep(Duration::from_millis(50));
        }

        /// Waits for the `end <state>` line and the stream's clean close;
        /// returns everything it sent.
        fn end(mut self, state: &str) -> String {
            self.expect(&format!("end {state}"));
            self.writer.join().unwrap().unwrap();
            self.text
        }
    }

    #[test]
    fn an_outcome_wakes_an_open_stream() {
        let (dir, shared) = one_job("wake-outcome");
        claim(&shared, 1).unwrap();
        record_outcome(&shared, 1, 3, 0, &converged(0));
        let mut stream = Stream::open(&shared, 1);
        stream.expect(&converged(0).manifest_line(0));
        record_outcome(&shared, 1, 3, 2, &converged(2));
        stream.expect(&converged(2).manifest_line(2));
        assert_eq!(stream.text.lines().count(), 2, "each line once");
        shared.begin_drain();
        stream.end("draining");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn completion_wakes_an_open_stream() {
        let (dir, shared) = one_job("wake-complete");
        claim(&shared, 1).unwrap();
        for i in 0..4 {
            record_outcome(&shared, 1, 3, i, &converged(i));
        }
        let mut stream = Stream::open(&shared, 1);
        stream.expect(&converged(3).manifest_line(3));
        let report = CampaignReport {
            master_seed: 3,
            trials: 4,
            outcomes: (0..4).map(|i| (i, converged(i))).collect(),
            resumed: 0,
        };
        finish(&shared, 1, Ok(report.clone()));
        let streamed = stream.end("completed");
        assert_eq!(streamed.lines().count(), 5, "{streamed}");
        // Settled from the journal, the job serves the report written at
        // completion, and its stream the same lines.
        assert!(matches!(shared.lock().entry(1), Some(Entry::Settled(..))));
        let written = std::fs::read(shared.report_path(1)).unwrap();
        assert_eq!(written, report.render().into_bytes());
        assert_eq!(get(&shared, "/campaigns/1/report"), (200, written));
        let settled = get(&shared, "/campaigns/1/results");
        assert_eq!(settled, (200, streamed.into_bytes()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_failure_wakes_an_open_stream() {
        let (dir, shared) = one_job("wake-fail");
        claim(&shared, 1).unwrap();
        let stream = Stream::open(&shared, 1);
        finish(&shared, 1, Err("boom\nat setup".to_string()));
        stream.end("failed");
        let (status, body) = get(&shared, "/campaigns/1");
        assert_eq!(status, 200);
        let body = String::from_utf8(body).unwrap();
        assert!(
            body.ends_with("class failed\nerror boom at setup\n"),
            "{body}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cancelling_a_queued_job_wakes_its_stream() {
        let (dir, shared) = one_job("wake-cancel");
        let stream = Stream::open(&shared, 1);
        let resp = route(&shared, &request("DELETE", "/campaigns/1", ""));
        assert_eq!(resp.status, 200);
        stream.end("cancelled");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_drain_wakes_an_open_stream() {
        let (dir, shared) = one_job("wake-drain");
        claim(&shared, 1).unwrap();
        let stream = Stream::open(&shared, 1);
        shared.begin_drain();
        stream.end("draining");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_damaged_journal_answers_500() {
        let (dir, shared) = one_job("damaged");
        claim(&shared, 1).unwrap();
        record_outcome(&shared, 1, 3, 0, &converged(0));
        finish(&shared, 1, Err("boom".to_string()));
        let path = shared.oplog_path();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 2;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, bytes).unwrap();
        for endpoint in ["", "/results"] {
            let (status, body) = get(&shared, &format!("/campaigns/1{endpoint}"));
            let body = String::from_utf8(body).unwrap();
            assert_eq!(status, 500, "{endpoint}: {body}");
            assert!(body.contains("checksum mismatch"), "{body}");
        }
        // Endpoints served from the row alone still answer.
        assert_eq!(get(&shared, "/campaigns/1/progress").0, 200);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_job_its_journal_misses_keeps_its_full_record() {
        let (dir, shared) = one_job("unjournalled");
        // The drain sealed the log, so the cancel below is not journalled.
        let log = shared.lock().oplog.take().unwrap();
        log.seal().unwrap();
        let resp = route(&shared, &request("DELETE", "/campaigns/1", ""));
        assert_eq!(resp.status, 200);
        assert!(
            matches!(shared.lock().entry(1), Some(Entry::Live(j)) if j.state == JobState::Cancelled)
        );
        let (status, body) = get(&shared, "/campaigns/1");
        assert_eq!(status, 200);
        assert!(String::from_utf8(body)
            .unwrap()
            .ends_with("class partial\n"));
        assert_eq!(
            get(&shared, "/campaigns/1/results"),
            (200, b"end cancelled\n".to_vec())
        );
        let (status, report) = get(&shared, "/campaigns/1/report");
        assert_eq!(status, 200);
        assert!(String::from_utf8(report)
            .unwrap()
            .contains("trials=4 completed=0"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
