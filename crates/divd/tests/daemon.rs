//! End-to-end tests for the `divd` daemon: API surface, backpressure,
//! cancellation, drain/resume, and the headline crash guarantee —
//! `kill -9` at any instant, restart, and the resumed campaign report is
//! byte-identical to an uninterrupted run's (plain, under faults, and
//! with the batch engine).

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use div_oplog::{Oplog, Replay};
use div_sim::http::{http_request, HttpResponse};
use divd::{Daemon, DaemonConfig, JobSpec};

fn temp_dir(label: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "divd-test-{label}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn req(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> HttpResponse {
    req_as(addr, method, path, &[], body)
}

fn req_as(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> HttpResponse {
    http_request(addr, method, path, headers, body, Duration::from_secs(120))
        .unwrap_or_else(|e| panic!("{method} {path}: {e}"))
}

/// Submits a spec and returns the new job id.
fn submit(addr: SocketAddr, spec: &str) -> u64 {
    let resp = req(addr, "POST", "/campaigns", spec.as_bytes());
    assert_eq!(resp.status, 201, "{}", resp.text());
    resp.text()
        .trim()
        .strip_prefix("id ")
        .and_then(|s| s.parse().ok())
        .expect("submit returns `id N`")
}

/// Polls job status until `state` matches (or panics after `limit`).
fn wait_state(addr: SocketAddr, id: u64, want: &str, limit: Duration) -> String {
    let start = Instant::now();
    loop {
        let text = req(addr, "GET", &format!("/campaigns/{id}"), b"").text();
        let state = field(&text, "state").unwrap_or_default();
        if state == want {
            return text;
        }
        assert!(
            start.elapsed() < limit,
            "job {id} stuck in {state:?} waiting for {want:?}:\n{text}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Polls until at least `n` trials are done (job mid-flight).
fn wait_done(addr: SocketAddr, id: u64, n: usize, limit: Duration) {
    let start = Instant::now();
    loop {
        let text = req(addr, "GET", &format!("/campaigns/{id}"), b"").text();
        let done: usize = field(&text, "done")
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        if done >= n {
            return;
        }
        let state = field(&text, "state").unwrap_or_default();
        assert!(
            state == "queued" || state == "running",
            "job {id} reached {state:?} before {n} trials were done:\n{text}"
        );
        assert!(
            start.elapsed() < limit,
            "job {id} never reached {n} done trials"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn field(status: &str, key: &str) -> Option<String> {
    let prefix = format!("{key} ");
    status
        .lines()
        .find_map(|l| l.strip_prefix(prefix.as_str()).map(str::to_string))
}

fn report_of(addr: SocketAddr, id: u64) -> String {
    let resp = req(addr, "GET", &format!("/campaigns/{id}/report"), b"");
    assert_eq!(resp.status, 200, "{}", resp.text());
    resp.text()
}

/// A campaign with a *deterministic* per-trial duration, slow enough to
/// observe and interrupt mid-flight: stubborn vertices make consensus
/// impossible, so every trial runs its full step budget (~tens of ms)
/// and times out, journalling each outcome as it lands.
const SLOW_SPEC: &str = "graph cycle:64\ninit uniform:5\nscheduler edge\nengine reference\n\
                         faults stubborn:3\nseed 3\ntrials 40\nbudget 250000\nthreads 1\n";

/// An instant campaign for API-surface tests.
const QUICK_SPEC: &str =
    "graph complete:30\ninit blocks:1x15,5x15\nengine fast\nseed 7\ntrials 5\n";

/// SLOW_SPEC with far more trials than any test waits for: a filler
/// that holds the worker until it is cancelled.
fn filler_spec() -> String {
    SLOW_SPEC.replace("trials 40\n", "trials 100000\n")
}

/// Sends `GET path` and returns the connection once the response head
/// has arrived — the server is then inside the body — with any body
/// bytes read so far.
fn open_stream(addr: SocketAddr, path: &str) -> (TcpStream, Vec<u8>) {
    let mut conn = TcpStream::connect(addr).unwrap();
    write!(conn, "GET {path} HTTP/1.1\r\nHost: {addr}\r\n\r\n").unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    let mut raw = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(end) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
            assert!(raw.starts_with(b"HTTP/1.1 200"), "{raw:?}");
            return (conn, raw.split_off(end + 4));
        }
        let n = conn.read(&mut chunk).unwrap();
        assert!(n > 0, "connection closed before the response head");
        raw.extend_from_slice(&chunk[..n]);
    }
}

fn one_worker(dir: &Path) -> DaemonConfig {
    let mut cfg = DaemonConfig::new(dir);
    cfg.workers = 1;
    cfg
}

/// Runs `spec` to completion on a fresh in-process daemon and returns
/// the report — the uninterrupted control for crash comparisons.
fn control_report(spec: &str) -> String {
    let dir = temp_dir("control");
    let daemon = Daemon::start(one_worker(&dir)).unwrap();
    let addr = daemon.local_addr();
    let id = submit(addr, spec);
    wait_state(addr, id, "completed", Duration::from_secs(120));
    let report = report_of(addr, id);
    daemon.drain();
    let _ = std::fs::remove_dir_all(&dir);
    report
}

// ------------------------------------------------------------------
// Spawned-binary helpers (the crash tests need a real PID to kill).
// ------------------------------------------------------------------

struct DaemonProc {
    child: Child,
    addr: SocketAddr,
}

fn spawn_daemon(dir: &Path) -> DaemonProc {
    let _ = std::fs::remove_file(dir.join("endpoint"));
    let child = Command::new(env!("CARGO_BIN_EXE_divd"))
        .args(["--data", dir.to_str().unwrap(), "--workers", "1"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("divd spawns");
    // The daemon publishes its bound address atomically once it is
    // accepting connections.
    let endpoint = dir.join("endpoint");
    let start = Instant::now();
    let addr = loop {
        if let Ok(text) = std::fs::read_to_string(&endpoint) {
            if let Ok(addr) = text.trim().parse::<SocketAddr>() {
                break addr;
            }
        }
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "daemon never published endpoint"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    DaemonProc { child, addr }
}

impl Drop for DaemonProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The headline guarantee, parameterised: submit, kill -9 mid-campaign,
/// restart, and the resumed report must be byte-identical to an
/// uninterrupted run of the same spec.
fn kill_dash_nine_roundtrip(label: &str, spec: &str, kill_after_done: usize) {
    let expect = control_report(spec);
    let dir = temp_dir(label);
    std::fs::create_dir_all(&dir).unwrap();

    let mut daemon = spawn_daemon(&dir);
    let id = submit(daemon.addr, spec);
    wait_done(daemon.addr, id, kill_after_done, Duration::from_secs(60));
    // SIGKILL: no drain, no oplog seal.
    daemon.child.kill().unwrap();
    daemon.child.wait().unwrap();
    drop(daemon);

    let daemon = spawn_daemon(&dir);
    let status = wait_state(daemon.addr, id, "completed", Duration::from_secs(120));
    assert_eq!(
        field(&status, "recovered").as_deref(),
        Some("1"),
        "{status}"
    );
    let report = report_of(daemon.addr, id);
    assert_eq!(
        report, expect,
        "resumed report differs from uninterrupted control"
    );
    // The resumed run reused pre-crash work rather than start over: the
    // journal holds exactly one outcome per trial, none run twice.
    let trials = JobSpec::parse(spec).unwrap().trials;
    let mut journalled = journalled_trials(&dir, id);
    journalled.sort_unstable();
    assert_eq!(journalled, (0..trials).collect::<Vec<_>>());
    assert!(!dir.join("checkpoints").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The trial index of every `outcome <id> trial <i> …` op in the data
/// directory's journal, in journal order.
fn journalled_trials(dir: &Path, id: u64) -> Vec<usize> {
    let replay = Replay::from_bytes(&std::fs::read(dir.join("oplog.div")).unwrap());
    let prefix = format!("outcome {id} ");
    replay
        .bundles
        .iter()
        .flat_map(|b| &b.ops)
        .filter_map(|op| op.strip_prefix(prefix.as_str()))
        .map(|line| div_sim::TrialOutcome::parse_line(line).unwrap().0)
        .collect()
}

#[test]
fn kill_nine_then_restart_report_is_byte_identical() {
    kill_dash_nine_roundtrip("kill9-plain", SLOW_SPEC, 3);
}

#[test]
fn kill_nine_under_faults_report_is_byte_identical() {
    // Message-drop faults exercise the fault-session path through the
    // crash/recovery cycle (stubborn keeps the duration deterministic).
    let spec = SLOW_SPEC.replace("faults stubborn:3", "faults drop:0.2,stubborn:3");
    kill_dash_nine_roundtrip("kill9-faults", &spec, 3);
}

#[test]
fn kill_nine_with_batch_engine_report_is_byte_identical() {
    let spec = "graph cycle:64\ninit uniform:5\nscheduler edge\nengine batch\n\
                faults stubborn:3\nseed 11\ntrials 40\nbudget 400000\nlanes 4\nthreads 1\n";
    kill_dash_nine_roundtrip("kill9-batch", spec, 4);
}

/// A `submit` op as a daemon journalled it before the spec had a
/// `shards` key: that version's 11-key canonical render, verbatim.
const OLD_SUBMIT_OP: &str = "submit 1 ci graph cycle:40\ninit uniform:5\nscheduler edge\n\
                             engine fast\nseed 5\ntrials 12\nbudget 1000000000\nfaults none\n\
                             lanes 8\nthreads 1\ncheckpoint-every 1\n";

#[test]
fn journals_from_before_the_shards_key_replay_and_resume() {
    let spec_text = OLD_SUBMIT_OP.strip_prefix("submit 1 ci ").unwrap();
    let spec = JobSpec::parse(spec_text).unwrap();
    assert_eq!(spec.shards, JobSpec::default().shards);
    assert_eq!(JobSpec::parse(&spec.render()).unwrap(), spec);

    // Control: the campaign on a fresh daemon, whose results stream
    // gives the trial records the old daemon would have journalled.
    let control_dir = temp_dir("old-journal-control");
    let daemon = Daemon::start(one_worker(&control_dir)).unwrap();
    let id = submit(daemon.local_addr(), spec_text);
    wait_state(
        daemon.local_addr(),
        id,
        "completed",
        Duration::from_secs(60),
    );
    let expect = report_of(daemon.local_addr(), id);
    let results = req(
        daemon.local_addr(),
        "GET",
        &format!("/campaigns/{id}/results"),
        b"",
    )
    .text();
    daemon.drain();
    let done: Vec<&str> = results
        .lines()
        .filter(|l| l.starts_with("trial "))
        .take(5)
        .collect();
    assert_eq!(done.len(), 5);

    // The old daemon died mid-run: the journal holds the submit, the
    // schedule and five outcomes.
    let dir = temp_dir("old-journal");
    std::fs::create_dir_all(&dir).unwrap();
    let (mut log, _) = Oplog::open(&dir.join("oplog.div")).unwrap();
    log.commit(&[OLD_SUBMIT_OP.to_string()]).unwrap();
    log.commit(&["schedule 1".to_string()]).unwrap();
    for line in &done {
        log.commit(&[format!("outcome 1 {line}")]).unwrap();
    }
    drop(log);

    let daemon = Daemon::start(one_worker(&dir)).unwrap();
    let addr = daemon.local_addr();
    let status = wait_state(addr, 1, "completed", Duration::from_secs(60));
    assert_eq!(
        field(&status, "recovered").as_deref(),
        Some("1"),
        "{status}"
    );
    assert_eq!(report_of(addr, 1), expect);
    daemon.drain();
    let _ = std::fs::remove_dir_all(&control_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sigterm_drains_and_the_next_start_resumes() {
    let expect = control_report(SLOW_SPEC);
    let dir = temp_dir("sigterm");
    std::fs::create_dir_all(&dir).unwrap();

    let mut daemon = spawn_daemon(&dir);
    let id = submit(daemon.addr, SLOW_SPEC);
    wait_done(daemon.addr, id, 2, Duration::from_secs(60));
    // Graceful: SIGTERM → drain → in-flight trial journalled → sealed
    // oplog → exit 0.
    let term = Command::new("kill")
        .arg(daemon.child.id().to_string())
        .status()
        .unwrap();
    assert!(term.success());
    let code = daemon.child.wait().unwrap();
    assert!(code.success(), "drained daemon exits 0, got {code:?}");
    assert!(dir.join("oplog.div.seal").exists(), "drain seals the oplog");
    drop(daemon);

    let daemon = spawn_daemon(&dir);
    wait_state(daemon.addr, id, "completed", Duration::from_secs(120));
    assert_eq!(report_of(daemon.addr, id), expect);
    let mut journalled = journalled_trials(&dir, id);
    journalled.sort_unstable();
    assert_eq!(journalled, (0..40).collect::<Vec<_>>());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn quick_job_completes_and_streams_results() {
    let dir = temp_dir("quick");
    let daemon = Daemon::start(one_worker(&dir)).unwrap();
    let addr = daemon.local_addr();
    let id = submit(addr, QUICK_SPEC);

    // The results stream stays open until the job is terminal, then
    // closes with an `end <state>` line.
    let stream = req(addr, "GET", &format!("/campaigns/{id}/results"), b"");
    assert_eq!(stream.status, 200);
    let streamed = stream.text();
    let lines: Vec<&str> = streamed.trim().lines().map(str::trim).collect();
    assert_eq!(*lines.last().unwrap(), "end completed", "{lines:?}");
    let trial_lines = &lines[..lines.len() - 1];
    assert_eq!(trial_lines.len(), 5);
    for line in trial_lines {
        assert!(
            div_sim::TrialOutcome::parse_line(line).is_some(),
            "unparseable streamed line {line:?}"
        );
    }

    let status = wait_state(addr, id, "completed", Duration::from_secs(30));
    assert_eq!(field(&status, "done").as_deref(), Some("5"));
    assert_eq!(field(&status, "class").as_deref(), Some("clean"));
    let report = report_of(addr, id);
    assert!(
        report.contains("campaign master=7 trials=5 completed=5"),
        "{report}"
    );

    // Listing and gauges see the job too.
    let list = req(addr, "GET", "/campaigns", b"").text();
    assert!(list.contains(&format!("{id} completed anon 5/5")), "{list}");
    let gauges = req(addr, "GET", "/status", b"").text();
    assert!(gauges.contains("divd_jobs_completed 1"), "{gauges}");
    assert!(gauges.contains("divd_queue_depth 0"), "{gauges}");
    daemon.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn span_trace_and_progress_round_trip() {
    let dir = temp_dir("spans");
    let daemon = Daemon::start(one_worker(&dir)).unwrap();
    let addr = daemon.local_addr();
    let id = submit(addr, QUICK_SPEC);
    wait_state(addr, id, "completed", Duration::from_secs(30));

    // Progress counters: JSON whose finished==expected at completion
    // (and finished <= started always — the metrics_check contract).
    let progress = req(addr, "GET", &format!("/campaigns/{id}/progress"), b"");
    assert_eq!(progress.status, 200, "{}", progress.text());
    let text = progress.text();
    for needle in [
        "\"state\":\"completed\"",
        "\"expected\":5",
        "\"started\":5",
        "\"finished\":5",
    ] {
        assert!(text.contains(needle), "missing {needle} in {text}");
    }

    // The terminal span trace is served over HTTP, byte-identical to
    // the file on disk, and parses under the strict canonical grammar
    // (hence Perfetto-loadable JSON).
    let resp = req(addr, "GET", &format!("/campaigns/{id}/spans"), b"");
    assert_eq!(resp.status, 200, "{}", resp.text());
    let body = resp.text();
    let on_disk =
        std::fs::read_to_string(dir.join("spans").join(format!("job-{id}.json"))).unwrap();
    assert_eq!(body, on_disk);
    let events = div_core::parse_spans(&body).unwrap();
    assert_eq!(div_core::render_spans(&events), body);

    // The span tree mirrors the journal op sequence: the queue wait,
    // the running interval, one attempt per journalled outcome (in the
    // journal's completion order), and the report write — all on the
    // job's pid lane.
    let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
    assert_eq!(names[..2], ["queued", "running"], "{names:?}");
    assert_eq!(*names.last().unwrap(), "report-write", "{names:?}");
    assert!(events.iter().all(|e| e.pid == id));

    // Cross-check the attempts against the journalled outcomes the
    // results stream serves: same trial set, same outcome labels.
    let streamed = req(addr, "GET", &format!("/campaigns/{id}/results"), b"").text();
    let mut journalled: Vec<(i64, String)> = streamed
        .lines()
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            (f.first() == Some(&"trial")).then(|| (f[1].parse().unwrap(), f[2].to_string()))
        })
        .collect();
    journalled.sort_unstable();
    let mut attempts: Vec<(i64, String)> = events
        .iter()
        .filter(|e| e.name == "attempt")
        .map(|e| {
            let mut trial = -1;
            let mut outcome = String::new();
            let mut attempt = -1;
            for (k, v) in &e.args {
                match (k.as_str(), v) {
                    ("trial", div_core::SpanValue::Int(i)) => trial = *i,
                    ("attempt", div_core::SpanValue::Int(a)) => attempt = *a,
                    ("outcome", div_core::SpanValue::Text(t)) => outcome = t.clone(),
                    ("id", div_core::SpanValue::Text(hex)) => {
                        // The span identity is the deterministic
                        // function of (job id, trial seed, attempt).
                        assert_eq!(hex.len(), 16, "{hex}");
                    }
                    _ => {}
                }
            }
            assert_eq!(attempt, 0, "no retries expected for {QUICK_SPEC:?}");
            (trial, outcome)
        })
        .collect();
    attempts.sort_unstable();
    assert_eq!(attempts, journalled, "span tree diverges from journal");
    // And the ids really are recomputable from public inputs.
    for e in events.iter().filter(|e| e.name == "attempt") {
        let trial = e
            .args
            .iter()
            .find_map(|(k, v)| match (k.as_str(), v) {
                ("trial", div_core::SpanValue::Int(i)) => Some(*i as u64),
                _ => None,
            })
            .unwrap();
        let seed = div_sim::SeedSequence::seed_for(7, trial); // QUICK_SPEC seed 7
        let want = div_core::hex_id(div_core::span_id(id, seed, 0));
        assert!(
            e.args
                .contains(&("id".to_string(), div_core::SpanValue::Text(want.clone()))),
            "attempt {trial} id is not span_id(job, seed, attempt) = {want}"
        );
    }

    // A non-terminal job: live JSON progress, but no span trace yet.
    let slow = submit(addr, SLOW_SPEC);
    wait_done(addr, slow, 1, Duration::from_secs(60));
    let live = req(addr, "GET", &format!("/campaigns/{slow}/progress"), b"").text();
    assert!(live.contains("\"expected\":40"), "{live}");
    let early = req(addr, "GET", &format!("/campaigns/{slow}/spans"), b"");
    assert_eq!(early.status, 409, "{}", early.text());

    // Cancellation is a terminal transition too: it leaves a parseable
    // partial trace.
    let _ = req(addr, "DELETE", &format!("/campaigns/{slow}"), b"");
    wait_state(addr, slow, "cancelled", Duration::from_secs(60));
    let cancelled = req(addr, "GET", &format!("/campaigns/{slow}/spans"), b"");
    assert_eq!(cancelled.status, 200, "{}", cancelled.text());
    let partial = div_core::parse_spans(&cancelled.text()).unwrap();
    assert!(partial.iter().any(|e| e.name == "running"));
    assert_eq!(req(addr, "GET", "/campaigns/99/progress", b"").status, 404);
    assert_eq!(req(addr, "GET", "/campaigns/99/spans", b"").status, 404);
    daemon.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn results_stream_opened_before_the_first_outcome_sees_each_once() {
    let dir = temp_dir("stream-early");
    let daemon = Daemon::start(one_worker(&dir)).unwrap();
    let addr = daemon.local_addr();
    // The filler holds the only worker, so the job is still queued, with
    // no outcome, once its stream is open.
    let filler = submit(addr, &filler_spec());
    wait_done(addr, filler, 1, Duration::from_secs(60));
    let id = submit(addr, SLOW_SPEC);
    let (mut conn, mut body) = open_stream(addr, &format!("/campaigns/{id}/results"));
    let status = req(addr, "GET", &format!("/campaigns/{id}"), b"").text();
    assert_eq!(
        field(&status, "state").as_deref(),
        Some("queued"),
        "{status}"
    );
    assert_eq!(field(&status, "done").as_deref(), Some("0"), "{status}");
    assert_eq!(
        req(addr, "DELETE", &format!("/campaigns/{filler}"), b"").status,
        202
    );

    conn.read_to_end(&mut body).unwrap();
    let text = String::from_utf8(body).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    let (end, outcomes) = lines.split_last().unwrap();
    assert_eq!(*end, "end completed", "{text}");
    let mut streamed: Vec<&str> = outcomes.to_vec();
    streamed.sort_by_key(|l| div_sim::TrialOutcome::parse_line(l).unwrap().0);
    let indices: Vec<usize> = streamed
        .iter()
        .map(|l| div_sim::TrialOutcome::parse_line(l).unwrap().0)
        .collect();
    assert_eq!(indices, (0..40).collect::<Vec<_>>(), "{text}");
    // The settled job streams the same lines, in trial order.
    let settled = req(addr, "GET", &format!("/campaigns/{id}/results"), b"").text();
    assert_eq!(settled, format!("{}\nend completed\n", streamed.join("\n")));
    daemon.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn drain_ends_an_open_results_stream_promptly() {
    let dir = temp_dir("stream-drain");
    let daemon = Daemon::start(one_worker(&dir)).unwrap();
    let addr = daemon.local_addr();
    let id = submit(addr, &filler_spec());
    wait_done(addr, id, 1, Duration::from_secs(60));
    let (mut conn, mut body) = open_stream(addr, &format!("/campaigns/{id}/results"));
    let start = Instant::now();
    assert_eq!(req(addr, "POST", "/admin/drain", b"").status, 202);
    conn.read_to_end(&mut body).unwrap();
    let elapsed = start.elapsed();
    let text = String::from_utf8(body).unwrap();
    assert!(text.ends_with("\nend draining\n"), "{text}");
    assert!(
        elapsed < Duration::from_secs(1),
        "stream ended {elapsed:?} after the drain"
    );
    daemon.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every job endpoint's status and body for job `id`, plus the listing.
fn snapshot(addr: SocketAddr, id: u64) -> Vec<(String, u16, String)> {
    let base = format!("/campaigns/{id}");
    [
        base.clone(),
        format!("{base}/results"),
        format!("{base}/report"),
        format!("{base}/progress"),
        format!("{base}/spans"),
        "/campaigns".to_string(),
    ]
    .into_iter()
    .map(|path| {
        let resp = req(addr, "GET", &path, b"");
        (path, resp.status, resp.text())
    })
    .collect()
}

#[test]
fn settled_jobs_serve_the_same_bytes_after_recovery() {
    // A degraded campaign: every trial exhausts a tiny step budget.
    const DEGRADED_SPEC: &str =
        "graph cycle:64\ninit uniform:5\nengine fast\nseed 5\ntrials 3\nbudget 10\n";
    let dir = temp_dir("settled");
    // A failed job, as a journal records one: a spec that passed the
    // submit checks, one finished trial, then a failure.
    std::fs::create_dir_all(&dir).unwrap();
    let (mut log, _) = Oplog::open(&dir.join("oplog.div")).unwrap();
    let quick = JobSpec::parse(QUICK_SPEC).unwrap().render();
    for op in [
        format!("submit 1 anon {quick}"),
        "schedule 1".to_string(),
        "outcome 1 trial 0 converged 3 120".to_string(),
        "fail 1 campaign setup failed: spec no longer builds".to_string(),
    ] {
        log.commit(&[op]).unwrap();
    }
    drop(log);
    let daemon = Daemon::start(one_worker(&dir)).unwrap();
    let addr = daemon.local_addr();
    let failed = 1;
    let status = wait_state(addr, failed, "failed", Duration::from_secs(30));
    assert!(field(&status, "error").is_some(), "{status}");

    let completed = submit(addr, QUICK_SPEC);
    wait_state(addr, completed, "completed", Duration::from_secs(30));
    let degraded = submit(addr, DEGRADED_SPEC);
    let status = wait_state(addr, degraded, "completed", Duration::from_secs(30));
    assert_eq!(field(&status, "class").as_deref(), Some("degraded"));
    let filler = submit(addr, &filler_spec());
    wait_done(addr, filler, 1, Duration::from_secs(60));
    let queued = submit(addr, QUICK_SPEC);
    assert_eq!(
        req(addr, "DELETE", &format!("/campaigns/{queued}"), b"").status,
        200
    );
    let _ = req(addr, "DELETE", &format!("/campaigns/{filler}"), b"");
    wait_state(addr, filler, "cancelled", Duration::from_secs(60));

    let ids = [failed, completed, degraded, queued, filler];
    let live: Vec<_> = ids.iter().map(|&id| snapshot(addr, id)).collect();
    assert_eq!(report_of(addr, completed), control_report(QUICK_SPEC));
    assert_eq!(report_of(addr, degraded), control_report(DEGRADED_SPEC));
    daemon.drain();

    // The next daemon settles every job from the journal alone; each
    // answers as before, apart from the status line saying so.
    let daemon = Daemon::start(one_worker(&dir)).unwrap();
    let addr = daemon.local_addr();
    for (&id, before) in ids.iter().zip(&live) {
        let mut expect = before.clone();
        expect[0].2 = expect[0].2.replace("recovered 0\n", "recovered 1\n");
        assert_eq!(snapshot(addr, id), expect, "job {id}");
    }
    daemon.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn daemon_report_matches_divlab_campaign_shape() {
    // The daemon's report is produced by the shared engine/executors, so
    // it is the exact `CampaignReport::render` text (master, trials,
    // outcome table, metrics block) a local campaign run would print.
    let dir = temp_dir("shape");
    let daemon = Daemon::start(one_worker(&dir)).unwrap();
    let addr = daemon.local_addr();
    let id = submit(addr, QUICK_SPEC);
    wait_state(addr, id, "completed", Duration::from_secs(30));
    let report = report_of(addr, id);
    for needle in [
        "campaign master=",
        "outcomes converged=",
        "histogram steps.to_consensus",
    ] {
        assert!(report.contains(needle), "missing {needle:?} in:\n{report}");
    }
    daemon.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancel_mid_run_keeps_a_partial_resumable_report() {
    let dir = temp_dir("cancel");
    let daemon = Daemon::start(one_worker(&dir)).unwrap();
    let addr = daemon.local_addr();
    let id = submit(addr, SLOW_SPEC);
    wait_done(addr, id, 2, Duration::from_secs(60));

    let resp = req(addr, "DELETE", &format!("/campaigns/{id}"), b"");
    assert_eq!(resp.status, 202, "{}", resp.text());
    let status = wait_state(addr, id, "cancelled", Duration::from_secs(60));
    assert_eq!(field(&status, "class").as_deref(), Some("partial"));
    let done: usize = field(&status, "done").unwrap().parse().unwrap();
    assert!((1..40).contains(&done), "cancel mid-run left done={done}");
    let report = report_of(addr, id);
    assert!(report.contains(&format!("completed={done}")), "{report}");

    // Cancelling again is a clean conflict, not a crash.
    let again = req(addr, "DELETE", &format!("/campaigns/{id}"), b"");
    assert_eq!(again.status, 409);
    daemon.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancel_queued_job_never_runs() {
    let dir = temp_dir("cancel-queued");
    let daemon = Daemon::start(one_worker(&dir)).unwrap();
    let addr = daemon.local_addr();
    let running = submit(addr, SLOW_SPEC);
    wait_done(addr, running, 1, Duration::from_secs(60));
    let queued = submit(addr, QUICK_SPEC);

    let resp = req(addr, "DELETE", &format!("/campaigns/{queued}"), b"");
    assert_eq!(resp.status, 200, "{}", resp.text());
    let status = req(addr, "GET", &format!("/campaigns/{queued}"), b"").text();
    assert_eq!(field(&status, "state").as_deref(), Some("cancelled"));
    assert_eq!(field(&status, "done").as_deref(), Some("0"));
    // Unblock the worker quickly.
    let _ = req(addr, "DELETE", &format!("/campaigns/{running}"), b"");
    wait_state(addr, running, "cancelled", Duration::from_secs(60));
    daemon.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn admission_control_rejects_cleanly_under_load() {
    // ~200 concurrent clients against a full queue: every rejection is a
    // clean 429 with Retry-After; nothing 5xx, nothing hung, and every
    // accepted id really exists.
    let dir = temp_dir("load");
    let mut cfg = one_worker(&dir);
    cfg.queue_capacity = 4;
    let daemon = Daemon::start(cfg).unwrap();
    let addr = daemon.local_addr();
    // Occupy the single worker so queued jobs stay queued.  The filler
    // must outlast the burst (a finished filler lets the worker drain the
    // queue and free slots); it is cancelled at the end.
    let running = submit(addr, &filler_spec());
    wait_done(addr, running, 1, Duration::from_secs(60));

    let clients = 200;
    let results: Vec<(u16, Option<String>, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let name = format!("client-{c}");
                    let resp = http_request(
                        addr,
                        "POST",
                        "/campaigns",
                        &[("X-Client", name.as_str())],
                        QUICK_SPEC.as_bytes(),
                        Duration::from_secs(60),
                    )
                    .unwrap_or_else(|e| panic!("client {c}: {e}"));
                    let retry = resp.header("retry-after").map(str::to_string);
                    (resp.status, retry, resp.text())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut accepted = Vec::new();
    let mut rejected = 0;
    for (status, retry_after, body) in results {
        match status {
            201 => accepted.push(body),
            429 => {
                rejected += 1;
                assert_eq!(retry_after.as_deref(), Some("1"), "429 without Retry-After");
            }
            other => panic!("client saw status {other}: {body}"),
        }
    }
    assert_eq!(accepted.len() + rejected, clients);
    let filler_status = req(addr, "GET", &format!("/campaigns/{running}"), b"").text();
    assert_eq!(
        field(&filler_status, "state").as_deref(),
        Some("running"),
        "the filler finished during the burst:\n{filler_status}"
    );
    assert!(
        accepted.len() <= 4,
        "queue of 4 accepted {}",
        accepted.len()
    );
    assert!(rejected >= clients - 4);
    for body in &accepted {
        let id: u64 = body.trim().strip_prefix("id ").unwrap().parse().unwrap();
        let status = req(addr, "GET", &format!("/campaigns/{id}"), b"").text();
        assert!(
            field(&status, "state").is_some(),
            "accepted id {id} unknown"
        );
    }
    let gauges = req(addr, "GET", "/status", b"").text();
    assert!(
        gauges.contains(&format!("divd_rejected_total {rejected}")),
        "{gauges}"
    );
    // Shorten the teardown: cancel the slow filler.
    let _ = req(addr, "DELETE", &format!("/campaigns/{running}"), b"");
    wait_state(addr, running, "cancelled", Duration::from_secs(60));
    daemon.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn drain_endpoint_stops_admission_and_resumes_later() {
    let expect = control_report(SLOW_SPEC);
    let dir = temp_dir("drain");
    let daemon = Daemon::start(one_worker(&dir)).unwrap();
    let addr = daemon.local_addr();
    let id = submit(addr, SLOW_SPEC);
    wait_done(addr, id, 2, Duration::from_secs(60));

    let resp = req(addr, "POST", "/admin/drain", b"");
    assert_eq!(resp.status, 202);
    let refused = req(addr, "POST", "/campaigns", QUICK_SPEC.as_bytes());
    assert_eq!(refused.status, 503, "{}", refused.text());
    assert!(refused.header("retry-after").is_some());
    daemon.drain();
    assert!(dir.join("oplog.div.seal").exists());

    // Same data dir, next daemon: the drained job resumes and finishes
    // with the byte-identical report.
    let daemon = Daemon::start(one_worker(&dir)).unwrap();
    let addr = daemon.local_addr();
    wait_state(addr, id, "completed", Duration::from_secs(120));
    assert_eq!(report_of(addr, id), expect);
    daemon.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn api_surface_validates_inputs() {
    let dir = temp_dir("api");
    let daemon = Daemon::start(one_worker(&dir)).unwrap();
    let addr = daemon.local_addr();

    assert_eq!(req(addr, "GET", "/healthz", b"").text(), "ok\n");
    assert_eq!(req(addr, "GET", "/campaigns/99", b"").status, 404);
    assert_eq!(req(addr, "GET", "/campaigns/xyz", b"").status, 404);
    assert_eq!(req(addr, "GET", "/nope", b"").status, 404);
    assert_eq!(req(addr, "PUT", "/campaigns/1", b"").status, 405);

    // Spec errors are clean 400s with the parser's message.
    let bad = req(addr, "POST", "/campaigns", b"trials 5\n");
    assert_eq!(bad.status, 400);
    assert!(
        bad.text().contains("missing required key `graph`"),
        "{}",
        bad.text()
    );
    let bad = req(addr, "POST", "/campaigns", b"graph unknown:7\n");
    assert_eq!(bad.status, 400);
    assert!(bad.text().contains("unknown family"), "{}", bad.text());
    // A repeated key is an error, not a silent last-value-wins.
    let bad = req(
        addr,
        "POST",
        "/campaigns",
        b"graph complete:8\nengine fast\nengine batch\n",
    );
    assert_eq!(bad.status, 400);
    assert!(
        bad.text().contains("line 3: duplicate key \"engine\""),
        "{}",
        bad.text()
    );
    // Shard counts are checked at submit: a clean 400, never a failed job.
    for (body, needle) in [
        (
            "graph complete:8\nengine sharded\nshards 0\n",
            "shards must be at least 1",
        ),
        (
            "graph complete:8\nengine sharded\nshards 9\n",
            "shards 9 exceeds the graph's 8 vertices",
        ),
    ] {
        let bad = req(addr, "POST", "/campaigns", body.as_bytes());
        assert_eq!(bad.status, 400, "{body:?}");
        assert!(bad.text().contains(needle), "{}", bad.text());
    }
    let bad = req_as(
        addr,
        "POST",
        "/campaigns",
        &[("X-Client", "spaces !")],
        QUICK_SPEC.as_bytes(),
    );
    assert_eq!(bad.status, 400);

    // A report for an unfinished job is a conflict, not an empty 200.
    let id = submit(addr, SLOW_SPEC);
    assert_eq!(id, 1, "a rejected spec never became a job");
    let early = req(addr, "GET", &format!("/campaigns/{id}/report"), b"");
    assert_eq!(early.status, 409, "{}", early.text());
    let _ = req(addr, "DELETE", &format!("/campaigns/{id}"), b"");
    wait_state(addr, id, "cancelled", Duration::from_secs(60));
    daemon.drain();
    let _ = std::fs::remove_dir_all(&dir);
}
