//! The divd workload: two closed-loop clients sweep deterministic jobs
//! through the daemon, each job issuing exactly `divlab submit`'s four
//! requests; plus the service-layer probes every traced run takes.

use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use div_oplog::{atomic_write, Oplog, Replay};
use div_sim::http::http_request;
use div_sim::SeedSequence;
use divd::{Daemon, DaemonConfig, JobSpec};

use crate::host::{vm_hwm_mb, Env};
use crate::inproc::{self, Campaign, Layers};
use crate::report::Summary;
use crate::workload::{Options, Outcome, SETUP_PROBES};
use div_sim::stats::{median, quantile};

/// Concurrent clients (= cores of the reference host).
const CLIENTS: u64 = 2;

/// Jobs in the service probe of a campaign workload's traced run: one
/// full cycle of [`job_spec`]'s parameter grid.
const PROBE_JOBS: u64 = 24;

const QUICK: Duration = Duration::from_secs(10);
const WAIT: Duration = Duration::from_secs(120);

/// Job `j` of the sweep with workload seed `seed`.  The grid crosses a
/// dense and a sparse graph, three opinion ranges, both fast engines and
/// two trial counts, with message drops on every eighth job; it repeats
/// every 24 jobs while each job's seed stays distinct.
///
/// Jobs are kept small (about a millisecond of engine work): a job still
/// running when its `/results` request is first served waits one more
/// 25 ms poll, and two jobs running at once hold both cores of the
/// reference host, delaying the daemon's accept loop.  With 4 and 8
/// trials on twice these graphs, slow spells of the host pushed the
/// median latency from 40.6 ms to 42–57 ms.
pub fn job_spec(seed: u64, j: u64, smoke: bool) -> String {
    let graph = match (smoke, j % 2) {
        (false, 0) => "complete:100",
        (false, _) => "regular:200:6",
        (true, 0) => "complete:40",
        (true, _) => "regular:80:6",
    };
    let init = ["uniform:3", "uniform:5", "uniform:7"][(j / 2 % 3) as usize];
    let engine = ["fast", "batch"][(j / 6 % 2) as usize];
    let trials = [2, 4][(j / 12 % 2) as usize] / if smoke { 2 } else { 1 };
    let faults = if j % 8 == 7 { "drop:0.1" } else { "none" };
    format!(
        "graph {graph}\ninit {init}\nengine {engine}\nseed {}\ntrials {trials}\nfaults {faults}\n",
        SeedSequence::seed_for(seed, j)
    )
}

/// One client-side job record.
#[derive(Debug, Default)]
struct Job {
    j: u64,
    /// Submit → report received.
    latency_s: f64,
    /// When the submit was sent, from the sweep's start.
    start_s: f64,
    submit_s: f64,
    results_s: f64,
    report: Option<String>,
    /// Traced sweeps: the job's lifecycle span trace and an idle
    /// `/healthz` round trip taken right after the job.
    spans: Option<String>,
    healthz_s: f64,
    error: Option<String>,
}

/// The jobs of one sweep and its wall time (first submit → last report).
struct Sweep {
    jobs: Vec<Job>,
    wall_s: f64,
}

/// Runs the client loop until `deadline` or `max_jobs`, whichever first.
fn sweep(
    addr: SocketAddr,
    opts: &Options,
    traced: bool,
    deadline: Instant,
    max_jobs: u64,
) -> Sweep {
    let next = AtomicU64::new(0);
    let jobs = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            let (next, jobs) = (&next, &jobs);
            s.spawn(move || {
                let client = format!("bench{c}");
                while Instant::now() < deadline {
                    let j = next.fetch_add(1, Ordering::SeqCst);
                    if j >= max_jobs {
                        break;
                    }
                    let job = submit(addr, &client, j, opts, traced, start);
                    jobs.lock().expect("job list is never poisoned").push(job);
                }
            });
        }
    });
    let jobs = jobs.into_inner().expect("job list is never poisoned");
    let first = jobs.iter().map(|j| j.start_s).fold(f64::INFINITY, f64::min);
    let last = jobs
        .iter()
        .map(|j| j.start_s + j.latency_s)
        .fold(0.0, f64::max);
    Sweep {
        wall_s: (last - first).max(f64::MIN_POSITIVE),
        jobs,
    }
}

/// One job, as `divlab submit` does it: submit, wait on the results
/// stream, read the status, fetch the report.
fn submit(
    addr: SocketAddr,
    client: &str,
    j: u64,
    opts: &Options,
    traced: bool,
    sweep_start: Instant,
) -> Job {
    let spec = job_spec(opts.seed, j, opts.smoke);
    let t0 = Instant::now();
    let mut job = Job {
        j,
        start_s: (t0 - sweep_start).as_secs_f64(),
        ..Job::default()
    };
    let result = (|| -> Result<(), String> {
        let get = |path: &str, timeout| {
            http_request(addr, "GET", path, &[], &[], timeout).map_err(|e| format!("{path}: {e}"))
        };
        let resp = http_request(
            addr,
            "POST",
            "/campaigns",
            &[("X-Client", client)],
            spec.as_bytes(),
            QUICK,
        )
        .map_err(|e| format!("submit: {e}"))?;
        job.submit_s = t0.elapsed().as_secs_f64();
        if resp.status != 201 {
            return Err(format!(
                "submit answered {}: {}",
                resp.status,
                resp.text().trim()
            ));
        }
        let text = resp.text();
        let id: u64 = text
            .trim()
            .strip_prefix("id ")
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("unexpected submit response {text:?}"))?;
        let t1 = Instant::now();
        get(&format!("/campaigns/{id}/results"), WAIT)?;
        job.results_s = t1.elapsed().as_secs_f64();
        let status = get(&format!("/campaigns/{id}"), QUICK)?.text();
        let report = get(&format!("/campaigns/{id}/report"), QUICK)?;
        job.latency_s = t0.elapsed().as_secs_f64();
        if !status.lines().any(|l| l == "state completed") || report.status != 200 {
            return Err(format!(
                "job {id} did not complete: {}",
                status.replace('\n', " ")
            ));
        }
        job.report = Some(report.text());
        if traced {
            job.spans = Some(get(&format!("/campaigns/{id}/spans"), QUICK)?.text());
            let t2 = Instant::now();
            get("/healthz", QUICK)?;
            job.healthz_s = t2.elapsed().as_secs_f64();
        }
        Ok(())
    })();
    job.error = result.err();
    job
}

/// A `divd` process on a fresh data directory.
struct Server {
    child: Child,
    addr: SocketAddr,
}

impl Server {
    /// Spawns `divd` and waits for its first `200` from `/healthz`;
    /// returns the server and the seconds that took.
    fn spawn(env: &Env, data: &Path) -> Result<(Server, f64), String> {
        let t0 = Instant::now();
        let child = Command::new(&env.divd)
            .arg("--data")
            .arg(data)
            .args(["--workers", "2"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start divd: {e}"))?;
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let endpoint = data.join("endpoint");
        while t0.elapsed() < QUICK {
            if let Some(addr) = std::fs::read_to_string(&endpoint)
                .ok()
                .and_then(|s| s.trim().parse().ok())
            {
                server.addr = addr;
                let healthy = http_request(addr, "GET", "/healthz", &[], &[], QUICK)
                    .is_ok_and(|r| r.status == 200);
                if healthy {
                    return Ok((server, t0.elapsed().as_secs_f64()));
                }
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        server.stop();
        Err("divd did not become healthy".to_string())
    }

    /// Drains the daemon (`POST /admin/drain`, as SIGTERM would) and
    /// waits for it to exit; kills it if it does not.
    fn stop(mut self) {
        let _ = http_request(self.addr, "POST", "/admin/drain", &[], &[], QUICK);
        let t0 = Instant::now();
        while t0.elapsed() < QUICK {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The `divd_sweep` workload.
pub fn run_sweep(env: &Env, opts: &Options) -> Outcome {
    let mut out = Outcome::default();
    if !opts.traced {
        let mut walls = Vec::new();
        for k in 0..SETUP_PROBES {
            match Server::spawn(env, &env.fresh_dir(&format!("divd-setup-{k}"))) {
                Ok((server, ready_s)) => {
                    walls.push(ready_s);
                    server.stop();
                }
                Err(e) => out.problem(e),
            }
        }
        out.metrics.set(
            "setup_s",
            if walls.is_empty() {
                f64::NAN
            } else {
                median(&walls)
            },
        );
    }

    // The end-to-end sweep runs against the divd binary; a traced run
    // gives it half the window and sweeps the same jobs through an
    // in-process daemon for the other half.
    let share = if opts.traced { 0.5 } else { 1.0 };
    let (server, _) = match Server::spawn(env, &env.fresh_dir("divd-e2e")) {
        Ok(s) => s,
        Err(e) => {
            out.problem(e);
            return out;
        }
    };
    let e2e = sweep(server.addr, opts, false, opts.deadline(share), u64::MAX);
    let rss = vm_hwm_mb(server.child.id()).unwrap_or(f64::NAN);
    server.stop();
    account(&e2e, &mut out);

    let layers = Layers::default();
    if opts.traced {
        let traced = traced_sweep(env, opts, opts.deadline(share), u64::MAX, &mut out);
        // Job j has the same spec in both halves, so the same report.
        let mismatched = traced
            .jobs
            .iter()
            .filter(|t| {
                let e = e2e.jobs.iter().find(|e| e.j == t.j);
                e.is_some_and(|e| e.report.is_some() && t.report.is_some() && e.report != t.report)
            })
            .count();
        if mismatched > 0 {
            out.problem(format!(
                "{mismatched} reports differ between divd and in-process divd"
            ));
        }
        let lat = |s: &Sweep| median(&s.jobs.iter().map(|j| j.latency_s).collect::<Vec<_>>());
        if !traced.jobs.is_empty() && !e2e.jobs.is_empty() {
            out.metrics
                .set("trace.overhead_frac", lat(&traced) / lat(&e2e) - 1.0);
        }
        out.metrics.set("shard.scaling_t2", 0.0);
        recompute(&traced.jobs, opts, &layers, &mut out);
        microloops(env, &mut out);
    } else {
        let done: Vec<&Job> = e2e.jobs.iter().filter(|j| j.error.is_none()).collect();
        let steps: u64 = done
            .iter()
            .filter_map(|j| Summary::parse(j.report.as_deref()?).ok())
            .map(|s| s.steps)
            .sum();
        if !done.is_empty() {
            let latencies: Vec<f64> = done.iter().map(|j| j.latency_s).collect();
            out.metrics
                .set("job_latency_p50_ms", median(&latencies) * 1e3);
        }
        out.metrics
            .set("jobs_per_s", done.len() as f64 / e2e.wall_s);
        out.metrics.set("steps_per_s", steps as f64 / e2e.wall_s);
        out.metrics.set("peak_rss_mb", rss);
    }
    recompute(&e2e.jobs, opts, &layers, &mut out);
    if opts.traced {
        layers.record(&mut out.metrics);
    }
    out
}

/// Counts attempted and failed jobs.
fn account(s: &Sweep, out: &mut Outcome) {
    out.attempted += s.jobs.len() as u64;
    for job in &s.jobs {
        if let Some(e) = &job.error {
            out.failed += 1;
            out.problem(format!("job {}: {e}", job.j));
        }
    }
}

/// Sweeps through an in-process daemon with span and `/healthz` sampling,
/// records the service-layer metrics, and returns the sweep.
fn traced_sweep(
    env: &Env,
    opts: &Options,
    deadline: Instant,
    max_jobs: u64,
    out: &mut Outcome,
) -> Sweep {
    let data = env.fresh_dir("divd-traced");
    let mut cfg = DaemonConfig::new(&data);
    cfg.workers = 2;
    let daemon = match Daemon::start(cfg) {
        Ok(d) => d,
        Err(e) => {
            out.problem(format!("in-process divd failed to start: {e}"));
            return Sweep {
                jobs: Vec::new(),
                wall_s: 0.0,
            };
        }
    };
    let s = sweep(daemon.local_addr(), opts, true, deadline, max_jobs);
    daemon.drain();
    account(&s, out);

    let ms = |v: Vec<f64>| v.into_iter().map(|x| x * 1e3).collect::<Vec<f64>>();
    let done: Vec<&Job> = s.jobs.iter().filter(|j| j.error.is_none()).collect();
    if done.is_empty() {
        out.problem("traced sweep completed no job");
        return s;
    }
    let healthz = ms(done.iter().map(|j| j.healthz_s).collect());
    let submit = ms(done.iter().map(|j| j.submit_s).collect());
    let latency = ms(done.iter().map(|j| j.latency_s).collect());
    out.metrics.set("http.healthz_ms_p50", median(&healthz));
    // Tails are p95: a traced sweep has a few hundred jobs, so p95 is the
    // highest percentile with at least ten samples beyond it.
    out.metrics.set("http.submit_ms_p50", median(&submit));
    out.metrics
        .set("http.submit_ms_p95", quantile(&submit, 0.95));
    out.metrics
        .set("divd.job_latency_p95_ms", quantile(&latency, 0.95));

    let (mut queued, mut running, mut write, mut overhead) = (vec![], vec![], vec![], vec![]);
    for job in &done {
        let spans = job
            .spans
            .as_deref()
            .and_then(|t| div_core::parse_spans(t).ok())
            .unwrap_or_default();
        let dur_ms = |name: &str| {
            spans
                .iter()
                .find(|e| e.name == name)
                .map(|e| e.dur_us as f64 / 1e3)
        };
        match (dur_ms("queued"), dur_ms("running"), dur_ms("report-write")) {
            (Some(q), Some(r), Some(w)) => {
                queued.push(q);
                running.push(r);
                write.push(w);
                overhead.push(job.results_s * 1e3 - r);
            }
            _ => out.problem(format!("job {}: span trace incomplete", job.j)),
        }
    }
    if !queued.is_empty() {
        out.metrics.set("divd.queue_wait_ms_p50", median(&queued));
        out.metrics
            .set("divd.queue_wait_ms_p95", quantile(&queued, 0.95));
        out.metrics.set("divd.run_ms_p50", median(&running));
        out.metrics.set("divd.report_write_ms_p50", median(&write));
        out.metrics
            .set("divd.results_overhead_ms_p50", median(&overhead));
    }

    match std::fs::read(data.join("oplog.div")) {
        Ok(bytes) => {
            let replay = Replay::from_bytes(&bytes);
            let jobs = s.jobs.len().max(1) as f64;
            out.metrics
                .set("oplog.frames_per_job", replay.bundles.len() as f64 / jobs);
            out.metrics
                .set("oplog.bytes_per_job", bytes.len() as f64 / jobs);
        }
        Err(e) => out.problem(format!("cannot read the traced oplog: {e}")),
    }
    s
}

/// The service layers in a campaign workload's traced run: a short sweep
/// through an in-process daemon (whose jobs are checked like the full
/// sweep's) and the storage microloops.
pub fn probe(env: &Env, opts: &Options, out: &mut Outcome) {
    let far = Instant::now() + WAIT;
    let s = traced_sweep(env, opts, far, PROBE_JOBS, out);
    // Probe jobs are checked, but must not mix into the campaign's
    // engine-layer samples.
    recompute(&s.jobs, opts, &Layers::default(), out);
    microloops(env, out);
}

/// Every fetched divd report must equal an in-process recomputation of
/// its spec through the same engines and campaign drivers.
fn recompute(jobs: &[Job], opts: &Options, layers: &Layers, out: &mut Outcome) {
    let mut mismatched = Vec::new();
    for job in jobs {
        let Some(report) = &job.report else { continue };
        let spec = match JobSpec::parse(&job_spec(opts.seed, job.j, opts.smoke)) {
            Ok(spec) => spec,
            Err(e) => {
                out.problem(format!("job {}: spec does not parse: {e}", job.j));
                continue;
            }
        };
        let c = Campaign {
            graph: spec.graph,
            init: spec.init,
            scheduler: spec.scheduler,
            engine: spec.engine,
            faults: spec.faults,
            seed: spec.seed,
            trials: spec.trials,
            budget: spec.budget,
            lanes: spec.lanes,
            shards: 0,
            threads: spec.threads,
            checkpoint: None,
            checkpoint_every: spec.checkpoint_every,
        };
        match inproc::run(&c, layers) {
            Ok((text, _)) if &text == report => {}
            Ok(_) => mismatched.push(job.j),
            Err(e) => out.problem(format!("job {}: recomputation failed: {e}", job.j)),
        }
        if let Ok(s) = Summary::parse(report) {
            out.failed += u64::from(s.panicked > 0);
        }
    }
    if !mismatched.is_empty() {
        out.problem(format!(
            "{} divd reports differ from their recomputation (jobs {:?}…)",
            mismatched.len(),
            &mismatched[..mismatched.len().min(5)]
        ));
    }
}

/// Storage-layer microloops on the scratch directory's filesystem:
/// journal commits of one outcome-sized op each (as divd journals every
/// trial) and whole-file atomic replacements of a report-sized file.
fn microloops(env: &Env, out: &mut Outcome) {
    let dir = env.fresh_dir("oplog-microloop");
    let (mut log, _) = match Oplog::open(&dir.join("oplog.div")) {
        Ok(opened) => opened,
        Err(e) => {
            out.problem(format!("cannot open a scratch oplog: {e}"));
            return;
        }
    };
    let op = ["outcome 17 trial 5 converged 3 1450077".to_string()];
    let commits: Vec<f64> = (0..1000)
        .filter_map(|_| {
            let t = Instant::now();
            log.commit(&op).ok()?;
            Some(t.elapsed().as_secs_f64() * 1e6)
        })
        .collect();
    let report = "x".repeat(600);
    let writes: Vec<f64> = (0..200)
        .filter_map(|_| {
            let t = Instant::now();
            atomic_write(&dir.join("report.txt"), report.as_bytes()).ok()?;
            Some(t.elapsed().as_secs_f64() * 1e6)
        })
        .collect();
    if commits.len() < 1000 || writes.len() < 200 {
        out.problem("storage microloop hit I/O errors");
    }
    if !commits.is_empty() && !writes.is_empty() {
        out.metrics.set("oplog.commit_us_p50", median(&commits));
        out.metrics
            .set("oplog.commit_us_p99", quantile(&commits, 0.99));
        out.metrics
            .set("oplog.atomic_write_us_p50", median(&writes));
    }
}
