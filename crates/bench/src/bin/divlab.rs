//! `divlab` — a command-line laboratory for discrete incremental voting.
//!
//! ```text
//! divlab run      --graph SPEC [--init SPEC] [--scheduler edge|vertex]
//!                 [--engine reference|fast|batch|sharded] [--seed N] [--trace]
//!                 [--telemetry PATH] [--sample-every K] [--spans PATH]
//!                 [--faults SPEC] [--trials N] [--budget N]
//!                 [--lanes K] [--shards P] [--threads T]
//!                 [--checkpoint PATH] [--resume] [--stop-after N]
//!                 [--serve ADDR] [--serve-linger SECS]
//! divlab campaign ...same flags as run; forces campaign mode at any --trials
//! divlab stats    --graph SPEC [--init SPEC] [--scheduler edge|vertex]
//!                 [--engine reference|fast|batch|sharded] [--seed N] [--faults SPEC]
//!                 [--budget N] [--sample-every K] [--shards P] [--threads T]
//! divlab compare  --graph SPEC [--init SPEC] [--engine reference|fast|batch|sharded]
//!                 [--seed N] [--trials N] [--faults SPEC] [--budget N]
//!                 [--lanes K] [--shards P] [--threads T]
//!                 [--checkpoint PATH] [--resume] [--serve ADDR] [--serve-linger SECS]
//! divlab spectral --graph SPEC [--init SPEC] [--seed N]
//! divlab graph6   --graph SPEC [--init SPEC] [--seed N]
//! divlab analyze  --traces PATH [--out DIR]
//! divlab submit   --server HOST:PORT ...campaign spec flags (client mode for divd)
//! ```
//!
//! Each subcommand accepts exactly the flags it reads; any other flag is
//! a usage error naming it.
//!
//! Graph and opinion spec grammars are documented in
//! [`div_bench::spec`]; e.g. `--graph regular:200:8 --init uniform:5`.
//! Fault specs follow `div_core::FaultPlan::parse`, e.g.
//! `--faults drop:0.1,noise:0.05:1,stubborn:3`.
//!
//! With `--trials N` (N > 1) or any checkpoint flag, `run` executes a
//! resilient Monte-Carlo campaign: panicking trials are retried with
//! fresh deterministic sub-seeds and reported in an outcome taxonomy,
//! and `--checkpoint PATH` + `--resume` make a killed campaign resume
//! exactly (byte-identical report, including its aggregated metrics
//! block).  `divlab campaign` is the same command with campaign mode
//! forced on, so single-trial smoke campaigns don't need `--trials 2`.
//!
//! Every engine runs through the shared executors and campaign dispatch
//! of [`div_bench::trial`], the same code `divd` runs.
//!
//! `--engine batch` runs campaigns through the lockstep batch engine
//! ([`div_core::BatchProcess`]): trials are grouped into `--lanes K`
//! lanes (default 8) stepped together over one compiled graph, with
//! groups sharded across `--threads T` workers (default: available
//! parallelism).  Every lane is bit-exact against the scalar fast
//! engine for the same seed, so batch and fast campaigns print
//! byte-identical reports — including under fault plans and on resumed
//! checkpoints.
//!
//! `--telemetry PATH` streams the single run's trajectory through the
//! engines' observer hooks to a JSONL file (or CSV when the path ends in
//! `.csv`): `W(t)` samples every `--sample-every` steps (default 64),
//! exact phase-transition events, fault counters, wall-clock timing.  In
//! campaign mode `PATH` is a directory (created if needed) receiving one
//! `trial-<seed>.jsonl` file per trial — the trace corpora that
//! `divlab analyze` consumes.  `divlab stats` runs one observed trial
//! into an in-memory recorder and prints the trajectory summary instead.
//! Fault-free batch and sharded runs observe **natively**: the batch
//! engine snapshots every lane on its block lattice (`--sample-every`
//! rounded up to whole blocks; without the flag the engine picks its own
//! low-overhead cadence) and the sharded engine combines its per-shard
//! registers at round boundaries — neither demotes to the scalar engine
//! any more.  Only fault-injected observation still falls back to fast
//! (the batch engine has no faulty observed path; the sharded engine has
//! no fault pipeline), with a uniform warning.
//!
//! `--spans PATH` (campaign mode) additionally records wall-clock
//! lifecycle spans — one per trial execution plus a campaign root — as a
//! Chrome-trace-event JSON array that loads directly into Perfetto; span
//! ids are a deterministic hash of (master seed, trial seed, attempt).
//! `--trace` needs the reference engine's per-step stage log; every entry
//! point (run, campaign, compare, stats) resolves `--trace --engine
//! fast` by warning and falling back to the reference engine.
//!
//! `--serve ADDR` (on `run`, campaigns and `compare`) publishes live
//! progress over HTTP while the command executes: `/metrics` in
//! Prometheus text format, `/progress` as JSON, `/healthz`.  Bind port 0
//! for an ephemeral port; the resolved address is announced on stderr.
//! `--serve-linger SECS` keeps the endpoint up after the command
//! finishes so a final scrape can be compared against the report.
//!
//! `divlab analyze` re-derives the paper's trajectory checks (Lemma 3
//! zero drift, the eq. (5) Azuma envelope, phase steps, the eq. (4)
//! `E[T]`-vs-`k` fit) from a recorded trace corpus, writing markdown and
//! JSON reports under `--out` (default `results/`).
//!
//! Exit codes: `0` clean, `2` usage or IO error, `3` campaign complete
//! but degraded (non-converged outcomes present) or `analyze` checks
//! failed, `4` campaign partial (`--stop-after` hit before the last
//! trial) or telemetry data lost to a latched exporter I/O error.

use div_baselines::{
    run_to_consensus, BestOfK, LoadBalancing, MedianVoting, PullVoting, PushVoting,
};
use div_bench::spec;
use div_bench::trial::{
    exceeds_lane_span, outcome_of, parse_scheduler, publish_faults, run_engine_campaign, Engine,
    Pending, TrialSetup,
};
use div_core::{
    hex_id, init, render_spans, span_id, theory, BatchProcess, CsvExporter, DivProcess,
    EdgeScheduler, FastScheduler, FaultPlan, FaultStats, JsonlExporter, KernelTier, NullObserver,
    Observer, OpinionState, Phase, PhaseEvent, RingRecorder, RunStatus, Scheduler, SpanClock,
    SpanEvent, StageLog, TelemetrySample, VertexScheduler,
};
use div_sim::table::Table;
use div_sim::{
    CampaignConfig, CampaignHooks, CampaignMonitor, MetricsServer, MonitorPhase, TrialCtx,
    TrialOutcome,
};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::collections::HashMap;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::process::exit;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        usage_and_exit();
    };
    if matches!(command.as_str(), "--help" | "-h" | "help") {
        usage_and_exit();
    }
    let result = parse_flags(command, rest).and_then(|opts| match command.as_str() {
        "run" => cmd_run(&opts, false),
        "campaign" => cmd_run(&opts, true),
        "stats" => cmd_stats(&opts),
        "compare" => cmd_compare(&opts),
        "spectral" => cmd_spectral(&opts).map(|()| 0),
        "graph6" => cmd_graph6(&opts).map(|()| 0),
        "analyze" => cmd_analyze(&opts),
        "submit" => cmd_submit(&opts),
        other => Err(format!("unknown command {other:?}")),
    });
    match result {
        Ok(code) => exit(code),
        Err(msg) => {
            eprintln!("divlab: {msg}");
            exit(2);
        }
    }
}

fn usage_and_exit() -> ! {
    eprintln!(
        "usage:\n  divlab run      --graph SPEC [--init SPEC] [--scheduler edge|vertex] [--engine reference|fast|batch|sharded] [--seed N] [--trace]\n                  [--telemetry PATH] [--sample-every K] [--spans PATH] [--faults SPEC] [--trials N] [--budget N] [--lanes K] [--shards P] [--threads T]\n                  [--checkpoint PATH] [--resume] [--stop-after N] [--serve ADDR] [--serve-linger SECS]\n  divlab campaign ...same flags as run (campaign mode forced, even at --trials 1)\n  divlab stats    --graph SPEC [--init SPEC] [--scheduler edge|vertex] [--engine reference|fast|batch|sharded] [--seed N]\n                  [--faults SPEC] [--budget N] [--sample-every K] [--shards P] [--threads T]\n  divlab compare  --graph SPEC [--init SPEC] [--engine reference|fast|batch|sharded] [--seed N] [--trials N] [--faults SPEC] [--budget N]\n                  [--lanes K] [--shards P] [--threads T] [--checkpoint PATH] [--resume] [--serve ADDR] [--serve-linger SECS]\n  divlab spectral --graph SPEC [--seed N]\n  divlab graph6   --graph SPEC [--seed N]\n  divlab analyze  --traces PATH [--out DIR]\n  divlab submit   --server HOST:PORT --graph SPEC [--init SPEC] [--scheduler edge|vertex] [--engine fast|batch|reference]\n                  [--seed N] [--trials N] [--budget N] [--faults SPEC] [--lanes K] [--threads T] [--checkpoint-every K]\n                  [--client NAME] [--timeout SECS] [--detach] [--watch]   (client mode for a divd daemon)\n\ngraph specs:  complete:N path:N cycle:N star:N wheel:N grid:RxC torus:RxC\n              hypercube:D binary-tree:N barbell:H:B lollipop:H:T double-star:L:R\n              circulant:N:s1,s2 multipartite:a,b regular:N:D gnp:N:P ws:N:K:B ba:N:M\ninit specs:   uniform:K spread:K blocks:VxC,VxC,...\nfault specs:  drop:Q noise:P:D stale:P:AGE stubborn:K crash:P:OUTAGE (comma-separated), or none\nengines:      reference (observable baseline), fast (compiled scalar), batch (lockstep lanes;\n              campaigns step --lanes K trials together across --threads T workers, bit-exact vs fast),\n              sharded (--shards P concurrent vertex domains per trial on --threads T std threads;\n              deterministic for fixed seed+P, built for million-vertex single trials)\ntelemetry:    --telemetry out.jsonl streams W(t) samples + phase events (CSV when PATH ends in .csv);\n              in campaign mode PATH is a directory receiving one trial-<seed>.jsonl per trial;\n              batch/sharded engines observe natively (block/round sampling lattice);\n              --spans PATH (campaign) writes Chrome-trace lifecycle spans (load in Perfetto)\nmonitoring:   --serve 127.0.0.1:9100 exposes /metrics (Prometheus), /progress (JSON), /healthz\nanalyze:      divlab analyze --traces DIR re-derives Lemma 3 / eq. (5) / eq. (4) checks offline"
    );
    exit(0);
}

/// Flags that take no value.
const SWITCHES: [&str; 4] = ["trace", "resume", "detach", "watch"];

/// The flags each subcommand reads, space-separated: its parser accepts
/// exactly these.
fn flags_of(command: &str) -> Option<&'static str> {
    Some(match command {
        "run" | "campaign" => {
            "graph init seed scheduler engine trace faults trials budget lanes shards threads \
             telemetry sample-every spans checkpoint resume stop-after serve serve-linger"
        }
        "stats" => {
            "graph init seed scheduler engine trace faults budget sample-every shards threads"
        }
        "compare" => {
            "graph init seed engine trace trials faults budget lanes shards threads checkpoint \
             resume serve serve-linger"
        }
        "spectral" | "graph6" => "graph init seed",
        "analyze" => "traces out",
        "submit" => {
            "server graph init scheduler engine seed trials budget faults lanes threads \
             checkpoint-every client timeout detach watch"
        }
        _ => return None,
    })
}

/// Parses `command`'s `--key value` pairs and bare switches.
///
/// Errors (exit 2) name an unknown command, a flag `command` does not
/// read, a flag missing its value, or a stray argument.
fn parse_flags(command: &str, args: &[String]) -> Result<HashMap<String, String>, String> {
    let known = flags_of(command).ok_or_else(|| format!("unknown command {command:?}"))?;
    let mut out = HashMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let key = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {arg:?}"))?;
        if !known.split_whitespace().any(|k| k == key) {
            return Err(format!("unknown flag --{key} for divlab {command}"));
        }
        let value = if SWITCHES.contains(&key) {
            "1".to_string()
        } else {
            it.next()
                .ok_or_else(|| format!("flag --{key} needs a value"))?
                .clone()
        };
        out.insert(key.to_string(), value);
    }
    Ok(out)
}

/// Parses an optional typed flag, turning parse failures into usage errors.
fn parse_opt<T: std::str::FromStr>(
    opts: &HashMap<String, String>,
    key: &str,
) -> Result<Option<T>, String> {
    opts.get(key)
        .map(|s| s.parse::<T>().map_err(|_| format!("bad --{key}")))
        .transpose()
}

fn setup(opts: &HashMap<String, String>) -> Result<(div_graph::Graph, Vec<i64>, StdRng), String> {
    let seed: u64 = parse_opt(opts, "seed")?.unwrap_or(1);
    let mut rng = StdRng::seed_from_u64(seed);
    let gspec = opts.get("graph").ok_or("missing --graph SPEC")?;
    let graph = spec::parse_graph(gspec, &mut rng)?;
    if !div_graph::algo::is_connected(&graph) {
        return Err(format!(
            "graph {gspec:?} is not connected; voting cannot reach consensus"
        ));
    }
    let ispec = opts.get("init").cloned().unwrap_or("uniform:5".to_string());
    let opinions = spec::parse_opinions(&ispec, graph.num_vertices(), &mut rng)?;
    Ok((graph, opinions, rng))
}

/// Resolves `--engine` against `--trace`, identically for every entry
/// point (run, campaign, compare, stats): `--trace` needs the reference
/// engine's per-step stage log, so fast+trace (and batch+trace) warns on
/// stderr and falls back to the reference engine instead of erroring or
/// silently ignoring the flag.
fn resolve_engine(opts: &HashMap<String, String>) -> Result<Engine, String> {
    let name = opts.map_or_default("engine", Engine::Reference.name());
    let engine = Engine::parse(&name).ok_or_else(|| {
        format!(
            "unknown engine {name:?} (use {})",
            Engine::list(&Engine::ALL)
        )
    })?;
    if engine != Engine::Reference && opts.contains_key("trace") {
        eprintln!(
            "divlab: --trace needs the reference engine (the {engine} engine has no per-step \
             stage log); falling back to --engine {}",
            Engine::Reference
        );
        return Ok(Engine::Reference);
    }
    Ok(engine)
}

/// The one warning every engine demotion site prints: `what` is not
/// supported by `engine`, so the run falls back to the scalar fast
/// engine.  One phrasing for every site keeps the stderr contract
/// greppable; regression tests pin this exact text for the batch and
/// sharded engines.
fn warn_demote(engine: Engine, what: &str) -> Engine {
    eprintln!(
        "divlab: {what} is not supported by the {engine} engine; falling back to --engine {}",
        Engine::Fast
    );
    Engine::Fast
}

/// Demotes the sharded engine to fast when a non-trivial fault plan is
/// configured: the sharded engine has no fault pipeline (faults inject
/// into a single sequential step stream), so the scalar engine runs the
/// trial instead, with a warning.
fn demote_sharded_for_faults(engine: Engine, faults: &FaultPlan) -> Engine {
    if engine == Engine::Sharded && !faults.is_trivial() {
        return warn_demote(engine, "fault injection");
    }
    engine
}

/// Demotes the batch engine to fast for *fault-injected* observation
/// only: the batch engine has no faulty observed path.  Fault-free batch
/// and sharded runs stream telemetry natively through their own
/// `run_observed` loops and are never demoted (the sharded+faults
/// combination is already handled by [`demote_sharded_for_faults`]).
fn demote_faulty_observers(engine: Engine, faults: &FaultPlan, what: &str) -> Engine {
    if engine == Engine::Batch && !faults.is_trivial() {
        return warn_demote(engine, what);
    }
    engine
}

/// Applies the engine knobs to `setup`: the sharded engine's `--shards
/// P` concurrent vertex domains (default 4 — fixed, not machine-derived,
/// so the same command line replays the same trajectory everywhere) and
/// `--threads T` in-trial workers (default 0 = available parallelism;
/// never affects the trajectory), plus the observers' sampling strides.
/// This is where `--shards` is checked against the graph.
fn engine_setup<'a>(
    opts: &HashMap<String, String>,
    engine: Engine,
    setup: TrialSetup<'a>,
) -> Result<TrialSetup<'a>, String> {
    let shards: usize = parse_opt(opts, "shards")?.unwrap_or(4);
    if shards == 0 {
        return Err("--shards must be at least 1".to_string());
    }
    if engine == Engine::Sharded && shards > setup.graph.num_vertices() {
        return Err(format!(
            "--shards {shards} exceeds the graph's {} vertices",
            setup.graph.num_vertices()
        ));
    }
    Ok(TrialSetup {
        shards,
        shard_threads: parse_opt(opts, "threads")?.unwrap_or(0),
        stride: parse_stride(opts)?,
        engine_stride: parse_engine_stride(opts)?,
        ..setup
    })
}

/// The campaign parallelism knobs: `--lanes K` trials stepped per
/// lockstep group (batch engine only, default 8) and `--threads T`
/// campaign worker threads (default 0 = available parallelism; the
/// sharded engine spends them inside each trial instead).
fn parse_batch_knobs(opts: &HashMap<String, String>) -> Result<(usize, usize), String> {
    let lanes: usize = parse_opt(opts, "lanes")?.unwrap_or(8);
    if lanes == 0 {
        return Err("--lanes must be at least 1".to_string());
    }
    let threads: usize = parse_opt(opts, "threads")?.unwrap_or(0);
    Ok((lanes, threads))
}

/// The `--sample-every` stride (default 64), validated.
fn parse_stride(opts: &HashMap<String, String>) -> Result<u64, String> {
    let stride: u64 = parse_opt(opts, "sample-every")?.unwrap_or(64);
    if stride == 0 {
        return Err("--sample-every must be at least 1".to_string());
    }
    Ok(stride)
}

/// `--sample-every` for the batch/sharded engines, where explicitness
/// matters: without the flag these engines use their own low-overhead
/// default lattice (encoded as `0` — whole sample chunks / one sample per
/// round), while an explicit value is rounded up to the engine's block or
/// round granularity.  The scalar engines keep [`parse_stride`]'s
/// historical default of 64.
fn parse_engine_stride(opts: &HashMap<String, String>) -> Result<u64, String> {
    if opts.contains_key("sample-every") {
        parse_stride(opts)
    } else {
        Ok(0)
    }
}

fn print_fault_stats(stats: &FaultStats) {
    println!(
        "faults: delivered={} dropped={} suppressed={} stale={} noisy={} crashes={}",
        stats.delivered,
        stats.dropped,
        stats.suppressed,
        stats.stale_reads,
        stats.noisy,
        stats.crash_events
    );
}

/// A live `--serve` endpoint attached to the command currently running.
struct Serving {
    monitor: Arc<CampaignMonitor>,
    server: MetricsServer,
    linger_secs: u64,
}

impl Serving {
    /// Flushes the command's report, optionally lingers so a final scrape
    /// can be diffed against it, then stops the endpoint.
    fn finish(self) {
        use std::io::Write;
        // Redirected stdout is block-buffered: flush so the report is
        // visible to whoever scrapes during the linger window.
        std::io::stdout().flush().ok();
        std::io::stderr().flush().ok();
        if self.linger_secs > 0 {
            std::thread::sleep(std::time::Duration::from_secs(self.linger_secs));
        }
        self.server.shutdown();
    }
}

/// Binds the `--serve ADDR` endpoint when requested; `None` otherwise.
fn start_serving(opts: &HashMap<String, String>) -> Result<Option<Serving>, String> {
    let Some(addr) = opts.get("serve") else {
        return Ok(None);
    };
    let linger_secs: u64 = parse_opt(opts, "serve-linger")?.unwrap_or(0);
    let monitor = Arc::new(CampaignMonitor::new());
    let server = MetricsServer::bind(addr, Arc::clone(&monitor))
        .map_err(|e| format!("cannot serve metrics on {addr}: {e}"))?;
    eprintln!("divlab: serving metrics on {}", server.local_addr());
    Ok(Some(Serving {
        monitor,
        server,
        linger_secs,
    }))
}

/// Observer adapter that mirrors two-adjacent phase crossings into the
/// live monitor's phase histogram and counts emitted telemetry samples
/// (`div_telemetry_samples_total`).  Consensus steps are deliberately not
/// forwarded: `record_outcome` already feeds the consensus histogram, so
/// forwarding here would double-count converged trials.
struct PhaseToMonitor<'a>(Option<&'a CampaignMonitor>);

impl Observer for PhaseToMonitor<'_> {
    fn on_sample(&mut self, _sample: &TelemetrySample) {
        if let Some(m) = self.0 {
            m.add_telemetry_samples(1);
        }
    }

    fn on_phase(&mut self, event: &PhaseEvent) {
        if let (Some(m), Phase::TwoAdjacent) = (self.0, event.phase) {
            m.record_phase_step(MonitorPhase::TwoAdjacent, event.step);
        }
    }
}

/// The outcome-class label and step count a trial outcome carries
/// (panicked trials ran no countable steps).
fn outcome_facts(outcome: &TrialOutcome) -> (&'static str, u64) {
    match outcome {
        TrialOutcome::Converged { steps, .. } => ("converged", *steps),
        TrialOutcome::TwoAdjacent { steps, .. } => ("two_adjacent", *steps),
        TrialOutcome::Timeout { steps } => ("timeout", *steps),
        TrialOutcome::Panicked { .. } => ("panicked", 0),
    }
}

/// Collects Chrome-trace lifecycle spans for a campaign (`--spans PATH`):
/// one `ph:"X"` complete event per trial execution plus a campaign root,
/// loadable directly into Perfetto.  Span ids are a deterministic hash of
/// (master seed, trial seed, attempt); timestamps are wall-clock
/// microseconds from a run-local epoch and live outside the
/// deterministic report.
struct SpanSink {
    path: PathBuf,
    master: u64,
    clock: SpanClock,
    events: Mutex<Vec<SpanEvent>>,
}

impl SpanSink {
    fn new(path: PathBuf, master: u64) -> SpanSink {
        SpanSink {
            path,
            master,
            clock: SpanClock::new(),
            events: Mutex::new(Vec::new()),
        }
    }

    /// Stamps one trial-execution span; `start_us` was read from this
    /// sink's clock just before the trial (or its lockstep group) ran.
    fn record_trial(
        &self,
        ctx: &div_sim::TrialCtx,
        engine: &str,
        outcome: &TrialOutcome,
        start_us: u64,
    ) {
        let dur = self.clock.now_us().saturating_sub(start_us);
        let (class, steps) = outcome_facts(outcome);
        let ev = SpanEvent::complete("trial", "campaign", start_us, dur, 1, ctx.trial as u64 + 1)
            .arg_text("id", &hex_id(span_id(self.master, ctx.seed, ctx.attempt)))
            .arg_int("trial", ctx.trial as i64)
            .arg_int("attempt", i64::from(ctx.attempt))
            .arg_text("seed", &format!("{:020}", ctx.seed))
            .arg_text("engine", engine)
            .arg_text("outcome", class)
            .arg_int("steps", i64::try_from(steps).unwrap_or(i64::MAX));
        self.events.lock().unwrap().push(ev);
    }

    /// Prepends the campaign root span and atomically writes the JSON
    /// array; `Err` is span data loss (the campaign itself is fine).
    fn finish(self, engine: &str, trials: usize) -> Result<(), String> {
        let total = self.clock.now_us();
        let mut events = self.events.into_inner().unwrap();
        // Worker threads race to push; order by start time (then trial
        // row) so reruns of a single-threaded campaign are stable.
        events.sort_by_key(|e| (e.ts_us, e.tid));
        let root = SpanEvent::complete("campaign", "campaign", 0, total, 1, 0)
            .arg_text("engine", engine)
            .arg_int("trials", i64::try_from(trials).unwrap_or(i64::MAX));
        events.insert(0, root);
        div_oplog::atomic_write(&self.path, render_spans(&events).as_bytes())
            .map_err(|e| format!("span write to {} failed: {e}", self.path.display()))
    }
}

fn cmd_run(opts: &HashMap<String, String>, force_campaign: bool) -> Result<i32, String> {
    let serving = start_serving(opts)?;
    let result = cmd_run_inner(opts, serving.as_ref().map(|s| &*s.monitor), force_campaign);
    if let Some(s) = serving {
        s.finish();
    }
    result
}

fn cmd_run_inner(
    opts: &HashMap<String, String>,
    monitor: Option<&CampaignMonitor>,
    force_campaign: bool,
) -> Result<i32, String> {
    let (graph, opinions, mut rng) = setup(opts)?;
    let scheduler = opts.map_or_default("scheduler", "edge");
    let kind = parse_scheduler(&scheduler)?;
    let c = match kind {
        FastScheduler::Vertex => init::degree_weighted_average(&graph, &opinions),
        _ => init::average(&opinions),
    };
    let pred = theory::win_prediction(c);
    println!("{graph}; initial average c = {c:.4}");
    println!(
        "Theorem 2 prediction: {} w.p. {:.3}, {} w.p. {:.3}",
        pred.lower, pred.p_lower, pred.upper, pred.p_upper
    );

    let faults_spec = opts.map_or_default("faults", "none");
    let faults = FaultPlan::parse(&faults_spec)?;
    let engine = demote_sharded_for_faults(resolve_engine(opts)?, &faults);
    let trials: usize = parse_opt(opts, "trials")?.unwrap_or(1);
    if trials == 0 {
        return Err("--trials must be at least 1".to_string());
    }
    let campaign_mode = force_campaign
        || trials > 1
        || opts.contains_key("checkpoint")
        || opts.contains_key("resume")
        || opts.contains_key("stop-after");
    // Fault plans can obstruct consensus entirely, so faulty and campaign
    // runs default to a finite watchdog budget instead of u64::MAX.
    let budget: u64 =
        parse_opt(opts, "budget")?.unwrap_or(if faults.is_trivial() && !campaign_mode {
            u64::MAX
        } else {
            1_000_000_000
        });
    // Validate the plan against this instance up front (e.g. more stubborn
    // vertices than the graph has).
    faults.session(&opinions).map_err(|e| e.to_string())?;
    let setup = engine_setup(
        opts,
        engine,
        TrialSetup {
            monitor,
            ..TrialSetup::new(&graph, &opinions, kind, &faults)
        },
    )?;

    let telemetry = opts.get("telemetry").map(PathBuf::from);
    if campaign_mode {
        let telemetry_dir = match telemetry {
            Some(path) if path.is_file() => {
                return Err(format!(
                    "--telemetry {} exists as a regular file; campaign mode writes per-trial \
                     files into a directory",
                    path.display()
                ));
            }
            Some(path) => {
                std::fs::create_dir_all(&path).map_err(|e| {
                    format!("cannot create telemetry directory {}: {e}", path.display())
                })?;
                Some(path)
            }
            None => None,
        };
        return run_campaign_cmd(
            opts,
            &setup,
            engine,
            trials,
            budget,
            telemetry_dir.as_deref(),
        );
    }
    if let Some(m) = monitor {
        m.set_expected(1);
        m.trial_started();
    }
    if let Some(path) = telemetry {
        if opts.contains_key("trace") {
            return Err(
                "--trace and --telemetry are mutually exclusive (trace prints the reference \
                 engine's stage log; telemetry streams observer events)"
                    .to_string(),
            );
        }
        let engine = demote_faulty_observers(engine, &faults, "fault-injected telemetry");
        let (outcome, label, telemetry_err) =
            run_telemetry_export(&setup, engine, &scheduler, budget, &mut rng, &path)?;
        let code = finish_single_run(outcome, &label, monitor)?;
        if let Some(err) = telemetry_err {
            // The run itself finished, but its exported trajectory is
            // incomplete on disk: that is data loss, not a usage error.
            eprintln!("divlab: {err}");
            return Ok(4);
        }
        return Ok(code);
    }
    if engine != Engine::Reference {
        let (outcome, label) = single_run(
            &setup,
            engine,
            &scheduler,
            budget,
            &mut rng,
            &mut NullObserver,
        )?;
        return finish_single_run(outcome, &label, monitor);
    }

    // The unobserved reference run also records the stage log behind the
    // elimination order and `--trace`.
    fn reference_single<S: Scheduler>(
        graph: &div_graph::Graph,
        opinions: &[i64],
        scheduler: S,
        faults: &FaultPlan,
        budget: u64,
        rng: &mut StdRng,
    ) -> Result<(RunStatus, StageLog, FaultStats, bool, i64, i64), String> {
        let mut p =
            DivProcess::new(graph, opinions.to_vec(), scheduler).map_err(|e| e.to_string())?;
        let mut log = StageLog::new(p.state());
        let mut session = faults.session(opinions).map_err(|e| e.to_string())?;
        let status = p.run_faulty_until(
            budget,
            &mut session,
            rng,
            |s: &OpinionState| s.is_consensus(),
            |ev, st| log.observe(ev, st),
        );
        let s = p.state();
        Ok((
            status,
            log,
            *session.stats(),
            s.is_two_adjacent(),
            s.min_opinion(),
            s.max_opinion(),
        ))
    }
    let (status, log, stats, two_adjacent, low, high) = if scheduler == "edge" {
        reference_single(
            &graph,
            &opinions,
            EdgeScheduler::new(),
            &faults,
            budget,
            &mut rng,
        )?
    } else {
        reference_single(
            &graph,
            &opinions,
            VertexScheduler::new(),
            &faults,
            budget,
            &mut rng,
        )?
    };
    if !faults.is_trivial() {
        print_fault_stats(&stats);
        publish_faults(monitor, &stats);
    }
    let code = finish_single_run(
        outcome_of(status, two_adjacent, low, high),
        &format!("{scheduler} scheduler"),
        monitor,
    )?;
    if code == 0 {
        println!("elimination order: {:?}", log.elimination_order());
        if opts.contains_key("trace") {
            println!("trace: {}", log.arrow_notation());
        }
    }
    Ok(code)
}

/// Runs one single (non-campaign) trial on `engine`, watched by `obs`,
/// and prints its fault counters.  The trial draws from the command's
/// own RNG stream (the reference engine directly, the others through one
/// derived seed), so observing a run never changes its verdict, and a
/// one-lane batch run replays the fast engine's run exactly.  Returns the
/// outcome with the verdict line's label.
fn single_run<O: Observer>(
    setup: &TrialSetup<'_>,
    engine: Engine,
    scheduler: &str,
    budget: u64,
    rng: &mut StdRng,
    obs: &mut O,
) -> Result<(TrialOutcome, String), String> {
    // The engines' own constructor check, as a usage error rather than a
    // panic inside the executor.
    OpinionState::new(setup.graph, setup.opinions.to_vec()).map_err(|e| e.to_string())?;
    let wide = engine == Engine::Batch && exceeds_lane_span(setup.opinions);
    if wide {
        // Wider than the u16 lane columns: the scalar fast engine replays
        // the lane's exact trajectory from the lane's own seed.
        eprintln!(
            "divlab: initial span exceeds the batch engine's {} lane limit; \
             falling back to --engine {} (same seed, same outcome)",
            BatchProcess::LANE_SPAN_LIMIT,
            Engine::Fast
        );
    }
    let run = if engine == Engine::Reference {
        setup.reference(budget, rng, obs)
    } else {
        let ctx = TrialCtx {
            trial: 0,
            seed: rng.next_u64(),
            attempt: 0,
            step_budget: budget,
        };
        setup
            .run(engine, &[ctx], std::slice::from_mut(obs))
            .remove(0)
    };
    if let Some(stats) = &run.faults {
        print_fault_stats(stats);
    }
    let label = match engine {
        Engine::Reference => format!("{scheduler} scheduler"),
        Engine::Sharded => format!(
            "{scheduler} scheduler, {engine} engine, {} shards",
            setup.shards
        ),
        _ if wide => format!("{scheduler} scheduler, {engine} engine (scalar fallback)"),
        _ => format!("{scheduler} scheduler, {engine} engine"),
    };
    Ok((run.outcome, label))
}

/// Prints the single-run verdict and picks the exit code (0 clean,
/// 3 degraded), publishing the outcome to the live monitor when one is
/// attached.
fn finish_single_run(
    outcome: TrialOutcome,
    label: &str,
    monitor: Option<&CampaignMonitor>,
) -> Result<i32, String> {
    if let Some(m) = monitor {
        // record_outcome also bumps `finished` (publication ordering lives
        // in the monitor, not here).
        m.record_outcome(&outcome);
    }
    match outcome {
        TrialOutcome::Converged { winner, steps } => {
            println!("consensus on {winner} after {steps} steps ({label})");
            Ok(0)
        }
        TrialOutcome::TwoAdjacent { low, high, steps } => {
            println!("degraded: stuck between {low} and {high} after {steps} steps ({label})");
            Ok(3)
        }
        TrialOutcome::Timeout { steps } => {
            println!("degraded: no consensus within {steps} steps ({label})");
            Ok(3)
        }
        TrialOutcome::Panicked { .. } => unreachable!("single runs propagate panics"),
    }
}

/// The `run` subcommand's campaign mode: N resilient trials with the
/// configured fault plan, optional crash-safe checkpointing, optional
/// per-trial telemetry export, lifecycle spans and live monitoring.
fn run_campaign_cmd(
    opts: &HashMap<String, String>,
    setup: &TrialSetup<'_>,
    engine: Engine,
    trials: usize,
    budget: u64,
    telemetry_dir: Option<&Path>,
) -> Result<i32, String> {
    // Fault-free batch/sharded campaigns keep their native engines under
    // `--telemetry DIR`: lanes snapshot on the block lattice, shards
    // combine at round boundaries.  Only fault-injected batch telemetry
    // still demotes (the batch engine has no faulty observed path).
    let engine = if telemetry_dir.is_some() {
        demote_faulty_observers(engine, setup.faults, "fault-injected per-trial telemetry")
    } else {
        engine
    };
    if engine == Engine::Batch && exceeds_lane_span(setup.opinions) {
        // The lockstep groups cannot hold this span in their u16 lane
        // columns; the executor runs every group per lane on the scalar
        // engine (identical outcomes per seed) — warn once up front.
        eprintln!(
            "divlab: initial span exceeds the batch engine's {} lane limit; lane groups \
             will run per-lane on the scalar fast engine (same seeds, same outcomes)",
            BatchProcess::LANE_SPAN_LIMIT
        );
    }
    let (lanes, threads) = parse_batch_knobs(opts)?;
    let master: u64 = parse_opt(opts, "seed")?.unwrap_or(1);
    let mut cfg = CampaignConfig::new(trials, master);
    cfg.step_budget = budget;
    cfg.checkpoint = opts.get("checkpoint").map(PathBuf::from);
    cfg.resume = opts.contains_key("resume");
    cfg.stop_after = parse_opt(opts, "stop-after")?;
    cfg.threads = threads;
    if cfg.resume && cfg.checkpoint.is_none() {
        return Err("--resume needs --checkpoint PATH".to_string());
    }
    let gspec = opts.map_or_default("graph", "");
    let ispec = opts.map_or_default("init", "uniform:5");
    let scheduler = opts.map_or_default("scheduler", "edge");
    let faults_spec = opts.map_or_default("faults", "none");
    cfg.tag = format!("run {gspec} {ispec} {scheduler} {engine} {faults_spec} {budget}");

    // Live scrapes can identify what is running before the first trial
    // finishes (`div_engine_info{engine,kernel_tier}`).
    let monitor = setup.monitor;
    if let Some(m) = monitor {
        m.set_engine_info(engine.name(), KernelTier::active().name());
    }
    let spans = opts
        .get("spans")
        .map(|p| SpanSink::new(PathBuf::from(p), master));

    // Telemetry export failures (file creation, latched write errors) must
    // not kill the campaign — the trial result is still sound — but they
    // are data loss and surface as exit code 4 at the end.
    let telemetry_errors = AtomicU64::new(0);
    let around = |p: Pending<'_>| {
        let start_us = spans.as_ref().map(|s| s.clock.now_us());
        let outcomes = match telemetry_dir {
            Some(dir) => run_traced(&p, dir, monitor, &telemetry_errors),
            // Sharded trials relay their round-boundary samples to a live
            // monitor even without a trace directory: one O(P) combine
            // per round is cheap next to the round itself.
            None if monitor.is_some() && p.engine == Engine::Sharded => {
                p.run(&mut [PhaseToMonitor(monitor)])
            }
            None => p.run_plain(),
        };
        if let (Some(sink), Some(t0)) = (&spans, start_us) {
            // Lanes of a lockstep group share its execution interval
            // (they really did run together).
            for (ctx, outcome) in p.ctxs.iter().zip(&outcomes) {
                sink.record_trial(ctx, p.engine.name(), outcome, t0);
            }
        }
        outcomes
    };
    let hooks = CampaignHooks {
        monitor,
        ..CampaignHooks::default()
    };
    let report = run_engine_campaign(engine, setup, &cfg, lanes, hooks, Some(&around))
        .map_err(|e| e.to_string())?;

    let mut span_lost = false;
    if let Some(sink) = spans {
        let path = sink.path.clone();
        match sink.finish(engine.name(), trials) {
            Ok(()) => eprintln!("divlab: lifecycle spans written to {}", path.display()),
            Err(e) => {
                span_lost = true;
                eprintln!("divlab: {e}");
            }
        }
    }

    // Infra chatter goes to stderr: stdout stays a pure function of
    // (master seed, outcomes) so killed-and-resumed campaigns diff clean.
    if let Some(path) = &cfg.checkpoint {
        eprintln!("divlab: checkpoint manifest at {}", path.display());
        if report.resumed > 0 {
            eprintln!(
                "divlab: resumed {} completed trials from checkpoint",
                report.resumed
            );
        }
    }
    if let Some(dir) = telemetry_dir {
        let cadence = match engine {
            Engine::Batch => "block lattice".to_string(),
            Engine::Sharded => "round lattice".to_string(),
            _ => format!("stride {}", setup.stride),
        };
        eprintln!(
            "divlab: per-trial telemetry (jsonl, {cadence}) written under {}",
            dir.display()
        );
    }
    print!("{}", report.render());
    let lost = telemetry_errors.load(Ordering::SeqCst);
    if !report.is_complete() {
        eprintln!(
            "divlab: campaign partial ({}/{} trials complete)",
            report.completed(),
            report.trials
        );
        Ok(4)
    } else if lost > 0 || span_lost {
        if lost > 0 {
            eprintln!("divlab: telemetry lost for {lost} trial(s) (exporter I/O errors above)");
        }
        Ok(4)
    } else if report.is_degraded() {
        eprintln!("divlab: campaign complete but degraded (non-converged outcomes present)");
        Ok(3)
    } else {
        Ok(0)
    }
}

/// Runs a campaign execution with its trajectories streamed to one
/// `DIR/trial-<seed>.jsonl` file per trial (plus the live-monitor relay).
/// Seeds are per-attempt, so a retried trial writes a fresh file instead
/// of clobbering the panicked attempt's.
///
/// If any trial's file cannot be created the whole execution runs
/// unobserved instead: lockstep lane observers must be homogeneous, and
/// half-observed groups would be worse than an honest data-loss exit
/// code.  The files already created are removed so the trace corpus
/// holds only complete trajectories.
fn run_traced(
    p: &Pending<'_>,
    dir: &Path,
    monitor: Option<&CampaignMonitor>,
    errors: &AtomicU64,
) -> Vec<TrialOutcome> {
    let mut observers = Vec::with_capacity(p.ctxs.len());
    let mut paths = Vec::with_capacity(p.ctxs.len());
    for ctx in p.ctxs {
        // Zero-padded decimal seeds sort lexicographically == numerically,
        // so directory listings and analyze reports come out in a stable
        // order.
        let path = dir.join(format!("trial-{:020}.jsonl", ctx.seed));
        match std::fs::File::create(&path) {
            Ok(f) => {
                observers.push((
                    JsonlExporter::new(BufWriter::new(f)),
                    PhaseToMonitor(monitor),
                ));
                paths.push(path);
            }
            Err(e) => {
                errors.fetch_add(1, Ordering::SeqCst);
                eprintln!(
                    "divlab: cannot create telemetry file {}: {e}; running {} unobserved",
                    path.display(),
                    if p.ctxs.len() > 1 { "group" } else { "trial" }
                );
                drop(observers);
                for created in &paths {
                    let _ = std::fs::remove_file(created);
                }
                return p.run_plain();
            }
        }
    }
    let outcomes = p.run(&mut observers);
    for (obs, path) in observers.into_iter().zip(paths) {
        if let Err(e) = obs.0.finish() {
            errors.fetch_add(1, Ordering::SeqCst);
            eprintln!("divlab: telemetry write to {} failed: {e}", path.display());
        }
    }
    outcomes
}

/// The `--telemetry PATH` mode of `divlab run`: streams the observed
/// single run to a JSONL file, or CSV when the path ends in `.csv`.
///
/// A file that cannot be created is a usage/IO error (`Err`, exit 2).  A
/// *latched* exporter write error is different: the run itself completed,
/// so the outcome and label come back normally with the error text in the
/// third slot, and the caller maps it to exit code 4 (data loss) after
/// printing the verdict.
fn run_telemetry_export(
    setup: &TrialSetup<'_>,
    engine: Engine,
    scheduler: &str,
    budget: u64,
    rng: &mut StdRng,
    path: &Path,
) -> Result<(TrialOutcome, String, Option<String>), String> {
    let file = std::fs::File::create(path)
        .map_err(|e| format!("cannot create telemetry file {}: {e}", path.display()))?;
    let out = BufWriter::new(file);
    let csv = path.extension().and_then(|e| e.to_str()) == Some("csv");
    let relay = PhaseToMonitor(setup.monitor);
    let ((outcome, label), write_err) = if csv {
        let mut obs = (CsvExporter::new(out), relay);
        let r = single_run(setup, engine, scheduler, budget, rng, &mut obs)?;
        (r, obs.0.finish().err())
    } else {
        let mut obs = (JsonlExporter::new(out), relay);
        let r = single_run(setup, engine, scheduler, budget, rng, &mut obs)?;
        (r, obs.0.finish().err())
    };
    let telemetry_err =
        write_err.map(|e| format!("telemetry write to {} failed: {e}", path.display()));
    if telemetry_err.is_none() {
        eprintln!(
            "divlab: telemetry ({}, stride {}) written to {}",
            if csv { "csv" } else { "jsonl" },
            setup.stride,
            path.display()
        );
    }
    Ok((outcome, label, telemetry_err))
}

/// The `stats` subcommand: one observed run into an in-memory recorder,
/// summarised as the trajectory-level view of the run (phases, `W(t)`
/// excursion, sampling coverage).
fn cmd_stats(opts: &HashMap<String, String>) -> Result<i32, String> {
    let (graph, opinions, mut rng) = setup(opts)?;
    let scheduler = opts.map_or_default("scheduler", "edge");
    let kind = parse_scheduler(&scheduler)?;
    let faults_spec = opts.map_or_default("faults", "none");
    let faults = FaultPlan::parse(&faults_spec)?;
    // Fault-free batch/sharded stats run natively on their own engines;
    // only fault-injected observation falls back to fast (uniform
    // warning in both cases — no more silent demotion).
    let engine = demote_sharded_for_faults(resolve_engine(opts)?, &faults);
    let engine = demote_faulty_observers(engine, &faults, "fault-injected observation");
    faults.session(&opinions).map_err(|e| e.to_string())?;
    let budget: u64 = parse_opt(opts, "budget")?.unwrap_or(if faults.is_trivial() {
        u64::MAX
    } else {
        1_000_000_000
    });
    let setup = engine_setup(
        opts,
        engine,
        TrialSetup::new(&graph, &opinions, kind, &faults),
    )?;
    let stride = setup.stride;
    println!("{graph}; c = {:.4}", init::average(&opinions));

    let mut rec = RingRecorder::new(4096);
    let (outcome, label) = single_run(&setup, engine, &scheduler, budget, &mut rng, &mut rec)?;
    let code = finish_single_run(outcome, &label, None)?;

    let first = rec.samples().first().expect("observed runs always start");
    let last = rec.final_sample().expect("observed runs always finish");
    match (rec.two_adjacent_step(), rec.consensus_step()) {
        (Some(tau), Some(cons)) => println!("phases: two-adjacent @ {tau}, consensus @ {cons}"),
        (Some(tau), None) => println!("phases: two-adjacent @ {tau}, consensus not reached"),
        (None, Some(cons)) => println!("phases: consensus @ {cons}"),
        (None, None) => println!("phases: none crossed"),
    }
    println!(
        "samples: {} retained (stride {stride}, decimation x{})",
        rec.samples().len(),
        rec.decimation_factor()
    );
    println!(
        "S(t): start {} final {}, max |S(t)-S(0)| = {}",
        first.sum,
        last.sum,
        rec.max_sum_deviation()
    );
    println!(
        "Z(t): start {:.3} final {:.3}",
        first.z_weight, last.z_weight
    );
    println!(
        "opinions: distinct {} -> {}, range [{}, {}] -> [{}, {}]",
        first.distinct, last.distinct, first.min, first.max, last.min, last.max
    );
    // Fault counters were already printed by the observed run itself.
    // Wall-clock chatter goes to stderr: stdout stays deterministic.
    if let Some(elapsed) = rec.elapsed() {
        eprintln!("divlab: observed run took {elapsed:?}");
    }
    Ok(code)
}

fn cmd_compare(opts: &HashMap<String, String>) -> Result<i32, String> {
    let serving = start_serving(opts)?;
    let result = cmd_compare_inner(opts, serving.as_ref().map(|s| &*s.monitor));
    if let Some(s) = serving {
        s.finish();
    }
    result
}

/// `compare` proper.  The live monitor (when attached) tracks the div
/// campaign row; baseline rows run unmonitored so the scrape's expected /
/// outcome counts describe exactly one campaign.
fn cmd_compare_inner(
    opts: &HashMap<String, String>,
    monitor: Option<&CampaignMonitor>,
) -> Result<i32, String> {
    let (graph, opinions, _) = setup(opts)?;
    let trials: usize = parse_opt(opts, "trials")?.unwrap_or(50);
    let seed: u64 = opts.get("seed").and_then(|s| s.parse().ok()).unwrap_or(1);
    let faults_spec = opts.map_or_default("faults", "none");
    let faults = FaultPlan::parse(&faults_spec)?;
    let engine = demote_sharded_for_faults(resolve_engine(opts)?, &faults);
    faults.session(&opinions).map_err(|e| e.to_string())?;
    let budget: u64 = parse_opt(opts, "budget")?.unwrap_or(if faults.is_trivial() {
        u64::MAX
    } else {
        1_000_000_000
    });
    let c = init::average(&opinions);
    println!(
        "{graph}; c = {c:.3}; mode/median of the initial opinions vs each process, {trials} trials"
    );
    if !faults.is_trivial() {
        println!("fault plan {faults_spec} applies to the div row only (baselines run clean)");
    }

    let mut table = Table::new(&["process", "winner histogram (opinion: runs)"]);

    // The div row runs as a resilient campaign: fault injection, panic
    // isolation, optional checkpoint/resume.  `seed ^ 3` keeps the
    // per-trial seeds identical to the historical `seed ^ "div".len()`.
    let mut cfg = CampaignConfig::new(trials, seed ^ 3);
    cfg.step_budget = budget;
    cfg.checkpoint = opts.get("checkpoint").map(PathBuf::from);
    cfg.resume = opts.contains_key("resume");
    if cfg.resume && cfg.checkpoint.is_none() {
        return Err("--resume needs --checkpoint PATH".to_string());
    }
    let gspec = opts.map_or_default("graph", "");
    let ispec = opts.map_or_default("init", "uniform:5");
    cfg.tag = format!("compare div {gspec} {ispec} {engine} {faults_spec} {budget}");
    // Trials run exactly as in a standalone campaign, so the div row is
    // the same pure function of (seed ^ 3, engine knobs) as `divlab
    // campaign` with that master seed — sharded rows included.
    let (lanes, threads) = parse_batch_knobs(opts)?;
    cfg.threads = threads;
    let setup = engine_setup(
        opts,
        engine,
        TrialSetup {
            monitor,
            ..TrialSetup::new(&graph, &opinions, FastScheduler::Edge, &faults)
        },
    )?;
    let hooks = CampaignHooks {
        monitor,
        ..CampaignHooks::default()
    };
    let report =
        run_engine_campaign(engine, &setup, &cfg, lanes, hooks, None).map_err(|e| e.to_string())?;
    let mut rendered: Vec<String> = report
        .winner_histogram()
        .iter()
        .map(|(op, c)| format!("{op}: {c}"))
        .collect();
    let (_, two, timeout, panicked) = report.counts();
    if two + timeout + panicked > 0 {
        rendered.push(format!("[degraded: {}]", two + timeout + panicked));
    }
    table.row(&["div".to_string(), rendered.join(", ")]);

    // Load balancing usually ends in a {c⌊⌋, c⌈⌉} mixture, not consensus;
    // its row reports the low value of that near-balanced state.
    let processes: Vec<&str> = vec![
        "pull",
        "push",
        "median",
        "best-of-3",
        "load-balancing (near-balance low)",
    ];
    for name in processes {
        let winners = div_sim::run_trials(trials, seed ^ name.len() as u64, |_, s| {
            let mut rng = StdRng::seed_from_u64(s);
            let ops = opinions.clone();
            match name {
                "pull" => {
                    let mut p = PullVoting::new(&graph, ops, EdgeScheduler::new()).unwrap();
                    run_to_consensus(&mut p, u64::MAX, &mut rng).consensus_opinion()
                }
                "push" => {
                    let mut p = PushVoting::new(&graph, ops).unwrap();
                    run_to_consensus(&mut p, u64::MAX, &mut rng).consensus_opinion()
                }
                "median" => {
                    let mut p = MedianVoting::new(&graph, ops).unwrap();
                    run_to_consensus(&mut p, u64::MAX, &mut rng).consensus_opinion()
                }
                "best-of-3" => {
                    let mut p = BestOfK::new(&graph, ops, 3).unwrap();
                    run_to_consensus(&mut p, u64::MAX, &mut rng).consensus_opinion()
                }
                "load-balancing (near-balance low)" => {
                    let mut p = LoadBalancing::new(&graph, ops).unwrap();
                    // LB may never reach consensus; near-balance midpoint.
                    p.run_to_near_balance(u64::MAX, &mut rng);
                    Some(p.state().min_opinion())
                }
                _ => unreachable!(),
            }
        });
        let mut hist: std::collections::BTreeMap<i64, usize> = Default::default();
        for w in winners.into_iter().flatten() {
            *hist.entry(w).or_insert(0) += 1;
        }
        let rendered: Vec<String> = hist.iter().map(|(op, c)| format!("{op}: {c}")).collect();
        table.row(&[name.to_string(), rendered.join(", ")]);
    }
    print!("{}", table.render());
    if report.is_degraded() {
        eprintln!("divlab: div campaign degraded (non-converged outcomes present)");
        Ok(3)
    } else {
        Ok(0)
    }
}

/// The `analyze` subcommand: offline convergence diagnostics over a
/// recorded trace corpus (one file or a directory of `.jsonl`/`.csv`
/// traces), writing `analyze.md` and `analyze.json` under `--out`.
fn cmd_analyze(opts: &HashMap<String, String>) -> Result<i32, String> {
    let traces = opts
        .get("traces")
        .map(PathBuf::from)
        .ok_or("missing --traces PATH (a trace file or a directory of traces)")?;
    let out_dir = PathBuf::from(opts.map_or_default("out", "results"));
    let report = div_bench::analyze::analyze_path(&traces)?;
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("cannot create output directory {}: {e}", out_dir.display()))?;
    let md_path = out_dir.join("analyze.md");
    let json_path = out_dir.join("analyze.json");
    // Atomic (temp + fsync + rename): a crash mid-write can never leave a
    // torn report shadowing a previous good one.
    div_oplog::atomic_write(&md_path, report.render_markdown().as_bytes())
        .map_err(|e| format!("cannot write {}: {e}", md_path.display()))?;
    div_oplog::atomic_write(&json_path, report.render_json().as_bytes())
        .map_err(|e| format!("cannot write {}: {e}", json_path.display()))?;
    print!("{}", report.render_summary());
    eprintln!(
        "divlab: analysis reports at {} and {}",
        md_path.display(),
        json_path.display()
    );
    if report.all_pass() {
        Ok(0)
    } else {
        eprintln!("divlab: analyze checks failed (details in the report)");
        Ok(3)
    }
}

/// Client mode for a `divd` daemon: builds the line-based job spec from
/// the familiar campaign flags, submits it with the `X-Client` fairness
/// token, waits by following the daemon's `/results` stream (which ends
/// with `end <state>` once the job is terminal), then prints the final
/// report to stdout.  Exit codes mirror `divlab campaign`: 0 clean,
/// 3 degraded, 4 partial (cancelled or daemon drained), 2 on protocol
/// or submission errors (including a full queue's 429).
fn cmd_submit(opts: &HashMap<String, String>) -> Result<i32, String> {
    use div_sim::http::http_request;
    use std::time::Duration;

    let server = opts.get("server").ok_or("missing --server HOST:PORT")?;
    let addr = {
        use std::net::ToSocketAddrs;
        server
            .to_socket_addrs()
            .map_err(|e| format!("cannot resolve --server {server:?}: {e}"))?
            .next()
            .ok_or_else(|| format!("--server {server:?} resolved to no address"))?
    };
    let gspec = opts.get("graph").ok_or("missing --graph SPEC")?;
    let mut spec = format!("graph {gspec}\n");
    for key in [
        "init",
        "scheduler",
        "engine",
        "seed",
        "trials",
        "budget",
        "faults",
        "lanes",
        "threads",
        "checkpoint-every",
    ] {
        if let Some(v) = opts.get(key) {
            spec.push_str(&format!("{key} {v}\n"));
        }
    }
    let client = opts.map_or_default("client", "divlab");
    let wait_secs: u64 = parse_opt(opts, "timeout")?.unwrap_or(600);
    let quick = Duration::from_secs(10);

    let resp = http_request(
        addr,
        "POST",
        "/campaigns",
        &[("X-Client", &client)],
        spec.as_bytes(),
        quick,
    )
    .map_err(|e| format!("submit to {addr} failed: {e}"))?;
    match resp.status {
        201 => {}
        429 => {
            return Err(format!(
                "server queue full; retry in {}s",
                resp.header("retry-after").unwrap_or("1")
            ))
        }
        503 => return Err(format!("server unavailable: {}", resp.text().trim())),
        code => return Err(format!("submit rejected ({code}): {}", resp.text().trim())),
    }
    let created = resp.text();
    let id: u64 = created
        .trim()
        .strip_prefix("id ")
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("unexpected submit response {created:?}"))?;
    eprintln!("divlab: campaign {id} accepted by {addr} (client {client:?})");
    if opts.contains_key("detach") {
        println!("id {id}");
        return Ok(0);
    }

    let results = http_request(
        addr,
        "GET",
        &format!("/campaigns/{id}/results"),
        &[],
        &[],
        Duration::from_secs(wait_secs),
    )
    .map_err(|e| format!("waiting on campaign {id} failed: {e}"))?;
    if opts.contains_key("watch") {
        for line in results.text().lines() {
            eprintln!("divlab: {line}");
        }
    }

    let status = http_request(addr, "GET", &format!("/campaigns/{id}"), &[], &[], quick)
        .map_err(|e| format!("status query for campaign {id} failed: {e}"))?
        .text();
    let field = |key: &str| {
        let prefix = format!("{key} ");
        status
            .lines()
            .find_map(|l| l.strip_prefix(prefix.as_str()).map(str::to_string))
    };
    let report = http_request(
        addr,
        "GET",
        &format!("/campaigns/{id}/report"),
        &[],
        &[],
        quick,
    )
    .map_err(|e| format!("report fetch for campaign {id} failed: {e}"))?;
    if report.status == 200 {
        print!("{}", report.text());
    }
    match field("state").unwrap_or_default().as_str() {
        "completed" => {
            if field("class").as_deref() == Some("degraded") {
                eprintln!(
                    "divlab: campaign complete but degraded (non-converged outcomes present)"
                );
                Ok(3)
            } else {
                Ok(0)
            }
        }
        "cancelled" => {
            eprintln!("divlab: campaign {id} cancelled; report is partial");
            Ok(4)
        }
        "failed" => Err(format!(
            "campaign {id} failed: {}",
            field("error").unwrap_or_default()
        )),
        other => {
            eprintln!(
                "divlab: campaign {id} still {other} (daemon draining?); it resumes on the next \
                 daemon start"
            );
            Ok(4)
        }
    }
}

fn cmd_spectral(opts: &HashMap<String, String>) -> Result<(), String> {
    let (graph, _, _) = setup(opts)?;
    let stats = div_graph::algo::degree_stats(&graph);
    let pi = div_spectral::StationaryDistribution::new(&graph).map_err(|e| e.to_string())?;
    let lambda = div_spectral::lambda(&graph).map_err(|e| e.to_string())?;
    let lambda2 = div_spectral::lambda_two(&graph).map_err(|e| e.to_string())?;
    println!("{graph}");
    println!(
        "degrees: min {} max {} mean {:.2} (variance {:.2})",
        stats.min, stats.max, stats.mean, stats.variance
    );
    println!("pi_min = {:.6}, ||pi||_inf = {:.6}", pi.min(), pi.max());
    println!("lambda = {lambda:.6}   lambda_2 = {lambda2:.6}");
    // Numerically λ ≈ 1 (bipartite or disconnected-ish structure) makes
    // the spectral bound meaningless; say so instead of printing 10¹¹.
    if lambda < 1.0 - 1e-6 {
        println!(
            "lazy-walk mixing bound t_mix(1/4) <= {:.0}",
            div_spectral::mixing_time_bound(0.5 * (1.0 + lambda), pi.min(), 0.25)
        );
    } else {
        println!("lazy-walk mixing bound: n/a (λ ≈ 1: periodic or near-disconnected walk)");
    }
    let budget = 0.5 / lambda;
    println!(
        "Theorem 2 budget: k up to ~{budget:.1} satisfies the finite-size gate λk ≤ 0.5{}",
        if budget < 2.0 {
            "  (NOT an expander workload)"
        } else {
            ""
        }
    );
    Ok(())
}

fn cmd_graph6(opts: &HashMap<String, String>) -> Result<(), String> {
    let (graph, _, _) = setup(opts)?;
    println!("{}", div_graph::graph6::encode(&graph));
    Ok(())
}

/// Small ergonomic helper for flag maps.
trait MapExt {
    fn map_or_default(&self, key: &str, default: &str) -> String;
}

impl MapExt for HashMap<String, String> {
    fn map_or_default(&self, key: &str, default: &str) -> String {
        self.get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }
}
