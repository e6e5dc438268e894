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
//!                 [--lanes K] [--shards P] [--threads T] [--checkpoint PATH]
//!                 [--resume] [--serve ADDR] [--serve-linger SECS]
//! divlab spectral --graph SPEC [--init SPEC] [--seed N]
//! divlab graph6   --graph SPEC [--init SPEC] [--seed N]
//! divlab analyze  --traces PATH [--out DIR]
//! divlab submit   --server HOST:PORT ...campaign spec flags (client mode for divd)
//! ```
//!
//! Each subcommand accepts exactly the flags it reads; any other flag is
//! a usage error naming it.
//!
//! The campaign flags (`--graph --init --scheduler --engine --seed
//! --trials --budget --faults --lanes --shards --threads`, and
//! `--checkpoint-every` on `submit`) are the keys of a
//! [`div_bench::spec::CampaignSpec`]:
//! `--key value` is the spec line `key value`, parsed and validated by
//! the same code as a `divd` job, before anything is printed.  Graph and
//! opinion spec grammars are documented in [`div_bench::spec`]; e.g.
//! `--graph regular:200:8 --init uniform:5`.
//! Fault specs follow `div_core::FaultPlan::parse`, e.g.
//! `--faults drop:0.1,noise:0.05:1,stubborn:3`.
//!
//! With `--trials N` (N > 1) or any checkpoint flag, `run` executes a
//! resilient Monte-Carlo campaign: panicking trials are retried with
//! fresh deterministic sub-seeds and reported in an outcome taxonomy,
//! and `--checkpoint PATH` + `--resume` make a killed campaign resume
//! exactly (byte-identical report).  `divlab campaign` is the same
//! command with campaign mode forced on.  Every engine runs through the
//! shared executors and campaign dispatch of [`div_bench::trial`], the
//! same code `divd` runs; batch campaigns share one pool of `--lanes K`
//! lanes per worker, and batch lanes are bit-exact against the fast
//! engine, so batch and fast campaigns print byte-identical reports.
//!
//! `--telemetry PATH` streams the single run's trajectory through the
//! engines' observer hooks to a JSONL file (CSV when the path ends in
//! `.csv`): `W(t)` samples every `--sample-every` steps, exact
//! phase-transition events, fault counters, wall-clock timing.  In
//! campaign mode `PATH` is a directory receiving one
//! `trial-<seed>.jsonl` file per trial — the corpora `divlab analyze`
//! consumes.  `divlab stats` prints one observed trial's trajectory
//! summary instead.  Batch and sharded runs observe natively on their
//! block or round lattice; only fault-injected batch observation falls
//! back to fast, with the uniform demotion warning.
//!
//! `--spans PATH` (campaign mode) records wall-clock lifecycle spans —
//! one per trial execution plus a campaign root — as a Perfetto-loadable
//! Chrome-trace JSON array; a trial's span runs from its start (for the
//! batch engine, its lane's load into the campaign's lane pool) to its
//! finish, and span ids are a deterministic hash of (master seed, trial
//! seed, attempt).  `--trace` needs the reference engine's
//! stage log, so every entry point demotes other engines with a warning.
//!
//! `--serve ADDR` (on `run`, campaigns and `compare`) publishes live
//! progress over HTTP — `/metrics` (Prometheus), `/progress` (JSON),
//! `/healthz` — announcing the bound address on stderr;
//! `--serve-linger SECS` keeps it up after the command finishes.
//!
//! `divlab analyze` re-derives the paper's trajectory checks (Lemma 3
//! zero drift, the eq. (5) Azuma envelope, phase steps, the eq. (4)
//! `E[T]`-vs-`k` fit) from a trace corpus into markdown and JSON
//! reports under `--out` (default `results/`).
//!
//! Exit codes: `0` clean, `2` usage or IO error, `3` campaign complete
//! but degraded (non-converged outcomes present) or `analyze` checks
//! failed, `4` campaign partial (`--stop-after` hit before the last
//! trial) or telemetry data lost to a latched exporter I/O error.

use div_baselines::{
    run_to_consensus, BestOfK, LoadBalancing, MedianVoting, PullVoting, PushVoting,
};
use div_bench::spec::{demotion, Campaign, CampaignInputs, CampaignSpec, Front};
use div_bench::trial::{
    outcome_of, publish_faults, run_engine_campaign, Engine, TrialSetup, Watch,
};
use div_core::{
    hex_id, init, render_spans, span_id, theory, CsvExporter, DivProcess, EdgeScheduler,
    FastScheduler, FaultPlan, FaultStats, JsonlExporter, KernelTier, NullObserver, Observer,
    OpinionState, Phase, PhaseEvent, RingRecorder, RunStatus, Scheduler, SpanClock, SpanEvent,
    StageLog, TelemetrySample, VertexScheduler,
};
use div_sim::table::Table;
use div_sim::{
    CampaignHooks, CampaignMonitor, MetricsServer, MonitorPhase, TrialCtx, TrialOutcome,
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
        "run" => served(&opts, |m| cmd_run(&opts, m, false)),
        "campaign" => served(&opts, |m| cmd_run(&opts, m, true)),
        "stats" => cmd_stats(&opts),
        "compare" => served(&opts, |m| cmd_compare(&opts, m)),
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
        "usage:\n  divlab run      --graph SPEC [--init SPEC] [--scheduler edge|vertex] [--engine reference|fast|batch|sharded] [--seed N] [--trace]\n                  [--telemetry PATH] [--sample-every K] [--spans PATH] [--faults SPEC] [--trials N] [--budget N] [--lanes K] [--shards P] [--threads T]\n                  [--checkpoint PATH] [--resume] [--stop-after N] [--serve ADDR] [--serve-linger SECS]\n  divlab campaign ...same flags as run (campaign mode forced, even at --trials 1)\n  divlab stats    --graph SPEC [--init SPEC] [--scheduler edge|vertex] [--engine reference|fast|batch|sharded] [--seed N]\n                  [--faults SPEC] [--budget N] [--sample-every K] [--shards P] [--threads T]\n  divlab compare  --graph SPEC [--init SPEC] [--engine reference|fast|batch|sharded] [--seed N] [--trials N] [--faults SPEC] [--budget N]\n                  [--lanes K] [--shards P] [--threads T] [--checkpoint PATH] [--resume] [--serve ADDR] [--serve-linger SECS]\n  divlab spectral --graph SPEC [--seed N]\n  divlab graph6   --graph SPEC [--seed N]\n  divlab analyze  --traces PATH [--out DIR]\n  divlab submit   --server HOST:PORT --graph SPEC [--init SPEC] [--scheduler edge|vertex] [--engine fast|batch|reference|sharded]\n                  [--seed N] [--trials N] [--budget N] [--faults SPEC] [--lanes K] [--shards P] [--threads T] [--checkpoint-every K]\n                  [--client NAME] [--timeout SECS] [--detach] [--watch]   (client mode for a divd daemon)\n\ngraph specs:  complete:N path:N cycle:N star:N wheel:N grid:RxC torus:RxC\n              hypercube:D binary-tree:N barbell:H:B lollipop:H:T double-star:L:R\n              circulant:N:s1,s2 multipartite:a,b regular:N:D gnp:N:P ws:N:K:B ba:N:M\ninit specs:   uniform:K spread:K blocks:VxC,VxC,...\nfault specs:  drop:Q noise:P:D stale:P:AGE stubborn:K crash:P:OUTAGE (comma-separated), or none\nengines:      reference (observable baseline), fast (compiled scalar), batch (lockstep lanes;\n              campaigns share a pool of --lanes K lanes per worker across --threads T workers,\n              refilled from the pending trials as lanes finish; bit-exact vs fast),\n              sharded (--shards P concurrent vertex domains per trial on --threads T std threads;\n              deterministic for fixed seed+P, built for million-vertex single trials)\ntelemetry:    --telemetry out.jsonl streams W(t) samples + phase events (CSV when PATH ends in .csv);\n              in campaign mode PATH is a directory receiving one trial-<seed>.jsonl per trial;\n              batch/sharded engines observe natively (block/round sampling lattice);\n              --spans PATH (campaign) writes Chrome-trace lifecycle spans (load in Perfetto), one per\n              trial from its start (a batch lane's load) to its finish\nmonitoring:   --serve 127.0.0.1:9100 exposes /metrics (Prometheus), /progress (JSON), /healthz\nanalyze:      divlab analyze --traces DIR re-derives Lemma 3 / eq. (5) / eq. (4) checks offline"
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
            "server graph init scheduler engine seed trials budget faults lanes shards threads \
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

/// The campaign spec `opts` describes: each campaign-key flag `--key
/// value` is the spec line `key value`.  Local commands default to the
/// reference engine and `local_trials` trials; `None` keeps the daemon's
/// defaults ([`CampaignSpec::default`]).
fn spec_of(
    opts: &HashMap<String, String>,
    local_trials: Option<usize>,
) -> Result<CampaignSpec, String> {
    if !opts.contains_key("graph") {
        return Err("missing --graph SPEC".to_string());
    }
    let mut spec = CampaignSpec::default();
    if let Some(trials) = local_trials {
        spec.engine = Engine::Reference.name().to_string();
        spec.trials = trials;
    }
    for key in CampaignSpec::KEYS {
        if let Some(value) = opts.get(key) {
            spec.set(key, value)
                .map_err(|e| format!("bad --{key} {value:?}: {e}"))?;
        }
    }
    Ok(spec)
}

/// Fault-free single runs, `stats` and `compare` run to consensus
/// however long it takes unless `--budget` says otherwise; fault plans
/// can obstruct consensus entirely, so they keep the finite default.
fn lift_budget(spec: &mut CampaignSpec, opts: &HashMap<String, String>, faults: &FaultPlan) {
    if faults.is_trivial() && !opts.contains_key("budget") {
        spec.budget = u64::MAX;
    }
}

/// Resolves `spec` into the campaign `front` runs on `inputs`: warns on
/// stderr when the engine is demoted (every engine under `--trace`, the
/// sharded engine under faults) and applies `--sample-every`.  The
/// scalar engines sample every 64 steps by default; the batch and
/// sharded engines round an explicit stride up to whole blocks or
/// rounds, and without one pick their own low-overhead lattice
/// (encoded as 0).
fn campaign_of<'a>(
    opts: &HashMap<String, String>,
    spec: &CampaignSpec,
    inputs: &'a CampaignInputs,
    front: Front,
) -> Result<Campaign<'a>, String> {
    let stride: Option<u64> = parse_opt(opts, "sample-every")?;
    if stride == Some(0) {
        return Err("--sample-every must be at least 1".to_string());
    }
    let c = spec.campaign(inputs, front, opts.contains_key("trace"))?;
    if let Some(why) = &c.demotion {
        eprintln!("divlab: {why}");
    }
    let setup = TrialSetup {
        stride: stride.unwrap_or(64),
        engine_stride: stride.unwrap_or(0),
        ..c.setup
    };
    Ok(Campaign { setup, ..c })
}

/// Demotes the batch engine to fast, with the pinned demotion warning,
/// for *fault-injected* observation only: the batch engine has no faulty
/// observed path.  Fault-free batch and sharded runs stream telemetry
/// natively through their own `run_observed` loops (the spec already
/// demoted sharded+faults).
fn demote_faulty_observers(engine: Engine, faults: &FaultPlan, what: &str) -> Engine {
    if engine == Engine::Batch && !faults.is_trivial() {
        eprintln!("divlab: {}", demotion(engine, what));
        return Engine::Fast;
    }
    engine
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

/// Runs `cmd` with a live monitor when `--serve ADDR` asks for one.
/// The endpoint outlives `cmd`: the report is flushed, then the endpoint
/// lingers `--serve-linger` seconds so a final scrape can be diffed
/// against it, then stops.
fn served(
    opts: &HashMap<String, String>,
    cmd: impl FnOnce(Option<&CampaignMonitor>) -> Result<i32, String>,
) -> Result<i32, String> {
    use std::io::Write;
    let Some(addr) = opts.get("serve") else {
        return cmd(None);
    };
    let linger_secs: u64 = parse_opt(opts, "serve-linger")?.unwrap_or(0);
    let monitor = Arc::new(CampaignMonitor::new());
    let server = MetricsServer::bind(addr, Arc::clone(&monitor))
        .map_err(|e| format!("cannot serve metrics on {addr}: {e}"))?;
    eprintln!("divlab: serving metrics on {}", server.local_addr());
    let result = cmd(Some(&monitor));
    // Redirected stdout is block-buffered: flush so the report is
    // visible to whoever scrapes during the linger window.
    std::io::stdout().flush().ok();
    std::io::stderr().flush().ok();
    std::thread::sleep(std::time::Duration::from_secs(linger_secs));
    server.shutdown();
    result
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
    /// sink's clock when the trial started (its lane was loaded, or its
    /// scalar execution began).
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

fn cmd_run(
    opts: &HashMap<String, String>,
    monitor: Option<&CampaignMonitor>,
    force_campaign: bool,
) -> Result<i32, String> {
    let mut spec = spec_of(opts, Some(1))?;
    let campaign_mode = force_campaign
        || spec.trials > 1
        || opts.contains_key("checkpoint")
        || opts.contains_key("resume")
        || opts.contains_key("stop-after");
    let (inputs, mut rng) = spec.build()?;
    if !campaign_mode {
        lift_budget(&mut spec, opts, &inputs.faults);
    }
    let mut c = campaign_of(opts, &spec, &inputs, Front::Run)?;
    c.setup.monitor = monitor;

    // Every usage error comes before the first line of stdout.
    let telemetry = opts.get("telemetry").map(PathBuf::from);
    if campaign_mode {
        c.cfg.checkpoint = opts.get("checkpoint").map(PathBuf::from);
        c.cfg.resume = opts.contains_key("resume");
        c.cfg.stop_after = parse_opt(opts, "stop-after")?;
        if c.cfg.resume && c.cfg.checkpoint.is_none() {
            return Err("--resume needs --checkpoint PATH".to_string());
        }
        if let Some(path) = &telemetry {
            if path.is_file() {
                return Err(format!(
                    "--telemetry {} exists as a regular file; campaign mode writes per-trial \
                     files into a directory",
                    path.display()
                ));
            }
            std::fs::create_dir_all(path).map_err(|e| {
                format!("cannot create telemetry directory {}: {e}", path.display())
            })?;
        }
        print_prediction(&inputs, c.setup.kind);
        return run_campaign_cmd(opts, &spec, c, telemetry.as_deref());
    }
    if telemetry.is_some() && opts.contains_key("trace") {
        return Err(
            "--trace and --telemetry are mutually exclusive (trace prints the reference \
             engine's stage log; telemetry streams observer events)"
                .to_string(),
        );
    }
    check_single(&inputs)?;
    let telemetry = telemetry
        .map(|path| {
            std::fs::File::create(&path)
                .map(|file| (path.clone(), file))
                .map_err(|e| format!("cannot create telemetry file {}: {e}", path.display()))
        })
        .transpose()?;
    print_prediction(&inputs, c.setup.kind);

    if let Some(m) = monitor {
        m.set_expected(1);
        m.trial_started();
    }
    let scheduler = spec.scheduler.as_str();
    if let Some((path, file)) = telemetry {
        let engine = demote_faulty_observers(c.engine, &inputs.faults, "fault-injected telemetry");
        let (outcome, label, telemetry_err) = run_telemetry_export(
            &c.setup,
            engine,
            scheduler,
            spec.budget,
            &mut rng,
            &path,
            file,
        );
        let code = finish_single_run(outcome, &label, monitor);
        if let Some(err) = telemetry_err {
            // The run itself finished, but its exported trajectory is
            // incomplete on disk: that is data loss, not a usage error.
            eprintln!("divlab: {err}");
            return Ok(4);
        }
        return Ok(code);
    }
    if c.engine != Engine::Reference {
        let (outcome, label) = single_run(
            &c.setup,
            c.engine,
            scheduler,
            spec.budget,
            &mut rng,
            &mut NullObserver,
        );
        return Ok(finish_single_run(outcome, &label, monitor));
    }

    // The unobserved reference run also records the stage log behind the
    // elimination order and `--trace`.
    fn reference_single<S: Scheduler>(
        inputs: &CampaignInputs,
        scheduler: S,
        budget: u64,
        rng: &mut StdRng,
    ) -> (RunStatus, StageLog, FaultStats, bool, i64, i64) {
        let opinions = &inputs.opinions;
        let mut p =
            DivProcess::new(&inputs.graph, opinions.clone(), scheduler).expect("validated inputs");
        let mut log = StageLog::new(p.state());
        let mut session = inputs.faults.session(opinions).expect("validated inputs");
        let status = p.run_faulty_until(
            budget,
            &mut session,
            rng,
            |s: &OpinionState| s.is_consensus(),
            |ev, st| log.observe(ev, st),
        );
        let s = p.state();
        let (two_adjacent, low, high) = (s.is_two_adjacent(), s.min_opinion(), s.max_opinion());
        (status, log, *session.stats(), two_adjacent, low, high)
    }
    let (status, log, stats, two_adjacent, low, high) = if scheduler == "edge" {
        reference_single(&inputs, EdgeScheduler::new(), spec.budget, &mut rng)
    } else {
        reference_single(&inputs, VertexScheduler::new(), spec.budget, &mut rng)
    };
    if !inputs.faults.is_trivial() {
        print_fault_stats(&stats);
        publish_faults(monitor, &stats);
    }
    let code = finish_single_run(
        outcome_of(status, two_adjacent, low, high),
        &format!("{scheduler} scheduler"),
        monitor,
    );
    if code == 0 {
        println!("elimination order: {:?}", log.elimination_order());
        if opts.contains_key("trace") {
            println!("trace: {}", log.arrow_notation());
        }
    }
    Ok(code)
}

/// The engines' own constructor check for a single run, as a usage
/// error rather than a panic inside the executor.  (A campaign records
/// such a trial as panicked.)
fn check_single(inputs: &CampaignInputs) -> Result<(), String> {
    OpinionState::new(&inputs.graph, inputs.opinions.clone())
        .map(drop)
        .map_err(|e| e.to_string())
}

/// Prints the `run` banner: the graph, its initial average (degree
/// weighted for the vertex process) and Theorem 2's prediction.
fn print_prediction(inputs: &CampaignInputs, kind: FastScheduler) {
    let c = match kind {
        FastScheduler::Vertex => init::degree_weighted_average(&inputs.graph, &inputs.opinions),
        _ => init::average(&inputs.opinions),
    };
    let pred = theory::win_prediction(c);
    println!("{}; initial average c = {c:.4}", inputs.graph);
    println!(
        "Theorem 2 prediction: {} w.p. {:.3}, {} w.p. {:.3}",
        pred.lower, pred.p_lower, pred.upper, pred.p_upper
    );
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
) -> (TrialOutcome, String) {
    let run = if engine == Engine::Reference {
        setup.reference(budget, rng, obs)
    } else {
        let ctx = TrialCtx {
            trial: 0,
            seed: rng.next_u64(),
            attempt: 0,
            step_budget: budget,
        };
        setup.run(engine, &ctx, obs)
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
        _ => format!("{scheduler} scheduler, {engine} engine"),
    };
    (run.outcome, label)
}

/// Prints the single-run verdict and picks the exit code (0 clean,
/// 3 degraded), publishing the outcome to the live monitor when one is
/// attached.
fn finish_single_run(outcome: TrialOutcome, label: &str, monitor: Option<&CampaignMonitor>) -> i32 {
    if let Some(m) = monitor {
        // record_outcome also bumps `finished` (publication ordering lives
        // in the monitor, not here).
        m.record_outcome(&outcome);
    }
    match outcome {
        TrialOutcome::Converged { winner, steps } => {
            println!("consensus on {winner} after {steps} steps ({label})");
            0
        }
        TrialOutcome::TwoAdjacent { low, high, steps } => {
            println!("degraded: stuck between {low} and {high} after {steps} steps ({label})");
            3
        }
        TrialOutcome::Timeout { steps } => {
            println!("degraded: no consensus within {steps} steps ({label})");
            3
        }
        TrialOutcome::Panicked { .. } => unreachable!("single runs propagate panics"),
    }
}

/// The `run` subcommand's campaign mode: N resilient trials with the
/// configured fault plan, optional crash-safe checkpointing, optional
/// per-trial telemetry export, lifecycle spans and live monitoring.
fn run_campaign_cmd(
    opts: &HashMap<String, String>,
    spec: &CampaignSpec,
    mut c: Campaign<'_>,
    telemetry_dir: Option<&Path>,
) -> Result<i32, String> {
    // Fault-free batch/sharded campaigns keep their native engines under
    // `--telemetry DIR`: lanes snapshot on the block lattice, shards
    // combine at round boundaries.  Only fault-injected batch telemetry
    // still demotes (the batch engine has no faulty observed path).
    if telemetry_dir.is_some() {
        c.engine = demote_faulty_observers(
            c.engine,
            c.setup.faults,
            "fault-injected per-trial telemetry",
        );
        // The manifest names the engine the trials really run on.
        c.cfg.tag = spec.tag(Front::Run, c.engine);
    }
    let (engine, setup, cfg) = (c.engine, &c.setup, &c.cfg);

    // Live scrapes can identify what is running before the first trial
    // finishes (`div_engine_info{engine,kernel_tier}`).
    let monitor = setup.monitor;
    if let Some(m) = monitor {
        m.set_engine_info(engine.name(), KernelTier::active().name());
    }
    let span_sink = opts
        .get("spans")
        .map(|p| SpanSink::new(PathBuf::from(p), cfg.master_seed));

    // Telemetry export failures (file creation, latched write errors) must
    // not kill the campaign — the trial result is still sound — but they
    // are data loss and surface as exit code 4 at the end.
    let telemetry_errors = AtomicU64::new(0);
    let hooks = CampaignHooks {
        monitor,
        ..CampaignHooks::default()
    };
    let spans = Spans(span_sink.as_ref());
    // Sharded trials relay their round-boundary samples to a live monitor
    // even without a trace directory: one O(P) combine per round is cheap
    // next to the round itself.
    let report = if telemetry_dir.is_some() || (monitor.is_some() && engine == Engine::Sharded) {
        let watch = Traced {
            spans,
            dir: telemetry_dir,
            monitor,
            errors: &telemetry_errors,
        };
        run_engine_campaign(engine, setup, cfg, c.lanes, hooks, &watch)
    } else {
        run_engine_campaign(engine, setup, cfg, c.lanes, hooks, &spans)
    }
    .map_err(|e| e.to_string())?;

    let mut span_lost = false;
    if let Some(sink) = span_sink {
        let path = sink.path.clone();
        match sink.finish(engine.name(), cfg.trials) {
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

/// `divlab campaign`'s plain watch: a lifecycle span from each trial's
/// start to its finish (with `--spans`); the trials run unobserved.
#[derive(Clone, Copy)]
struct Spans<'a>(Option<&'a SpanSink>);

/// A trial's span start; receives no events of its own.
struct SpanStart(Option<u64>);

impl Observer for SpanStart {
    const ENABLED: bool = false;
}

impl Watch for Spans<'_> {
    type Obs = SpanStart;

    fn start(&self, _: Engine, _: &TrialCtx) -> SpanStart {
        SpanStart(self.0.map(|s| s.clock.now_us()))
    }

    fn finish(&self, engine: Engine, ctx: &TrialCtx, obs: SpanStart, outcome: &TrialOutcome) {
        if let (Some(sink), Some(t0)) = (self.0, obs.0) {
            sink.record_trial(ctx, engine.name(), outcome, t0);
        }
    }
}

/// `divlab campaign`'s observing watch: the spans of [`Spans`], each
/// trial's telemetry file under `dir` (when given), and the relay of its
/// phase crossings and samples into the live monitor.
struct Traced<'a> {
    spans: Spans<'a>,
    dir: Option<&'a Path>,
    monitor: Option<&'a CampaignMonitor>,
    errors: &'a AtomicU64,
}

impl<'a> Watch for Traced<'a> {
    type Obs = ((Option<TelemetryFile>, PhaseToMonitor<'a>), SpanStart);

    fn start(&self, engine: Engine, ctx: &TrialCtx) -> Self::Obs {
        let file = self
            .dir
            .and_then(|dir| telemetry_file(dir, ctx, self.errors));
        (
            (file, PhaseToMonitor(self.monitor)),
            self.spans.start(engine, ctx),
        )
    }

    fn finish(&self, engine: Engine, ctx: &TrialCtx, obs: Self::Obs, outcome: &TrialOutcome) {
        let ((file, _), span) = obs;
        if let Some(dir) = self.dir {
            close_telemetry(dir, ctx, file, self.errors);
        }
        self.spans.finish(engine, ctx, span, outcome);
    }
}

/// One trial's telemetry exporter.
type TelemetryFile = JsonlExporter<BufWriter<std::fs::File>>;

/// Trial `ctx`'s telemetry file, `DIR/trial-<seed>.jsonl`.  Seeds are
/// per-attempt, so a retried trial writes a fresh file instead of
/// clobbering the panicked attempt's; zero-padded decimal seeds sort
/// lexicographically == numerically, so directory listings and analyze
/// reports come out in a stable order.
fn telemetry_path(dir: &Path, ctx: &TrialCtx) -> PathBuf {
    dir.join(format!("trial-{:020}.jsonl", ctx.seed))
}

/// Opens trial `ctx`'s telemetry file.  A file that cannot be created is
/// data loss (counted in `errors`); the trial then runs unobserved.
fn telemetry_file(dir: &Path, ctx: &TrialCtx, errors: &AtomicU64) -> Option<TelemetryFile> {
    let path = telemetry_path(dir, ctx);
    match std::fs::File::create(&path) {
        Ok(f) => Some(JsonlExporter::new(BufWriter::new(f))),
        Err(e) => {
            errors.fetch_add(1, Ordering::SeqCst);
            eprintln!(
                "divlab: cannot create telemetry file {}: {e}; running trial unobserved",
                path.display()
            );
            None
        }
    }
}

/// Flushes a finished trial's telemetry file, counting a latched write
/// error as data loss.
fn close_telemetry(dir: &Path, ctx: &TrialCtx, file: Option<TelemetryFile>, errors: &AtomicU64) {
    if let Some(Err(e)) = file.map(JsonlExporter::finish) {
        errors.fetch_add(1, Ordering::SeqCst);
        let path = telemetry_path(dir, ctx);
        eprintln!("divlab: telemetry write to {} failed: {e}", path.display());
    }
}

/// The `--telemetry PATH` mode of `divlab run`: streams the observed
/// single run to `file`, created at `path` before the banner: JSONL, or
/// CSV when the path ends in `.csv`.
///
/// A *latched* exporter write error is not a usage error: the run itself
/// completed,
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
    file: std::fs::File,
) -> (TrialOutcome, String, Option<String>) {
    let out = BufWriter::new(file);
    let csv = path.extension().and_then(|e| e.to_str()) == Some("csv");
    let relay = PhaseToMonitor(setup.monitor);
    let ((outcome, label), write_err) = if csv {
        let mut obs = (CsvExporter::new(out), relay);
        let r = single_run(setup, engine, scheduler, budget, rng, &mut obs);
        (r, obs.0.finish().err())
    } else {
        let mut obs = (JsonlExporter::new(out), relay);
        let r = single_run(setup, engine, scheduler, budget, rng, &mut obs);
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
    (outcome, label, telemetry_err)
}

/// The `stats` subcommand: one observed run into an in-memory recorder,
/// summarised as the trajectory-level view of the run (phases, `W(t)`
/// excursion, sampling coverage).
fn cmd_stats(opts: &HashMap<String, String>) -> Result<i32, String> {
    let mut spec = spec_of(opts, Some(1))?;
    let (inputs, mut rng) = spec.build()?;
    lift_budget(&mut spec, opts, &inputs.faults);
    let c = campaign_of(opts, &spec, &inputs, Front::Run)?;
    // Fault-free batch/sharded stats run natively on their own engines;
    // only fault-injected observation falls back to fast (uniform
    // warning in both cases — no more silent demotion).
    let engine = demote_faulty_observers(c.engine, &inputs.faults, "fault-injected observation");
    let (setup, stride) = (&c.setup, c.setup.stride);
    check_single(&inputs)?;
    println!(
        "{}; c = {:.4}",
        inputs.graph,
        init::average(&inputs.opinions)
    );

    let mut rec = RingRecorder::new(4096);
    let (outcome, label) = single_run(
        setup,
        engine,
        &spec.scheduler,
        spec.budget,
        &mut rng,
        &mut rec,
    );
    let code = finish_single_run(outcome, &label, None);

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

/// The `compare` subcommand.  The live monitor (when attached) tracks the div
/// campaign row; baseline rows run unmonitored so the scrape's expected /
/// outcome counts describe exactly one campaign.
fn cmd_compare(
    opts: &HashMap<String, String>,
    monitor: Option<&CampaignMonitor>,
) -> Result<i32, String> {
    let mut spec = spec_of(opts, Some(50))?;
    let (inputs, _) = spec.build()?;
    lift_budget(&mut spec, opts, &inputs.faults);
    let mut div = campaign_of(opts, &spec, &inputs, Front::Compare)?;
    // The div row runs as a resilient campaign: fault injection, panic
    // isolation, optional checkpoint/resume.  Trials run exactly as in a
    // standalone campaign, so the row is the same pure function of
    // (seed ^ 3, engine knobs) as `divlab campaign` with that master
    // seed; `seed ^ 3` keeps the per-trial seeds identical to the
    // historical `seed ^ "div".len()`.
    let (trials, seed) = (spec.trials, spec.seed);
    div.cfg.master_seed = seed ^ 3;
    div.cfg.checkpoint = opts.get("checkpoint").map(PathBuf::from);
    div.cfg.resume = opts.contains_key("resume");
    if div.cfg.resume && div.cfg.checkpoint.is_none() {
        return Err("--resume needs --checkpoint PATH".to_string());
    }
    div.setup.monitor = monitor;
    let (graph, opinions) = (&inputs.graph, &inputs.opinions);
    let c = init::average(opinions);
    println!(
        "{graph}; c = {c:.3}; mode/median of the initial opinions vs each process, {trials} trials"
    );
    if !inputs.faults.is_trivial() {
        println!(
            "fault plan {} applies to the div row only (baselines run clean)",
            spec.faults
        );
    }

    let mut table = Table::new(&["process", "winner histogram (opinion: runs)"]);
    let hooks = CampaignHooks {
        monitor,
        ..CampaignHooks::default()
    };
    let report = run_engine_campaign(
        div.engine,
        &div.setup,
        &div.cfg,
        div.lanes,
        hooks,
        &Spans(None),
    )
    .map_err(|e| e.to_string())?;
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
                    let mut p = PullVoting::new(graph, ops, EdgeScheduler::new()).unwrap();
                    run_to_consensus(&mut p, u64::MAX, &mut rng).consensus_opinion()
                }
                "push" => {
                    let mut p = PushVoting::new(graph, ops).unwrap();
                    run_to_consensus(&mut p, u64::MAX, &mut rng).consensus_opinion()
                }
                "median" => {
                    let mut p = MedianVoting::new(graph, ops).unwrap();
                    run_to_consensus(&mut p, u64::MAX, &mut rng).consensus_opinion()
                }
                "best-of-3" => {
                    let mut p = BestOfK::new(graph, ops, 3).unwrap();
                    run_to_consensus(&mut p, u64::MAX, &mut rng).consensus_opinion()
                }
                "load-balancing (near-balance low)" => {
                    let mut p = LoadBalancing::new(graph, ops).unwrap();
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
    let out_dir = PathBuf::from(opts.get("out").map_or("results", String::as_str));
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

/// Client mode for a `divd` daemon: renders the [`CampaignSpec`] the
/// campaign flags describe (over the daemon's defaults, so a missing
/// `--engine` means `fast`), submits it with the `X-Client` fairness
/// token, waits by following the daemon's `/results` stream (which ends
/// with `end <state>` once the job is terminal), then prints the final
/// report to stdout.  Exit codes mirror `divlab campaign`: 0 clean,
/// 3 degraded, 4 partial (cancelled or daemon drained), 2 on protocol
/// or submission errors (including a full queue's 429).
fn cmd_submit(opts: &HashMap<String, String>) -> Result<i32, String> {
    use div_sim::http::http_request;
    use std::time::Duration;

    let server = opts.get("server").ok_or("missing --server HOST:PORT")?;
    let spec = spec_of(opts, None)?.render();
    let addr = {
        use std::net::ToSocketAddrs;
        server
            .to_socket_addrs()
            .map_err(|e| format!("cannot resolve --server {server:?}: {e}"))?
            .next()
            .ok_or_else(|| format!("--server {server:?} resolved to no address"))?
    };
    let client = opts.get("client").map_or("divlab", String::as_str);
    let wait_secs: u64 = parse_opt(opts, "timeout")?.unwrap_or(600);
    let quick = Duration::from_secs(10);

    let resp = http_request(
        addr,
        "POST",
        "/campaigns",
        &[("X-Client", client)],
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

/// The graph `--graph`, `--init` and `--seed` describe, built and
/// validated exactly as a campaign builds it.
fn graph_of(opts: &HashMap<String, String>) -> Result<div_graph::Graph, String> {
    let (inputs, _) = spec_of(opts, None)?.build()?;
    Ok(inputs.graph)
}

fn cmd_spectral(opts: &HashMap<String, String>) -> Result<(), String> {
    let graph = graph_of(opts)?;
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
    let graph = graph_of(opts)?;
    println!("{}", div_graph::graph6::encode(&graph));
    Ok(())
}
