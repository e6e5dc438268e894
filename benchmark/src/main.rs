//! The benchmark of record for divlab campaigns and the divd daemon.
//!
//! ```text
//! div-benchmark run [--workload NAME] [--seed S] [--seconds T] [--trace 0|1]
//!                   [--repeats N] [--out FILE] [--smoke]
//! div-benchmark trace ...            (run --trace 1)
//! div-benchmark compare A.json B.json
//! div-benchmark golden
//! ```
//!
//! Run it from the repository root, e.g. through
//! `cargo run --release --manifest-path benchmark/Cargo.toml -- run`.
//! Each run builds `divlab` and `divd` in release mode, measures one
//! workload for `--seconds`, checks every output, prints each metric as
//! `name workload value unit` and, as its last line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`.  Without
//! `--workload` every workload runs; `--repeats N` runs them N times
//! with seeds S, S+1, … in rotating order.  `--out FILE` appends one
//! JSON line per run, with the host fingerprint, for `compare`.
//! See `benchmark/README.md` for the workloads and metrics.

mod compare;
mod host;
mod inproc;
mod json;
mod metrics;
mod report;
mod service;
mod speed;
mod stats;
mod workload;

use std::io::Write as _;
use std::process::exit;

use host::Env;
use json::Json;
use workload::{Options, Workload, DEFAULT_SECONDS, DEFAULT_SEED};

const USAGE: &str = "usage: div-benchmark run [--workload NAME] [--seed S] [--seconds T] [--trace 0|1] [--repeats N] [--out FILE] [--smoke]
       div-benchmark trace ...   (run --trace 1)
       div-benchmark compare A.json B.json
       div-benchmark golden
workloads: campaign_batch_expander campaign_faulty_vertex sharded_100k divd_sweep";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" || cmd == "trace" => {
            parse_run(rest, cmd == "trace").and_then(|(plan, out)| run(&plan, out.as_deref()))
        }
        Some((cmd, [a, b])) if cmd == "compare" => {
            compare::compare(a, b).map(|regressed| i32::from(regressed > 0))
        }
        Some((cmd, [])) if cmd == "golden" => {
            checkout().and_then(|env| workload::write_goldens(&env).map(|()| 0))
        }
        _ => Err(USAGE.to_string()),
    };
    match code {
        Ok(code) => exit(code),
        Err(msg) => {
            eprintln!("div-benchmark: {msg}");
            exit(2);
        }
    }
}

/// What `run` was asked to do.
struct Plan {
    workloads: Vec<Workload>,
    opts: Options,
    repeats: u64,
}

fn parse_run(args: &[String], traced: bool) -> Result<(Plan, Option<String>), String> {
    let mut plan = Plan {
        workloads: Workload::ALL.to_vec(),
        opts: Options {
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            traced,
            smoke: false,
        },
        repeats: 1,
    };
    let mut out = None;
    let mut seconds = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            plan.opts.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad {flag} {value:?}");
        match flag.as_str() {
            "--workload" => {
                plan.workloads = vec![Workload::from_name(value).ok_or_else(bad)?];
            }
            "--seed" => plan.opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if s.is_nan() || s <= 0.0 {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                plan.opts.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--repeats" => {
                plan.repeats = value.parse().map_err(|_| bad())?;
                if plan.repeats == 0 {
                    return Err(bad());
                }
            }
            "--out" => out = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    // Smoke runs are ~1/50 of the full workload, window included.
    plan.opts.seconds =
        seconds.unwrap_or(DEFAULT_SECONDS / if plan.opts.smoke { 50.0 } else { 1.0 });
    Ok((plan, out))
}

/// The checkout in the working directory, with its programs built.
fn checkout() -> Result<Env, String> {
    let root = std::env::current_dir().map_err(|e| format!("no working directory: {e}"))?;
    Env::prepare(&root)
}

fn run(plan: &Plan, out_path: Option<&str>) -> Result<i32, String> {
    let env = checkout()?;
    let host = out_path.map(|_| host::fingerprint(&env));
    let mut code = 0;
    for r in 0..plan.repeats {
        let opts = Options {
            seed: plan.opts.seed.wrapping_add(r),
            ..plan.opts
        };
        let n = plan.workloads.len();
        for k in 0..n {
            let w = plan.workloads[(k + r as usize) % n];
            let outcome = w.run(&env, &opts);
            let result = emit(w, outcome, opts.traced);
            if result.get("correct") != Some(&Json::Bool(true))
                || result.get("failed").and_then(Json::as_f64) != Some(0.0)
            {
                code = 1;
            }
            if let (Some(path), Some(host)) = (out_path, &host) {
                append(path, w, &opts, result, host.clone())?;
            }
        }
    }
    Ok(code)
}

/// Prints a run's metrics and its one-line JSON result; returns the
/// result object.
fn emit(w: Workload, outcome: workload::Outcome, traced: bool) -> Json {
    let mut problems = outcome.problems;
    let metrics = match outcome.metrics.finish(traced) {
        Ok(values) => values,
        Err(e) => {
            problems.push(e);
            Vec::new()
        }
    };
    problems.extend(
        metrics
            .iter()
            .filter(|(_, v)| !v.is_finite())
            .map(|(m, _)| format!("{} was not measured", m.name)),
    );
    for p in &problems {
        eprintln!("div-benchmark: {}: check failed: {p}", w.name());
    }
    let mut members = Vec::new();
    for (m, value) in metrics {
        println!("{} {} {} {}", m.name, w.name(), value, m.unit);
        members.push((
            m.name.to_string(),
            Json::Obj(vec![
                ("value".into(), Json::Num(value)),
                ("unit".into(), Json::Str(m.unit.into())),
            ]),
        ));
    }
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(problems.is_empty())),
        (
            "attempted".into(),
            Json::Num(outcome.attempted.max(1) as f64),
        ),
        ("failed".into(), Json::Num(outcome.failed as f64)),
        ("metrics".into(), Json::Obj(members)),
    ]);
    println!("{}", result.render());
    let _ = std::io::stdout().flush();
    result
}

fn append(path: &str, w: Workload, opts: &Options, result: Json, host: Json) -> Result<(), String> {
    let record = Json::Obj(vec![
        ("workload".into(), Json::Str(w.name().into())),
        ("seed".into(), Json::Num(opts.seed as f64)),
        ("trace".into(), Json::Num(f64::from(u8::from(opts.traced)))),
        ("seconds".into(), Json::Num(opts.seconds)),
        ("result".into(), result),
        ("host".into(), host),
    ]);
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("cannot open {path}: {e}"))?;
    writeln!(file, "{}", record.render()).map_err(|e| format!("cannot write {path}: {e}"))
}
