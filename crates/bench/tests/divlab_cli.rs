//! End-to-end tests for the `divlab` binary's telemetry surface and the
//! uniform `--trace`/`--engine` resolution (one test per entry point:
//! run, campaign, compare, stats).

use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};

fn divlab(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_divlab"))
        .args(args)
        .output()
        .expect("divlab spawns")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn temp_file(label: &str, ext: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "divlab-cli-{label}-{}-{}.{ext}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

const FALLBACK: &str = "falling back to --engine reference";

#[test]
fn trace_with_fast_engine_falls_back_on_run() {
    let out = divlab(&[
        "run",
        "--graph",
        "complete:40",
        "--init",
        "blocks:1x20,5x20",
        "--engine",
        "fast",
        "--trace",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains(FALLBACK), "stderr: {}", stderr(&out));
    // The reference engine actually ran: its stage log was printed.
    assert!(stdout(&out).contains("trace:"), "stdout: {}", stdout(&out));
}

#[test]
fn trace_with_fast_engine_falls_back_on_campaign() {
    let out = divlab(&[
        "run",
        "--graph",
        "complete:30",
        "--init",
        "blocks:1x15,5x15",
        "--engine",
        "fast",
        "--trace",
        "--trials",
        "3",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains(FALLBACK), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("campaign master="));
}

#[test]
fn trace_with_fast_engine_falls_back_on_compare() {
    let out = divlab(&[
        "compare",
        "--graph",
        "complete:20",
        "--init",
        "blocks:1x10,5x10",
        "--trials",
        "4",
        "--engine",
        "fast",
        "--trace",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains(FALLBACK), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("div"));
}

#[test]
fn trace_with_fast_engine_falls_back_on_stats() {
    let out = divlab(&[
        "stats",
        "--graph",
        "complete:40",
        "--engine",
        "fast",
        "--trace",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains(FALLBACK), "stderr: {}", stderr(&out));
}

#[test]
fn trace_with_batch_engine_falls_back_on_run() {
    let out = divlab(&[
        "run",
        "--graph",
        "complete:40",
        "--init",
        "blocks:1x20,5x20",
        "--engine",
        "batch",
        "--trace",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains(FALLBACK), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("trace:"), "stdout: {}", stdout(&out));
}

#[test]
fn batch_single_run_matches_fast_single_run() {
    let batch = divlab(&[
        "run",
        "--graph",
        "complete:50",
        "--engine",
        "batch",
        "--seed",
        "41",
    ]);
    let fast = divlab(&[
        "run",
        "--graph",
        "complete:50",
        "--engine",
        "fast",
        "--seed",
        "41",
    ]);
    assert!(batch.status.success(), "stderr: {}", stderr(&batch));
    // The verdict lines differ only in the engine label.
    assert_eq!(
        stdout(&batch).replace("batch engine", "fast engine"),
        stdout(&fast),
        "batch and fast single runs diverged"
    );
}

#[test]
fn batch_campaign_report_matches_fast_campaign_report() {
    let args = |engine: &'static str| {
        vec![
            "campaign",
            "--graph",
            "regular:120:6",
            "--init",
            "uniform:5",
            "--trials",
            "13",
            "--seed",
            "17",
            "--engine",
            engine,
        ]
    };
    let batch = divlab(&args("batch"));
    let fast = divlab(&args("fast"));
    assert!(batch.status.success(), "stderr: {}", stderr(&batch));
    assert!(fast.status.success(), "stderr: {}", stderr(&fast));
    assert_eq!(
        stdout(&batch),
        stdout(&fast),
        "batch campaign report must be byte-identical to the fast engine's"
    );
    assert!(stdout(&batch).contains("outcomes converged=13"));
}

/// Scripts that still force a removed kernel tier (`swar`, `avx512`)
/// degrade, not break: the unknown `DIV_KERNELS` value warns once and
/// the batch campaign report is byte-identical to an unset run's.
#[test]
fn removed_kernel_tiers_warn_once_and_keep_the_report() {
    let run = |tier: Option<&str>| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_divlab"));
        cmd.args([
            "campaign",
            "--graph",
            "regular:120:6",
            "--init",
            "uniform:5",
            "--trials",
            "13",
            "--seed",
            "17",
            "--engine",
            "batch",
        ]);
        match tier {
            Some(name) => cmd.env("DIV_KERNELS", name),
            None => cmd.env_remove("DIV_KERNELS"),
        };
        cmd.output().expect("divlab spawns")
    };
    let unset = run(None);
    assert!(unset.status.success(), "stderr: {}", stderr(&unset));
    for removed in ["swar", "avx512"] {
        let out = run(Some(removed));
        assert!(out.status.success(), "{removed}: stderr: {}", stderr(&out));
        let err = stderr(&out);
        let warnings: Vec<&str> = err.lines().filter(|l| l.starts_with("div-core:")).collect();
        assert_eq!(warnings.len(), 1, "{removed}: stderr: {err}");
        assert!(warnings[0].contains(removed), "{removed}: {}", warnings[0]);
        assert_eq!(
            stdout(&out),
            stdout(&unset),
            "DIV_KERNELS={removed} must not change the report"
        );
    }
}

#[test]
fn faulty_batch_campaign_report_matches_fast_campaign_report() {
    let args = |engine: &'static str| {
        vec![
            "campaign",
            "--graph",
            "regular:100:6",
            "--trials",
            "11",
            "--seed",
            "29",
            "--faults",
            "drop:0.2",
            "--budget",
            "400000",
            "--engine",
            engine,
        ]
    };
    let batch = divlab(&args("batch"));
    let fast = divlab(&args("fast"));
    assert_eq!(
        stdout(&batch),
        stdout(&fast),
        "faulty batch campaign must replay the fast engine's outcomes"
    );
    assert_eq!(batch.status.code(), fast.status.code());
}

#[test]
fn batch_campaign_telemetry_runs_natively_and_matches_fast_report() {
    // Fault-free batch telemetry no longer demotes: the lockstep engine
    // streams lane snapshots on its own block lattice, and the report
    // stays bit-exact against an unobserved fast campaign.
    let dir = temp_file("batch-telemetry", "d");
    let base = [
        "campaign",
        "--graph",
        "complete:30",
        "--init",
        "blocks:1x15,5x15",
        "--trials",
        "3",
    ];
    let mut batch_args = base.to_vec();
    batch_args.extend(["--engine", "batch", "--telemetry", dir.to_str().unwrap()]);
    let batch = divlab(&batch_args);
    assert!(batch.status.success(), "stderr: {}", stderr(&batch));
    assert!(
        !stderr(&batch).contains("falling back"),
        "native batch telemetry must not demote: {}",
        stderr(&batch)
    );
    assert!(
        stderr(&batch).contains("block lattice"),
        "stderr: {}",
        stderr(&batch)
    );
    assert_eq!(
        std::fs::read_dir(&dir).expect("telemetry dir").count(),
        3,
        "one trace per trial"
    );
    let mut fast_args = base.to_vec();
    fast_args.extend(["--engine", "fast"]);
    let fast = divlab(&fast_args);
    assert_eq!(
        stdout(&batch),
        stdout(&fast),
        "observing lanes must not change the batch campaign's outcomes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stats_with_batch_engine_runs_natively() {
    let out = divlab(&["stats", "--graph", "complete:40", "--engine", "batch"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(
        !stderr(&out).contains("falling back"),
        "fault-free batch stats must not demote: {}",
        stderr(&out)
    );
    assert!(stdout(&out).contains("batch engine"), "{}", stdout(&out));
    assert!(stdout(&out).contains("consensus on"), "{}", stdout(&out));
}

#[test]
fn faulty_observation_demotion_warnings_are_pinned() {
    // The warn_demote phrasing is a stderr contract (scripts grep it);
    // pin the exact text for the two demotion sites that remain after
    // batch/sharded telemetry went native: fault-injected observation.
    let dir = temp_file("faulty-batch-telemetry", "d");
    let batch = divlab(&[
        "campaign",
        "--graph",
        "complete:30",
        "--init",
        "blocks:1x15,5x15",
        "--engine",
        "batch",
        "--faults",
        "drop:0.2",
        "--trials",
        "2",
        "--telemetry",
        dir.to_str().unwrap(),
    ]);
    assert!(batch.status.success(), "stderr: {}", stderr(&batch));
    assert!(
        stderr(&batch).contains(
            "divlab: fault-injected per-trial telemetry is not supported by the batch \
             engine; falling back to --engine fast"
        ),
        "stderr: {}",
        stderr(&batch)
    );
    let _ = std::fs::remove_dir_all(&dir);

    let sharded = divlab(&[
        "run",
        "--graph",
        "complete:40",
        "--init",
        "blocks:1x20,5x20",
        "--engine",
        "sharded",
        "--faults",
        "drop:0.2",
    ]);
    assert!(sharded.status.success(), "stderr: {}", stderr(&sharded));
    assert!(
        stderr(&sharded).contains(
            "divlab: fault injection is not supported by the sharded engine; falling back \
             to --engine fast"
        ),
        "stderr: {}",
        stderr(&sharded)
    );
}

#[test]
fn compare_with_batch_engine_matches_fast_div_row() {
    let args = |engine: &'static str| {
        vec![
            "compare",
            "--graph",
            "complete:24",
            "--trials",
            "8",
            "--seed",
            "13",
            "--engine",
            engine,
        ]
    };
    let batch = divlab(&args("batch"));
    let fast = divlab(&args("fast"));
    assert!(batch.status.success(), "stderr: {}", stderr(&batch));
    assert_eq!(
        stdout(&batch),
        stdout(&fast),
        "compare's div row must not depend on batch-vs-fast"
    );
}

#[test]
fn compare_with_sharded_engine_matches_standalone_sharded_campaign() {
    // compare's div row runs with master seed `seed ^ 3`, so the
    // standalone sharded campaign below (master 13 ^ 3 = 14, same
    // graph/init/shards) replays the identical trials and must report
    // the identical winner histogram.  The seed-independent `spread`
    // init keeps the initial opinions identical across the two seeds.
    let compare = divlab(&[
        "compare",
        "--graph",
        "complete:24",
        "--init",
        "spread:5",
        "--trials",
        "6",
        "--seed",
        "13",
        "--engine",
        "sharded",
        "--shards",
        "3",
    ]);
    assert!(compare.status.success(), "stderr: {}", stderr(&compare));
    let compare_out = stdout(&compare);
    let row = compare_out
        .lines()
        .find(|l| l.starts_with("div "))
        .unwrap_or_else(|| panic!("no div row in:\n{compare_out}"));

    let campaign = divlab(&[
        "campaign",
        "--graph",
        "complete:24",
        "--init",
        "spread:5",
        "--trials",
        "6",
        "--seed",
        "14",
        "--engine",
        "sharded",
        "--shards",
        "3",
    ]);
    assert!(campaign.status.success(), "stderr: {}", stderr(&campaign));
    let campaign_out = stdout(&campaign);
    let winners = campaign_out
        .lines()
        .find(|l| l.starts_with("winners"))
        .unwrap_or_else(|| panic!("no winners line in:\n{campaign_out}"));
    let pairs: Vec<(&str, &str)> = winners
        .trim_start_matches("winners")
        .split_whitespace()
        .map(|pair| pair.split_once('=').expect("winners are op=count"))
        .collect();
    assert!(!pairs.is_empty(), "empty histogram in:\n{campaign_out}");
    for (op, count) in pairs {
        assert!(
            row.contains(&format!("{op}: {count}")),
            "compare div row {row:?} missing {op}: {count} from standalone campaign"
        );
    }
}

#[test]
fn zero_lanes_is_a_usage_error() {
    let out = divlab(&[
        "campaign",
        "--graph",
        "complete:20",
        "--engine",
        "batch",
        "--trials",
        "4",
        "--lanes",
        "0",
    ]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("--lanes"), "{}", stderr(&out));
}

#[test]
fn unknown_engine_names_all_variants() {
    let out = divlab(&["run", "--graph", "complete:10", "--engine", "warp"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("use reference, fast, batch or sharded"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn usage_errors_come_before_any_stdout() {
    let existing = temp_file("regular", "txt");
    std::fs::write(&existing, "x").unwrap();
    let existing = existing.to_str().unwrap();
    for (args, needle) in [
        (
            &[
                "compare",
                "--graph",
                "complete:10",
                "--trials",
                "2",
                "--engine",
                "sharded",
                "--shards",
                "20",
            ][..],
            "shards 20 exceeds the graph's 10 vertices",
        ),
        (
            &[
                "run",
                "--graph",
                "complete:10",
                "--engine",
                "sharded",
                "--shards",
                "11",
            ][..],
            "exceeds the graph's 10 vertices",
        ),
        (
            &["run", "--graph", "complete:10", "--shards", "0"][..],
            "--shards",
        ),
        (
            &["campaign", "--graph", "complete:10", "--resume"][..],
            "--resume needs --checkpoint",
        ),
        (
            &["campaign", "--graph", "complete:10", "--stop-after", "x"][..],
            "--stop-after",
        ),
        (
            &[
                "campaign",
                "--graph",
                "complete:10",
                "--telemetry",
                existing,
            ][..],
            "regular file",
        ),
        (
            &[
                "run",
                "--graph",
                "complete:10",
                "--trace",
                "--telemetry",
                "t.jsonl",
            ][..],
            "mutually exclusive",
        ),
        (
            &["run", "--graph", "complete:10", "--sample-every", "0"][..],
            "--sample-every",
        ),
        (
            &["stats", "--graph", "complete:10", "--faults", "stubborn:11"][..],
            "stubborn",
        ),
        (
            &["compare", "--graph", "complete:10", "--lanes", "0"][..],
            "--lanes",
        ),
    ] {
        let out = divlab(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
        assert!(stderr(&out).contains(needle), "{args:?}: {}", stderr(&out));
        assert_eq!(stdout(&out), "", "{args:?} printed before failing");
    }
    let _ = std::fs::remove_file(existing);
}

#[test]
fn sharded_checkpoints_refuse_a_different_shard_count() {
    // A sharded trajectory is a function of (seed, shards): a manifest
    // written at P=2 must not be completed at P=4.
    let manifest = temp_file("shards", "manifest");
    let path = manifest.to_str().unwrap();
    let campaign = |shards: &str, extra: &[&str]| {
        let mut args = vec![
            "campaign",
            "--graph",
            "cycle:40",
            "--init",
            "uniform:5",
            "--engine",
            "sharded",
            "--seed",
            "5",
            "--trials",
            "6",
            "--threads",
            "1",
            "--shards",
            shards,
            "--checkpoint",
            path,
        ];
        args.extend_from_slice(extra);
        divlab(&args)
    };
    let partial = campaign("2", &["--stop-after", "3"]);
    assert_eq!(
        partial.status.code(),
        Some(4),
        "stderr: {}",
        stderr(&partial)
    );
    let resumed = campaign("4", &["--resume"]);
    assert_eq!(
        resumed.status.code(),
        Some(2),
        "stderr: {}",
        stderr(&resumed)
    );
    assert!(
        stderr(&resumed).contains("manifest tag")
            && stderr(&resumed).contains("sharded none 1000000000 shards 2\"")
            && stderr(&resumed).contains("shards 4\""),
        "stderr: {}",
        stderr(&resumed)
    );
    let resumed = campaign("2", &["--resume"]);
    assert_eq!(
        resumed.status.code(),
        Some(0),
        "stderr: {}",
        stderr(&resumed)
    );
    // ...and completes to the uninterrupted run's report.
    assert_eq!(stdout(&resumed), stdout(&campaign("2", &[])));
    let _ = std::fs::remove_file(&manifest);
}

#[test]
fn manifests_in_the_older_tag_formats_still_resume() {
    // `compare` tags never named the scheduler, and a faulty batch
    // campaign under `--telemetry` runs (and is tagged) as fast.  A
    // partial manifest written in those formats must finish to the
    // uninterrupted report.
    let compare: &[&str] = &[
        "compare",
        "--graph",
        "complete:10",
        "--engine",
        "batch",
        "--trials",
        "6",
    ];
    let compare_tag = "compare div complete:10 uniform:5 batch none 18446744073709551615";
    let dir = temp_file("old-tags", "d");
    let telemetry = dir.to_str().unwrap();
    let run: &[&str] = &[
        "campaign",
        "--graph",
        "cycle:12",
        "--engine",
        "batch",
        "--trials",
        "6",
        "--faults",
        "drop:0.1",
        "--telemetry",
        telemetry,
    ];
    let run_tag = "run cycle:12 uniform:5 edge fast drop:0.1 1000000000";
    for (args, master, tag) in [(compare, 2, compare_tag), (run, 1, run_tag)] {
        let manifest = temp_file("old-tag", "manifest");
        let path = manifest.to_str().unwrap();
        let with_manifest = |extra: &[&str]| {
            let mut all = args.to_vec();
            all.extend_from_slice(&["--checkpoint", path]);
            all.extend_from_slice(extra);
            divlab(&all)
        };
        let full = with_manifest(&[]);
        assert_eq!(full.status.code(), Some(0), "{}", stderr(&full));
        let written = std::fs::read_to_string(&manifest).unwrap();
        let trials: Vec<&str> = written
            .lines()
            .filter(|l| l.starts_with("trial "))
            .collect();
        assert_eq!(trials.len(), 6);
        let old = format!(
            "divlab-campaign v1\nmaster {master}\ntrials 6\ntag {tag}\n{}\n",
            trials[..3].join("\n")
        );
        std::fs::write(&manifest, old).unwrap();
        let resumed = with_manifest(&["--resume"]);
        assert_eq!(resumed.status.code(), Some(0), "{}", stderr(&resumed));
        assert_eq!(stdout(&resumed), stdout(&full), "{args:?}");
        let _ = std::fs::remove_file(&manifest);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn campaign_subcommand_forces_campaign_mode_at_one_trial() {
    let out = divlab(&[
        "campaign",
        "--graph",
        "complete:30",
        "--init",
        "blocks:1x15,5x15",
        "--engine",
        "batch",
        "--seed",
        "5",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(
        stdout(&out).contains("campaign master=5 trials=1"),
        "campaign mode not forced: {}",
        stdout(&out)
    );
}

#[test]
fn telemetry_jsonl_export_contains_trajectory() {
    let path = temp_file("jsonl", "jsonl");
    let out = divlab(&[
        "run",
        "--graph",
        "complete:40",
        "--init",
        "blocks:1x20,5x20",
        "--engine",
        "fast",
        "--telemetry",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = std::fs::read_to_string(&path).expect("telemetry file written");
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines[0].contains("\"type\":\"sample\"") && lines[0].contains("\"step\":0"));
    assert!(text.contains("\"type\":\"phase\""));
    assert!(text.contains("\"phase\":\"consensus\""));
    assert!(text.contains("\"final\":true"));
    assert!(lines.last().unwrap().contains("\"type\":\"finish\""));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn telemetry_csv_export_has_header_and_final_row() {
    let path = temp_file("csv", "csv");
    let out = divlab(&[
        "run",
        "--graph",
        "complete:40",
        "--init",
        "blocks:1x20,5x20",
        "--telemetry",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("telemetry (csv"), "{}", stderr(&out));
    let text = std::fs::read_to_string(&path).expect("telemetry file written");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines[0], "step,sum,z,min,max,distinct,event");
    assert!(lines.last().unwrap().ends_with(",final"));
    assert!(text.contains(",consensus"));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn telemetry_and_trace_are_mutually_exclusive() {
    let path = temp_file("clash", "jsonl");
    let out = divlab(&[
        "run",
        "--graph",
        "complete:40",
        "--trace",
        "--telemetry",
        path.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("mutually exclusive"),
        "stderr: {}",
        stderr(&out)
    );
}

#[test]
fn campaign_telemetry_writes_one_trace_per_trial() {
    let dir = temp_file("campaign-dir", "d");
    let out = divlab(&[
        "run",
        "--graph",
        "complete:30",
        "--init",
        "blocks:1x15,5x15",
        "--engine",
        "fast",
        "--trials",
        "3",
        "--telemetry",
        dir.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).contains("per-trial telemetry"),
        "stderr: {}",
        stderr(&out)
    );
    let mut traces: Vec<String> = std::fs::read_dir(&dir)
        .expect("telemetry directory created")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    traces.sort();
    assert_eq!(traces.len(), 3, "one trace per trial: {traces:?}");
    for name in &traces {
        assert!(
            name.starts_with("trial-") && name.ends_with(".jsonl"),
            "unexpected trace name {name:?}"
        );
        let text = std::fs::read_to_string(dir.join(name)).unwrap();
        assert!(text.contains("\"type\":\"sample\""), "{name}: {text}");
        assert!(
            text.lines().last().unwrap().contains("\"type\":\"finish\""),
            "{name} is truncated"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn campaign_telemetry_rejects_a_regular_file_path() {
    let path = temp_file("campaign-file", "jsonl");
    std::fs::write(&path, "occupied\n").unwrap();
    let out = divlab(&[
        "run",
        "--graph",
        "complete:30",
        "--init",
        "blocks:1x15,5x15",
        "--trials",
        "3",
        "--telemetry",
        path.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).contains("regular file"),
        "stderr: {}",
        stderr(&out)
    );
    assert_eq!(
        std::fs::read_to_string(&path).unwrap(),
        "occupied\n",
        "existing file untouched"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn analyze_over_a_campaign_corpus_is_deterministic() {
    let dir = temp_file("analyze-corpus", "d");
    let out = divlab(&[
        "run",
        "--graph",
        "complete:30",
        "--init",
        "blocks:1x15,5x15",
        "--engine",
        "fast",
        "--trials",
        "20",
        "--seed",
        "11",
        "--telemetry",
        dir.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 20);

    let out1 = temp_file("analyze-out1", "d");
    let out2 = temp_file("analyze-out2", "d");
    let first = divlab(&[
        "analyze",
        "--traces",
        dir.to_str().unwrap(),
        "--out",
        out1.to_str().unwrap(),
    ]);
    assert!(first.status.success(), "stderr: {}", stderr(&first));
    let text = stdout(&first);
    assert!(text.contains("analyze: 20 traces"), "{text}");
    assert!(text.contains("drift (Lemma 3)"), "{text}");
    assert!(text.contains("azuma (eq. 5)"), "{text}");
    assert!(text.contains("verdict: pass"), "{text}");
    let second = divlab(&[
        "analyze",
        "--traces",
        dir.to_str().unwrap(),
        "--out",
        out2.to_str().unwrap(),
    ]);
    assert!(second.status.success(), "stderr: {}", stderr(&second));
    assert_eq!(stdout(&first), stdout(&second), "summary is deterministic");
    for name in ["analyze.md", "analyze.json"] {
        let a = std::fs::read(out1.join(name)).expect(name);
        let b = std::fs::read(out2.join(name)).expect(name);
        assert_eq!(a, b, "{name} differs between identical runs");
    }
    for d in [&dir, &out1, &out2] {
        let _ = std::fs::remove_dir_all(d);
    }
}

#[test]
fn analyze_without_traces_is_a_usage_error() {
    let out = divlab(&["analyze"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--traces"), "{}", stderr(&out));
}

#[cfg(target_os = "linux")]
#[test]
fn latched_telemetry_write_error_exits_with_data_loss_code() {
    // /dev/full accepts the open but fails every flush with ENOSPC: the
    // run completes, the verdict prints, and the latched exporter error
    // surfaces as exit code 4 (telemetry data loss), not 0 and not 2.
    let out = divlab(&[
        "run",
        "--graph",
        "complete:30",
        "--init",
        "blocks:1x15,5x15",
        "--engine",
        "fast",
        "--telemetry",
        "/dev/full",
    ]);
    assert_eq!(out.status.code(), Some(4), "stderr: {}", stderr(&out));
    assert!(
        stdout(&out).contains("consensus on"),
        "run still reports its verdict: {}",
        stdout(&out)
    );
    assert!(
        stderr(&out).contains("telemetry write to /dev/full failed"),
        "stderr: {}",
        stderr(&out)
    );
}

#[test]
fn serve_announces_its_endpoint_and_campaign_still_reports() {
    let out = divlab(&[
        "run",
        "--graph",
        "complete:30",
        "--init",
        "blocks:1x15,5x15",
        "--engine",
        "fast",
        "--trials",
        "3",
        "--serve",
        "127.0.0.1:0",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).contains("serving metrics on 127.0.0.1:"),
        "stderr: {}",
        stderr(&out)
    );
    assert!(
        stdout(&out).contains("outcomes converged=3"),
        "{}",
        stdout(&out)
    );
}

#[test]
fn campaign_report_includes_metrics_block() {
    let out = divlab(&[
        "run",
        "--graph",
        "complete:30",
        "--init",
        "blocks:1x15,5x15",
        "--engine",
        "fast",
        "--trials",
        "4",
        "--seed",
        "9",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("\nmetrics\n"), "stdout: {text}");
    assert!(text.contains("counter outcomes.converged = 4"), "{text}");
    assert!(text.contains("gauge outcomes.converged_rate = 1"), "{text}");
    assert!(text.contains("histogram steps.to_consensus"), "{text}");
}

#[test]
fn stats_summarises_an_observed_run() {
    let out = divlab(&[
        "stats",
        "--graph",
        "complete:40",
        "--init",
        "blocks:1x20,5x20",
        "--engine",
        "fast",
        "--seed",
        "3",
        "--sample-every",
        "32",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("consensus on"), "{text}");
    assert!(text.contains("phases: two-adjacent @ "), "{text}");
    assert!(text.contains("samples: "), "{text}");
    assert!(text.contains("stride 32"), "{text}");
    assert!(text.contains("S(t): start 120"), "{text}");
    assert!(text.contains("Z(t): start 120.000"), "{text}");
    assert!(text.contains("distinct 2 -> 1"), "{text}");
}

#[test]
fn sample_every_zero_is_rejected() {
    let out = divlab(&["stats", "--graph", "complete:10", "--sample-every", "0"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--sample-every"), "{}", stderr(&out));
}

#[test]
fn batch_campaign_telemetry_error_carries_data_loss_exit_code() {
    // Regression: a `--telemetry` exporter failure must surface as exit
    // code 4 through the *native* batch observed path exactly as it does
    // on the fast path — the affected trial runs unobserved (the
    // trajectories are unchanged), its lane-mates keep their files, and
    // the loss is reported at exit.
    let dir = temp_file("batch-telemetry-err", "d");
    std::fs::create_dir_all(&dir).unwrap();
    // Block trial 0's telemetry file with a *directory* of the same
    // name: File::create fails with EISDIR even when running as root.
    let seed0 = div_sim::SeedSequence::seed_for(1, 0);
    std::fs::create_dir(dir.join(format!("trial-{seed0:020}.jsonl"))).unwrap();
    let out = divlab(&[
        "campaign",
        "--graph",
        "complete:30",
        "--init",
        "blocks:1x15,5x15",
        "--engine",
        "batch",
        "--seed",
        "1",
        "--trials",
        "3",
        "--threads",
        "1",
        "--telemetry",
        dir.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(4), "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).contains("running trial unobserved"),
        "stderr: {}",
        stderr(&out)
    );
    let written = std::fs::read_dir(&dir)
        .unwrap()
        .filter(|e| e.as_ref().unwrap().path().is_file())
        .count();
    assert_eq!(written, 2, "the other trials' telemetry files");
    assert!(
        stderr(&out).contains("telemetry lost for 1 trial(s)"),
        "stderr: {}",
        stderr(&out)
    );
    // The campaign itself still completed and reported.
    assert!(
        stdout(&out).contains("outcomes converged=3"),
        "{}",
        stdout(&out)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn campaign_threads_flag_is_honoured_on_every_engine() {
    // --threads used to be applied only when the engine was (still)
    // `batch` at config time; it now pins the campaign worker pool for
    // scalar engines too, and the report stays a pure function of the
    // seed whatever the thread count.
    let run = |threads: &str| {
        divlab(&[
            "campaign",
            "--graph",
            "complete:30",
            "--init",
            "blocks:1x15,5x15",
            "--engine",
            "fast",
            "--seed",
            "5",
            "--trials",
            "6",
            "--threads",
            threads,
        ])
    };
    let one = run("1");
    let four = run("4");
    assert!(one.status.success(), "stderr: {}", stderr(&one));
    assert!(four.status.success(), "stderr: {}", stderr(&four));
    assert_eq!(
        stdout(&one),
        stdout(&four),
        "thread count must not change the report"
    );
}

#[test]
fn wide_span_single_run_runs_batch_natively_and_matches_fast() {
    // Regression: a span-70k init (wider than 2¹⁶) used to hard-error the
    // batch engine with SpanTooLarge (exit 2).  Lane columns now hold the
    // fast engine's 2²⁴ span, so the batch lane runs it natively and
    // replays the fast engine's run exactly.
    let run = |engine: &'static str| {
        divlab(&[
            "run",
            "--graph",
            "complete:64",
            "--init",
            "blocks:0x32,70000x32",
            "--engine",
            engine,
            "--budget",
            "50000",
            "--seed",
            "3",
        ])
    };
    let (batch, fast) = (run("batch"), run("fast"));
    assert_eq!(batch.status.code(), Some(3), "stderr: {}", stderr(&batch));
    assert_eq!(fast.status.code(), Some(3), "stderr: {}", stderr(&fast));
    // The verdict lines differ only in the engine label.
    assert_eq!(
        stdout(&batch).replace("batch engine", "fast engine"),
        stdout(&fast),
        "wide-span batch and fast single runs diverged"
    );
}

#[test]
fn wide_span_campaign_runs_batch_natively_and_matches_fast() {
    // Same regression, campaign path: the lane groups hold the span, the
    // report renders (including the empty phase-step summary when no
    // trial converges within the budget), is byte-identical to the fast
    // engine's, and the exit code is the degraded 3, not a failure.
    let run = |engine: &'static str| {
        divlab(&[
            "campaign",
            "--graph",
            "complete:64",
            "--init",
            "blocks:0x32,70000x32",
            "--engine",
            engine,
            "--trials",
            "3",
            "--budget",
            "20000",
            "--seed",
            "3",
        ])
    };
    let (batch, fast) = (run("batch"), run("fast"));
    assert_eq!(batch.status.code(), Some(3), "stderr: {}", stderr(&batch));
    assert_eq!(fast.status.code(), Some(3), "stderr: {}", stderr(&fast));
    assert!(
        stdout(&batch).contains("steps-to-consensus none (no converged trials)"),
        "stdout: {}",
        stdout(&batch)
    );
    assert!(
        stdout(&batch).contains("outcomes converged=0 two-adjacent=0 timeout=3"),
        "stdout: {}",
        stdout(&batch)
    );
    assert_eq!(
        stdout(&batch),
        stdout(&fast),
        "wide-span batch campaign report must be byte-identical to the fast engine's"
    );
}

#[test]
fn budget_one_all_timeout_campaign_reports_cleanly() {
    // Regression: an all-timeout campaign must render a well-formed
    // report (no panicking min()/max() over an empty converged set).
    let out = divlab(&[
        "campaign",
        "--graph",
        "complete:30",
        "--init",
        "blocks:1x15,5x15",
        "--engine",
        "fast",
        "--trials",
        "4",
        "--budget",
        "1",
        "--seed",
        "7",
    ]);
    assert_eq!(out.status.code(), Some(3), "stderr: {}", stderr(&out));
    assert!(
        stdout(&out).contains("outcomes converged=0 two-adjacent=0 timeout=4 panicked=0"),
        "stdout: {}",
        stdout(&out)
    );
    assert!(
        stdout(&out).contains("steps-to-consensus none (no converged trials)"),
        "stdout: {}",
        stdout(&out)
    );
}

#[test]
fn sharded_engine_single_run_is_deterministic() {
    let run = || {
        divlab(&[
            "run",
            "--graph",
            "complete:60",
            "--init",
            "blocks:1x30,5x30",
            "--engine",
            "sharded",
            "--shards",
            "3",
            "--seed",
            "11",
        ])
    };
    let a = run();
    let b = run();
    assert!(a.status.success(), "stderr: {}", stderr(&a));
    assert!(
        stdout(&a).contains("sharded engine, 3 shards"),
        "stdout: {}",
        stdout(&a)
    );
    assert_eq!(stdout(&a), stdout(&b), "same seed + shards must replay");
}

#[test]
fn sharded_campaign_thread_count_never_changes_the_report() {
    let run = |threads: &str| {
        divlab(&[
            "campaign",
            "--graph",
            "complete:40",
            "--init",
            "blocks:1x20,5x20",
            "--engine",
            "sharded",
            "--shards",
            "4",
            "--seed",
            "5",
            "--trials",
            "4",
            "--threads",
            threads,
        ])
    };
    let one = run("1");
    let four = run("4");
    assert!(one.status.success(), "stderr: {}", stderr(&one));
    assert_eq!(
        stdout(&one),
        stdout(&four),
        "in-trial thread count must not change the report"
    );
}

/// Runs a telemetry campaign into a fresh dir and returns every trace,
/// keyed by file name, with the one wall-clock field (the final
/// record's `elapsed_ns`) truncated away — everything before it is
/// deterministic simulation state.
fn traces_of(
    engine: &str,
    threads: &str,
    label: &str,
) -> std::collections::BTreeMap<String, String> {
    let dir = temp_file(label, "d");
    let out = divlab(&[
        "campaign",
        "--graph",
        "complete:40",
        "--init",
        "blocks:1x20,5x20",
        "--engine",
        engine,
        "--shards",
        "4",
        "--seed",
        "5",
        "--trials",
        "4",
        "--threads",
        threads,
        "--telemetry",
        dir.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(
        !stderr(&out).contains("falling back"),
        "{engine} telemetry must run natively: {}",
        stderr(&out)
    );
    let mut traces = std::collections::BTreeMap::new();
    for entry in std::fs::read_dir(&dir).expect("telemetry dir") {
        let entry = entry.unwrap();
        let text = std::fs::read_to_string(entry.path()).unwrap();
        let deterministic = match text.find("\"elapsed_ns\"") {
            Some(at) => text[..at].to_string(),
            None => text,
        };
        traces.insert(
            entry.file_name().to_string_lossy().into_owned(),
            deterministic,
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(traces.len(), 4, "one trace per trial");
    traces
}

#[test]
fn batch_sampled_telemetry_is_thread_count_invariant() {
    // Engine-native samples land on the block lattice, a pure function
    // of the trial seed — the campaign worker count must not change a
    // single byte of any trace.
    assert_eq!(
        traces_of("batch", "1", "batch-t1"),
        traces_of("batch", "4", "batch-t4")
    );
}

#[test]
fn sharded_sampled_telemetry_is_thread_count_invariant() {
    // Sharded samples combine at round boundaries from per-shard
    // registers; the in-trial thread pool only changes wall-clock.
    assert_eq!(
        traces_of("sharded", "1", "sharded-t1"),
        traces_of("sharded", "4", "sharded-t4")
    );
}

#[test]
fn sharded_engine_with_faults_demotes_to_fast() {
    let out = divlab(&[
        "run",
        "--graph",
        "complete:40",
        "--init",
        "blocks:1x20,5x20",
        "--engine",
        "sharded",
        "--faults",
        "drop:0.2",
        "--seed",
        "2",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).contains("falling back to --engine fast"),
        "stderr: {}",
        stderr(&out)
    );
    assert!(
        stdout(&out).contains("fast engine"),
        "stdout: {}",
        stdout(&out)
    );
}

#[test]
fn single_run_fault_counters_reach_the_metrics_endpoint_under_telemetry() {
    // Regression: an observed single run printed its fault counters but
    // never published them, so `/metrics` reported zero drops whenever
    // `--telemetry` was on.  The scrape taken during the linger window
    // must agree with the printed `faults:` line, counter for counter.
    use std::io::{BufRead, BufReader, Read, Write};
    use std::process::Stdio;
    for engine in ["reference", "fast"] {
        let path = temp_file("faulty-telemetry", "jsonl");
        let mut child = Command::new(env!("CARGO_BIN_EXE_divlab"))
            .args([
                "run",
                "--graph",
                "complete:30",
                "--init",
                "blocks:1x15,5x15",
                "--engine",
                engine,
                "--seed",
                "5",
                "--faults",
                "drop:0.3",
                "--telemetry",
                path.to_str().unwrap(),
                "--serve",
                "127.0.0.1:0",
                "--serve-linger",
                "3",
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("divlab spawns");
        let mut err = BufReader::new(child.stderr.take().unwrap());
        let addr = loop {
            let mut line = String::new();
            assert!(
                err.read_line(&mut line).unwrap() > 0,
                "no endpoint announced"
            );
            if let Some(a) = line.trim().strip_prefix("divlab: serving metrics on ") {
                break a.to_string();
            }
        };
        // Stdout is flushed when the run finishes, before the linger.
        let mut out = BufReader::new(child.stdout.take().unwrap());
        let printed = loop {
            let mut line = String::new();
            assert!(out.read_line(&mut line).unwrap() > 0, "no faults line");
            if let Some(rest) = line.trim().strip_prefix("faults: ") {
                break rest.to_string();
            }
        };
        let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        let mut scraped = String::new();
        stream.read_to_string(&mut scraped).unwrap();
        let counter = |kind: &str| {
            let prefix = format!("div_fault_events_total{{kind=\"{kind}\"}} ");
            scraped
                .lines()
                .find_map(|l| l.strip_prefix(prefix.as_str()))
                .unwrap_or_else(|| panic!("no {kind} counter in {scraped}"))
                .to_string()
        };
        let mut dropped = 0u64;
        for field in printed.split_whitespace() {
            let (name, value) = field.split_once('=').unwrap();
            let kind = match name {
                "stale" => "stale_reads",
                "crashes" => "crashes",
                other => other,
            };
            assert_eq!(counter(kind), value, "{engine}: {kind} ({printed})");
            if name == "dropped" {
                dropped = value.parse().unwrap();
            }
        }
        assert!(
            dropped > 0,
            "{engine}: drop:0.3 dropped nothing ({printed})"
        );
        assert!(child.wait().unwrap().success(), "{engine} run failed");
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn unknown_flags_are_usage_errors_naming_the_flag() {
    for (args, flag) in [
        (
            &[
                "campaign",
                "--graph",
                "complete:30",
                "--trials",
                "4",
                "--engine",
                "batch",
                "--lane",
                "0",
            ][..],
            "--lane",
        ),
        (
            &[
                "campaign",
                "--graph",
                "complete:30",
                "--trials",
                "4",
                "--theads",
                "3",
            ][..],
            "--theads",
        ),
        (
            &["spectral", "--graph", "complete:10", "--trials", "3"][..],
            "--trials",
        ),
        (
            &["run", "--graph", "complete:10", "--detach"][..],
            "--detach",
        ),
        // divd journals every trial and writes no manifest to flush.
        (
            &[
                "submit",
                "--server",
                "127.0.0.1:9",
                "--graph",
                "complete:10",
                "--checkpoint-every",
                "4",
            ][..],
            "--checkpoint-every",
        ),
    ] {
        let out = divlab(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
        assert!(
            stderr(&out).contains(&format!("unknown flag {flag} for divlab {}", args[0])),
            "{args:?}: {}",
            stderr(&out)
        );
    }
}

/// Adds the `(subcommand, --flag)` pairs of every `divlab <subcommand> …`
/// invocation in `text` (one invocation per line; comment lines skipped).
fn collect_invocations(text: &str, pairs: &mut std::collections::BTreeSet<(String, String)>) {
    for line in text.lines().filter(|l| !l.trim_start().starts_with('#')) {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        for (i, token) in tokens.iter().enumerate() {
            if !(token.ends_with("/divlab") || matches!(*token, "divlab" | "$DIVLAB")) {
                continue;
            }
            let mut rest = tokens[i + 1..].iter().skip_while(|t| **t == "--");
            let Some(command) = rest.next() else { continue };
            if !command.chars().all(|c| c.is_ascii_alphanumeric()) {
                continue;
            }
            for t in rest.take_while(|t| !matches!(**t, "&" | "|" | "||" | "&&" | ">" | "2>")) {
                if t.len() > 2 && t.starts_with("--") {
                    pairs.insert((command.to_string(), t.to_string()));
                }
            }
        }
    }
}

/// Every `(subcommand, --flag)` pair that a documented or scripted
/// `divlab` invocation uses: the README's code blocks, the CI workflow
/// (with each step's `$ARGS` expanded) and the benchmark's `divlab
/// campaign` command line.
fn documented_invocations() -> std::collections::BTreeSet<(String, String)> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let read =
        |p: &str| std::fs::read_to_string(root.join(p)).unwrap_or_else(|e| panic!("read {p}: {e}"));
    let mut pairs = std::collections::BTreeSet::new();
    let mut code = String::new();
    let mut in_code = false;
    for line in read("README.md").lines() {
        if line.trim_start().starts_with("```") {
            in_code = !in_code;
        } else if in_code {
            code.push_str(line);
            code.push('\n');
        }
    }
    collect_invocations(&code.replace("\\\n", " "), &mut pairs);
    let mut ci = String::new();
    let mut args = String::new();
    for line in read(".github/workflows/ci.yml")
        .replace("\\\n", " ")
        .lines()
    {
        if let Some(v) = line.trim().strip_prefix("ARGS=\"") {
            args = v.trim_end_matches('"').to_string();
        }
        ci.push_str(&line.replace("$ARGS", &args));
        ci.push('\n');
    }
    collect_invocations(&ci, &mut pairs);
    for literal in read("benchmark/src/workload.rs").split('"') {
        if literal.len() > 2 && literal.starts_with("--") && !literal.contains(' ') {
            pairs.insert(("campaign".to_string(), literal.to_string()));
        }
    }
    pairs
}

#[test]
fn every_documented_and_scripted_flag_is_accepted() {
    let pairs = documented_invocations();
    assert!(pairs.len() >= 40, "too few invocations found: {pairs:?}");
    for command in ["run", "campaign", "stats", "compare", "analyze", "submit"] {
        assert!(
            pairs.iter().any(|(c, _)| c == command),
            "no {command} invocation found: {pairs:?}"
        );
    }
    for (command, flag) in &pairs {
        // Each probe stops at its first usage error (a missing --graph,
        // --traces or --server, or the junk value) before doing any work.
        let mut args = vec![command.as_str(), flag.as_str()];
        if !matches!(
            flag.as_str(),
            "--trace" | "--resume" | "--detach" | "--watch"
        ) {
            args.push("-");
        }
        let out = divlab(&args);
        let err = stderr(&out);
        assert!(
            !err.contains("unknown flag") && !err.contains("unknown command"),
            "divlab {command} rejects documented flag {flag}: {err}"
        );
    }
}
