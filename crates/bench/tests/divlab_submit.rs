//! End-to-end tests for `divlab submit` — the client mode for a `divd`
//! daemon — against a real in-process daemon.  The headline check:
//! submitting a spec to the daemon prints the byte-identical report a
//! local `divlab campaign` with the same flags prints.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};

use divd::{Daemon, DaemonConfig};

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

fn temp_dir(label: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "divlab-submit-{label}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start_daemon(label: &str) -> (Daemon, String, PathBuf) {
    let dir = temp_dir(label);
    let mut cfg = DaemonConfig::new(&dir);
    cfg.workers = 1;
    let daemon = Daemon::start(cfg).unwrap();
    let addr = daemon.local_addr().to_string();
    (daemon, addr, dir)
}

const CAMPAIGN_FLAGS: &[&str] = &[
    "--graph",
    "complete:30",
    "--init",
    "blocks:1x15,5x15",
    "--engine",
    "fast",
    "--seed",
    "7",
    "--trials",
    "5",
];

#[test]
fn submit_prints_the_byte_identical_local_campaign_report() {
    let (daemon, addr, dir) = start_daemon("identical");
    let variants: &[&[&str]] = &[
        &["--engine", "fast"],
        &["--engine", "batch", "--lanes", "2"],
        &["--engine", "reference"],
        &["--engine", "sharded", "--shards", "3", "--threads", "2"],
        &["--engine", "fast", "--faults", "drop:0.1"],
    ];
    let mut reports = Vec::new();
    for extra in variants {
        let mut flags: Vec<&str> = CAMPAIGN_FLAGS
            .chunks(2)
            .filter(|kv| kv[0] != "--engine")
            .flatten()
            .copied()
            .collect();
        flags.extend_from_slice(extra);

        let mut args = vec!["submit", "--server", addr.as_str()];
        args.extend_from_slice(&flags);
        let remote = divlab(&args);
        assert_eq!(
            remote.status.code(),
            Some(0),
            "{extra:?}: {}",
            stderr(&remote)
        );

        let mut args = vec!["campaign"];
        args.extend_from_slice(&flags);
        let local = divlab(&args);
        assert_eq!(
            local.status.code(),
            Some(0),
            "{extra:?}: {}",
            stderr(&local)
        );

        // `campaign` prefixes the report with the graph banner; everything
        // from the report header on must match the daemon's bytes exactly.
        let local_out = stdout(&local);
        let report_at = local_out
            .find("campaign master=")
            .expect("local campaign prints a report");
        assert_eq!(
            stdout(&remote),
            &local_out[report_at..],
            "{extra:?}: daemon-produced report differs from the local campaign's"
        );
        reports.push(stdout(&remote));
    }
    // The sharded and faulty campaigns really ran something else.
    assert_ne!(reports[3], reports[0]);
    assert_ne!(reports[4], reports[0]);
    daemon.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn submit_maps_degraded_campaigns_to_exit_three() {
    let (daemon, addr, dir) = start_daemon("degraded");
    // Stubborn vertices make consensus impossible: every trial times
    // out, the campaign completes degraded, and submit exits 3 exactly
    // like a local degraded campaign.
    let out = divlab(&[
        "submit",
        "--server",
        addr.as_str(),
        "--graph",
        "cycle:32",
        "--faults",
        "stubborn:3",
        "--budget",
        "20000",
        "--trials",
        "3",
        "--watch",
    ]);
    assert_eq!(out.status.code(), Some(3), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("timeout=3"), "{}", stdout(&out));
    assert!(stderr(&out).contains("degraded"), "{}", stderr(&out));
    // --watch mirrored the streamed per-trial lines to stderr.
    assert!(stderr(&out).contains("trial 0 timeout"), "{}", stderr(&out));
    assert!(stderr(&out).contains("end completed"), "{}", stderr(&out));
    daemon.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn submit_detach_returns_the_id_without_waiting() {
    let (daemon, addr, dir) = start_daemon("detach");
    let mut args = vec!["submit", "--server", addr.as_str(), "--detach"];
    args.extend_from_slice(CAMPAIGN_FLAGS);
    let out = divlab(&args);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert_eq!(stdout(&out), "id 1\n");
    daemon.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn submit_surfaces_server_rejections_cleanly() {
    let dir = temp_dir("reject");
    let mut cfg = DaemonConfig::new(&dir);
    cfg.workers = 1;
    cfg.queue_capacity = 1;
    let daemon = Daemon::start(cfg).unwrap();
    let addr = daemon.local_addr().to_string();

    // Occupy the worker with a slow campaign, fill the 1-deep queue,
    // then the third submission must be a clean queue-full error.
    let slow: &[&str] = &[
        "--graph",
        "cycle:64",
        "--faults",
        "stubborn:3",
        "--budget",
        "400000",
        "--trials",
        "40",
    ];
    let mut first = vec!["submit", "--server", addr.as_str(), "--detach"];
    first.extend_from_slice(slow);
    assert_eq!(divlab(&first).status.code(), Some(0));
    // Wait until the worker claimed the first job (queue empty again).
    let started = std::time::Instant::now();
    loop {
        let probe = divlab(&[
            "submit",
            "--server",
            addr.as_str(),
            "--detach",
            "--graph",
            "complete:10",
            "--trials",
            "1",
        ]);
        if probe.status.code() == Some(0) {
            break; // this one now occupies the queue slot
        }
        assert!(
            started.elapsed() < std::time::Duration::from_secs(30),
            "worker never claimed the slow job"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let mut third = vec!["submit", "--server", addr.as_str()];
    third.extend_from_slice(CAMPAIGN_FLAGS);
    let out = divlab(&third);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("queue full"), "{}", stderr(&out));

    // Bad specs come back as the daemon's 400 message, not a hang.
    let out = divlab(&["submit", "--server", addr.as_str(), "--graph", "unknown:9"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("unknown family"), "{}", stderr(&out));
    daemon.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn submit_requires_server_and_graph() {
    let out = divlab(&["submit", "--graph", "complete:10"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--server"), "{}", stderr(&out));
    let out = divlab(&["submit", "--server", "127.0.0.1:1"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--graph"), "{}", stderr(&out));
}
