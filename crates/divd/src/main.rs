//! The `divd` binary: flag parsing, signal handling, and the drain loop
//! around [`divd::Daemon`].
//!
//! This is the one place in the workspace that uses `unsafe`: a
//! two-line `signal(2)` registration so SIGTERM/SIGINT trigger the same
//! graceful drain as `POST /admin/drain`.  The handler only stores an
//! `AtomicBool` (async-signal-safe); all real work happens on the main
//! thread's poll loop.

use std::collections::HashMap;
use std::process::exit;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use divd::{Daemon, DaemonConfig};

static SIGNALLED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    SIGNALLED.store(true, Ordering::SeqCst);
}

#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler: extern "C" fn(i32) = on_signal;
    // SAFETY: registering an async-signal-safe handler (a single atomic
    // store) for signals whose default would kill us anyway.
    unsafe {
        signal(SIGTERM, handler as usize);
        signal(SIGINT, handler as usize);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

const USAGE: &str = "usage: divd --data DIR [--addr HOST:PORT] [--workers N] [--queue-cap N]
  --data DIR        data directory (oplog, reports, span traces, endpoint file)
  --addr HOST:PORT  bind address (default 127.0.0.1:0 = any free port)
  --workers N       concurrent campaign workers (default 2)
  --queue-cap N     work queue capacity; beyond it submissions get 429 (default 32)

The bound address is written to DIR/endpoint.  SIGTERM or SIGINT (or
POST /admin/drain) drains gracefully: admission stops, in-flight
campaigns journal the trials they had running and the oplog is sealed;
unfinished jobs resume from their journalled trials on the next start.";

fn parse_flags(args: impl Iterator<Item = String>) -> Result<HashMap<String, String>, String> {
    let mut opts = HashMap::new();
    let mut it = args.peekable();
    while let Some(arg) = it.next() {
        let Some(key) = arg.strip_prefix("--") else {
            return Err(format!("unexpected argument {arg:?}"));
        };
        if key == "help" {
            println!("{USAGE}");
            exit(0);
        }
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        opts.insert(key.to_string(), value);
    }
    Ok(opts)
}

fn config_from(opts: &HashMap<String, String>) -> Result<DaemonConfig, String> {
    let data = opts.get("data").ok_or("missing --data DIR")?;
    let mut cfg = DaemonConfig::new(data);
    if let Some(addr) = opts.get("addr") {
        cfg.addr = addr.clone();
    }
    if let Some(v) = opts.get("workers") {
        cfg.workers = v.parse().map_err(|_| "bad --workers")?;
    }
    if let Some(v) = opts.get("queue-cap") {
        cfg.queue_capacity = v.parse().map_err(|_| "bad --queue-cap")?;
        if cfg.queue_capacity == 0 {
            return Err("--queue-cap must be at least 1".to_string());
        }
    }
    for key in opts.keys() {
        if !matches!(key.as_str(), "data" | "addr" | "workers" | "queue-cap") {
            return Err(format!("unknown flag --{key}"));
        }
    }
    Ok(cfg)
}

fn main() {
    let cfg = match parse_flags(std::env::args().skip(1)).and_then(|o| config_from(&o)) {
        Ok(cfg) => cfg,
        Err(msg) => {
            eprintln!("divd: {msg}\n{USAGE}");
            exit(2);
        }
    };
    install_signal_handlers();
    let daemon = match Daemon::start(cfg) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("divd: startup failed: {e}");
            exit(2);
        }
    };
    eprintln!("divd: listening on http://{}", daemon.local_addr());

    while !SIGNALLED.load(Ordering::SeqCst) && !daemon.draining() {
        std::thread::sleep(Duration::from_millis(100));
    }
    eprintln!("divd: draining (finishing in-flight trials, sealing oplog)");
    daemon.drain();
    eprintln!("divd: drained cleanly");
}
