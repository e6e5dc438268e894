//! The benchmark's surroundings: building the programs under test,
//! measuring child processes, and the host fingerprint every result file
//! records.

use std::io;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::json::Json;

/// Where the benchmark runs: the checkout root, the freshly built
/// release binaries, and a private scratch directory inside the build
/// directory (so every file the benchmark writes stays in the checkout).
#[derive(Debug)]
pub struct Env {
    /// The checkout root (the working directory).
    pub root: PathBuf,
    /// `divlab` release binary.
    pub divlab: PathBuf,
    /// `divd` release binary.
    pub divd: PathBuf,
    /// Scratch directory, removed when the [`Env`] drops.
    pub work: PathBuf,
}

impl Env {
    /// Builds `divlab` and `divd` in release mode from the checkout at
    /// `root` and creates the scratch directory.
    ///
    /// # Errors
    ///
    /// When `root` is not a checkout or the build fails.
    pub fn prepare(root: &Path) -> Result<Env, String> {
        let root = root.to_path_buf();
        if !root.join("Cargo.toml").is_file() || !root.join("crates/divd").is_dir() {
            return Err(format!(
                "{} is not the repository root (run the benchmark from the checkout root)",
                root.display()
            ));
        }
        let target = match std::env::var_os("CARGO_TARGET_DIR") {
            Some(dir) => root.join(dir),
            None => root.join("target"),
        };
        let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
        let status = Command::new(cargo)
            .args(["build", "--release", "--offline", "--quiet"])
            .args([
                "-p",
                "div-bench",
                "--bin",
                "divlab",
                "-p",
                "divd",
                "--bin",
                "divd",
            ])
            .current_dir(&root)
            .env("CARGO_TARGET_DIR", &target)
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("cannot run cargo: {e}"))?;
        if !status.success() {
            return Err(format!("building divlab and divd failed ({status})"));
        }
        let work = target.join("divbench").join(std::process::id().to_string());
        std::fs::create_dir_all(&work)
            .map_err(|e| format!("cannot create {}: {e}", work.display()))?;
        Ok(Env {
            divlab: target.join("release/divlab"),
            divd: target.join("release/divd"),
            root,
            work,
        })
    }

    /// A fresh, empty scratch subdirectory.
    pub fn fresh_dir(&self, name: &str) -> PathBuf {
        let dir = self.work.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch directory is writable");
        dir
    }
}

impl Drop for Env {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.work);
    }
}

/// A finished child process.
#[derive(Debug)]
pub struct Exit {
    /// Spawn → exit, in seconds.
    pub wall_s: f64,
    /// The exit code (`None` when killed by a signal).
    pub code: Option<i32>,
    /// Captured standard output.
    pub stdout: String,
    /// Captured standard error.
    pub stderr: String,
    /// Highest `VmHWM` seen while the process ran, in MB.
    pub peak_rss_mb: f64,
}

/// Runs `cmd` to completion, timing spawn → exit and polling its
/// resident-set high-water mark every few milliseconds from a second
/// thread (so the wait itself, and therefore the wall time, is exact).
///
/// # Errors
///
/// When the program cannot be started.
pub fn run_measured(cmd: &mut Command) -> io::Result<Exit> {
    let start = Instant::now();
    let child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()?;
    let pid = child.id();
    let done = AtomicBool::new(false);
    let (out, peak) = std::thread::scope(|s| {
        let poller = s.spawn(|| {
            let mut peak = 0.0f64;
            while !done.load(Ordering::SeqCst) {
                if let Some(mb) = vm_hwm_mb(pid) {
                    peak = peak.max(mb);
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            peak
        });
        let out = child.wait_with_output();
        done.store(true, Ordering::SeqCst);
        (out, poller.join().expect("rss poller does not panic"))
    });
    let out = out?;
    Ok(Exit {
        wall_s: start.elapsed().as_secs_f64(),
        code: out.status.code(),
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
        peak_rss_mb: peak,
    })
}

/// `VmHWM` (peak resident set) of a live process, in MB.
pub fn vm_hwm_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// The host fingerprint recorded with every result: cores, CPU model and
/// vector features, the kernel tier the engines dispatch to, the kernel,
/// the filesystem under the scratch directory, the compiler and the
/// commit.
pub fn fingerprint(env: &Env) -> Json {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |key: &str| {
        cpuinfo
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim().to_string())
            .unwrap_or_default()
    };
    let flags = field("flags");
    let vector: Vec<Json> = flags
        .split_whitespace()
        .filter(|f| f.starts_with("sse4") || f.starts_with("avx") || *f == "fma" || *f == "bmi2")
        .map(|f| Json::Str(f.to_string()))
        .collect();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let git = if env.root.join(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"], &env.root)
    } else {
        "unknown (not a git checkout)".to_string()
    };
    Json::Obj(vec![
        ("nproc".into(), Json::Num(nproc as f64)),
        ("cpu_model".into(), Json::Str(field("model name"))),
        ("cpu_features".into(), Json::Arr(vector)),
        (
            "kernel_tier".into(),
            Json::Str(div_core::KernelTier::active().name().to_string()),
        ),
        (
            "kernel".into(),
            Json::Str(read_trimmed(Path::new("/proc/sys/kernel/osrelease"))),
        ),
        ("data_fs".into(), Json::Str(filesystem_of(&env.work))),
        (
            "rustc".into(),
            Json::Str(command_line("rustc", &["-V"], &env.root)),
        ),
        ("git_commit".into(), Json::Str(git)),
    ])
}

fn read_trimmed(path: &Path) -> String {
    std::fs::read_to_string(path)
        .map(|s| s.trim().to_string())
        .unwrap_or_default()
}

fn command_line(program: &str, args: &[&str], dir: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(dir)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The type of the filesystem mounted deepest above `path`.
fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, mount, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}
