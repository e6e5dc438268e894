//! Campaign job specifications and the job state machine.
//!
//! A [`JobSpec`] is the daemon's submission format: a line-based
//! `key value` text document (one pair per line, `#` comments and blank
//! lines ignored) that fully determines a campaign:
//!
//! ```text
//! graph complete:64        # required; divlab graph spec grammar
//! init uniform:5           # divlab opinion spec grammar
//! scheduler edge           # edge | vertex
//! engine fast              # fast | batch | reference
//! seed 42                  # campaign master seed
//! trials 100
//! budget 1000000000        # per-trial step budget
//! faults none              # divlab fault spec grammar
//! lanes 8                  # batch engine lane-group width
//! threads 0                # campaign worker threads (0 = auto)
//! checkpoint-every 16      # trials between checkpoint flushes
//! ```
//!
//! Each key may appear at most once.  [`JobSpec::render`] is canonical (every key, fixed order), so a spec
//! round-trips bit-exactly through the oplog and a recovered daemon
//! re-derives the *identical* campaign configuration — the foundation
//! of the byte-identical resumed-report guarantee.

use std::fmt;

use div_bench::trial::{parse_scheduler, Engine};
use div_core::{FastScheduler, FaultPlan};
use div_graph::Graph;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The engines a job may name.
const JOB_ENGINES: [Engine; 3] = [Engine::Fast, Engine::Batch, Engine::Reference];

/// A parsed, validated campaign submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Graph spec (divlab grammar, e.g. `complete:64`, `gnp:100:0.1`).
    pub graph: String,
    /// Opinion spec (divlab grammar, e.g. `uniform:5`).
    pub init: String,
    /// `edge` or `vertex` (see [`JobSpec::kind`]).
    pub scheduler: String,
    /// `fast`, `batch` or `reference` (see [`JobSpec::engine`]).
    pub engine: String,
    /// Campaign master seed.
    pub seed: u64,
    /// Total trial count.
    pub trials: usize,
    /// Per-trial step budget.
    pub budget: u64,
    /// Fault plan spec (divlab grammar; `none` for the empty plan).
    pub faults: String,
    /// Batch engine lane-group width.
    pub lanes: usize,
    /// Campaign worker threads (0 = available parallelism).
    pub threads: usize,
    /// Completed trials between checkpoint flushes.
    pub checkpoint_every: usize,
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            graph: String::new(),
            init: "uniform:5".to_string(),
            scheduler: "edge".to_string(),
            engine: Engine::Fast.name().to_string(),
            seed: 1,
            trials: 10,
            budget: 1_000_000_000,
            faults: "none".to_string(),
            lanes: 8,
            threads: 0,
            checkpoint_every: 16,
        }
    }
}

impl JobSpec {
    /// Parses the line-based submission format; see the module docs.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown or repeated keys,
    /// malformed values, out-of-range knobs or a missing `graph`.
    pub fn parse(text: &str) -> Result<JobSpec, String> {
        let mut spec = JobSpec::default();
        let mut seen: Vec<&str> = Vec::new();
        for (no, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .split_once(char::is_whitespace)
                .ok_or_else(|| format!("line {}: expected `key value`, got {line:?}", no + 1))?;
            if seen.contains(&key) {
                return Err(format!("line {}: duplicate key {key:?}", no + 1));
            }
            seen.push(key);
            let value = value.trim();
            let int = |what: &str| -> Result<u64, String> {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("line {}: {what} needs an integer, got {value:?}", no + 1))
            };
            match key {
                "graph" => spec.graph = value.to_string(),
                "init" => spec.init = value.to_string(),
                "scheduler" => spec.scheduler = value.to_string(),
                "engine" => spec.engine = value.to_string(),
                "faults" => spec.faults = value.to_string(),
                "seed" => spec.seed = int("seed")?,
                "budget" => spec.budget = int("budget")?,
                "trials" => spec.trials = int("trials")? as usize,
                "lanes" => spec.lanes = int("lanes")? as usize,
                "threads" => spec.threads = int("threads")? as usize,
                "checkpoint-every" => spec.checkpoint_every = int("checkpoint-every")? as usize,
                other => return Err(format!("line {}: unknown key {other:?}", no + 1)),
            }
        }
        spec.check()?;
        Ok(spec)
    }

    /// Structural validation (cheap; no graph construction).
    fn check(&self) -> Result<(), String> {
        if self.graph.is_empty() {
            return Err("missing required key `graph`".to_string());
        }
        self.kind()?;
        self.engine()?;
        if self.trials == 0 {
            return Err("trials must be at least 1".to_string());
        }
        if self.lanes == 0 {
            return Err("lanes must be at least 1".to_string());
        }
        if self.checkpoint_every == 0 {
            return Err("checkpoint-every must be at least 1".to_string());
        }
        Ok(())
    }

    /// The compiled scheduler `scheduler` names.
    ///
    /// # Errors
    ///
    /// Names anything but `edge` or `vertex`.
    pub fn kind(&self) -> Result<FastScheduler, String> {
        parse_scheduler(&self.scheduler)
    }

    /// The engine `engine` names.  The daemon runs every engine but the
    /// sharded one, whose per-trial shard count has no job-spec key.
    ///
    /// # Errors
    ///
    /// Names any other engine.
    pub fn engine(&self) -> Result<Engine, String> {
        Engine::parse(&self.engine)
            .filter(|e| JOB_ENGINES.contains(e))
            .ok_or_else(|| {
                format!(
                    "unknown engine {:?} (use {})",
                    self.engine,
                    Engine::list(&JOB_ENGINES)
                )
            })
    }

    /// The canonical rendering: every key, fixed order, one per line.
    /// `JobSpec::parse(spec.render())` round-trips bit-exactly.
    pub fn render(&self) -> String {
        format!(
            "graph {}\ninit {}\nscheduler {}\nengine {}\nseed {}\ntrials {}\nbudget {}\n\
             faults {}\nlanes {}\nthreads {}\ncheckpoint-every {}\n",
            self.graph,
            self.init,
            self.scheduler,
            self.engine,
            self.seed,
            self.trials,
            self.budget,
            self.faults,
            self.lanes,
            self.threads,
            self.checkpoint_every
        )
    }

    /// The checkpoint-manifest fingerprint for this spec.  Stable across
    /// daemon restarts (a pure function of the spec), so a recovered
    /// daemon resumes the manifest its predecessor wrote.
    pub fn tag(&self) -> String {
        format!(
            "divd {} {} {} {} {} {}",
            self.graph, self.init, self.scheduler, self.engine, self.faults, self.budget
        )
    }

    /// Materialises the campaign inputs: graph, initial opinions and the
    /// fault plan, all derived deterministically from `seed` exactly like
    /// `divlab` derives them (same RNG, same draw order).
    ///
    /// # Errors
    ///
    /// Returns the underlying spec-grammar error (bad graph family,
    /// disconnected graph, invalid opinion blocks, bad fault clause).
    pub fn build(&self) -> Result<(Graph, Vec<i64>, FaultPlan), String> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let graph = div_bench::spec::parse_graph(&self.graph, &mut rng)?;
        if !div_graph::algo::is_connected(&graph) {
            return Err(format!(
                "graph {:?} is not connected; voting cannot reach consensus",
                self.graph
            ));
        }
        let opinions = div_bench::spec::parse_opinions(&self.init, graph.num_vertices(), &mut rng)?;
        let faults = FaultPlan::parse(&self.faults)?;
        Ok((graph, opinions, faults))
    }
}

/// Where a job is in its lifecycle.
///
/// ```text
/// Queued ──schedule──▶ Running ──complete──▶ Completed
///    │                    │  └────fail─────▶ Failed
///    └──────cancel────────┴────cancel──────▶ Cancelled
/// ```
///
/// `Completed`, `Cancelled` and `Failed` are terminal.  A `Running` job
/// found in the oplog at startup (a crash) is re-queued and resumed from
/// its checkpoint; a `Running` job with a journalled cancel intent is
/// recovered directly to `Cancelled`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted and waiting in the fair queue.
    Queued,
    /// Claimed by a worker (or was, before a crash).
    Running,
    /// Every trial has an outcome; the report is final.
    Completed,
    /// Cancelled by the client; the partial report is final.
    Cancelled,
    /// The campaign runner returned an error (checkpoint IO, manifest
    /// mismatch); see the job's error message.
    Failed,
}

impl JobState {
    /// Whether the job can make no further progress.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Completed | JobState::Cancelled | JobState::Failed
        )
    }
}

impl fmt::Display for JobState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Completed => "completed",
            JobState::Cancelled => "cancelled",
            JobState::Failed => "failed",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_defaults_and_roundtrip() {
        let spec = JobSpec::parse("graph complete:8\n").unwrap();
        assert_eq!(spec.init, "uniform:5");
        assert_eq!(spec.engine, "fast");
        assert_eq!(spec.seed, 1);
        let canonical = spec.render();
        assert_eq!(JobSpec::parse(&canonical).unwrap(), spec);
        assert_eq!(JobSpec::parse(&canonical).unwrap().render(), canonical);
    }

    #[test]
    fn parse_full_spec() {
        let text = "# a comment\n\ngraph cycle:20\ninit spread:3\nscheduler vertex\n\
                    engine batch\nseed 9\ntrials 40\nbudget 5000\nfaults drop:0.2\n\
                    lanes 4\nthreads 2\ncheckpoint-every 8\n";
        let spec = JobSpec::parse(text).unwrap();
        assert_eq!(spec.graph, "cycle:20");
        assert_eq!(spec.scheduler, "vertex");
        assert_eq!(spec.engine, "batch");
        assert_eq!(spec.trials, 40);
        assert_eq!(spec.lanes, 4);
        assert_eq!(spec.checkpoint_every, 8);
        spec.build().unwrap();
    }

    #[test]
    fn rejects_malformed_specs() {
        for (text, needle) in [
            ("", "missing required key"),
            ("graph\n", "expected `key value`"),
            ("graph complete:8\nwat 3\n", "unknown key"),
            ("graph complete:8\nseed x\n", "needs an integer"),
            ("graph complete:8\nengine warp\n", "unknown engine"),
            ("graph complete:8\nscheduler maybe\n", "unknown scheduler"),
            ("graph complete:8\ntrials 0\n", "at least 1"),
            ("graph complete:8\nlanes 0\n", "at least 1"),
            ("graph complete:8\ncheckpoint-every 0\n", "at least 1"),
            ("graph complete:8\nengine sharded\n", "unknown engine"),
        ] {
            let err = JobSpec::parse(text).unwrap_err();
            assert!(err.contains(needle), "{text:?}: {err}");
        }
    }

    #[test]
    fn repeated_keys_are_rejected_not_overwritten() {
        let err =
            JobSpec::parse("graph complete:8\nengine fast\n# switch\nengine batch\n").unwrap_err();
        assert_eq!(err, "line 4: duplicate key \"engine\"");
        let err = JobSpec::parse("graph complete:8\ngraph cycle:9\n").unwrap_err();
        assert_eq!(err, "line 2: duplicate key \"graph\"");
    }

    #[test]
    fn typed_accessors_match_the_string_fields() {
        let spec = JobSpec::parse("graph complete:8\nscheduler vertex\nengine batch\n").unwrap();
        assert_eq!(spec.engine(), Ok(Engine::Batch));
        assert_eq!(spec.kind(), Ok(FastScheduler::Vertex));
        assert_eq!(JobSpec::default().engine, Engine::Fast.name());
    }

    #[test]
    fn build_catches_semantic_errors() {
        // Grammar-valid but semantically bad specs fail at build time.
        let mut spec = JobSpec::parse("graph complete:8\n").unwrap();
        spec.graph = "unknown:9".to_string();
        assert!(spec.build().unwrap_err().contains("unknown family"));
        let mut spec = JobSpec::parse("graph complete:8\n").unwrap();
        spec.faults = "drop:2.0".to_string();
        assert!(spec.build().is_err());
        let mut spec = JobSpec::parse("graph complete:8\n").unwrap();
        spec.init = "blocks:1x3".to_string();
        assert!(spec.build().unwrap_err().contains("sum to 3"));
    }

    #[test]
    fn build_is_deterministic() {
        let spec = JobSpec::parse("graph gnp:30:0.3\ninit uniform:4\nseed 77\n").unwrap();
        let (g1, o1, _) = spec.build().unwrap();
        let (g2, o2, _) = spec.build().unwrap();
        assert_eq!(g1.num_edges(), g2.num_edges());
        assert_eq!(o1, o2);
    }

    #[test]
    fn states_classify_terminality() {
        assert!(!JobState::Queued.is_terminal());
        assert!(!JobState::Running.is_terminal());
        assert!(JobState::Completed.is_terminal());
        assert!(JobState::Cancelled.is_terminal());
        assert!(JobState::Failed.is_terminal());
        assert_eq!(JobState::Running.to_string(), "running");
    }
}
