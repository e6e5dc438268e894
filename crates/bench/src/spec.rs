//! Text specs for graphs, initial opinions and whole campaigns, shared
//! by the `divlab` CLI and the `divd` daemon.
//!
//! Graph specs (`family:params`):
//!
//! ```text
//! complete:N            path:N              cycle:N           star:N
//! wheel:N               grid:RxC            torus:RxC         hypercube:D
//! binary-tree:N         barbell:H:B         lollipop:H:T      double-star:L:R
//! circulant:N:s1,s2,…   multipartite:a,b,…  regular:N:D       gnp:N:P
//! ws:N:K:BETA           ba:N:M
//! ```
//!
//! Random families (`regular`, `gnp`, `ws`, `ba`) consume the provided
//! RNG, so the same seed reproduces the same graph.
//!
//! Opinion specs:
//!
//! ```text
//! uniform:K             # i.i.d. uniform over 1..=K
//! spread:K              # round-robin 1..=K
//! blocks:VxC,VxC,…      # C vertices at opinion V, shuffled
//! ```
//!
//! A [`CampaignSpec`] is a line-based `key value` document (one pair per
//! line, `#` comments and blank lines ignored) that fully determines a
//! campaign.  It is `divd`'s submission format and oplog payload; each
//! `divlab` campaign flag `--key value` is the line `key value`.
//!
//! ```text
//! graph complete:64        # required (no default); the graph spec grammar above
//! init uniform:5           # the opinion spec grammar above
//! scheduler edge           # edge | vertex
//! engine fast              # reference | fast | batch | sharded
//! seed 1                   # campaign master seed (also seeds graph and opinions)
//! trials 10
//! budget 1000000000        # per-trial step budget
//! faults none              # div_core::FaultPlan grammar
//! lanes 8                  # batch engine lanes per worker
//! shards 4                 # sharded engine vertex domains per trial
//! threads 0                # campaign workers, or in-trial workers when sharded (0 = auto)
//! checkpoint-every 32      # trials between checkpoint flushes
//! ```
//!
//! Each key may appear at most once; a missing key takes the default
//! shown.  [`CampaignSpec::render`] is canonical (every key, fixed
//! order), so a spec round-trips bit-exactly through the oplog, and a
//! payload written before a key existed still parses, with that key's
//! default.

use div_core::{init, FastScheduler, FaultPlan};
use div_graph::{generators, Graph};
use div_sim::CampaignConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::trial::{parse_scheduler, Engine, TrialSetup};

/// Parses a graph spec; see the module docs for the grammar.
///
/// # Errors
///
/// Returns a human-readable message for unknown families, wrong arity, or
/// invalid parameters.
pub fn parse_graph<R: Rng + ?Sized>(spec: &str, rng: &mut R) -> Result<Graph, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    let usage = |msg: &str| format!("bad graph spec {spec:?}: {msg}");
    let int = |s: &str| s.parse::<usize>().map_err(|_| usage("expected an integer"));
    let float = |s: &str| s.parse::<f64>().map_err(|_| usage("expected a number"));
    let dims = |s: &str| -> Result<(usize, usize), String> {
        let (a, b) = s
            .split_once('x')
            .ok_or_else(|| usage("expected RxC dimensions"))?;
        Ok((int(a)?, int(b)?))
    };
    let list = |s: &str| -> Result<Vec<usize>, String> { s.split(',').map(int).collect() };

    let built = match parts.as_slice() {
        ["complete", n] => generators::complete(int(n)?),
        ["path", n] => generators::path(int(n)?),
        ["cycle", n] => generators::cycle(int(n)?),
        ["star", n] => generators::star(int(n)?),
        ["wheel", n] => generators::wheel(int(n)?),
        ["grid", d] => {
            let (r, c) = dims(d)?;
            generators::grid2d(r, c)
        }
        ["torus", d] => {
            let (r, c) = dims(d)?;
            generators::torus2d(r, c)
        }
        ["hypercube", d] => generators::hypercube(
            int(d)?
                .try_into()
                .map_err(|_| usage("hypercube dimension too large"))?,
        ),
        ["binary-tree", n] => generators::binary_tree(int(n)?),
        ["barbell", h, b] => generators::barbell(int(h)?, int(b)?),
        ["lollipop", h, t] => generators::lollipop(int(h)?, int(t)?),
        ["double-star", l, r] => generators::double_star(int(l)?, int(r)?),
        ["circulant", n, strides] => generators::circulant(int(n)?, &list(strides)?),
        ["multipartite", parts] => generators::complete_multipartite(&list(parts)?),
        ["regular", n, d] => generators::random_regular(int(n)?, int(d)?, rng),
        ["gnp", n, p] => generators::gnp(int(n)?, float(p)?, rng),
        ["ws", n, k, beta] => generators::watts_strogatz(int(n)?, int(k)?, float(beta)?, rng),
        ["ba", n, m] => generators::barabasi_albert(int(n)?, int(m)?, rng),
        [family, ..] => return Err(usage(&format!("unknown family {family:?}"))),
        [] => return Err(usage("empty spec")),
    };
    built.map_err(|e| usage(&e.to_string()))
}

/// Parses an opinion spec for a graph with `n` vertices; see the module
/// docs for the grammar.
///
/// # Errors
///
/// Returns a human-readable message for unknown kinds or invalid
/// parameters (including block counts that do not sum to `n`).
pub fn parse_opinions<R: Rng + ?Sized>(
    spec: &str,
    n: usize,
    rng: &mut R,
) -> Result<Vec<i64>, String> {
    let usage = |msg: &str| format!("bad opinion spec {spec:?}: {msg}");
    match spec.split_once(':') {
        Some(("uniform", k)) => {
            let k: usize = k.parse().map_err(|_| usage("expected an integer k"))?;
            init::uniform_random(n, k, rng).map_err(|e| usage(&e.to_string()))
        }
        Some(("spread", k)) => {
            let k: usize = k.parse().map_err(|_| usage("expected an integer k"))?;
            init::spread(n, k).map_err(|e| usage(&e.to_string()))
        }
        Some(("blocks", body)) => {
            let mut blocks = Vec::new();
            for item in body.split(',') {
                let (v, c) = item
                    .split_once('x')
                    .ok_or_else(|| usage("blocks need VxC items"))?;
                let v: i64 = v.parse().map_err(|_| usage("bad block value"))?;
                let c: usize = c.parse().map_err(|_| usage("bad block count"))?;
                blocks.push((v, c));
            }
            let total: usize = blocks.iter().map(|&(_, c)| c).sum();
            if total != n {
                return Err(usage(&format!(
                    "block counts sum to {total}, but the graph has {n} vertices"
                )));
            }
            init::shuffled_blocks(&blocks, rng).map_err(|e| usage(&e.to_string()))
        }
        _ => Err(usage("expected uniform:K, spread:K or blocks:VxC,…")),
    }
}

/// A parsed, validated campaign; see the module docs for the format.
/// The text fields hold spec text whose grammar `set` checked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignSpec {
    /// Graph spec, e.g. `complete:64` or `gnp:100:0.1`.
    pub graph: String,
    /// Opinion spec, e.g. `uniform:5`.
    pub init: String,
    /// `edge` or `vertex` (see [`CampaignSpec::kind`]).
    pub scheduler: String,
    /// An engine name (see [`CampaignSpec::engine`]).
    pub engine: String,
    /// Campaign master seed; also seeds graph and opinion generation.
    pub seed: u64,
    /// Total trial count.
    pub trials: usize,
    /// Per-trial step budget.
    pub budget: u64,
    /// Fault plan spec (`none` for the empty plan).
    pub faults: String,
    /// Batch engine lanes per worker (the most one block steps).
    pub lanes: usize,
    /// Sharded engine vertex domains per trial.
    pub shards: usize,
    /// Campaign worker threads, or the sharded engine's in-trial workers
    /// (0 = available parallelism).
    pub threads: usize,
    /// Completed trials between checkpoint flushes.
    pub checkpoint_every: usize,
}

impl Default for CampaignSpec {
    fn default() -> Self {
        let cfg = CampaignConfig::new(10, 1);
        CampaignSpec {
            graph: String::new(),
            init: "uniform:5".to_string(),
            scheduler: "edge".to_string(),
            engine: Engine::Fast.name().to_string(),
            seed: cfg.master_seed,
            trials: cfg.trials,
            budget: cfg.step_budget,
            faults: "none".to_string(),
            lanes: 8,
            // Fixed, not machine-derived: a trajectory depends on it.
            shards: 4,
            threads: cfg.threads,
            checkpoint_every: cfg.checkpoint_every,
        }
    }
}

/// A built campaign's inputs, derived deterministically from the spec.
pub struct CampaignInputs {
    /// The interaction graph (connected).
    pub graph: Graph,
    /// The initial opinions.
    pub opinions: Vec<i64>,
    /// The fault plan, valid for these opinions.
    pub faults: FaultPlan,
}

/// A campaign ready to run: [`CampaignSpec::campaign`]'s output.
pub struct Campaign<'a> {
    /// The engine the trials run on, after demotion.
    pub engine: Engine,
    /// Why the named engine was demoted, when it was.
    pub demotion: Option<String>,
    /// The trial inputs and engine knobs.
    pub setup: TrialSetup<'a>,
    /// The driver config, tagged for checkpoint manifests.
    pub cfg: CampaignConfig,
    /// Batch engine lanes per worker (the most one block steps).
    pub lanes: usize,
}

/// The front end a campaign runs under.  It heads the checkpoint tag,
/// so a manifest resumes only under the front end that wrote it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Front {
    /// `divlab run`, `campaign` and `stats`.
    Run,
    /// `divlab compare`'s div row, which runs the edge scheduler only.
    Compare,
    /// A `divd` job.
    Daemon,
}

/// The warning every engine demotion prints: `what` is not supported by
/// `engine`, so the run falls back to the scalar fast engine.
pub fn demotion(engine: Engine, what: &str) -> String {
    format!(
        "{what} is not supported by the {engine} engine; falling back to --engine {}",
        Engine::Fast
    )
}

impl CampaignSpec {
    /// Every key, in canonical order.
    pub const KEYS: [&'static str; 12] = [
        "graph",
        "init",
        "scheduler",
        "engine",
        "seed",
        "trials",
        "budget",
        "faults",
        "lanes",
        "shards",
        "threads",
        "checkpoint-every",
    ];

    /// Parses the line-based format over the defaults; see the module
    /// docs.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown or repeated keys,
    /// malformed values, out-of-range knobs or a missing `graph`.
    pub fn parse(text: &str) -> Result<CampaignSpec, String> {
        let mut spec = CampaignSpec::default();
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
            spec.set(key, value.trim())
                .map_err(|e| format!("line {}: {e}", no + 1))?;
        }
        if spec.graph.is_empty() {
            return Err("missing required key `graph`".to_string());
        }
        Ok(spec)
    }

    /// Sets `key` from its text `value`, checking the value's grammar
    /// and range (semantic checks against the graph wait for
    /// [`build`](CampaignSpec::build)).
    ///
    /// # Errors
    ///
    /// Names an unknown key, a malformed value or a zero count.
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), String> {
        let int = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{key} needs an integer, got {value:?}"))
        };
        let count = || match int()? {
            0 => Err(format!("{key} must be at least 1")),
            n => Ok(n as usize),
        };
        match key {
            "graph" => self.graph = value.to_string(),
            "init" => self.init = value.to_string(),
            "scheduler" => self.scheduler = parse_scheduler(value).map(|_| value.to_string())?,
            "engine" => self.engine = engine_named(value).map(|_| value.to_string())?,
            "faults" => self.faults = FaultPlan::parse(value).map(|_| value.to_string())?,
            "seed" => self.seed = int()?,
            "budget" => self.budget = int()?,
            "trials" => self.trials = count()?,
            "lanes" => self.lanes = count()?,
            "shards" => self.shards = count()?,
            "threads" => self.threads = int()? as usize,
            "checkpoint-every" => self.checkpoint_every = count()?,
            other => return Err(format!("unknown key {other:?}")),
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

    /// The engine `engine` names.
    ///
    /// # Errors
    ///
    /// Names an unknown engine.
    pub fn engine(&self) -> Result<Engine, String> {
        engine_named(&self.engine)
    }

    /// The canonical rendering: every key, fixed order, one per line.
    /// `CampaignSpec::parse(&spec.render())` round-trips bit-exactly.
    pub fn render(&self) -> String {
        format!(
            "graph {}\ninit {}\nscheduler {}\nengine {}\nseed {}\ntrials {}\nbudget {}\n\
             faults {}\nlanes {}\nshards {}\nthreads {}\ncheckpoint-every {}\n",
            self.graph,
            self.init,
            self.scheduler,
            self.engine,
            self.seed,
            self.trials,
            self.budget,
            self.faults,
            self.lanes,
            self.shards,
            self.threads,
            self.checkpoint_every
        )
    }

    /// Materialises the inputs, all derived deterministically from
    /// `seed`: one `StdRng` draws the graph, then the opinions.  Returns
    /// that RNG too, so a single run can keep drawing from it.
    ///
    /// # Errors
    ///
    /// Returns the spec-grammar error (bad graph family, invalid opinion
    /// blocks, bad fault clause), or names a disconnected graph or a
    /// fault plan these opinions cannot host.
    pub fn build(&self) -> Result<(CampaignInputs, StdRng), String> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let graph = parse_graph(&self.graph, &mut rng)?;
        if !div_graph::algo::is_connected(&graph) {
            return Err(format!(
                "graph {:?} is not connected; voting cannot reach consensus",
                self.graph
            ));
        }
        let opinions = parse_opinions(&self.init, graph.num_vertices(), &mut rng)?;
        let faults = FaultPlan::parse(&self.faults)?;
        faults.session(&opinions).map_err(|e| e.to_string())?;
        let inputs = CampaignInputs {
            graph,
            opinions,
            faults,
        };
        Ok((inputs, rng))
    }

    /// The checkpoint tag of this spec's campaign on `engine` under
    /// `front`: the keys a trial's outcome depends on besides its seed.
    /// `shards` appears for the sharded engine only, and `compare` tags
    /// omit the scheduler, so other campaigns' tags read as they did
    /// before the spec was shared.
    pub fn tag(&self, front: Front, engine: Engine) -> String {
        let (g, i, s) = (&self.graph, &self.init, &self.scheduler);
        let (f, b) = (&self.faults, self.budget);
        let mut tag = match front {
            Front::Run => format!("run {g} {i} {s} {engine} {f} {b}"),
            Front::Compare => format!("compare div {g} {i} {engine} {f} {b}"),
            Front::Daemon => format!("divd {g} {i} {s} {engine} {f} {b}"),
        };
        if engine == Engine::Sharded {
            tag.push_str(&format!(" shards {}", self.shards));
        }
        tag
    }

    /// The campaign this spec runs on `inputs` (from [`build`]) under
    /// `front`: the engine after demotion, the trial setup and the
    /// driver config with its [`tag`](CampaignSpec::tag).
    ///
    /// `trace` (a stage log is wanted) demotes every engine to the
    /// reference one; otherwise a sharded campaign with a non-trivial
    /// fault plan demotes to the fast engine, which has a fault pipeline.
    ///
    /// [`build`]: CampaignSpec::build
    ///
    /// # Errors
    ///
    /// Names an unknown engine or scheduler, or more shards than the
    /// graph has vertices.
    pub fn campaign<'a>(
        &self,
        inputs: &'a CampaignInputs,
        front: Front,
        trace: bool,
    ) -> Result<Campaign<'a>, String> {
        let named = self.engine()?;
        let (engine, demotion) = if trace && named != Engine::Reference {
            let why = format!(
                "--trace needs the reference engine (the {named} engine has no per-step \
                 stage log); falling back to --engine {}",
                Engine::Reference
            );
            (Engine::Reference, Some(why))
        } else if named == Engine::Sharded && !inputs.faults.is_trivial() {
            (Engine::Fast, Some(demotion(named, "fault injection")))
        } else {
            (named, None)
        };
        let n = inputs.graph.num_vertices();
        if engine == Engine::Sharded && self.shards > n {
            return Err(format!(
                "shards {} exceeds the graph's {n} vertices",
                self.shards
            ));
        }
        let cfg = CampaignConfig {
            threads: self.threads,
            step_budget: self.budget,
            checkpoint_every: self.checkpoint_every,
            tag: self.tag(front, engine),
            ..CampaignConfig::new(self.trials, self.seed)
        };
        let setup = TrialSetup {
            shards: self.shards,
            shard_threads: self.threads,
            ..TrialSetup::new(
                &inputs.graph,
                &inputs.opinions,
                self.kind()?,
                &inputs.faults,
            )
        };
        Ok(Campaign {
            engine,
            demotion,
            setup,
            cfg,
            lanes: self.lanes,
        })
    }
}

fn engine_named(name: &str) -> Result<Engine, String> {
    Engine::parse(name).ok_or_else(|| {
        format!(
            "unknown engine {name:?} (use {})",
            Engine::list(&Engine::ALL)
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn deterministic_specs() {
        let mut r = rng();
        assert_eq!(parse_graph("complete:10", &mut r).unwrap().num_edges(), 45);
        assert_eq!(parse_graph("path:5", &mut r).unwrap().num_edges(), 4);
        assert_eq!(parse_graph("grid:3x4", &mut r).unwrap().num_vertices(), 12);
        assert_eq!(parse_graph("torus:3x3", &mut r).unwrap().num_edges(), 18);
        assert_eq!(
            parse_graph("hypercube:4", &mut r).unwrap().num_vertices(),
            16
        );
        assert_eq!(
            parse_graph("barbell:4:2", &mut r).unwrap().num_vertices(),
            10
        );
        assert_eq!(
            parse_graph("circulant:10:1,3", &mut r)
                .unwrap()
                .min_degree(),
            4
        );
        assert_eq!(
            parse_graph("multipartite:2,2,2", &mut r)
                .unwrap()
                .num_edges(),
            12
        );
        assert_eq!(
            parse_graph("double-star:3:4", &mut r)
                .unwrap()
                .num_vertices(),
            9
        );
    }

    #[test]
    fn random_specs_are_seed_reproducible() {
        let a = parse_graph("gnp:50:0.2", &mut rng()).unwrap();
        let b = parse_graph("gnp:50:0.2", &mut rng()).unwrap();
        assert_eq!(a, b);
        let r1 = parse_graph("regular:40:4", &mut rng()).unwrap();
        assert!(r1.is_regular());
        assert_eq!(r1.min_degree(), 4);
        let ws = parse_graph("ws:30:4:0.2", &mut rng()).unwrap();
        assert_eq!(ws.num_edges(), 60);
        let ba = parse_graph("ba:30:2", &mut rng()).unwrap();
        assert_eq!(ba.num_vertices(), 30);
    }

    #[test]
    fn graph_spec_errors_are_descriptive() {
        let mut r = rng();
        for bad in [
            "unknown:5",
            "complete",
            "complete:x",
            "grid:3",
            "",
            "path:1",
            "gnp:10:1.5",
        ] {
            let err = parse_graph(bad, &mut r).unwrap_err();
            assert!(err.contains("bad graph spec"), "{err}");
        }
    }

    #[test]
    fn opinion_specs() {
        let mut r = rng();
        let u = parse_opinions("uniform:5", 100, &mut r).unwrap();
        assert!(u.iter().all(|&x| (1..=5).contains(&x)));
        let s = parse_opinions("spread:3", 7, &mut r).unwrap();
        assert_eq!(s, vec![1, 2, 3, 1, 2, 3, 1]);
        let b = parse_opinions("blocks:1x3,9x2", 5, &mut r).unwrap();
        assert_eq!(b.iter().filter(|&&x| x == 1).count(), 3);
        assert_eq!(b.iter().filter(|&&x| x == 9).count(), 2);
    }

    #[test]
    fn opinion_spec_errors() {
        let mut r = rng();
        assert!(parse_opinions("nope:3", 5, &mut r).is_err());
        assert!(parse_opinions("uniform:x", 5, &mut r).is_err());
        assert!(parse_opinions("blocks:1x2", 5, &mut r)
            .unwrap_err()
            .contains("sum to 2"));
        assert!(parse_opinions("blocks:1-2", 5, &mut r).is_err());
    }

    #[test]
    fn parse_defaults_and_roundtrip() {
        let spec = CampaignSpec::parse("graph complete:8\n").unwrap();
        assert_eq!(spec.init, "uniform:5");
        assert_eq!(spec.engine, "fast");
        assert_eq!(spec.seed, 1);
        assert_eq!(spec.shards, 4);
        assert_eq!(spec.checkpoint_every, 32);
        let canonical = spec.render();
        assert_eq!(CampaignSpec::parse(&canonical).unwrap(), spec);
        assert_eq!(CampaignSpec::parse(&canonical).unwrap().render(), canonical);
    }

    #[test]
    fn campaign_spec_roundtrips_over_every_engine_and_key() {
        let defaults = CampaignSpec::default();
        let grid = [
            ("init", "spread:3"),
            ("scheduler", "vertex"),
            ("seed", "9"),
            ("trials", "40"),
            ("budget", "5000"),
            ("faults", "drop:0.2,stubborn:1"),
            ("lanes", "4"),
            ("shards", "3"),
            ("threads", "2"),
            ("checkpoint-every", "8"),
        ];
        for engine in Engine::ALL {
            for (key, value) in grid {
                let text = format!("graph cycle:20\nengine {engine}\n{key} {value}\n");
                let spec = CampaignSpec::parse(&text).unwrap();
                assert_ne!(spec, defaults, "{key} {value}");
                let rendered = spec.render();
                assert!(
                    rendered.contains(&format!("\n{key} {value}\n")),
                    "{rendered}"
                );
                assert_eq!(CampaignSpec::parse(&rendered).unwrap(), spec);
                assert_eq!(CampaignSpec::parse(&rendered).unwrap().render(), rendered);
            }
        }
    }

    #[test]
    fn parse_full_spec() {
        let text = "# a comment\n\ngraph cycle:20\ninit spread:3\nscheduler vertex\n\
                    engine batch\nseed 9\ntrials 40\nbudget 5000\nfaults drop:0.2\n\
                    lanes 4\nshards 2\nthreads 2\ncheckpoint-every 8\n";
        let spec = CampaignSpec::parse(text).unwrap();
        assert_eq!(spec.graph, "cycle:20");
        assert_eq!(spec.scheduler, "vertex");
        assert_eq!(spec.engine, "batch");
        assert_eq!(spec.trials, 40);
        assert_eq!(spec.lanes, 4);
        assert_eq!(spec.shards, 2);
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
            ("graph complete:8\nfaults drop\n", "bad fault spec"),
            ("graph complete:8\ntrials 0\n", "at least 1"),
            ("graph complete:8\nlanes 0\n", "at least 1"),
            (
                "graph complete:8\nshards 0\n",
                "line 2: shards must be at least 1",
            ),
            ("graph complete:8\ncheckpoint-every 0\n", "at least 1"),
        ] {
            let err = CampaignSpec::parse(text).unwrap_err();
            assert!(err.contains(needle), "{text:?}: {err}");
        }
        // divd ran no sharded jobs before the spec had a `shards` key.
        assert!(CampaignSpec::parse("graph complete:8\nengine sharded\n").is_ok());
    }

    #[test]
    fn repeated_keys_are_rejected_not_overwritten() {
        let err = CampaignSpec::parse("graph complete:8\nengine fast\n# switch\nengine batch\n")
            .unwrap_err();
        assert_eq!(err, "line 4: duplicate key \"engine\"");
        let err = CampaignSpec::parse("graph complete:8\ngraph cycle:9\n").unwrap_err();
        assert_eq!(err, "line 2: duplicate key \"graph\"");
    }

    #[test]
    fn typed_accessors_match_the_string_fields() {
        for engine in Engine::ALL {
            let spec =
                CampaignSpec::parse(&format!("graph complete:8\nengine {engine}\n")).unwrap();
            assert_eq!(spec.engine(), Ok(engine));
        }
        let spec = CampaignSpec::parse("graph complete:8\nscheduler vertex\n").unwrap();
        assert_eq!(spec.kind(), Ok(FastScheduler::Vertex));
    }

    #[test]
    fn build_catches_semantic_errors() {
        // Grammar-valid but semantically bad specs fail at build time.
        let base = CampaignSpec::parse("graph complete:8\n").unwrap();
        for (key, value, needle) in [
            ("graph", "unknown:9", "unknown family"),
            ("graph", "gnp:10:0.0", "not connected"),
            ("init", "blocks:1x3", "sum to 3"),
            ("faults", "stubborn:9", "stubborn"),
        ] {
            let mut spec = base.clone();
            spec.set(key, value).unwrap();
            let err = spec.build().err().expect("build fails");
            assert!(err.contains(needle), "{key} {value}: {err}");
        }
        let mut spec = base.clone();
        spec.faults = "drop:2.0".to_string();
        assert!(spec.build().is_err());
    }

    #[test]
    fn build_is_deterministic() {
        let spec = CampaignSpec::parse("graph gnp:30:0.3\ninit uniform:4\nseed 77\n").unwrap();
        let (a, _) = spec.build().unwrap();
        let (b, _) = spec.build().unwrap();
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.opinions, b.opinions);
    }

    #[test]
    fn campaign_resolves_demotion_shards_and_tag() {
        let spec =
            CampaignSpec::parse("graph cycle:6\nengine sharded\nshards 6\nthreads 3\n").unwrap();
        let (inputs, _) = spec.build().unwrap();
        let c = spec.campaign(&inputs, Front::Run, false).unwrap();
        assert_eq!((c.engine, c.demotion), (Engine::Sharded, None));
        assert_eq!((c.setup.shards, c.setup.shard_threads), (6, 3));
        assert_eq!(
            c.cfg.tag,
            "run cycle:6 uniform:5 edge sharded none 1000000000 shards 6"
        );
        assert_eq!(c.cfg.checkpoint_every, 32);
        let traced = spec.campaign(&inputs, Front::Run, true).unwrap();
        assert_eq!(traced.engine, Engine::Reference);
        assert!(traced
            .demotion
            .unwrap()
            .contains("--trace needs the reference engine"));

        let mut wide = spec.clone();
        wide.set("shards", "7").unwrap();
        let err = wide.campaign(&inputs, Front::Run, false).err().unwrap();
        assert_eq!(err, "shards 7 exceeds the graph's 6 vertices");

        let mut faulty = wide.clone();
        faulty.set("faults", "drop:0.1").unwrap();
        let (inputs, _) = faulty.build().unwrap();
        let c = faulty.campaign(&inputs, Front::Daemon, false).unwrap();
        assert_eq!(c.engine, Engine::Fast);
        assert_eq!(
            c.demotion.as_deref(),
            Some("fault injection is not supported by the sharded engine; falling back to --engine fast")
        );
        assert_eq!(
            c.cfg.tag,
            "divd cycle:6 uniform:5 edge fast drop:0.1 1000000000"
        );
        assert_eq!(
            faulty.tag(Front::Compare, Engine::Batch),
            "compare div cycle:6 uniform:5 batch drop:0.1 1000000000"
        );
    }
}
