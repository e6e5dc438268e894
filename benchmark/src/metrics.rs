//! Every metric the benchmark emits, with its unit and direction.  Runs
//! record values by these names and [`Recorded::finish`] refuses a run
//! that misses one or adds another, so the harness, `BENCHMARK.json` and
//! `README.md` cannot drift apart (the consistency test below pins the
//! JSON file to this table).

use std::collections::BTreeMap;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory, waste).
    Lower,
    /// Larger values are better (throughput, utilisation).
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric definition.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// The emitted name.
    pub name: &'static str,
    /// The emitted unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, measured with tracing off (`--trace 0`).
///
/// On the campaign workloads the job times behind `job_latency_p50_ms`,
/// `jobs_per_s` and `steps_per_s` are rescaled to the reference host
/// speed (`speed.rs`).  The bounds stay wide because runs of the same code
/// still spread by up to 0.1 (README "Noise and bounds"); finer claims go
/// through `compare`, whose alternating pairs cancel the host's drift.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("job_latency_p50_ms", "ms", Lower, 0.25),
    e2e("jobs_per_s", "1/s", Higher, 0.25),
    e2e("steps_per_s", "1/s", Higher, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.15),
];

/// Per-layer metrics, measured by the traced run (`--trace 1`).
pub const PER_LAYER: &[Metric] = &[
    layer("graph.build_s", "s", Lower),
    layer("graph.connectivity_s", "s", Lower),
    layer("engine.compile_us_p50", "us", Lower),
    layer("engine.compile_frac", "ratio", Lower),
    layer("engine.ns_per_step", "ns", Lower),
    layer("batch.lane_occupancy", "ratio", Higher),
    layer("shard.scaling_t2", "ratio", Higher),
    layer("shard.edge_cut_frac", "ratio", Lower),
    layer("campaign.busy_frac", "ratio", Higher),
    layer("campaign.render_ms", "ms", Lower),
    layer("oplog.commit_us_p50", "us", Lower),
    layer("oplog.commit_us_p99", "us", Lower),
    layer("oplog.atomic_write_us_p50", "us", Lower),
    layer("oplog.frames_per_job", "count", Lower),
    layer("oplog.bytes_per_job", "B", Lower),
    layer("http.healthz_ms_p50", "ms", Lower),
    layer("http.submit_ms_p50", "ms", Lower),
    layer("http.submit_ms_p95", "ms", Lower),
    layer("divd.queue_wait_ms_p50", "ms", Lower),
    layer("divd.queue_wait_ms_p95", "ms", Lower),
    layer("divd.run_ms_p50", "ms", Lower),
    layer("divd.report_write_ms_p50", "ms", Lower),
    layer("divd.results_overhead_ms_p50", "ms", Lower),
    layer("divd.job_latency_p95_ms", "ms", Lower),
    layer("trace.overhead_frac", "ratio", Lower),
];

/// The metric table for one mode.
pub fn table(traced: bool) -> &'static [Metric] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Looks a metric up in either table.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// Values recorded by one run, checked against the table on completion.
#[derive(Debug, Default)]
pub struct Recorded(BTreeMap<&'static str, f64>);

impl Recorded {
    /// Records `value` under `name`.
    ///
    /// # Panics
    ///
    /// Panics on a name outside both tables — a harness bug.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(find(name).is_some(), "unknown metric {name}");
        self.0.insert(name, value);
    }

    /// The metrics in table order, or the names that are missing or not
    /// part of this mode.
    pub fn finish(self, traced: bool) -> Result<Vec<(&'static Metric, f64)>, String> {
        let want = table(traced);
        let extra: Vec<&str> = self
            .0
            .keys()
            .filter(|k| !want.iter().any(|m| m.name == **k))
            .copied()
            .collect();
        let missing: Vec<&str> = want
            .iter()
            .filter(|m| !self.0.contains_key(m.name))
            .map(|m| m.name)
            .collect();
        if !extra.is_empty() || !missing.is_empty() {
            return Err(format!(
                "metric set mismatch: missing {missing:?}, unexpected {extra:?}"
            ));
        }
        Ok(want.iter().map(|m| (m, self.0[m.name])).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};
    use crate::workload::{Workload, DEFAULT_SECONDS};

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn check_list(doc: &Json, key: &str, want: &[Metric]) {
        let got = doc.get(key).and_then(Json::as_array).expect(key);
        let names: Vec<&str> = got
            .iter()
            .map(|m| m.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let want_names: Vec<&str> = want.iter().map(|m| m.name).collect();
        assert_eq!(names, want_names, "{key} names");
        for (entry, metric) in got.iter().zip(want) {
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(metric.unit));
            assert_eq!(
                entry.get("better").and_then(Json::as_str),
                Some(metric.better.as_str())
            );
            assert_eq!(entry.get("bound").and_then(Json::as_f64), metric.bound);
            let keys = entry.as_object().unwrap().len();
            assert_eq!(keys, if metric.bound.is_some() { 4 } else { 3 });
        }
    }

    #[test]
    fn benchmark_json_matches_the_harness() {
        let doc = benchmark_json();
        check_list(&doc, "end_to_end", END_TO_END);
        check_list(&doc, "per_layer", PER_LAYER);
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, names);
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );
        assert_eq!(
            doc.get("paths"),
            Some(&Json::Arr(vec![Json::Str("benchmark".into())]))
        );
    }

    #[test]
    fn bounds_respect_the_contract() {
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        for m in END_TO_END {
            let bound = m.bound.unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
            assert!(
                bound <= setup.bound.unwrap(),
                "setup_s has the largest bound"
            );
        }
    }

    #[test]
    fn recorded_sets_must_match_the_table() {
        let mut r = Recorded::default();
        for m in END_TO_END {
            r.set(m.name, 1.0);
        }
        assert_eq!(r.finish(false).unwrap().len(), END_TO_END.len());
        let mut r = Recorded::default();
        r.set("setup_s", 1.0);
        r.set("graph.build_s", 1.0);
        let err = r.finish(false).unwrap_err();
        assert!(
            err.contains("jobs_per_s") && err.contains("graph.build_s"),
            "{err}"
        );
    }
}
