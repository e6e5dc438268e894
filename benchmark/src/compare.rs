//! `compare A.json B.json`: the choosing-metrics §8 rule over two result
//! files, A the parent and B the change, paired run by run per workload.

use crate::json::{self, Json};
use crate::metrics::{Better, Metric, END_TO_END};
use crate::stats::{quartiles, spread};
use crate::workload::Workload;
use div_sim::stats::median;

/// Pairs a verdict needs; fewer is reported, never judged.
pub const MIN_PAIRS: usize = 10;

/// How the change compares with the parent on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Wins ≥ 9/10 of the pairs and the medians differ by more than the
    /// parent's interquartile range.
    Improved,
    /// The median is worse than the parent's by more than the bound.
    Regressed,
    /// The run-to-run spread exceeds the bound and not every change run
    /// beats every parent run: the data cannot tell.
    Unresolved,
    /// None of the above.
    Unchanged,
    /// Fewer than [`MIN_PAIRS`] pairs.
    TooFewPairs,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Unchanged => "unchanged",
            Verdict::TooFewPairs => "too-few-pairs",
        }
    }
}

/// One compared (metric, workload) row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Pairs compared.
    pub pairs: usize,
    /// Pairs the change won (ties count for neither side).
    pub wins: usize,
    /// Parent median and quartiles.
    pub a: (f64, f64, f64),
    /// Change median and quartiles.
    pub b: (f64, f64, f64),
    /// The verdict.
    pub verdict: Verdict,
}

/// Applies the rule to paired samples (`a[i]` and `b[i]` ran back to
/// back with the same seed).
pub fn judge(metric: &Metric, a: &[f64], b: &[f64]) -> Row {
    let pairs = a.len().min(b.len());
    let (a, b) = (&a[..pairs], &b[..pairs]);
    let better = |x: f64, y: f64| match metric.better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let summary = |v: &[f64]| {
        if v.is_empty() {
            return (f64::NAN, f64::NAN, f64::NAN);
        }
        let (q1, q3) = quartiles(v);
        (median(v), q1, q3)
    };
    let (sa, sb) = (summary(a), summary(b));
    let wins = a.iter().zip(b).filter(|(x, y)| better(**y, **x)).count();
    let verdict = if pairs < MIN_PAIRS {
        Verdict::TooFewPairs
    } else {
        let bound = metric.bound.unwrap_or(0.0);
        let worse = match metric.better {
            Better::Lower => (sb.0 - sa.0) / sa.0,
            Better::Higher => (sa.0 - sb.0) / sa.0,
        };
        let all_better = b.iter().all(|y| a.iter().all(|x| better(*y, *x)));
        if 10 * wins >= 9 * pairs && worse < 0.0 && (sb.0 - sa.0).abs() > sa.2 - sa.1 {
            Verdict::Improved
        } else if worse > bound {
            Verdict::Regressed
        } else if spread(a).max(spread(b)) > bound && !all_better {
            Verdict::Unresolved
        } else {
            Verdict::Unchanged
        }
    };
    Row {
        pairs,
        wins,
        a: sa,
        b: sb,
        verdict,
    }
}

/// One run record of a result file.
struct Record {
    workload: String,
    traced: bool,
    metrics: Json,
}

fn load(path: &str) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let doc = json::parse(line).map_err(|e| format!("{path}: {e}"))?;
            let field = |k: &str| {
                doc.get(k)
                    .ok_or_else(|| format!("{path}: record without {k}"))
            };
            Ok(Record {
                workload: field("workload")?.as_str().unwrap_or_default().to_string(),
                traced: field("trace")?.as_f64() == Some(1.0),
                metrics: field("result")?
                    .get("metrics")
                    .cloned()
                    .ok_or_else(|| format!("{path}: record without metrics"))?,
            })
        })
        .collect()
}

fn values(records: &[Record], workload: &str, metric: &str) -> Vec<f64> {
    records
        .iter()
        .filter(|r| !r.traced && r.workload == workload)
        .filter_map(|r| r.metrics.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Prints one row per (end-to-end metric, workload); returns how many
/// rows regressed.
///
/// # Errors
///
/// When a file cannot be read or parsed.
pub fn compare(a_path: &str, b_path: &str) -> Result<usize, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    println!("A = {a_path} (parent), B = {b_path} (change); ratios are B/A with base A's median");
    let mut regressed = 0;
    for w in Workload::ALL {
        for metric in END_TO_END {
            let row = judge(
                metric,
                &values(&a, w.name(), metric.name),
                &values(&b, w.name(), metric.name),
            );
            regressed += usize::from(row.verdict == Verdict::Regressed);
            println!(
                "{:<19} {:<24} A {:.6} [{:.6}, {:.6}]  B {:.6} [{:.6}, {:.6}]  B/A {:.4} (base {:.6} {})  wins {}/{}  bound {}  {}",
                metric.name,
                w.name(),
                row.a.0,
                row.a.1,
                row.a.2,
                row.b.0,
                row.b.1,
                row.b.2,
                row.b.0 / row.a.0,
                row.a.0,
                metric.unit,
                row.wins,
                row.pairs,
                metric.bound.unwrap_or(0.0),
                row.verdict.as_str()
            );
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static Metric {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    fn around(center: f64, jitter: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center * (1.0 + jitter * ((i * 7 % 10) as f64 / 9.0 - 0.5)))
            .collect()
    }

    #[test]
    fn a_clear_win_is_improved() {
        // 10% faster throughput with 1% noise: B wins every pair.
        let row = judge(
            metric("steps_per_s"),
            &around(100.0, 0.01),
            &around(110.0, 0.01),
        );
        assert_eq!(
            (row.verdict, row.wins, row.pairs),
            (Verdict::Improved, 10, 10)
        );
    }

    #[test]
    fn worse_beyond_the_bound_is_regressed() {
        // Latency 30% worse against a 25% bound.
        let row = judge(
            metric("job_latency_p50_ms"),
            &around(40.0, 0.02),
            &around(52.0, 0.02),
        );
        assert_eq!(row.verdict, Verdict::Regressed);
        assert_eq!(row.wins, 0);
    }

    #[test]
    fn noise_wider_than_the_bound_is_unresolved() {
        // 30% spread against a 15% bound, medians 1% apart.
        let row = judge(
            metric("peak_rss_mb"),
            &around(100.0, 0.6),
            &around(101.0, 0.6),
        );
        assert_eq!(row.verdict, Verdict::Unresolved);
    }

    #[test]
    fn equal_runs_are_unchanged_and_short_runs_are_not_judged() {
        let same = around(50.0, 0.01);
        assert_eq!(
            judge(metric("jobs_per_s"), &same, &same).verdict,
            Verdict::Unchanged
        );
        let row = judge(metric("jobs_per_s"), &same[..9], &same[..9]);
        assert_eq!(row.verdict, Verdict::TooFewPairs);
    }

    #[test]
    fn a_win_inside_the_parents_spread_is_not_improved() {
        // B wins every pair by a hair, but by less than A's IQR.
        let a = around(100.0, 0.04);
        let b: Vec<f64> = a.iter().map(|x| x * 1.001).collect();
        let row = judge(metric("steps_per_s"), &a, &b);
        assert_eq!(row.wins, 10);
        assert_eq!(row.verdict, Verdict::Unchanged);
    }
}
