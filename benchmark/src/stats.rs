//! Run-to-run spread, computed exactly as the acceptance rule does.
//! Medians and latency percentiles come from `div_sim::stats`.

use div_sim::stats::median;

/// First and third quartiles exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default `exclusive` method),
/// so the spreads printed here match the acceptance rule's arithmetic.
/// A single value is its own quartiles.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    assert!(!v.is_empty(), "quartiles of an empty sample");
    if v.len() == 1 {
        return (v[0], v[0]);
    }
    let m = v.len() as i64;
    let cut = |i: i64| {
        // Python clamps j into 1..=m-1 before taking the remainder, so
        // the extreme cuts extrapolate for very small samples.
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = i * (m + 1) - j * 4;
        let (a, b) = (v[(j - 1) as usize], v[j as usize]);
        (a * (4 - delta) as f64 + b * delta as f64) / 4.0
    };
    (cut(1), cut(3))
}

/// The interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        // statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
        assert_eq!(quartiles(&[30.0, 10.0, 20.0]), (10.0, 30.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[2.0, 2.0, 2.0, 2.0]), 0.0);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
    }
}
