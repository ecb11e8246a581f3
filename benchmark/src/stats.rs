//! Sample statistics used by every workload: medians, nearest-rank
//! percentiles, the "highest percentile the sample supports" rule, and
//! the quartile spread the A/A check compares against each bound.

/// Median of an unsorted sample (mean of the middle pair for even sizes).
/// Panics on an empty sample: every caller times at least one operation.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank percentile of an ascending-sorted sample; `p` in `[0, 1]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The percentiles a report may quote, lowest first.
const CANDIDATES: [f64; 5] = [0.5, 0.9, 0.95, 0.99, 0.999];

/// The highest candidate percentile that still has at least ten samples
/// beyond it in a sample of `n` (a tail quantile estimated from fewer
/// points does not repeat). `None` when even the median lacks them.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    CANDIDATES.iter().copied().rfind(|p| {
        // Samples strictly beyond the nearest-rank position of `p`.
        let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
        n >= rank + 10
    })
}

/// Quartiles `(q1, q2, q3)` by the exclusive method, matching Python's
/// `statistics.quantiles(values, n=4)` — the rule the pipeline applies to
/// ten runs of each metric.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Inter-quartile distance as a share of the median.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    (q3 - q1) / q2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 5.0);
        assert_eq!(percentile(&s, 0.95), 10.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
    }

    #[test]
    fn supported_percentile_needs_ten_samples_beyond() {
        // 19 samples: the median sits at rank 10 with only 9 beyond it.
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(0.5));
        // p95 of 200 sits at rank 190 with exactly 10 beyond.
        assert_eq!(highest_supported_percentile(199), Some(0.9));
        assert_eq!(highest_supported_percentile(200), Some(0.95));
        assert_eq!(highest_supported_percentile(1000), Some(0.99));
        assert_eq!(highest_supported_percentile(10_000), Some(0.999));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }
}
