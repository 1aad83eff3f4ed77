//! Order statistics the harness reports: nearest-rank percentiles of
//! latency samples, medians across windows, and the quartile spread
//! the acceptance rule is stated in.

/// The 1-based nearest rank of percentile `pct` in a sample of `n`:
/// `ceil(n * pct / 100)`, in integer hundredths of a percent so that
/// 99.9% of 10 000 is rank 9 990 and not one float ulp above it.
fn nearest_rank(n: usize, pct: f64) -> usize {
    let hundredths = (pct * 100.0).round() as usize;
    (n * hundredths).div_ceil(10_000).clamp(1, n.max(1))
}

/// Nearest-rank percentile (0–100) of an ascending-sorted sample.
/// `None` for an empty sample.
pub fn percentile(sorted: &[u64], pct: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[nearest_rank(sorted.len(), pct) - 1])
}

/// The highest of the usual percentiles that still has at least ten
/// samples beyond it — the one a sample of `n` can support.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    [99.99, 99.9, 99.0, 95.0, 90.0, 50.0]
        .into_iter()
        .find(|p| samples_beyond(n, *p) >= 10)
}

/// How many of `n` sorted samples lie strictly beyond the nearest-rank
/// position of percentile `pct`.
pub fn samples_beyond(n: usize, pct: f64) -> usize {
    n.saturating_sub(nearest_rank(n, pct))
}

/// Median of a sample (mean of the two middle values when even).
/// `NaN` for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the "exclusive"
/// method) — the rule the acceptance check uses. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |k: usize| {
        // Position k*(n+1)/4 in 1-based ranks, clamped to the sample.
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Distance between the quartiles as a share of the median; 0 when
/// the sample is too small to have quartiles.
pub fn iqr_share(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, q3)) => {
            let m = median(values);
            if m == 0.0 {
                0.0
            } else {
                (q3 - q1) / m.abs()
            }
        }
        None => 0.0,
    }
}

/// Median, minimum, maximum and quartile spread of one metric across
/// a run's windows (or a run's set-up repetitions).
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub iqr_share: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        Summary {
            median: median(values),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            iqr_share: iqr_share(values),
            n: values.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 50.0), Some(50));
        assert_eq!(percentile(&s, 95.0), Some(95));
        assert_eq!(percentile(&s, 100.0), Some(100));
        assert_eq!(percentile(&s, 0.0), Some(1));
        assert_eq!(percentile(&[7], 95.0), Some(7));
        assert_eq!(percentile(&[], 50.0), None);
        // 41 ops: rank ceil(0.95 * 41) = 39.
        let s: Vec<u64> = (1..=41).collect();
        assert_eq!(percentile(&s, 95.0), Some(39));
    }

    #[test]
    fn ten_samples_beyond_rule() {
        assert_eq!(samples_beyond(200, 95.0), 10);
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(199), Some(90.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
    }

    #[test]
    fn median_of_repetitions() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // One noisy repetition does not move the median.
        assert_eq!(median(&[10.0, 10.0, 10.0, 10.0, 27.0]), 10.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]).unwrap();
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]).unwrap();
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
        assert!((iqr_share(&[1.0, 2.0, 4.0, 8.0, 16.0]) - 10.5 / 4.0).abs() < 1e-12);
    }
}
