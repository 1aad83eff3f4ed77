//! Descriptive statistics over numeric observations.
//!
//! These are the "simple summary-statistics operations such as min,
//! max, mean, median, and standard-deviation" (§2.1) that every
//! statistical package provides and the Summary Database caches.
//! Inputs are `&[f64]` — callers extract columns with
//! `DataSet::column_f64`, which already drops missing values (and
//! reports how many were dropped).

use crate::error::{Result, StatsError};

/// Sum of the observations (0 for an empty slice).
#[must_use]
pub fn sum(xs: &[f64]) -> f64 {
    // Neumaier (improved Kahan) summation: column sums over millions of
    // rows lose precision with naive accumulation, and the incremental-
    // maintenance experiments compare against this as ground truth.
    let mut s = 0.0f64;
    let mut c = 0.0f64;
    for &x in xs {
        let t = s + x;
        if s.abs() >= x.abs() {
            c += (s - t) + x;
        } else {
            c += (x - t) + s;
        }
        s = t;
    }
    s + c
}

/// Arithmetic mean.
pub fn mean(xs: &[f64]) -> Result<f64> {
    if xs.is_empty() {
        return Err(StatsError::NotEnoughData { needed: 1, got: 0 });
    }
    Ok(sum(xs) / xs.len() as f64)
}

/// Minimum (NaNs ignored; all-NaN input is an error).
pub fn min(xs: &[f64]) -> Result<f64> {
    xs.iter()
        .copied()
        .filter(|x| !x.is_nan())
        .fold(None, |acc: Option<f64>, x| {
            Some(acc.map_or(x, |a| a.min(x)))
        })
        .ok_or(StatsError::NotEnoughData { needed: 1, got: 0 })
}

/// Maximum (NaNs ignored; all-NaN input is an error).
pub fn max(xs: &[f64]) -> Result<f64> {
    xs.iter()
        .copied()
        .filter(|x| !x.is_nan())
        .fold(None, |acc: Option<f64>, x| {
            Some(acc.map_or(x, |a| a.max(x)))
        })
        .ok_or(StatsError::NotEnoughData { needed: 1, got: 0 })
}

/// Sample variance (n−1 denominator), via Welford's algorithm for
/// numerical stability.
pub fn variance(xs: &[f64]) -> Result<f64> {
    if xs.len() < 2 {
        return Err(StatsError::NotEnoughData {
            needed: 2,
            got: xs.len(),
        });
    }
    let mut mean = 0.0f64;
    let mut m2 = 0.0f64;
    for (i, &x) in xs.iter().enumerate() {
        let delta = x - mean;
        mean += delta / (i as f64 + 1.0);
        m2 += delta * (x - mean);
    }
    Ok(m2 / (xs.len() as f64 - 1.0))
}

/// Sample standard deviation.
pub fn std_dev(xs: &[f64]) -> Result<f64> {
    Ok(variance(xs)?.sqrt())
}

/// The standard one-look summary of a column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Describe {
    /// Observation count (missing values excluded by the caller).
    pub count: usize,
    /// Mean.
    pub mean: f64,
    /// Sample standard deviation (0 when `count == 1`).
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Sum.
    pub sum: f64,
}

/// Compute a [`Describe`] summary in one pass.
pub fn describe(xs: &[f64]) -> Result<Describe> {
    if xs.is_empty() {
        return Err(StatsError::NotEnoughData { needed: 1, got: 0 });
    }
    Ok(Describe {
        count: xs.len(),
        mean: mean(xs)?,
        std_dev: if xs.len() > 1 { std_dev(xs)? } else { 0.0 },
        min: min(xs)?,
        max: max(xs)?,
        sum: sum(xs),
    })
}

/// Count of observations within `center ± k·spread` — the §3.1
/// "values that lie outside the range defined by M ± k·SD" query,
/// inverted. Returns `(inside, outside)`.
#[must_use]
pub fn count_within_band(xs: &[f64], center: f64, spread: f64, k: f64) -> (usize, usize) {
    let lo = center - k * spread;
    let hi = center + k * spread;
    let inside = xs.iter().filter(|&&x| (lo..=hi).contains(&x)).count();
    (inside, xs.len() - inside)
}

#[cfg(test)]
mod tests {
    use super::*;

    const XS: [f64; 8] = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];

    #[test]
    fn basic_moments() {
        assert_eq!(sum(&XS), 40.0);
        assert_eq!(mean(&XS).unwrap(), 5.0);
        // Population variance is 4; sample variance = 32/7.
        assert!((variance(&XS).unwrap() - 32.0 / 7.0).abs() < 1e-12);
        assert!((std_dev(&XS).unwrap() - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn extremes() {
        assert_eq!(min(&XS).unwrap(), 2.0);
        assert_eq!(max(&XS).unwrap(), 9.0);
        assert_eq!(min(&[3.0, f64::NAN]).unwrap(), 3.0);
        assert!(min(&[f64::NAN]).is_err());
        assert!(max(&[]).is_err());
    }

    #[test]
    fn empty_and_small_inputs_error() {
        assert!(mean(&[]).is_err());
        assert!(variance(&[1.0]).is_err());
    }

    #[test]
    fn describe_consistency() {
        let d = describe(&XS).unwrap();
        assert_eq!(d.count, 8);
        assert_eq!(d.mean, 5.0);
        assert_eq!(d.min, 2.0);
        assert_eq!(d.max, 9.0);
        assert_eq!(d.sum, 40.0);
        let single = describe(&[7.0]).unwrap();
        assert_eq!(single.std_dev, 0.0);
    }

    #[test]
    fn band_count_matches_paper_query() {
        // M ± 1·SD of XS: mean 5, sd ≈ 2.138.
        let m = mean(&XS).unwrap();
        let sd = std_dev(&XS).unwrap();
        let (inside, outside) = count_within_band(&XS, m, sd, 1.0);
        assert_eq!(inside + outside, XS.len());
        assert_eq!(outside, 2, "2 and 9 fall outside one sd");
    }

    #[test]
    fn kahan_sum_is_accurate() {
        // 1 + 1e16 - 1e16 pattern defeats naive summation.
        let mut xs = vec![1e16, 1.0, -1e16];
        xs.extend(std::iter::repeat_n(1.0, 10));
        assert_eq!(sum(&xs), 11.0);
    }

    proptest::proptest! {
        #[test]
        fn prop_mean_bounded_by_extremes(xs in proptest::collection::vec(-1e9f64..1e9, 1..200)) {
            let m = mean(&xs).unwrap();
            let lo = min(&xs).unwrap();
            let hi = max(&xs).unwrap();
            proptest::prop_assert!(m >= lo - 1e-6 && m <= hi + 1e-6);
        }

        #[test]
        fn prop_variance_nonnegative(xs in proptest::collection::vec(-1e6f64..1e6, 2..200)) {
            proptest::prop_assert!(variance(&xs).unwrap() >= 0.0);
        }

        #[test]
        fn prop_shift_invariance_of_variance(
            xs in proptest::collection::vec(-1e3f64..1e3, 2..100), shift in -1e3f64..1e3) {
            let v1 = variance(&xs).unwrap();
            let shifted: Vec<f64> = xs.iter().map(|x| x + shift).collect();
            let v2 = variance(&shifted).unwrap();
            proptest::prop_assert!((v1 - v2).abs() < 1e-6 * v1.abs().max(1.0));
        }
    }
}
