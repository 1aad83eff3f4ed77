//! Quantiles and order statistics.
//!
//! §3.1's examples: "the analyst may be interested in finding out the
//! 5th and 95th quantiles. Later, the analyst may ask for the trimmed
//! mean… bounded by the 5th and 95th quantile values". Quantiles use the
//! type-7 (linear interpolation) definition.

use crate::error::{Result, StatsError};

/// `q`-th quantile (0 ≤ q ≤ 1), type-7 linear interpolation (R's
/// default). NaNs must be filtered by the caller.
pub fn quantile(xs: &[f64], q: f64) -> Result<f64> {
    if xs.is_empty() {
        return Err(StatsError::NotEnoughData { needed: 1, got: 0 });
    }
    if !(0.0..=1.0).contains(&q) {
        return Err(StatsError::InvalidParameter("quantile q must be in [0,1]"));
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(quantile_sorted(&sorted, q))
}

/// [`quantile`] over data the caller already sorted ascending.
#[must_use]
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let h = q * (n as f64 - 1.0);
    // lint: allow(lossy-cast): h lies in [0, n-1] under the documented q in [0,1] contract (validated by `quantile`), so floor/ceil fit in usize exactly
    let lo = h.floor() as usize;
    // lint: allow(lossy-cast): same bound as the floor above
    let hi = h.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
    }
}

/// Median (0.5 quantile).
pub fn median(xs: &[f64]) -> Result<f64> {
    quantile(xs, 0.5)
}

/// First quartile, median, third quartile.
pub fn quartiles(xs: &[f64]) -> Result<(f64, f64, f64)> {
    if xs.is_empty() {
        return Err(StatsError::NotEnoughData { needed: 1, got: 0 });
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok((
        quantile_sorted(&sorted, 0.25),
        quantile_sorted(&sorted, 0.5),
        quantile_sorted(&sorted, 0.75),
    ))
}

/// Trimmed mean: the mean of observations between the `lo_q` and
/// `hi_q` quantiles inclusive (§3.1's "mean of all the values in a
/// given range bounded by the 5th and 95th quantile values").
pub fn trimmed_mean(xs: &[f64], lo_q: f64, hi_q: f64) -> Result<f64> {
    if !(0.0..=1.0).contains(&lo_q) || !(0.0..=1.0).contains(&hi_q) || lo_q >= hi_q {
        return Err(StatsError::InvalidParameter(
            "trim bounds must satisfy 0 <= lo < hi <= 1",
        ));
    }
    if xs.is_empty() {
        return Err(StatsError::NotEnoughData { needed: 1, got: 0 });
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let lo_v = quantile_sorted(&sorted, lo_q);
    let hi_v = quantile_sorted(&sorted, hi_q);
    let kept: Vec<f64> = sorted
        .iter()
        .copied()
        .filter(|x| (lo_v..=hi_v).contains(x))
        .collect();
    if kept.is_empty() {
        return Err(StatsError::NotEnoughData { needed: 1, got: 0 });
    }
    Ok(crate::descriptive::sum(&kept) / kept.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]).unwrap(), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]).unwrap(), 2.5);
        assert_eq!(median(&[7.0]).unwrap(), 7.0);
        assert!(median(&[]).is_err());
    }

    #[test]
    fn quantile_type7_reference() {
        // R: quantile(1:10, c(.25,.5,.75)) -> 3.25, 5.50, 7.75
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quantile(&xs, 0.25).unwrap() - 3.25).abs() < 1e-12);
        assert!((quantile(&xs, 0.5).unwrap() - 5.5).abs() < 1e-12);
        assert!((quantile(&xs, 0.75).unwrap() - 7.75).abs() < 1e-12);
        assert_eq!(quantile(&xs, 0.0).unwrap(), 1.0);
        assert_eq!(quantile(&xs, 1.0).unwrap(), 10.0);
        assert!(quantile(&xs, 1.5).is_err());
    }

    #[test]
    fn quartiles_of_reversed_input() {
        let xs: Vec<f64> = (0..101).map(f64::from).rev().collect();
        assert_eq!(quartiles(&xs).unwrap(), (25.0, 50.0, 75.0));
    }

    #[test]
    fn trimmed_mean_drops_outliers() {
        let mut xs: Vec<f64> = (1..=99).map(f64::from).collect();
        xs.push(1e9); // wild outlier
        let plain = crate::descriptive::mean(&xs).unwrap();
        let trimmed = trimmed_mean(&xs, 0.05, 0.95).unwrap();
        assert!(plain > 1e6);
        assert!((45.0..56.0).contains(&trimmed), "trimmed {trimmed}");
        assert!(trimmed_mean(&xs, 0.9, 0.1).is_err());
    }

    proptest::proptest! {

        #[test]
        fn prop_quantiles_monotone(
            xs in proptest::collection::vec(-1e6f64..1e6, 2..200)
        ) {
            let q25 = quantile(&xs, 0.25).unwrap();
            let q50 = quantile(&xs, 0.50).unwrap();
            let q75 = quantile(&xs, 0.75).unwrap();
            proptest::prop_assert!(q25 <= q50 && q50 <= q75);
        }
    }
}
