//! Hypothesis tests for the confirmatory phase.
//!
//! §2.2: "a goodness-of-fit test may be applied to see if a particular
//! attribute does indeed follow a hypothesized distribution or a
//! chi-squared test may be applied to a cross-tabulation". Implemented:
//! chi-squared independence (on a [`CrossTab`]), chi-squared
//! goodness-of-fit, and one-sample Kolmogorov–Smirnov.

use crate::crosstab::CrossTab;
use crate::error::{Result, StatsError};
use crate::special::{chi_squared_sf, kolmogorov_sf};

/// Outcome of a hypothesis test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TestResult {
    /// The test statistic.
    pub statistic: f64,
    /// Degrees of freedom (0 where not applicable, e.g. K-S).
    pub df: f64,
    /// The p-value (probability of a statistic at least this extreme
    /// under the null hypothesis).
    pub p_value: f64,
}

/// Pearson chi-squared test of independence on a contingency table.
pub fn chi_squared_independence(ct: &CrossTab) -> Result<TestResult> {
    let (r, c) = (ct.row_labels().len(), ct.col_labels().len());
    if r < 2 || c < 2 {
        return Err(StatsError::InvalidParameter(
            "independence test needs at least a 2x2 table",
        ));
    }
    let expected = ct.expected()?;
    let mut stat = 0.0;
    for (obs_row, exp_row) in ct.counts().iter().zip(&expected) {
        for (&o, &e) in obs_row.iter().zip(exp_row) {
            if e > 0.0 {
                let d = o as f64 - e;
                stat += d * d / e;
            }
        }
    }
    let df = ((r - 1) * (c - 1)) as f64;
    Ok(TestResult {
        statistic: stat,
        df,
        p_value: chi_squared_sf(stat, df),
    })
}

/// Chi-squared goodness-of-fit of observed counts against expected
/// *probabilities* (which must sum to ~1).
pub fn chi_squared_goodness_of_fit(observed: &[u64], expected_probs: &[f64]) -> Result<TestResult> {
    if observed.len() != expected_probs.len() {
        return Err(StatsError::MismatchedLengths {
            left: observed.len(),
            right: expected_probs.len(),
        });
    }
    if observed.len() < 2 {
        return Err(StatsError::InvalidParameter(
            "goodness-of-fit needs at least 2 categories",
        ));
    }
    let psum: f64 = expected_probs.iter().sum();
    if (psum - 1.0).abs() > 1e-6 || expected_probs.iter().any(|&p| p <= 0.0) {
        return Err(StatsError::InvalidParameter(
            "expected probabilities must be positive and sum to 1",
        ));
    }
    let n: u64 = observed.iter().sum();
    if n == 0 {
        return Err(StatsError::NotEnoughData { needed: 1, got: 0 });
    }
    let mut stat = 0.0;
    for (&o, &p) in observed.iter().zip(expected_probs) {
        let e = n as f64 * p;
        let d = o as f64 - e;
        stat += d * d / e;
    }
    let df = (observed.len() - 1) as f64;
    Ok(TestResult {
        statistic: stat,
        df,
        p_value: chi_squared_sf(stat, df),
    })
}

/// One-sample Kolmogorov–Smirnov test against a hypothesized CDF.
///
/// `cdf` must be the null distribution's cumulative distribution
/// function; the p-value uses the asymptotic Kolmogorov distribution
/// with the Stephens small-sample correction.
pub fn ks_one_sample(xs: &[f64], cdf: impl Fn(f64) -> f64) -> Result<TestResult> {
    if xs.is_empty() {
        return Err(StatsError::NotEnoughData { needed: 1, got: 0 });
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len() as f64;
    let mut d = 0.0f64;
    for (i, &x) in sorted.iter().enumerate() {
        let f = cdf(x).clamp(0.0, 1.0);
        let d_plus = (i as f64 + 1.0) / n - f;
        let d_minus = f - i as f64 / n;
        d = d.max(d_plus).max(d_minus);
    }
    let sqrt_n = n.sqrt();
    let lambda = (sqrt_n + 0.12 + 0.11 / sqrt_n) * d;
    Ok(TestResult {
        statistic: d,
        df: 0.0,
        p_value: kolmogorov_sf(lambda),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crosstab::CrossTab;
    use sdbms_data::{Attribute, DataSet, DataType, Schema, Value};

    fn table(cells: &[(&str, &str, usize)]) -> CrossTab {
        let schema = Schema::new(vec![
            Attribute::category("A", DataType::Str),
            Attribute::category("B", DataType::Str),
        ])
        .unwrap();
        let mut ds = DataSet::new("d", schema);
        for &(a, b, n) in cells {
            for _ in 0..n {
                ds.push_row(vec![Value::Str(a.into()), Value::Str(b.into())])
                    .unwrap();
            }
        }
        CrossTab::from_dataset(&ds, "A", "B").unwrap().0
    }

    #[test]
    fn independence_detects_dependence() {
        // Strong association.
        let dependent = table(&[("x", "p", 40), ("x", "q", 5), ("y", "p", 5), ("y", "q", 40)]);
        let r = chi_squared_independence(&dependent).unwrap();
        assert!(r.statistic > 20.0);
        assert!(r.p_value < 0.001);
        assert_eq!(r.df, 1.0);
        // Perfect independence.
        let indep = table(&[
            ("x", "p", 20),
            ("x", "q", 20),
            ("y", "p", 20),
            ("y", "q", 20),
        ]);
        let r2 = chi_squared_independence(&indep).unwrap();
        assert!(r2.statistic < 1e-9);
        assert!((r2.p_value - 1.0).abs() < 1e-9);
    }

    #[test]
    fn independence_needs_2x2() {
        let one_row = table(&[("x", "p", 5), ("x", "q", 5)]);
        assert!(chi_squared_independence(&one_row).is_err());
    }

    #[test]
    fn gof_uniform_die() {
        // Fair-looking die.
        let fair = [10u64, 9, 11, 10, 12, 8];
        let probs = [1.0 / 6.0; 6];
        let r = chi_squared_goodness_of_fit(&fair, &probs).unwrap();
        assert_eq!(r.df, 5.0);
        assert!(r.p_value >= 0.05, "p = {}", r.p_value);
        // Heavily loaded die.
        let loaded = [60u64, 2, 2, 2, 2, 2];
        let r2 = chi_squared_goodness_of_fit(&loaded, &probs).unwrap();
        assert!(r2.p_value < 0.001);
    }

    #[test]
    fn gof_validates_inputs() {
        assert!(chi_squared_goodness_of_fit(&[1, 2], &[0.5]).is_err());
        assert!(chi_squared_goodness_of_fit(&[1, 2], &[0.7, 0.7]).is_err());
        assert!(chi_squared_goodness_of_fit(&[5], &[1.0]).is_err());
        assert!(chi_squared_goodness_of_fit(&[0, 0], &[0.5, 0.5]).is_err());
    }

    #[test]
    fn ks_one_sample_uniform_null() {
        // Evenly spaced points fit U(0,1) perfectly.
        let xs: Vec<f64> = (1..100).map(|i| f64::from(i) / 100.0).collect();
        let r = ks_one_sample(&xs, |x| x.clamp(0.0, 1.0)).unwrap();
        assert!(r.statistic < 0.02);
        assert!(r.p_value > 0.9);
        // Same points against a wrong null (all mass near 0).
        let r2 = ks_one_sample(&xs, |x| x.clamp(0.0, 1.0).sqrt().sqrt()).unwrap();
        assert!(r2.p_value < 0.01, "p = {}", r2.p_value);
    }

    #[test]
    fn ks_empty_errors() {
        assert!(ks_one_sample(&[], |_| 0.5).is_err());
    }

    proptest::proptest! {
        #[test]
        fn prop_p_values_in_unit_interval(
            xs in proptest::collection::vec(0.0f64..1.0, 5..100)
        ) {
            let r = ks_one_sample(&xs, |x| x).unwrap();
            proptest::prop_assert!((0.0..=1.0).contains(&r.p_value));
            proptest::prop_assert!((0.0..=1.0).contains(&r.statistic));
        }
    }
}
