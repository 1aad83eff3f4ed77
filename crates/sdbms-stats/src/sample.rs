//! Sampling for exploratory responsiveness.
//!
//! §2.2: "in order to enhance responsiveness, the statistician may base
//! this preliminary analysis on a set of sample records drawn at random
//! from the data set… [later] other, perhaps enlarged, samples" are
//! used in the confirmatory phase. Experiment E7 measures the
//! speed/accuracy trade-off these routines enable.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sdbms_data::DataSet;

use crate::error::{Result, StatsError};

/// Simple random sample of `k` indices from `0..n` without
/// replacement (Floyd's algorithm — O(k) memory, no shuffle of `n`).
pub fn sample_indices(n: usize, k: usize, seed: u64) -> Result<Vec<usize>> {
    if k > n {
        return Err(StatsError::InvalidParameter(
            "sample size exceeds population",
        ));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut chosen = std::collections::HashSet::with_capacity(k);
    let mut out = Vec::with_capacity(k);
    for j in n - k..n {
        let t = rng.gen_range(0..=j);
        if chosen.insert(t) {
            out.push(t);
        } else {
            chosen.insert(j);
            out.push(j);
        }
    }
    out.sort_unstable();
    Ok(out)
}

/// A simple random sample of a data set's rows, as a new data set.
pub fn sample_dataset(ds: &DataSet, k: usize, seed: u64) -> Result<DataSet> {
    let idx = sample_indices(ds.len(), k, seed)?;
    let rows = idx.iter().map(|&i| ds.rows()[i].clone()).collect();
    Ok(DataSet::from_rows(
        &format!("{}_sample{}", ds.name(), k),
        ds.schema().clone(),
        rows,
    )?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdbms_data::census::{microdata_census, CensusConfig};

    #[test]
    fn sample_indices_properties() {
        let s = sample_indices(1000, 100, 7).unwrap();
        assert_eq!(s.len(), 100);
        assert!(s.windows(2).all(|w| w[0] < w[1]), "sorted, no duplicates");
        assert!(s.iter().all(|&i| i < 1000));
        // Determinism & seed sensitivity.
        assert_eq!(s, sample_indices(1000, 100, 7).unwrap());
        assert_ne!(s, sample_indices(1000, 100, 8).unwrap());
        // Edge cases.
        assert_eq!(sample_indices(5, 5, 1).unwrap(), vec![0, 1, 2, 3, 4]);
        assert!(sample_indices(5, 6, 1).is_err());
        assert!(sample_indices(0, 0, 1).unwrap().is_empty());
    }

    #[test]
    fn sample_is_roughly_uniform() {
        // Each of 10 strata should get ~k/10 of the sample.
        let mut hits = [0usize; 10];
        for seed in 0..30 {
            for i in sample_indices(1000, 200, seed).unwrap() {
                hits[i / 100] += 1;
            }
        }
        let expect = 30.0 * 200.0 / 10.0;
        for (i, &h) in hits.iter().enumerate() {
            let ratio = h as f64 / expect;
            assert!(
                (0.8..1.2).contains(&ratio),
                "stratum {i}: {h} hits vs {expect} expected"
            );
        }
    }

    #[test]
    fn sample_dataset_estimates_mean() {
        let ds = microdata_census(&CensusConfig {
            rows: 20_000,
            invalid_fraction: 0.0,
            outlier_fraction: 0.0,
            ..Default::default()
        })
        .unwrap();
        let (full, _) = ds.column_f64("INCOME").unwrap();
        let full_mean = crate::descriptive::mean(&full).unwrap();
        let s = sample_dataset(&ds, 2_000, 42).unwrap();
        assert_eq!(s.len(), 2_000);
        assert_eq!(s.schema(), ds.schema());
        let (sampled, _) = s.column_f64("INCOME").unwrap();
        let sample_mean = crate::descriptive::mean(&sampled).unwrap();
        let rel_err = (sample_mean - full_mean).abs() / full_mean;
        assert!(rel_err < 0.05, "relative error {rel_err}");
    }
}
