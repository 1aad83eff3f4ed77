//! Histograms.
//!
//! §2.2: data checking "is typically done using histograms or range
//! checking programs"; §3.2 stores histograms in the Summary Database
//! "as two vectors (one for specifying the ranges and the other for the
//! number of values that fall in each range)". [`Histogram`] is exactly
//! that pair of vectors, plus below/above overflow counts so it can be
//! incrementally maintained under updates that move values outside the
//! original range.

use crate::error::{Result, StatsError};

/// An equi-width histogram: `edges` (len = bins + 1) and `counts`
/// (len = bins), with overflow counters on both sides.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    edges: Vec<f64>,
    counts: Vec<u64>,
    below: u64,
    above: u64,
}

impl Histogram {
    /// An empty histogram with `bins` equal-width bins spanning
    /// `[lo, hi)`.
    pub fn with_range(lo: f64, hi: f64, bins: usize) -> Result<Self> {
        if bins == 0 {
            return Err(StatsError::InvalidParameter("bins must be > 0"));
        }
        if lo >= hi || lo.is_nan() || !lo.is_finite() || !hi.is_finite() {
            return Err(StatsError::InvalidParameter(
                "histogram range must be finite with lo < hi",
            ));
        }
        let width = (hi - lo) / bins as f64;
        let edges = (0..=bins).map(|i| lo + width * i as f64).collect();
        Ok(Histogram {
            edges,
            counts: vec![0; bins],
            below: 0,
            above: 0,
        })
    }

    /// Build from data with `bins` bins spanning the data range
    /// (max is placed in the last bin).
    pub fn from_data(xs: &[f64], bins: usize) -> Result<Self> {
        let lo = crate::descriptive::min(xs)?;
        let hi = crate::descriptive::max(xs)?;
        let hi = if lo == hi { lo + 1.0 } else { hi };
        let mut h = Self::with_range(lo, hi + (hi - lo) * 1e-9, bins)?;
        for &x in xs {
            h.add(x);
        }
        Ok(h)
    }

    /// Number of bins.
    #[must_use]
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Bin edges (`bins + 1` values, ascending).
    #[must_use]
    pub fn edges(&self) -> &[f64] {
        &self.edges
    }

    /// Per-bin counts.
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Observations below the first edge.
    #[must_use]
    pub fn below(&self) -> u64 {
        self.below
    }

    /// Observations at or above the last edge.
    #[must_use]
    pub fn above(&self) -> u64 {
        self.above
    }

    /// Total observations recorded (including overflow).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.below + self.above + self.counts.iter().sum::<u64>()
    }

    fn bin_of(&self, x: f64) -> Option<usize> {
        let lo = self.edges[0];
        // lint: allow(no-panic): with_range rejects bins == 0, so every histogram has at least two edges
        let hi = *self.edges.last().expect("edges nonempty");
        if x < lo || x >= hi || x.is_nan() {
            return None;
        }
        let width = (hi - lo) / self.counts.len() as f64;
        // lint: allow(lossy-cast): the truncation IS the binning operation; x in [lo, hi) bounds the quotient to [0, bins)
        let i = ((x - lo) / width) as usize;
        Some(i.min(self.counts.len() - 1))
    }

    /// Record one observation — O(1).
    pub fn add(&mut self, x: f64) {
        if x.is_nan() {
            return;
        }
        match self.bin_of(x) {
            Some(i) => self.counts[i] += 1,
            None if x < self.edges[0] => self.below += 1,
            None => self.above += 1,
        }
    }

    /// Remove one (previously recorded) observation — O(1). Saturates
    /// at zero if the observation was never recorded.
    pub fn remove(&mut self, x: f64) {
        if x.is_nan() {
            return;
        }
        match self.bin_of(x) {
            Some(i) => self.counts[i] = self.counts[i].saturating_sub(1),
            None if x < self.edges[0] => self.below = self.below.saturating_sub(1),
            None => self.above = self.above.saturating_sub(1),
        }
    }

    /// The midpoint of the fullest bin — the standard histogram mode
    /// estimate for continuous data.
    pub fn mode_estimate(&self) -> Result<f64> {
        let (i, &c) = self
            .counts
            .iter()
            .enumerate()
            .max_by_key(|&(_, &c)| c)
            .ok_or(StatsError::NotEnoughData { needed: 1, got: 0 })?;
        if c == 0 {
            return Err(StatsError::NotEnoughData { needed: 1, got: 0 });
        }
        Ok((self.edges[i] + self.edges[i + 1]) / 2.0)
    }

    /// Merge a histogram with identical edges into this one.
    pub fn merge(&mut self, other: &Histogram) -> Result<()> {
        if self.edges != other.edges {
            return Err(StatsError::InvalidParameter(
                "histogram merge requires identical edges",
            ));
        }
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.below += other.below;
        self.above += other.above;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_data_covers_everything() {
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        let h = Histogram::from_data(&xs, 10).unwrap();
        assert_eq!(h.total(), 100);
        assert_eq!(h.below(), 0);
        assert_eq!(h.above(), 0);
        assert_eq!(h.counts().iter().sum::<u64>(), 100);
        // Even spread: every bin has 10.
        assert!(h.counts().iter().all(|&c| c == 10), "{:?}", h.counts());
    }

    #[test]
    fn overflow_counters() {
        let mut h = Histogram::with_range(0.0, 10.0, 5).unwrap();
        h.add(-1.0);
        h.add(5.0);
        h.add(10.0); // at the top edge -> above
        h.add(99.0);
        assert_eq!(h.below(), 1);
        assert_eq!(h.above(), 2);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn add_remove_roundtrip() {
        let mut h = Histogram::with_range(0.0, 100.0, 10).unwrap();
        for &x in &[5.0, 15.0, 15.0, 95.0, -3.0, 200.0] {
            h.add(x);
        }
        let snapshot = h.clone();
        h.add(44.0);
        h.remove(44.0);
        assert_eq!(h, snapshot);
        h.remove(-3.0);
        assert_eq!(h.below(), 0);
    }

    #[test]
    fn nan_is_ignored() {
        let mut h = Histogram::with_range(0.0, 1.0, 2).unwrap();
        h.add(f64::NAN);
        h.remove(f64::NAN);
        assert_eq!(h.total(), 0);
    }

    #[test]
    fn mode_estimate_finds_peak() {
        let mut xs = vec![50.0; 30];
        xs.extend((0..100).map(f64::from));
        let h = Histogram::from_data(&xs, 10).unwrap();
        let m = h.mode_estimate().unwrap();
        assert!((45.0..65.0).contains(&m), "mode estimate {m}");
        let empty = Histogram::with_range(0.0, 1.0, 4).unwrap();
        assert!(empty.mode_estimate().is_err());
    }

    #[test]
    fn merge_requires_same_edges() {
        let mut a = Histogram::with_range(0.0, 10.0, 5).unwrap();
        let mut b = Histogram::with_range(0.0, 10.0, 5).unwrap();
        a.add(1.0);
        b.add(2.0);
        b.add(-5.0);
        a.merge(&b).unwrap();
        assert_eq!(a.total(), 3);
        assert_eq!(a.below(), 1);
        let c = Histogram::with_range(0.0, 20.0, 5).unwrap();
        assert!(a.merge(&c).is_err());
    }

    #[test]
    fn invalid_construction() {
        assert!(Histogram::with_range(0.0, 1.0, 0).is_err());
        assert!(Histogram::with_range(1.0, 1.0, 4).is_err());
        assert!(Histogram::with_range(2.0, 1.0, 4).is_err());
        assert!(Histogram::with_range(f64::NEG_INFINITY, 1.0, 4).is_err());
    }

    #[test]
    fn constant_data_single_value() {
        let h = Histogram::from_data(&[7.0, 7.0, 7.0], 4).unwrap();
        assert_eq!(h.total(), 3);
        assert_eq!(h.below() + h.above(), 0);
    }

    proptest::proptest! {
        #[test]
        fn prop_merge_matches_single_fill(
            a in proptest::collection::vec(-20.0f64..120.0, 0..80),
            b in proptest::collection::vec(-20.0f64..120.0, 0..80),
            c in proptest::collection::vec(-20.0f64..120.0, 0..80),
            bins in 1usize..16
        ) {
            // Shared edges: merge must equal a single pass over the
            // concatenation, exactly (integer counts), and be
            // associative.
            let fill = |xs: &[f64]| {
                let mut h = Histogram::with_range(0.0, 100.0, bins).unwrap();
                for &x in xs {
                    h.add(x);
                }
                h
            };
            let (ha, hb, hc) = (fill(&a), fill(&b), fill(&c));
            let mut left = ha.clone();
            left.merge(&hb).unwrap();
            left.merge(&hc).unwrap();
            let mut bc = hb.clone();
            bc.merge(&hc).unwrap();
            let mut right = ha.clone();
            right.merge(&bc).unwrap();
            proptest::prop_assert_eq!(&left, &right);
            let all: Vec<f64> = a.iter().chain(b.iter()).chain(c.iter()).copied().collect();
            proptest::prop_assert_eq!(&left, &fill(&all));
            proptest::prop_assert_eq!(left.total(), all.len() as u64);
        }

        #[test]
        fn prop_total_equals_input_len(
            xs in proptest::collection::vec(-1e6f64..1e6, 1..500),
            bins in 1usize..50
        ) {
            let h = Histogram::from_data(&xs, bins).unwrap();
            proptest::prop_assert_eq!(h.total(), xs.len() as u64);
            proptest::prop_assert_eq!(h.below(), 0);
            proptest::prop_assert_eq!(h.above(), 0);
        }
    }
}
