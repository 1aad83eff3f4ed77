//! The catalogue of cacheable statistical functions.
//!
//! §3.2: "Searching a Summary Database will require using a function
//! name-attribute name(s) pair as the search argument." A
//! [`StatFunction`] is the function-name half of that pair, with a
//! canonical string form (the index key), a *maintenance class* that
//! tells the engine how the cached result reacts to updates (§4.2's
//! differentiable vs "difficult" functions), and the one evaluator:
//! [`StatFunction::answer`] / [`StatFunction::aux_state`] turn a
//! column profile into the cached result and its auxiliary state, and
//! [`StatFunction::accumulators`] / [`StatFunction::aux_accumulators`]
//! name what that profile must hold.
//! Every route — miss, stale refresh, maintenance recompute, warm-up,
//! snapshot, server, scrub — scans typed batches into a profile and
//! ends here; [`StatFunction::compute`] profiles an in-memory slice
//! and does the same.

use std::fmt;

use sdbms_data::Value;
use sdbms_exec::{Accumulators, ColumnProfile};
use sdbms_stats::{descriptive, quantile, FrequencyTable, Histogram, Moments};

use crate::error::Result;
use crate::value::SummaryValue;

/// Largest distinct-value count for which Mode / UniqueCount keep a
/// full frequency table as incremental state. Beyond this, entries are
/// maintained by invalidation: storage can hold arbitrarily large
/// entries (long records), but auxiliary state that rivals the column
/// in size defeats the purpose of a summary cache.
pub const MAX_FREQ_AUX_DISTINCT: usize = 128;

/// A cacheable function over one attribute.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum StatFunction {
    /// Count of non-missing values.
    Count,
    /// Sum.
    Sum,
    /// Mean.
    Mean,
    /// Sample variance.
    Variance,
    /// Sample standard deviation.
    StdDev,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Median.
    Median,
    /// Q1, median, Q3 (one vector entry, as Figure 4 allows).
    Quartiles,
    /// Arbitrary quantile, in per-mille (so the key stays hashable);
    /// `Quantile(50)` is the 5th percentile.
    Quantile(u16),
    /// Most frequent value.
    Mode,
    /// Number of distinct values.
    UniqueCount,
    /// Equi-width histogram with this many bins over the column range.
    Histogram(u16),
    /// Trimmed mean between two per-mille quantile bounds.
    TrimmedMean(u16, u16),
}

/// How a cached result can be maintained under updates (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaintenanceClass {
    /// Fully differentiable: O(1) exact update from constant-size
    /// auxiliary state (count/sum/M2 — the Koenig & Paige aggregates).
    Differentiable,
    /// Insert is O(1) but deleting the extreme forces a rescan
    /// (min/max).
    SemiDifferentiable,
    /// Order statistics: maintained through the §4.2 median window,
    /// with occasional single-pass regeneration.
    OrderStatistic,
    /// Incrementally maintainable through a frequency table or
    /// histogram (bounded-size state, O(log u) updates).
    Distributional,
    /// No incremental form; invalidate on update (§4.3 fallback).
    NonIncremental,
}

impl StatFunction {
    /// Canonical name — the function half of the Summary Database key.
    #[must_use]
    pub fn name(&self) -> String {
        match self {
            StatFunction::Count => "count".into(),
            StatFunction::Sum => "sum".into(),
            StatFunction::Mean => "mean".into(),
            StatFunction::Variance => "variance".into(),
            StatFunction::StdDev => "std_dev".into(),
            StatFunction::Min => "min".into(),
            StatFunction::Max => "max".into(),
            StatFunction::Median => "median".into(),
            StatFunction::Quartiles => "quartiles".into(),
            StatFunction::Quantile(pm) => format!("quantile_{pm}"),
            StatFunction::Mode => "mode".into(),
            StatFunction::UniqueCount => "unique_count".into(),
            StatFunction::Histogram(bins) => format!("histogram_{bins}"),
            StatFunction::TrimmedMean(lo, hi) => format!("trimmed_mean_{lo}_{hi}"),
        }
    }

    /// How this function's cache entry is maintained.
    #[must_use]
    pub fn maintenance_class(&self) -> MaintenanceClass {
        match self {
            StatFunction::Count
            | StatFunction::Sum
            | StatFunction::Mean
            | StatFunction::Variance
            | StatFunction::StdDev => MaintenanceClass::Differentiable,
            StatFunction::Min | StatFunction::Max => MaintenanceClass::SemiDifferentiable,
            StatFunction::Median | StatFunction::Quantile(_) | StatFunction::Quartiles => {
                MaintenanceClass::OrderStatistic
            }
            StatFunction::Mode | StatFunction::UniqueCount | StatFunction::Histogram(_) => {
                MaintenanceClass::Distributional
            }
            StatFunction::TrimmedMean(_, _) => MaintenanceClass::NonIncremental,
        }
    }

    /// Whether the function needs numeric input (everything except the
    /// value-based Mode / UniqueCount).
    #[must_use]
    pub fn needs_numeric(&self) -> bool {
        !matches!(self, StatFunction::Mode | StatFunction::UniqueCount)
    }

    /// The profile accumulators [`StatFunction::answer`] reads — what
    /// a scan that only serves the answer (a snapshot, the server, the
    /// scrub cross-check) must feed, and nothing more. Count needs only
    /// the row counts every profile keeps.
    #[must_use]
    pub fn accumulators(&self) -> Accumulators {
        match self {
            StatFunction::Count => Accumulators::NONE,
            StatFunction::Mode | StatFunction::UniqueCount => Accumulators::FREQ,
            _ => Accumulators::NUMBERS,
        }
    }

    /// What [`StatFunction::aux_state`] reads on top of that — fed as
    /// well when the result becomes a Summary Database entry.
    #[must_use]
    pub fn aux_accumulators(&self) -> Accumulators {
        match self {
            StatFunction::Count
            | StatFunction::Sum
            | StatFunction::Mean
            | StatFunction::Variance
            | StatFunction::StdDev => Accumulators::MOMENTS,
            StatFunction::Min | StatFunction::Max => Accumulators::MINMAX,
            StatFunction::Median | StatFunction::Quantile(500) | StatFunction::Histogram(_) => {
                Accumulators::NUMBERS
            }
            StatFunction::Mode | StatFunction::UniqueCount => Accumulators::FREQ,
            StatFunction::Quartiles | StatFunction::Quantile(_) | StatFunction::TrimmedMean(..) => {
                Accumulators::NONE
            }
        }
    }

    /// The function's answer from a column profile — the one
    /// evaluator. Numeric answers are the `sdbms_stats` slice functions
    /// over the numeric values in row order (`p.numbers`) and
    /// Mode / UniqueCount read the frequency table, so the result is a
    /// pure function of the column: never of the morsel partition, the
    /// worker count, or the route that built the profile.
    ///
    /// # Panics
    /// If the profile was not fed [`StatFunction::accumulators`] — a
    /// caller bug that would otherwise cache an answer over no data.
    pub fn answer(&self, p: &ColumnProfile) -> Result<SummaryValue> {
        assert!(
            p.feeds().contains(self.accumulators()),
            "profile lacks the accumulators {self} reads"
        );
        let nums = p.numbers.as_slice();
        let per_mille = |pm: u16| f64::from(pm) / 1000.0;
        Ok(match self {
            StatFunction::Count => SummaryValue::Count((p.rows - p.non_numeric) as u64),
            StatFunction::Sum => SummaryValue::Scalar(descriptive::sum(nums)),
            StatFunction::Mean => SummaryValue::Scalar(descriptive::mean(nums)?),
            StatFunction::Variance => SummaryValue::Scalar(descriptive::variance(nums)?),
            StatFunction::StdDev => SummaryValue::Scalar(descriptive::std_dev(nums)?),
            StatFunction::Min => SummaryValue::Scalar(descriptive::min(nums)?),
            StatFunction::Max => SummaryValue::Scalar(descriptive::max(nums)?),
            StatFunction::Median => SummaryValue::Scalar(quantile::median(nums)?),
            StatFunction::Quartiles => {
                let (q1, q2, q3) = quantile::quartiles(nums)?;
                SummaryValue::Vector(vec![q1, q2, q3])
            }
            StatFunction::Quantile(pm) => {
                SummaryValue::Scalar(quantile::quantile(nums, per_mille(*pm))?)
            }
            StatFunction::Mode => {
                let (v, c) = p.freq.mode()?;
                SummaryValue::ModalValue(v, c)
            }
            StatFunction::UniqueCount => SummaryValue::Count(p.freq.unique_count() as u64),
            StatFunction::Histogram(bins) => {
                SummaryValue::Histogram(Histogram::from_data(nums, usize::from(*bins))?)
            }
            StatFunction::TrimmedMean(lo, hi) => SummaryValue::Scalar(quantile::trimmed_mean(
                nums,
                per_mille(*lo),
                per_mille(*hi),
            )?),
        })
    }

    /// The auxiliary maintenance state for this function from the same
    /// profile (None for [`MaintenanceClass::NonIncremental`]). Moments
    /// and extremes are the profile's own accumulators.
    ///
    /// # Panics
    /// If the profile was not fed [`StatFunction::aux_accumulators`].
    #[must_use]
    pub fn aux_state(&self, p: &ColumnProfile) -> Option<AuxState> {
        assert!(
            p.feeds().contains(self.aux_accumulators()),
            "profile lacks the accumulators {self}'s aux state reads"
        );
        match self.maintenance_class() {
            MaintenanceClass::Differentiable => Some(AuxState::Moments(p.moments)),
            MaintenanceClass::SemiDifferentiable => Some(AuxState::MinMax(p.minmax)),
            MaintenanceClass::OrderStatistic => {
                // The §4.2 window tracks the *median* region only. For
                // other quantiles (and the Q1/Q3 of Quartiles) it can
                // never answer, so those entries carry no aux and fall
                // back to invalidate-and-regenerate — exactly the §4.3
                // fallback for "difficult" functions.
                if !matches!(self, StatFunction::Median | StatFunction::Quantile(500)) {
                    return None;
                }
                let mut w =
                    crate::median_window::MedianWindow::new(crate::median_window::DEFAULT_WINDOW);
                w.rebuild(&p.numbers);
                Some(AuxState::Window(w))
            }
            MaintenanceClass::Distributional => match self {
                StatFunction::Histogram(bins) => {
                    Histogram::from_data(&p.numbers, usize::from(*bins))
                        .ok()
                        .map(AuxState::Histo)
                }
                // A frequency table over a near-key column is as
                // large as the column itself; persisting it as
                // auxiliary state would defeat the cache (even
                // though long records could hold it). Beyond this
                // bound the entry falls back to the §4.3
                // invalidate-and-regenerate policy (aux = None).
                _ => (p.freq.unique_count() <= MAX_FREQ_AUX_DISTINCT)
                    .then(|| AuxState::Freq(p.freq.clone())),
            },
            MaintenanceClass::NonIncremental => None,
        }
    }

    /// [`StatFunction::answer`] over an in-memory column (missing
    /// values skipped for numeric functions, counted as a value by
    /// Mode / UniqueCount only if present) — for data that is not in a
    /// store: the archive fallback and test oracles.
    pub fn compute(&self, values: &[Value]) -> Result<SummaryValue> {
        self.answer(&ColumnProfile::of(values, self.accumulators()))
    }

    /// Re-derive the cached result from auxiliary state alone (no data
    /// access) — the payoff of finite differencing. Returns `None` when
    /// the state cannot answer (e.g. window ran off), in which case the
    /// engine falls back to recompute-from-data.
    #[must_use]
    pub fn result_from_aux(&self, aux: &AuxState) -> Option<SummaryValue> {
        match (self, aux) {
            (StatFunction::Count, AuxState::Moments(m)) => Some(SummaryValue::Count(m.count())),
            (StatFunction::Sum, AuxState::Moments(m)) => Some(SummaryValue::Scalar(m.sum())),
            (StatFunction::Mean, AuxState::Moments(m)) => m.mean().ok().map(SummaryValue::Scalar),
            (StatFunction::Variance, AuxState::Moments(m)) => {
                m.variance().ok().map(SummaryValue::Scalar)
            }
            (StatFunction::StdDev, AuxState::Moments(m)) => {
                m.std_dev().ok().map(SummaryValue::Scalar)
            }
            (StatFunction::Min, AuxState::MinMax(mm)) => mm.min().ok().map(SummaryValue::Scalar),
            (StatFunction::Max, AuxState::MinMax(mm)) => mm.max().ok().map(SummaryValue::Scalar),
            (StatFunction::Median, AuxState::Window(w)) => w.median().map(SummaryValue::Scalar),
            (StatFunction::Quantile(pm), AuxState::Window(w)) => {
                // The window tracks the median region only; other
                // quantiles can be answered only at the median.
                if *pm == 500 {
                    w.median().map(SummaryValue::Scalar)
                } else {
                    None
                }
            }
            (StatFunction::Quartiles, _) => None, // needs Q1 and Q3: recompute
            (StatFunction::Mode, AuxState::Freq(t)) => {
                t.mode().ok().map(|(v, c)| SummaryValue::ModalValue(v, c))
            }
            (StatFunction::UniqueCount, AuxState::Freq(t)) => {
                Some(SummaryValue::Count(t.unique_count() as u64))
            }
            (StatFunction::Histogram(_), AuxState::Histo(h)) => {
                Some(SummaryValue::Histogram(h.clone()))
            }
            _ => None,
        }
    }
}

impl fmt::Display for StatFunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

/// Auxiliary per-entry maintenance state (the "perhaps some auxiliary
/// information" of §3.2's incremental recomputation).
#[derive(Debug, Clone, PartialEq)]
pub enum AuxState {
    /// Count/mean/M2 for the differentiable aggregates.
    Moments(Moments),
    /// Extremes with occurrence counts.
    MinMax(sdbms_stats::MinMaxAcc),
    /// The §4.2 median window.
    Window(crate::median_window::MedianWindow),
    /// Full frequency table (mode, unique count).
    Freq(FrequencyTable),
    /// Incrementally maintained histogram.
    Histo(Histogram),
}

/// The standing summary set §3.2 lists for every summarizable column:
/// "mode, mean, median, quartiles, the ranges of values in each column
/// (min & max), the number of unique values, and some measure of
/// frequency of values" (the histogram).
#[must_use]
pub fn standing_summary_functions() -> Vec<StatFunction> {
    vec![
        StatFunction::Count,
        StatFunction::Mean,
        StatFunction::Median,
        StatFunction::Quartiles,
        StatFunction::Min,
        StatFunction::Max,
        StatFunction::Mode,
        StatFunction::UniqueCount,
        StatFunction::Histogram(20),
    ]
}

/// The unit tests' aux-state oracle.
#[cfg(test)]
impl StatFunction {
    /// [`StatFunction::aux_state`] over an in-memory column.
    pub(crate) fn build_aux(&self, values: &[Value]) -> Option<AuxState> {
        self.aux_state(&ColumnProfile::of(values, self.aux_accumulators()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col() -> Vec<Value> {
        vec![
            Value::Int(2),
            Value::Int(4),
            Value::Int(4),
            Value::Int(4),
            Value::Int(5),
            Value::Int(5),
            Value::Int(7),
            Value::Int(9),
            Value::Missing,
        ]
    }

    #[test]
    fn compute_matches_stats_crate() {
        let c = col();
        assert_eq!(
            StatFunction::Count.compute(&c).unwrap(),
            SummaryValue::Count(8)
        );
        assert_eq!(
            StatFunction::Mean.compute(&c).unwrap(),
            SummaryValue::Scalar(5.0)
        );
        assert_eq!(
            StatFunction::Min.compute(&c).unwrap(),
            SummaryValue::Scalar(2.0)
        );
        assert_eq!(
            StatFunction::Median.compute(&c).unwrap(),
            SummaryValue::Scalar(4.5)
        );
        let SummaryValue::Vector(q) = StatFunction::Quartiles.compute(&c).unwrap() else {
            panic!("quartiles should be a vector")
        };
        assert_eq!(q.len(), 3);
        assert_eq!(
            StatFunction::Mode.compute(&c).unwrap(),
            SummaryValue::ModalValue(Value::Int(4), 3)
        );
        assert_eq!(
            StatFunction::UniqueCount.compute(&c).unwrap(),
            SummaryValue::Count(6),
            "5 distinct ints + missing"
        );
    }

    #[test]
    fn quantile_per_mille() {
        let c: Vec<Value> = (1..=100).map(Value::Int).collect();
        let SummaryValue::Scalar(p5) = StatFunction::Quantile(50).compute(&c).unwrap() else {
            panic!()
        };
        assert!((p5 - 5.95).abs() < 1e-9, "type-7 5th percentile of 1..=100");
    }

    #[test]
    fn maintenance_classes() {
        assert_eq!(
            StatFunction::Mean.maintenance_class(),
            MaintenanceClass::Differentiable
        );
        assert_eq!(
            StatFunction::Min.maintenance_class(),
            MaintenanceClass::SemiDifferentiable
        );
        assert_eq!(
            StatFunction::Median.maintenance_class(),
            MaintenanceClass::OrderStatistic
        );
        assert_eq!(
            StatFunction::Mode.maintenance_class(),
            MaintenanceClass::Distributional
        );
        assert_eq!(
            StatFunction::TrimmedMean(50, 950).maintenance_class(),
            MaintenanceClass::NonIncremental
        );
    }

    #[test]
    fn aux_roundtrip_to_result() {
        let c = col();
        for f in [
            StatFunction::Count,
            StatFunction::Sum,
            StatFunction::Mean,
            StatFunction::Variance,
            StatFunction::StdDev,
            StatFunction::Min,
            StatFunction::Max,
            StatFunction::Median,
            StatFunction::Mode,
            StatFunction::UniqueCount,
            StatFunction::Histogram(5),
        ] {
            let aux = f.build_aux(&c).unwrap_or_else(|| panic!("{f} has aux"));
            let from_aux = f.result_from_aux(&aux).unwrap_or_else(|| panic!("{f}"));
            let direct = f.compute(&c).unwrap();
            assert!(
                from_aux.approx_eq(&direct, 1e-9),
                "{f}: {from_aux:?} != {direct:?}"
            );
        }
        assert!(StatFunction::TrimmedMean(50, 950).build_aux(&c).is_none());
    }

    #[test]
    fn names_unique_and_stable() {
        let fns = [
            StatFunction::Count,
            StatFunction::Sum,
            StatFunction::Quantile(50),
            StatFunction::Quantile(950),
            StatFunction::Histogram(10),
            StatFunction::Histogram(20),
            StatFunction::TrimmedMean(50, 950),
        ];
        let names: std::collections::HashSet<String> = fns.iter().map(StatFunction::name).collect();
        assert_eq!(names.len(), fns.len());
        assert_eq!(StatFunction::Quantile(50).name(), "quantile_50");
    }

    #[test]
    fn standing_set_matches_paper_list() {
        let fns = standing_summary_functions();
        assert!(fns.contains(&StatFunction::Mode));
        assert!(fns.contains(&StatFunction::Mean));
        assert!(fns.contains(&StatFunction::Median));
        assert!(fns.contains(&StatFunction::Quartiles));
        assert!(fns.contains(&StatFunction::Min));
        assert!(fns.contains(&StatFunction::Max));
        assert!(fns.contains(&StatFunction::UniqueCount));
    }

    #[test]
    fn empty_column_errors() {
        assert!(StatFunction::Mean.compute(&[]).is_err());
        assert!(StatFunction::Mean.compute(&[Value::Missing]).is_err());
        assert_eq!(
            StatFunction::Count.compute(&[Value::Missing]).unwrap(),
            SummaryValue::Count(0)
        );
    }

    fn every_function() -> Vec<StatFunction> {
        let mut fns = standing_summary_functions();
        fns.extend([
            StatFunction::Sum,
            StatFunction::Variance,
            StatFunction::StdDev,
            StatFunction::Quantile(50),
            StatFunction::Quantile(500),
            StatFunction::Quantile(950),
            StatFunction::TrimmedMean(50, 950),
        ]);
        fns
    }

    /// `function` written directly against `sdbms_stats` — the oracle
    /// the evaluator is pinned to. Deliberately shares no code with
    /// [`StatFunction::answer`].
    fn by_hand(f: &StatFunction, col: &[Value]) -> Result<SummaryValue> {
        let nums: Vec<f64> = col.iter().filter_map(Value::as_f64).collect();
        let freq = FrequencyTable::from_values(col);
        Ok(match f {
            StatFunction::Count => SummaryValue::Count(nums.len() as u64),
            StatFunction::Sum => SummaryValue::Scalar(descriptive::sum(&nums)),
            StatFunction::Mean => SummaryValue::Scalar(descriptive::mean(&nums)?),
            StatFunction::Variance => SummaryValue::Scalar(descriptive::variance(&nums)?),
            StatFunction::StdDev => SummaryValue::Scalar(descriptive::std_dev(&nums)?),
            StatFunction::Min => SummaryValue::Scalar(descriptive::min(&nums)?),
            StatFunction::Max => SummaryValue::Scalar(descriptive::max(&nums)?),
            StatFunction::Median => SummaryValue::Scalar(quantile::median(&nums)?),
            StatFunction::Quartiles => {
                let (a, b, c) = quantile::quartiles(&nums)?;
                SummaryValue::Vector(vec![a, b, c])
            }
            StatFunction::Quantile(pm) => {
                SummaryValue::Scalar(quantile::quantile(&nums, f64::from(*pm) / 1000.0)?)
            }
            StatFunction::Mode => {
                let (v, c) = freq.mode()?;
                SummaryValue::ModalValue(v, c)
            }
            StatFunction::UniqueCount => SummaryValue::Count(freq.unique_count() as u64),
            StatFunction::Histogram(b) => {
                SummaryValue::Histogram(Histogram::from_data(&nums, usize::from(*b))?)
            }
            StatFunction::TrimmedMean(lo, hi) => SummaryValue::Scalar(quantile::trimmed_mean(
                &nums,
                f64::from(*lo) / 1000.0,
                f64::from(*hi) / 1000.0,
            )?),
        })
    }

    /// Byte-level equality: `SummaryValue`'s `==` calls 0.0 and -0.0
    /// equal and NaN unequal to itself; the stored encoding does not.
    fn same_bytes(a: &Result<SummaryValue>, b: &Result<SummaryValue>) -> bool {
        match (a, b) {
            (Ok(a), Ok(b)) => a.encode() == b.encode(),
            (Err(_), Err(_)) => true,
            _ => false,
        }
    }

    proptest::proptest! {
        /// The evaluator is the `sdbms_stats` slice functions over the
        /// numeric values in row order, bit for bit — whichever way the
        /// profile was built: straight pass, only the accumulators the
        /// function names, or morsel-merged at any partition.
        #[test]
        fn evaluator_is_the_stats_crate_bit_for_bit(
            parts in proptest::collection::vec((0u8..5, -4_000i64..4_000), 0..400),
            morsel_rows in 3usize..97,
        ) {
            let col: Vec<Value> = parts
                .iter()
                .map(|&(kind, x)| match kind {
                    0 => Value::Missing,
                    1 => Value::Code(x.unsigned_abs() as u32 % 12),
                    2 => Value::Float(x as f64 / 8.0),
                    3 => Value::Float(if x % 2 == 0 { 0.0 } else { -0.0 }),
                    _ => Value::Int(x % 257),
                })
                .collect();
            let whole = ColumnProfile::from_values(&col);
            let cfg = sdbms_exec::ExecConfig { workers: 2, morsel_rows };
            let merged = sdbms_exec::profile_values(&col, &cfg);
            for f in every_function() {
                let want = by_hand(&f, &col);
                proptest::prop_assert!(same_bytes(&f.compute(&col), &want), "{} compute", f);
                proptest::prop_assert!(same_bytes(&f.answer(&whole), &want), "{} whole", f);
                proptest::prop_assert!(same_bytes(&f.answer(&merged), &want), "{} merged", f);
                proptest::prop_assert_eq!(f.build_aux(&col), f.aux_state(&whole), "{} aux", f);
            }
        }
    }

    #[test]
    #[should_panic(expected = "lacks the accumulators")]
    fn answering_from_an_underfed_profile_is_a_bug() {
        let p = ColumnProfile::of(&col(), StatFunction::Mode.accumulators());
        let _ = StatFunction::Mean.answer(&p);
    }
}
