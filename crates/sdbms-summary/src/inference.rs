//! Inference over cached results — the "Database Abstract" idea.
//!
//! §5.1 discusses Rowe's Database Abstract, where "a set of inference
//! rules will be used to calculate the results of other functions,
//! based on the values stored in the Database Abstract", sometimes as
//! *estimates*. This module brings that into the Summary Database:
//! before computing a missing function from data, [`infer`] tries to
//! derive it from entries that are already cached.
//!
//! Two strengths of derivation:
//! - **Exact**: algebra between aggregates — mean = sum / count,
//!   std-dev = √variance, count = histogram total, …
//! - **Estimate**: distributional reads off a cached histogram —
//!   median by within-bin interpolation, min/max from the outermost
//!   occupied bins. These carry the basis they were derived from so
//!   the analyst can judge them (Rowe's system did the same).

use crate::db::SummaryDb;
use crate::error::Result;
use crate::function::StatFunction;
use crate::value::SummaryValue;

/// A result obtained without any data access.
#[derive(Debug, Clone, PartialEq)]
pub enum Inferred {
    /// Exactly equal to what a recompute would produce.
    Exact(SummaryValue),
    /// An approximation, with a human-readable derivation basis.
    Estimate {
        /// The estimated value.
        value: f64,
        /// What it was derived from (e.g. `"histogram_20"`).
        basis: String,
    },
}

/// Fetch a *fresh* cached scalar for `f(attribute)`, if present.
fn fresh_scalar(db: &SummaryDb, attribute: &str, f: &StatFunction) -> Result<Option<f64>> {
    Ok(db
        .lookup_fresh(attribute, f)?
        .and_then(|e| e.result.as_scalar()))
}

/// Try to infer `function(attribute)` from other fresh cache entries.
/// Returns `None` when no rule applies — the caller then computes from
/// data as usual.
pub fn infer(db: &SummaryDb, attribute: &str, function: &StatFunction) -> Result<Option<Inferred>> {
    // ---- exact algebraic rules -------------------------------------
    match function {
        StatFunction::Mean => {
            if let (Some(sum), Some(count)) = (
                fresh_scalar(db, attribute, &StatFunction::Sum)?,
                fresh_scalar(db, attribute, &StatFunction::Count)?,
            ) {
                if count > 0.0 {
                    return Ok(Some(Inferred::Exact(SummaryValue::Scalar(sum / count))));
                }
            }
        }
        StatFunction::Sum => {
            if let (Some(mean), Some(count)) = (
                fresh_scalar(db, attribute, &StatFunction::Mean)?,
                fresh_scalar(db, attribute, &StatFunction::Count)?,
            ) {
                return Ok(Some(Inferred::Exact(SummaryValue::Scalar(mean * count))));
            }
        }
        StatFunction::StdDev => {
            if let Some(var) = fresh_scalar(db, attribute, &StatFunction::Variance)? {
                if var >= 0.0 {
                    return Ok(Some(Inferred::Exact(SummaryValue::Scalar(var.sqrt()))));
                }
            }
        }
        StatFunction::Variance => {
            if let Some(sd) = fresh_scalar(db, attribute, &StatFunction::StdDev)? {
                return Ok(Some(Inferred::Exact(SummaryValue::Scalar(sd * sd))));
            }
        }
        _ => {}
    }

    // ---- derivations from a cached histogram -----------------------
    let histogram = db
        .entries_for_attribute(attribute)?
        .into_iter()
        .filter(|e| {
            e.freshness == crate::db::Freshness::Fresh
                && matches!(e.function, StatFunction::Histogram(_))
        })
        .find_map(|e| match e.result {
            SummaryValue::Histogram(h) => Some((e.function.name(), h)),
            _ => None,
        });
    let Some((basis, h)) = histogram else {
        return Ok(None);
    };

    match function {
        StatFunction::Count => {
            // Exact: the histogram counted every non-missing value
            // (overflow bins included).
            Ok(Some(Inferred::Exact(SummaryValue::Count(h.total()))))
        }
        StatFunction::Min if h.below() == 0 && h.total() > 0 => {
            // Estimate: the left edge of the first occupied bin.
            let i = h.counts().iter().position(|&c| c > 0);
            Ok(i.map(|i| Inferred::Estimate {
                value: h.edges()[i],
                basis: basis.clone(),
            }))
        }
        StatFunction::Max if h.above() == 0 && h.total() > 0 => {
            let i = h.counts().iter().rposition(|&c| c > 0);
            Ok(i.map(|i| Inferred::Estimate {
                value: h.edges()[i + 1],
                basis: basis.clone(),
            }))
        }
        StatFunction::Median | StatFunction::Quantile(_) => {
            let q = match function {
                StatFunction::Median => 0.5,
                StatFunction::Quantile(pm) => f64::from(*pm) / 1000.0,
                // lint: allow(no-panic): the enclosing match arm admits only Median and Quantile
                _ => unreachable!(),
            };
            // Overflow mass has unknown position: refuse rather than
            // guess badly.
            if h.below() > 0 || h.above() > 0 || h.total() == 0 {
                return Ok(None);
            }
            let target = q * h.total() as f64;
            let mut acc = 0.0;
            for (i, &c) in h.counts().iter().enumerate() {
                let next = acc + c as f64;
                if next >= target && c > 0 {
                    // Linear interpolation within the bin.
                    let frac = ((target - acc) / c as f64).clamp(0.0, 1.0);
                    let lo = h.edges()[i];
                    let hi = h.edges()[i + 1];
                    return Ok(Some(Inferred::Estimate {
                        value: lo + frac * (hi - lo),
                        basis,
                    }));
                }
                acc = next;
            }
            Ok(None)
        }
        StatFunction::Mode => Ok(h
            .mode_estimate()
            .ok()
            .map(|value| Inferred::Estimate { value, basis })),
        _ => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maintain::{get_or_compute_resilient, AccuracyPolicy};
    use sdbms_data::Value;
    use sdbms_storage::StorageEnv;

    fn db() -> SummaryDb {
        SummaryDb::create(StorageEnv::new(64).pool).unwrap()
    }

    fn column(n: usize) -> Vec<Value> {
        (0..n)
            .map(|i| Value::Int(((i * 37) % 1000) as i64))
            .collect()
    }

    fn seed(db: &SummaryDb, col: &[Value], fns: &[StatFunction]) {
        for f in fns {
            let mut source = |feeds| Ok(sdbms_exec::ColumnProfile::of(col, feeds));
            get_or_compute_resilient(db, "X", f, AccuracyPolicy::Exact, &mut source, None).unwrap();
        }
    }

    #[test]
    fn mean_from_sum_and_count_is_exact() {
        let db = db();
        let col = column(500);
        seed(&db, &col, &[StatFunction::Sum, StatFunction::Count]);
        let inferred = infer(&db, "X", &StatFunction::Mean).unwrap().unwrap();
        let direct = StatFunction::Mean.compute(&col).unwrap();
        match inferred {
            Inferred::Exact(v) => assert!(v.approx_eq(&direct, 1e-12)),
            other => panic!("expected exact, got {other:?}"),
        }
        // The reverse rule too.
        let db2 = db;
        db2.remove("X", &StatFunction::Sum).unwrap();
        seed(&db2, &col, &[StatFunction::Mean]);
        let back = infer(&db2, "X", &StatFunction::Sum).unwrap().unwrap();
        let direct = StatFunction::Sum.compute(&col).unwrap();
        match back {
            Inferred::Exact(v) => assert!(v.approx_eq(&direct, 1e-9)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn stddev_variance_bidirectional() {
        let db = db();
        let col = column(100);
        seed(&db, &col, &[StatFunction::Variance]);
        let sd = infer(&db, "X", &StatFunction::StdDev).unwrap().unwrap();
        let direct = StatFunction::StdDev.compute(&col).unwrap();
        match sd {
            Inferred::Exact(v) => assert!(v.approx_eq(&direct, 1e-12)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn no_rule_no_answer() {
        let db = db();
        // Nothing cached at all.
        assert_eq!(infer(&db, "X", &StatFunction::Mean).unwrap(), None);
        // Count alone is not enough for the mean.
        seed(&db, &column(10), &[StatFunction::Count]);
        assert_eq!(infer(&db, "X", &StatFunction::Mean).unwrap(), None);
    }

    #[test]
    fn stale_entries_never_feed_inference() {
        let db = db();
        let col = column(100);
        seed(&db, &col, &[StatFunction::Sum, StatFunction::Count]);
        db.invalidate_attribute("X").unwrap();
        assert_eq!(infer(&db, "X", &StatFunction::Mean).unwrap(), None);
    }

    #[test]
    fn count_from_histogram_exact() {
        let db = db();
        let mut col = column(300);
        col.push(Value::Missing);
        seed(&db, &col, &[StatFunction::Histogram(16)]);
        let c = infer(&db, "X", &StatFunction::Count).unwrap().unwrap();
        assert_eq!(
            c,
            Inferred::Exact(SummaryValue::Count(300)),
            "missing excluded"
        );
    }

    #[test]
    fn median_estimate_from_histogram_is_close() {
        let db = db();
        let col = column(5_000);
        seed(&db, &col, &[StatFunction::Histogram(50)]);
        let est = infer(&db, "X", &StatFunction::Median).unwrap().unwrap();
        let direct = StatFunction::Median
            .compute(&col)
            .unwrap()
            .as_scalar()
            .unwrap();
        match est {
            Inferred::Estimate { value, basis } => {
                assert_eq!(basis, "histogram_50");
                let rel = (value - direct).abs() / direct.abs().max(1.0);
                assert!(rel < 0.05, "estimate {value} vs true {direct}");
            }
            other => panic!("{other:?}"),
        }
        // Quantiles too.
        let q9 = infer(&db, "X", &StatFunction::Quantile(900))
            .unwrap()
            .unwrap();
        let direct_q9 = StatFunction::Quantile(900)
            .compute(&col)
            .unwrap()
            .as_scalar()
            .unwrap();
        match q9 {
            Inferred::Estimate { value, .. } => {
                assert!((value - direct_q9).abs() / direct_q9 < 0.05);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn extremes_estimated_from_histogram_bins() {
        let db = db();
        let col = column(1_000);
        seed(&db, &col, &[StatFunction::Histogram(20)]);
        let min_est = infer(&db, "X", &StatFunction::Min).unwrap().unwrap();
        let max_est = infer(&db, "X", &StatFunction::Max).unwrap().unwrap();
        let (true_min, true_max) = (0.0, 999.0);
        match (min_est, max_est) {
            (Inferred::Estimate { value: lo, .. }, Inferred::Estimate { value: hi, .. }) => {
                // The estimates bound the truth within one bin width.
                let bin = 999.0 / 20.0;
                assert!((lo - true_min).abs() <= bin + 1.0);
                assert!((hi - true_max).abs() <= bin + 1.0);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn mode_estimate_from_histogram() {
        let db = db();
        let mut col = column(200);
        // Pile mass at 500.
        col.extend(std::iter::repeat_n(Value::Int(500), 150));
        seed(&db, &col, &[StatFunction::Histogram(10)]);
        let est = infer(&db, "X", &StatFunction::Mode).unwrap().unwrap();
        match est {
            Inferred::Estimate { value, .. } => {
                assert!((400.0..620.0).contains(&value), "mode est {value}");
            }
            other => panic!("{other:?}"),
        }
    }
}
