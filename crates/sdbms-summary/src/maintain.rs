//! Maintenance of cached results under view updates.
//!
//! §3.2: "Whether or not a value in the Summary Database must be
//! precise at all times, the DBMS must be able to periodically bring it
//! up to date… One possibility is to recompute the function using the
//! updated data as input. A more attractive alternative is to
//! incrementally recompute the result using the old function value,
//! changes made to the data, and perhaps some auxiliary information."
//! §4.3 adds the fallback: "after each update operation all the values
//! associated with the updated attribute will be marked as invalid" and
//! regenerated lazily.
//!
//! [`apply_updates`] does both, per entry: an entry with auxiliary
//! state absorbs a delta through it (and is recomputed at once when the
//! state gives up), an entry without goes stale until its next exact
//! lookup. [`AccuracyPolicy`] is the user-communicated tolerance of
//! §3.2 ("the user should have the capability of communicating his
//! wishes regarding the desired accuracy").
//!
//! Whenever an entry must be (re)computed from data — a lookup miss, a
//! stale refresh, a maintenance recompute, a warm-up — the caller's
//! [`ProfileSource`] scans the stored column once, feeding exactly the
//! accumulators the functions at hand read, and
//! [`StatFunction::answer`] / [`StatFunction::aux_state`] turn that
//! profile into the entry. There is no other way in.

use sdbms_data::Value;
use sdbms_exec::{Accumulators, ColumnProfile};
use sdbms_stats::ExtremeAfterRemove;

use crate::db::{Entry, Freshness, SummaryDb};
use crate::error::{Result, SummaryError};
use crate::function::{AuxState, StatFunction};
use crate::value::SummaryValue;

/// How fresh a served answer must be (per-query, user-specified).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccuracyPolicy {
    /// Serve only exact answers; recompute stale entries first.
    Exact,
    /// Serve a stale answer if it has absorbed at most this many
    /// updates since it was last exact — "a change of one or two values
    /// has very little effect on the value of the median" (§3.2).
    Tolerate(u32),
}

/// One cell change in the view, as seen by the cache.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateDelta {
    /// Value before the update (`Missing` = the cell held no number).
    pub old: Value,
    /// Value after the update.
    pub new: Value,
}

/// What the maintenance pass did (experiment E2/E6 reporting).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintenanceReport {
    /// Entries updated purely from auxiliary state.
    pub incremental: usize,
    /// Entries recomputed from column data.
    pub recomputed: usize,
    /// Entries marked stale.
    pub invalidated: usize,
}

/// Where a served answer came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ComputeSource {
    /// Fresh cache hit.
    Cache,
    /// Stale cache entry served under a tolerance policy.
    CacheTolerated,
    /// Computed (and cached) now.
    Computed,
    /// Computed from the fallback source (e.g. the raw archive)
    /// because the primary column source is damaged. Deliberately
    /// *not* cached: once the primary source is repaired, a cached
    /// fallback result could disagree with it.
    Fallback,
}

/// True for errors that mean *this cache copy is damaged* — a storage
/// fault (checksum mismatch, lost block, exhausted retries) or stored
/// bytes that no longer decode — rather than a logic error. The
/// degradation strategy for these is: quarantine the entry and
/// recompute from data. A [`StorageError::Crashed`] is excluded (the
/// whole hierarchy is down; nothing can be recomputed until restart),
/// as is pool exhaustion (a resource problem, not data damage).
#[must_use]
pub fn quarantinable(e: &SummaryError) -> bool {
    fn damaged(se: &sdbms_storage::StorageError) -> bool {
        !se.is_crash() && !matches!(se, sdbms_storage::StorageError::PoolExhausted)
    }
    match e {
        SummaryError::Decode(_) => true,
        SummaryError::Storage(se) => damaged(se),
        // Column sources surface their I/O problems wrapped in data
        // errors; the damage classification is the same.
        SummaryError::Data(sdbms_data::DataError::Storage(se)) => damaged(se),
        _ => false,
    }
}

/// Where recomputes get a stored column from: one batch scan feeding
/// the requested accumulators (a superset is fine, a subset is not).
pub type ProfileSource<'a> = dyn FnMut(Accumulators) -> Result<ColumnProfile> + 'a;

/// The accumulators a scan must feed to build entries (answer and
/// auxiliary state) for all of `functions`.
fn accumulators_for<'a>(functions: impl IntoIterator<Item = &'a StatFunction>) -> Accumulators {
    functions.into_iter().fold(Accumulators::NONE, |acc, f| {
        acc.union(f.accumulators()).union(f.aux_accumulators())
    })
}

/// A fresh entry for `function(attribute)` from a column profile.
fn fresh_entry(
    db: &SummaryDb,
    attribute: &str,
    function: &StatFunction,
    profile: &ColumnProfile,
) -> Result<Entry> {
    let result = function.answer(profile)?;
    db.note_recompute();
    Ok(Entry {
        attribute: attribute.to_string(),
        function: function.clone(),
        result,
        freshness: Freshness::Fresh,
        aux: function.aux_state(profile),
        updates_since_refresh: 0,
    })
}

/// Apply one batch of updates on `attribute` to every cached entry of
/// that attribute: an entry with auxiliary state absorbs the deltas
/// through it (§3.2); an entry without goes stale, to be regenerated
/// by its next exact lookup (§4.3); an entry whose state gives up
/// (extreme deleted, median window ran off) is recomputed now.
/// `profile` scans the post-update column and is called at most once,
/// for all the entries that gave up.
pub fn apply_updates(
    db: &SummaryDb,
    attribute: &str,
    deltas: &[UpdateDelta],
    profile: &mut ProfileSource<'_>,
) -> Result<MaintenanceReport> {
    let mut report = MaintenanceReport::default();
    if deltas.is_empty() {
        return Ok(report);
    }
    // Functions whose entries need the data; one scan serves them all.
    let mut rescan: Vec<StatFunction> = Vec::new();
    for mut entry in db.entries_for_attribute(attribute)? {
        entry.updates_since_refresh = entry
            .updates_since_refresh
            .saturating_add(deltas.len() as u32);
        // A stale entry stays stale (no aux to maintain).
        let (Freshness::Fresh, Some(aux)) = (entry.freshness, entry.aux.as_mut()) else {
            entry.freshness = Freshness::Stale;
            entry.aux = None;
            report.invalidated += 1;
            db.put(&entry)?;
            continue;
        };
        let maintained = apply_deltas_to_aux(aux, deltas)
            .then(|| entry.function.result_from_aux(aux))
            .flatten();
        match maintained {
            Some(result) => {
                entry.result = result;
                db.note_incremental();
                report.incremental += 1;
                db.put(&entry)?;
            }
            // Aux signalled a rescan (deleted extreme, window ran off,
            // or non-derivable result): recompute.
            None => rescan.push(entry.function),
        }
    }
    if !rescan.is_empty() {
        let p = profile(accumulators_for(&rescan))?;
        for function in &rescan {
            db.put(&fresh_entry(db, attribute, function, &p)?)?;
            report.recomputed += 1;
        }
    }
    Ok(report)
}

/// Warm `functions` for `attribute`: a multi-function miss. Entries
/// already fresh are kept; the rest are filled from one scan feeding
/// what they read (no scan at all when nothing is cold). Functions the
/// column cannot support (e.g. mean of an all-missing column) are
/// skipped. Returns how many entries are fresh afterwards.
pub fn warm_attribute(
    db: &SummaryDb,
    attribute: &str,
    functions: &[StatFunction],
    profile: &mut ProfileSource<'_>,
) -> Result<usize> {
    let mut cold = Vec::new();
    for f in functions {
        if db.lookup_fresh(attribute, f)?.is_none() {
            cold.push(f);
        }
    }
    let mut warmed = functions.len() - cold.len();
    if !cold.is_empty() {
        let p = profile(accumulators_for(cold.iter().copied()))?;
        for f in cold {
            if let Ok(entry) = fresh_entry(db, attribute, f, &p) {
                db.put(&entry)?;
                warmed += 1;
            }
        }
    }
    Ok(warmed)
}

/// Apply deltas to one auxiliary state. Returns `false` when the state
/// can no longer answer and a recompute is required.
fn apply_deltas_to_aux(aux: &mut AuxState, deltas: &[UpdateDelta]) -> bool {
    for d in deltas {
        let ok = match aux {
            AuxState::Moments(m) => match (d.old.as_f64(), d.new.as_f64()) {
                (Some(o), Some(n)) => m.replace(o, n).is_ok(),
                (Some(o), None) => m.remove(o).is_ok(),
                (None, Some(n)) => {
                    m.add(n);
                    true
                }
                (None, None) => true,
            },
            AuxState::MinMax(mm) => {
                let removed_ok = match d.old.as_f64() {
                    Some(o) => mm.remove(o) == ExtremeAfterRemove::Unchanged,
                    None => true,
                };
                if removed_ok {
                    if let Some(n) = d.new.as_f64() {
                        mm.add(n);
                    }
                    true
                } else {
                    false
                }
            }
            AuxState::Window(w) => match (d.old.as_f64(), d.new.as_f64()) {
                (Some(o), Some(n)) => w.replace(o, n),
                (Some(o), None) => w.remove(o),
                (None, Some(n)) => {
                    w.add(n);
                    true
                }
                (None, None) => true,
            },
            AuxState::Freq(t) => {
                if d.old.is_missing() && d.new.is_missing() {
                    true
                } else {
                    t.remove(&d.old).is_ok() && {
                        t.add(&d.new);
                        true
                    }
                }
            }
            AuxState::Histo(h) => {
                if let Some(o) = d.old.as_f64() {
                    h.remove(o);
                }
                if let Some(n) = d.new.as_f64() {
                    h.add(n);
                }
                true
            }
        };
        if !ok {
            return false;
        }
    }
    true
}

/// The lookup path — the §3.2 search algorithm: "If the desired pair
/// is found, the corresponding result will be returned. Otherwise,
/// after the function has been applied… the new information will be
/// inserted into the Summary Database." With graceful degradation
/// (§fault tolerance):
///
/// - A damaged cache entry (storage fault or undecodable bytes during
///   lookup) is **quarantined** — removed and counted — and the lookup
///   proceeds as a miss, recomputing from the view column.
/// - A failure while *writing back* a recomputed entry is tolerated:
///   the freshly computed value is still served; only the caching is
///   lost.
/// - If the view column itself cannot be scanned (damaged concrete
///   view) and a `fallback` source is given (the raw archive), the
///   answer is computed from the fallback's in-memory column and served
///   as [`ComputeSource::Fallback`], without being cached.
///
/// Crashes ([`sdbms_storage::StorageError::Crashed`]) are never
/// degraded around — they propagate so the caller can restart and
/// recover.
pub fn get_or_compute_resilient(
    db: &SummaryDb,
    attribute: &str,
    function: &StatFunction,
    accuracy: AccuracyPolicy,
    profile: &mut ProfileSource<'_>,
    fallback: Option<&mut dyn FnMut() -> Result<Vec<Value>>>,
) -> Result<(SummaryValue, ComputeSource)> {
    // Lookup with quarantine: a damaged entry becomes a miss.
    let looked = match db.lookup(attribute, function) {
        Ok(e) => e,
        Err(e) if quarantinable(&e) => {
            // Best-effort removal; the entry may be unreachable anyway.
            let _ = db.remove(attribute, function);
            db.note_quarantine();
            None
        }
        Err(e) => return Err(e),
    };
    if let Some(entry) = looked {
        match (entry.freshness, accuracy) {
            (Freshness::Fresh, _) => return Ok((entry.result, ComputeSource::Cache)),
            (Freshness::Stale, AccuracyPolicy::Tolerate(k)) if entry.updates_since_refresh <= k => {
                return Ok((entry.result, ComputeSource::CacheTolerated));
            }
            (Freshness::Stale, _) => {}
        }
    }
    // Miss (or stale-needs-refresh): compute from the view column,
    // degrading to the fallback source if the view is damaged.
    let p = match profile(accumulators_for([function])) {
        Ok(p) => p,
        Err(e) if quarantinable(&e) => match fallback {
            Some(fb) => return Ok((function.compute(&fb()?)?, ComputeSource::Fallback)),
            None => return Err(e),
        },
        Err(e) => return Err(e),
    };
    let entry = fresh_entry(db, attribute, function, &p)?;
    // Cache write-back is best-effort: a fault here loses the caching,
    // not the answer.
    match db.put(&entry) {
        Ok(()) => {}
        Err(e) if quarantinable(&e) => {
            // Make sure no half-written copy can be served later.
            let _ = db.remove(attribute, function);
            db.note_quarantine();
        }
        Err(e) => return Err(e),
    }
    Ok((entry.result, ComputeSource::Computed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdbms_storage::StorageEnv;

    fn db() -> SummaryDb {
        SummaryDb::create(StorageEnv::new(64).pool).unwrap()
    }

    fn int_col(xs: &[i64]) -> Vec<Value> {
        xs.iter().map(|&x| Value::Int(x)).collect()
    }

    /// An in-memory column as a [`ProfileSource`], fed exactly what is
    /// asked for so a wrong accumulator set trips the evaluator.
    fn source(col: &[Value]) -> impl FnMut(Accumulators) -> Result<ColumnProfile> + '_ {
        |feeds| Ok(ColumnProfile::of(col, feeds))
    }

    /// The lookup path with no archive fallback.
    fn look_up(
        db: &SummaryDb,
        attr: &str,
        f: &StatFunction,
        accuracy: AccuracyPolicy,
        profile: &mut ProfileSource<'_>,
    ) -> Result<(SummaryValue, ComputeSource)> {
        get_or_compute_resilient(db, attr, f, accuracy, profile, None)
    }

    fn delta(old: i64, new: i64) -> UpdateDelta {
        UpdateDelta {
            old: Value::Int(old),
            new: Value::Int(new),
        }
    }

    /// Seed the cache with a set of functions over `col`.
    fn seed(db: &SummaryDb, attr: &str, col: &[Value], fns: &[StatFunction]) {
        for f in fns {
            let (_, src) = look_up(db, attr, f, AccuracyPolicy::Exact, &mut source(col)).unwrap();
            assert_eq!(src, ComputeSource::Computed);
        }
    }

    #[test]
    fn cache_hit_after_compute() {
        let db = db();
        let col = int_col(&[1, 2, 3, 4, 5]);
        let f = StatFunction::Mean;
        seed(&db, "X", &col, std::slice::from_ref(&f));
        let mut calls = 0;
        let (v, src) = look_up(&db, "X", &f, AccuracyPolicy::Exact, &mut |feeds| {
            calls += 1;
            source(&col)(feeds)
        })
        .unwrap();
        assert_eq!(src, ComputeSource::Cache);
        assert_eq!(v, SummaryValue::Scalar(3.0));
        assert_eq!(calls, 0, "no data access on a fresh hit");
    }

    #[test]
    fn incremental_maintenance_no_data_access() {
        let db = db();
        let mut data = vec![1i64, 2, 3, 4, 5, 6, 7, 8, 9, 10];
        let col = int_col(&data);
        let fns = [
            StatFunction::Count,
            StatFunction::Sum,
            StatFunction::Mean,
            StatFunction::Variance,
            StatFunction::Median,
            StatFunction::Histogram(5),
            StatFunction::Mode,
            StatFunction::UniqueCount,
        ];
        seed(&db, "X", &col, &fns);
        // Interior update: 5 -> 7 (doesn't touch min/max extremes).
        data[4] = 7;
        let new_col = int_col(&data);
        let report = apply_updates(&db, "X", &[delta(5, 7)], &mut |_| {
            panic!("incremental maintenance must not read the column")
        })
        .unwrap();
        assert_eq!(report.incremental, fns.len());
        assert_eq!(report.recomputed, 0);
        // Every maintained result matches a recompute from scratch.
        for f in &fns {
            let cached = db.lookup_fresh("X", f).unwrap().unwrap().result;
            let direct = f.compute(&new_col).unwrap();
            assert!(
                cached.approx_eq(&direct, 1e-9),
                "{f}: {cached:?} != {direct:?}"
            );
        }
    }

    #[test]
    fn deleting_the_extreme_forces_recompute_of_min_only() {
        let db = db();
        let col = int_col(&[1, 5, 9]);
        seed(&db, "X", &col, &[StatFunction::Min, StatFunction::Mean]);
        let mut fetches = 0;
        let report = apply_updates(
            &db,
            "X",
            &[delta(1, 4)], // removes the minimum
            &mut |feeds| {
                fetches += 1;
                assert_eq!(feeds, accumulators_for([&StatFunction::Min]), "min only");
                source(&int_col(&[4, 5, 9]))(feeds)
            },
        )
        .unwrap();
        assert_eq!(report.recomputed, 1, "min rescan");
        assert_eq!(report.incremental, 1, "mean stays incremental");
        assert_eq!(fetches, 1);
        let min = db.lookup_fresh("X", &StatFunction::Min).unwrap().unwrap();
        assert_eq!(min.result, SummaryValue::Scalar(4.0));
    }

    #[test]
    fn invalidate_lazy_then_tolerated_then_exact() {
        // A trimmed mean has no incremental form, so an update leaves
        // it stale until an exact read regenerates it.
        let db = db();
        let f = StatFunction::TrimmedMean(250, 750);
        seed(
            &db,
            "X",
            &int_col(&[1, 2, 3, 4, 100]),
            std::slice::from_ref(&f),
        );
        let report = apply_updates(&db, "X", &[delta(3, 30)], &mut |_| {
            panic!("an entry without aux is invalidated, not read")
        })
        .unwrap();
        assert_eq!(report.invalidated, 1);
        // Tolerant read serves the stale value without data access.
        let (v, src) = look_up(&db, "X", &f, AccuracyPolicy::Tolerate(5), &mut |_| {
            panic!("tolerated read must not read data")
        })
        .unwrap();
        assert_eq!(src, ComputeSource::CacheTolerated);
        assert_eq!(v, SummaryValue::Scalar(3.0), "old trimmed mean");
        // Exact read recomputes.
        let (v, src) = look_up(
            &db,
            "X",
            &f,
            AccuracyPolicy::Exact,
            &mut source(&int_col(&[1, 2, 30, 4, 100])),
        )
        .unwrap();
        assert_eq!(src, ComputeSource::Computed);
        assert_eq!(v, SummaryValue::Scalar(12.0));
        // Now fresh again.
        let (_, src) = look_up(&db, "X", &f, AccuracyPolicy::Exact, &mut |_| {
            panic!("fresh")
        })
        .unwrap();
        assert_eq!(src, ComputeSource::Cache);
    }

    #[test]
    fn tolerance_exceeded_forces_recompute() {
        let db = db();
        let f = StatFunction::TrimmedMean(250, 750);
        seed(&db, "X", &int_col(&[1, 2, 3]), std::slice::from_ref(&f));
        // 3 updates to an entry without aux.
        let deltas: Vec<UpdateDelta> = (1..4).map(|i| delta(i, i + 10)).collect();
        apply_updates(&db, "X", &deltas, &mut |_| unreachable!()).unwrap();
        let (_, src) = look_up(
            &db,
            "X",
            &f,
            AccuracyPolicy::Tolerate(2),
            &mut source(&int_col(&[11, 12, 13])),
        )
        .unwrap();
        assert_eq!(src, ComputeSource::Computed, "3 updates > tolerance 2");
    }

    #[test]
    fn non_incremental_function_is_invalidated() {
        let db = db();
        let col = int_col(&(1..=100).collect::<Vec<_>>());
        seed(&db, "X", &col, &[StatFunction::TrimmedMean(50, 950)]);
        let report = apply_updates(&db, "X", &[delta(50, 51)], &mut |_| {
            panic!("should invalidate, not recompute")
        })
        .unwrap();
        assert_eq!(report.invalidated, 1);
        assert!(db
            .lookup_fresh("X", &StatFunction::TrimmedMean(50, 950))
            .unwrap()
            .is_none());
    }

    #[test]
    fn missing_value_transitions() {
        let db = db();
        let col = vec![
            Value::Int(10),
            Value::Int(20),
            Value::Int(30),
            Value::Int(40),
        ];
        seed(
            &db,
            "X",
            &col,
            &[StatFunction::Count, StatFunction::Mean, StatFunction::Sum],
        );
        // Invalidate a measurement: 30 -> Missing.
        apply_updates(
            &db,
            "X",
            &[UpdateDelta {
                old: Value::Int(30),
                new: Value::Missing,
            }],
            &mut |_| unreachable!(),
        )
        .unwrap();
        let count = db.lookup_fresh("X", &StatFunction::Count).unwrap().unwrap();
        assert_eq!(count.result, SummaryValue::Count(3));
        let mean = db.lookup_fresh("X", &StatFunction::Mean).unwrap().unwrap();
        assert!(mean
            .result
            .approx_eq(&SummaryValue::Scalar(70.0 / 3.0), 1e-9));
        // And back: Missing -> 35.
        apply_updates(
            &db,
            "X",
            &[UpdateDelta {
                old: Value::Missing,
                new: Value::Int(35),
            }],
            &mut |_| unreachable!(),
        )
        .unwrap();
        let sum = db.lookup_fresh("X", &StatFunction::Sum).unwrap().unwrap();
        assert!(sum.result.approx_eq(&SummaryValue::Scalar(105.0), 1e-9));
    }

    #[test]
    fn updates_to_uncached_attributes_are_free() {
        let db = db();
        let report =
            apply_updates(&db, "NEVER_CACHED", &[delta(1, 2)], &mut |_| unreachable!()).unwrap();
        assert_eq!(report, MaintenanceReport::default());
    }

    fn mixed_col() -> Vec<Value> {
        (0..500i64)
            .map(|i| match i % 7 {
                0 => Value::Missing,
                1 | 2 => Value::Int(i % 23),
                _ => Value::Int((i * 37) % 101),
            })
            .collect()
    }

    #[test]
    fn warm_populates_and_respects_fresh_entries() {
        let db = db();
        let col = mixed_col();
        let fns = crate::function::standing_summary_functions();
        let warmed = warm_attribute(&db, "X", &fns, &mut source(&col)).unwrap();
        assert_eq!(warmed, fns.len());
        let recomputes = db.stats().recomputes;
        // Second warm: everything fresh already — no scan, no new
        // computation.
        let again = warm_attribute(&db, "X", &fns, &mut |_| panic!("nothing is cold")).unwrap();
        assert_eq!(again, fns.len());
        assert_eq!(db.stats().recomputes, recomputes);
    }

    #[test]
    fn warm_skips_unsupported_functions() {
        let db = db();
        // All-missing column: numeric functions cannot be computed.
        let col = vec![Value::Missing; 10];
        let warmed = warm_attribute(
            &db,
            "X",
            &[StatFunction::Mean, StatFunction::Mode, StatFunction::Count],
            &mut source(&col),
        )
        .unwrap();
        // Mode (missing counts as a value) and Count (0) succeed.
        assert_eq!(warmed, 2);
        assert!(db.lookup_fresh("X", &StatFunction::Mean).unwrap().is_none());
    }
}
