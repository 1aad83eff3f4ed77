//! Property-based integration tests of the maintenance invariant: under
//! random update streams, every cached summary either equals a
//! from-scratch recomputation (fresh entries) or is correctly flagged
//! stale.

use proptest::prelude::*;

use sdbms::data::Value;
use sdbms::exec::{Accumulators, ColumnProfile};
use sdbms::storage::StorageEnv;
use sdbms::summary::{
    apply_updates, get_or_compute_resilient, AccuracyPolicy, ComputeSource, MaintenancePolicy,
    StatFunction, SummaryDb, SummaryValue, UpdateDelta,
};

/// An in-memory column as the Summary DB's profile source.
fn source(col: &[Value]) -> impl FnMut(Accumulators) -> sdbms::summary::Result<ColumnProfile> + '_ {
    |feeds| Ok(ColumnProfile::of(col, feeds))
}

/// The lookup path with no archive fallback.
fn look_up(
    db: &SummaryDb,
    f: &StatFunction,
    accuracy: AccuracyPolicy,
    col: &[Value],
) -> (SummaryValue, ComputeSource) {
    get_or_compute_resilient(db, "C", f, accuracy, &mut source(col), None).unwrap()
}

fn all_functions() -> Vec<StatFunction> {
    vec![
        StatFunction::Count,
        StatFunction::Sum,
        StatFunction::Mean,
        StatFunction::Variance,
        StatFunction::Min,
        StatFunction::Max,
        StatFunction::Median,
        StatFunction::Mode,
        StatFunction::UniqueCount,
        StatFunction::Histogram(8),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn incremental_policy_is_exact(
        base in prop::collection::vec(-500i64..500, 8..80),
        updates in prop::collection::vec(
            (any::<prop::sample::Index>(), -500i64..500, any::<bool>()), 1..30)
    ) {
        let env = StorageEnv::new(256);
        let db = SummaryDb::create(env.pool).unwrap();
        let mut data: Vec<Value> = base.iter().map(|&x| Value::Int(x)).collect();
        for f in all_functions() {
            look_up(&db, &f, AccuracyPolicy::Exact, &data);
        }
        for (idx, new_raw, make_missing) in updates {
            let i = idx.index(data.len());
            let new = if make_missing { Value::Missing } else { Value::Int(new_raw) };
            let old = std::mem::replace(&mut data[i], new.clone());
            if old == new {
                continue;
            }
            apply_updates(
                &db,
                "C",
                &[UpdateDelta { old, new }],
                MaintenancePolicy::Incremental,
                &mut source(&data),
            )
            .unwrap();
            // Every FRESH entry must equal direct recomputation; stale
            // entries are permitted only where the engine declared them.
            for f in all_functions() {
                if let Some(entry) = db.lookup("C", &f).unwrap() {
                    if entry.freshness != sdbms::summary::Freshness::Fresh {
                        continue;
                    }
                    // An incrementally maintained histogram keeps its
                    // original bin edges (values outside land in the
                    // overflow counters — §3.2's fixed "two vectors"),
                    // so only the total is comparable to a recompute.
                    if let SummaryValue::Histogram(h) = &entry.result {
                        let live = data.iter().filter(|v| v.as_f64().is_some()).count();
                        prop_assert_eq!(h.total(), live as u64, "histogram total");
                        continue;
                    }
                    match f.compute(&data) {
                        Ok(direct) => prop_assert!(
                            entry.result.approx_eq(&direct, 1e-6),
                            "{f}: {:?} != {direct:?}",
                            entry.result
                        ),
                        Err(_) => { /* column degenerated (all missing) */ }
                    }
                }
            }
        }
    }

    #[test]
    fn tolerate_policy_never_serves_beyond_budget(
        base in prop::collection::vec(0i64..100, 5..40),
        batches in prop::collection::vec(1usize..5, 1..6),
        budget in 0u32..8
    ) {
        let env = StorageEnv::new(128);
        let db = SummaryDb::create(env.pool).unwrap();
        let data: Vec<Value> = base.iter().map(|&x| Value::Int(x)).collect();
        look_up(&db, &StatFunction::Mean, AccuracyPolicy::Exact, &data);
        let mut absorbed = 0u32;
        for batch in batches {
            let deltas: Vec<UpdateDelta> = (0..batch)
                .map(|k| UpdateDelta {
                    old: data[k % data.len()].clone(),
                    new: Value::Int(999),
                })
                .collect();
            // Note: deltas here are synthetic (we don't mutate `data`),
            // which is fine under InvalidateLazy — nothing reads them.
            apply_updates(&db, "C", &deltas, MaintenancePolicy::InvalidateLazy,
                &mut source(&data)).unwrap();
            absorbed += batch as u32;
            let (_, src) = look_up(
                &db,
                &StatFunction::Mean,
                AccuracyPolicy::Tolerate(budget),
                &data,
            );
            if absorbed <= budget {
                prop_assert_eq!(src, ComputeSource::CacheTolerated);
            } else {
                prop_assert_eq!(src, ComputeSource::Computed);
                absorbed = 0; // recompute reset the staleness counter
            }
        }
    }
}

#[test]
fn median_window_ablation_rebuild_counts_decrease_with_size() {
    // DESIGN.md ablation: larger windows absorb more updates before a
    // rebuild. Deterministic drift workload.
    let n = 5_000usize;
    let base: Vec<f64> = (0..n).map(|i| ((i * 7919) % n) as f64).collect();
    let mut rebuilds_by_window = Vec::new();
    for window in [5usize, 51, 501] {
        let mut data = base.clone();
        let mut w = sdbms::summary::MedianWindow::new(window);
        w.rebuild(&data);
        let mut rebuilds = 0;
        for k in 0..800 {
            // Drift: push small values up.
            let i = k % n;
            let old = data[i];
            data[i] = old + 2_000.0;
            if !w.replace(old, data[i]) || !w.is_usable() {
                w.rebuild(&data);
                rebuilds += 1;
            }
        }
        let expect = sdbms::stats::quantile::median(&data).unwrap();
        assert_eq!(w.median().unwrap(), expect, "window {window}");
        rebuilds_by_window.push(rebuilds);
    }
    assert!(
        rebuilds_by_window[0] >= rebuilds_by_window[1]
            && rebuilds_by_window[1] >= rebuilds_by_window[2],
        "rebuilds must not increase with window size: {rebuilds_by_window:?}"
    );
    assert!(
        rebuilds_by_window[0] > 0,
        "tiny window must rebuild under drift"
    );
}
