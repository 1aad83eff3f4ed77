//! Property-based integration tests of the maintenance invariant: under
//! random update streams, every cached summary either equals a
//! from-scratch recomputation (fresh entries) or is correctly flagged
//! stale.

use proptest::prelude::*;

use sdbms::data::Value;
use sdbms::exec::{Accumulators, ColumnProfile};
use sdbms::storage::StorageEnv;
use sdbms::summary::{
    apply_updates, get_or_compute_resilient, AccuracyPolicy, ComputeSource, Freshness,
    MaintenancePolicy, StatFunction, SummaryDb, SummaryValue, UpdateDelta,
};
use sdbms_testkit::{splitmix, CensusFixture, CENSUS_VIEW};

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
        StatFunction::StdDev,
        StatFunction::Min,
        StatFunction::Max,
        StatFunction::Median,
        StatFunction::Quartiles,
        StatFunction::Quantile(500),
        StatFunction::Quantile(250),
        StatFunction::TrimmedMean(50, 950),
        StatFunction::Mode,
        StatFunction::UniqueCount,
        StatFunction::Histogram(8),
        StatFunction::Histogram(20),
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
            // Which cached entries carry auxiliary state before the delta.
            let mut had_aux = Vec::new();
            for f in all_functions() {
                if let Some(entry) = db.lookup("C", &f).unwrap() {
                    had_aux.push((f, entry.aux.is_some()));
                }
            }
            apply_updates(
                &db,
                "C",
                &[UpdateDelta { old, new }],
                MaintenancePolicy::Incremental,
                &mut source(&data),
            )
            .unwrap();
            for (f, aux) in had_aux {
                let entry = db.lookup("C", &f).unwrap().expect("entry kept");
                // The maintenance rule as the engine runs it: an entry
                // with auxiliary state stays fresh (maintained from the
                // state, or rescanned when the state cannot answer);
                // one without is marked stale.
                let want = if aux { Freshness::Fresh } else { Freshness::Stale };
                prop_assert_eq!(entry.freshness, want, "{} (aux before: {})", f, aux);
                // Every fresh entry equals direct recomputation.
                // Degenerate columns (all missing) have no answer to
                // agree with.
                if entry.freshness == Freshness::Fresh && f.compute(&data).is_ok() {
                    prop_assert!(
                        sdbms_testkit::agrees(&f, &entry.result, &data),
                        "{f}: {:?} disagrees with the column",
                        entry.result
                    );
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
    // DESIGN.md ablation (claim E3): larger windows absorb more updates
    // before a rebuild, and a rebuild is one pass over the column.
    // Count the rebuilds `edits` forces on windows of each size.
    let rebuilds = |base: &[f64], edits: &[(usize, f64)], windows: [usize; 3]| {
        windows.map(|window| {
            let mut data = base.to_vec();
            let mut w = sdbms::summary::MedianWindow::new(window);
            w.rebuild(&data);
            let mut rebuilds = 0;
            for &(i, new) in edits {
                let old = std::mem::replace(&mut data[i], new);
                if !w.replace(old, new) || !w.is_usable() {
                    w.rebuild(&data);
                    rebuilds += 1;
                }
            }
            let expect = sdbms::stats::quantile::median(&data).unwrap();
            assert_eq!(w.median().unwrap(), expect, "window {window}");
            rebuilds
        })
    };
    let monotone = |counts: [usize; 3]| counts[0] >= counts[1] && counts[1] >= counts[2];

    // Drift: push 800 small values up.
    let n = 5_000usize;
    let base: Vec<f64> = (0..n).map(|i| ((i * 7919) % n) as f64).collect();
    let drift: Vec<(usize, f64)> = (0..800).map(|i| (i, base[i] + 2_000.0)).collect();
    let counts = rebuilds(&base, &drift, [5, 51, 501]);
    println!("E3 drift, windows 5/51/501: {counts:?} rebuilds");
    assert!(
        monotone(counts),
        "rebuilds must not increase with window size: {counts:?}"
    );
    assert!(counts[0] > 0, "tiny window must rebuild under drift");

    // E3's workload: 2 000 uniform random replacements over 20 000
    // uniform values. The paper's ~100-value window absorbs them all.
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(11);
    let base: Vec<f64> = (0..20_000).map(|_| rng.gen_range(0.0..10_000.0)).collect();
    let mut rng = StdRng::seed_from_u64(99);
    let random: Vec<(usize, f64)> = (0..2_000)
        .map(|_| (rng.gen_range(0..base.len()), rng.gen_range(0.0..10_000.0)))
        .collect();
    let counts = rebuilds(&base, &random, [11, 101, 1_001]);
    println!("E3 random, windows 11/101/1001: {counts:?} rebuilds");
    assert!(monotone(counts), "{counts:?}");
    assert!(counts[0] > 0, "an 11-value window must rebuild: {counts:?}");
    assert_eq!(counts[1], 0, "a 101-value window absorbs every update");
}

/// Entries outlive commits: 10 000 seeded corrections to INCOME,
/// committed as 50 batches, are all absorbed by the moments entries'
/// auxiliary state — never a recompute — and the answers stay within
/// the 1e-9 the benchmark's oracle allows.
#[test]
fn moments_do_not_drift_over_ten_thousand_batched_deltas() {
    const ROWS: usize = 600;
    let moments = [
        StatFunction::Mean,
        StatFunction::Variance,
        StatFunction::StdDev,
    ];
    let mut dbms = CensusFixture::new()
        .rows(ROWS)
        .crash_consistent(false)
        .build()
        .expect("fixture");
    for f in &moments {
        dbms.compute(CENSUS_VIEW, "INCOME", f, AccuracyPolicy::Exact)
            .expect("seed");
    }
    let mut state = 0x5EED_0023_u64;
    let mut absorbed = 0;
    for _ in 0..50 {
        let batch = dbms.begin_batch(CENSUS_VIEW).expect("begin");
        for _ in 0..200 {
            let row = (splitmix(&mut state) % ROWS as u64) as usize;
            let cents = (splitmix(&mut state) % 20_000_000) as f64 / 100.0;
            dbms.batch_set_cell(batch, row, "INCOME", Value::Float(cents))
                .expect("stage");
        }
        let report = dbms.commit_batch(batch).expect("commit");
        absorbed += report.cells_changed;
    }
    assert!(absorbed >= 9_990, "{absorbed} cells changed");
    let column = dbms.column(CENSUS_VIEW, "INCOME").expect("column");
    for f in &moments {
        let entry = dbms
            .view(CENSUS_VIEW)
            .expect("view")
            .summary
            .lookup_fresh("INCOME", f);
        let entry = entry.expect("lookup").expect("still fresh");
        assert_eq!(entry.updates_since_refresh as usize, absorbed, "{f}");
        let (served, source) = dbms
            .compute(CENSUS_VIEW, "INCOME", f, AccuracyPolicy::Exact)
            .expect("compute");
        assert_eq!(source, ComputeSource::Cache, "{f}");
        assert!(
            sdbms_testkit::agrees(f, &served, &column),
            "{f}: {served:?} vs {:?}",
            f.compute(&column)
        );
    }
}
