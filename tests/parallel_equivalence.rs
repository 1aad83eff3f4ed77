//! Differential harness: the morsel-driven parallel executor is proven
//! equivalent to the serial path.
//!
//! Two properties are checked, matching the executor's contract:
//!
//! 1. **Bit-identity across worker counts.** For a fixed morsel size,
//!    every profile — and therefore every summary function computed
//!    from it — is *exactly* equal (`==`, not approximately) at 1, 2,
//!    4, and 8 workers. The morsel partition and the merge order depend
//!    only on the row count and morsel size, never on scheduling.
//! 2. **Agreement with the serial path.** Results computed from a
//!    profile match a direct serial computation: exactly for functions
//!    answered from row-order data (count, extremes, order statistics,
//!    histograms, mode, unique count), and to ~1e-12 relative error
//!    for the moments family (sum/mean/variance/std-dev), where the
//!    merge tree associates float additions differently than the
//!    serial compensated sums.
//!
//! Datasets deliberately include missing values and coded attributes —
//! the paper's statistical data is full of both.

use proptest::prelude::*;

use sdbms::core::{AccuracyPolicy, CmpOp, Expr, Predicate, StatDbms, StatFunction, ViewDefinition};
use sdbms::data::census::{microdata_census, CensusConfig};
use sdbms::data::{dataset::DataSet, schema::Attribute, schema::Schema, DataType, Value};
use sdbms::exec::{profile_values, ExecConfig};
use sdbms::relational::ops;
use sdbms::storage::StorageEnv;

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Every summary function in the catalogue.
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
        StatFunction::Quantile(250),
        StatFunction::Mode,
        StatFunction::UniqueCount,
        StatFunction::Histogram(8),
        StatFunction::TrimmedMean(100, 900),
    ]
}

/// A mixed column: integers, floats, missing values, and codes.
fn value_from_parts(kind: u8, x: i64) -> Value {
    match kind {
        0 => Value::Missing,
        1 => Value::Code(x.unsigned_abs() as u32 % 16),
        2 => Value::Float(x as f64 / 8.0),
        _ => Value::Int(x % 257),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Profiles (and thus every function computed from one) are
    /// bit-identical across worker counts, and agree with the serial
    /// per-function computation.
    #[test]
    fn profiles_bit_identical_across_workers_and_match_serial(
        parts in prop::collection::vec((0u8..4, -4_000i64..4_000), 0..600),
        morsel_rows in 5usize..160,
    ) {
        let col: Vec<Value> =
            parts.iter().map(|&(k, x)| value_from_parts(k, x)).collect();
        let reference = profile_values(
            &col,
            &ExecConfig { workers: 1, morsel_rows },
        );
        for workers in WORKER_COUNTS {
            let p = profile_values(&col, &ExecConfig { workers, morsel_rows });
            prop_assert_eq!(&p, &reference, "profile at {} workers", workers);
        }
        for f in all_functions() {
            let from_profile = f.answer(&reference);
            let direct = f.compute(&col);
            match (from_profile, direct) {
                // One evaluator over the row-order values: the answer
                // never depends on how the profile was partitioned.
                (Ok(a), Ok(b)) => prop_assert_eq!(&a, &b, "{} must be bit-identical", f),
                (Err(_), Err(_)) => {} // degenerate column: both refuse
                (a, b) => {
                    prop_assert!(false, "{}: answerability diverged: {:?} vs {:?}", f, a, b);
                }
            }
        }
    }

    /// The parallel predicate scan and column reads over a stored
    /// table return exactly the rows the serial relational operators
    /// return from the data set, in the same order, at every worker
    /// count.
    #[test]
    fn parallel_relational_ops_match_serial(
        rows in 1usize..900,
        threshold in 0i64..100,
        morsel_rows in 8usize..200,
    ) {
        let ds = microdata_census(&CensusConfig {
            rows,
            seed: 7,
            ..Default::default()
        }).unwrap();
        let pred = Predicate::cmp(Expr::col("AGE"), CmpOp::Gt, Expr::lit(threshold));
        let serial_sel = ops::select(&ds, &pred).unwrap();
        let serial_proj = ops::project(&ds, &["AGE", "INCOME"]).unwrap();
        let store = TransposedFile::from_dataset(StorageEnv::new(256).pool, &ds).unwrap();
        for workers in WORKER_COUNTS {
            let cfg = ExecConfig { workers, morsel_rows };
            let hits = filter_table_rows(&store, &pred, &cfg).unwrap();
            let par_sel: Vec<_> = hits.iter().map(|&i| ds.rows()[i].clone()).collect();
            prop_assert_eq!(&par_sel[..], serial_sel.rows());
            let age = read_table_column(&store, "AGE", &cfg).unwrap();
            let income = read_table_column(&store, "INCOME", &cfg).unwrap();
            let par_proj: Vec<_> = age.into_iter().zip(income).map(|(a, i)| vec![a, i]).collect();
            prop_assert_eq!(&par_proj[..], serial_proj.rows());
        }
    }
}

/// A DBMS with one materialized census view and an explicit executor
/// configuration. The census generator is deterministic, so every
/// instance holds identical bytes — the shared testkit fixture at this
/// harness's historical knobs (dirty data, cold caches, no WAL).
fn census_dbms(rows: usize, cfg: ExecConfig) -> StatDbms {
    let mut dbms = sdbms_testkit::CensusFixture::new()
        .rows(rows)
        .pool_pages(512)
        .seed(42)
        .invalid_fraction(0.01)
        .outlier_fraction(0.01)
        .owner("differential")
        .crash_consistent(false)
        .warm(false)
        .build()
        .expect("fixture");
    dbms.set_exec_config(cfg);
    dbms
}

/// Full-stack determinism: every summary function, computed through the
/// whole DBMS (view store → parallel scan → Summary Database), returns
/// bit-identical results at 1, 2, 4, and 8 workers, and the column read
/// itself is byte-equal to the serial path.
#[test]
fn full_stack_summaries_bit_identical_across_worker_counts() {
    let attrs = ["AGE", "INCOME", "HOURS_WORKED"];
    // 3000 rows at 256-row morsels: 12 morsels, real contention at 8
    // workers.
    let runs: Vec<Vec<(String, String)>> = WORKER_COUNTS
        .iter()
        .map(|&workers| {
            let mut dbms = census_dbms(
                3000,
                ExecConfig {
                    workers,
                    morsel_rows: 256,
                },
            );
            let mut out = Vec::new();
            for a in attrs {
                for f in all_functions() {
                    let served = dbms
                        .compute("v", a, &f, AccuracyPolicy::Exact)
                        .map(|(value, _)| format!("{value:?}"))
                        .unwrap_or_else(|e| format!("error: {e}"));
                    out.push((format!("{f}({a})"), served));
                }
            }
            out
        })
        .collect();
    for (i, run) in runs.iter().enumerate().skip(1) {
        assert_eq!(
            run, &runs[0],
            "{} workers diverged from 1 worker",
            WORKER_COUNTS[i]
        );
    }
    // And the workers=1 morsel path agrees with a straight serial
    // recompute of the stored column.
    let mut dbms = census_dbms(3000, ExecConfig::serial());
    for a in attrs {
        let col = dbms.column("v", a).expect("column");
        for f in all_functions() {
            let direct = f.compute(&col);
            let served = dbms.compute("v", a, &f, AccuracyPolicy::Exact);
            match (served, direct) {
                (Ok((got, _)), Ok(want)) => assert_eq!(got, want, "{f}({a})"),
                (Err(_), Err(_)) => {}
                (s, d) => panic!("{f}({a}): answerability diverged: {s:?} vs {d:?}"),
            }
        }
    }
}

/// Missing values and coded attributes flow through the parallel path
/// unchanged: a view whose column mixes Int / Missing / Code values
/// gets bit-identical summaries at every worker count.
#[test]
fn missing_and_coded_values_identical_across_workers() {
    let schema = Schema::new(vec![
        Attribute::category("TAG", DataType::Code),
        Attribute::measured("X", DataType::Int),
    ])
    .expect("schema");
    let rows: Vec<Vec<Value>> = (0..2600i64)
        .map(|i| {
            let x = match i % 9 {
                0 | 4 => Value::Missing,
                _ => Value::Int((i * 31) % 451 - 200),
            };
            vec![Value::Code(u32::try_from(i % 6).unwrap()), x]
        })
        .collect();
    let ds = DataSet::from_rows("mixed", schema, rows).expect("dataset");

    let mut reference: Option<Vec<String>> = None;
    for workers in WORKER_COUNTS {
        let mut dbms = StatDbms::with_env(StorageEnv::new(512));
        dbms.load_raw(&ds).expect("load");
        dbms.materialize(ViewDefinition::scan("v", "mixed"), "differential")
            .expect("materialize");
        dbms.set_exec_config(ExecConfig {
            workers,
            morsel_rows: 256,
        });
        let mut results = Vec::new();
        // The coded column only admits the categorical functions.
        for f in [StatFunction::Mode, StatFunction::UniqueCount] {
            let (value, _) = dbms
                .compute("v", "TAG", &f, AccuracyPolicy::Exact)
                .expect("categorical summaries work on codes");
            results.push(format!("{f}(TAG) = {value:?}"));
        }
        for f in all_functions() {
            let served = dbms
                .compute("v", "X", &f, AccuracyPolicy::Exact)
                .map(|(value, _)| format!("{value:?}"))
                .unwrap_or_else(|e| format!("error: {e}"));
            results.push(format!("{f}(X) = {served}"));
        }
        match &reference {
            None => reference = Some(results),
            Some(want) => assert_eq!(&results, want, "{workers} workers diverged"),
        }
    }
}

// ---- zone-map pruning & compressed-domain execution ------------------------
//
// The pruned scan path (`filter_table_rows`) and the batch profile
// path (`profile_table_column`, which folds RLE/dictionary segments
// through the batch's run view) carry the same contract as the
// parallel executor itself: *bit-identical* to the naive
// decode-everything scan, at every worker count, for every predicate —
// pruning may only skip work, never change an answer.

use sdbms::columnar::{Compression, TransposedFile};
use sdbms::exec::{profile_table_column, read_table_column};
use sdbms::relational::filter_table_rows;

/// An RLE-friendly mixed table: a plateau'd integer column (so zone
/// maps have narrow, refutable bounds), a noisy integer column with
/// missing values, a float column, and a low-cardinality coded tag.
fn pruning_dataset(rows: usize, block_width: i64) -> DataSet {
    let schema = Schema::new(vec![
        Attribute::measured("BLOCK", DataType::Int),
        Attribute::measured("X", DataType::Int),
        Attribute::measured("F", DataType::Float),
        Attribute::category("TAG", DataType::Code),
    ])
    .expect("schema");
    let rows: Vec<Vec<Value>> = (0..rows as i64)
        .map(|i| {
            let x = if i % 11 == 3 {
                Value::Missing
            } else {
                Value::Int((i * 37) % 401 - 200)
            };
            vec![
                Value::Int(i / block_width),
                x,
                Value::Float((i % 97) as f64 / 8.0),
                Value::Code(u32::try_from(i % 5).unwrap()),
            ]
        })
        .collect();
    DataSet::from_rows("prune", schema, rows).expect("dataset")
}

/// Load the pruning dataset into a transposed store with per-column
/// compression exercising all three segment encodings.
fn pruning_store(ds: &DataSet) -> TransposedFile {
    let env = StorageEnv::new(512);
    let compressions = [
        Compression::Rle,
        Compression::None,
        Compression::None,
        Compression::Dictionary,
    ];
    let mut store =
        TransposedFile::create_with(env.pool.clone(), ds.schema().clone(), &compressions)
            .expect("create");
    store.bulk_append(ds).expect("load");
    store
}

/// The oracle: evaluate the predicate against the in-memory rows,
/// independent of the storage and pruning layers entirely.
fn naive_matches(ds: &DataSet, pred: &Predicate) -> Vec<usize> {
    let bound = pred.bind(ds.schema()).expect("bind");
    ds.rows()
        .iter()
        .enumerate()
        .filter_map(|(i, r)| bound.eval(r).then_some(i))
        .collect()
}

/// Pruned predicate scans return exactly the naive matches at 0%, low,
/// ~50%, and 100% selectivity, over missing and coded data, through
/// conjunction / disjunction / negation and flipped literals, at every
/// worker count.
#[test]
fn pruned_scan_bit_identical_to_naive_at_every_selectivity() {
    let ds = pruning_dataset(2148, 64); // ragged 100-row tail segment
    let store = pruning_store(&ds);
    let preds: Vec<(&str, Predicate)> =
        vec![
            ("0%: refuted everywhere", Predicate::col_eq("BLOCK", -1i64)),
            ("single block (~3%)", Predicate::col_eq("BLOCK", 7i64)),
            (
                "~50%",
                Predicate::cmp(Expr::col("BLOCK"), CmpOp::Lt, Expr::lit(17i64)),
            ),
            ("100%: whole table", Predicate::True),
            ("missing probe", Predicate::IsMissing("X".into())),
            ("coded equality", Predicate::col_eq("TAG", Value::Code(3))),
            (
                "conjunction",
                Predicate::cmp(Expr::col("BLOCK"), CmpOp::Ge, Expr::lit(20i64))
                    .and(Predicate::cmp(Expr::col("X"), CmpOp::Gt, Expr::lit(0i64))),
            ),
            (
                "negated disjunction",
                Predicate::col_eq("BLOCK", 2i64)
                    .or(Predicate::cmp(
                        Expr::col("F"),
                        CmpOp::Le,
                        Expr::lit(Value::Float(1.5)),
                    ))
                    .negate(),
            ),
            (
                "flipped literal",
                Predicate::cmp(Expr::lit(5i64), CmpOp::Gt, Expr::col("BLOCK")),
            ),
        ];
    for (label, pred) in preds {
        let want = naive_matches(&ds, &pred);
        for workers in WORKER_COUNTS {
            let cfg = ExecConfig {
                workers,
                morsel_rows: 256,
            };
            let got = filter_table_rows(&store, &pred, &cfg).expect("pruned scan");
            assert_eq!(got, want, "{label} at {workers} workers");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Randomized differential: arbitrary comparison predicates
    /// (optionally negated or widened with a missing-probe) over random
    /// table sizes, block widths, morsel sizes, and worker counts give
    /// exactly the naive row set.
    #[test]
    fn prop_pruned_scan_matches_naive(
        rows in 1usize..1200,
        block_width in 1i64..128,
        thr in -220i64..260,
        op_i in 0usize..6,
        col_i in 0usize..2,
        negate in any::<bool>(),
        with_missing_arm in any::<bool>(),
        morsel_rows in 16usize..512,
        workers in 1usize..9,
    ) {
        let ds = pruning_dataset(rows, block_width);
        let store = pruning_store(&ds);
        let op = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge][op_i];
        let col = ["BLOCK", "X"][col_i];
        let mut pred = Predicate::cmp(Expr::col(col), op, Expr::lit(thr));
        if negate {
            pred = pred.negate();
        }
        if with_missing_arm {
            pred = pred.or(Predicate::IsMissing("X".into()));
        }
        let want = naive_matches(&ds, &pred);
        let got = filter_table_rows(
            &store,
            &pred,
            &ExecConfig { workers, morsel_rows },
        ).expect("pruned scan");
        prop_assert_eq!(got, want);
    }
}

/// Batch profiles — whole runs folded through the batch's run view on
/// the RLE and dictionary columns, typed lanes on the raw ones — are
/// bit-identical to the per-cell oracle (`profile_values` of the
/// in-memory column) at every worker count, for every encoding.
#[test]
fn run_aware_profiles_bit_identical_to_decode_profiles() {
    let ds = pruning_dataset(3000, 64);
    let store = pruning_store(&ds);
    for attr in ["BLOCK", "X", "F", "TAG"] {
        let col: Vec<Value> = ds.column(attr).expect("column").cloned().collect();
        let reference = profile_values(
            &col,
            &ExecConfig {
                workers: 1,
                morsel_rows: 256,
            },
        );
        for workers in WORKER_COUNTS {
            let cfg = ExecConfig {
                workers,
                morsel_rows: 256,
            };
            let batched = profile_table_column(&store, attr, &cfg).expect("batch profile");
            assert_eq!(batched, reference, "{attr} at {workers} workers");
        }
    }
}

/// Zone maps never serve stale bounds: after `update_where` writes a
/// value no segment previously contained, a second pruned scan for that
/// value must find every updated row (a stale map would refute it and
/// silently skip them).
#[test]
fn zone_maps_stay_fresh_across_update_where() {
    const SENTINEL: i64 = 1_000_003;
    for workers in WORKER_COUNTS {
        let mut dbms = census_dbms(
            3000,
            ExecConfig {
                workers,
                morsel_rows: 256,
            },
        );
        // The sentinel occurs nowhere, so this scan is pruned to zero
        // morsels — verified against the decoded column.
        let age = dbms.column("v", "AGE").expect("column");
        let natural = age.iter().filter(|v| **v == Value::Int(SENTINEL)).count();
        assert_eq!(natural, 0, "sentinel must start absent");
        let pre = dbms
            .update_where(
                "v",
                &Predicate::col_eq("AGE", SENTINEL),
                &[("INCOME", Expr::lit(0.0f64))],
            )
            .expect("no-op update");
        assert_eq!(pre.rows_matched, 0, "{workers} workers");
        // Now write the sentinel into live segments, dirtying their
        // zone maps…
        let hit = dbms
            .update_where(
                "v",
                &Predicate::cmp(Expr::col("AGE"), CmpOp::Ge, Expr::lit(80i64)),
                &[("AGE", Expr::lit(SENTINEL))],
            )
            .expect("update");
        assert!(hit.rows_matched > 0, "test needs rows with AGE >= 80");
        // …and a pruned scan for it must see every touched row.
        let post = dbms
            .update_where(
                "v",
                &Predicate::col_eq("AGE", SENTINEL),
                &[("INCOME", Expr::lit(1.0f64))],
            )
            .expect("re-scan");
        assert_eq!(
            post.rows_matched, hit.rows_matched,
            "{workers} workers: stale zone map hid updated rows"
        );
    }
}

// ---- vectorized batch kernels ----------------------------------------------
//
// The typed-batch kernel path (`read_column_batch` + fused
// filter/aggregate loops) carries the same contract as everything
// above: bit-identical to the per-cell Value path at every worker
// count, including the adversarial float inputs (NaN, signed zero)
// that a fast path is most likely to get wrong.

use sdbms::exec::ColumnProfile;

/// `==` on profiles is too strict once NaN is in play: derived float
/// equality makes a NaN-bearing profile unequal even to itself. Compare
/// the accumulator *bits* instead, grouping NaN with NaN.
fn profile_bits_eq(a: &ColumnProfile, b: &ColumnProfile) -> bool {
    let bits4 = |p: Option<(f64, u64, f64, u64)>| {
        p.map(|(lo, ln, hi, hn)| (lo.to_bits(), ln, hi.to_bits(), hn))
    };
    let (an, am, aq) = a.moments.parts();
    let (bn, bm, bq) = b.moments.parts();
    a.rows == b.rows
        && a.non_numeric == b.non_numeric
        && an == bn
        && am.to_bits() == bm.to_bits()
        && aq.to_bits() == bq.to_bits()
        && bits4(a.minmax.parts()) == bits4(b.minmax.parts())
        && a.freq.entries().count() == b.freq.entries().count()
        && a.freq
            .entries()
            .zip(b.freq.entries())
            .all(|((va, ca), (vb, cb))| va.group_eq(vb) && ca == cb)
        && a.numbers.len() == b.numbers.len()
        && a.numbers
            .iter()
            .zip(&b.numbers)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// A float column seeded with NaN, signed zero, and missing values,
/// next to an RLE plateau column — the inputs that distinguish a
/// careless f64 fast path from a `total_cmp`-faithful one.
fn nan_dataset(rows: usize) -> DataSet {
    let schema = Schema::new(vec![
        Attribute::measured("BLOCK", DataType::Int),
        Attribute::measured("F", DataType::Float),
    ])
    .expect("schema");
    let rows: Vec<Vec<Value>> = (0..rows as i64)
        .map(|i| {
            let f = match i % 9 {
                0 => Value::Missing,
                3 => Value::Float(f64::NAN),
                6 => Value::Float(-0.0),
                _ => Value::Float((i * 13 % 103) as f64 / 8.0 - 6.0),
            };
            vec![Value::Int(i / 64), f]
        })
        .collect();
    DataSet::from_rows("nanvals", schema, rows).expect("dataset")
}

fn nan_store(ds: &DataSet) -> TransposedFile {
    let env = StorageEnv::new(512);
    let mut store = TransposedFile::create_with(
        env.pool.clone(),
        ds.schema().clone(),
        &[Compression::Rle, Compression::None],
    )
    .expect("create");
    store.bulk_append(ds).expect("load");
    store
}

/// Batch-kernel profiles over NaN / signed-zero / missing floats are
/// bit-identical to the scalar per-cell path at every worker count
/// (`BLOCK` is RLE, so its batches fold through the run view).
#[test]
fn batch_profiles_with_nan_floats_bit_identical_to_scalar() {
    let ds = nan_dataset(2148); // ragged tail segment
    let store = nan_store(&ds);
    for attr in ["BLOCK", "F"] {
        let col: Vec<Value> = ds.column(attr).expect("column").cloned().collect();
        let reference = profile_values(
            &col,
            &ExecConfig {
                workers: 1,
                morsel_rows: 256,
            },
        );
        for workers in WORKER_COUNTS {
            let cfg = ExecConfig {
                workers,
                morsel_rows: 256,
            };
            let batched = profile_table_column(&store, attr, &cfg).expect("batch profile");
            assert!(
                profile_bits_eq(&batched, &reference),
                "{attr}: batch path diverged at {workers} workers"
            );
        }
    }
}

/// Compiled-predicate bitmap filters agree with the scalar oracle on
/// NaN floats: `total_cmp` ordering (NaN above +inf, -0.0 below +0.0)
/// survives the typed fast path, at every comparison op and worker
/// count.
#[test]
fn batch_filters_with_nan_floats_match_scalar_oracle() {
    let ds = nan_dataset(2148);
    let store = nan_store(&ds);
    let preds: Vec<(&str, Predicate)> = vec![
        (
            "F > 0.0 (NaN sorts above)",
            Predicate::cmp(Expr::col("F"), CmpOp::Gt, Expr::lit(Value::Float(0.0))),
        ),
        (
            "F <= 1.5",
            Predicate::cmp(Expr::col("F"), CmpOp::Le, Expr::lit(Value::Float(1.5))),
        ),
        (
            "F == -0.0 (total order separates zeros)",
            Predicate::cmp(Expr::col("F"), CmpOp::Eq, Expr::lit(Value::Float(-0.0))),
        ),
        (
            "F != 0.0 (missing still excluded)",
            Predicate::cmp(Expr::col("F"), CmpOp::Ne, Expr::lit(Value::Float(0.0))),
        ),
        (
            "negated Ge picks up NaN and missing arm",
            Predicate::cmp(Expr::col("F"), CmpOp::Ge, Expr::lit(Value::Float(-6.0)))
                .negate()
                .or(Predicate::IsMissing("F".into())),
        ),
    ];
    for (label, pred) in preds {
        let want = naive_matches(&ds, &pred);
        for workers in WORKER_COUNTS {
            let got = filter_table_rows(
                &store,
                &pred,
                &ExecConfig {
                    workers,
                    morsel_rows: 256,
                },
            )
            .expect("kernel filter");
            assert_eq!(got, want, "{label} at {workers} workers");
        }
    }
}

/// A view materialized through a relational pipeline (select + project)
/// behaves identically under the parallel executor — the scan side of
/// selection is morsel-parallel inside the DBMS too.
#[test]
fn derived_view_summaries_identical_across_workers() {
    let mut reference: Option<String> = None;
    for workers in WORKER_COUNTS {
        let mut dbms = census_dbms(
            1500,
            ExecConfig {
                workers,
                morsel_rows: 128,
            },
        );
        let def = ViewDefinition::scan("adults", "census_microdata")
            .select(Predicate::cmp(
                Expr::col("AGE"),
                CmpOp::Ge,
                Expr::lit(18i64),
            ))
            .project(&["AGE", "INCOME"]);
        dbms.materialize(def, "differential").expect("materialize");
        let (median, _) = dbms
            .compute(
                "adults",
                "INCOME",
                &StatFunction::Median,
                AccuracyPolicy::Exact,
            )
            .expect("median");
        let (mean, _) = dbms
            .compute("adults", "AGE", &StatFunction::Mean, AccuracyPolicy::Exact)
            .expect("mean");
        let got = format!("{median:?} / {mean:?}");
        match &reference {
            None => reference = Some(got),
            Some(want) => assert_eq!(&got, want, "{workers} workers diverged"),
        }
    }
}
