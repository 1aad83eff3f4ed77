//! End-to-end tests of the DBMS façade: the full Figure 3 lifecycle.

use sdbms_core::{
    paper_demo_dbms, AccuracyPolicy, AggFunc, Aggregate, BinOp, CmpOp, ComputeSource, CoreError,
    DurabilityPolicy, Expr, Layout, Predicate, ScalarFunc, StatDbms, StatFunction, SummaryValue,
    ViewDefinition,
};
use sdbms_data::census::{microdata_census, CensusConfig};
use sdbms_data::{DataType, Value};

fn micro_dbms(rows: usize) -> StatDbms {
    let mut dbms = StatDbms::new(512);
    let ds = microdata_census(&CensusConfig {
        rows,
        invalid_fraction: 0.0,
        outlier_fraction: 0.0,
        ..Default::default()
    })
    .unwrap();
    dbms.load_raw(&ds).unwrap();
    dbms
}

#[test]
fn materialize_and_read_figure1() {
    let mut dbms = paper_demo_dbms(128).unwrap();
    dbms.materialize(ViewDefinition::scan("v", "figure1"), "alice")
        .unwrap();
    assert_eq!(dbms.view_names(), vec!["v"]);
    let ds = dbms.dataset("v").unwrap();
    assert_eq!(ds.len(), 9);
    let pops = dbms.column("v", "POPULATION").unwrap();
    assert_eq!(pops[0], Value::Int(12_300_347));
    assert_eq!(dbms.row("v", 8).unwrap()[3], Value::Int(2_143_924));
}

#[test]
fn codebook_join_decodes_age_groups() {
    let mut dbms = paper_demo_dbms(128).unwrap();
    let def =
        ViewDefinition::scan("decoded", "figure1").join("AGE_GROUP_codes", "AGE_GROUP", "CATEGORY");
    dbms.materialize(def, "alice").unwrap();
    let labels = dbms.column("decoded", "VALUE").unwrap();
    assert_eq!(labels[0], Value::Str("0 to 20".into()));
    assert_eq!(labels[3], Value::Str("over 60".into()));
}

#[test]
fn duplicate_view_detection_across_analysts() {
    let mut dbms = paper_demo_dbms(128).unwrap();
    let def =
        |name: &str| ViewDefinition::scan(name, "figure1").select(Predicate::col_eq("SEX", "M"));
    dbms.materialize(def("males"), "alice").unwrap();
    // Alice re-creating the same computation is caught.
    let err = dbms.materialize(def("males2"), "alice").unwrap_err();
    assert!(matches!(err, CoreError::EquivalentViewExists { .. }));
    // Bob can't see Alice's private view, so he may build his own…
    dbms.materialize(def("bob_males"), "bob").unwrap();
    // …but once Alice publishes, Carol is redirected.
    dbms.publish("males", "alice").unwrap();
    let err = dbms.materialize(def("carol_males"), "carol").unwrap_err();
    match err {
        CoreError::EquivalentViewExists { existing, .. } => {
            assert!(existing == "males" || existing == "bob_males");
        }
        other => panic!("unexpected error {other}"),
    }
}

#[test]
fn summary_cache_saves_column_reads() {
    let mut dbms = micro_dbms(5_000);
    dbms.materialize(ViewDefinition::scan("v", "census_microdata"), "a")
        .unwrap();
    let (v1, s1) = dbms
        .compute("v", "INCOME", &StatFunction::Mean, AccuracyPolicy::Exact)
        .unwrap();
    assert_eq!(s1, ComputeSource::Computed);
    let io_before = dbms.io();
    let (v2, s2) = dbms
        .compute("v", "INCOME", &StatFunction::Mean, AccuracyPolicy::Exact)
        .unwrap();
    assert_eq!(s2, ComputeSource::Cache);
    assert!(v1.approx_eq(&v2, 1e-12));
    let d = dbms.io().since(&io_before);
    // A cache hit touches the summary index/heap, not the 5000-row
    // column: a handful of page reads at most.
    assert!(
        d.page_reads + d.pool_hits < 30,
        "cache hit did {} reads / {} hits",
        d.page_reads,
        d.pool_hits
    );
    let stats = dbms.cache_stats("v").unwrap();
    assert_eq!(stats.hits, 1);
    assert_eq!(stats.misses, 1);
}

#[test]
fn summaries_of_encoded_attributes_rejected() {
    let mut dbms = paper_demo_dbms(128).unwrap();
    dbms.materialize(ViewDefinition::scan("v", "figure1"), "a")
        .unwrap();
    // §3.2: the median of AGE_GROUP does not make sense.
    let err = dbms
        .compute(
            "v",
            "AGE_GROUP",
            &StatFunction::Median,
            AccuracyPolicy::Exact,
        )
        .unwrap_err();
    assert!(matches!(err, CoreError::NotSummarizable { .. }));
    // But the mode of a coded attribute is fine.
    let (mode, _) = dbms
        .compute("v", "AGE_GROUP", &StatFunction::Mode, AccuracyPolicy::Exact)
        .unwrap();
    assert!(matches!(mode, SummaryValue::ModalValue(Value::Code(_), _)));
}

#[test]
fn update_where_maintains_cache_incrementally() {
    let mut dbms = micro_dbms(2_000);
    dbms.materialize(ViewDefinition::scan("v", "census_microdata"), "a")
        .unwrap();
    // Cache a few summaries.
    for f in [StatFunction::Mean, StatFunction::Sum, StatFunction::Count] {
        dbms.compute("v", "HOURS_WORKED", &f, AccuracyPolicy::Exact)
            .unwrap();
    }
    // Update one person's hours.
    let report = dbms
        .update_where(
            "v",
            &Predicate::col_eq("PERSON_ID", 42i64),
            &[("HOURS_WORKED", Expr::lit(80i64))],
        )
        .unwrap();
    assert_eq!(report.rows_matched, 1);
    assert!(report.maintenance.incremental >= 2);
    assert_eq!(report.maintenance.recomputed, 0);
    // Cached mean matches a from-scratch recompute.
    let (cached, src) = dbms
        .compute(
            "v",
            "HOURS_WORKED",
            &StatFunction::Mean,
            AccuracyPolicy::Exact,
        )
        .unwrap();
    assert_eq!(src, ComputeSource::Cache);
    let ds = dbms.dataset("v").unwrap();
    let (col, _) = ds.column_f64("HOURS_WORKED").unwrap();
    let direct = sdbms_stats::descriptive::mean(&col).unwrap();
    assert!(cached.approx_eq(&SummaryValue::Scalar(direct), 1e-9));
}

#[test]
fn invalidate_where_marks_missing_and_updates_count() {
    let mut dbms = micro_dbms(1_000);
    dbms.materialize(ViewDefinition::scan("v", "census_microdata"), "a")
        .unwrap();
    let (count_before, _) = dbms
        .compute("v", "INCOME", &StatFunction::Count, AccuracyPolicy::Exact)
        .unwrap();
    let report = dbms
        .invalidate_where(
            "v",
            &Predicate::cmp(Expr::col("INCOME"), CmpOp::Gt, Expr::lit(60_000.0)),
            "INCOME",
        )
        .unwrap();
    assert!(report.rows_matched > 0);
    let (count_after, src) = dbms
        .compute("v", "INCOME", &StatFunction::Count, AccuracyPolicy::Exact)
        .unwrap();
    assert_eq!(src, ComputeSource::Cache, "count maintained incrementally");
    let (SummaryValue::Count(b), SummaryValue::Count(a)) = (count_before, count_after) else {
        panic!("counts expected")
    };
    assert_eq!(a, b - report.rows_matched as u64);
}

#[test]
fn derived_local_column_follows_updates() {
    let mut dbms = micro_dbms(500);
    dbms.materialize(ViewDefinition::scan("v", "census_microdata"), "a")
        .unwrap();
    dbms.add_derived_column(
        "v",
        "LOG_INCOME",
        DataType::Float,
        Expr::col("INCOME").apply(ScalarFunc::Ln),
    )
    .unwrap();
    let before = dbms.row("v", 7).unwrap();
    let income = before[6].as_f64().unwrap();
    let log_income = before[8].as_f64().unwrap();
    assert!((log_income - income.ln()).abs() < 1e-9);
    // Update the income of person 7: the rule recomputes only that row.
    let report = dbms
        .update_where(
            "v",
            &Predicate::col_eq("PERSON_ID", 7i64),
            &[("INCOME", Expr::lit(54_321.0))],
        )
        .unwrap();
    assert_eq!(
        report.derived_updates,
        vec![("LOG_INCOME".to_string(), "local(1 row)")]
    );
    let after = dbms.row("v", 7).unwrap();
    assert!((after[8].as_f64().unwrap() - 54_321.0f64.ln()).abs() < 1e-9);
    // Other rows untouched.
    let other = dbms.row("v", 8).unwrap();
    assert!((other[8].as_f64().unwrap() - other[6].as_f64().unwrap().ln()).abs() < 1e-9);
}

#[test]
fn residuals_column_regenerates_wholesale() {
    let mut dbms = micro_dbms(800);
    dbms.materialize(ViewDefinition::scan("v", "census_microdata"), "a")
        .unwrap();
    dbms.add_residuals_column("v", "RESID", "AGE", "INCOME")
        .unwrap();
    // Residuals sum to ~0 by construction.
    let ds = dbms.dataset("v").unwrap();
    let (resid, _) = ds.column_f64("RESID").unwrap();
    let sum: f64 = resid.iter().sum();
    assert!(sum.abs() < 1e-6 * resid.len() as f64);
    // Updating an INCOME regenerates the whole vector (model changed).
    let report = dbms
        .update_where(
            "v",
            &Predicate::col_eq("PERSON_ID", 3i64),
            &[("INCOME", Expr::lit(200_000.0))],
        )
        .unwrap();
    assert_eq!(
        report.derived_updates,
        vec![("RESID".to_string(), "regenerate(n rows)")]
    );
    let ds2 = dbms.dataset("v").unwrap();
    let (resid2, _) = ds2.column_f64("RESID").unwrap();
    let sum2: f64 = resid2.iter().sum();
    assert!(sum2.abs() < 1e-6 * resid2.len() as f64, "still a valid fit");
    let changed = resid
        .iter()
        .zip(&resid2)
        .filter(|(a, b)| (*a - *b).abs() > 1e-12)
        .count();
    assert!(
        changed > resid.len() / 2,
        "the model moved, so most residuals moved"
    );
}

#[test]
fn checkpoint_and_rollback_restore_data_and_cache() {
    let mut dbms = micro_dbms(300);
    dbms.materialize(ViewDefinition::scan("v", "census_microdata"), "a")
        .unwrap();
    let (mean_before, _) = dbms
        .compute("v", "INCOME", &StatFunction::Mean, AccuracyPolicy::Exact)
        .unwrap();
    let cp = dbms.checkpoint("v", "clean").unwrap();
    // A destructive edit.
    dbms.update_where(
        "v",
        &Predicate::cmp(Expr::col("AGE"), CmpOp::Lt, Expr::lit(50i64)),
        &[("INCOME", Expr::lit(0.0))],
    )
    .unwrap();
    let (mean_mid, _) = dbms
        .compute("v", "INCOME", &StatFunction::Mean, AccuracyPolicy::Exact)
        .unwrap();
    assert!(!mean_mid.approx_eq(&mean_before, 1e-6), "edit visible");
    // Roll back.
    let undone = dbms.rollback_to("v", cp).unwrap();
    assert!(undone > 0);
    let (mean_after, _) = dbms
        .compute("v", "INCOME", &StatFunction::Mean, AccuracyPolicy::Exact)
        .unwrap();
    assert!(
        mean_after.approx_eq(&mean_before, 1e-9),
        "{mean_after:?} vs {mean_before:?}"
    );
    // rollback_to_checkpoint goes to the same place.
    let again = dbms.rollback_to_checkpoint("v", "clean").unwrap();
    let _ = again;
    let data = dbms.dataset("v").unwrap();
    let original = microdata_census(&CensusConfig {
        rows: 300,
        invalid_fraction: 0.0,
        outlier_fraction: 0.0,
        ..Default::default()
    })
    .unwrap();
    assert_eq!(data.rows(), original.rows());
}

#[test]
fn publishing_and_cleaning_log_visibility() {
    let mut dbms = micro_dbms(100);
    dbms.materialize(ViewDefinition::scan("v", "census_microdata"), "alice")
        .unwrap();
    dbms.annotate("v", "checked AGE for impossible values")
        .unwrap();
    dbms.update_where(
        "v",
        &Predicate::col_eq("PERSON_ID", 5i64),
        &[("AGE", Expr::lit(30i64))],
    )
    .unwrap();
    // Bob can't read the log yet.
    assert!(dbms.cleaning_log("v", "bob").is_err());
    assert!(matches!(
        dbms.publish("v", "bob").unwrap_err(),
        CoreError::NotOwner { .. }
    ));
    dbms.publish("v", "alice").unwrap();
    let log = dbms.cleaning_log("v", "bob").unwrap();
    assert!(log.iter().any(|l| l.contains("checked AGE")));
    assert!(log.iter().any(|l| l.contains("AGE")));
}

#[test]
fn sampling_gives_fast_estimates() {
    let mut dbms = micro_dbms(10_000);
    dbms.materialize(ViewDefinition::scan("v", "census_microdata"), "a")
        .unwrap();
    let sample = dbms.sample("v", 500, 42).unwrap();
    assert_eq!(sample.len(), 500);
    let (s_inc, _) = sample.column_f64("INCOME").unwrap();
    let full = dbms.dataset("v").unwrap();
    let (f_inc, _) = full.column_f64("INCOME").unwrap();
    let se = sdbms_stats::descriptive::mean(&s_inc).unwrap();
    let fe = sdbms_stats::descriptive::mean(&f_inc).unwrap();
    assert!((se - fe).abs() / fe < 0.1, "sample {se} vs full {fe}");
}

#[test]
fn materialized_sample_views() {
    let mut dbms = micro_dbms(5_000);
    let def = ViewDefinition::scan("peek", "census_microdata").sample(250, 7);
    dbms.materialize(def, "a").unwrap();
    assert_eq!(dbms.dataset("peek").unwrap().len(), 250);
}

#[test]
fn aggregation_pipeline_view() {
    let mut dbms = paper_demo_dbms(128).unwrap();
    // The paper's §2.2 merge: collapse M/F within RACE×AGE_GROUP.
    let def = ViewDefinition::scan("merged", "figure1").aggregate(
        &["RACE", "AGE_GROUP"],
        vec![
            Aggregate::new("POPULATION", AggFunc::Sum, "POPULATION"),
            Aggregate::new(
                "AVE_SALARY",
                AggFunc::WeightedMean {
                    weight: "POPULATION".into(),
                },
                "AVE_SALARY",
            ),
        ],
    );
    dbms.materialize(def, "a").unwrap();
    let ds = dbms.dataset("merged").unwrap();
    assert_eq!(ds.len(), 5);
}

#[test]
fn reorganization_follows_access_pattern() {
    let mut dbms = micro_dbms(500);
    dbms.materialize_with(
        ViewDefinition::scan("v", "census_microdata"),
        "a",
        Layout::Row,
    )
    .unwrap();
    assert_eq!(dbms.view("v").unwrap().layout, Layout::Row);
    // Hammer it with column (statistical) reads.
    for _ in 0..20 {
        dbms.column("v", "INCOME").unwrap();
    }
    let new_layout = dbms.auto_reorganize("v").unwrap();
    assert_eq!(new_layout, Some(Layout::Transposed));
    assert_eq!(dbms.view("v").unwrap().layout, Layout::Transposed);
    // Data survives the reorganization.
    assert_eq!(dbms.dataset("v").unwrap().len(), 500);
    // Already-optimal: no further change.
    for _ in 0..20 {
        dbms.column("v", "INCOME").unwrap();
    }
    assert_eq!(dbms.auto_reorganize("v").unwrap(), None);
}

#[test]
fn suspicious_rows_and_data_cleaning_flow() {
    let mut dbms = StatDbms::new(256);
    let ds = microdata_census(&CensusConfig {
        rows: 3_000,
        invalid_fraction: 0.01,
        outlier_fraction: 0.0,
        ..Default::default()
    })
    .unwrap();
    dbms.load_raw(&ds).unwrap();
    dbms.materialize(ViewDefinition::scan("v", "census_microdata"), "a")
        .unwrap();
    let bad = dbms.suspicious_rows("v", "AGE").unwrap();
    assert!(!bad.is_empty());
    // Invalidate the impossible ages (the §3.1 workflow).
    let report = dbms
        .invalidate_where(
            "v",
            &Predicate::cmp(Expr::col("AGE"), CmpOp::Gt, Expr::lit(110i64)),
            "AGE",
        )
        .unwrap();
    assert_eq!(report.rows_matched, bad.len());
    assert!(dbms.suspicious_rows("v", "AGE").unwrap().is_empty());
    let ds_after = dbms.dataset("v").unwrap();
    assert_eq!(ds_after.missing_count("AGE").unwrap(), bad.len());
}

#[test]
fn warm_standing_summaries_covers_numeric_attributes() {
    let mut dbms = micro_dbms(400);
    dbms.materialize(ViewDefinition::scan("v", "census_microdata"), "a")
        .unwrap();
    let warmed = dbms.warm_standing_summaries("v").unwrap();
    // 4 numeric attributes (PERSON_ID, AGE, INCOME, HOURS_WORKED) × 9
    // standing functions.
    assert_eq!(warmed, 4 * 9);
    // All subsequent reads are hits.
    let (_, src) = dbms
        .compute("v", "AGE", &StatFunction::Median, AccuracyPolicy::Exact)
        .unwrap();
    assert_eq!(src, ComputeSource::Cache);
}

#[test]
fn drop_view_requires_owner_and_cleans_up() {
    let mut dbms = paper_demo_dbms(128).unwrap();
    dbms.materialize(ViewDefinition::scan("v", "figure1"), "alice")
        .unwrap();
    assert!(matches!(
        dbms.drop_view("v", "bob").unwrap_err(),
        CoreError::NotOwner { .. }
    ));
    dbms.drop_view("v", "alice").unwrap();
    assert!(dbms.view("v").is_err());
    assert!(dbms.catalog().view("v").is_err());
    // The name is reusable.
    dbms.materialize(ViewDefinition::scan("v", "figure1"), "carol")
        .unwrap();
}

#[test]
fn metadata_navigation_to_view_request() {
    let mut dbms = micro_dbms(50);
    dbms.metadata_mut().add_node(
        "Economics",
        sdbms_data::NodeKind::Topic,
        "income-related attributes",
    );
    dbms.metadata_mut()
        .add_edge("Economics", "census_microdata.INCOME")
        .unwrap();
    let mut session = dbms.metadata().navigate_from("Economics").unwrap();
    session.descend("census_microdata.INCOME").unwrap();
    let req = session.view_request();
    assert!(req.datasets.contains("census_microdata"));
    assert!(req.attributes["census_microdata"].contains("INCOME"));
}

#[test]
fn tolerated_staleness_serves_old_answers() {
    let mut dbms = micro_dbms(1_000);
    dbms.materialize(ViewDefinition::scan("v", "census_microdata"), "a")
        .unwrap();
    // A trimmed mean has no incremental form: an update leaves it
    // stale until an exact read regenerates it.
    let trimmed = StatFunction::TrimmedMean(50, 950);
    let (trimmed_before, _) = dbms
        .compute("v", "INCOME", &trimmed, AccuracyPolicy::Exact)
        .unwrap();
    dbms.update_where(
        "v",
        &Predicate::col_eq("PERSON_ID", 10i64),
        &[("INCOME", Expr::lit(99_999.0))],
    )
    .unwrap();
    // Tolerant read: the slightly-stale trimmed mean comes straight back.
    let (trimmed_tolerated, src) = dbms
        .compute("v", "INCOME", &trimmed, AccuracyPolicy::Tolerate(5))
        .unwrap();
    assert_eq!(src, ComputeSource::CacheTolerated);
    assert!(trimmed_tolerated.approx_eq(&trimmed_before, 1e-12));
    // Exact read recomputes.
    let (_, src) = dbms
        .compute("v", "INCOME", &trimmed, AccuracyPolicy::Exact)
        .unwrap();
    assert_eq!(src, ComputeSource::Computed);
}

#[test]
fn inference_answers_without_data_access() {
    let mut dbms = micro_dbms(3_000);
    dbms.materialize(ViewDefinition::scan("v", "census_microdata"), "a")
        .unwrap();
    // Cache sum and count; the mean is then inferable.
    for f in [StatFunction::Sum, StatFunction::Count] {
        dbms.compute("v", "INCOME", &f, AccuracyPolicy::Exact)
            .unwrap();
    }
    let (mean, src, how) = dbms
        .compute_with_inference("v", "INCOME", &StatFunction::Mean, AccuracyPolicy::Exact)
        .unwrap();
    assert_eq!(src, ComputeSource::Cache);
    assert_eq!(how.as_deref(), Some("inferred"));
    // Must equal a direct computation.
    let ds = dbms.dataset("v").unwrap();
    let (col, _) = ds.column_f64("INCOME").unwrap();
    let direct = sdbms_stats::descriptive::mean(&col).unwrap();
    assert!(mean.approx_eq(&sdbms_core::SummaryValue::Scalar(direct), 1e-9));
    // The inferred value is now a regular cache entry.
    let (_, src2, how2) = dbms
        .compute_with_inference("v", "INCOME", &StatFunction::Mean, AccuracyPolicy::Exact)
        .unwrap();
    assert_eq!(src2, ComputeSource::Cache);
    assert_eq!(how2, None, "plain hit the second time");

    // A histogram enables a median *estimate*, clearly labelled.
    dbms.compute(
        "v",
        "AGE",
        &StatFunction::Histogram(30),
        AccuracyPolicy::Exact,
    )
    .unwrap();
    let (est, _, how) = dbms
        .compute_with_inference("v", "AGE", &StatFunction::Median, AccuracyPolicy::Exact)
        .unwrap();
    assert_eq!(how.as_deref(), Some("estimate from histogram_30"));
    let (ages, _) = dbms.dataset("v").unwrap().column_f64("AGE").unwrap();
    let true_median = sdbms_stats::quantile::median(&ages).unwrap();
    let err = (est.as_scalar().unwrap() - true_median).abs() / true_median;
    assert!(err < 0.1, "estimate error {err}");
    // And the estimate was NOT cached as if exact.
    let (_, src, _) = dbms
        .compute_with_inference("v", "AGE", &StatFunction::Median, AccuracyPolicy::Exact)
        .unwrap();
    // Second call re-estimates (still no exact entry).
    assert_eq!(src, ComputeSource::Cache);
}

#[test]
fn mark_stale_rule_defers_derived_maintenance() {
    let mut dbms = micro_dbms(400);
    dbms.materialize(ViewDefinition::scan("v", "census_microdata"), "a")
        .unwrap();
    dbms.add_derived_column(
        "v",
        "LOG_INCOME",
        DataType::Float,
        Expr::col("INCOME").apply(ScalarFunc::Ln),
    )
    .unwrap();
    // Demote the rule: heavy editing ahead, defer recomputation.
    dbms.set_derived_rule(
        "v",
        "LOG_INCOME",
        sdbms_management::DerivedRule::MarkStale {
            inputs: vec!["INCOME".into()],
        },
    )
    .unwrap();
    let report = dbms
        .update_where(
            "v",
            &Predicate::col_eq("PERSON_ID", 9i64),
            &[("INCOME", Expr::lit(77_000.0))],
        )
        .unwrap();
    assert_eq!(
        report.derived_updates,
        vec![("LOG_INCOME".to_string(), "deferred")]
    );
    assert_eq!(dbms.stale_columns("v").unwrap(), vec!["LOG_INCOME"]);
    // The stale value was NOT recomputed.
    let row = dbms.row("v", 9).unwrap();
    assert!(
        (row[8].as_f64().unwrap() - 77_000.0f64.ln()).abs() > 0.1,
        "derived cell deliberately stale"
    );
    // Switch back to the local rule and regenerate on demand.
    dbms.set_derived_rule(
        "v",
        "LOG_INCOME",
        sdbms_management::DerivedRule::Local {
            expr: Expr::col("INCOME").apply(ScalarFunc::Ln),
        },
    )
    .unwrap();
    dbms.regenerate_column("v", "LOG_INCOME").unwrap();
    assert!(dbms.stale_columns("v").unwrap().is_empty());
    let row = dbms.row("v", 9).unwrap();
    assert!((row[8].as_f64().unwrap() - 77_000.0f64.ln()).abs() < 1e-9);
    // Overriding a non-derived column is rejected.
    assert!(dbms
        .set_derived_rule(
            "v",
            "AGE",
            sdbms_management::DerivedRule::MarkStale { inputs: vec![] }
        )
        .is_err());
}

#[test]
fn set_derived_rule_refuses_a_rule_over_a_missing_column() {
    use sdbms_management::DerivedRule;
    let mut dbms = micro_dbms(400);
    dbms.materialize(ViewDefinition::scan("v", "census_microdata"), "a")
        .unwrap();
    dbms.add_derived_column(
        "v",
        "LOG_INCOME",
        DataType::Float,
        Expr::col("INCOME").apply(ScalarFunc::Ln),
    )
    .unwrap();
    let rule = dbms.rules().rule("v", "LOG_INCOME").unwrap().clone();
    let version = dbms.history_version("v").unwrap();
    let rows = dbms.dataset("v").unwrap().rows().to_vec();
    for dangling in [
        DerivedRule::Local {
            expr: Expr::col("INCOME").binary(BinOp::Add, Expr::col("NO_SUCH_COLUMN")),
        },
        DerivedRule::MarkStale {
            inputs: vec!["INCOME".into(), "NO_SUCH_COLUMN".into()],
        },
    ] {
        let err = dbms
            .set_derived_rule("v", "LOG_INCOME", dangling)
            .unwrap_err();
        assert!(
            matches!(&err, CoreError::Data(sdbms_data::DataError::NoSuchAttribute(a)) if a == "NO_SUCH_COLUMN"),
            "{err:?}"
        );
        // Refused without a trace: rule, store and history unchanged.
        assert_eq!(dbms.rules().rule("v", "LOG_INCOME").unwrap(), &rule);
        assert_eq!(dbms.history_version("v").unwrap(), version);
        assert_eq!(dbms.dataset("v").unwrap().rows(), &rows[..]);
    }
    // The next edit still maintains the column under the old rule.
    dbms.update_where(
        "v",
        &Predicate::col_eq("PERSON_ID", 9i64),
        &[("INCOME", Expr::lit(77_000.0))],
    )
    .unwrap();
    assert!(dbms.stale_columns("v").unwrap().is_empty());
    let row = dbms.row("v", 9).unwrap();
    assert!((row[8].as_f64().unwrap() - 77_000.0f64.ln()).abs() < 1e-9);
    // A derived column is a column: a rule may read one.
    dbms.add_derived_column("v", "INCOME_K", DataType::Float, Expr::col("INCOME"))
        .unwrap();
    dbms.set_derived_rule(
        "v",
        "INCOME_K",
        DerivedRule::MarkStale {
            inputs: vec!["LOG_INCOME".into()],
        },
    )
    .unwrap();
}

#[test]
fn reorganize_preserves_summaries_and_data() {
    let mut dbms = micro_dbms(1_000);
    dbms.materialize(ViewDefinition::scan("v", "census_microdata"), "a")
        .unwrap();
    let (mean_before, _) = dbms
        .compute("v", "INCOME", &StatFunction::Mean, AccuracyPolicy::Exact)
        .unwrap();
    let before = dbms.dataset("v").unwrap();
    dbms.reorganize("v", Layout::Row).unwrap();
    // The data is identical and the cache still answers without
    // recomputation (the data did not change, only its layout).
    assert_eq!(dbms.dataset("v").unwrap().rows(), before.rows());
    let (mean_after, src) = dbms
        .compute("v", "INCOME", &StatFunction::Mean, AccuracyPolicy::Exact)
        .unwrap();
    assert_eq!(src, ComputeSource::Cache);
    assert!(mean_after.approx_eq(&mean_before, 1e-12));
    // Round-trip back.
    dbms.reorganize("v", Layout::Transposed).unwrap();
    assert_eq!(dbms.dataset("v").unwrap().rows(), before.rows());
}

#[test]
fn rollback_rederives_dependent_columns() {
    let mut dbms = micro_dbms(400);
    dbms.materialize(ViewDefinition::scan("v", "census_microdata"), "a")
        .unwrap();
    dbms.add_residuals_column("v", "RESID", "AGE", "INCOME")
        .unwrap();
    let resid_before = dbms.column("v", "RESID").unwrap();
    let cp = dbms.checkpoint("v", "t0").unwrap();
    // Change incomes (moves the regression model and all residuals).
    dbms.update_where(
        "v",
        &Predicate::cmp(Expr::col("AGE"), CmpOp::Lt, Expr::lit(40i64)),
        &[("INCOME", Expr::lit(5_000.0))],
    )
    .unwrap();
    let resid_mid = dbms.column("v", "RESID").unwrap();
    assert_ne!(resid_before, resid_mid, "model moved");
    // Undo: base incomes restored AND residuals re-derived.
    dbms.rollback_to("v", cp).unwrap();
    let resid_after = dbms.column("v", "RESID").unwrap();
    for (a, b) in resid_before.iter().zip(&resid_after) {
        let (x, y) = (a.as_f64().unwrap(), b.as_f64().unwrap());
        assert!((x - y).abs() < 1e-6, "{x} vs {y}");
    }
}

/// A 2 000-row census view with the standing summaries warm.
fn warmed(policy: DurabilityPolicy) -> StatDbms {
    let mut dbms = micro_dbms(2_000);
    dbms.materialize(ViewDefinition::scan("v", "census_microdata"), "a")
        .unwrap();
    dbms.set_durability(policy).unwrap();
    dbms.warm_standing_summaries("v").unwrap();
    dbms
}

/// `AGE := AGE / 2` — a float for every odd age, which the integer
/// column rejects.
fn halve_age() -> (&'static str, Expr) {
    ("AGE", Expr::col("AGE").binary(BinOp::Div, Expr::lit(2i64)))
}

fn double_income() -> (&'static str, Expr) {
    let doubled = Expr::col("INCOME").binary(BinOp::Mul, Expr::lit(2i64));
    ("INCOME", doubled)
}

fn is_type_mismatch(e: &CoreError) -> bool {
    matches!(
        e,
        CoreError::Data(sdbms_data::DataError::TypeMismatch { .. })
    )
}

/// Everything a failed statement must leave alone: both columns, the
/// history, the warm summaries, and the intent log.
fn assert_untouched(dbms: &mut StatDbms, age: &[Value], income: &[Value], what: &str) {
    // `assert!`, not `assert_eq!`: a failure should not print 2 000 cells.
    assert!(dbms.column("v", "AGE").unwrap() == age, "{what}: AGE");
    assert!(
        dbms.column("v", "INCOME").unwrap() == income,
        "{what}: INCOME"
    );
    assert_eq!(dbms.history_version("v").unwrap(), 0, "{what}: history");
    for (attr, column) in [("AGE", age), ("INCOME", income)] {
        for f in sdbms_summary::standing_summary_functions() {
            let (value, source) = dbms.compute("v", attr, &f, AccuracyPolicy::Exact).unwrap();
            assert_eq!(source, ComputeSource::Cache, "{what}: {f}({attr})");
            assert_eq!(value, f.compute(column).unwrap(), "{what}: {f}({attr})");
        }
    }
    if let Some(wal) = &dbms.view("v").unwrap().wal {
        assert_eq!(wal.pending().unwrap(), None, "{what}: intent retired");
    }
}

#[test]
fn a_failed_statement_leaves_no_trace() {
    for policy in [
        DurabilityPolicy::Volatile,
        DurabilityPolicy::CrashConsistent,
    ] {
        let mut dbms = warmed(policy);
        let age = dbms.column("v", "AGE").unwrap();
        let income = dbms.column("v", "INCOME").unwrap();
        assert!(age.iter().any(|v| v.as_f64().unwrap() % 2.0 == 1.0));

        let err = dbms
            .update_where("v", &Predicate::True, &[halve_age()])
            .unwrap_err();
        assert!(is_type_mismatch(&err), "{err}");
        assert_untouched(&mut dbms, &age, &income, "one bad assignment");

        // The bad assignment is the second one: the first must not
        // have been written by the time it is found.
        let err = dbms
            .update_where("v", &Predicate::True, &[double_income(), halve_age()])
            .unwrap_err();
        assert!(is_type_mismatch(&err), "{err}");
        assert_untouched(&mut dbms, &age, &income, "second assignment bad");

        // Control: the same statements staged in a batch.
        let batch = dbms.begin_batch("v").unwrap();
        dbms.batch_update_where(batch, &Predicate::True, &[double_income()])
            .unwrap();
        dbms.batch_update_where(batch, &Predicate::True, &[halve_age()])
            .unwrap();
        let err = dbms.commit_batch(batch).unwrap_err();
        assert!(is_type_mismatch(&err), "{err}");
        assert_untouched(&mut dbms, &age, &income, "batch");

        // And the view is still writable.
        let report = dbms
            .update_where("v", &Predicate::True, &[double_income()])
            .unwrap();
        assert_eq!(report.cells_changed, 2_000);
    }
}

fn log_income() -> Expr {
    Expr::col("INCOME").apply(ScalarFunc::Ln)
}

fn mean_of(dbms: &mut StatDbms, attr: &str) -> (SummaryValue, ComputeSource) {
    dbms.compute("v", attr, &StatFunction::Mean, AccuracyPolicy::Exact)
        .unwrap()
}

#[test]
fn regenerate_column_is_a_writer_like_any_other() {
    let mut dbms = warmed(DurabilityPolicy::CrashConsistent);
    dbms.add_derived_column("v", "LOG_INCOME", DataType::Float, log_income())
        .unwrap();
    // A batch edits INCOME: LOG_INCOME is only marked stale, and the
    // report says so whatever the column's rule would have cost.
    let batch = dbms.begin_batch("v").unwrap();
    dbms.batch_update_where(
        batch,
        &Predicate::cmp(Expr::col("AGE"), CmpOp::Gt, Expr::lit(30i64)),
        &[double_income()],
    )
    .unwrap();
    let report = dbms.commit_batch(batch).unwrap();
    assert_eq!(
        report.derived_updates,
        vec![("LOG_INCOME".to_string(), "deferred")]
    );
    assert_eq!(dbms.stale_columns("v").unwrap(), vec!["LOG_INCOME"]);
    let (stale_mean, source) = mean_of(&mut dbms, "LOG_INCOME");
    assert_eq!(source, ComputeSource::Computed);

    let before = dbms.history_version("v").unwrap();
    dbms.regenerate_column("v", "LOG_INCOME").unwrap();
    assert!(dbms.stale_columns("v").unwrap().is_empty());
    // The cache never disagrees with a recompute: the entry computed
    // over the stale column must not survive the regeneration.
    let column = dbms.column("v", "LOG_INCOME").unwrap();
    let fresh = StatFunction::Mean.compute(&column).unwrap();
    assert!(!fresh.approx_eq(&stale_mean, 1e-6), "the column moved");
    let (served, _) = mean_of(&mut dbms, "LOG_INCOME");
    assert_eq!(served, fresh);
    // Annotated in history, as the rule-firing route does.
    let history = &dbms.catalog().view("v").unwrap().history;
    let added: Vec<String> = history
        .records_since(before)
        .map(|(_, r)| r.to_string())
        .collect();
    assert_eq!(added.len(), 1, "{added:?}");
    assert!(added[0].contains("regenerated derived column LOG_INCOME"));
    let wal = dbms.view("v").unwrap().wal.as_ref().unwrap();
    assert_eq!(wal.pending().unwrap(), None);
}

#[test]
fn every_writer_respects_an_open_batch() {
    let mut dbms = warmed(DurabilityPolicy::Volatile);
    assert_eq!(dbms.checkpoint("v", "t0").unwrap(), 1);
    dbms.add_derived_column("v", "LOG_INCOME", DataType::Float, log_income())
        .unwrap();
    dbms.update_where(
        "v",
        &Predicate::col_eq("PERSON_ID", 7i64),
        &[("INCOME", Expr::lit(54_321.0))],
    )
    .unwrap();
    let state = |dbms: &StatDbms| {
        let v = dbms.view("v").unwrap();
        (
            dbms.dataset("v").unwrap(),
            dbms.history_version("v").unwrap(),
            v.version,
            v.layout,
            v.tracker,
        )
    };
    let before = state(&dbms);

    type Writer = (&'static str, fn(&mut StatDbms) -> Result<(), CoreError>);
    let writers: [Writer; 5] = [
        ("regenerate_column", |d| {
            d.regenerate_column("v", "LOG_INCOME")
        }),
        ("add_derived_column", |d| {
            d.add_derived_column("v", "LOG2", DataType::Float, log_income())
        }),
        ("add_residuals_column", |d| {
            d.add_residuals_column("v", "RESID", "AGE", "INCOME")
        }),
        ("reorganize", |d| d.reorganize("v", Layout::Row)),
        ("rollback_to", |d| d.rollback_to("v", 1).map(|_| ())),
    ];

    let batch = dbms.begin_batch("v").unwrap();
    for (name, write) in &writers {
        let err = write(&mut dbms).unwrap_err();
        assert!(matches!(err, CoreError::Lock(_)), "{name}: {err}");
        assert!(state(&dbms) == before, "{name} changed the view");
    }
    dbms.abort_batch(batch).unwrap();
    for (name, write) in &writers {
        write(&mut dbms).unwrap_or_else(|e| panic!("{name} after abort: {e}"));
    }
    let v = dbms.view("v").unwrap();
    assert_eq!(v.layout, Layout::Row);
    assert_eq!(v.store.schema().len(), before.0.schema().len() + 2);
}

#[test]
fn a_sample_reads_its_rows_and_equals_the_draw_from_the_whole_view() {
    let mut dbms = micro_dbms(3_000);
    dbms.materialize(ViewDefinition::scan("v", "census_microdata"), "a")
        .unwrap();
    let whole = dbms.dataset("v").unwrap();
    for (k, seed) in [(0, 1), (1, 2), (37, 7), (500, 42), (3_000, 5), (9_999, 6)] {
        let drawn = sdbms_stats::sample::sample_dataset(&whole, k.min(whole.len()), seed).unwrap();
        let sample = dbms.sample("v", k, seed).unwrap();
        assert_eq!(sample.name(), drawn.name(), "k {k}");
        assert_eq!(sample.schema(), drawn.schema(), "k {k}");
        assert_eq!(sample.rows(), drawn.rows(), "k {k}, seed {seed}");
    }
}
