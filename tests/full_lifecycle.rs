//! Cross-crate integration: the complete paper-Figure-3 lifecycle from
//! raw tape to confirmatory analysis, exercising every layer together.

use sdbms::core::{
    AccuracyPolicy, CmpOp, Expr, Predicate, ScalarFunc, StatDbms, StatFunction, SummaryValue,
    ViewDefinition,
};
use sdbms::data::census::{microdata_census, region_codebook, CensusConfig};
use sdbms::data::{CodeBook, DataType};
use sdbms::stats::{crosstab::CrossTab, hypothesis};

fn setup(rows: usize) -> StatDbms {
    let mut dbms = StatDbms::new(1024);
    let raw = microdata_census(&CensusConfig {
        rows,
        invalid_fraction: 0.01,
        outlier_fraction: 0.01,
        ..Default::default()
    })
    .expect("generate");
    dbms.load_raw(&raw).expect("load");
    dbms.register_codebook(region_codebook(4));
    dbms.register_codebook(CodeBook::figure2_age_group());
    dbms.materialize(ViewDefinition::scan("survey", "census_microdata"), "alice")
        .expect("materialize");
    dbms
}

#[test]
fn exploratory_to_confirmatory_session() {
    let mut dbms = setup(4_000);

    // Exploration: sample, then check.
    let sample = dbms.sample("survey", 400, 3).expect("sample");
    assert_eq!(sample.len(), 400);
    let bad = dbms.suspicious_rows("survey", "AGE").expect("scan");
    assert!(!bad.is_empty(), "planted errors must surface");

    // Clean with a checkpoint.
    dbms.checkpoint("survey", "pre-clean").expect("checkpoint");
    let report = dbms
        .invalidate_where(
            "survey",
            &Predicate::cmp(Expr::col("AGE"), CmpOp::Gt, Expr::lit(110i64)),
            "AGE",
        )
        .expect("invalidate");
    assert_eq!(report.rows_matched, bad.len());

    // Derived columns with both rule kinds.
    dbms.add_derived_column(
        "survey",
        "LOG_INCOME",
        DataType::Float,
        Expr::col("INCOME").apply(ScalarFunc::Ln),
    )
    .expect("derived");
    dbms.add_residuals_column("survey", "RESID", "AGE", "INCOME")
        .expect("residuals");

    // Confirmatory: chi-squared on a crosstab of the live view.
    let view = dbms.dataset("survey").expect("dataset");
    let (ct, _) = CrossTab::from_dataset(&view, "SEX", "AGE_GROUP").expect("crosstab");
    let test = hypothesis::chi_squared_independence(&ct).expect("chi2");
    assert!(test.p_value >= 0.0 && test.p_value <= 1.0);

    // Cached summaries agree with direct computation on the final
    // state.
    let (mean_cached, _) = dbms
        .compute(
            "survey",
            "INCOME",
            &StatFunction::Mean,
            AccuracyPolicy::Exact,
        )
        .expect("compute");
    let (col, _) = view.column_f64("INCOME").expect("col");
    let mean_direct = sdbms::stats::descriptive::mean(&col).expect("mean");
    assert!(mean_cached.approx_eq(&SummaryValue::Scalar(mean_direct), 1e-9));

    // Publish; the colleague reads the cleaning log.
    dbms.publish("survey", "alice").expect("publish");
    let log = dbms.cleaning_log("survey", "bob").expect("log");
    assert!(!log.is_empty());
}

#[test]
fn cached_summaries_track_any_update_sequence() {
    // The central invariant: after an arbitrary sequence of predicate
    // updates, every cached summary equals a from-scratch
    // recomputation.
    let mut dbms = setup(1_500);
    let functions = [
        StatFunction::Count,
        StatFunction::Sum,
        StatFunction::Mean,
        StatFunction::Variance,
        StatFunction::StdDev,
        StatFunction::Min,
        StatFunction::Max,
        StatFunction::Median,
    ];
    for f in &functions {
        dbms.compute("survey", "INCOME", f, AccuracyPolicy::Exact)
            .expect("seed");
    }
    // A scripted but irregular update sequence: point updates, range
    // updates, invalidations, and restorations.
    let scripts: Vec<(Predicate, Expr)> = vec![
        (Predicate::col_eq("PERSON_ID", 3i64), Expr::lit(99_000.0)),
        (
            Predicate::cmp(Expr::col("PERSON_ID"), CmpOp::Lt, Expr::lit(10i64)),
            Expr::lit(12_000.0),
        ),
        (
            Predicate::col_eq("PERSON_ID", 700i64),
            Expr::Literal(sdbms::data::Value::Missing),
        ),
        (
            Predicate::cmp(Expr::col("AGE"), CmpOp::Ge, Expr::lit(95i64)),
            Expr::lit(4_321.5),
        ),
        (Predicate::col_eq("PERSON_ID", 700i64), Expr::lit(31_415.9)),
        (
            Predicate::cmp(Expr::col("INCOME"), CmpOp::Gt, Expr::lit(95_000.0)),
            Expr::col("INCOME").binary(sdbms::core::BinOp::Div, Expr::lit(2.0)),
        ),
    ];
    for (pred, expr) in scripts {
        dbms.update_where("survey", &pred, &[("INCOME", expr)])
            .expect("update");
        // Check every function after every batch.
        let ds = dbms.dataset("survey").expect("dataset");
        let vals: Vec<sdbms::data::Value> = ds.column("INCOME").expect("col").cloned().collect();
        for f in &functions {
            let (cached, _) = dbms
                .compute("survey", "INCOME", f, AccuracyPolicy::Exact)
                .expect("compute");
            let direct = f.compute(&vals).expect("direct");
            assert!(
                cached.approx_eq(&direct, 1e-6),
                "{f}: cached {cached:?} != direct {direct:?}"
            );
        }
    }
}

#[test]
fn rollback_restores_both_data_and_summaries() {
    let mut dbms = setup(800);
    let functions = [StatFunction::Mean, StatFunction::Median, StatFunction::Max];
    let mut before = Vec::new();
    for f in &functions {
        let (v, _) = dbms
            .compute("survey", "HOURS_WORKED", f, AccuracyPolicy::Exact)
            .expect("compute");
        before.push(v);
    }
    let cp = dbms.checkpoint("survey", "t0").expect("checkpoint");
    // Heavy edits.
    dbms.update_where(
        "survey",
        &Predicate::cmp(Expr::col("HOURS_WORKED"), CmpOp::Gt, Expr::lit(20i64)),
        &[("HOURS_WORKED", Expr::lit(0i64))],
    )
    .expect("update");
    dbms.rollback_to("survey", cp).expect("rollback");
    for (f, b) in functions.iter().zip(&before) {
        let (v, _) = dbms
            .compute("survey", "HOURS_WORKED", f, AccuracyPolicy::Exact)
            .expect("compute");
        assert!(v.approx_eq(b, 1e-9), "{f}: {v:?} != {b:?}");
    }
}

#[test]
fn two_layouts_agree_on_everything() {
    // The same view materialized in both layouts must answer every
    // query identically.
    let mut dbms = setup(600);
    dbms.materialize_with(
        ViewDefinition::scan("survey_row", "census_microdata"),
        "bob",
        sdbms::core::Layout::Row,
    )
    .expect("materialize row");
    let a = dbms.dataset("survey").expect("a");
    let b = dbms.dataset("survey_row").expect("b");
    assert_eq!(a.rows(), b.rows());
    for attr in ["AGE", "INCOME", "SEX", "REGION"] {
        let ca = dbms.column("survey", attr).expect("col");
        let cb = dbms.column("survey_row", attr).expect("col");
        assert_eq!(ca, cb, "column {attr}");
    }
    for f in [StatFunction::Mean, StatFunction::Median] {
        let (va, _) = dbms
            .compute("survey", "INCOME", &f, AccuracyPolicy::Exact)
            .expect("compute");
        let (vb, _) = dbms
            .compute("survey_row", "INCOME", &f, AccuracyPolicy::Exact)
            .expect("compute");
        assert!(va.approx_eq(&vb, 1e-12), "{f}");
    }
}

#[test]
fn view_pipeline_through_all_operators() {
    let mut dbms = setup(2_000);
    // select + join + extend + project + sort in one lineage.
    let def = ViewDefinition::scan("pipeline", "census_microdata")
        .select(Predicate::cmp(
            Expr::col("AGE"),
            CmpOp::Le,
            Expr::lit(110i64),
        ))
        .join("REGION_codes", "REGION", "CATEGORY")
        .extend(
            "INCOME_K",
            DataType::Float,
            Expr::col("INCOME").binary(sdbms::core::BinOp::Div, Expr::lit(1000.0)),
        )
        .project(&["VALUE", "AGE", "INCOME_K"])
        .with_step(sdbms::core::ViewStep::Sort(vec!["AGE".to_string()]));
    dbms.materialize(def, "alice").expect("materialize");
    let out = dbms.dataset("pipeline").expect("out");
    assert_eq!(out.schema().names(), vec!["VALUE", "AGE", "INCOME_K"]);
    assert!(!out.is_empty());
    // Sorted ascending by AGE.
    let (ages, _) = out.column_f64("AGE").expect("ages");
    assert!(ages.windows(2).all(|w| w[0] <= w[1]));
    // Region labels decoded.
    assert!(out
        .value(0, "VALUE")
        .expect("val")
        .as_str()
        .expect("str")
        .starts_with("Region "));
    // The catalog remembers the lineage verbatim.
    let lineage = dbms
        .catalog()
        .view("pipeline")
        .expect("record")
        .definition
        .to_string();
    assert!(lineage.contains("JOIN REGION_codes"));
    assert!(lineage.contains("SORT"));
}

#[test]
fn io_accounting_spans_the_whole_system() {
    let mut dbms = setup(2_000);
    let io0 = dbms.io();
    assert!(io0.archive_block_reads > 0, "materialization read the tape");
    dbms.compute(
        "survey",
        "INCOME",
        &StatFunction::Mean,
        AccuracyPolicy::Exact,
    )
    .expect("compute");
    let io1 = dbms.io();
    assert!(
        io1.page_reads + io1.pool_hits > io0.page_reads + io0.pool_hits,
        "the column scan touched view pages"
    );
    // Buffered reads are free in the cost model, so the cost is
    // monotone but may not strictly grow for a fully-buffered scan.
    let model = sdbms::storage::CostModel::default();
    assert!(model.cost(&io1) >= model.cost(&io0));
    assert!(model.cost(&io0) > 0.0, "tape materialization has a cost");
}
