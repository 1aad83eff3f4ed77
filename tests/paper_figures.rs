//! Verification that every figure of the paper is reproduced exactly
//! as a runnable artifact (experiments F1–F5 in DESIGN.md).

use sdbms::core::{paper_demo_dbms, AccuracyPolicy, StatFunction, ViewDefinition};
use sdbms::data::census::figure1;
use sdbms::data::{CodeBook, Value};
use sdbms::relational::ops;
use sdbms::stats::Moments;

#[test]
fn figure1_every_cell() {
    // The paper's Figure 1, row for row and cell for cell.
    let expect: Vec<(&str, &str, u32, i64, i64)> = vec![
        ("M", "W", 1, 12_300_347, 33_122),
        ("M", "W", 2, 21_342_193, 25_883),
        ("M", "W", 3, 18_989_987, 42_919),
        ("M", "W", 4, 9_342_193, 15_110),
        ("F", "W", 1, 15_821_497, 31_762),
        ("F", "W", 2, 33_422_988, 29_933),
        ("F", "W", 3, 29_734_121, 28_218),
        ("F", "W", 4, 20_812_211, 17_498),
        ("M", "B", 1, 2_143_924, 29_402),
    ];
    let ds = figure1();
    assert_eq!(ds.len(), expect.len());
    for (i, (sex, race, age, pop, sal)) in expect.into_iter().enumerate() {
        assert_eq!(ds.rows()[i][0], Value::Str(sex.into()), "row {i} SEX");
        assert_eq!(ds.rows()[i][1], Value::Str(race.into()), "row {i} RACE");
        assert_eq!(ds.rows()[i][2], Value::Code(age), "row {i} AGE_GROUP");
        assert_eq!(ds.rows()[i][3], Value::Int(pop), "row {i} POPULATION");
        assert_eq!(ds.rows()[i][4], Value::Int(sal), "row {i} AVE_SALARY");
    }
}

#[test]
fn figure2_every_entry_and_join_decode() {
    let cb = CodeBook::figure2_age_group();
    assert_eq!(
        cb.entries().collect::<Vec<_>>(),
        vec![
            (1, "0 to 20"),
            (2, "21 to 40"),
            (3, "41 to 60"),
            (4, "over 60")
        ]
    );
    // "Simply being able to join the table in Figure 2 with the table
    // in Figure 1 to decode AGE_GROUP values" (§2.4).
    let joined =
        ops::hash_join(&figure1(), &cb.to_dataset(), "AGE_GROUP", "CATEGORY").expect("join");
    assert_eq!(joined.len(), 9);
    let labels: Vec<String> = joined
        .column("VALUE")
        .expect("col")
        .map(ToString::to_string)
        .collect();
    assert_eq!(
        labels,
        vec![
            "0 to 20", "21 to 40", "41 to 60", "over 60", "0 to 20", "21 to 40", "41 to 60",
            "over 60", "0 to 20"
        ]
    );
}

#[test]
fn figure3_architecture_components_exist_and_connect() {
    // Raw DB on tape; concrete view on disk; Summary DB per view;
    // Management DB shared — all reachable through one façade.
    let mut dbms = paper_demo_dbms(128).expect("demo");
    assert_eq!(dbms.raw().dataset_names(), vec!["figure1"]);
    dbms.materialize(ViewDefinition::scan("v", "figure1"), "analyst")
        .expect("materialize");
    assert_eq!(dbms.view("v").expect("view").summary.len(), 0);
    assert_eq!(dbms.catalog().names(), vec!["v"]);
    assert!(dbms.metadata().node("figure1").is_ok());
    assert!(dbms.metadata().node("figure1.AVE_SALARY").is_ok());
}

#[test]
fn figure4_contents_after_the_papers_queries() {
    let mut dbms = paper_demo_dbms(128).expect("demo");
    dbms.materialize(ViewDefinition::scan("v", "figure1"), "analyst")
        .expect("materialize");
    let queries = [
        ("POPULATION", StatFunction::Min, 2_143_924.0),
        ("POPULATION", StatFunction::Max, 33_422_988.0),
    ];
    for (attr, f, expect) in queries {
        let (v, _) = dbms
            .compute("v", attr, &f, AccuracyPolicy::Exact)
            .expect("compute");
        assert_eq!(v.as_scalar(), Some(expect), "{}({attr})", f.name());
    }
    // Median: the paper prints 29,933 in Figure 4 but the median of
    // Figure 1's AVE_SALARY column is 29,402 — we assert the *correct*
    // value and document the discrepancy in EXPERIMENTS.md.
    let (median, _) = dbms
        .compute(
            "v",
            "AVE_SALARY",
            &StatFunction::Median,
            AccuracyPolicy::Exact,
        )
        .expect("compute");
    assert_eq!(median.as_scalar(), Some(29_402.0));
    // Three entries, rendered like the paper's table.
    let rendered = dbms
        .view("v")
        .expect("view")
        .summary
        .render_figure4()
        .expect("render");
    assert_eq!(rendered.lines().count(), 4, "header + 3 entries");
}

#[test]
fn figure5_differenced_program_equals_loop() {
    // The Figure 5 pseudocode: result[i] := f(x1, x2 := g(i), ..., xn).
    let n = 2_000usize;
    let mut data: Vec<f64> = (0..n).map(|i| (i % 97) as f64).collect();
    let g = |i: usize| (i * 3 % 113) as f64;

    // Naive loop.
    let mut naive = Vec::new();
    for i in 0..50 {
        data[1] = g(i);
        naive.push(sdbms::stats::descriptive::mean(&data).expect("mean"));
    }

    // Differenced loop: f' is the O(1) replace on the moments the
    // Summary DB keeps as a mean's auxiliary state (`AuxState::Moments`).
    data[1] = 0.0;
    let mut moments = Moments::from_slice(&data);
    let mut prev = 0.0;
    let mut diffed = Vec::new();
    for i in 0..50 {
        let next = g(i);
        moments.replace(prev, next).expect("replace");
        prev = next;
        diffed.push(moments.mean().expect("mean"));
    }
    for (a, b) in naive.iter().zip(&diffed) {
        assert!((a - b).abs() < 1e-9, "{a} != {b}");
    }
}
