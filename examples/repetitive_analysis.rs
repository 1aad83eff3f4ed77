//! The repetitive-computation problem (§3.1) and the Summary Database
//! solution, measured.
//!
//! A months-long analysis asks for the same medians, means, and
//! extremes over and over, interleaved with occasional edits. This
//! example runs that workload twice — once through the Summary Database,
//! which maintains results incrementally, once computing every answer
//! from the stored column — and prints the I/O and timing difference.
//!
//! Run with: `cargo run --release --example repetitive_analysis`

use std::time::Instant;

use sdbms::core::{AccuracyPolicy, Expr, Predicate, StatDbms, StatFunction, ViewDefinition};
use sdbms::data::census::{microdata_census, CensusConfig};

/// One "analysis day": a burst of summary queries plus a couple of
/// corrections. Without a Summary Database every query reads the
/// column and computes its answer from scratch.
fn analysis_day(
    dbms: &mut StatDbms,
    day: usize,
    summary_db: bool,
) -> Result<(), Box<dyn std::error::Error>> {
    let queries = [
        ("INCOME", StatFunction::Median),
        ("INCOME", StatFunction::Mean),
        ("INCOME", StatFunction::StdDev),
        ("AGE", StatFunction::Median),
        ("AGE", StatFunction::Min),
        ("AGE", StatFunction::Max),
        ("HOURS_WORKED", StatFunction::Mean),
        ("INCOME", StatFunction::Quantile(50)),
        ("INCOME", StatFunction::Quantile(950)),
    ];
    for (attr, f) in &queries {
        if summary_db {
            dbms.compute("survey", attr, f, AccuracyPolicy::Exact)?;
        } else {
            f.compute(&dbms.column("survey", attr)?)?;
        }
    }
    // Two corrections per day (§3.1: outliers get investigated and
    // fixed as the analysis proceeds).
    for k in 0..2 {
        let id = (day * 17 + k * 7) % 5_000;
        dbms.update_where(
            "survey",
            &Predicate::col_eq("PERSON_ID", id as i64),
            &[("INCOME", Expr::lit(20_000.0 + (day * 13 + k) as f64))],
        )?;
    }
    Ok(())
}

fn run(summary_db: bool, days: usize) -> Result<(u128, u64, String), Box<dyn std::error::Error>> {
    let mut dbms = StatDbms::new(1024);
    let raw = microdata_census(&CensusConfig {
        rows: 5_000,
        invalid_fraction: 0.0,
        outlier_fraction: 0.0,
        ..Default::default()
    })?;
    dbms.load_raw(&raw)?;
    dbms.materialize(
        ViewDefinition::scan("survey", "census_microdata"),
        "analyst",
    )?;
    dbms.env().tracker.reset();
    let t0 = Instant::now();
    for day in 0..days {
        analysis_day(&mut dbms, day, summary_db)?;
    }
    let elapsed = t0.elapsed().as_micros();
    let io = dbms.io();
    let stats = dbms.cache_stats("survey")?;
    Ok((
        elapsed,
        io.page_reads + io.pool_hits / 16, // rough cost proxy
        format!(
            "hits {:>4}  recomputes {:>4}  incremental {:>4}",
            stats.hits, stats.recomputes, stats.incremental_updates
        ),
    ))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let days = 60;
    println!("workload: {days} analysis days × 9 summary queries + 2 corrections\n");
    let (t_inc, io_inc, s_inc) = run(true, days)?;
    let (t_plain, io_plain, s_plain) = run(false, days)?;
    println!("incremental Summary DB : {t_inc:>9} µs  cost {io_inc:>7}  {s_inc}");
    println!("no Summary DB          : {t_plain:>9} µs  cost {io_plain:>7}  {s_plain}");
    let speedup = t_plain as f64 / t_inc.max(1) as f64;
    println!("\nspeedup from caching + incremental maintenance: {speedup:.1}×");
    Ok(())
}
