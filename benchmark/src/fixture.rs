//! Input generation and fixture set-up.
//!
//! The seed drives the census generator; the program under test only
//! ever sees the generated data set. Generation is input generation
//! and is excluded from `setup_s`; everything from `load_raw` to a
//! ready-to-query engine is set-up and is timed.

use std::time::Instant;

use sdbms_core::{
    CoreError, DurabilityPolicy, Expr, Predicate, StatDbms, StatFunction, SummaryValue,
    ViewDefinition,
};
use sdbms_data::census::{microdata_census, CensusConfig};
use sdbms_data::{DataSet, DataType, Value};
use sdbms_stats::Histogram;
use sdbms_storage::{StorageEnv, PAGE_SIZE};
use sdbms_testkit::{CENSUS_SOURCE, CENSUS_VIEW};

use crate::config::Config;

/// The view every workload queries.
pub const VIEW: &str = CENSUS_VIEW;

/// Attributes summary statistics make sense for (Int and Float).
pub const NUMERIC_ATTRS: [&str; 4] = ["PERSON_ID", "AGE", "INCOME", "HOURS_WORKED"];

/// Generate the census microdata for `cfg` from `seed`.
pub fn generate(cfg: &Config, seed: u64) -> Result<DataSet, CoreError> {
    Ok(microdata_census(&CensusConfig {
        seed,
        rows: cfg.rows,
        invalid_fraction: cfg.invalid_fraction,
        outlier_fraction: cfg.outlier_fraction,
        regions: 4,
    })?)
}

/// Wall time of each set-up phase, seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub load_raw_s: f64,
    pub materialize_s: f64,
    pub warm_s: f64,
    /// Serve workloads: `Server::start` plus opening the sessions.
    pub serve_s: f64,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        self.load_raw_s + self.materialize_s + self.warm_s + self.serve_s
    }
}

fn timed<R>(slot: &mut f64, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let r = f();
    *slot += start.elapsed().as_secs_f64();
    r
}

/// Build a ready engine over `raw`: load, materialize, set the
/// durability policy and warm the standing summaries.
pub fn build_engine(cfg: &Config, raw: &DataSet) -> Result<(StatDbms, SetupTimes), CoreError> {
    let mut t = SetupTimes::default();
    let mut dbms = StatDbms::with_env(StorageEnv::new(cfg.pool_pages));
    dbms.set_workers(cfg.exec_workers);
    timed(&mut t.load_raw_s, || dbms.load_raw(raw))?;
    timed(&mut t.materialize_s, || -> Result<(), CoreError> {
        dbms.materialize(ViewDefinition::scan(VIEW, CENSUS_SOURCE), "analyst")?;
        if cfg.crash_consistent {
            dbms.set_durability(DurabilityPolicy::CrashConsistent)?;
        }
        Ok(())
    })?;
    timed(&mut t.warm_s, || dbms.warm_standing_summaries(VIEW))?;
    Ok((dbms, t))
}

/// Bytes the store allocates per row of the view.
pub fn store_bytes_per_row(dbms: &StatDbms, rows: usize) -> f64 {
    (dbms.env().disk.allocated_pages() * PAGE_SIZE) as f64 / rows as f64
}

/// This process's peak resident set (`VmHWM`), MiB. 0 where `/proc`
/// is not available.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Whether a served summary agrees with the column it summarises. A
/// scalar or vector must match a from-scratch recompute within the
/// repo's 1e-9 relative tolerance for cached-versus-recomputed values.
/// An incrementally maintained histogram keeps the bin edges it was
/// built with (values outside them are counted below or above), so it
/// is checked against the column binned into those same edges.
pub fn agrees(f: &StatFunction, served: &SummaryValue, column: &[Value]) -> bool {
    if let SummaryValue::Histogram(h) = served {
        let (Some(lo), Some(hi)) = (h.edges().first(), h.edges().last()) else {
            return false;
        };
        let Ok(mut want) = Histogram::with_range(*lo, *hi, h.bins()) else {
            return false;
        };
        column
            .iter()
            .filter_map(Value::as_f64)
            .for_each(|x| want.add(x));
        return want.counts() == h.counts()
            && want.below() == h.below()
            && want.above() == h.above();
    }
    f.compute(column)
        .is_ok_and(|want| served.approx_eq(&want, 1e-9))
}

/// The reference model: the generated data set itself, edited row by
/// row with the relational crate's scalar evaluator. Every oracle in
/// the benchmark compares the engine against this.
#[derive(Debug, Clone)]
pub struct Model {
    pub data: DataSet,
}

impl Model {
    pub fn new(data: DataSet) -> Model {
        Model { data }
    }

    pub fn column(&self, attribute: &str) -> Vec<Value> {
        self.data
            .column(attribute)
            .map(|c| c.cloned().collect())
            .unwrap_or_default()
    }

    /// Rows satisfying `predicate`, by row-by-row evaluation.
    pub fn filter(&self, predicate: &Predicate) -> Vec<usize> {
        match predicate.bind(self.data.schema()) {
            Ok(bound) => self.data.filter_rows(|row| bound.eval(row)),
            Err(_) => Vec::new(),
        }
    }

    /// Apply `assignments` to every row satisfying `predicate`, the way
    /// `update_where` defines it: expressions see the row as it was
    /// before any assignment of the same statement, and an integral
    /// float assigned to an Int attribute is stored as an Int.
    pub fn update_where(&mut self, predicate: &Predicate, assignments: &[(&str, Expr)]) {
        let schema = self.data.schema().clone();
        let bound: Vec<_> = assignments
            .iter()
            .filter_map(|(attr, expr)| {
                let a = schema.attribute(attr).ok()?;
                Some((a.name.clone(), expr.bind(&schema).ok()?, a.dtype))
            })
            .collect();
        for i in self.filter(predicate) {
            let Ok(row) = self.data.row(i).map(<[Value]>::to_vec) else {
                continue;
            };
            for (attr, expr, dtype) in &bound {
                let value = match (expr.eval(&row), dtype) {
                    (Value::Float(x), DataType::Int) if x.fract() == 0.0 && x.is_finite() => {
                        Value::Int(x as i64)
                    }
                    (v, _) => v,
                };
                let _ = self.data.set_value(i, attr, value);
            }
        }
    }

    pub fn set_cell(&mut self, row: usize, attribute: &str, value: Value) {
        let _ = self.data.set_value(row, attribute, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Workload;
    use sdbms_core::CmpOp;

    fn model() -> Model {
        let mut cfg = Config::of(Workload::CleanUpdate, true);
        cfg.rows = 500;
        Model::new(generate(&cfg, 3).unwrap())
    }

    #[test]
    fn a_stale_summary_does_not_agree() {
        let m = model();
        let col = m.column("INCOME");
        let mean = StatFunction::Mean.compute(&col).unwrap();
        assert!(agrees(&StatFunction::Mean, &mean, &col));
        let mut edited = col.clone();
        edited[0] = Value::Float(1.0e9);
        assert!(!agrees(&StatFunction::Mean, &mean, &edited));
    }

    #[test]
    fn a_histogram_is_checked_in_its_own_edges() {
        let m = model();
        let col = m.column("INCOME");
        let f = StatFunction::Histogram(20);
        let served = f.compute(&col).unwrap();
        assert!(agrees(&f, &served, &col));
        // The column's range grows; an incrementally maintained
        // histogram keeps its edges and counts the new value above.
        let mut grown = col.clone();
        grown.push(Value::Float(9.0e9));
        assert!(!agrees(&f, &served, &grown), "one more value, same counts");
        let SummaryValue::Histogram(mut h) = served else {
            panic!("histogram expected");
        };
        h.add(9.0e9);
        assert!(agrees(&f, &SummaryValue::Histogram(h), &grown));
    }

    #[test]
    fn model_updates_follow_update_where() {
        let mut m = model();
        let first_five = Predicate::cmp(Expr::col("PERSON_ID"), CmpOp::Lt, Expr::lit(5i64));
        // An integral float assigned to an Int attribute is stored as Int.
        m.update_where(&first_five, &[("AGE", Expr::lit(41.0f64))]);
        assert_eq!(m.column("AGE")[..5], vec![Value::Int(41); 5]);
        assert_eq!(m.filter(&first_five), vec![0, 1, 2, 3, 4]);
        let before = m.column("INCOME");
        m.update_where(
            &first_five,
            &[(
                "INCOME",
                Expr::col("INCOME").binary(sdbms_core::BinOp::Add, Expr::lit(10i64)),
            )],
        );
        let after = m.column("INCOME");
        for i in 0..5 {
            assert_eq!(
                after[i].as_f64().unwrap(),
                before[i].as_f64().unwrap() + 10.0
            );
        }
        assert_eq!(after[5..], before[5..]);
    }
}
