//! View definitions: the lineage the Management Database stores.
//!
//! §3.2: the Management Database holds "view definitions… including a
//! specification of the operations that were utilized to materialize
//! the view". A [`ViewDefinition`] is that specification: a source data
//! set plus an ordered pipeline of relational steps. It can be
//! re-executed at any time against a source resolver (the raw database
//! in `sdbms-core`, or any in-memory provider), which is what makes
//! re-materialization, sharing, and the "has someone already built this
//! view?" check (§2.3) possible.

use std::fmt;

use sdbms_data::{DataSet, DataType};

use crate::expr::{Expr, Predicate, Result};
use crate::ops;

/// One step of a view-materialization pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum ViewStep {
    /// Keep rows satisfying the predicate.
    Select(Predicate),
    /// Keep (and reorder to) the named columns.
    Project(Vec<String>),
    /// Append a computed column.
    Extend {
        /// New column name.
        name: String,
        /// New column type.
        dtype: DataType,
        /// Defining expression.
        expr: Expr,
    },
    /// Equi-join with another source data set (hash join).
    Join {
        /// Name of the other source in the resolver.
        with: String,
        /// Join attribute on the pipeline side.
        left_on: String,
        /// Join attribute on the `with` side.
        right_on: String,
    },
    /// Sort by attributes (ascending).
    Sort(Vec<String>),
    /// Drop duplicate rows.
    Distinct,
    /// Group and aggregate.
    Aggregate {
        /// Grouping attributes.
        group_by: Vec<String>,
        /// Aggregates to compute.
        aggs: Vec<ops::Aggregate>,
    },
    /// Simple random sample of `k` rows with a fixed seed (§2.2
    /// exploratory sampling; the seed keeps lineage reproducible).
    Sample {
        /// Sample size.
        k: usize,
        /// RNG seed.
        seed: u64,
    },
}

impl fmt::Display for ViewStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ViewStep::Select(p) => write!(f, "SELECT {p}"),
            ViewStep::Project(cols) => write!(f, "PROJECT {cols:?}"),
            ViewStep::Extend { name, expr, .. } => write!(f, "EXTEND {name} = {expr}"),
            ViewStep::Join {
                with,
                left_on,
                right_on,
            } => write!(f, "JOIN {with} ON {left_on} = {right_on}"),
            ViewStep::Sort(cols) => write!(f, "SORT {cols:?}"),
            ViewStep::Distinct => write!(f, "DISTINCT"),
            ViewStep::Aggregate { group_by, aggs } => {
                write!(f, "AGGREGATE BY {group_by:?} [")?;
                for (i, a) in aggs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{} = {}({})", a.out_name, a.func, a.attribute)?;
                }
                write!(f, "]")
            }
            ViewStep::Sample { k, seed } => write!(f, "SAMPLE {k} (seed {seed})"),
        }
    }
}

/// A named, re-executable description of how a view is materialized.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewDefinition {
    /// Name the materialized view will carry.
    pub name: String,
    /// Source data set (in the raw database).
    pub source: String,
    /// Pipeline applied to the source, in order.
    pub steps: Vec<ViewStep>,
}

impl ViewDefinition {
    /// A definition that materializes `source` unchanged.
    #[must_use]
    pub fn scan(name: &str, source: &str) -> Self {
        ViewDefinition {
            name: name.to_string(),
            source: source.to_string(),
            steps: Vec::new(),
        }
    }

    /// Append a step (builder style).
    #[must_use]
    pub fn with_step(mut self, step: ViewStep) -> Self {
        self.steps.push(step);
        self
    }

    /// Builder: select.
    #[must_use]
    pub fn select(self, pred: Predicate) -> Self {
        self.with_step(ViewStep::Select(pred))
    }

    /// Builder: project.
    #[must_use]
    pub fn project(self, cols: &[&str]) -> Self {
        self.with_step(ViewStep::Project(
            cols.iter().map(ToString::to_string).collect(),
        ))
    }

    /// Builder: extend.
    #[must_use]
    pub fn extend(self, name: &str, dtype: DataType, expr: Expr) -> Self {
        self.with_step(ViewStep::Extend {
            name: name.to_string(),
            dtype,
            expr,
        })
    }

    /// Builder: join.
    #[must_use]
    pub fn join(self, with: &str, left_on: &str, right_on: &str) -> Self {
        self.with_step(ViewStep::Join {
            with: with.to_string(),
            left_on: left_on.to_string(),
            right_on: right_on.to_string(),
        })
    }

    /// Builder: aggregate.
    #[must_use]
    pub fn aggregate(self, group_by: &[&str], aggs: Vec<ops::Aggregate>) -> Self {
        self.with_step(ViewStep::Aggregate {
            group_by: group_by.iter().map(ToString::to_string).collect(),
            aggs,
        })
    }

    /// Builder: sample.
    #[must_use]
    pub fn sample(self, k: usize, seed: u64) -> Self {
        self.with_step(ViewStep::Sample { k, seed })
    }

    /// Execute the pipeline. `resolve` maps a source name to its data
    /// set (in `sdbms-core` this is an archive extraction).
    pub fn execute(&self, resolve: &mut dyn FnMut(&str) -> Result<DataSet>) -> Result<DataSet> {
        let mut current = resolve(&self.source)?;
        for step in &self.steps {
            current = match step {
                ViewStep::Select(p) => ops::select(&current, p)?,
                ViewStep::Project(cols) => {
                    let names: Vec<&str> = cols.iter().map(String::as_str).collect();
                    ops::project(&current, &names)?
                }
                ViewStep::Extend { name, dtype, expr } => {
                    ops::extend(&current, name, *dtype, expr)?
                }
                ViewStep::Join {
                    with,
                    left_on,
                    right_on,
                } => {
                    let other = resolve(with)?;
                    ops::hash_join(&current, &other, left_on, right_on)?
                }
                ViewStep::Sort(cols) => {
                    let names: Vec<&str> = cols.iter().map(String::as_str).collect();
                    ops::sort_by(&current, &names)?
                }
                ViewStep::Distinct => ops::distinct(&current)?,
                ViewStep::Aggregate { group_by, aggs } => {
                    let names: Vec<&str> = group_by.iter().map(String::as_str).collect();
                    ops::group_aggregate(&current, &names, aggs)?
                }
                ViewStep::Sample { k, seed } => sample_rows(&current, *k, *seed)?,
            };
        }
        current.set_name(&self.name);
        Ok(current)
    }

    /// Structural equality of *what is computed* (source + steps),
    /// ignoring the view's name — the §2.3 duplicate-view check.
    #[must_use]
    pub fn computes_same_as(&self, other: &ViewDefinition) -> bool {
        self.source == other.source && self.steps == other.steps
    }
}

impl fmt::Display for ViewDefinition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VIEW {} := SCAN {}", self.name, self.source)?;
        for s in &self.steps {
            write!(f, " |> {s}")?;
        }
        Ok(())
    }
}

/// Deterministic simple random sample of `k` rows (Floyd's algorithm,
/// duplicated from `sdbms-stats` to keep this crate's dependencies to
/// `sdbms-data` only).
fn sample_rows(ds: &DataSet, k: usize, seed: u64) -> Result<DataSet> {
    if k >= ds.len() {
        return DataSet::from_rows(ds.name(), ds.schema().clone(), ds.rows().to_vec());
    }
    // SplitMix64 generator: tiny, seedable, good enough for sampling.
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let n = ds.len();
    let mut chosen = std::collections::HashSet::with_capacity(k);
    for j in n - k..n {
        let t = (next() % (j as u64 + 1)) as usize;
        if !chosen.insert(t) {
            chosen.insert(j);
        }
    }
    let mut idx: Vec<usize> = chosen.into_iter().collect();
    idx.sort_unstable();
    let rows = idx.iter().map(|&i| ds.rows()[i].clone()).collect();
    DataSet::from_rows(ds.name(), ds.schema().clone(), rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::ScalarFunc;
    use crate::ops::{AggFunc, Aggregate};
    use sdbms_data::census::figure1;
    use sdbms_data::DataError;
    use sdbms_data::{CodeBook, Value};

    fn resolver() -> impl FnMut(&str) -> Result<DataSet> {
        |name: &str| match name {
            "figure1" => Ok(figure1()),
            "age_codes" => Ok(CodeBook::figure2_age_group().to_dataset()),
            other => Err(DataError::NoSuchAttribute(other.to_string())),
        }
    }

    #[test]
    fn scan_only() {
        let def = ViewDefinition::scan("v", "figure1");
        let out = def.execute(&mut resolver()).unwrap();
        assert_eq!(out.name(), "v");
        assert_eq!(out.rows(), figure1().rows());
    }

    #[test]
    fn full_pipeline() {
        let def = ViewDefinition::scan("male_decoded", "figure1")
            .select(Predicate::col_eq("SEX", "M"))
            .join("age_codes", "AGE_GROUP", "CATEGORY")
            .extend(
                "LOG_SALARY",
                DataType::Float,
                Expr::col("AVE_SALARY").apply(ScalarFunc::Ln),
            )
            .project(&["VALUE", "POPULATION", "LOG_SALARY"]);
        let out = def.execute(&mut resolver()).unwrap();
        assert_eq!(out.len(), 5);
        assert_eq!(
            out.schema().names(),
            vec!["VALUE", "POPULATION", "LOG_SALARY"]
        );
        assert_eq!(
            out.value(0, "VALUE").unwrap(),
            &Value::Str("0 to 20".into())
        );
    }

    #[test]
    fn aggregate_step() {
        let def = ViewDefinition::scan("by_race", "figure1").aggregate(
            &["RACE"],
            vec![Aggregate::new("POPULATION", AggFunc::Sum, "TOTAL_POP")],
        );
        let out = def.execute(&mut resolver()).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn sample_step_deterministic() {
        let def = ViewDefinition::scan("s", "figure1").sample(4, 99);
        let a = def.execute(&mut resolver()).unwrap();
        let b = def.execute(&mut resolver()).unwrap();
        assert_eq!(a.rows(), b.rows());
        assert_eq!(a.len(), 4);
        // k >= n keeps everything.
        let all = ViewDefinition::scan("s", "figure1")
            .sample(100, 1)
            .execute(&mut resolver())
            .unwrap();
        assert_eq!(all.len(), 9);
    }

    #[test]
    fn duplicate_view_detection() {
        let a = ViewDefinition::scan("mine", "figure1").select(Predicate::col_eq("SEX", "M"));
        let b = ViewDefinition::scan("yours", "figure1").select(Predicate::col_eq("SEX", "M"));
        let c = ViewDefinition::scan("other", "figure1").select(Predicate::col_eq("SEX", "F"));
        assert!(a.computes_same_as(&b), "same computation, different name");
        assert!(!a.computes_same_as(&c));
    }

    #[test]
    fn missing_source_errors() {
        let def = ViewDefinition::scan("v", "nonexistent");
        assert!(def.execute(&mut resolver()).is_err());
    }

    #[test]
    fn display_is_readable() {
        let def = ViewDefinition::scan("v", "figure1")
            .select(Predicate::col_eq("SEX", "M"))
            .project(&["POPULATION"]);
        let s = def.to_string();
        assert!(s.starts_with("VIEW v := SCAN figure1"));
        assert!(s.contains("SELECT"));
        assert!(s.contains("PROJECT"));
    }
}
