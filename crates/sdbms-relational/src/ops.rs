//! Relational operators over data sets.
//!
//! §2.3: "The operations required for materializing views are the
//! traditional relational operations which create and transform
//! tables… Another, very important, set of operators are aggregates,
//! in particular aggregate functions." These operators run during view
//! materialization and whenever an analyst derives a new data set —
//! including the paper's §2.2 example of collapsing the M/F split by
//! summing populations and *weighted-averaging* the salaries.

use std::collections::HashMap;

use sdbms_data::{Attribute, AttributeRole, DataSet, DataType, Schema, Value};

use crate::expr::{Expr, Predicate, Result};

/// Rows of `ds` satisfying `pred`.
pub fn select(ds: &DataSet, pred: &Predicate) -> Result<DataSet> {
    let bound = pred.bind(ds.schema())?;
    let rows = ds
        .rows()
        .iter()
        .filter(|r| bound.eval(r))
        .cloned()
        .collect();
    DataSet::from_rows(&format!("{}_select", ds.name()), ds.schema().clone(), rows)
}

/// The named columns of `ds`, in the given order.
pub fn project(ds: &DataSet, names: &[&str]) -> Result<DataSet> {
    let schema = ds.schema().project(names)?;
    let idx: Vec<usize> = names
        .iter()
        .map(|n| ds.schema().require(n))
        .collect::<Result<_>>()?;
    let rows = ds
        .rows()
        .iter()
        .map(|r| idx.iter().map(|&i| r[i].clone()).collect())
        .collect();
    DataSet::from_rows(&format!("{}_project", ds.name()), schema, rows)
}

/// `ds` extended with a computed column `name = expr` (role Derived).
pub fn extend(ds: &DataSet, name: &str, dtype: DataType, expr: &Expr) -> Result<DataSet> {
    let bound = expr.bind(ds.schema())?;
    let schema = ds.schema().with_appended(Attribute::derived(name, dtype))?;
    let rows: Vec<Vec<Value>> = ds
        .rows()
        .iter()
        .map(|r| {
            let mut out = r.clone();
            let v = bound.eval(r);
            // Arithmetic yields floats; coerce to int if the target
            // column is declared Int and the value is integral.
            let v = match (&v, dtype) {
                (Value::Float(x), DataType::Int) if x.fract() == 0.0 => Value::Int(*x as i64),
                _ => v,
            };
            out.push(v);
            out
        })
        .collect();
    DataSet::from_rows(&format!("{}_extend", ds.name()), schema, rows)
}

/// Equi-join on `left.left_on = right.right_on` via a hash table on the
/// right input, O(|L| + |R|). Missing join keys never match. Output
/// columns: all of `left`, then all of `right` except `right_on`;
/// name clashes from the right side get a `right_` prefix.
pub fn hash_join(
    left: &DataSet,
    right: &DataSet,
    left_on: &str,
    right_on: &str,
) -> Result<DataSet> {
    let li = left.schema().require(left_on)?;
    let ri = right.schema().require(right_on)?;
    let (schema, rkeep) = join_schema(left, right, right_on)?;
    // Hash on the display form: group_eq-compatible for the key types
    // used in joins (strings, codes, ints).
    let mut table: HashMap<String, Vec<usize>> = HashMap::new();
    for (i, rrow) in right.rows().iter().enumerate() {
        if !rrow[ri].is_missing() {
            table.entry(rrow[ri].to_string()).or_default().push(i);
        }
    }
    let mut rows = Vec::new();
    for lrow in left.rows() {
        if lrow[li].is_missing() {
            continue;
        }
        if let Some(matches) = table.get(&lrow[li].to_string()) {
            for &i in matches {
                let rrow = &right.rows()[i];
                if lrow[li].group_eq(&rrow[ri]) {
                    rows.push(join_row(lrow, rrow, &rkeep));
                }
            }
        }
    }
    DataSet::from_rows(
        &format!("{}_join_{}", left.name(), right.name()),
        schema,
        rows,
    )
}

fn join_schema(left: &DataSet, right: &DataSet, right_on: &str) -> Result<(Schema, Vec<usize>)> {
    let mut attrs: Vec<Attribute> = left.schema().attributes().to_vec();
    let mut rkeep = Vec::new();
    for (i, a) in right.schema().attributes().iter().enumerate() {
        if a.name == right_on {
            continue;
        }
        rkeep.push(i);
        let mut a = a.clone();
        if left.schema().position(&a.name).is_some() {
            a.name = format!("right_{}", a.name);
        }
        attrs.push(a);
    }
    Ok((Schema::new(attrs)?, rkeep))
}

fn join_row(lrow: &[Value], rrow: &[Value], rkeep: &[usize]) -> Vec<Value> {
    let mut out = lrow.to_vec();
    out.extend(rkeep.iter().map(|&i| rrow[i].clone()));
    out
}

/// Sort rows by the named attributes (ascending, missing first, stable).
pub fn sort_by(ds: &DataSet, attrs: &[&str]) -> Result<DataSet> {
    let idx: Vec<usize> = attrs
        .iter()
        .map(|n| ds.schema().require(n))
        .collect::<Result<_>>()?;
    let mut rows = ds.rows().to_vec();
    rows.sort_by(|a, b| {
        for &i in &idx {
            let ord = a[i].total_cmp(&b[i]);
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    DataSet::from_rows(&format!("{}_sorted", ds.name()), ds.schema().clone(), rows)
}

/// Distinct rows (first occurrence kept, order preserved).
pub fn distinct(ds: &DataSet) -> Result<DataSet> {
    let mut seen = std::collections::HashSet::new();
    let rows: Vec<Vec<Value>> = ds
        .rows()
        .iter()
        .filter(|r| seen.insert(format!("{r:?}")))
        .cloned()
        .collect();
    DataSet::from_rows(
        &format!("{}_distinct", ds.name()),
        ds.schema().clone(),
        rows,
    )
}

/// Aggregate functions for [`group_aggregate`].
#[derive(Debug, Clone, PartialEq)]
pub enum AggFunc {
    /// Count of non-missing values of the attribute.
    Count,
    /// Sum of numeric values (missing skipped).
    Sum,
    /// Mean of numeric values.
    Mean,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Mean weighted by another attribute — the paper's §2.2 example:
    /// "forming a weighted average of the two AVE_SALARY fields" with
    /// POPULATION weights.
    WeightedMean {
        /// Attribute supplying the weights.
        weight: String,
    },
}

impl std::fmt::Display for AggFunc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AggFunc::Count => write!(f, "count"),
            AggFunc::Sum => write!(f, "sum"),
            AggFunc::Mean => write!(f, "mean"),
            AggFunc::Min => write!(f, "min"),
            AggFunc::Max => write!(f, "max"),
            AggFunc::WeightedMean { weight } => write!(f, "wmean[{weight}]"),
        }
    }
}

/// One output aggregate: `out_name = func(attribute)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Aggregate {
    /// Input attribute.
    pub attribute: String,
    /// Aggregate function.
    pub func: AggFunc,
    /// Output column name.
    pub out_name: String,
}

impl Aggregate {
    /// Construct an aggregate spec.
    #[must_use]
    pub fn new(attribute: &str, func: AggFunc, out_name: &str) -> Self {
        Aggregate {
            attribute: attribute.to_string(),
            func,
            out_name: out_name.to_string(),
        }
    }
}

/// Group rows by `group_attrs` and compute `aggs` per group. Group
/// order is first-occurrence order; missing group values form their own
/// group.
pub fn group_aggregate(ds: &DataSet, group_attrs: &[&str], aggs: &[Aggregate]) -> Result<DataSet> {
    let gidx: Vec<usize> = group_attrs
        .iter()
        .map(|n| ds.schema().require(n))
        .collect::<Result<_>>()?;
    struct AggPlan {
        col: usize,
        weight_col: Option<usize>,
    }
    let mut plans = Vec::with_capacity(aggs.len());
    for a in aggs {
        let col = ds.schema().require(&a.attribute)?;
        let weight_col = match &a.func {
            AggFunc::WeightedMean { weight } => Some(ds.schema().require(weight)?),
            _ => None,
        };
        plans.push(AggPlan { col, weight_col });
    }

    // Group rows (key = group values' debug form; group_eq-compatible).
    let mut order: Vec<String> = Vec::new();
    let mut groups: HashMap<String, (Vec<Value>, Vec<usize>)> = HashMap::new();
    for (ri, row) in ds.rows().iter().enumerate() {
        let key_vals: Vec<Value> = gidx.iter().map(|&i| row[i].clone()).collect();
        let key = format!("{key_vals:?}");
        groups
            .entry(key.clone())
            .or_insert_with(|| {
                order.push(key.clone());
                (key_vals, Vec::new())
            })
            .1
            .push(ri);
    }

    // Output schema: group attrs keep their metadata; aggregates are
    // derived floats (Count is an int).
    let mut attrs: Vec<Attribute> = gidx
        .iter()
        .map(|&i| ds.schema().attribute_at(i).clone())
        .collect();
    for a in aggs {
        let dtype = match a.func {
            AggFunc::Count => DataType::Int,
            _ => DataType::Float,
        };
        attrs.push(Attribute {
            name: a.out_name.clone(),
            dtype,
            role: AttributeRole::Derived,
            codebook: None,
            valid_range: None,
        });
    }
    let schema = Schema::new(attrs)?;

    let mut out_rows = Vec::with_capacity(order.len());
    for key in order {
        let (key_vals, row_ids) = &groups[&key];
        let mut out = key_vals.clone();
        for (a, plan) in aggs.iter().zip(&plans) {
            out.push(compute_agg(ds, row_ids, a, plan.col, plan.weight_col)?);
        }
        out_rows.push(out);
    }
    DataSet::from_rows(&format!("{}_grouped", ds.name()), schema, out_rows)
}

fn compute_agg(
    ds: &DataSet,
    row_ids: &[usize],
    agg: &Aggregate,
    col: usize,
    weight_col: Option<usize>,
) -> Result<Value> {
    let rows = ds.rows();
    match &agg.func {
        AggFunc::Count => {
            let n = row_ids
                .iter()
                .filter(|&&i| !rows[i][col].is_missing())
                .count();
            Ok(Value::Int(n as i64))
        }
        AggFunc::Sum | AggFunc::Mean | AggFunc::Min | AggFunc::Max => {
            let vals: Vec<f64> = row_ids
                .iter()
                .filter_map(|&i| rows[i][col].as_f64())
                .collect();
            if vals.is_empty() {
                return Ok(Value::Missing);
            }
            let x = match agg.func {
                AggFunc::Sum => vals.iter().sum(),
                AggFunc::Mean => vals.iter().sum::<f64>() / vals.len() as f64,
                AggFunc::Min => vals.iter().copied().fold(f64::INFINITY, f64::min),
                AggFunc::Max => vals.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                // lint: allow(no-panic): the enclosing match arm admits only Sum/Mean/Min/Max
                _ => unreachable!(),
            };
            Ok(Value::Float(x))
        }
        AggFunc::WeightedMean { .. } => {
            // lint: allow(no-panic): the aggregate planner resolves the weight column before building a WeightedMean
            let wcol = weight_col.expect("weight column resolved in plan");
            let mut num = 0.0;
            let mut den = 0.0;
            for &i in row_ids {
                if let (Some(x), Some(w)) = (rows[i][col].as_f64(), rows[i][wcol].as_f64()) {
                    num += x * w;
                    den += w;
                }
            }
            if den == 0.0 {
                return Ok(Value::Missing);
            }
            Ok(Value::Float(num / den))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BinOp, CmpOp, ScalarFunc};
    use sdbms_data::census::figure1;
    use sdbms_data::CodeBook;

    /// The nested-loop equi-join: [`hash_join`]'s oracle.
    fn nested_loop_join(
        left: &DataSet,
        right: &DataSet,
        left_on: &str,
        right_on: &str,
    ) -> Result<DataSet> {
        let li = left.schema().require(left_on)?;
        let ri = right.schema().require(right_on)?;
        let (schema, rkeep) = join_schema(left, right, right_on)?;
        let mut rows = Vec::new();
        for lrow in left.rows() {
            if lrow[li].is_missing() {
                continue;
            }
            for rrow in right.rows() {
                if rrow[ri].is_missing() || !lrow[li].group_eq(&rrow[ri]) {
                    continue;
                }
                rows.push(join_row(lrow, rrow, &rkeep));
            }
        }
        DataSet::from_rows(
            &format!("{}_join_{}", left.name(), right.name()),
            schema,
            rows,
        )
    }

    #[test]
    fn select_males_from_figure1() {
        let out = select(&figure1(), &Predicate::col_eq("SEX", "M")).unwrap();
        assert_eq!(out.len(), 5);
        assert!(out.column("SEX").unwrap().all(|v| v.as_str() == Some("M")));
        let none = select(
            &figure1(),
            &Predicate::col_eq("SEX", "M").and(Predicate::col_eq("SEX", "F")),
        )
        .unwrap();
        assert_eq!(none.len(), 0);
    }

    #[test]
    fn project_reorders_columns() {
        let out = project(&figure1(), &["AVE_SALARY", "SEX"]).unwrap();
        assert_eq!(out.schema().names(), vec!["AVE_SALARY", "SEX"]);
        assert_eq!(out.value(0, "AVE_SALARY").unwrap(), &Value::Int(33_122));
        assert!(project(&figure1(), &["NOPE"]).is_err());
    }

    #[test]
    fn extend_log_salary() {
        let out = extend(
            &figure1(),
            "LOG_SALARY",
            DataType::Float,
            &Expr::col("AVE_SALARY").apply(ScalarFunc::Ln),
        )
        .unwrap();
        assert_eq!(out.schema().len(), 6);
        let v = out.value(0, "LOG_SALARY").unwrap().as_f64().unwrap();
        assert!((v - (33_122.0f64).ln()).abs() < 1e-12);
        assert_eq!(
            out.schema().attribute("LOG_SALARY").unwrap().role,
            AttributeRole::Derived
        );
    }

    #[test]
    fn figure2_decode_join() {
        // The paper's flagship join: decode AGE_GROUP via Figure 2.
        let code_ds = CodeBook::figure2_age_group().to_dataset();
        for join in [nested_loop_join, hash_join] {
            let out = join(&figure1(), &code_ds, "AGE_GROUP", "CATEGORY").unwrap();
            assert_eq!(out.len(), 9, "every row decodes");
            assert_eq!(
                out.value(0, "VALUE").unwrap(),
                &Value::Str("0 to 20".into())
            );
            assert_eq!(
                out.value(3, "VALUE").unwrap(),
                &Value::Str("over 60".into())
            );
        }
    }

    #[test]
    fn joins_agree_and_skip_missing_keys() {
        let mut left = figure1();
        left.invalidate(0, "AGE_GROUP").unwrap();
        let code_ds = CodeBook::figure2_age_group().to_dataset();
        let nl = nested_loop_join(&left, &code_ds, "AGE_GROUP", "CATEGORY").unwrap();
        let h = hash_join(&left, &code_ds, "AGE_GROUP", "CATEGORY").unwrap();
        assert_eq!(nl.rows(), h.rows());
        assert_eq!(nl.len(), 8, "missing key row dropped");
    }

    #[test]
    fn join_renames_clashing_columns() {
        let l = figure1();
        let r = figure1();
        let out = hash_join(&l, &r, "AGE_GROUP", "AGE_GROUP").unwrap();
        assert!(out.schema().position("right_SEX").is_some());
        assert!(out.schema().position("right_POPULATION").is_some());
        // 9 rows of figure1 match on age group: groups of sizes
        // 3,2,2,2 -> 9+4+4+4 = sum of squares = 21.
        assert_eq!(out.len(), 21);
    }

    #[test]
    fn sort_and_distinct() {
        let sorted = sort_by(&figure1(), &["AVE_SALARY"]).unwrap();
        let sal: Vec<f64> = sorted
            .column("AVE_SALARY")
            .unwrap()
            .map(|v| v.as_f64().unwrap())
            .collect();
        assert!(sal.windows(2).all(|w| w[0] <= w[1]));
        let sexes = project(&figure1(), &["SEX"]).unwrap();
        let d = distinct(&sexes).unwrap();
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn sort_multi_key_stable() {
        let s = sort_by(&figure1(), &["SEX", "AGE_GROUP"]).unwrap();
        // F rows first (F < M), then by age group.
        assert_eq!(s.value(0, "SEX").unwrap(), &Value::Str("F".into()));
        assert_eq!(s.value(0, "AGE_GROUP").unwrap(), &Value::Code(1));
        assert_eq!(s.value(4, "SEX").unwrap(), &Value::Str("M".into()));
    }

    #[test]
    fn paper_merge_example_weighted_average() {
        // §2.2: stop differentiating M and F per RACE/AGE_GROUP: add
        // populations, weighted-average the salaries.
        let out = group_aggregate(
            &figure1(),
            &["RACE", "AGE_GROUP"],
            &[
                Aggregate::new("POPULATION", AggFunc::Sum, "POPULATION"),
                Aggregate::new(
                    "AVE_SALARY",
                    AggFunc::WeightedMean {
                        weight: "POPULATION".into(),
                    },
                    "AVE_SALARY",
                ),
            ],
        )
        .unwrap();
        // Figure 1 has 4 W age groups + 1 B group = 5 groups.
        assert_eq!(out.len(), 5);
        // Check the (W, age 1) group by hand.
        let pop = out.value(0, "POPULATION").unwrap().as_f64().unwrap();
        assert_eq!(pop, 12_300_347.0 + 15_821_497.0);
        let sal = out.value(0, "AVE_SALARY").unwrap().as_f64().unwrap();
        let expect =
            (12_300_347.0 * 33_122.0 + 15_821_497.0 * 31_762.0) / (12_300_347.0 + 15_821_497.0);
        assert!((sal - expect).abs() < 1e-6);
        // The lone (B, 1) group passes through unchanged.
        let b_sal = out.value(4, "AVE_SALARY").unwrap().as_f64().unwrap();
        assert!((b_sal - 29_402.0).abs() < 1e-9);
    }

    #[test]
    fn aggregate_count_skips_missing_and_empty_groups_yield_missing() {
        let mut ds = figure1();
        ds.invalidate(0, "AVE_SALARY").unwrap();
        let out = group_aggregate(
            &ds,
            &["SEX"],
            &[
                Aggregate::new("AVE_SALARY", AggFunc::Count, "N"),
                Aggregate::new("AVE_SALARY", AggFunc::Mean, "MEAN_SAL"),
                Aggregate::new("AVE_SALARY", AggFunc::Min, "MIN_SAL"),
                Aggregate::new("AVE_SALARY", AggFunc::Max, "MAX_SAL"),
            ],
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        // M group lost one value to invalidation: 5 rows, 4 counted.
        assert_eq!(out.value(0, "N").unwrap(), &Value::Int(4));
        let min = out.value(0, "MIN_SAL").unwrap().as_f64().unwrap();
        let max = out.value(0, "MAX_SAL").unwrap().as_f64().unwrap();
        assert!(min <= max);
    }

    #[test]
    fn group_by_all_missing_column() {
        let mut ds = figure1();
        for i in 0..ds.len() {
            ds.invalidate(i, "AVE_SALARY").unwrap();
        }
        let out = group_aggregate(
            &ds,
            &["SEX"],
            &[Aggregate::new("AVE_SALARY", AggFunc::Mean, "M")],
        )
        .unwrap();
        assert!(out.rows().iter().all(|r| r[1].is_missing()));
    }

    #[test]
    fn predicate_with_arithmetic_in_select() {
        // Salary per capita > some threshold — exercises Expr in Cmp.
        let p = Predicate::cmp(
            Expr::col("AVE_SALARY").binary(BinOp::Div, Expr::lit(1000.0)),
            CmpOp::Gt,
            Expr::lit(30.0),
        );
        let out = select(&figure1(), &p).unwrap();
        assert_eq!(out.len(), 3, "33122, 42919, 31762");
    }
}
