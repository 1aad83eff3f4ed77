//! In-memory flat-file data sets.
//!
//! §2.1: "almost all packages provide the user with a 'flat-file' view
//! of each data set that, much like a relation, consists of attributes
//! (columns) and records (rows)". [`DataSet`] is that exchange format:
//! the statistical functions consume it, relational operators produce
//! it, and the storage layers (`sdbms-columnar`, heap files) persist
//! it.

use std::fmt;

use crate::error::{DataError, Result};
use crate::schema::Schema;
use crate::value::Value;

/// A named flat file: a schema plus rows of values.
#[derive(Debug, Clone, PartialEq)]
pub struct DataSet {
    name: String,
    schema: Schema,
    rows: Vec<Vec<Value>>,
}

impl DataSet {
    /// An empty data set over `schema`.
    #[must_use]
    pub fn new(name: &str, schema: Schema) -> Self {
        DataSet {
            name: name.to_string(),
            schema,
            rows: Vec::new(),
        }
    }

    /// Build from rows, validating each against the schema.
    pub fn from_rows(name: &str, schema: Schema, rows: Vec<Vec<Value>>) -> Result<Self> {
        for row in &rows {
            schema.check_row(row)?;
        }
        Ok(DataSet {
            name: name.to_string(),
            schema,
            rows,
        })
    }

    /// Data set name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rename (e.g. when a view derives a new data set).
    pub fn set_name(&mut self, name: &str) {
        self.name = name.to_string();
    }

    /// The schema.
    #[must_use]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows (observations).
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if there are no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// All rows.
    #[must_use]
    pub fn rows(&self) -> &[Vec<Value>] {
        &self.rows
    }

    /// Row `i`.
    pub fn row(&self, i: usize) -> Result<&[Value]> {
        self.rows
            .get(i)
            .map(Vec::as_slice)
            .ok_or(DataError::NoSuchRow(i))
    }

    /// Append a row after validating it.
    pub fn push_row(&mut self, row: Vec<Value>) -> Result<()> {
        self.schema.check_row(&row)?;
        self.rows.push(row);
        Ok(())
    }

    /// Cell at `(row, attribute)`.
    pub fn value(&self, row: usize, attribute: &str) -> Result<&Value> {
        let col = self.schema.require(attribute)?;
        Ok(&self.rows.get(row).ok_or(DataError::NoSuchRow(row))?[col])
    }

    /// Overwrite cell `(row, attribute)` after type-checking.
    pub fn set_value(&mut self, row: usize, attribute: &str, v: Value) -> Result<()> {
        let col = self.schema.require(attribute)?;
        let attr = self.schema.attribute_at(col);
        if !v.conforms_to(attr.dtype) {
            return Err(DataError::TypeMismatch {
                attribute: attr.name.clone(),
                expected: match attr.dtype {
                    crate::value::DataType::Int => "int",
                    crate::value::DataType::Float => "float",
                    crate::value::DataType::Str => "str",
                    crate::value::DataType::Code => "code",
                },
                got: v.type_name(),
            });
        }
        let r = self.rows.get_mut(row).ok_or(DataError::NoSuchRow(row))?;
        r[col] = v;
        Ok(())
    }

    /// Iterator over one column's values.
    pub fn column<'a>(&'a self, attribute: &str) -> Result<impl Iterator<Item = &'a Value> + 'a> {
        let col = self.schema.require(attribute)?;
        Ok(self.rows.iter().map(move |r| &r[col]))
    }

    /// One column's numeric values, skipping missing (and non-numeric)
    /// cells. Returns `(values, skipped_count)` — statistical functions
    /// report how many observations were unusable.
    pub fn column_f64(&self, attribute: &str) -> Result<(Vec<f64>, usize)> {
        let col = self.schema.require(attribute)?;
        let mut vals = Vec::with_capacity(self.rows.len());
        let mut skipped = 0usize;
        for r in &self.rows {
            match r[col].as_f64() {
                Some(x) => vals.push(x),
                None => skipped += 1,
            }
        }
        Ok((vals, skipped))
    }

    /// Rows where `pred` holds (used by data-checking passes).
    pub fn filter_rows(&self, mut pred: impl FnMut(&[Value]) -> bool) -> Vec<usize> {
        self.rows
            .iter()
            .enumerate()
            .filter(|(_, r)| pred(r))
            .map(|(i, _)| i)
            .collect()
    }

    /// Suspicious rows for `attribute`: numeric values outside the
    /// attribute's declared `valid_range` (§2.2 data checking). Missing
    /// values are not suspicious (already marked).
    pub fn suspicious_rows(&self, attribute: &str) -> Result<Vec<usize>> {
        let col = self.schema.require(attribute)?;
        let attr = self.schema.attribute_at(col);
        let Some((lo, hi)) = attr.valid_range else {
            return Ok(Vec::new());
        };
        Ok(self
            .rows
            .iter()
            .enumerate()
            .filter(|(_, r)| match r[col].as_f64() {
                Some(x) => !(lo..=hi).contains(&x),
                None => false,
            })
            .map(|(i, _)| i)
            .collect())
    }

    /// Mark a cell missing ("invalidate" a suspicious measurement,
    /// §3.1). Returns the previous value.
    pub fn invalidate(&mut self, row: usize, attribute: &str) -> Result<Value> {
        let col = self.schema.require(attribute)?;
        let r = self.rows.get_mut(row).ok_or(DataError::NoSuchRow(row))?;
        Ok(std::mem::replace(&mut r[col], Value::Missing))
    }

    /// Count of missing cells in one column.
    pub fn missing_count(&self, attribute: &str) -> Result<usize> {
        let col = self.schema.require(attribute)?;
        Ok(self.rows.iter().filter(|r| r[col].is_missing()).count())
    }
}

impl fmt::Display for DataSet {
    /// Render as an aligned text table (first 20 rows).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names = self.schema.names();
        let mut widths: Vec<usize> = names.iter().map(|n| n.len()).collect();
        let shown = self.rows.iter().take(20).collect::<Vec<_>>();
        let rendered: Vec<Vec<String>> = shown
            .iter()
            .map(|r| r.iter().map(ToString::to_string).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        for (i, n) in names.iter().enumerate() {
            write!(f, "{:>w$}  ", n, w = widths[i])?;
        }
        writeln!(f)?;
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                write!(f, "{:>w$}  ", cell, w = widths[i])?;
            }
            writeln!(f)?;
        }
        if self.rows.len() > 20 {
            writeln!(f, "… {} more rows", self.rows.len() - 20)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Attribute;
    use crate::value::DataType;

    fn ds() -> DataSet {
        let schema = Schema::new(vec![
            Attribute::category("SEX", DataType::Str),
            Attribute::measured("SALARY", DataType::Float).with_valid_range(1_000.0, 200_000.0),
            Attribute::measured("N", DataType::Int),
        ])
        .unwrap();
        DataSet::from_rows(
            "people",
            schema,
            vec![
                vec!["M".into(), Value::Float(30_000.0), Value::Int(10)],
                vec!["F".into(), Value::Float(45_000.0), Value::Int(12)],
                vec!["M".into(), Value::Float(999_999.0), Value::Int(7)],
                vec!["F".into(), Value::Missing, Value::Int(3)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_validates() {
        let schema = Schema::new(vec![Attribute::measured("X", DataType::Int)]).unwrap();
        assert!(DataSet::from_rows("bad", schema, vec![vec![Value::Float(1.0)]]).is_err());
    }

    #[test]
    fn column_access() {
        let d = ds();
        let sexes: Vec<String> = d.column("SEX").unwrap().map(|v| v.to_string()).collect();
        assert_eq!(sexes, vec!["M", "F", "M", "F"]);
        assert!(d.column("NOPE").is_err());
    }

    #[test]
    fn column_f64_skips_missing() {
        let d = ds();
        let (vals, skipped) = d.column_f64("SALARY").unwrap();
        assert_eq!(vals, vec![30_000.0, 45_000.0, 999_999.0]);
        assert_eq!(skipped, 1);
    }

    #[test]
    fn suspicious_rows_use_valid_range() {
        let d = ds();
        assert_eq!(d.suspicious_rows("SALARY").unwrap(), vec![2]);
        assert_eq!(d.suspicious_rows("SEX").unwrap(), Vec::<usize>::new());
    }

    #[test]
    fn invalidate_marks_missing() {
        let mut d = ds();
        let old = d.invalidate(2, "SALARY").unwrap();
        assert_eq!(old, Value::Float(999_999.0));
        assert_eq!(d.missing_count("SALARY").unwrap(), 2);
        let (vals, _) = d.column_f64("SALARY").unwrap();
        assert_eq!(vals.len(), 2);
    }

    #[test]
    fn set_value_type_checked() {
        let mut d = ds();
        d.set_value(0, "N", Value::Int(99)).unwrap();
        assert_eq!(d.value(0, "N").unwrap(), &Value::Int(99));
        assert!(d.set_value(0, "N", Value::Float(1.0)).is_err());
        assert!(d.set_value(99, "N", Value::Int(1)).is_err());
    }

    #[test]
    fn filter_rows_predicate() {
        let d = ds();
        let males = d.filter_rows(|r| r[0].as_str() == Some("M"));
        assert_eq!(males, vec![0, 2]);
    }

    #[test]
    fn display_renders_table() {
        let d = ds();
        let s = d.to_string();
        assert!(s.contains("SEX"));
        assert!(s.contains("SALARY"));
        assert!(s.contains('·'), "missing value marker shown");
    }
}
