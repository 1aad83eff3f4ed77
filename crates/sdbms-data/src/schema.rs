//! Schemas: attribute names, types, and statistical roles.
//!
//! §2.1: a statistical data set is a flat file whose attributes divide
//! into *category* attributes (together a composite key, identifying
//! each observation) and *measured* attributes (quantifying them). The
//! paper also notes values derived "by aggregating over other data
//! values" — those carry the [`AttributeRole::Derived`] role and a
//! maintenance rule in the Management Database.

use std::collections::HashMap;
use std::fmt;

use crate::error::{DataError, Result};
use crate::value::{DataType, Value};

/// How an attribute participates in the data set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttributeRole {
    /// Part of the composite key identifying each observation
    /// (e.g. SEX, RACE, AGE_GROUP in paper Figure 1).
    Category,
    /// A measured quantity (e.g. POPULATION).
    Measured,
    /// Derived from other values; the Management Database holds the
    /// rule that maintains it (e.g. AVE_SALARY, regression residuals).
    Derived,
}

impl fmt::Display for AttributeRole {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AttributeRole::Category => "category",
            AttributeRole::Measured => "measured",
            AttributeRole::Derived => "derived",
        })
    }
}

/// One attribute (column) of a data set.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribute {
    /// Column name, unique within the schema.
    pub name: String,
    /// Declared type of the column's values.
    pub dtype: DataType,
    /// Statistical role.
    pub role: AttributeRole,
    /// Name of the code book interpreting [`DataType::Code`] values.
    pub codebook: Option<String>,
    /// Validation range for numeric values, used by data checking
    /// (§2.2): values outside are *suspicious*.
    pub valid_range: Option<(f64, f64)>,
}

impl Attribute {
    /// A category attribute.
    #[must_use]
    pub fn category(name: &str, dtype: DataType) -> Self {
        Attribute {
            name: name.to_string(),
            dtype,
            role: AttributeRole::Category,
            codebook: None,
            valid_range: None,
        }
    }

    /// A measured attribute.
    #[must_use]
    pub fn measured(name: &str, dtype: DataType) -> Self {
        Attribute {
            name: name.to_string(),
            dtype,
            role: AttributeRole::Measured,
            codebook: None,
            valid_range: None,
        }
    }

    /// A derived attribute.
    #[must_use]
    pub fn derived(name: &str, dtype: DataType) -> Self {
        Attribute {
            name: name.to_string(),
            dtype,
            role: AttributeRole::Derived,
            codebook: None,
            valid_range: None,
        }
    }

    /// Attach a code book name (for [`DataType::Code`] attributes).
    #[must_use]
    pub fn with_codebook(mut self, codebook: &str) -> Self {
        self.codebook = Some(codebook.to_string());
        self
    }

    /// Attach a plausibility range for data checking.
    #[must_use]
    pub fn with_valid_range(mut self, lo: f64, hi: f64) -> Self {
        self.valid_range = Some((lo, hi));
        self
    }

    /// Whether summary statistics (mean, median, …) make sense for
    /// this attribute. §3.2: "computing the median … of the AGE_GROUP
    /// attribute … does not make sense", so the system consults this
    /// meta-data before computing or caching summaries.
    #[must_use]
    pub fn is_summarizable(&self) -> bool {
        matches!(self.dtype, DataType::Int | DataType::Float)
    }
}

/// An ordered set of attributes with unique names.
#[derive(Debug, Clone, PartialEq)]
pub struct Schema {
    attributes: Vec<Attribute>,
    by_name: HashMap<String, usize>,
}

impl Schema {
    /// Build a schema; fails on duplicate attribute names.
    pub fn new(attributes: Vec<Attribute>) -> Result<Self> {
        let mut by_name = HashMap::with_capacity(attributes.len());
        for (i, a) in attributes.iter().enumerate() {
            if by_name.insert(a.name.clone(), i).is_some() {
                return Err(DataError::DuplicateAttribute(a.name.clone()));
            }
        }
        Ok(Schema {
            attributes,
            by_name,
        })
    }

    /// Number of attributes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.attributes.len()
    }

    /// True if the schema has no attributes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.attributes.is_empty()
    }

    /// All attributes in declaration order.
    #[must_use]
    pub fn attributes(&self) -> &[Attribute] {
        &self.attributes
    }

    /// Position of `name`, if present.
    #[must_use]
    pub fn position(&self, name: &str) -> Option<usize> {
        self.by_name.get(name).copied()
    }

    /// Position of `name`, or an error naming the attribute.
    pub fn require(&self, name: &str) -> Result<usize> {
        self.position(name)
            .ok_or_else(|| DataError::NoSuchAttribute(name.to_string()))
    }

    /// The attribute named `name`.
    pub fn attribute(&self, name: &str) -> Result<&Attribute> {
        Ok(&self.attributes[self.require(name)?])
    }

    /// Attribute at position `i`.
    #[must_use]
    pub fn attribute_at(&self, i: usize) -> &Attribute {
        &self.attributes[i]
    }

    /// Names of all attributes, in order.
    #[must_use]
    pub fn names(&self) -> Vec<&str> {
        self.attributes.iter().map(|a| a.name.as_str()).collect()
    }

    /// Check one cell value against this schema: the attribute must
    /// exist and the value conform to its declared type (missing
    /// conforms to anything). Returns the attribute's position.
    pub fn check_cell(&self, name: &str, value: &Value) -> Result<usize> {
        let position = self.require(name)?;
        let attr = &self.attributes[position];
        if !value.conforms_to(attr.dtype) {
            return Err(DataError::TypeMismatch {
                attribute: attr.name.clone(),
                expected: "declared attribute type",
                got: value.type_name(),
            });
        }
        Ok(position)
    }

    /// Check a row against this schema: arity and per-value type
    /// conformance (missing conforms to anything).
    pub fn check_row(&self, row: &[Value]) -> Result<()> {
        if row.len() != self.attributes.len() {
            return Err(DataError::ArityMismatch {
                expected: self.attributes.len(),
                got: row.len(),
            });
        }
        for (v, a) in row.iter().zip(&self.attributes) {
            if !v.conforms_to(a.dtype) {
                return Err(DataError::TypeMismatch {
                    attribute: a.name.clone(),
                    expected: match a.dtype {
                        DataType::Int => "int",
                        DataType::Float => "float",
                        DataType::Str => "str",
                        DataType::Code => "code",
                    },
                    got: v.type_name(),
                });
            }
        }
        Ok(())
    }

    /// A new schema with `attr` appended (for derived columns).
    pub fn with_appended(&self, attr: Attribute) -> Result<Schema> {
        let mut attrs = self.attributes.clone();
        attrs.push(attr);
        Schema::new(attrs)
    }

    /// A new schema containing only `names`, in the given order.
    pub fn project(&self, names: &[&str]) -> Result<Schema> {
        let mut attrs = Vec::with_capacity(names.len());
        for n in names {
            attrs.push(self.attribute(n)?.clone());
        }
        Schema::new(attrs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::category("SEX", DataType::Str),
            Attribute::category("AGE_GROUP", DataType::Code).with_codebook("AGE_GROUP"),
            Attribute::measured("POPULATION", DataType::Int),
            Attribute::derived("AVE_SALARY", DataType::Float).with_valid_range(0.0, 1e6),
        ])
        .unwrap()
    }

    #[test]
    fn positions_and_lookup() {
        let s = schema();
        assert_eq!(s.len(), 4);
        assert_eq!(s.position("POPULATION"), Some(2));
        assert_eq!(s.position("NOPE"), None);
        assert!(s.require("NOPE").is_err());
        assert_eq!(
            s.attribute("AGE_GROUP").unwrap().codebook.as_deref(),
            Some("AGE_GROUP")
        );
    }

    #[test]
    fn duplicate_names_rejected() {
        let r = Schema::new(vec![
            Attribute::measured("X", DataType::Int),
            Attribute::measured("X", DataType::Float),
        ]);
        assert!(matches!(r, Err(DataError::DuplicateAttribute(_))));
    }

    #[test]
    fn check_row_validates_types_and_arity() {
        let s = schema();
        let good = vec![
            Value::Str("M".into()),
            Value::Code(1),
            Value::Int(100),
            Value::Float(30000.0),
        ];
        s.check_row(&good).unwrap();
        let missing_ok = vec![
            Value::Str("M".into()),
            Value::Missing,
            Value::Int(100),
            Value::Missing,
        ];
        s.check_row(&missing_ok).unwrap();
        let wrong_type = vec![
            Value::Int(0),
            Value::Code(1),
            Value::Int(100),
            Value::Float(1.0),
        ];
        assert!(matches!(
            s.check_row(&wrong_type),
            Err(DataError::TypeMismatch { .. })
        ));
        assert!(matches!(
            s.check_row(&good[..3]),
            Err(DataError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn summarizable_respects_metadata() {
        let s = schema();
        assert!(!s.attribute("AGE_GROUP").unwrap().is_summarizable());
        assert!(!s.attribute("SEX").unwrap().is_summarizable());
        assert!(s.attribute("POPULATION").unwrap().is_summarizable());
        assert!(s.attribute("AVE_SALARY").unwrap().is_summarizable());
    }

    #[test]
    fn project_and_append() {
        let s = schema();
        let p = s.project(&["POPULATION", "SEX"]).unwrap();
        assert_eq!(p.names(), vec!["POPULATION", "SEX"]);
        assert!(s.project(&["NOPE"]).is_err());
        let a = s
            .with_appended(Attribute::derived("LOG_POP", DataType::Float))
            .unwrap();
        assert_eq!(a.len(), 5);
        assert!(s
            .with_appended(Attribute::derived("SEX", DataType::Float))
            .is_err());
    }
}
