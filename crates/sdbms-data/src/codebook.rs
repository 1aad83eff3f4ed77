//! Code books: interpreting encoded category values.
//!
//! §2.1: "data values, such as age in Figure 1, are frequently
//! encoded. Thus, a table such as that found in Figure 2 must be used
//! to interpret the values of the AGE_GROUP attribute" — for the 1970
//! census the code book ran over 200 pages. A [`CodeBook`] is that
//! table, and it converts to a [`DataSet`] so decoding can be done with
//! a relational join (experiment F2) instead of a manual look-up.

use std::collections::BTreeMap;

use crate::dataset::DataSet;
use crate::error::{DataError, Result};
use crate::schema::{Attribute, Schema};
use crate::value::{DataType, Value};

/// Mapping from code values of one attribute to their meanings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodeBook {
    attribute: String,
    entries: BTreeMap<u32, String>,
}

impl CodeBook {
    /// An empty code book for `attribute`.
    #[must_use]
    pub fn new(attribute: &str) -> Self {
        CodeBook {
            attribute: attribute.to_string(),
            entries: BTreeMap::new(),
        }
    }

    /// The attribute this book interprets.
    #[must_use]
    pub fn attribute(&self) -> &str {
        &self.attribute
    }

    /// Define (or redefine) a code.
    pub fn define(&mut self, code: u32, meaning: &str) {
        self.entries.insert(code, meaning.to_string());
    }

    /// Builder-style [`CodeBook::define`].
    #[must_use]
    pub fn with(mut self, code: u32, meaning: &str) -> Self {
        self.define(code, meaning);
        self
    }

    /// Meaning of `code`, or an error naming the attribute (the
    /// "inconsistent encodings between 1970 and 1980" problem shows up
    /// as this error).
    pub fn decode(&self, code: u32) -> Result<&str> {
        self.entries
            .get(&code)
            .map(String::as_str)
            .ok_or(DataError::UnknownCode {
                attribute: self.attribute.clone(),
                code,
            })
    }

    /// Number of codes defined.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no codes are defined.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All `(code, meaning)` pairs in code order.
    pub fn entries(&self) -> impl Iterator<Item = (u32, &str)> {
        self.entries.iter().map(|(c, m)| (*c, m.as_str()))
    }

    /// Render as a two-column data set `(CATEGORY, VALUE)` — exactly
    /// paper Figure 2 — so decoding can be done with a relational join.
    #[must_use]
    pub fn to_dataset(&self) -> DataSet {
        let schema = Schema::new(vec![
            Attribute::category("CATEGORY", DataType::Code),
            Attribute::measured("VALUE", DataType::Str),
        ])
        // lint: allow(no-panic): two distinct literal attribute names can never collide
        .expect("static schema is valid");
        let rows = self
            .entries
            .iter()
            .map(|(c, m)| vec![Value::Code(*c), Value::Str(m.clone())])
            .collect();
        DataSet::from_rows(&format!("{}_codebook", self.attribute), schema, rows)
            // lint: allow(no-panic): every row is built as [Code, Str] right above, matching the literal schema
            .expect("codebook rows conform")
    }

    /// The paper's Figure 2: the AGE_GROUP code book.
    #[must_use]
    pub fn figure2_age_group() -> Self {
        CodeBook::new("AGE_GROUP")
            .with(1, "0 to 20")
            .with(2, "21 to 40")
            .with(3, "41 to 60")
            .with(4, "over 60")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn define_and_decode() {
        let cb = CodeBook::new("REGION")
            .with(1, "Northeast")
            .with(2, "South");
        assert_eq!(cb.decode(1).unwrap(), "Northeast");
        assert!(matches!(
            cb.decode(9),
            Err(DataError::UnknownCode { code: 9, .. })
        ));
    }

    #[test]
    fn figure2_contents_match_paper() {
        let cb = CodeBook::figure2_age_group();
        let pairs: Vec<(u32, &str)> = cb.entries().collect();
        assert_eq!(
            pairs,
            vec![
                (1, "0 to 20"),
                (2, "21 to 40"),
                (3, "41 to 60"),
                (4, "over 60"),
            ]
        );
    }

    #[test]
    fn to_dataset_is_joinable_figure2() {
        let ds = CodeBook::figure2_age_group().to_dataset();
        assert_eq!(ds.schema().names(), vec!["CATEGORY", "VALUE"]);
        assert_eq!(ds.len(), 4);
        assert_eq!(ds.value(0, "CATEGORY").unwrap(), &Value::Code(1));
        assert_eq!(ds.value(3, "VALUE").unwrap(), &Value::Str("over 60".into()));
    }

    #[test]
    fn redefine_overwrites() {
        let mut cb = CodeBook::new("X");
        cb.define(1, "old");
        cb.define(1, "new");
        assert_eq!(cb.decode(1).unwrap(), "new");
        assert_eq!(cb.len(), 1);
    }
}
