//! Derived-attribute maintenance rules.
//!
//! §3.2 gives the two poles: regression residuals, where "updating even
//! a single value in the attribute upon which the residuals depend
//! requires regeneration of the entire vector (since the model may
//! change)", versus "the sum of three attributes, or the logarithm of
//! some attribute", where "the effect of the update to the input
//! attribute is 'local', i.e., it will require the computation of only
//! one value." The rule for each derived attribute lives in the
//! Management Database; the view layer consults it on every update.

use std::collections::HashMap;
use std::fmt;

use sdbms_relational::Expr;

use crate::error::{ManagementError, Result};

/// How a derived attribute reacts when one of its inputs changes.
#[derive(Debug, Clone, PartialEq)]
pub enum DerivedRule {
    /// Row-local: recompute only the affected row from `expr`
    /// (log / row-sum style columns).
    Local {
        /// Defining expression over the same row.
        expr: Expr,
    },
    /// Whole-vector: regenerate the entire column (residual-style
    /// columns where the model itself changes).
    Regenerate {
        /// How the vector is produced.
        generator: VectorGenerator,
    },
    /// Neither: just mark the column out of date and let the analyst
    /// regenerate on demand ("or simply marking it as out of date").
    MarkStale {
        /// Input attributes whose updates stale this column.
        inputs: Vec<String>,
    },
}

/// A whole-column generator for [`DerivedRule::Regenerate`].
#[derive(Debug, Clone, PartialEq)]
pub enum VectorGenerator {
    /// Residuals of a simple linear regression `y ~ x`.
    Residuals {
        /// Predictor attribute.
        x: String,
        /// Response attribute.
        y: String,
    },
    /// Re-evaluate a row expression over every row (for expressions
    /// whose *definition* depends on global state, rerun wholesale).
    Expression(Expr),
}

impl fmt::Display for DerivedRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DerivedRule::Local { expr } => write!(f, "LOCAL {expr}"),
            DerivedRule::Regenerate { generator } => match generator {
                VectorGenerator::Residuals { x, y } => {
                    write!(f, "REGENERATE residuals({y} ~ {x})")
                }
                VectorGenerator::Expression(e) => write!(f, "REGENERATE {e}"),
            },
            DerivedRule::MarkStale { inputs } => write!(f, "MARK-STALE on {inputs:?}"),
        }
    }
}

impl DerivedRule {
    /// The input attributes whose updates trigger this rule.
    #[must_use]
    pub fn input_attributes(&self) -> Vec<String> {
        match self {
            DerivedRule::Local { expr } => expr.referenced_columns(),
            DerivedRule::Regenerate { generator } => match generator {
                VectorGenerator::Residuals { x, y } => vec![x.clone(), y.clone()],
                VectorGenerator::Expression(e) => e.referenced_columns(),
            },
            DerivedRule::MarkStale { inputs } => inputs.clone(),
        }
    }

    /// Cost class of a column that was only marked out of date —
    /// what [`DerivedRule::MarkStale`] reports, and what a batch commit
    /// reports for every column it triggers whatever the rule.
    pub const DEFERRED: &'static str = "deferred";

    /// Cost class, for reporting: 1 = one row, n = whole column,
    /// 0 = nothing now.
    #[must_use]
    pub fn cost_class(&self) -> &'static str {
        match self {
            DerivedRule::Local { .. } => "local(1 row)",
            DerivedRule::Regenerate { .. } => "regenerate(n rows)",
            DerivedRule::MarkStale { .. } => Self::DEFERRED,
        }
    }

    /// How the whole column is produced from scratch: a row-local
    /// expression re-evaluated on every row, or the rule's own
    /// generator. A mark-stale rule carries no definition.
    #[must_use]
    pub fn generator(&self) -> Option<VectorGenerator> {
        match self {
            DerivedRule::Local { expr } => Some(VectorGenerator::Expression(expr.clone())),
            DerivedRule::Regenerate { generator } => Some(generator.clone()),
            DerivedRule::MarkStale { .. } => None,
        }
    }
}

/// The rule store: `(view, derived attribute) → rule`.
#[derive(Debug, Clone, Default)]
pub struct RuleStore {
    rules: HashMap<(String, String), DerivedRule>,
}

impl RuleStore {
    /// An empty store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or replace) the rule for a derived attribute.
    pub fn register(&mut self, view: &str, attribute: &str, rule: DerivedRule) {
        self.rules
            .insert((view.to_string(), attribute.to_string()), rule);
    }

    /// The rule for one derived attribute.
    pub fn rule(&self, view: &str, attribute: &str) -> Result<&DerivedRule> {
        self.rules
            .get(&(view.to_string(), attribute.to_string()))
            .ok_or_else(|| ManagementError::NoSuchRule {
                view: view.to_string(),
                attribute: attribute.to_string(),
            })
    }

    /// Every derived attribute of `view` whose rule is triggered by an
    /// update to `updated_attribute`, with its rule.
    #[must_use]
    pub fn triggered_by(&self, view: &str, updated_attribute: &str) -> Vec<(&str, &DerivedRule)> {
        let mut out: Vec<(&str, &DerivedRule)> = self
            .rules
            .iter()
            .filter(|((v, _), rule)| {
                v == view
                    && rule
                        .input_attributes()
                        .iter()
                        .any(|a| a == updated_attribute)
            })
            .map(|((_, attr), rule)| (attr.as_str(), rule))
            .collect();
        out.sort_by_key(|(attr, _)| attr.to_string());
        out
    }

    /// Drop every rule of a view (when the view is destroyed).
    pub fn drop_view(&mut self, view: &str) {
        self.rules.retain(|(v, _), _| v != view);
    }

    /// Every view that has at least one rule, sorted and deduplicated.
    #[must_use]
    pub fn views(&self) -> Vec<&str> {
        let mut out: Vec<&str> = self.rules.keys().map(|(v, _)| v.as_str()).collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdbms_relational::{BinOp, ScalarFunc};

    fn store() -> RuleStore {
        let mut s = RuleStore::new();
        s.register(
            "v1",
            "LOG_INCOME",
            DerivedRule::Local {
                expr: Expr::col("INCOME").apply(ScalarFunc::Ln),
            },
        );
        s.register(
            "v1",
            "TOTAL",
            DerivedRule::Local {
                expr: Expr::col("A").binary(BinOp::Add, Expr::col("B")),
            },
        );
        s.register(
            "v1",
            "RESID",
            DerivedRule::Regenerate {
                generator: VectorGenerator::Residuals {
                    x: "AGE".into(),
                    y: "INCOME".into(),
                },
            },
        );
        s.register(
            "v2",
            "NOTES_COL",
            DerivedRule::MarkStale {
                inputs: vec!["NOTES".into()],
            },
        );
        s
    }

    #[test]
    fn lookup_and_missing() {
        let s = store();
        assert!(matches!(
            s.rule("v1", "LOG_INCOME").unwrap(),
            DerivedRule::Local { .. }
        ));
        assert!(matches!(
            s.rule("v1", "NOPE"),
            Err(ManagementError::NoSuchRule { .. })
        ));
    }

    #[test]
    fn triggering_follows_inputs() {
        let s = store();
        let hit = s.triggered_by("v1", "INCOME");
        let names: Vec<&str> = hit.iter().map(|(a, _)| *a).collect();
        assert_eq!(names, vec!["LOG_INCOME", "RESID"]);
        let age_hit = s.triggered_by("v1", "AGE");
        assert_eq!(age_hit.len(), 1);
        assert_eq!(age_hit[0].0, "RESID");
        assert!(s.triggered_by("v1", "UNRELATED").is_empty());
        assert!(s.triggered_by("v2", "INCOME").is_empty(), "view-scoped");
        assert_eq!(s.triggered_by("v2", "NOTES").len(), 1);
    }

    #[test]
    fn cost_classes() {
        let s = store();
        assert_eq!(
            s.rule("v1", "LOG_INCOME").unwrap().cost_class(),
            "local(1 row)"
        );
        assert_eq!(
            s.rule("v1", "RESID").unwrap().cost_class(),
            "regenerate(n rows)"
        );
        assert_eq!(s.rule("v2", "NOTES_COL").unwrap().cost_class(), "deferred");
    }

    #[test]
    fn drop_view_removes_all() {
        let mut s = store();
        s.drop_view("v1");
        assert!(s.rule("v1", "LOG_INCOME").is_err() && s.rule("v1", "RESID").is_err());
        assert!(s.rule("v2", "NOTES_COL").is_ok());
    }

    #[test]
    fn display_readable() {
        let s = store();
        let txt = s.rule("v1", "RESID").unwrap().to_string();
        assert_eq!(txt, "REGENERATE residuals(INCOME ~ AGE)");
        assert!(s
            .rule("v1", "LOG_INCOME")
            .unwrap()
            .to_string()
            .starts_with("LOCAL"));
    }
}
