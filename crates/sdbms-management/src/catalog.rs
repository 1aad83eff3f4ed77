//! The view catalog.
//!
//! §2.3 requires "a mechanism … to insure that an analyst does not
//! recreate (from the raw database) a view that is either identical to
//! one that has already been created by another analyst", plus "a means
//! by which the results of an analyst's data editing can be made
//! public". The catalog tracks every view's definition (lineage), its
//! owner, its visibility, and its update history.

use std::collections::BTreeMap;

use sdbms_relational::ViewDefinition;

use crate::error::{ManagementError, Result};
use crate::history::UpdateHistory;

/// Visibility of a view to other analysts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Visibility {
    /// Only the owner sees it (the default; §3.2: "each view is
    /// private to a single user (or a group of users)").
    Private,
    /// Published: other analysts may read the view and replay its
    /// cleaning log.
    Published,
}

/// Catalog record of one concrete view.
#[derive(Debug, Clone)]
pub struct ViewRecord {
    /// The materialization lineage.
    pub definition: ViewDefinition,
    /// Analyst who owns the view.
    pub owner: String,
    /// Current visibility.
    pub visibility: Visibility,
    /// Update history (undo log + cleaning log).
    pub history: UpdateHistory,
}

/// The catalog: view name → record.
#[derive(Debug, Clone, Default)]
pub struct ViewCatalog {
    views: BTreeMap<String, ViewRecord>,
}

impl ViewCatalog {
    /// An empty catalog.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a new view. Fails if the name is taken.
    pub fn register(&mut self, definition: ViewDefinition, owner: &str) -> Result<()> {
        let name = definition.name.clone();
        if self.views.contains_key(&name) {
            return Err(ManagementError::ViewExists(name));
        }
        self.views.insert(
            name,
            ViewRecord {
                definition,
                owner: owner.to_string(),
                visibility: Visibility::Private,
                history: UpdateHistory::new(),
            },
        );
        Ok(())
    }

    /// The record for `name`.
    pub fn view(&self, name: &str) -> Result<&ViewRecord> {
        self.views
            .get(name)
            .ok_or_else(|| ManagementError::NoSuchView(name.to_string()))
    }

    /// Mutable record for `name` (to append history).
    pub fn view_mut(&mut self, name: &str) -> Result<&mut ViewRecord> {
        self.views
            .get_mut(name)
            .ok_or_else(|| ManagementError::NoSuchView(name.to_string()))
    }

    /// Remove a view from the catalog.
    pub fn deregister(&mut self, name: &str) -> Result<ViewRecord> {
        self.views
            .remove(name)
            .ok_or_else(|| ManagementError::NoSuchView(name.to_string()))
    }

    /// Number of registered views.
    #[must_use]
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// True if no views are registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }

    /// All view names, sorted.
    #[must_use]
    pub fn names(&self) -> Vec<&str> {
        self.views.keys().map(String::as_str).collect()
    }

    /// Find an existing view that computes the same thing as `def`
    /// (§2.3's duplicate check). Only the owner's private views and all
    /// published views are candidates for `asker`.
    #[must_use]
    pub fn find_equivalent(&self, def: &ViewDefinition, asker: &str) -> Option<&ViewRecord> {
        self.views.values().find(|r| {
            r.definition.computes_same_as(def)
                && (r.owner == asker || r.visibility == Visibility::Published)
        })
    }

    /// Publish a view (owner only).
    pub fn publish(&mut self, name: &str, owner: &str) -> Result<()> {
        let rec = self.view_mut(name)?;
        if rec.owner != owner {
            return Err(ManagementError::NoSuchView(format!(
                "{name} (not owned by {owner})"
            )));
        }
        rec.visibility = Visibility::Published;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::ChangeRecord;
    use sdbms_relational::Predicate;

    fn def(name: &str, sex: &str) -> ViewDefinition {
        ViewDefinition::scan(name, "census").select(Predicate::col_eq("SEX", sex))
    }

    #[test]
    fn register_and_lookup() {
        let mut c = ViewCatalog::new();
        c.register(def("males", "M"), "alice").unwrap();
        assert_eq!(c.len(), 1);
        assert_eq!(c.view("males").unwrap().owner, "alice");
        assert!(matches!(
            c.register(def("males", "M"), "bob"),
            Err(ManagementError::ViewExists(_))
        ));
        assert!(c.view("nope").is_err());
    }

    #[test]
    fn duplicate_detection_respects_visibility() {
        let mut c = ViewCatalog::new();
        c.register(def("males", "M"), "alice").unwrap();
        // Alice asking about her own private view: found.
        assert!(c.find_equivalent(&def("anything", "M"), "alice").is_some());
        // Bob can't see Alice's private view.
        assert!(c.find_equivalent(&def("anything", "M"), "bob").is_none());
        // After publishing, Bob is told about it.
        c.publish("males", "alice").unwrap();
        let found = c.find_equivalent(&def("anything", "M"), "bob").unwrap();
        assert_eq!(found.definition.name, "males");
        // A different computation is never "equivalent".
        assert!(c.find_equivalent(&def("x", "F"), "alice").is_none());
    }

    #[test]
    fn publish_requires_owner() {
        let mut c = ViewCatalog::new();
        c.register(def("males", "M"), "alice").unwrap();
        assert!(c.publish("males", "bob").is_err());
        c.publish("males", "alice").unwrap();
        assert_eq!(c.view("males").unwrap().visibility, Visibility::Published);
    }

    #[test]
    fn history_lives_in_catalog() {
        let mut c = ViewCatalog::new();
        c.register(def("v", "M"), "alice").unwrap();
        c.view_mut("v")
            .unwrap()
            .history
            .record(ChangeRecord::Annotation {
                text: "checked incomes".into(),
            });
        assert_eq!(c.view("v").unwrap().history.version(), 1);
        let rec = c.deregister("v").unwrap();
        assert_eq!(rec.history.version(), 1);
        assert!(c.is_empty());
    }
}
