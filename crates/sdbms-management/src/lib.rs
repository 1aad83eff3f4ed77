//! # sdbms-management — the Management Database
//!
//! §3.2: "One Management Database is associated with the DBMS. [Its]
//! purpose … is to serve as a repository for information that describes
//! the organization of the data, the functions that are applied to it,
//! rules for manipulating information in the Summary Databases, view
//! definitions, update histories of the views, and other control
//! information."
//!
//! - [`catalog`] — view definitions/lineage, ownership, publishing, and
//!   the §2.3 duplicate-view check.
//! - [`history`] — append-only per-view update histories with undo /
//!   rollback-to-checkpoint and the shareable cleaning log.
//! - [`rules`] — derived-attribute maintenance rules: row-local,
//!   regenerate-whole-vector (residuals), or mark-stale.
//!
//! The rules that keep cached summaries current under updates (§4.2's
//! finite differencing) live in `sdbms-summary`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod catalog;
pub mod error;
pub mod history;
pub mod rules;

pub use catalog::{ViewCatalog, ViewRecord, Visibility};
pub use error::{ManagementError, Result};
pub use history::{ChangeRecord, UpdateHistory, Version};
pub use rules::{DerivedRule, RuleStore, VectorGenerator};
