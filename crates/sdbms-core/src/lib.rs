//! # sdbms-core — the statistical DBMS
//!
//! This crate assembles the architecture of paper Figure 3:
//!
//! ```text
//!      raw database (tape)          Management Database
//!            │                     (catalog · histories · rules)
//!     materialize (relational ops)         │
//!            ▼                             │ drives
//!   concrete views (disk, row or transposed layout)
//!            │                             │
//!            ├── Summary Database per view ┘
//!            ▼
//!   statistical functions (cached, incrementally maintained)
//! ```
//!
//! [`dbms::StatDbms`] is the façade: load raw data sets onto archive
//! storage, materialize per-analyst views (with the §2.3 duplicate
//! check), run statistical functions through each view's Summary
//! Database, update by predicate with automatic cache maintenance and
//! derived-column rules, checkpoint/rollback/publish through the
//! Management Database, and reorganize storage when the observed
//! access pattern favors the other layout.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dbms;
mod edit;
pub mod error;
pub mod repair;
pub mod session;
pub mod view;

pub use dbms::{paper_demo_dbms, DurabilityPolicy, RecoveryReport, StatDbms};
pub use error::{CoreError, Result};
pub use repair::RepairReport;
pub use session::{BatchId, BatchOp, Snapshot};
pub use view::{AccessTracker, ConcreteView, UpdateReport};

// Re-export the vocabulary types callers need, so examples and tests
// can depend on `sdbms-core` alone.
pub use sdbms_columnar::Layout;
pub use sdbms_relational::{
    AggFunc, Aggregate, BinOp, CmpOp, Expr, Predicate, ScalarFunc, ViewDefinition, ViewStep,
};
pub use sdbms_repair::{Component, CorruptionFinding, RepairGate, ScrubReport, ViewHealth};
pub use sdbms_summary::{AccuracyPolicy, ComputeSource, StatFunction, SummaryValue};
pub use sdbms_txn::{LockError, SessionId};
