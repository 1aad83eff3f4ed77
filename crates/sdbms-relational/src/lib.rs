//! # sdbms-relational — view materialization operators
//!
//! §2.3: "The operations required for materializing views are the
//! traditional relational operations which create and transform
//! tables", plus aggregates. This crate provides:
//!
//! - [`expr`] — scalar expressions and predicates (the §4.1 update
//!   language), with bind-then-evaluate execution and missing-value
//!   semantics suited to statistical data (comparisons with missing are
//!   false; arithmetic propagates missing).
//! - [`ops`] — select, project, extend (computed columns), nested-loop
//!   and hash equi-joins, sort, distinct, and group-by aggregation
//!   including the weighted mean of the paper's §2.2 merge example.
//! - [`viewdef`] — [`viewdef::ViewDefinition`], the re-executable
//!   lineage record the Management Database stores for every concrete
//!   view: source + ordered pipeline, with structural equality for the
//!   §2.3 duplicate-view check.
//! - [`prune`] — predicate pushdown against per-segment zone maps:
//!   a three-valued analysis that lets scans skip whole morsels whose
//!   statistics refute the predicate, bit-identically to an unpruned
//!   scan.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod expr;
pub mod ops;
pub mod prune;
pub mod viewdef;

pub use expr::{BinOp, BoundExpr, BoundPredicate, CmpOp, Expr, Predicate, ScalarFunc};
pub use ops::{AggFunc, Aggregate};
pub use prune::{filter_table_rows, predicate_truth, Truth, ZoneMapPruner};
pub use viewdef::{ViewDefinition, ViewStep};
