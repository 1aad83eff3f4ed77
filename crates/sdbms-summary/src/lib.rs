//! # sdbms-summary — the Summary Database
//!
//! The paper's central mechanism (§3.2): each concrete view carries a
//! cache of `(function, attribute) → result` entries so repetitive
//! computations during a months-long analysis "lead to a savings in
//! execution time each time a function whose result is already in the
//! cache is invoked". The cache must survive updates to the view,
//! either by incremental recomputation (finite differencing, §4.2) or
//! by invalidation and lazy regeneration (§4.3).
//!
//! - [`function`] — the function catalogue with per-function
//!   maintenance classes and the one evaluator: column profile →
//!   answer and auxiliary state. A function's maintenance rule is
//!   stated once, as code: [`MaintenanceClass`] picks its
//!   [`AuxState`], and [`maintain`] applies deltas to that state.
//! - [`value`] — the varying-typed result column of paper Figure 4.
//! - [`db`] — the disk-resident store: heap records clustered by
//!   attribute with a B+tree secondary index on
//!   `(attribute, function)`, freshness flags, and hit/miss counters.
//! - [`median_window`] — the §4.2 "histogram with a pointer" for order
//!   statistics.
//! - [`maintain`] — the update engine: incremental maintenance through
//!   auxiliary state, invalidation of entries without it, user accuracy
//!   tolerances, warm-up, and the one compute-on-miss lookup path
//!   (batch scan → profile → answer).
//! - [`inference`] — §5.1's "Database Abstract" rules: derive a missing
//!   function exactly from other cached entries (mean = sum/count) or
//!   as a histogram-based estimate.
//! - [`wal`] — the write-ahead intent log that keeps the cache
//!   crash-consistent: cleanly invalidated, never silently stale.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod db;
pub mod error;
pub mod function;
pub mod inference;
pub mod maintain;
pub mod median_window;
pub mod value;
pub mod wal;

pub use db::{CacheStats, Entry, Freshness, SummaryDb};
pub use error::{Result, SummaryError};
pub use function::{standing_summary_functions, AuxState, MaintenanceClass, StatFunction};
pub use inference::{infer, Inferred};
pub use maintain::{
    apply_updates, get_or_compute_resilient, quarantinable, warm_attribute, AccuracyPolicy,
    ComputeSource, MaintenanceReport, ProfileSource, UpdateDelta,
};
pub use median_window::{MedianWindow, DEFAULT_WINDOW};
/// The histogram a [`SummaryValue::Histogram`] carries.
pub use sdbms_stats::Histogram;
pub use value::SummaryValue;
pub use wal::{Intent, IntentLog};
