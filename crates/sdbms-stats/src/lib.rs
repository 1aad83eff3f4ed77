//! # sdbms-stats — the statistical operations the DBMS serves
//!
//! The paper's Summary Database caches "results of query (or function)
//! executions" (§3.2); this crate provides those functions — the S/SAS
//! substitute of DESIGN.md's substitution table:
//!
//! - [`descriptive`] — min, max, mean, variance, sd, the `describe`
//!   one-pass summary, and the M ± k·SD band count of §3.1.
//! - [`quantile`] — type-7 quantiles, median, quartiles, trimmed means.
//! - [`accumulator`] — Welford/Chan incremental moments (add / remove /
//!   merge) and incremental min/max with rescan signaling: the algebra
//!   behind finite differencing (§4.2).
//! - [`histogram`] — the two-vector histograms the Summary Database
//!   stores, with O(1) add/remove.
//! - [`frequency`] — unique counts, modes, frequency measures.
//! - [`regression`] — simple OLS with the residual vector that
//!   motivates the Management Database's *regenerate* rule.
//! - [`crosstab`] — contingency tables.
//! - [`hypothesis`] — chi-squared independence / goodness-of-fit and
//!   one-sample Kolmogorov–Smirnov tests with real p-values (via
//!   [`special`]).
//! - [`sample`] — simple random sampling for exploratory
//!   responsiveness (§2.2).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod accumulator;
pub mod crosstab;
pub mod descriptive;
pub mod error;
pub mod frequency;
pub mod histogram;
pub mod hypothesis;
pub mod quantile;
pub mod regression;
pub mod sample;
pub mod special;

pub use accumulator::{ExtremeAfterRemove, MinMaxAcc, Moments};
pub use crosstab::CrossTab;
pub use descriptive::{describe, Describe};
pub use error::{Result, StatsError};
pub use frequency::FrequencyTable;
pub use histogram::Histogram;
pub use hypothesis::TestResult;
pub use regression::LinearFit;
