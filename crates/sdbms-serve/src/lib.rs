//! # sdbms-serve — the multi-analyst serving layer
//!
//! The 1982 framework paper's Figure-1 stack ends at a single analyst
//! session; this crate is the front door that lets *many* analysts
//! (and many paying tenants) share one [`sdbms_core::StatDbms`]:
//!
//! - **Request loop** ([`Server`]): a thread-pool event loop over a
//!   bounded queue — no new runtime dependencies. Reads run against
//!   per-session pinned [`sdbms_core::Snapshot`]s; writes take the
//!   engine's write lock and commit transactional batches.
//! - **Front result cache** ([`ResultCache`]): a TTL'd LRU *above*
//!   the per-view Summary DB, keyed by `(view, store version, query)`
//!   so a commit invalidates by construction. Fallback (degraded-view)
//!   results are never admitted; repairs purge their view outright.
//! - **Admission control** ([`AdmissionController`]): per-tenant token
//!   buckets denominated in the storage layer's integer cost
//!   milli-units and debited with each request's *actual* metered
//!   I/O, with typed back-pressure ([`ServeError::Overloaded`],
//!   [`ServeError::QuotaExceeded`]) issued before any work happens.
//! - **Request lifecycle** ([`server::Server`] + [`breaker`] +
//!   [`brownout`]): every request carries a cooperative
//!   deadline/cancellation budget threaded down to the storage layer;
//!   per-view circuit breakers fast-fail compute against failing
//!   views; a tiered brownout controller sheds cold reads, then
//!   non-priority tenants, under sustained pressure. Load rejections
//!   carry computed `retry_after_ms` hints (DESIGN.md §16).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod breaker;
pub mod brownout;
pub mod cache;
pub mod error;
pub mod server;

pub use admission::{default_cost_milli, AdmissionController, QuotaConfig, TenantUsage};
pub use breaker::{BreakerAdmit, BreakerConfig, BreakerState, BreakerStats, CircuitBreaker};
pub use brownout::{should_shed, BrownoutConfig, BrownoutController, BrownoutStats, BrownoutTier};
pub use cache::{FrontCacheStats, QueryKey, ResultCache};
pub use error::{Result, ServeError};
pub use server::{
    CommitRecord, Payload, Query, Response, ServeConfig, Served, Server, ServerMetrics, SessionId,
};
