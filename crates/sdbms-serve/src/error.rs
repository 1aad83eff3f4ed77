//! The serving layer's typed back-pressure contract.
//!
//! A request is refused *before* any work happens, with an error that
//! tells the client exactly what to do next:
//!
//! - [`ServeError::Overloaded`] — the bounded request queue is full.
//!   The server never queues without bound; retry after the carried
//!   `retry_after_ms` hint.
//! - [`ServeError::QuotaExceeded`] — this tenant's token bucket is
//!   empty. Other tenants are unaffected; retry after the hint, which
//!   is computed from the bucket's refill rate.
//! - [`ServeError::Brownout`] — the server is shedding load in tiers;
//!   this request fell in the current tier's shed class.
//! - [`ServeError::BreakerOpen`] — the view's circuit breaker is
//!   fast-failing compute requests after consecutive failures.
//! - [`ServeError::DeadlineExceeded`] / [`ServeError::Cancelled`] —
//!   the request's own budget ran out (or its caller cancelled it)
//!   mid-execution. A cooperative stop: no partial result was
//!   produced, nothing was cached, storage state is intact.
//! - [`ServeError::NoSuchSession`] / [`ServeError::ShuttingDown`] —
//!   client-side lifecycle mistakes; do not retry.
//!
//! Everything that goes wrong *inside* the engine surfaces unchanged
//! as [`ServeError::Core`] — except the engine's own
//! `Cancelled`/`DeadlineExceeded`, which are lifted to the serving
//! variants so a client sees one shape however deep the trip happened.
//!
//! Every *load*-shaped rejection carries a **`retry_after_ms` hint**
//! ([`ServeError::retry_after_ms`]): an advisory backoff derived from
//! observed service times and queue/bucket state. Honoring it is
//! optional but converts tight client retry loops into paced ones.

use sdbms_core::CoreError;
use sdbms_data::DataError;
use sdbms_summary::SummaryError;

use crate::server::SessionId;

/// Errors returned by [`crate::Server`] request methods.
#[derive(Debug)]
pub enum ServeError {
    /// The bounded request queue is full; the request was rejected at
    /// the door rather than queued without bound. Retry later.
    Overloaded {
        /// The queue's capacity (requests in flight + waiting).
        capacity: usize,
        /// Advisory backoff before retrying, in milliseconds.
        retry_after_ms: u64,
    },
    /// The tenant's token bucket is exhausted. The balance can be
    /// negative: a request is admitted on a positive balance and then
    /// charged its *actual* cost, which may overdraw the bucket.
    QuotaExceeded {
        /// The tenant whose bucket is empty.
        tenant: String,
        /// The bucket balance at rejection time, in cost milli-units.
        balance_milli: i64,
        /// Advisory backoff until the refill goes positive, in
        /// milliseconds.
        retry_after_ms: u64,
    },
    /// The server is browning out: sustained queue pressure put it in
    /// a shedding tier and this request fell in the shed class (cold
    /// uncached read, or non-priority tenant at the higher tier).
    Brownout {
        /// The shedding tier (1 = cold reads, 2 = non-priority
        /// tenants).
        tier: u8,
        /// Advisory backoff before retrying, in milliseconds.
        retry_after_ms: u64,
    },
    /// The view's circuit breaker is open after consecutive failures:
    /// the request fast-failed without touching the engine.
    BreakerOpen {
        /// The view whose breaker is open.
        view: String,
        /// Advisory backoff until the breaker half-opens, in
        /// milliseconds.
        retry_after_ms: u64,
    },
    /// The request ran out of its deadline budget mid-execution. No
    /// partial result was produced and nothing was cached; an
    /// in-flight commit aborted cleanly.
    DeadlineExceeded,
    /// The request's caller cancelled it mid-execution. Same
    /// guarantees as [`ServeError::DeadlineExceeded`].
    Cancelled,
    /// No open session with this id (never opened, or already closed).
    NoSuchSession(SessionId),
    /// The server is shutting down; no further requests are accepted.
    ShuttingDown,
    /// The engine itself failed; the inner error is unchanged.
    Core(CoreError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded {
                capacity,
                retry_after_ms,
            } => {
                write!(
                    f,
                    "request queue full ({capacity} slots); retry in ~{retry_after_ms}ms"
                )
            }
            ServeError::QuotaExceeded {
                tenant,
                balance_milli,
                retry_after_ms,
            } => write!(
                f,
                "tenant {tenant:?} is out of quota (balance {balance_milli} milli-units); \
                 retry in ~{retry_after_ms}ms"
            ),
            ServeError::Brownout {
                tier,
                retry_after_ms,
            } => write!(
                f,
                "shedding load (brownout tier {tier}); retry in ~{retry_after_ms}ms"
            ),
            ServeError::BreakerOpen {
                view,
                retry_after_ms,
            } => write!(
                f,
                "circuit breaker open for view {view:?}; retry in ~{retry_after_ms}ms"
            ),
            ServeError::DeadlineExceeded => write!(f, "request deadline exceeded"),
            ServeError::Cancelled => write!(f, "request cancelled"),
            ServeError::NoSuchSession(id) => write!(f, "no open session {id}"),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::Core(e) => write!(f, "engine error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl ServeError {
    /// The advisory backoff hint, for the load-shaped rejections
    /// (`Overloaded`, `QuotaExceeded`, `Brownout`, `BreakerOpen`);
    /// `None` for everything else — lifecycle mistakes and engine
    /// errors are not retryable-by-waiting.
    #[must_use]
    pub fn retry_after_ms(&self) -> Option<u64> {
        match self {
            ServeError::Overloaded { retry_after_ms, .. }
            | ServeError::QuotaExceeded { retry_after_ms, .. }
            | ServeError::Brownout { retry_after_ms, .. }
            | ServeError::BreakerOpen { retry_after_ms, .. } => Some(*retry_after_ms),
            _ => None,
        }
    }

    /// True for the cooperative-stop errors — the request's own budget
    /// tripped, not the engine.
    #[must_use]
    pub fn is_budget(&self) -> bool {
        matches!(self, ServeError::DeadlineExceeded | ServeError::Cancelled)
    }

    /// Does this error indict the *engine* (and so count against a
    /// view's circuit breaker)? Deadline trips do — the view's compute
    /// blew the budget. Storage faults anywhere in the error chain do.
    /// Client cancellations, client mistakes (bad attribute names),
    /// and the serving layer's own rejections do not.
    #[must_use]
    pub fn is_breaker_failure(&self) -> bool {
        match self {
            ServeError::DeadlineExceeded => true,
            ServeError::Core(e) => matches!(
                e,
                CoreError::Storage(_)
                    | CoreError::Data(DataError::Storage(_))
                    | CoreError::Summary(
                        SummaryError::Storage(_) | SummaryError::Data(DataError::Storage(_)),
                    )
            ),
            _ => false,
        }
    }
}

impl From<CoreError> for ServeError {
    fn from(e: CoreError) -> Self {
        // Budget trips are normalised at every layer boundary: a
        // client matching on the serving variants never needs to dig
        // through the Core wrapper.
        match e {
            CoreError::Cancelled => ServeError::Cancelled,
            CoreError::DeadlineExceeded => ServeError::DeadlineExceeded,
            other => ServeError::Core(other),
        }
    }
}

/// Serving-layer result alias.
pub type Result<T> = std::result::Result<T, ServeError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_actionable() {
        let e = ServeError::Overloaded {
            capacity: 8,
            retry_after_ms: 3,
        };
        assert!(e.to_string().contains("8 slots"));
        assert!(e.to_string().contains("queue full"));
        let e = ServeError::QuotaExceeded {
            tenant: "alice".into(),
            balance_milli: -250,
            retry_after_ms: 12,
        };
        assert!(e.to_string().contains("alice"));
        assert!(e.to_string().contains("-250"));
        assert!(e.to_string().contains("out of quota"));
        let e = ServeError::NoSuchSession(9);
        assert!(e.to_string().contains('9'));
        let e = ServeError::Brownout {
            tier: 1,
            retry_after_ms: 2,
        };
        assert!(e.to_string().contains("brownout tier 1"));
        let e = ServeError::BreakerOpen {
            view: "v".into(),
            retry_after_ms: 7,
        };
        assert!(e.to_string().contains("circuit breaker open"));
    }

    #[test]
    fn core_errors_pass_through_with_source() {
        use std::error::Error;
        let e = ServeError::from(CoreError::NoSuchView("v".into()));
        assert!(e.source().is_some());
        assert!(e.to_string().contains("engine error"));
    }

    #[test]
    fn budget_trips_are_lifted_out_of_the_core_wrapper() {
        assert!(matches!(
            ServeError::from(CoreError::Cancelled),
            ServeError::Cancelled
        ));
        assert!(matches!(
            ServeError::from(CoreError::DeadlineExceeded),
            ServeError::DeadlineExceeded
        ));
        assert!(ServeError::from(CoreError::Cancelled).is_budget());
    }

    #[test]
    fn retry_after_is_present_exactly_on_load_rejections() {
        assert_eq!(
            ServeError::Overloaded {
                capacity: 4,
                retry_after_ms: 9
            }
            .retry_after_ms(),
            Some(9)
        );
        assert_eq!(
            ServeError::BreakerOpen {
                view: "v".into(),
                retry_after_ms: 5
            }
            .retry_after_ms(),
            Some(5)
        );
        assert_eq!(ServeError::Cancelled.retry_after_ms(), None);
        assert_eq!(ServeError::ShuttingDown.retry_after_ms(), None);
        assert_eq!(
            ServeError::Core(CoreError::NoSuchView("v".into())).retry_after_ms(),
            None
        );
    }

    #[test]
    fn breaker_failure_predicate_separates_engine_faults_from_client_errors() {
        use sdbms_storage::StorageError;
        assert!(ServeError::DeadlineExceeded.is_breaker_failure());
        assert!(
            ServeError::Core(CoreError::Storage(StorageError::PoolExhausted)).is_breaker_failure()
        );
        assert!(!ServeError::Cancelled.is_breaker_failure());
        assert!(!ServeError::Core(CoreError::NoSuchView("v".into())).is_breaker_failure());
        assert!(!ServeError::BreakerOpen {
            view: "v".into(),
            retry_after_ms: 1
        }
        .is_breaker_failure());
    }
}
