//! Bounded retry with exponential backoff for transient faults.
//!
//! Transient faults injected by [`crate::fault::FaultInjector`] model
//! the recoverable errors real devices report (a read that succeeds on
//! the second revolution, a tape that needs re-tensioning). The storage
//! layer retries them internally under a [`RetryPolicy`]; each retry
//! charges the shared [`Tracker`] — one `retries` count plus an
//! exponentially growing number of `backoff_units` — so experiments see
//! the true cost of running on flaky media. When the budget is
//! exhausted the error escalates to
//! [`StorageError::RetriesExhausted`], which upper layers treat like a
//! permanent fault.

use crate::budget::charge_ambient_ops;
use crate::cost::Tracker;
use crate::error::{Result, StorageError};

/// How many times to retry a transient fault, and how the simulated
/// backoff delay grows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (1 = never retry).
    pub max_attempts: u32,
    /// Backoff charged before the first retry, in abstract cost units.
    pub backoff_base: u64,
    /// Multiplier applied to the backoff after each failed retry.
    pub backoff_multiplier: u64,
}

impl Default for RetryPolicy {
    /// Three retries with backoffs of 1, 2, and 4 units.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            backoff_base: 1,
            backoff_multiplier: 2,
        }
    }
}

impl RetryPolicy {
    /// Never retry: transient faults surface immediately (as
    /// [`StorageError::RetriesExhausted`] after one attempt).
    #[must_use]
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            backoff_base: 0,
            backoff_multiplier: 1,
        }
    }

    /// Backoff units charged before retry number `retry` (1-based).
    #[must_use]
    pub fn backoff_units(&self, retry: u32) -> u64 {
        let mut units = self.backoff_base;
        for _ in 1..retry {
            units = units.saturating_mul(self.backoff_multiplier);
        }
        units
    }
}

/// Run `op`, retrying transient faults under `policy` and charging each
/// retry (and its backoff) to `tracker`. Non-transient errors pass
/// through untouched.
///
/// The retry loop is also a deadline checkpoint: each backoff spends
/// its units from the ambient request budget (see [`crate::budget`]),
/// so the *remaining deadline* caps the retry budget — a dying disk
/// can burn at most what the request has left, never more, and the
/// caller gets a typed [`StorageError::DeadlineExceeded`] /
/// [`StorageError::Cancelled`] instead of waiting out every attempt.
///
/// Every disk and tape operation enters here, so this is where device
/// I/O declares itself blocking: debug builds panic if the caller
/// holds a fast lock ([`parking_lot::may_block`]).
pub fn with_retries<T>(
    policy: &RetryPolicy,
    tracker: &Tracker,
    mut op: impl FnMut() -> Result<T>,
) -> Result<T> {
    parking_lot::may_block();
    let mut attempt = 1u32;
    loop {
        match op() {
            Err(StorageError::TransientFault { device, id }) => {
                if attempt >= policy.max_attempts.max(1) {
                    return Err(StorageError::RetriesExhausted {
                        device,
                        id,
                        attempts: attempt,
                    });
                }
                let backoff = policy.backoff_units(attempt);
                tracker.count_retry();
                tracker.count_backoff(backoff);
                charge_ambient_ops(backoff)?;
                attempt += 1;
            }
            other => return other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn transient() -> StorageError {
        StorageError::TransientFault {
            device: "disk",
            id: 9,
        }
    }

    #[test]
    fn success_needs_no_retry() {
        let t = Tracker::new();
        let r = with_retries(&RetryPolicy::default(), &t, || Ok(5));
        assert_eq!(r, Ok(5));
        assert_eq!(t.snapshot().retries, 0);
    }

    #[test]
    fn transient_then_success_charges_backoff() {
        let t = Tracker::new();
        let mut calls = 0;
        let r = with_retries(&RetryPolicy::default(), &t, || {
            calls += 1;
            if calls < 3 {
                Err(transient())
            } else {
                Ok(calls)
            }
        });
        assert_eq!(r, Ok(3));
        let s = t.snapshot();
        assert_eq!(s.retries, 2);
        assert_eq!(s.backoff_units, 1 + 2, "exponential: 1 then 2 units");
    }

    #[test]
    fn budget_exhaustion_escalates() {
        let t = Tracker::new();
        let r: Result<()> = with_retries(&RetryPolicy::default(), &t, || Err(transient()));
        assert_eq!(
            r,
            Err(StorageError::RetriesExhausted {
                device: "disk",
                id: 9,
                attempts: 4,
            })
        );
        assert_eq!(t.snapshot().retries, 3);
        assert_eq!(t.snapshot().backoff_units, 1 + 2 + 4);
    }

    #[test]
    fn non_transient_errors_pass_through() {
        let t = Tracker::new();
        let r: Result<()> = with_retries(&RetryPolicy::default(), &t, || {
            Err(StorageError::InvalidPageId(3))
        });
        assert_eq!(r, Err(StorageError::InvalidPageId(3)));
        assert_eq!(t.snapshot().retries, 0);
    }

    #[test]
    fn remaining_deadline_caps_the_retry_budget() {
        use crate::budget::{BudgetScope, CancelToken};
        let t = Tracker::new();
        // Budget of 2 units: the first backoff (1 unit) fits, the
        // second (2 units) spends the rest, and the check before the
        // third retry trips — well before max_attempts would.
        let token = CancelToken::with_op_budget(2);
        let _scope = BudgetScope::enter(token);
        let mut calls = 0;
        let r: Result<()> = with_retries(
            &RetryPolicy {
                max_attempts: 100,
                backoff_base: 1,
                backoff_multiplier: 2,
            },
            &t,
            || {
                calls += 1;
                Err(transient())
            },
        );
        assert_eq!(r, Err(StorageError::DeadlineExceeded));
        assert!(calls < 100, "deadline cut retries short (made {calls})");
    }

    #[test]
    fn cancellation_stops_retries_with_typed_error() {
        use crate::budget::{BudgetScope, CancelToken};
        let t = Tracker::new();
        let token = CancelToken::unbounded();
        let _scope = BudgetScope::enter(token.clone());
        let mut calls = 0;
        let r: Result<()> = with_retries(&RetryPolicy::default(), &t, || {
            calls += 1;
            token.cancel();
            Err(transient())
        });
        assert_eq!(r, Err(StorageError::Cancelled));
        assert_eq!(calls, 1, "cancelled before the first retry");
    }

    #[test]
    fn policy_none_fails_fast() {
        let t = Tracker::new();
        let mut calls = 0;
        let r: Result<()> = with_retries(&RetryPolicy::none(), &t, || {
            calls += 1;
            Err(transient())
        });
        assert!(matches!(r, Err(StorageError::RetriesExhausted { .. })));
        assert_eq!(calls, 1);
    }
}
