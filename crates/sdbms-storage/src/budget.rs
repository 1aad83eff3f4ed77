//! Per-request deadlines and cooperative cancellation.
//!
//! Every request entering the serving layer carries a [`CancelToken`]:
//! a small shared handle that any layer can consult ("should I keep
//! going?") and the request's owner can trip ("stop now"). Two budget
//! forms are supported, and both surface as typed errors instead of
//! partial results:
//!
//! - an **operation budget** ([`CancelToken::with_op_budget`]) counted
//!   in simulated I/O time units — the deterministic clock the fault
//!   injector and the backoff accounting already use, so chaos tests
//!   and the differential suites replay identically on every run;
//! - a **wall-clock deadline** ([`CancelToken::with_wall_deadline`])
//!   for real deployments and the tail-latency experiments, where
//!   determinism is not required.
//!
//! The token travels *ambiently* through a [`BudgetScope`] on the
//! thread's [`crate::ambient`] stack: the serving layer enters a scope
//! around each request, and every disk or archive attempt underneath —
//! including retries and their backoff — charges the innermost token
//! without any signature changes through the intermediate layers.
//! Parallel scans re-install the calling thread's ambient stack in each
//! worker, so a deadline caps a scan no matter how many threads it fans
//! out over.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::ambient::{self, Entry};
use crate::error::StorageError;

/// Why a budget check failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelError {
    /// The token was explicitly cancelled (client disconnect, session
    /// teardown, or a sibling worker hitting an error).
    Cancelled,
    /// The request ran out of budget: its operation allowance is spent
    /// or its wall-clock deadline passed.
    DeadlineExceeded,
}

impl fmt::Display for CancelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CancelError::Cancelled => write!(f, "request cancelled"),
            CancelError::DeadlineExceeded => write!(f, "request deadline exceeded"),
        }
    }
}

impl std::error::Error for CancelError {}

impl From<CancelError> for StorageError {
    fn from(e: CancelError) -> Self {
        match e {
            CancelError::Cancelled => StorageError::Cancelled,
            CancelError::DeadlineExceeded => StorageError::DeadlineExceeded,
        }
    }
}

#[derive(Debug)]
struct TokenInner {
    cancelled: AtomicBool,
    /// Remaining operation allowance, in simulated I/O time units.
    /// `None` = unmetered. Goes negative when a multi-unit charge (a
    /// slow-fault delay, a retry backoff) overshoots; any non-positive
    /// value means the budget is spent.
    ops_left: Option<AtomicI64>,
    /// Wall-clock deadline. `None` = untimed.
    deadline: Option<Instant>,
    /// Link to the token this one was derived from; a parent's
    /// cancellation or exhaustion trips every descendant.
    parent: Option<Arc<TokenInner>>,
}

/// Shared cancellation / deadline handle for one request.
///
/// Cloning shares the same state: cancelling any clone trips them all.
/// [`CancelToken::child`] derives a *separately cancellable* token that
/// still honours the parent's budget — the executor hands one to each
/// scan so an internal worker error can stop its siblings without
/// marking the whole request as client-cancelled.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<TokenInner>,
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::unbounded()
    }
}

impl CancelToken {
    fn from_parts(ops: Option<i64>, deadline: Option<Instant>) -> Self {
        CancelToken {
            inner: Arc::new(TokenInner {
                cancelled: AtomicBool::new(false),
                ops_left: ops.map(AtomicI64::new),
                deadline,
                parent: None,
            }),
        }
    }

    /// A token with no deadline and no budget; only an explicit
    /// [`CancelToken::cancel`] can trip it.
    #[must_use]
    pub fn unbounded() -> Self {
        Self::from_parts(None, None)
    }

    /// A token allowing `ops` simulated I/O time units; the first
    /// charge past the allowance fails with
    /// [`CancelError::DeadlineExceeded`]. Deterministic: the unit
    /// counter is the same logical clock the fault injector uses.
    #[must_use]
    pub fn with_op_budget(ops: u64) -> Self {
        Self::from_parts(Some(i64::try_from(ops).unwrap_or(i64::MAX)), None)
    }

    /// A token that trips [`CancelError::DeadlineExceeded`] once
    /// `budget` of wall-clock time has elapsed.
    #[must_use]
    pub fn with_wall_deadline(budget: Duration) -> Self {
        Self::from_parts(None, Instant::now().checked_add(budget))
    }

    /// Derive a separately cancellable token that still honours this
    /// token's (and its ancestors') budget and cancellation.
    #[must_use]
    pub fn child(&self) -> Self {
        CancelToken {
            inner: Arc::new(TokenInner {
                cancelled: AtomicBool::new(false),
                ops_left: None,
                deadline: None,
                parent: Some(Arc::clone(&self.inner)),
            }),
        }
    }

    /// Trip the token: every subsequent [`CancelToken::check`] on this
    /// token or any child fails with [`CancelError::Cancelled`].
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::SeqCst);
    }

    /// Why the token has tripped, if it has. Explicit cancellation
    /// anywhere in the ancestry wins over budget exhaustion, so a
    /// cancelled-then-slow request reports `Cancelled`, not
    /// `DeadlineExceeded`.
    #[must_use]
    pub fn tripped(&self) -> Option<CancelError> {
        let mut exhausted = false;
        let mut cur = Some(&self.inner);
        while let Some(inner) = cur {
            if inner.cancelled.load(Ordering::SeqCst) {
                return Some(CancelError::Cancelled);
            }
            if let Some(left) = &inner.ops_left {
                exhausted |= left.load(Ordering::SeqCst) <= 0;
            }
            if let Some(dl) = inner.deadline {
                exhausted |= Instant::now() >= dl;
            }
            cur = inner.parent.as_ref();
        }
        exhausted.then_some(CancelError::DeadlineExceeded)
    }

    /// Fail if the token has tripped; the cooperative checkpoint every
    /// layer calls at its own granularity (per morsel in the executor,
    /// per attempt on the disk, per retry in the backoff loop).
    pub fn check(&self) -> Result<(), CancelError> {
        match self.tripped() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Spend `n` simulated I/O time units from every metered budget in
    /// the ancestry. Spending is separate from checking: an operation
    /// that was admitted completes even if it lands the budget at (or
    /// past) zero — the *next* checkpoint trips.
    pub fn consume_ops(&self, n: u64) {
        let n = i64::try_from(n).unwrap_or(i64::MAX);
        let mut cur = Some(&self.inner);
        while let Some(inner) = cur {
            if let Some(left) = &inner.ops_left {
                left.fetch_sub(n, Ordering::SeqCst);
            }
            cur = inner.parent.as_ref();
        }
    }

    /// Remaining operation allowance of the tightest metered budget in
    /// the ancestry (`None` when unmetered). The retry loop uses this
    /// to report how much of a deadline a flaky device consumed.
    #[must_use]
    pub fn ops_remaining(&self) -> Option<u64> {
        let mut tightest: Option<i64> = None;
        let mut cur = Some(&self.inner);
        while let Some(inner) = cur {
            if let Some(left) = &inner.ops_left {
                let v = left.load(Ordering::SeqCst);
                tightest = Some(tightest.map_or(v, |t: i64| t.min(v)));
            }
            cur = inner.parent.as_ref();
        }
        tightest.map(|v| u64::try_from(v).unwrap_or(0))
    }

    /// True when two tokens share the same underlying state.
    #[must_use]
    pub fn same_token(&self, other: &CancelToken) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

/// An RAII guard that makes a [`CancelToken`] the *ambient request
/// budget* for the current thread until dropped: storage-level attempts
/// consult the innermost entered token via [`ambient_token`] /
/// [`charge_ambient_ops`] without any plumbing through the intermediate
/// layers. Outer tokens still apply because an inner scope is always
/// created as a [`CancelToken::child`] of — or alongside — the outer
/// request's token.
#[derive(Debug)]
pub struct BudgetScope {
    token: CancelToken,
}

impl BudgetScope {
    /// Enter a scope on the current thread: until the returned guard
    /// drops, `token` is the innermost ambient budget here.
    #[must_use]
    pub fn enter(token: CancelToken) -> BudgetScope {
        ambient::push(Entry::Budget(token.clone()));
        BudgetScope { token }
    }

    /// The scope's token.
    #[must_use]
    pub fn token(&self) -> &CancelToken {
        &self.token
    }
}

impl Drop for BudgetScope {
    fn drop(&mut self) {
        ambient::remove(|e| matches!(e, Entry::Budget(t) if t.same_token(&self.token)));
    }
}

fn innermost(entries: &[Entry]) -> Option<&CancelToken> {
    entries.iter().rev().find_map(|e| match e {
        Entry::Budget(token) => Some(token),
        Entry::Io(_) => None,
    })
}

/// The innermost ambient [`CancelToken`] on this thread, if any.
#[must_use]
pub fn ambient_token() -> Option<CancelToken> {
    ambient::with_entries(|entries| innermost(entries).cloned())
}

/// Storage-level budget checkpoint: fail with a typed
/// [`StorageError::Cancelled`] / [`StorageError::DeadlineExceeded`] if
/// the ambient budget (when present) has tripped, otherwise spend
/// `ops` units from it. Called once per device I/O attempt, and with
/// the delay's weight when a slow fault stalls an operation.
pub fn charge_ambient_ops(ops: u64) -> Result<(), StorageError> {
    ambient::with_entries(|entries| {
        if let Some(token) = innermost(entries) {
            token.check()?;
            token.consume_ops(ops);
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_token_never_trips_on_its_own() {
        let t = CancelToken::unbounded();
        t.consume_ops(1_000_000);
        assert_eq!(t.check(), Ok(()));
        t.cancel();
        assert_eq!(t.check(), Err(CancelError::Cancelled));
    }

    #[test]
    fn op_budget_admits_exactly_its_allowance() {
        let t = CancelToken::with_op_budget(3);
        for _ in 0..3 {
            assert_eq!(t.check(), Ok(()));
            t.consume_ops(1);
        }
        assert_eq!(t.check(), Err(CancelError::DeadlineExceeded));
        assert_eq!(t.ops_remaining(), Some(0));
    }

    #[test]
    fn zero_budget_trips_before_the_first_op() {
        let t = CancelToken::with_op_budget(0);
        assert_eq!(t.check(), Err(CancelError::DeadlineExceeded));
    }

    #[test]
    fn overshoot_saturates_remaining_at_zero() {
        let t = CancelToken::with_op_budget(5);
        t.consume_ops(40);
        assert_eq!(t.ops_remaining(), Some(0));
        assert_eq!(t.check(), Err(CancelError::DeadlineExceeded));
    }

    #[test]
    fn child_inherits_parent_budget_and_cancellation() {
        let parent = CancelToken::with_op_budget(2);
        let child = parent.child();
        child.consume_ops(2);
        assert_eq!(child.check(), Err(CancelError::DeadlineExceeded));
        assert_eq!(
            parent.check(),
            Err(CancelError::DeadlineExceeded),
            "child charges spend the parent's budget"
        );

        let parent = CancelToken::unbounded();
        let child = parent.child();
        parent.cancel();
        assert_eq!(child.check(), Err(CancelError::Cancelled));
    }

    #[test]
    fn child_cancel_does_not_trip_the_parent() {
        let parent = CancelToken::unbounded();
        let child = parent.child();
        child.cancel();
        assert_eq!(child.check(), Err(CancelError::Cancelled));
        assert_eq!(parent.check(), Ok(()));
    }

    #[test]
    fn cancellation_wins_over_exhaustion() {
        let t = CancelToken::with_op_budget(0);
        t.cancel();
        assert_eq!(t.check(), Err(CancelError::Cancelled));
    }

    #[test]
    fn wall_deadline_in_the_past_trips() {
        let t = CancelToken::with_wall_deadline(Duration::ZERO);
        assert_eq!(t.check(), Err(CancelError::DeadlineExceeded));
        let far = CancelToken::with_wall_deadline(Duration::from_secs(3600));
        assert_eq!(far.check(), Ok(()));
    }

    #[test]
    fn ambient_scope_charges_the_entered_token() {
        assert_eq!(ambient_token().map(|_| ()), None);
        let t = CancelToken::with_op_budget(2);
        {
            let _scope = BudgetScope::enter(t.clone());
            assert!(ambient_token().is_some_and(|a| a.same_token(&t)));
            assert_eq!(charge_ambient_ops(1), Ok(()));
            assert_eq!(charge_ambient_ops(1), Ok(()));
            assert_eq!(charge_ambient_ops(1), Err(StorageError::DeadlineExceeded));
        }
        assert_eq!(ambient_token().map(|_| ()), None);
        assert_eq!(charge_ambient_ops(1), Ok(()), "no scope, no metering");
    }

    #[test]
    fn inner_scope_shadows_outer_for_ambient_charges() {
        let outer = CancelToken::with_op_budget(100);
        let _o = BudgetScope::enter(outer.clone());
        {
            let inner = outer.child();
            let _i = BudgetScope::enter(inner);
            assert_eq!(charge_ambient_ops(10), Ok(()));
        }
        assert_eq!(
            outer.ops_remaining(),
            Some(90),
            "child charges flowed up to the outer budget"
        );
    }

    #[test]
    fn cancelled_scope_reports_typed_cancelled() {
        let t = CancelToken::unbounded();
        let _scope = BudgetScope::enter(t.clone());
        t.cancel();
        assert_eq!(charge_ambient_ops(1), Err(StorageError::Cancelled));
    }
}
