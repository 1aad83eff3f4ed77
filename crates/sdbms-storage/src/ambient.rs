//! The one per-thread stack of ambient request scopes.
//!
//! What a request carries implicitly — the [`IoStats`] sinks that
//! mirror its I/O ([`crate::cost::IoScope`]) and the [`CancelToken`]
//! that bounds it ([`crate::budget::BudgetScope`]) — rides on a single
//! thread-local stack. Code that moves a request's work to another
//! thread takes one [`capture`] on the caller and one
//! [`Captured::install`] in the worker and never names a scope kind, so
//! a new kind (a new [`Entry`] variant) crosses threads by construction.

use std::cell::RefCell;
use std::sync::Arc;

use crate::budget::CancelToken;
use crate::cost::IoStats;

/// One entered scope.
#[derive(Debug, Clone)]
pub(crate) enum Entry {
    /// Mirrors every charge made on this thread (all nested sinks see it).
    Io(Arc<IoStats>),
    /// Bounds work on this thread (only the innermost is consulted).
    Budget(CancelToken),
}

thread_local! {
    static STACK: RefCell<Vec<Entry>> = const { RefCell::new(Vec::new()) };
}

pub(crate) fn push(entry: Entry) {
    STACK.with(|stack| stack.borrow_mut().push(entry));
}

/// Remove the innermost entry `is_mine` accepts. Guards usually drop
/// LIFO, but searching from the top means an out-of-order drop removes
/// its own entry, not a peer's.
pub(crate) fn remove(is_mine: impl Fn(&Entry) -> bool) {
    STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        if let Some(i) = stack.iter().rposition(is_mine) {
            stack.remove(i);
        }
    });
}

/// Run `f` over this thread's entered scopes, outermost first.
pub(crate) fn with_entries<R>(f: impl FnOnce(&[Entry]) -> R) -> R {
    STACK.with(|stack| f(&stack.borrow()))
}

/// A thread's ambient scopes, captured so work handed to another
/// thread can run under them.
#[derive(Debug)]
pub struct Captured(Vec<Entry>);

/// Capture every scope entered on the calling thread.
#[must_use]
pub fn capture() -> Captured {
    with_entries(|entries| Captured(entries.to_vec()))
}

impl Captured {
    /// Enter the captured scopes on the current thread until the guard
    /// drops: charges made here reach the capturing request's I/O sinks
    /// and spend its budget exactly as they would on its own thread.
    #[must_use]
    pub fn install(&self) -> Installed {
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let base = stack.len();
            stack.extend(self.0.iter().cloned());
            Installed { base }
        })
    }
}

/// RAII guard of [`Captured::install`]; leaves the installed scopes on
/// drop.
#[derive(Debug)]
pub struct Installed {
    base: usize,
}

impl Drop for Installed {
    fn drop(&mut self) {
        STACK.with(|stack| stack.borrow_mut().truncate(self.base));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::{ambient_token, BudgetScope};
    use crate::cost::{IoScope, Tracker};

    #[test]
    fn installed_scopes_apply_on_the_worker_and_leave_with_the_guard() {
        let tracker = Tracker::new();
        let outer = IoScope::enter(Arc::new(IoStats::default()));
        let budget = BudgetScope::enter(CancelToken::with_op_budget(10));
        let inner = IoScope::enter(Arc::new(IoStats::default()));
        let captured = capture();
        std::thread::scope(|s| {
            s.spawn(|| {
                {
                    let _installed = captured.install();
                    tracker.count_page_read();
                    assert!(ambient_token().is_some_and(|t| t.same_token(budget.token())));
                }
                tracker.count_page_read(); // guard dropped — not mirrored
                assert!(ambient_token().is_none());
            });
        });
        assert_eq!(outer.stats().snapshot().page_reads, 1);
        assert_eq!(inner.stats().snapshot().page_reads, 1);
        assert_eq!(tracker.snapshot().page_reads, 2);
    }
}
