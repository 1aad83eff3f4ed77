//! The per-view lock table: writer/writer and writer/repair
//! coordination with deadlock avoidance by construction.
//!
//! One exclusive lock class guards each view name. Update batches,
//! legacy `update_where` sections, the background scrubber, and
//! `repair_view` all acquire it, so a repair can never race an
//! in-flight batch. Two properties make the table deadlock-free:
//!
//! 1. **Try-lock only.** [`LockTable::acquire`] never blocks; a
//!    conflict returns [`LockError::Conflict`] immediately and the
//!    caller decides (fail the call, skip the view, retry later). No
//!    waiting means no wait-for cycle.
//! 2. **Ordered acquisition.** A session extending its lock set must
//!    do so in ascending view-name order; acquiring below its current
//!    maximum is rejected as [`LockError::OrderViolation`]. Even if a
//!    blocking mode were ever added, the ordering discipline keeps the
//!    schedule space cycle-free. The `txn-lock-order` lint enforces
//!    that library code goes through [`LockTable::acquire`] (which
//!    checks the order) rather than [`LockTable::acquire_raw`] (which
//!    does not).
//!
//! A third property matters to the request-lifecycle work (DESIGN.md
//! §16): locks release on **drop**, not on an explicit unlock call, so
//! a cooperative deadline/cancellation trip — which surfaces as an
//! ordinary `Err` unwinding out of the batch — releases every view
//! lock through the same [`LockGuard`] destructor a successful commit
//! uses. Budget errors are deliberately *not* treated as crashes
//! anywhere in the stack, so a cancelled batch can never strand a
//! view lock or require recovery to free it.

use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, Rank};

/// A logical analyst session (an open batch, a scrub pass, a repair).
pub type SessionId = u64;

/// Why a lock acquisition failed. Acquisition never blocks, so these
/// are the only outcomes besides success.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LockError {
    /// Another session holds the lock.
    Conflict {
        /// The contended view name.
        resource: String,
        /// The session holding it.
        holder: SessionId,
    },
    /// The session tried to extend its lock set out of ascending
    /// order, which the deadlock-avoidance discipline forbids.
    OrderViolation {
        /// The view the session tried to lock.
        resource: String,
        /// The highest name the session already holds.
        held_max: String,
    },
}

impl fmt::Display for LockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockError::Conflict { resource, holder } => {
                write!(f, "view {resource:?} is locked by session {holder}")
            }
            LockError::OrderViolation { resource, held_max } => write!(
                f,
                "locking {resource:?} after {held_max:?} violates ordered acquisition"
            ),
        }
    }
}

impl std::error::Error for LockError {}

#[derive(Default)]
struct LockInner {
    /// View name → holding session.
    held: HashMap<String, SessionId>,
    /// Session → the names it holds (sorted, for the order check).
    by_session: HashMap<SessionId, BTreeSet<String>>,
}

/// The shared lock table (one per DBMS).
pub struct LockTable {
    next_session: AtomicU64,
    inner: Mutex<LockInner>,
}

impl Default for LockTable {
    fn default() -> Self {
        LockTable {
            next_session: AtomicU64::new(0),
            inner: Mutex::new(Rank::TxnLockTable, LockInner::default()),
        }
    }
}

impl fmt::Debug for LockTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("LockTable")
            .field("held", &inner.held.len())
            .finish()
    }
}

impl LockTable {
    /// A fresh, empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Mint a new session id.
    pub fn session(&self) -> SessionId {
        // lint: allow(relaxed-ordering): a unique-id counter needs atomicity only
        self.next_session.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Which session holds `resource`, if any.
    #[must_use]
    pub fn holder(&self, resource: &str) -> Option<SessionId> {
        self.inner.lock().held.get(resource).copied()
    }

    /// Try to take the exclusive lock on each of `resources` for
    /// `session`, all or nothing. The set is sorted internally;
    /// ordered-acquisition requires every new name to sort strictly
    /// after anything the session already holds. Never blocks.
    pub fn acquire(
        self: &Arc<Self>,
        session: SessionId,
        resources: &[&str],
    ) -> Result<LockGuard, LockError> {
        // The lock it returns is held across device I/O, so taking one
        // under a fast lock is as wrong as the I/O itself.
        parking_lot::may_block();
        let mut names: Vec<String> = resources.iter().map(ToString::to_string).collect();
        names.sort_unstable();
        names.dedup();
        let mut inner = self.inner.lock();
        if let Some(held_max) = inner
            .by_session
            .get(&session)
            .and_then(|s| s.iter().next_back())
        {
            if let Some(first) = names.first() {
                if first <= held_max {
                    return Err(LockError::OrderViolation {
                        resource: first.clone(),
                        held_max: held_max.clone(),
                    });
                }
            }
        }
        for n in &names {
            if let Some(&holder) = inner.held.get(n) {
                if holder != session {
                    return Err(LockError::Conflict {
                        resource: n.clone(),
                        holder,
                    });
                }
            }
        }
        for n in &names {
            inner.held.insert(n.clone(), session);
            inner
                .by_session
                .entry(session)
                .or_default()
                .insert(n.clone());
        }
        Ok(LockGuard {
            table: Arc::clone(self),
            session,
            resources: names,
        })
    }

    /// Take one lock with **no ordered-acquisition check**. This is
    /// the raw primitive [`LockTable::acquire`] is built on; calling
    /// it from library code is flagged by the `txn-lock-order` lint
    /// because it can create lock-order cycles under composition.
    pub fn acquire_raw(
        self: &Arc<Self>,
        session: SessionId,
        resource: &str,
    ) -> Result<LockGuard, LockError> {
        let mut inner = self.inner.lock();
        if let Some(&holder) = inner.held.get(resource) {
            if holder != session {
                return Err(LockError::Conflict {
                    resource: resource.to_string(),
                    holder,
                });
            }
        }
        inner.held.insert(resource.to_string(), session);
        inner
            .by_session
            .entry(session)
            .or_default()
            .insert(resource.to_string());
        Ok(LockGuard {
            table: Arc::clone(self),
            session,
            resources: vec![resource.to_string()],
        })
    }

    fn release(&self, session: SessionId, resources: &[String]) {
        let mut inner = self.inner.lock();
        for n in resources {
            if inner.held.get(n) == Some(&session) {
                inner.held.remove(n);
            }
            if let Some(set) = inner.by_session.get_mut(&session) {
                set.remove(n);
                if set.is_empty() {
                    inner.by_session.remove(&session);
                }
            }
        }
    }
}

/// Holds a set of view locks for one session; releases them on drop.
pub struct LockGuard {
    table: Arc<LockTable>,
    session: SessionId,
    resources: Vec<String>,
}

impl LockGuard {
    /// The owning session.
    #[must_use]
    pub fn session(&self) -> SessionId {
        self.session
    }

    /// The locked view names, ascending.
    #[must_use]
    pub fn resources(&self) -> &[String] {
        &self.resources
    }
}

impl fmt::Debug for LockGuard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LockGuard")
            .field("session", &self.session)
            .field("resources", &self.resources)
            .finish()
    }
}

impl Drop for LockGuard {
    fn drop(&mut self) {
        self.table.release(self.session, &self.resources);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Arc<LockTable> {
        Arc::new(LockTable::new())
    }

    #[test]
    fn exclusive_conflict_and_release() {
        let t = table();
        let (a, b) = (t.session(), t.session());
        let guard = t.acquire(a, &["v"]).unwrap();
        let err = t.acquire(b, &["v"]).unwrap_err();
        assert_eq!(
            err,
            LockError::Conflict {
                resource: "v".into(),
                holder: a
            }
        );
        drop(guard);
        t.acquire(b, &["v"]).unwrap();
    }

    #[test]
    fn reacquire_by_holder_is_fine() {
        let t = table();
        let a = t.session();
        let _g1 = t.acquire(a, &["p"]).unwrap();
        // Extending upward in order is allowed, including names the
        // session already holds within the same call.
        let _g2 = t.acquire(a, &["q", "r"]).unwrap();
    }

    #[test]
    fn ordered_acquisition_enforced() {
        let t = table();
        let a = t.session();
        let _g = t.acquire(a, &["m"]).unwrap();
        let err = t.acquire(a, &["c"]).unwrap_err();
        assert!(matches!(err, LockError::OrderViolation { .. }), "{err:?}");
        // acquire_raw skips the check (and the lint flags its use).
        let _raw = t.acquire_raw(a, "c").unwrap();
    }

    #[test]
    fn multi_view_acquire_is_all_or_nothing() {
        let t = table();
        let (a, b) = (t.session(), t.session());
        let _held = t.acquire(b, &["y"]).unwrap();
        let err = t.acquire(a, &["x", "y", "z"]).unwrap_err();
        assert!(matches!(err, LockError::Conflict { .. }));
        assert_eq!(t.holder("x"), None, "nothing was taken on conflict");
        assert_eq!(t.holder("z"), None);
    }

    #[test]
    fn guard_drop_releases_everything() {
        let t = table();
        let a = t.session();
        let g = t.acquire(a, &["a", "b"]).unwrap();
        assert_eq!(g.resources(), &["a".to_string(), "b".to_string()]);
        drop(g);
        assert_eq!(t.holder("a"), None);
        assert_eq!(t.holder("b"), None);
        // With nothing held, the order check resets.
        let _g = t.acquire(a, &["a"]).unwrap();
    }

    #[test]
    fn cancelled_batch_releases_locks_through_normal_unwind() {
        // Stand-in for a deadline/cancellation trip mid-batch: the
        // budget error is an ordinary `Err`, so the guard's drop runs
        // exactly as it would on success and nothing stays locked.
        let t = table();
        let a = t.session();
        let cancelled_batch = |t: &Arc<LockTable>| -> Result<(), &'static str> {
            let _guard = t.acquire(a, &["u", "v"]).unwrap();
            Err("deadline exceeded")
        };
        assert!(cancelled_batch(&t).is_err());
        assert_eq!(t.holder("u"), None, "cancellation released the locks");
        assert_eq!(t.holder("v"), None);
        // A fresh session can take the views immediately: no repair or
        // recovery step is needed to clear a cancelled batch.
        let b = t.session();
        let _g = t.acquire(b, &["u", "v"]).unwrap();
    }

    #[test]
    fn sessions_are_unique_across_threads() {
        let t = table();
        let mut ids = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let t = Arc::clone(&t);
                    s.spawn(move || (0..100).map(|_| t.session()).collect::<Vec<_>>())
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("worker"))
                .collect::<Vec<_>>()
        });
        ids.sort_unstable();
        let n = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }
}
