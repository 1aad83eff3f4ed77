//! Epoch-based reclamation for snapshot-pinned view versions.
//!
//! The registry keeps a global epoch counter, a multiset of pinned
//! epochs (one entry per live [`EpochPin`]), and a retire list of
//! deferred actions. Retiring a version records its destructor at the
//! current epoch and bumps the counter; the destructor runs as soon as
//! every pin older than the retirement is gone. Reclamation is
//! attempted whenever a pin drops or a version is retired, so the
//! retire list never grows without bound while the system quiesces.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::{Mutex, Rank};

/// A deferred destructor for a retired view version (typically: free
/// the version's pages back to the buffer pool and drop the store).
type RetireAction = Box<dyn FnOnce() + Send>;

struct Retired {
    epoch: u64,
    action: RetireAction,
}

#[derive(Default)]
struct EpochInner {
    /// Monotone global epoch. Bumped on every retirement.
    epoch: u64,
    /// Multiset of pinned epochs: epoch → live pin count.
    pins: BTreeMap<u64, usize>,
    /// Deferred destructors, oldest first.
    retired: Vec<Retired>,
}

impl EpochInner {
    /// Split off every action safe to run: those retired strictly
    /// before the oldest live pin (all of them when nothing is
    /// pinned).
    fn drain_ready(&mut self) -> Vec<RetireAction> {
        let min_pinned = self.pins.keys().next().copied();
        let ready = |r: &Retired| match min_pinned {
            None => true,
            Some(p) => r.epoch < p,
        };
        let mut out = Vec::new();
        let mut keep = Vec::with_capacity(self.retired.len());
        for r in self.retired.drain(..) {
            if ready(&r) {
                out.push(r.action);
            } else {
                keep.push(r);
            }
        }
        self.retired = keep;
        out
    }
}

/// The shared epoch registry (one per DBMS).
pub struct EpochRegistry {
    inner: Mutex<EpochInner>,
}

impl Default for EpochRegistry {
    fn default() -> Self {
        EpochRegistry {
            inner: Mutex::new(Rank::TxnEpoch, EpochInner::default()),
        }
    }
}

impl std::fmt::Debug for EpochRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("EpochRegistry")
            .field("epoch", &inner.epoch)
            .field("pins", &inner.pins.values().sum::<usize>())
            .field("retired", &inner.retired.len())
            .finish()
    }
}

impl EpochRegistry {
    /// A fresh registry at epoch 0 with nothing pinned or retired.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The current global epoch.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.inner.lock().epoch
    }

    /// Live pins across all epochs.
    #[must_use]
    pub fn pinned(&self) -> usize {
        self.inner.lock().pins.values().sum()
    }

    /// The oldest epoch a live [`EpochPin`] still protects, if any.
    /// `epoch() - oldest_pinned()` is the *pin lag*: how far the
    /// slowest pinned reader trails the live version — the serving
    /// layer exports it so operators can spot a session holding back
    /// page reclamation.
    #[must_use]
    pub fn oldest_pinned(&self) -> Option<u64> {
        self.inner.lock().pins.keys().next().copied()
    }

    /// Pin the current epoch. The returned guard keeps every version
    /// retired at or after this epoch alive until it drops.
    #[must_use]
    pub fn pin(self: &Arc<Self>) -> EpochPin {
        let epoch = {
            let mut inner = self.inner.lock();
            let e = inner.epoch;
            *inner.pins.entry(e).or_insert(0) += 1;
            e
        };
        EpochPin {
            registry: Arc::clone(self),
            epoch,
        }
    }

    /// Record a deferred destructor for a version being replaced, bump
    /// the epoch, and immediately run whatever became safe. The action
    /// runs outside the registry lock (it may free pages, which takes
    /// other locks).
    pub fn retire(&self, action: impl FnOnce() + Send + 'static) {
        let ready = {
            let mut inner = self.inner.lock();
            let epoch = inner.epoch;
            inner.retired.push(Retired {
                epoch,
                action: Box::new(action),
            });
            inner.epoch += 1;
            inner.drain_ready()
        };
        for a in ready {
            a();
        }
    }

    fn unpin(&self, epoch: u64) {
        let ready = {
            let mut inner = self.inner.lock();
            if let Some(n) = inner.pins.get_mut(&epoch) {
                *n -= 1;
                if *n == 0 {
                    inner.pins.remove(&epoch);
                }
            }
            inner.drain_ready()
        };
        for a in ready {
            a();
        }
    }
}

/// A live pin on an epoch. While held, no version retired at or after
/// the pinned epoch is reclaimed. Dropping the pin triggers
/// reclamation of whatever became safe.
pub struct EpochPin {
    registry: Arc<EpochRegistry>,
    epoch: u64,
}

impl EpochPin {
    /// The epoch this pin protects.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

impl std::fmt::Debug for EpochPin {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochPin")
            .field("epoch", &self.epoch)
            .finish()
    }
}

impl Drop for EpochPin {
    fn drop(&mut self) {
        self.registry.unpin(self.epoch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Deferred destructors not yet run.
    fn retired_len(reg: &EpochRegistry) -> usize {
        reg.inner.lock().retired.len()
    }

    fn counter_action(c: &Arc<AtomicUsize>) -> impl FnOnce() + Send + 'static {
        let c = Arc::clone(c);
        move || {
            c.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn retire_with_no_pins_runs_immediately() {
        let reg = Arc::new(EpochRegistry::new());
        let ran = Arc::new(AtomicUsize::new(0));
        reg.retire(counter_action(&ran));
        assert_eq!(ran.load(Ordering::SeqCst), 1);
        assert_eq!(retired_len(&reg), 0);
        assert_eq!(reg.epoch(), 1);
    }

    #[test]
    fn pinned_reader_defers_reclamation_until_drop() {
        let reg = Arc::new(EpochRegistry::new());
        let ran = Arc::new(AtomicUsize::new(0));
        let pin = reg.pin();
        reg.retire(counter_action(&ran));
        assert_eq!(ran.load(Ordering::SeqCst), 0, "pin predates the retire");
        assert_eq!(retired_len(&reg), 1);
        drop(pin);
        assert_eq!(ran.load(Ordering::SeqCst), 1, "last pin drained");
        assert_eq!(retired_len(&reg), 0);
    }

    #[test]
    fn pin_taken_after_retire_does_not_block_it() {
        let reg = Arc::new(EpochRegistry::new());
        let ran = Arc::new(AtomicUsize::new(0));
        let old = reg.pin();
        reg.retire(counter_action(&ran));
        // A late reader pins the *new* version; it must not keep the
        // old one alive.
        let late = reg.pin();
        drop(old);
        assert_eq!(ran.load(Ordering::SeqCst), 1);
        drop(late);
    }

    #[test]
    fn multiple_pins_on_one_epoch_all_must_drain() {
        let reg = Arc::new(EpochRegistry::new());
        let ran = Arc::new(AtomicUsize::new(0));
        let a = reg.pin();
        let b = reg.pin();
        reg.retire(counter_action(&ran));
        drop(a);
        assert_eq!(ran.load(Ordering::SeqCst), 0, "one pin still live");
        drop(b);
        assert_eq!(ran.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn retirements_run_in_order_once_safe() {
        let reg = Arc::new(EpochRegistry::new());
        let order = Arc::new(std::sync::Mutex::new(Vec::new()));
        let pin = reg.pin();
        for i in 0..3 {
            let order = Arc::clone(&order);
            reg.retire(move || order.lock().unwrap().push(i));
        }
        assert!(order.lock().unwrap().is_empty());
        drop(pin);
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn oldest_pinned_tracks_the_slowest_reader() {
        let reg = Arc::new(EpochRegistry::new());
        assert_eq!(reg.oldest_pinned(), None);
        let old = reg.pin();
        reg.retire(|| {});
        reg.retire(|| {});
        let newer = reg.pin();
        assert_eq!(reg.oldest_pinned(), Some(old.epoch()));
        assert_eq!(reg.epoch(), 2);
        drop(old);
        assert_eq!(reg.oldest_pinned(), Some(newer.epoch()));
        drop(newer);
        assert_eq!(reg.oldest_pinned(), None);
    }

    #[test]
    fn pins_from_many_threads() {
        let reg = Arc::new(EpochRegistry::new());
        let ran = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let reg = Arc::clone(&reg);
                let ran = Arc::clone(&ran);
                s.spawn(move || {
                    for _ in 0..200 {
                        let pin = reg.pin();
                        reg.retire(counter_action(&ran));
                        drop(pin);
                    }
                });
            }
        });
        assert_eq!(ran.load(Ordering::SeqCst), 8 * 200, "every action ran");
        assert_eq!(reg.pinned(), 0);
        assert_eq!(retired_len(&reg), 0);
    }
}
