//! Simulated disk.
//!
//! The "disk" is an in-memory vector of pages behind a mutex. Its
//! purpose is not persistence but *accounting*: every read and write
//! charges the shared [`Tracker`], and non-sequential accesses charge a
//! seek, so experiments can report exactly the I/O pattern a real 1982
//! disk would have seen. Free pages are recycled through a free list.
//!
//! Each stored page carries an out-of-band CRC32 (think sector ECC)
//! computed at write time and verified on every read. A
//! [`FaultInjector`] is consulted on every I/O: transient faults are
//! retried internally under the disk's [`RetryPolicy`] (charging the
//! tracker), permanent faults surface as
//! [`StorageError::PermanentFault`], and injected corruption flips a
//! stored bit so the *next read* fails CRC verification instead of
//! returning silently wrong bytes.

use std::sync::Arc;

use parking_lot::{Mutex, Rank};

use crate::budget::charge_ambient_ops;
use crate::cost::Tracker;
use crate::error::{Result, StorageError};
use crate::fault::{Device, FaultInjector, InjectedFault, IoOp};
use crate::page::{Page, PageId};
use crate::retry::{with_retries, RetryPolicy};

/// One allocated page plus the checksum stored beside it.
struct Slot {
    page: Page,
    crc: u32,
}

impl Slot {
    fn zeroed() -> Self {
        let page = Page::new();
        let crc = page.crc32();
        Slot { page, crc }
    }
}

struct DiskInner {
    pages: Vec<Option<Slot>>,
    free: Vec<PageId>,
    /// Last page touched, for sequential-vs-seek accounting.
    head_at: Option<PageId>,
}

/// An in-memory simulated disk with I/O accounting, per-page CRC32
/// verification, and fault injection.
pub struct DiskManager {
    inner: Mutex<DiskInner>,
    tracker: Tracker,
    injector: Arc<FaultInjector>,
    retry: RetryPolicy,
}

impl std::fmt::Debug for DiskManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("DiskManager")
            .field("pages", &inner.pages.len())
            .field("free", &inner.free.len())
            .finish()
    }
}

impl DiskManager {
    /// Create an empty disk charging the given tracker, with fault
    /// injection disabled.
    #[must_use]
    pub fn new(tracker: Tracker) -> Self {
        Self::with_faults(
            tracker,
            Arc::new(FaultInjector::disabled()),
            RetryPolicy::default(),
        )
    }

    /// Create an empty disk that consults `injector` on every I/O and
    /// retries transient faults under `retry`.
    #[must_use]
    pub fn with_faults(tracker: Tracker, injector: Arc<FaultInjector>, retry: RetryPolicy) -> Self {
        DiskManager {
            inner: Mutex::new(
                Rank::DiskInner,
                DiskInner {
                    pages: Vec::new(),
                    free: Vec::new(),
                    head_at: None,
                },
            ),
            tracker,
            injector,
            retry,
        }
    }

    /// The shared I/O tracker this disk charges.
    #[must_use]
    pub fn tracker(&self) -> &Tracker {
        &self.tracker
    }

    /// The fault injector this disk consults.
    #[must_use]
    pub fn injector(&self) -> &Arc<FaultInjector> {
        &self.injector
    }

    /// Allocate a fresh zeroed page and return its id.
    ///
    /// Allocation itself is free (the page is materialized on first
    /// write-back); only reads and writes charge I/O.
    pub fn allocate(&self) -> PageId {
        let mut inner = self.inner.lock();
        if let Some(pid) = inner.free.pop() {
            inner.pages[pid as usize] = Some(Slot::zeroed());
            pid
        } else {
            let pid = inner.pages.len() as PageId;
            inner.pages.push(Some(Slot::zeroed()));
            pid
        }
    }

    /// Return a page to the free list, zeroing its contents first so a
    /// later re-allocation can never observe stale bytes (even through
    /// a code path that skips the allocate-time zeroing). Subsequent
    /// reads of `pid` fail until it is re-allocated.
    pub fn deallocate(&self, pid: PageId) -> Result<()> {
        let mut inner = self.inner.lock();
        match inner.pages.get_mut(pid as usize) {
            Some(slot @ Some(_)) => {
                // Zero-on-free: scrub the bytes before releasing the
                // slot, so no later path can resurrect them.
                if let Some(s) = slot.as_mut() {
                    s.page.bytes_mut().fill(0);
                    s.crc = s.page.crc32();
                }
                *slot = None;
                inner.free.push(pid);
                Ok(())
            }
            _ => Err(StorageError::InvalidPageId(pid)),
        }
    }

    /// Read page `pid` into `out`, charging one page read (plus a seek
    /// if the previous access was not to the immediately preceding
    /// page). Transient faults are retried under the disk's policy;
    /// stored bytes are verified against their CRC32.
    pub fn read_page(&self, pid: PageId, out: &mut Page) -> Result<()> {
        with_retries(&self.retry, &self.tracker, || self.read_attempt(pid, out))
    }

    fn read_attempt(&self, pid: PageId, out: &mut Page) -> Result<()> {
        charge_ambient_ops(1)?;
        let mut inner = self.inner.lock();
        match self
            .injector
            .decide(Device::Disk, IoOp::Read, u64::from(pid), 0)
        {
            Some(InjectedFault::Crash) => return Err(StorageError::Crashed),
            Some(InjectedFault::Permanent) => {
                self.charge_access(&mut inner, pid);
                self.tracker.count_page_read();
                return Err(StorageError::PermanentFault {
                    device: "disk",
                    id: u64::from(pid),
                });
            }
            Some(InjectedFault::Transient) => {
                self.charge_access(&mut inner, pid);
                self.tracker.count_page_read();
                return Err(StorageError::TransientFault {
                    device: "disk",
                    id: u64::from(pid),
                });
            }
            Some(InjectedFault::Delay { units }) => {
                // Slow-but-correct I/O: the stall is charged as backoff
                // and spent from the ambient request budget, so a slow
                // fault eats a deadline without corrupting anything.
                self.tracker.count_backoff(units);
                charge_ambient_ops(units)?;
            }
            Some(InjectedFault::Corrupt { .. }) | None => {}
        }
        self.charge_access(&mut inner, pid);
        self.tracker.count_page_read();
        match inner.pages.get(pid as usize) {
            Some(Some(slot)) => {
                if slot.page.crc32() != slot.crc {
                    self.tracker.count_checksum_failure();
                    return Err(StorageError::ChecksumMismatch {
                        device: "disk",
                        id: u64::from(pid),
                    });
                }
                out.bytes_mut().copy_from_slice(slot.page.bytes());
                Ok(())
            }
            _ => Err(StorageError::InvalidPageId(pid)),
        }
    }

    /// Write `src` to page `pid`, charging one page write (plus a seek
    /// when non-sequential). The stored CRC32 is refreshed from `src`;
    /// an injected corruption then flips one stored bit so the damage
    /// is caught by the next read's verification.
    pub fn write_page(&self, pid: PageId, src: &Page) -> Result<()> {
        with_retries(&self.retry, &self.tracker, || self.write_attempt(pid, src))
    }

    fn write_attempt(&self, pid: PageId, src: &Page) -> Result<()> {
        charge_ambient_ops(1)?;
        let mut inner = self.inner.lock();
        let fault =
            self.injector
                .decide(Device::Disk, IoOp::Write, u64::from(pid), src.bytes().len());
        match fault {
            Some(InjectedFault::Crash) => return Err(StorageError::Crashed),
            Some(InjectedFault::Transient) => {
                self.charge_access(&mut inner, pid);
                self.tracker.count_page_write();
                return Err(StorageError::TransientFault {
                    device: "disk",
                    id: u64::from(pid),
                });
            }
            Some(InjectedFault::Permanent) => {
                self.charge_access(&mut inner, pid);
                self.tracker.count_page_write();
                return Err(StorageError::PermanentFault {
                    device: "disk",
                    id: u64::from(pid),
                });
            }
            Some(InjectedFault::Delay { units }) => {
                // Slow-but-correct I/O, as on the read path.
                self.tracker.count_backoff(units);
                charge_ambient_ops(units)?;
            }
            Some(InjectedFault::Corrupt { .. }) | None => {}
        }
        self.charge_access(&mut inner, pid);
        self.tracker.count_page_write();
        match inner.pages.get_mut(pid as usize) {
            Some(Some(slot)) => {
                slot.page.bytes_mut().copy_from_slice(src.bytes());
                slot.crc = src.crc32();
                if let Some(InjectedFault::Corrupt { bit }) = fault {
                    slot.page.flip_bit(bit);
                }
                Ok(())
            }
            _ => Err(StorageError::InvalidPageId(pid)),
        }
    }

    /// Flip one bit of the stored copy of `pid` without updating its
    /// CRC (test hook for corruption-detection paths).
    pub fn corrupt_page(&self, pid: PageId, bit: usize) -> Result<()> {
        let mut inner = self.inner.lock();
        match inner.pages.get_mut(pid as usize) {
            Some(Some(slot)) => {
                slot.page.flip_bit(bit);
                Ok(())
            }
            _ => Err(StorageError::InvalidPageId(pid)),
        }
    }

    /// Number of live (allocated) pages.
    #[must_use]
    pub fn allocated_pages(&self) -> usize {
        let inner = self.inner.lock();
        inner.pages.len() - inner.free.len()
    }

    /// One past the highest page id ever allocated: every live page's
    /// id is below it. Freed ids are recycled, so this can exceed
    /// [`DiskManager::allocated_pages`].
    #[must_use]
    pub fn page_id_limit(&self) -> PageId {
        self.inner.lock().pages.len() as PageId
    }

    fn charge_access(&self, inner: &mut DiskInner, pid: PageId) {
        let sequential = matches!(inner.head_at, Some(prev) if pid == prev || pid == prev + 1);
        if !sequential {
            self.tracker.count_seek();
        }
        inner.head_at = Some(pid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultKind, FaultPlan, ScriptedFault};

    fn disk() -> DiskManager {
        DiskManager::new(Tracker::new())
    }

    #[test]
    fn allocate_read_write_roundtrip() {
        let d = disk();
        let pid = d.allocate();
        let mut p = Page::new();
        p.put_u32(0, 42);
        d.write_page(pid, &p).unwrap();
        let mut out = Page::new();
        d.read_page(pid, &mut out).unwrap();
        assert_eq!(out.get_u32(0), 42);
    }

    #[test]
    fn read_unallocated_fails() {
        let d = disk();
        let mut out = Page::new();
        assert_eq!(
            d.read_page(9, &mut out),
            Err(StorageError::InvalidPageId(9))
        );
    }

    #[test]
    fn deallocate_then_read_fails_and_id_is_recycled() {
        let d = disk();
        let a = d.allocate();
        let b = d.allocate();
        assert_ne!(a, b);
        d.deallocate(a).unwrap();
        let mut out = Page::new();
        assert!(d.read_page(a, &mut out).is_err());
        let c = d.allocate();
        assert_eq!(c, a, "freed id should be recycled");
        assert_eq!(d.allocated_pages(), 2);
    }

    #[test]
    fn double_free_fails() {
        let d = disk();
        let a = d.allocate();
        d.deallocate(a).unwrap();
        assert!(d.deallocate(a).is_err());
    }

    #[test]
    fn sequential_access_avoids_seeks() {
        let d = disk();
        let pids: Vec<_> = (0..4).map(|_| d.allocate()).collect();
        let p = Page::new();
        for &pid in &pids {
            d.write_page(pid, &p).unwrap();
        }
        let s = d.tracker().snapshot();
        // First access seeks; the rest are to pid+1 and are sequential.
        assert_eq!(s.seeks, 1);
        assert_eq!(s.page_writes, 4);
    }

    #[test]
    fn random_access_seeks_every_time() {
        let d = disk();
        let a = d.allocate();
        let _ = d.allocate();
        let c = d.allocate();
        let mut out = Page::new();
        d.read_page(c, &mut out).unwrap();
        d.read_page(a, &mut out).unwrap();
        d.read_page(c, &mut out).unwrap();
        assert_eq!(d.tracker().snapshot().seeks, 3);
    }

    #[test]
    fn rereading_same_page_is_sequential() {
        let d = disk();
        let a = d.allocate();
        let mut out = Page::new();
        d.read_page(a, &mut out).unwrap();
        d.read_page(a, &mut out).unwrap();
        assert_eq!(d.tracker().snapshot().seeks, 1);
    }

    #[test]
    fn freshly_allocated_page_is_zeroed_even_after_recycle() {
        let d = disk();
        let a = d.allocate();
        let mut p = Page::new();
        p.put_u64(8, u64::MAX);
        d.write_page(a, &p).unwrap();
        d.deallocate(a).unwrap();
        let b = d.allocate();
        assert_eq!(b, a);
        let mut out = Page::new();
        d.read_page(b, &mut out).unwrap();
        assert_eq!(out.get_u64(8), 0);
    }

    // ---- fault injection ---------------------------------------------

    fn faulty(
        injector: Arc<FaultInjector>,
        retry: RetryPolicy,
    ) -> (DiskManager, Arc<FaultInjector>) {
        let d = DiskManager::with_faults(Tracker::new(), injector.clone(), retry);
        (d, injector)
    }

    #[test]
    fn transient_read_fault_is_retried_and_charged() {
        let inj = Arc::new(FaultInjector::disabled());
        let (d, inj) = faulty(inj, RetryPolicy::default());
        let pid = d.allocate();
        let mut p = Page::new();
        p.put_u32(0, 5);
        d.write_page(pid, &p).unwrap();
        inj.script(
            ScriptedFault::new(Device::Disk, FaultKind::Transient)
                .on(IoOp::Read)
                .times(2),
        );
        let mut out = Page::new();
        d.read_page(pid, &mut out).unwrap();
        assert_eq!(out.get_u32(0), 5);
        let s = d.tracker().snapshot();
        assert_eq!(s.retries, 2);
        assert_eq!(s.backoff_units, 1 + 2);
        // Each failed attempt still charged a transfer.
        assert_eq!(s.page_reads, 3);
    }

    #[test]
    fn persistent_transient_fault_exhausts_budget() {
        let inj = Arc::new(FaultInjector::disabled());
        let (d, inj) = faulty(inj, RetryPolicy::default());
        let pid = d.allocate();
        inj.script(
            ScriptedFault::new(Device::Disk, FaultKind::Transient)
                .on(IoOp::Read)
                .times(100),
        );
        let mut out = Page::new();
        assert!(matches!(
            d.read_page(pid, &mut out),
            Err(StorageError::RetriesExhausted { attempts: 4, .. })
        ));
    }

    #[test]
    fn permanent_fault_kills_the_page_for_good() {
        let inj = Arc::new(FaultInjector::disabled());
        let (d, inj) = faulty(inj, RetryPolicy::default());
        let pid = d.allocate();
        inj.script(ScriptedFault::new(Device::Disk, FaultKind::Permanent).at(u64::from(pid)));
        let mut out = Page::new();
        for _ in 0..3 {
            assert!(matches!(
                d.read_page(pid, &mut out),
                Err(StorageError::PermanentFault { device: "disk", .. })
            ));
        }
    }

    #[test]
    fn injected_write_corruption_is_caught_by_read_crc() {
        let inj = Arc::new(FaultInjector::disabled());
        let (d, inj) = faulty(inj, RetryPolicy::default());
        let pid = d.allocate();
        inj.script(ScriptedFault::new(Device::Disk, FaultKind::Corrupt).on(IoOp::Write));
        let mut p = Page::new();
        p.put_u64(0, 0xFEED);
        d.write_page(pid, &p).unwrap(); // reports success: silent corruption
        let mut out = Page::new();
        assert!(matches!(
            d.read_page(pid, &mut out),
            Err(StorageError::ChecksumMismatch { device: "disk", .. })
        ));
        assert_eq!(d.tracker().snapshot().checksum_failures, 1);
        // Rewriting the page repairs it.
        d.write_page(pid, &p).unwrap();
        d.read_page(pid, &mut out).unwrap();
        assert_eq!(out.get_u64(0), 0xFEED);
    }

    #[test]
    fn corrupt_page_hook_fails_reads_until_rewritten() {
        let d = disk();
        let pid = d.allocate();
        let mut p = Page::new();
        p.put_u32(100, 77);
        d.write_page(pid, &p).unwrap();
        d.corrupt_page(pid, 800).unwrap();
        let mut out = Page::new();
        assert!(matches!(
            d.read_page(pid, &mut out),
            Err(StorageError::ChecksumMismatch { .. })
        ));
        d.write_page(pid, &p).unwrap();
        assert!(d.read_page(pid, &mut out).is_ok());
    }

    #[test]
    fn crash_blocks_all_io_until_restart() {
        let inj = Arc::new(FaultInjector::new(FaultPlan::none()));
        let (d, inj) = faulty(inj, RetryPolicy::default());
        let pid = d.allocate();
        let p = Page::new();
        d.write_page(pid, &p).unwrap();
        inj.crash_now();
        let mut out = Page::new();
        assert_eq!(d.read_page(pid, &mut out), Err(StorageError::Crashed));
        assert_eq!(d.write_page(pid, &p), Err(StorageError::Crashed));
        inj.restart();
        assert!(d.read_page(pid, &mut out).is_ok());
    }
}
