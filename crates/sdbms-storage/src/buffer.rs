//! Buffer pool with clock (second-chance) replacement.
//!
//! A fixed number of in-memory frames cache disk pages. Guards returned
//! by [`BufferPool::fetch`] keep their frame pinned until dropped;
//! mutation through a guard marks the frame dirty and the page is
//! written back only on eviction or [`BufferPool::flush_all`]. The pool
//! charges a `pool_hit` on the shared tracker when a request avoids
//! disk I/O, which is how experiment E4 measures the interaction
//! between pool size and file layout.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::{Mutex, Rank};

use crate::cost::Tracker;
use crate::disk::DiskManager;
use crate::error::{Result, StorageError};
use crate::page::{Page, PageId};

#[derive(Debug, Clone, Copy)]
struct FrameMeta {
    page_id: PageId,
    pin_count: u32,
    dirty: bool,
    referenced: bool,
    valid: bool,
}

impl FrameMeta {
    fn empty() -> Self {
        FrameMeta {
            page_id: 0,
            pin_count: 0,
            dirty: false,
            referenced: false,
            valid: false,
        }
    }
}

struct PoolState {
    meta: Vec<FrameMeta>,
    map: HashMap<PageId, usize>,
    clock_hand: usize,
}

/// A fixed-capacity page cache over a [`DiskManager`].
pub struct BufferPool {
    disk: Arc<DiskManager>,
    frames: Vec<Mutex<Page>>,
    state: Mutex<PoolState>,
    tracker: Tracker,
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("frames", &self.frames.len())
            .finish()
    }
}

/// A pinned page. The frame cannot be evicted while the guard lives.
///
/// Access page bytes with [`PageGuard::with`]; mutate (and mark dirty)
/// with [`PageGuard::with_mut`].
pub struct PageGuard<'a> {
    pool: &'a BufferPool,
    frame: usize,
    page_id: PageId,
}

impl PageGuard<'_> {
    /// The id of the pinned page.
    #[must_use]
    pub fn page_id(&self) -> PageId {
        self.page_id
    }

    /// Run `f` with shared access to the page bytes.
    pub fn with<R>(&self, f: impl FnOnce(&Page) -> R) -> R {
        let page = self.pool.frames[self.frame].lock();
        f(&page)
    }

    /// Run `f` with mutable access to the page bytes and mark the frame
    /// dirty.
    pub fn with_mut<R>(&self, f: impl FnOnce(&mut Page) -> R) -> R {
        let mut page = self.pool.frames[self.frame].lock();
        let r = f(&mut page);
        drop(page);
        self.pool.state.lock().meta[self.frame].dirty = true;
        r
    }
}

impl Drop for PageGuard<'_> {
    fn drop(&mut self) {
        let mut state = self.pool.state.lock();
        let meta = &mut state.meta[self.frame];
        debug_assert!(meta.valid && meta.page_id == self.page_id);
        meta.pin_count = meta.pin_count.saturating_sub(1);
    }
}

impl BufferPool {
    /// Create a pool of `capacity` frames over `disk`.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(disk: Arc<DiskManager>, capacity: usize) -> Self {
        assert!(capacity > 0, "buffer pool needs at least one frame");
        let tracker = disk.tracker().clone();
        BufferPool {
            disk,
            frames: (0..capacity)
                .map(|_| Mutex::new(Rank::PoolFrame, Page::new()))
                .collect(),
            state: Mutex::new(
                Rank::PoolState,
                PoolState {
                    meta: vec![FrameMeta::empty(); capacity],
                    map: HashMap::new(),
                    clock_hand: 0,
                },
            ),
            tracker,
        }
    }

    /// Number of frames.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.frames.len()
    }

    /// The disk underneath this pool.
    #[must_use]
    pub fn disk(&self) -> &Arc<DiskManager> {
        &self.disk
    }

    /// The shared I/O tracker.
    #[must_use]
    pub fn tracker(&self) -> &Tracker {
        &self.tracker
    }

    /// Pin page `pid`, reading it from disk if not resident.
    ///
    /// Pool hits consult the shared fault injector too (advancing its
    /// operation counter, and failing while a simulated crash is in
    /// effect); misses are covered by the disk's own fault handling.
    ///
    /// Any fetch may read or evict, so it is a blocking entry point
    /// whether or not this one hits ([`parking_lot::may_block`]).
    pub fn fetch(&self, pid: PageId) -> Result<PageGuard<'_>> {
        parking_lot::may_block();
        let mut state = self.state.lock();
        if let Some(&frame) = state.map.get(&pid) {
            if self.disk.injector().on_cache_op().is_some() {
                return Err(StorageError::Crashed);
            }
            // Budget checkpoint only — hits consume no budget (cache
            // reads cost ~0 in the cost model), but a cancelled or
            // expired request must still stop a long fully-cached scan.
            crate::budget::charge_ambient_ops(0)?;
            let meta = &mut state.meta[frame];
            meta.pin_count += 1;
            meta.referenced = true;
            self.tracker.count_pool_hit();
            return Ok(PageGuard {
                pool: self,
                frame,
                page_id: pid,
            });
        }
        let frame = self.take_victim(&mut state)?;
        // Read the page into the frame while holding the state lock:
        // the frame is not yet mapped, so no other guard can touch it,
        // and holding the lock keeps victim selection race-free.
        {
            let mut page = self.frames[frame].lock();
            self.disk.read_page(pid, &mut page)?;
        }
        state.meta[frame] = FrameMeta {
            page_id: pid,
            pin_count: 1,
            dirty: false,
            referenced: true,
            valid: true,
        };
        state.map.insert(pid, frame);
        Ok(PageGuard {
            pool: self,
            frame,
            page_id: pid,
        })
    }

    /// Allocate a fresh zeroed page on disk and pin it without a disk
    /// read. It may evict (and so write), so it blocks like
    /// [`BufferPool::fetch`].
    pub fn new_page(&self) -> Result<(PageId, PageGuard<'_>)> {
        parking_lot::may_block();
        if self.disk.injector().is_crashed() {
            return Err(StorageError::Crashed);
        }
        let pid = self.disk.allocate();
        let mut state = self.state.lock();
        // The disk may recycle a page id that was deallocated behind
        // the pool's back (a direct `DiskManager::deallocate`). Any
        // frame still mapped to that id holds stale bytes from the
        // page's previous life and must be invalidated, or the next
        // fetch would serve them as a pool hit.
        if let Some(&stale) = state.map.get(&pid) {
            if state.meta[stale].pin_count > 0 {
                return Err(
                    StorageError::corrupt("recycled page id still pinned in buffer pool")
                        .at_page(pid),
                );
            }
            state.map.remove(&pid);
            state.meta[stale] = FrameMeta::empty();
        }
        let frame = match self.take_victim(&mut state) {
            Ok(f) => f,
            Err(e) => {
                // Roll back the allocation so the disk doesn't leak.
                // Best-effort rollback of a just-made allocation; the eviction error is the one the caller must see
                let _ = self.disk.deallocate(pid);
                return Err(e);
            }
        };
        {
            let mut page = self.frames[frame].lock();
            *page = Page::new();
        }
        state.meta[frame] = FrameMeta {
            page_id: pid,
            pin_count: 1,
            dirty: true,
            referenced: true,
            valid: true,
        };
        state.map.insert(pid, frame);
        Ok((
            pid,
            PageGuard {
                pool: self,
                frame,
                page_id: pid,
            },
        ))
    }

    /// Write every dirty frame back to disk (frames stay resident).
    ///
    /// Frames are flushed in ascending page-id order so the simulated
    /// disk sees a mostly-sequential pass; a fault part-way through
    /// leaves earlier pages durable and later ones still dirty, which
    /// is exactly the torn state crash-recovery protocols must handle.
    pub fn flush_all(&self) -> Result<()> {
        if self.disk.injector().is_crashed() {
            return Err(StorageError::Crashed);
        }
        let mut state = self.state.lock();
        let mut dirty: Vec<usize> = (0..self.frames.len())
            .filter(|&f| state.meta[f].valid && state.meta[f].dirty)
            .collect();
        dirty.sort_by_key(|&f| state.meta[f].page_id);
        for frame in dirty {
            let pid = state.meta[frame].page_id;
            let page = self.frames[frame].lock();
            self.disk.write_page(pid, &page)?;
            drop(page);
            state.meta[frame].dirty = false;
        }
        Ok(())
    }

    /// Drop every unpinned frame *without* write-back, modelling the
    /// loss of volatile memory in a crash. Returns how many dirty
    /// frames were discarded. Fails (touching nothing) if any frame is
    /// still pinned — guards must be dropped before simulating a
    /// restart.
    pub fn discard_frames(&self) -> Result<usize> {
        let mut state = self.state.lock();
        if state.meta.iter().any(|m| m.valid && m.pin_count > 0) {
            return Err(StorageError::PoolExhausted);
        }
        let lost = state.meta.iter().filter(|m| m.valid && m.dirty).count();
        state.map.clear();
        for meta in &mut state.meta {
            *meta = FrameMeta::empty();
        }
        state.clock_hand = 0;
        Ok(lost)
    }

    /// Pick a victim frame, evicting (with write-back if dirty) as
    /// needed. Returns the frame index, unmapped and ready for reuse.
    fn take_victim(&self, state: &mut PoolState) -> Result<usize> {
        let n = self.frames.len();
        // Two full sweeps: the first clears reference bits, the second
        // must then find any unpinned frame.
        for _ in 0..2 * n {
            let f = state.clock_hand;
            state.clock_hand = (state.clock_hand + 1) % n;
            let meta = state.meta[f];
            if !meta.valid {
                return Ok(f);
            }
            if meta.pin_count > 0 {
                continue;
            }
            if meta.referenced {
                state.meta[f].referenced = false;
                continue;
            }
            // Evict.
            if meta.dirty {
                let page = self.frames[f].lock();
                self.disk.write_page(meta.page_id, &page)?;
            }
            state.map.remove(&meta.page_id);
            state.meta[f] = FrameMeta::empty();
            return Ok(f);
        }
        Err(StorageError::PoolExhausted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(frames: usize) -> BufferPool {
        let disk = Arc::new(DiskManager::new(Tracker::new()));
        BufferPool::new(disk, frames)
    }

    #[test]
    fn new_page_roundtrip_through_eviction() {
        let p = pool(2);
        let pid = {
            let (pid, g) = p.new_page().unwrap();
            g.with_mut(|pg| pg.put_u32(0, 7));
            pid
        };
        // Evict by filling the pool with other pages.
        for _ in 0..4 {
            let _ = p.new_page().unwrap();
        }
        let g = p.fetch(pid).unwrap();
        assert_eq!(g.with(|pg| pg.get_u32(0)), 7);
    }

    #[test]
    fn pool_hit_counts() {
        let p = pool(4);
        let (pid, g) = p.new_page().unwrap();
        drop(g);
        let before = p.tracker().snapshot();
        let _g = p.fetch(pid).unwrap();
        let d = p.tracker().snapshot().since(&before);
        assert_eq!(d.pool_hits, 1);
        assert_eq!(d.page_reads, 0);
    }

    #[test]
    fn pinned_pages_cannot_be_evicted() {
        let p = pool(2);
        let (_a, ga) = p.new_page().unwrap();
        let (_b, gb) = p.new_page().unwrap();
        // Both frames pinned: next allocation must fail.
        assert!(matches!(p.new_page(), Err(StorageError::PoolExhausted)));
        drop(ga);
        drop(gb);
        assert!(p.new_page().is_ok());
    }

    #[test]
    fn dirty_page_written_back_on_eviction_only() {
        let p = pool(1);
        let (pid, g) = p.new_page().unwrap();
        g.with_mut(|pg| pg.put_u16(0, 9));
        drop(g);
        let writes_before = p.tracker().snapshot().page_writes;
        // Force eviction.
        let (_, g2) = p.new_page().unwrap();
        drop(g2);
        assert!(p.tracker().snapshot().page_writes > writes_before);
        let g = p.fetch(pid).unwrap();
        assert_eq!(g.with(|pg| pg.get_u16(0)), 9);
    }

    #[test]
    fn clean_page_eviction_skips_write() {
        let p = pool(1);
        let (pid, g) = p.new_page().unwrap();
        drop(g);
        p.flush_all().unwrap();
        let w0 = p.tracker().snapshot().page_writes;
        // Fetch again (hit), drop, then evict: page is clean.
        drop(p.fetch(pid).unwrap());
        let (_, g2) = p.new_page().unwrap();
        drop(g2);
        assert_eq!(p.tracker().snapshot().page_writes, w0);
    }

    #[test]
    fn flush_all_persists_without_eviction() {
        let p = pool(4);
        let (pid, g) = p.new_page().unwrap();
        g.with_mut(|pg| pg.put_u64(16, 123));
        drop(g);
        p.flush_all().unwrap();
        let mut raw = Page::new();
        p.disk().read_page(pid, &mut raw).unwrap();
        assert_eq!(raw.get_u64(16), 123);
    }

    #[test]
    fn many_pages_through_small_pool() {
        let p = pool(3);
        let mut pids = Vec::new();
        for i in 0..50u32 {
            let (pid, g) = p.new_page().unwrap();
            g.with_mut(|pg| pg.put_u32(0, i));
            pids.push(pid);
        }
        for (i, &pid) in pids.iter().enumerate() {
            let g = p.fetch(pid).unwrap();
            assert_eq!(g.with(|pg| pg.get_u32(0)), i as u32);
        }
        assert!(p.state.lock().map.len() <= 3);
    }

    #[test]
    fn repinning_same_page_twice_is_allowed() {
        let p = pool(2);
        let (pid, g1) = p.new_page().unwrap();
        let g2 = p.fetch(pid).unwrap();
        g1.with_mut(|pg| pg.put_u16(0, 5));
        assert_eq!(g2.with(|pg| pg.get_u16(0)), 5);
    }

    #[test]
    fn recycled_page_id_does_not_serve_stale_bytes() {
        let p = pool(4);
        let (pid, g) = p.new_page().unwrap();
        g.with_mut(|pg| pg.put_u64(0, 0xDEAD_BEEF));
        drop(g);
        // Deallocate behind the pool's back: the frame stays mapped.
        p.disk().deallocate(pid).unwrap();
        // The recycled allocation must not hit the stale frame.
        let (pid2, g2) = p.new_page().unwrap();
        assert_eq!(pid2, pid, "disk recycles the freed id");
        assert_eq!(g2.with(|pg| pg.get_u64(0)), 0, "no stale bytes");
        drop(g2);
        let g3 = p.fetch(pid).unwrap();
        assert_eq!(g3.with(|pg| pg.get_u64(0)), 0);
    }

    #[test]
    fn discard_frames_loses_unflushed_writes() {
        let p = pool(4);
        let (durable, g) = p.new_page().unwrap();
        g.with_mut(|pg| pg.put_u32(0, 1));
        drop(g);
        p.flush_all().unwrap();
        let (lost, g) = p.new_page().unwrap();
        g.with_mut(|pg| pg.put_u32(0, 2));
        drop(g);
        let dropped = p.discard_frames().unwrap();
        assert_eq!(dropped, 1, "one dirty frame lost");
        let g = p.fetch(durable).unwrap();
        assert_eq!(g.with(|pg| pg.get_u32(0)), 1, "flushed data survives");
        drop(g);
        let g = p.fetch(lost).unwrap();
        assert_eq!(g.with(|pg| pg.get_u32(0)), 0, "unflushed write gone");
    }

    #[test]
    fn discard_frames_refuses_while_pinned() {
        let p = pool(2);
        let (_pid, g) = p.new_page().unwrap();
        assert!(p.discard_frames().is_err());
        drop(g);
        assert!(p.discard_frames().is_ok());
    }

    #[test]
    fn pool_hits_fail_during_crash() {
        use crate::fault::FaultInjector;
        use crate::retry::RetryPolicy;
        let inj = Arc::new(FaultInjector::disabled());
        let disk = Arc::new(DiskManager::with_faults(
            Tracker::new(),
            inj.clone(),
            RetryPolicy::default(),
        ));
        let p = BufferPool::new(disk, 4);
        let (pid, g) = p.new_page().unwrap();
        drop(g);
        inj.crash_now();
        assert!(matches!(p.fetch(pid), Err(StorageError::Crashed)));
        assert!(matches!(p.new_page(), Err(StorageError::Crashed)));
        assert!(matches!(p.flush_all(), Err(StorageError::Crashed)));
        inj.restart();
        assert!(p.fetch(pid).is_ok());
    }
}
