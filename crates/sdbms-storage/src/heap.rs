//! Slotted-page heap files.
//!
//! A heap file is a chain of slotted pages holding variable-length
//! records addressed by stable [`Rid`]s. This is the WiSS-style record
//! layer the paper's concrete views are stored in (when row-oriented;
//! see `sdbms-columnar` for the transposed alternative).
//!
//! ## Page layout
//!
//! ```text
//! 0..2    u16  slot_count
//! 2..4    u16  free_ptr        start of the record area (grows down)
//! 4..8    u32  next_page       chain link (INVALID_PAGE at tail)
//! 8..     slot array           4 bytes/slot: u16 offset, u16 len
//! ...     free space
//! ...     record area          records packed toward PAGE_SIZE
//! ```
//!
//! A slot with `offset == 0` is vacant (no record can start inside the
//! header). Deleting a record vacates its slot; the space is reclaimed
//! by in-page compaction when a later insert needs it.

use std::sync::Arc;

use parking_lot::{Mutex, Rank};

use crate::buffer::BufferPool;
use crate::error::{Result, StorageError};
use crate::page::{Page, PageId, INVALID_PAGE, PAGE_SIZE};

const HEADER: usize = 8;
const SLOT_SIZE: usize = 4;

/// Largest record a page can hold (one slot, empty page).
pub const MAX_RECORD: usize = PAGE_SIZE - HEADER - SLOT_SIZE;

/// Stable record identifier: page id + slot index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Rid {
    /// Page holding the record.
    pub page: PageId,
    /// Slot within the page.
    pub slot: u16,
}

impl Rid {
    /// Build a record id from its components.
    #[must_use]
    pub fn new(page: PageId, slot: u16) -> Self {
        Rid { page, slot }
    }
}

// ---- On-page helpers (free functions over `Page`) -----------------------

fn slot_count(p: &Page) -> u16 {
    p.get_u16(0)
}
fn set_slot_count(p: &mut Page, n: u16) {
    p.put_u16(0, n);
}
fn free_ptr(p: &Page) -> u16 {
    p.get_u16(2)
}
fn set_free_ptr(p: &mut Page, v: u16) {
    p.put_u16(2, v);
}
#[allow(dead_code)] // chain-traversal counterpart of set_next_page, kept for symmetry
fn next_page(p: &Page) -> PageId {
    p.get_u32(4)
}
fn set_next_page(p: &mut Page, pid: PageId) {
    p.put_u32(4, pid);
}
fn slot(p: &Page, i: u16) -> (u16, u16) {
    let off = HEADER + SLOT_SIZE * i as usize;
    (p.get_u16(off), p.get_u16(off + 2))
}
fn set_slot(p: &mut Page, i: u16, offset: u16, len: u16) {
    let off = HEADER + SLOT_SIZE * i as usize;
    p.put_u16(off, offset);
    p.put_u16(off + 2, len);
}

/// The `(offset, len)` of the live record at `rid.slot`; an
/// out-of-range or vacant slot is `InvalidRid`.
fn live_slot(p: &Page, rid: Rid) -> Result<(u16, u16)> {
    if rid.slot < slot_count(p) {
        let (off, len) = slot(p, rid.slot);
        if off != 0 {
            return Ok((off, len));
        }
    }
    Err(StorageError::InvalidRid {
        page: rid.page,
        slot: rid.slot,
    })
}

/// Initialize raw bytes as an empty slotted page.
fn init_page(p: &mut Page) {
    set_slot_count(p, 0);
    set_free_ptr(p, PAGE_SIZE as u16);
    set_next_page(p, INVALID_PAGE);
}

/// Contiguous free bytes between the slot array and the record area.
fn contiguous_free(p: &Page) -> usize {
    free_ptr(p) as usize - (HEADER + SLOT_SIZE * slot_count(p) as usize)
}

/// Free bytes counting dead (deleted) record space, assuming a vacant
/// slot can be reused (so no new slot entry is needed for them).
fn total_free(p: &Page) -> usize {
    let n = slot_count(p);
    let mut live = 0usize;
    for i in 0..n {
        let (off, len) = slot(p, i);
        if off != 0 {
            live += len as usize;
        }
    }
    PAGE_SIZE - (HEADER + SLOT_SIZE * n as usize) - live
}

/// Find a vacant slot, if any.
fn vacant_slot(p: &Page) -> Option<u16> {
    (0..slot_count(p)).find(|&i| slot(p, i).0 == 0)
}

/// Slide live records toward the end of the page, eliminating dead
/// space. Slot indexes (and hence Rids) are preserved.
fn compact(p: &mut Page) {
    let n = slot_count(p);
    let mut live: Vec<(u16, u16, Vec<u8>)> = Vec::new();
    for i in 0..n {
        let (off, len) = slot(p, i);
        if off != 0 {
            live.push((i, len, p.slice(off as usize, len as usize).to_vec()));
        }
    }
    // Rewrite packed from the end, keeping relative order stable.
    live.sort_by_key(|&(_, _, _)| 0u8); // stable: already in slot order
    let mut cursor = PAGE_SIZE;
    for (i, len, bytes) in live {
        cursor -= len as usize;
        p.write_slice(cursor, &bytes);
        set_slot(p, i, cursor as u16, len);
    }
    set_free_ptr(p, cursor as u16);
}

/// Reject a header the free-space arithmetic below would underflow on.
/// A page allocated but never flushed before a crash reads back zeroed
/// (`free_ptr == 0`), and the file's in-memory page list still names it.
fn check_header(p: &Page, pid: PageId) -> Result<()> {
    let fp = free_ptr(p) as usize;
    if fp < HEADER + SLOT_SIZE * slot_count(p) as usize || fp > PAGE_SIZE {
        return Err(StorageError::corrupt("heap page header out of bounds").at_page(pid));
    }
    Ok(())
}

/// Insert `bytes` into the page, compacting first if needed.
/// Returns the slot index, or `None` if it cannot fit.
fn page_insert(p: &mut Page, bytes: &[u8]) -> Option<u16> {
    let need_slot = vacant_slot(p).is_none();
    let slot_cost = if need_slot { SLOT_SIZE } else { 0 };
    if contiguous_free(p) < bytes.len() + slot_cost {
        if total_free(p) >= bytes.len() + slot_cost {
            compact(p);
        } else {
            return None;
        }
    }
    if contiguous_free(p) < bytes.len() + slot_cost {
        return None;
    }
    let idx = match vacant_slot(p) {
        Some(i) => i,
        None => {
            let i = slot_count(p);
            set_slot_count(p, i + 1);
            i
        }
    };
    let new_fp = free_ptr(p) as usize - bytes.len();
    p.write_slice(new_fp, bytes);
    set_free_ptr(p, new_fp as u16);
    set_slot(p, idx, new_fp as u16, bytes.len() as u16);
    Some(idx)
}

// ---- Heap file -----------------------------------------------------------

struct FileState {
    pages: Vec<PageId>,
    records: u64,
}

/// A chain of slotted pages holding variable-length records.
pub struct HeapFile {
    pool: Arc<BufferPool>,
    state: Mutex<FileState>,
}

impl std::fmt::Debug for HeapFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.state.lock();
        f.debug_struct("HeapFile")
            .field("pages", &s.pages.len())
            .field("records", &s.records)
            .finish()
    }
}

impl HeapFile {
    /// Create an empty heap file with one (empty) page.
    pub fn create(pool: Arc<BufferPool>) -> Result<Self> {
        let (pid, guard) = pool.new_page()?;
        guard.with_mut(init_page);
        drop(guard);
        Ok(HeapFile {
            pool,
            state: Mutex::new(
                Rank::HeapState,
                FileState {
                    pages: vec![pid],
                    records: 0,
                },
            ),
        })
    }

    /// Number of pages in the file.
    #[must_use]
    pub fn page_count(&self) -> usize {
        self.state.lock().pages.len()
    }

    /// Number of live records.
    #[must_use]
    pub fn record_count(&self) -> u64 {
        self.state.lock().records
    }

    /// The page ids of this file, in chain order.
    #[must_use]
    pub fn pages(&self) -> Vec<PageId> {
        self.state.lock().pages.clone()
    }

    /// The buffer pool this file lives in.
    #[must_use]
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Append a record, returning its stable id.
    ///
    /// Tries the last page first (append-mostly workloads stay
    /// sequential); grows the chain when full.
    pub fn insert(&self, bytes: &[u8]) -> Result<Rid> {
        if bytes.len() > MAX_RECORD {
            return Err(StorageError::RecordTooLarge {
                len: bytes.len(),
                max: MAX_RECORD,
            });
        }
        let mut state = self.state.lock();
        let last = state
            .pages
            .last()
            .copied()
            .ok_or_else(|| StorageError::corrupt("heap file has no pages"))?;
        let guard = self.pool.fetch(last)?;
        guard.with(|p| check_header(p, last))?;
        if let Some(slot) = guard.with_mut(|p| page_insert(p, bytes)) {
            state.records += 1;
            return Ok(Rid::new(last, slot));
        }
        drop(guard);
        // Grow the chain.
        let (new_pid, new_guard) = self.pool.new_page()?;
        new_guard.with_mut(init_page);
        let slot = new_guard
            .with_mut(|p| page_insert(p, bytes))
            .ok_or_else(|| {
                StorageError::corrupt("record does not fit in an empty page").at_page(new_pid)
            })?;
        drop(new_guard);
        let old_last = self.pool.fetch(last)?;
        old_last.with_mut(|p| set_next_page(p, new_pid));
        drop(old_last);
        state.pages.push(new_pid);
        state.records += 1;
        Ok(Rid::new(new_pid, slot))
    }

    /// Read the record at `rid`.
    pub fn get(&self, rid: Rid) -> Result<Vec<u8>> {
        let guard = self.pool.fetch(rid.page)?;
        guard.with(|p| {
            let (off, len) = live_slot(p, rid)?;
            Ok(p.slice(off as usize, len as usize).to_vec())
        })
    }

    /// Delete the record at `rid`, vacating its slot.
    pub fn delete(&self, rid: Rid) -> Result<()> {
        let guard = self.pool.fetch(rid.page)?;
        guard.with_mut(|p| live_slot(p, rid).map(|_| set_slot(p, rid.slot, 0, 0)))?;
        self.state.lock().records -= 1;
        Ok(())
    }

    /// Replace the record at `rid` with `bytes`.
    ///
    /// Stays in place when the new value fits in the old page
    /// (preserving the rid); otherwise the record moves and the new rid
    /// is returned. Callers maintaining indexes must handle a changed
    /// rid.
    pub fn update(&self, rid: Rid, bytes: &[u8]) -> Result<Rid> {
        if bytes.len() > MAX_RECORD {
            return Err(StorageError::RecordTooLarge {
                len: bytes.len(),
                max: MAX_RECORD,
            });
        }
        let guard = self.pool.fetch(rid.page)?;
        let in_place = guard.with_mut(|p| -> Result<bool> {
            let (off, len) = live_slot(p, rid)?;
            if bytes.len() <= len as usize {
                // Overwrite in place, shrinking the slot.
                let new_off = off as usize + (len as usize - bytes.len());
                p.write_slice(new_off, bytes);
                set_slot(p, rid.slot, new_off as u16, bytes.len() as u16);
                return Ok(true);
            }
            // Try re-inserting in the same page (slot reuse keeps rid).
            set_slot(p, rid.slot, 0, 0);
            // The vacated slot is the lowest-index vacant slot only if
            // no earlier vacancy exists; to keep the rid stable we
            // insert manually into this specific slot.
            let need = bytes.len();
            if contiguous_free(p) < need {
                if total_free(p) >= need {
                    compact(p);
                } else {
                    // Restore nothing (record is gone); caller gets a move.
                    return Ok(false);
                }
            }
            if contiguous_free(p) < need {
                return Ok(false);
            }
            let new_fp = free_ptr(p) as usize - need;
            p.write_slice(new_fp, bytes);
            set_free_ptr(p, new_fp as u16);
            set_slot(p, rid.slot, new_fp as u16, need as u16);
            Ok(true)
        })?;
        drop(guard);
        if in_place {
            Ok(rid)
        } else {
            // Record was removed from its page; re-insert elsewhere.
            self.state.lock().records -= 1;
            self.insert(bytes)
        }
    }

    /// Iterate `(rid, bytes)` over every live record, page by page in
    /// chain order.
    #[must_use]
    pub fn scan(&self) -> RecordIter<'_> {
        RecordIter {
            file: self,
            page_idx: 0,
            buffered: Vec::new(),
            buf_pos: 0,
        }
    }
}

/// Iterator over the live records of a heap file.
///
/// Buffers one page of records at a time, so pages are read once each
/// and guards are not held between `next` calls.
pub struct RecordIter<'a> {
    file: &'a HeapFile,
    page_idx: usize,
    buffered: Vec<(Rid, Vec<u8>)>,
    buf_pos: usize,
}

impl Iterator for RecordIter<'_> {
    type Item = Result<(Rid, Vec<u8>)>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if self.buf_pos < self.buffered.len() {
                let item = self.buffered[self.buf_pos].clone();
                self.buf_pos += 1;
                return Some(Ok(item));
            }
            let pid = {
                let state = self.file.state.lock();
                *state.pages.get(self.page_idx)?
            };
            self.page_idx += 1;
            self.buf_pos = 0;
            self.buffered.clear();
            let guard = match self.file.pool.fetch(pid) {
                Ok(g) => g,
                Err(e) => return Some(Err(e)),
            };
            guard.with(|p| {
                for i in 0..slot_count(p) {
                    let (off, len) = slot(p, i);
                    if off != 0 {
                        self.buffered.push((
                            Rid::new(pid, i),
                            p.slice(off as usize, len as usize).to_vec(),
                        ));
                    }
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Tracker;
    use crate::disk::DiskManager;

    fn heap(frames: usize) -> HeapFile {
        let disk = Arc::new(DiskManager::new(Tracker::new()));
        let pool = Arc::new(BufferPool::new(disk, frames));
        HeapFile::create(pool).unwrap()
    }

    #[test]
    fn insert_get_roundtrip() {
        let h = heap(8);
        let rid = h.insert(b"hello").unwrap();
        assert_eq!(h.get(rid).unwrap(), b"hello");
        assert_eq!(h.record_count(), 1);
    }

    #[test]
    fn many_records_spill_to_new_pages() {
        let h = heap(8);
        let payload = vec![7u8; 500];
        let rids: Vec<_> = (0..100).map(|_| h.insert(&payload).unwrap()).collect();
        assert!(h.page_count() > 1);
        for rid in rids {
            assert_eq!(h.get(rid).unwrap().len(), 500);
        }
    }

    #[test]
    fn delete_then_get_fails_and_slot_is_reused() {
        let h = heap(8);
        let a = h.insert(b"aaaa").unwrap();
        let _b = h.insert(b"bbbb").unwrap();
        h.delete(a).unwrap();
        assert!(h.get(a).is_err());
        assert_eq!(h.record_count(), 1);
        let c = h.insert(b"cccc").unwrap();
        assert_eq!(c, a, "vacated slot should be reused");
        assert_eq!(h.get(c).unwrap(), b"cccc");
    }

    #[test]
    fn double_delete_fails() {
        let h = heap(8);
        let a = h.insert(b"x").unwrap();
        h.delete(a).unwrap();
        assert!(h.delete(a).is_err());
    }

    #[test]
    fn update_in_place_smaller() {
        let h = heap(8);
        let rid = h.insert(b"0123456789").unwrap();
        let new = h.update(rid, b"abc").unwrap();
        assert_eq!(new, rid);
        assert_eq!(h.get(rid).unwrap(), b"abc");
        assert_eq!(h.record_count(), 1);
    }

    #[test]
    fn update_grows_within_page() {
        let h = heap(8);
        let rid = h.insert(b"ab").unwrap();
        let new = h.update(rid, b"a longer record value").unwrap();
        assert_eq!(new, rid);
        assert_eq!(h.get(rid).unwrap(), b"a longer record value");
    }

    #[test]
    fn update_that_cannot_fit_moves_record() {
        let h = heap(8);
        // Fill the first page almost completely.
        let big = vec![1u8; 1300];
        let r1 = h.insert(&big).unwrap();
        let _r2 = h.insert(&big).unwrap();
        let _r3 = h.insert(&big).unwrap();
        // Now grow r1 beyond what page 0 can hold.
        let huge = vec![2u8; 2000];
        let moved = h.update(r1, &huge).unwrap();
        assert_eq!(h.get(moved).unwrap(), huge);
        assert_eq!(h.record_count(), 3);
    }

    #[test]
    fn oversized_record_rejected() {
        let h = heap(8);
        let too_big = vec![0u8; MAX_RECORD + 1];
        assert!(matches!(
            h.insert(&too_big),
            Err(StorageError::RecordTooLarge { .. })
        ));
        let max = vec![0u8; MAX_RECORD];
        let rid = h.insert(&max).unwrap();
        assert_eq!(h.get(rid).unwrap().len(), MAX_RECORD);
    }

    #[test]
    fn scan_sees_live_records_in_order() {
        let h = heap(8);
        let mut expect = Vec::new();
        for i in 0..40u32 {
            let bytes = i.to_le_bytes().to_vec();
            let rid = h.insert(&bytes).unwrap();
            expect.push((rid, bytes));
        }
        // Delete every third record.
        for (rid, _) in expect.iter().step_by(3) {
            h.delete(*rid).unwrap();
        }
        let survivors: Vec<_> = expect
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 3 != 0)
            .map(|(_, x)| x.clone())
            .collect();
        let scanned: Vec<_> = h.scan().map(|r| r.unwrap()).collect();
        assert_eq!(scanned, survivors);
    }

    #[test]
    fn compaction_reclaims_dead_space() {
        let h = heap(8);
        // Two large records fill the page; delete the first, then a
        // record that only fits after compaction must still succeed on
        // page 0.
        let a = h.insert(&vec![1u8; 1800]).unwrap();
        let b = h.insert(&vec![2u8; 1800]).unwrap();
        h.delete(a).unwrap();
        let c = h.insert(&vec![3u8; 1900]).unwrap();
        assert_eq!(c.page, b.page, "should fit in page 0 after compaction");
        assert_eq!(h.get(b).unwrap(), vec![2u8; 1800]);
        assert_eq!(h.get(c).unwrap(), vec![3u8; 1900]);
    }

    #[test]
    fn scan_survives_eviction_with_tiny_pool() {
        let h = heap(2);
        for i in 0..200u32 {
            h.insert(&i.to_le_bytes()).unwrap();
        }
        let n = h.scan().count();
        assert_eq!(n, 200);
    }

    #[test]
    fn insert_into_a_zeroed_last_page_is_a_typed_error() {
        // Crash shape: the page was allocated (zeroed on disk) and
        // initialised only in a frame that never got flushed.
        let h = heap(8);
        assert_eq!(h.pool().discard_frames().unwrap(), 1);
        let pid = h.pages()[0];
        match h.insert(b"after the crash") {
            Err(StorageError::Corrupt(d)) => assert_eq!(d.page, Some(u64::from(pid))),
            other => panic!("expected Corrupt at page {pid}, got {other:?}"),
        }
    }
}
