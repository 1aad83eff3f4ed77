//! Slotted-page heap files.
//!
//! A heap file is a list of slotted pages holding variable-length
//! records addressed by [`Rid`]s. This is the WiSS-style record layer
//! the paper's concrete views are stored in (when row-oriented; see
//! `sdbms-columnar` for the transposed alternative).
//!
//! ## Page layout
//!
//! ```text
//! 0..2    u16  slot_count
//! 2..4    u16  free_ptr        start of the record area (grows down)
//! 4..8    u32  reserved        INVALID_PAGE (page order is the file's list)
//! 8..     slot array           4 bytes/slot: u16 offset, u16 len
//! ...     free space
//! ...     record area          records packed toward PAGE_SIZE
//! ```
//!
//! A slot with `offset == 0` is vacant (no record can start inside the
//! header). Deleting a record vacates its slot; the space is reclaimed
//! by in-page compaction when a later insert needs it.
//!
//! ## Shadow pages
//!
//! [`HeapFile::successor`] is Lorie's shadow-page version of a file: it
//! shares every page with the file it came from and writes none of
//! them. The first write to a shared page copies it to a fresh page and
//! writes the copy, so the records on that page move, slot for slot, to
//! the copy; [`HeapFile::relocate`] maps their old rids to the new ones.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::{Mutex, Rank};

use crate::buffer::BufferPool;
use crate::error::{Result, StorageError};
use crate::page::{Page, PageId, INVALID_PAGE, PAGE_SIZE};

const HEADER: usize = 8;
const SLOT_SIZE: usize = 4;

/// Largest record a page can hold (one slot, empty page).
pub const MAX_RECORD: usize = PAGE_SIZE - HEADER - SLOT_SIZE;

/// Record identifier: page id + slot index. Stable within one version
/// of a file; see [`HeapFile::relocate`] for a successor's copies.
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
    p.put_u32(4, INVALID_PAGE);
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

/// Bytes a new record needs besides its own: a slot entry, unless a
/// vacant one can be reused.
fn slot_cost(p: &Page) -> usize {
    SLOT_SIZE * usize::from(vacant_slot(p).is_none())
}

/// Whether [`page_insert`] would find room for `len` bytes.
fn fits(p: &Page, len: usize) -> bool {
    total_free(p) >= len + slot_cost(p)
}

/// Insert `bytes` into the page, compacting first if needed.
/// Returns the slot index, or `None` if it cannot fit.
fn page_insert(p: &mut Page, bytes: &[u8]) -> Option<u16> {
    if !fits(p, bytes.len()) {
        return None;
    }
    // Dead space counts toward `fits`; compaction makes it contiguous.
    if contiguous_free(p) < bytes.len() + slot_cost(p) {
        compact(p);
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
    /// Each page shared with the file this one succeeded, to its copy
    /// once this file has copied it. A shared page is never written
    /// through this file: [`HeapFile::own`] copies it first.
    shared: HashMap<PageId, Option<PageId>>,
    /// Whether a shared page was copied since the last
    /// [`HeapFile::relocate`], which then has rids to move.
    copied: bool,
    /// Pages a delete or a moved record left room on, most recent last:
    /// an insert that does not fit the last page tries them before it
    /// grows the file, so a file rewritten record by record stays its
    /// size.
    holes: Vec<PageId>,
    records: u64,
}

/// A list of slotted pages holding variable-length records.
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
        let state = FileState {
            pages: vec![pid],
            shared: HashMap::new(),
            copied: false,
            holes: Vec::new(),
            records: 0,
        };
        Ok(HeapFile {
            pool,
            state: Mutex::new(Rank::HeapState, state),
        })
    }

    /// The successor version of this file: the same records on the same
    /// pages, every page shared, no I/O. Writes through the successor
    /// never touch a shared page (see [`HeapFile::own`]), so this file
    /// reads as it did for as long as its pages are not freed.
    #[must_use]
    pub fn successor(&self) -> HeapFile {
        let s = self.state.lock();
        let state = FileState {
            pages: s.pages.clone(),
            shared: s.pages.iter().map(|&p| (p, None)).collect(),
            copied: false,
            holes: Vec::new(),
            records: s.records,
        };
        HeapFile {
            pool: self.pool.clone(),
            state: Mutex::new(Rank::HeapState, state),
        }
    }

    /// Map each of `rids` to where its record lives now: a record on a
    /// shared page this file has copied is at the same slot of the copy.
    /// Any other rid stays as it is. Callers pass every rid they hold,
    /// after each write: only a copy made since the last call can have
    /// moved one, so a call with no copy since returns at once.
    pub fn relocate<'r>(&self, rids: impl IntoIterator<Item = &'r mut Rid>) {
        let mut s = self.state.lock();
        if !std::mem::take(&mut s.copied) {
            return;
        }
        for rid in rids {
            if let Some(&Some(copy)) = s.shared.get(&rid.page) {
                rid.page = copy;
            }
        }
    }

    /// Make page `pid` this file's own before it is written: a shared
    /// page is copied to a fresh page, which takes its place in the page
    /// list. Returns the page to write: the copy, also for a page copied
    /// earlier, so a rid not yet relocated still writes this file's page
    /// and never the shared one.
    fn own(&self, state: &mut FileState, pid: PageId) -> Result<PageId> {
        match state.shared.get(&pid) {
            None => return Ok(pid),
            Some(&Some(copy)) => return Ok(copy),
            Some(None) => {}
        }
        let image = self.pool.fetch(pid)?.with(Page::clone);
        let (copy, guard) = self.pool.new_page()?;
        guard.with_mut(|p| *p = image);
        drop(guard);
        state.shared.insert(pid, Some(copy));
        state.copied = true;
        if let Some(at) = state.pages.iter_mut().find(|p| **p == pid) {
            *at = copy;
        }
        Ok(copy)
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

    /// The page ids of this file, in list order.
    #[must_use]
    pub fn pages(&self) -> Vec<PageId> {
        self.state.lock().pages.clone()
    }

    /// Append a record, returning its id.
    ///
    /// Tries the last page first (append-mostly workloads stay
    /// sequential); grows the file when full.
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
        let mut guard = self.pool.fetch(last)?;
        guard.with(|p| check_header(p, last))?;
        if guard.with(|p| fits(p, bytes.len())) {
            if state.shared.contains_key(&last) {
                // A shared page is copied only once the record will go on it.
                drop(guard);
                guard = self.pool.fetch(self.own(&mut state, last)?)?;
            }
            if let Some(slot) = guard.with_mut(|p| page_insert(p, bytes)) {
                state.records += 1;
                return Ok(Rid::new(guard.page_id(), slot));
            }
        }
        drop(guard);
        while let Some(hole) = state.holes.pop() {
            let slot = self.pool.fetch(hole)?.with_mut(|p| page_insert(p, bytes));
            if let Some(slot) = slot {
                state.records += 1;
                return Ok(Rid::new(hole, slot));
            }
        }
        // Grow the file.
        let (new_pid, new_guard) = self.pool.new_page()?;
        new_guard.with_mut(init_page);
        let slot = new_guard
            .with_mut(|p| page_insert(p, bytes))
            .ok_or_else(|| {
                StorageError::corrupt("record does not fit in an empty page").at_page(new_pid)
            })?;
        drop(new_guard);
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
        let mut state = self.state.lock();
        let page = self.own(&mut state, rid.page)?;
        let rid = Rid::new(page, rid.slot);
        let guard = self.pool.fetch(page)?;
        guard.with_mut(|p| live_slot(p, rid).map(|_| set_slot(p, rid.slot, 0, 0)))?;
        state.records -= 1;
        state.holes.push(page);
        Ok(())
    }

    /// Replace the record at `rid` with `bytes`, returning the record's
    /// rid from now on: the same when the new value fits where the old
    /// one was, else a slot of the same page when it fits there, else a
    /// rid on another page. A shared page is copied first. Callers
    /// maintaining indexes must handle a changed rid.
    pub fn update(&self, rid: Rid, bytes: &[u8]) -> Result<Rid> {
        if bytes.len() > MAX_RECORD {
            return Err(StorageError::RecordTooLarge {
                len: bytes.len(),
                max: MAX_RECORD,
            });
        }
        let page = self.own(&mut self.state.lock(), rid.page)?;
        let rid = Rid::new(page, rid.slot);
        let guard = self.pool.fetch(page)?;
        let slot = guard.with_mut(|p| -> Result<Option<u16>> {
            let (off, len) = live_slot(p, rid)?;
            if bytes.len() <= len as usize {
                // Overwrite in place, shrinking the slot.
                let new_off = off as usize + (len as usize - bytes.len());
                p.write_slice(new_off, bytes);
                set_slot(p, rid.slot, new_off as u16, bytes.len() as u16);
                return Ok(Some(rid.slot));
            }
            set_slot(p, rid.slot, 0, 0);
            Ok(page_insert(p, bytes))
        })?;
        drop(guard);
        match slot {
            Some(slot) => Ok(Rid::new(page, slot)),
            None => {
                // Record was removed from its page; re-insert elsewhere.
                let mut state = self.state.lock();
                state.records -= 1;
                state.holes.push(page);
                drop(state);
                self.insert(bytes)
            }
        }
    }

    /// Visit `(rid, bytes)` of every live record, page by page in list
    /// order; the first error stops the scan.
    pub fn scan<E: From<StorageError>>(
        &self,
        mut visit: impl FnMut(Rid, &[u8]) -> std::result::Result<(), E>,
    ) -> std::result::Result<(), E> {
        for pid in self.pages() {
            self.pool.fetch(pid)?.with(|p| {
                (0..slot_count(p)).try_for_each(|i| match slot(p, i) {
                    (0, _) => Ok(()),
                    (off, len) => visit(Rid::new(pid, i), p.slice(off as usize, len as usize)),
                })
            })?;
        }
        Ok(())
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
        let mut scanned = Vec::new();
        h.scan(|rid, bytes| {
            scanned.push((rid, bytes.to_vec()));
            Ok::<_, StorageError>(())
        })
        .unwrap();
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
    fn a_file_rewritten_record_by_record_stays_its_size() {
        let h = heap(16);
        let mut rids: Vec<_> = (0..40u8).map(|i| h.insert(&[i; 300]).unwrap()).collect();
        let pages = h.page_count();
        for round in 0..20u8 {
            for rid in &mut rids {
                h.delete(*rid).unwrap();
                *rid = h.insert(&[round; 300]).unwrap();
            }
            // A record that grows moves, and the room it left is reused.
            rids[0] = h.update(rids[0], &[round; 600]).unwrap();
            rids[0] = h.update(rids[0], &[round; 300]).unwrap();
        }
        assert_eq!(h.page_count(), pages);
        assert_eq!(h.get(rids[39]).unwrap(), vec![19; 300]);
    }

    #[test]
    fn scan_survives_eviction_with_tiny_pool() {
        let h = heap(2);
        for i in 0..200u32 {
            h.insert(&i.to_le_bytes()).unwrap();
        }
        let mut n = 0;
        h.scan(|_, _| {
            n += 1;
            Ok::<_, StorageError>(())
        })
        .unwrap();
        assert_eq!(n, 200);
    }

    #[test]
    fn insert_into_a_zeroed_last_page_is_a_typed_error() {
        // Crash shape: the page was allocated (zeroed on disk) and
        // initialised only in a frame that never got flushed.
        let h = heap(8);
        assert_eq!(h.pool.discard_frames().unwrap(), 1);
        let pid = h.pages()[0];
        match h.insert(b"after the crash") {
            Err(StorageError::Corrupt(d)) => assert_eq!(d.page, Some(u64::from(pid))),
            other => panic!("expected Corrupt at page {pid}, got {other:?}"),
        }
    }

    #[test]
    fn a_successor_copies_only_the_pages_it_writes() {
        let h = heap(16);
        let rids: Vec<_> = (0..40u8).map(|i| h.insert(&[i; 300]).unwrap()).collect();
        assert!(h.page_count() > 3);
        let tracker = h.pool.tracker().clone();
        tracker.reset();
        let next = h.successor();
        let io = tracker.snapshot();
        assert_eq!((io.page_reads, io.page_writes, io.pool_hits), (0, 0, 0));
        assert_eq!(next.pages(), h.pages());
        // Two writes to one shared page copy it once; a stale rid of
        // that page still writes the copy.
        let (a, b) = (rids[0], rids[1]);
        assert_eq!(a.page, b.page);
        let a2 = next.update(a, &[200; 300]).unwrap();
        assert_ne!(a2.page, a.page);
        let b2 = next.update(b, &[201; 300]).unwrap();
        assert_eq!(b2.page, a2.page);
        let mut moved = rids.clone();
        next.relocate(moved.iter_mut());
        let copied: Vec<_> = h
            .pages()
            .into_iter()
            .filter(|p| !next.pages().contains(p))
            .collect();
        assert_eq!(copied, vec![a.page]);
        // The predecessor reads as before; the successor has its writes
        // and every other record where relocate says.
        for (i, (&old, &new)) in rids.iter().zip(&moved).enumerate() {
            assert_eq!(h.get(old).unwrap(), vec![i as u8; 300]);
            let want = match i {
                0 => vec![200; 300],
                1 => vec![201; 300],
                _ => vec![i as u8; 300],
            };
            assert_eq!(next.get(new).unwrap(), want, "record {i}");
        }
        assert_eq!(next.record_count(), h.record_count());
    }

    #[test]
    fn a_successor_appends_to_a_full_shared_page_on_a_new_page() {
        let h = heap(16);
        while h.page_count() == 1 {
            h.insert(&[1; 500]).unwrap();
        }
        let pages = h.pages();
        let next = h.successor();
        // The shared last page has room: the record goes to its copy.
        let rid = next.insert(&[2; 8]).unwrap();
        assert!(!pages.contains(&rid.page));
        assert_eq!(next.page_count(), pages.len());
        // A record too big for it grows the file; nothing shared is copied.
        let other = h.successor();
        let rid = other.insert(&[3; MAX_RECORD]).unwrap();
        assert_eq!(other.pages()[..pages.len()], pages[..]);
        assert_eq!(other.pages().last(), Some(&rid.page));
    }
}
