//! # sdbms-storage — the WiSS-style storage substrate
//!
//! The paper ("A Framework for Research in Database Management for
//! Statistical Analysis", Boral/DeWitt/Bates 1982) planned to build its
//! statistical DBMS on WiSS, the Wisconsin Storage System: "a package
//! of storage structures and access methods" (§5.2). This crate is that
//! substrate, rebuilt in Rust over a *simulated* storage hierarchy so
//! every experiment reports exact, machine-independent I/O counts:
//!
//! - [`cost`] — shared I/O counters ([`cost::Tracker`]) and an abstract
//!   [`cost::CostModel`] mirroring the 1982 disk/tape balance.
//! - [`budget`] — per-request deadlines and cooperative cancellation:
//!   a [`budget::CancelToken`] flows ambiently through a
//!   [`budget::BudgetScope`] and every device attempt below checks it.
//! - [`ambient`] — the one thread-local stack both scope kinds live
//!   on, with the capture/install pair that carries a request's scopes
//!   onto worker threads.
//! - [`page`] — fixed 4 KiB pages with little-endian field access.
//! - [`disk`] — an in-memory disk that charges reads, writes, and
//!   seeks (non-sequential accesses).
//! - [`buffer`] — a clock-replacement buffer pool with pin guards.
//! - [`heap`] — slotted-page heap files with stable record ids,
//!   in-page compaction, and page-at-a-time scans.
//! - [`longrec`] — WiSS-style long records spanning multiple pages
//!   (the varying-length Summary Database entries need them).
//! - [`btree`] — a B+tree over the pool, byte-ordered keys, duplicate
//!   keys allowed (unique `(key, value)` pairs), lazy deletes.
//! - [`keyenc`] — order-preserving composite string keys.
//! - [`archive`] — the sequential "tape" store holding the raw
//!   database, where repositioning is the dominant cost.
//!
//! ## Quick tour
//!
//! ```
//! use std::sync::Arc;
//! use sdbms_storage::cost::Tracker;
//! use sdbms_storage::disk::DiskManager;
//! use sdbms_storage::buffer::BufferPool;
//! use sdbms_storage::heap::HeapFile;
//!
//! let tracker = Tracker::new();
//! let disk = Arc::new(DiskManager::new(tracker.clone()));
//! let pool = Arc::new(BufferPool::new(disk, 64));
//! let file = HeapFile::create(pool).unwrap();
//! let rid = file.insert(b"a record").unwrap();
//! assert_eq!(file.get(rid).unwrap(), b"a record");
//! assert!(tracker.snapshot().page_ios() == 0); // still buffered
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ambient;
pub mod archive;
pub mod btree;
pub mod budget;
pub mod buffer;
pub mod checksum;
pub mod cost;
pub mod disk;
pub mod error;
pub mod fault;
pub mod heap;
pub mod keyenc;
pub mod longrec;
pub mod page;
pub mod retry;

pub use archive::{ArchiveStore, ReelReader};
pub use btree::BTree;
pub use budget::{ambient_token, charge_ambient_ops, BudgetScope, CancelError, CancelToken};
pub use buffer::{BufferPool, PageGuard};
pub use checksum::crc32;
pub use cost::{CostModel, IoScope, IoSnapshot, IoStats, Tracker};
pub use disk::DiskManager;
pub use error::{CorruptDetail, Result, StorageError};
pub use fault::{
    Device, DeviceFaults, FaultInjector, FaultKind, FaultPlan, FaultStats, InjectedFault, IoOp,
    ScriptedFault,
};
pub use heap::{HeapFile, Rid, MAX_RECORD};
pub use longrec::{LongRecordFile, CHUNK_PAYLOAD};
pub use page::{Page, PageId, INVALID_PAGE, PAGE_SIZE};
pub use retry::{with_retries, RetryPolicy};

use std::sync::Arc;

/// Bundle of one simulated storage hierarchy: a tracker, a disk, a
/// buffer pool over it, and an archive sharing the tracker.
///
/// Most higher layers take a `StorageEnv` so a whole experiment charges
/// one set of counters.
#[derive(Debug, Clone)]
pub struct StorageEnv {
    /// Shared I/O counters for everything in this environment.
    pub tracker: Tracker,
    /// The simulated disk.
    pub disk: Arc<DiskManager>,
    /// Buffer pool over the disk.
    pub pool: Arc<BufferPool>,
    /// The sequential archive ("tape") store.
    pub archive: Arc<ArchiveStore>,
    /// Shared fault injector consulted by every device. Disabled (never
    /// fires) unless the environment was built with
    /// [`StorageEnv::with_faults`] or a plan is installed later.
    pub injector: Arc<FaultInjector>,
}

impl StorageEnv {
    /// Build an environment with a buffer pool of `pool_pages` frames
    /// and fault injection disabled.
    #[must_use]
    pub fn new(pool_pages: usize) -> Self {
        Self::with_faults(pool_pages, FaultPlan::none(), RetryPolicy::default())
    }

    /// Build an environment whose devices all consult one injector
    /// following `plan`, retrying transient faults under `retry`.
    #[must_use]
    pub fn with_faults(pool_pages: usize, plan: FaultPlan, retry: RetryPolicy) -> Self {
        let tracker = Tracker::new();
        let injector = Arc::new(FaultInjector::new(plan));
        let disk = Arc::new(DiskManager::with_faults(
            tracker.clone(),
            injector.clone(),
            retry,
        ));
        let pool = Arc::new(BufferPool::new(disk.clone(), pool_pages));
        let archive = Arc::new(ArchiveStore::with_faults(
            tracker.clone(),
            injector.clone(),
            retry,
        ));
        StorageEnv {
            tracker,
            disk,
            pool,
            archive,
            injector,
        }
    }

    /// True while a simulated crash is in effect.
    #[must_use]
    pub fn is_crashed(&self) -> bool {
        self.injector.is_crashed()
    }

    /// Recover from a simulated crash: clear the crash state and drop
    /// every buffered frame *without* write-back, so only data that
    /// reached the disk before the crash survives — exactly what a
    /// process restart over durable media would see. Returns the number
    /// of dirty (lost) frames. All page guards must be dropped first.
    pub fn restart(&self) -> Result<usize> {
        let lost = self.pool.discard_frames()?;
        self.injector.restart();
        Ok(lost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_shares_one_tracker() {
        let env = StorageEnv::new(4);
        let f = HeapFile::create(env.pool.clone()).unwrap();
        for i in 0..100u32 {
            f.insert(&i.to_le_bytes()).unwrap();
        }
        env.archive.create_reel("r").unwrap();
        env.archive.append_block("r", b"x").unwrap();
        let mut rd = env.archive.open("r").unwrap();
        rd.read_next().unwrap();
        let s = env.tracker.snapshot();
        assert!(s.archive_block_reads == 1);
        // Heap inserts through a 4-frame pool must have spilled.
        assert!(s.page_writes > 0 || s.page_reads == 0);
    }

    #[test]
    fn crash_and_restart_lose_only_unflushed_state() {
        let env = StorageEnv::new(8);
        let f = HeapFile::create(env.pool.clone()).unwrap();
        let durable = f.insert(b"flushed").unwrap();
        env.pool.flush_all().unwrap();
        let volatile = f.insert(b"buffered-only").unwrap();
        env.injector.crash_now();
        assert!(env.is_crashed());
        assert!(f.get(durable).is_err(), "all I/O down during crash");
        let lost = env.restart().unwrap();
        assert!(lost > 0, "the unflushed page was discarded");
        assert_eq!(f.get(durable).unwrap(), b"flushed");
        // The buffered-only record reverts to the flushed page image.
        assert!(f.get(volatile).is_err() || f.get(volatile).unwrap() != b"buffered-only");
    }

    #[test]
    fn faulty_env_shares_one_injector_across_devices() {
        let env = StorageEnv::with_faults(
            8,
            FaultPlan {
                seed: 7,
                ..FaultPlan::none()
            },
            RetryPolicy::default(),
        );
        env.archive.create_reel("raw").unwrap();
        env.archive.append_block("raw", b"b0").unwrap();
        env.injector.crash_now();
        let mut rd_err = false;
        if let Ok(mut rd) = env.archive.open("raw") {
            rd_err = rd.read_next() == Err(StorageError::Crashed);
        }
        assert!(rd_err, "archive honours the shared crash state");
        assert!(matches!(env.pool.new_page(), Err(StorageError::Crashed)));
        env.restart().unwrap();
        assert!(env.pool.new_page().is_ok());
    }
}
